"""Block-wise autoregressive generator on a linear-interpolation flow path.

A block of frames starts from seeded Gaussian noise at t=0 and is carried to
t=1 by Euler steps of the learned velocity field, attending over the sink/local
memory of previously generated frames.  A block is an (F, d) matrix, one row
per frame.  When it is finished, the whole block is projected to (F, h) key and
value rows in one call and pushed into the memory and the history.  Solver
steps kept for replay are rows too: one (F, d) latent block per step, stacked.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import network
from .cache import FrameHistory, KVCache
from .errors import SequencingError
from .params import Params


@dataclass(frozen=True)
class GeneratorConfig:
    frames_per_block: int = 3
    num_steps: int = 4
    sink_size: int = 3
    local_size: int = 9

    @property
    def dt(self) -> float:
        return 1.0 / self.num_steps


@dataclass(frozen=True)
class Block:
    """A finished block: its (F, d) final latents, one row per frame."""

    frames: np.ndarray
    block_index: int

    def matrix(self) -> np.ndarray:
        return self.frames

    def frame_indices(self) -> range:
        first = (self.block_index - 1) * len(self.frames) + 1
        return range(first, first + len(self.frames))


@dataclass
class FlowState:
    x: np.ndarray          # (frames_per_block, d) in-flight latents
    t: float
    step_index: int        # 1-based; num_steps + 1 marks a finished solve


@dataclass(frozen=True)
class ReplaySteps:
    """Cached solver steps, one row each: the latents entering the step, the
    velocity they received, and the step's time, 1-based index and block."""

    z: np.ndarray          # (R, frames_per_block, d)
    u_hat: np.ndarray      # (R, frames_per_block, d)
    t: np.ndarray          # (R,) accumulated flow time, as the solver saw it
    step: np.ndarray       # (R,)
    block: np.ndarray      # (R,)

    def __len__(self) -> int:
        return len(self.t)

    @staticmethod
    def concat(parts: list["ReplaySteps"]) -> "ReplaySteps":
        """The rows of ``parts``, in order."""
        return ReplaySteps(*(np.concatenate([getattr(p, f.name) for p in parts])
                             for f in fields(ReplaySteps)))


def velocity_eval(params: Params, state: FlowState, keys: np.ndarray | None,
                  values: np.ndarray | None, prompt: np.ndarray) -> np.ndarray:
    """Deterministic forward pass of the velocity network for a whole block,
    attending over the memory's stacked keys and values."""
    out = network.velocity_forward(params, state.x, state.t, keys, values, prompt)
    return network.check_finite(np.asarray(out), "velocity output")


def ode_step(state: FlowState, v: np.ndarray, dt: float, num_steps: int = 4) -> FlowState:
    """One explicit Euler step along the flow."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if state.step_index > num_steps:
        raise SequencingError(f"solver already finished ({num_steps} steps)")
    if state.t + dt > 1.0 + 1e-12:
        raise SequencingError(f"step from t={state.t} by dt={dt} overshoots t=1")
    return FlowState(state.x + dt * np.asarray(v), state.t + dt, state.step_index + 1)


def block_noise(noise_seed: int, block_index: int, frames: int, dim: int) -> np.ndarray:
    """Seeded standard-normal start latents for one block.

    The per-block stream is derived as SeedSequence((noise_seed, block_index)),
    so every trajectory sharing a noise seed shares each block's x_T.
    """
    rng = np.random.default_rng(np.random.SeedSequence((noise_seed, block_index)))
    return rng.standard_normal((frames, dim))


def generate_block(params: Params, cache: KVCache, block_index: int, noise_seed: int,
                   prompt: np.ndarray, record_replay: bool = False,
                   cfg: GeneratorConfig = GeneratorConfig()
                   ) -> tuple[Block, ReplaySteps | None]:
    """Solve one block from seeded noise to the clean sample.

    Deterministic in (params, cache, block_index, noise_seed, prompt).  With
    ``record_replay`` the pre-step latents and the velocities they received are
    kept, one row per solver step; otherwise the second result is ``None``.
    """
    d = network.shape_from_layout(params.layout).latent_dim
    x = block_noise(noise_seed, block_index, cfg.frames_per_block, d)
    state = FlowState(x, 0.0, 1)
    # The memory only changes between blocks, so it is stacked once per solve.
    keys, values = cache.stacked()
    rows = []
    for _ in range(cfg.num_steps):
        v = velocity_eval(params, state, keys, values, prompt)
        rows.append((state.x, v, state.t))
        state = ode_step(state, v, cfg.dt, cfg.num_steps)
    if not record_replay:
        return Block(state.x, block_index), None
    z, u_hat, t = (np.array(column) for column in zip(*rows))
    return Block(state.x, block_index), ReplaySteps(
        z, u_hat, t, np.arange(1, cfg.num_steps + 1), np.full(cfg.num_steps, block_index))


def write_back(cache: KVCache, block: Block, params: Params, prompt: np.ndarray,
               history: FrameHistory | None = None) -> KVCache:
    """Project the finished block to key/value rows and push them into the
    memory (and the retained history, if given).  Mutates and returns ``cache``."""
    keys, values = network.kv_for_frames(params, block.frames, prompt)
    frames = block.frame_indices()
    cache.append(keys, values, frames)
    if history is not None:
        history.append(keys, values, frames)
    return cache
