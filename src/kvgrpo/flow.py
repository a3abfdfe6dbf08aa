"""Block-wise autoregressive generator on a linear-interpolation flow path.

A block of frames starts from seeded Gaussian noise at t=0 and is carried to
t=1 by Euler steps of the learned velocity field, attending over the sink/local
memory of previously generated frames.  Finished frames are projected to
key/value entries and written back into the memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import network
from .cache import FrameHistory, KVCache, KVEntry
from .errors import ContractError, SequencingError
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
class Latent:
    values: np.ndarray
    frame_index: int


@dataclass(frozen=True)
class Block:
    frames: tuple[Latent, ...]
    block_index: int

    def matrix(self) -> np.ndarray:
        return np.stack([f.values for f in self.frames])

    def frame_indices(self) -> list[int]:
        return [f.frame_index for f in self.frames]


@dataclass
class FlowState:
    x: np.ndarray          # (frames_per_block, d) in-flight latents
    t: float
    step_index: int        # 1-based; num_steps + 1 marks a finished solve


@dataclass(frozen=True)
class ReplayTuple:
    """One cached solver step: pre-step latents and the velocity they received."""

    z: np.ndarray          # (frames_per_block, d) latents entering the step
    u_hat: np.ndarray      # (frames_per_block, d) rollout velocity at that step
    block: int
    step: int
    t: float


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
                   cfg: GeneratorConfig = GeneratorConfig()) -> tuple[Block, list[ReplayTuple]]:
    """Solve one block from seeded noise to the clean sample.

    Deterministic in (params, cache, block_index, noise_seed, prompt).  With
    ``record_replay`` the pre-step latents and the velocities they received are
    kept, one tuple per solver step.
    """
    d = network.shape_from_layout(params.layout).latent_dim
    x = block_noise(noise_seed, block_index, cfg.frames_per_block, d)
    state = FlowState(x, 0.0, 1)
    # The memory only changes between blocks, so it is stacked once per solve.
    keys, values = cache.stacked()
    tuples: list[ReplayTuple] = []
    for s in range(1, cfg.num_steps + 1):
        v = velocity_eval(params, state, keys, values, prompt)
        if record_replay:
            tuples.append(ReplayTuple(state.x.copy(), np.asarray(v).copy(),
                                      block_index, s, state.t))
        state = ode_step(state, v, cfg.dt, cfg.num_steps)
    first_frame = (block_index - 1) * cfg.frames_per_block + 1
    frames = tuple(Latent(state.x[i].copy(), first_frame + i)
                   for i in range(cfg.frames_per_block))
    return Block(frames, block_index), tuples


def write_back(cache: KVCache, block: Block, params: Params, prompt: np.ndarray,
               history: FrameHistory | None = None) -> KVCache:
    """Project the finished block's frames to KV entries and push them into the
    memory (and the retained history, if given).  Mutates and returns ``cache``."""
    k, v = network.kv_for_frames(params, block.matrix(), prompt)
    k, v = np.asarray(k), np.asarray(v)
    for i, frame in enumerate(block.frames):
        entry = KVEntry(k[i].copy(), v[i].copy(), frame.frame_index)
        cache.append(entry)
        if history is not None:
            history.append(frame.values, entry)
    return cache


@dataclass
class RolloutResult:
    blocks: list[Block]
    history: FrameHistory
    replay: list[ReplayTuple] = field(default_factory=list)

    def frame_count(self) -> int:
        return len(self.history)


def rollout(params: Params, prompt: np.ndarray, num_blocks: int, noise_seed: int,
            cfg: GeneratorConfig = GeneratorConfig(),
            record_replay: bool = False) -> RolloutResult:
    """Sequential block generation under the default sliding-window memory."""
    if num_blocks < 1:
        raise ContractError(f"num_blocks must be >= 1, got {num_blocks}")
    cache = KVCache(cfg.sink_size, cfg.local_size)
    history = FrameHistory()
    blocks: list[Block] = []
    tuples: list[ReplayTuple] = []
    for b in range(1, num_blocks + 1):
        block, reps = generate_block(params, cache, b, noise_seed, prompt,
                                     record_replay, cfg)
        write_back(cache, block, params, prompt, history)
        blocks.append(block)
        tuples.extend(reps)
    return RolloutResult(blocks, history, tuples)
