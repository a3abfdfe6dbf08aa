"""Block-wise autoregressive generator on a linear-interpolation flow path.

A block of frames starts from seeded Gaussian noise at t=0 and is carried to
t=1 by Euler steps of the learned velocity field, attending over the sink/local
memory of previously generated frames.  A block is an (F, d) matrix, one row
per frame.  The trajectories of a group are solved in lockstep: their blocks
stack to (G, F, d) from the same start noise, and each solver step makes one
network call per memory-length bucket (the rows whose memories have one
length).  When the block is finished, the whole group's block is projected to
key and value rows in one call, and each trajectory's rows are pushed into its
memory and history.  Solver steps kept for replay are rows too: one (F, d)
latent block per step, stacked.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import network
from .cache import FrameHistory, KVCache
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
    """A finished block: its (F, d) final latents, one row per frame, or a
    group's (G, F, d) stack of them."""

    frames: np.ndarray
    block_index: int

    def matrix(self) -> np.ndarray:
        return self.frames

    def frame_indices(self) -> range:
        size = self.frames.shape[-2]
        first = (self.block_index - 1) * size + 1
        return range(first, first + size)


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


def velocity_eval(params: Params, x: np.ndarray, t: float, keys: np.ndarray | None,
                  values: np.ndarray | None, prompt: np.ndarray) -> np.ndarray:
    """Deterministic forward pass of the velocity network for (rows, F, d)
    latents at flow time ``t``, each row over its own memory, stacked to
    (rows, M, h) keys and values (``None``: empty memories)."""
    out = network.velocity_forward(params, x, t, keys, values, prompt)
    return network.check_finite(np.asarray(out), "velocity output")


def block_noise(noise_seed: int, block_index: int, frames: int, dim: int) -> np.ndarray:
    """Seeded standard-normal start latents for one block.

    The per-block stream is derived as SeedSequence((noise_seed, block_index)),
    so every trajectory sharing a noise seed shares each block's x_T.
    """
    rng = np.random.default_rng(np.random.SeedSequence((noise_seed, block_index)))
    return rng.standard_normal((frames, dim))


def generate_block(params: Params, caches: list[KVCache], block_index: int,
                   noise_seed: int, prompt: np.ndarray, record_replay: bool = False,
                   cfg: GeneratorConfig = GeneratorConfig()
                   ) -> tuple[Block, list[ReplaySteps] | None]:
    """Solve one block from seeded noise to the clean sample for every
    trajectory at once: row i runs over the memory ``caches[i]``, and all rows
    start from the same noise.

    Each solver step makes one network call per memory-length bucket.  Rows
    are not padded to one length: that would change the reduction lengths and
    so the bits.  Deterministic in (params, caches, block_index, noise_seed,
    prompt).  Returns the (rows, F, d) block and, with ``record_replay``, one
    :class:`ReplaySteps` per row of its pre-step latents and the velocities
    they received; otherwise ``None``.
    """
    d = network.shape_from_layout(params.layout).latent_dim
    x = np.tile(block_noise(noise_seed, block_index, cfg.frames_per_block, d),
                (len(caches), 1, 1))
    # The memories only change between blocks, so they are stacked once per solve.
    memories = [cache.stacked() for cache in caches]
    lengths = [0 if keys is None else len(keys) for keys, _ in memories]
    buckets = []
    # Not np.unique: its first call imports numpy.ma, ~2 MB resident.
    for n in sorted(set(lengths)):
        rows = [i for i, m in enumerate(lengths) if m == n]
        stacked = [np.stack([memories[i][j] for i in rows]) if n else None for j in (0, 1)]
        buckets.append((rows if len(rows) < len(caches) else slice(None), *stacked))
    t, zs, us, ts = 0.0, [], [], []
    for _ in range(cfg.num_steps):
        v = np.empty_like(x)
        for rows, keys, values in buckets:
            v[rows] = velocity_eval(params, x[rows], t, keys, values, prompt)
        zs.append(x)
        us.append(v)
        ts.append(t)
        x, t = x + cfg.dt * v, t + cfg.dt
    replay = None
    if record_replay:
        columns = np.array(ts), np.arange(1, cfg.num_steps + 1), np.full(cfg.num_steps,
                                                                          block_index)
        replay = [ReplaySteps(z, u_hat, *columns)
                  for z, u_hat in zip(np.stack(zs, axis=1), np.stack(us, axis=1))]
    return Block(x, block_index), replay


def write_back(caches: list[KVCache], block: Block, params: Params, prompt: np.ndarray,
               histories: list[FrameHistory]) -> None:
    """Project a group's finished (rows, F, d) block to key/value rows in one
    call, and push row i into ``caches[i]`` and ``histories[i]``."""
    keys, values = network.kv_for_frames(params, block.frames, prompt)
    frames = block.frame_indices()
    for cache, history, k, v in zip(caches, histories, keys, values):
        cache.append(k, v, frames)
        history.append(k, v, frames)
