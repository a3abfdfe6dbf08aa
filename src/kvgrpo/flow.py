"""Block-wise autoregressive generator on a linear-interpolation flow path.

A block of frames starts from seeded Gaussian noise at t=0 and is carried to t=1 by Euler
steps of the learned velocity field, attending over the sink/local memory of previously
generated frames.  A block is an (F, d) matrix, one row per frame.  A group's trajectories
are solved in lockstep as (G, F, d) rows from the same start noise: each solver step makes
one network call over every row, attending once per memory length, over inputs built once
per block from weights the rollout reads once, and the finished block is projected to
key/value rows in one call and written into the group's history.  Solver steps kept for
replay are rows too: one (F, d) latent block per step, written straight into the record.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import network
from .cache import FrameHistory
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

    def frame_indices(self) -> range:
        size = self.frames.shape[-2]
        first = (self.block_index - 1) * size + 1
        return range(first, first + size)


@dataclass(frozen=True)
class ReplaySteps:
    """Cached solver steps, one row each: the latents entering the step, the
    velocity they received, and the step's time, 1-based index and block.
    ``z`` and ``u_hat`` of a group's steps lead with a trajectory axis."""

    z: np.ndarray          # ([G,] R, frames_per_block, d)
    u_hat: np.ndarray      # ([G,] R, frames_per_block, d)
    t: np.ndarray          # (R,) accumulated flow time, as the solver saw it
    step: np.ndarray       # (R,)
    block: np.ndarray      # (R,)

    def __len__(self) -> int:
        return len(self.t)

    @staticmethod
    def concat(parts: list["ReplaySteps"]) -> "ReplaySteps":
        """The steps of ``parts``, in order (a group's keep their trajectory axis)."""
        return ReplaySteps(*(np.concatenate([getattr(p, f.name) for p in parts],
                                            axis=-3 if f.name in ("z", "u_hat") else 0)
                             for f in fields(ReplaySteps)))


def generate_block(params: Params, buckets: list, block_index: int, noise: np.ndarray,
                   prompt: np.ndarray, weights: list, record_replay: bool = False,
                   cfg: GeneratorConfig = GeneratorConfig()) -> tuple[Block, ReplaySteps | None]:
    """Solve one block from its (F, d) start latents ``noise``, as planned, to the
    clean sample for every row of ``buckets``, all from the same noise: per memory
    length, the rows and their (rows, M, h) memory keys and values (M = 0: empty),
    as :meth:`~kvgrpo.cache.FrameHistory.take` gathers them.  ``weights`` are the
    :class:`~kvgrpo.network.Weights` of ``params``.

    Each solver step makes one network call over every row, bucket after bucket,
    attending once per bucket; rows are not padded to one length, which would change
    the reduction lengths and so the bits.  Non-finite final latents raise.  Returns the
    (rows, F, d) block and, if ``record_replay``, the group's :class:`ReplaySteps`, else ``None``.
    """
    rows, keys, values = zip(*buckets)
    order = np.concatenate(rows)  # the call's rows, bucket after bucket
    memories = (list(keys), list(values)) if len(buckets) > 1 else (keys[0], values[0])
    x = np.empty((len(order), *noise.shape))
    z, u_hat = np.empty((2, len(x), cfg.num_steps, *noise.shape)) if record_replay else (None,) * 2
    inputs, xb, t, ts = network.Inputs(weights, x.shape, *memories, prompt), noise, 0.0, []
    with np.errstate(all="ignore"):  # the check below raises what would warn
        for k in range(cfg.num_steps):
            v = network.velocity_forward(params, xb, t, *memories, prompt, inputs)
            if record_replay:
                z[order, k], u_hat[order, k] = xb, v
            ts.append(t)
            xb, t = xb + cfg.dt * v, t + cfg.dt
    x[order] = network.check_finite(xb, "velocity output")
    replay = ReplaySteps(z, u_hat, np.array(ts), np.arange(1, cfg.num_steps + 1),
                         np.full(cfg.num_steps, block_index)) if record_replay else None
    return Block(x, block_index), replay


def write_back(history: FrameHistory, block: Block, weights: list, prompt: np.ndarray) -> None:
    """Project a group's finished (rows, F, d) block to key/value rows in one
    call, with the ``weights`` read, and write them into the history."""
    keys, values = network.kv_for_frames(weights, block.frames, prompt)
    history.append(keys, values, block.frame_indices())
