"""Block-wise autoregressive generator on a linear-interpolation flow path.

A block of frames starts from seeded Gaussian noise at t=0 and is carried to t=1 by Euler
steps of the learned velocity field, attending over the sink/local memory of previously
generated frames.  A block is an (F, d) matrix, one row per frame.  A group's trajectories
are solved in lockstep as (G, F, d) rows from the same start noise: each solver step makes
one network call over every row, attending once per memory length, and the finished block is
projected to key/value rows in one call, in the same input buffer (one per rollout and row
count), and written into the group's history.  Solver steps kept for replay go into the
group's record, one (F, d) latent block per row and step, as made when rows are in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

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

    @property
    def times(self) -> list[float]:
        """Each solver step's flow time, accumulated from 0.0 one ``dt`` at a time."""
        return list(accumulate([self.dt] * (self.num_steps - 1), initial=0.0))


@dataclass(frozen=True)
class Block:
    """A finished block: its (F, d) final latents, one row per frame, or a
    group's (G, F, d) stack of them."""

    frames: np.ndarray
    block_index: int


def generate_block(params: Params, buckets: list, block_index: int, noise: np.ndarray,
                   prompt: np.ndarray, weights: list, replay: tuple | None = None,
                   cfg: GeneratorConfig = GeneratorConfig(), aug=None, out=None) -> Block:
    """Solve one block from its (F, d) start latents ``noise``, as planned, to the
    clean sample for every row of ``buckets``, all from the same noise: per memory
    length, the rows and their joint (rows, M + F, h) key and value buffers, the memory
    in the first M rows (M = 0: empty), as :meth:`~kvgrpo.cache.FrameHistory.take`
    gathers them.  ``weights`` are the :class:`~kvgrpo.network.Weights` of ``params``.

    Each solver step makes one network call over every row, bucket after bucket, attending
    once per bucket at ``cfg.times[k]``, in the rows' input buffer ``aug`` (made if None); rows
    are not padded to one length, which would change the reduction lengths and so the bits.
    Row g's latents entering step k and their velocity go to ``replay[0][g, k]`` and
    ``replay[1][g, k]`` (unless ``replay`` is None), its final latents to ``out[g]`` (new if
    None): as made, or one scatter each after the solve for buckets out of row order.
    Non-finite final latents raise.
    """
    rows, keys, values = zip(*buckets)
    order = np.concatenate(rows) if len(rows) > 1 else rows[0]  # the call's rows, in turn
    at = slice(None) if order.tolist() == list(range(len(order))) else order
    memories = (list(keys), list(values)) if len(buckets) > 1 else (keys[0], values[0])
    frames = np.empty((len(order), *noise.shape)) if out is None else out
    aug = network.input_buffer(frames.shape, prompt) if aug is None else aug
    inputs, x, dt = network.Inputs(weights, aug, *memories), noise, cfg.dt
    steps = replay if replay is None or isinstance(at, slice) else np.empty(
        (2, len(order), cfg.num_steps, *noise.shape))
    with np.errstate(all="ignore"):  # the check below raises what would warn
        for k, t in enumerate(cfg.times):
            v = network.velocity_forward(params, x, t, inputs)
            if steps is not None:
                steps[0][:, k], steps[1][:, k] = x, v
            x = x + dt * v
    frames[at] = network.check_finite(x, "velocity output")
    if steps is not replay:
        replay[0][at], replay[1][at] = steps
    return Block(frames, block_index)


def write_back(history: FrameHistory, block: Block, weights: list, prompt: np.ndarray,
               aug=None) -> None:
    """Project a group's finished (rows, F, d) block to key/value rows in one call, with the
    ``weights`` read, in its input buffer ``aug``, and write them into the history."""
    keys, values = network.kv_for_frames(weights, block.frames, prompt, aug)
    history.append(keys, values)
