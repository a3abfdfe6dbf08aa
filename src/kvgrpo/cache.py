"""Sink + sliding-local key/value memories over a group's shared frame history.

A frame's key and value are one row each, and only this module knows their
layout.  :class:`FrameHistory` holds a whole group as (G, N, h) arrays,
allocated once per rollout and written one block at a time; it keeps every
frame after the memories evict it, since branches route from older frames.  A
memory is frame indices, laid out by :func:`memory_frames`.  A rollout's are indexed
per length by :func:`buckets`, each taken from the flat history rows into the buffers
the network attends over; a default-layout memory, one index that every row reads from
its own history row, is a :class:`KVCache`.  An empty memory is a zero-length (..., 0, h) array.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ContractError


def memory_frames(length: int, sink_size: int, capacity: int, routed=(),
                  newest_after: int = 0) -> tuple[int, ...]:
    """A memory's frames after ``length`` frames, sink first: the sink (the
    first frames, never evicted), then ``capacity`` local slots over the
    ``routed`` frames followed by every frame after ``newest_after``, the
    oldest slots dropped first.  With nothing routed, the default layout: the
    most recent frames, oldest first."""
    local = (*routed, *range(max(sink_size, newest_after) + 1, length + 1))
    return (*range(1, min(sink_size, length) + 1), *local[max(0, len(local) - capacity):])


def buckets(frames: list[tuple[int, ...]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per memory length, shortest first: the rows whose ``frames`` have that
    length and their (rows, M) frame indices, less one (history positions)."""
    rows: dict[int, list[int]] = {}  # not np.unique: its first call imports numpy.ma
    for g, f in enumerate(frames):
        rows.setdefault(len(f), []).append(g)
    return [(np.array(r), np.fromiter(chain.from_iterable([frames[g] for g in r]), np.intp,
                                      len(r) * n).reshape(len(r), n) - 1)
            for n, r in sorted(rows.items())]


@dataclass
class FrameHistory:
    """Every frame's key and value per trajectory: ``keys[g, i]`` holds frame
    ``i + 1`` of trajectory g.  The first ``length`` frames of each row are set."""

    keys: np.ndarray      # (G, N, h)
    values: np.ndarray    # (G, N, h)
    length: int = 0

    @staticmethod
    def allocate(rows: int, frames: int, dim: int) -> "FrameHistory":
        return FrameHistory(np.zeros((rows, frames, dim)), np.zeros((rows, frames, dim)))

    def __len__(self) -> int:
        return self.length

    def append(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Write one block's (G, F, h) rows, or (1, F, h) rows every trajectory
        shares (the prefix), as the frames after the first ``length``."""
        start, stop = self.length, self.length + keys.shape[-2]
        if stop > self.keys.shape[1]:
            raise ContractError(f"history of {self.keys.shape[1]} frames cannot take "
                                f"{stop - start} more after {start}")
        self.keys[:, start:stop], self.values[:, start:stop] = keys, values
        self.length = stop

    def take(self, rows: np.ndarray, index: np.ndarray, frames: int):
        """The joint (rows, M + ``frames``, h) keys and values of a bucket, one flat ``take``
        each: its memory at ``rows`` and ``index``, then rows the network writes a block's into."""
        at = np.zeros((len(rows), index.shape[1] + frames), np.intp)  # of the (G * N, h) rows
        np.add(index, rows[:, None] * self.keys.shape[1], out=at[:, :index.shape[1]])
        return [a.reshape(-1, a.shape[-1]).take(at, 0) for a in (self.keys, self.values)]

    def default_cache(self, upto_frame: int, sink_size: int = 3,
                      local_capacity: int = 9) -> "KVCache":
        """Every row's default-layout memory after ``upto_frame`` frames."""
        if not 0 <= upto_frame <= self.length:
            raise ContractError(f"frame {upto_frame} not in history of length {self.length}")
        return KVCache(self, memory_frames(upto_frame, sink_size, local_capacity))


@dataclass(frozen=True)
class KVCache:
    """One memory shared by every row of a group, each row over its own row of
    ``history``: frames ``frames``, sink first (see :func:`memory_frames`)."""

    history: FrameHistory
    frames: tuple[int, ...]

    def stacked(self) -> tuple[np.ndarray, np.ndarray]:
        """Every row's (G, M, h) keys and values, one ``take`` each."""
        index = np.fromiter(self.frames, np.intp, len(self.frames)) - 1
        return self.history.keys.take(index, 1), self.history.values.take(index, 1)
