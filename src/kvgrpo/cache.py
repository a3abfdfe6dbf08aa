"""Sink + sliding-local key/value memories over a group's shared frame history.

A frame's key and value are one row each, and only this module knows their
layout.  :class:`FrameHistory` holds a whole group as (G, N, h) arrays,
allocated once per rollout and written one block at a time; it keeps every
frame after the memories evict it, since branches route from older frames.  A
:class:`KVCache` holds only frame indices: each row's sink (the first frames,
never evicted) and bounded local window, gathered from the history on demand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


def default_frames(upto_frame: int, sink_size: int, local_capacity: int) -> tuple[int, ...]:
    """Default-layout memory after ``upto_frame`` frames: the sink plus the
    most recent frames, oldest first."""
    first_local = max(sink_size, upto_frame - local_capacity)
    return (*range(1, min(sink_size, upto_frame) + 1), *range(first_local + 1, upto_frame + 1))


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

    def append(self, keys: np.ndarray, values: np.ndarray, frames) -> None:
        """Write one block's (G, F, h) rows, or (1, F, h) rows every trajectory
        shares (the prefix); ``frames`` must continue the history."""
        frames = list(frames)
        start, stop = self.length, self.length + len(frames)
        if frames != list(range(start + 1, stop + 1)) or stop > self.keys.shape[1]:
            raise ContractError(f"history frames must be appended in order, got {frames} "
                                f"after {start} of {self.keys.shape[1]}")
        self.keys[:, start:stop], self.values[:, start:stop] = keys, values
        self.length = stop

    def gather(self, frames: list[tuple[int, ...]], sink_size: int,
               capacity: list[int]) -> "KVCache":
        """Memories whose row g holds frames ``frames[g]`` of history row g, in
        that order, with ``capacity[g]`` local slots."""
        for row in frames:
            if row and not 1 <= min(row) <= max(row) <= self.length:
                raise ContractError(f"frames {row} not in history of length {self.length}")
        return KVCache(self, [tuple(row) for row in frames], list(capacity), sink_size)

    def default_cache(self, upto_frame: int, sink_size: int = 3,
                      local_capacity: int = 9) -> "KVCache":
        """Every row's default-layout memory after ``upto_frame`` frames."""
        if upto_frame > self.length:
            raise ContractError(
                f"history holds {self.length} frames, cannot rebuild at {upto_frame}")
        rows = len(self.keys)
        return self.gather([default_frames(upto_frame, sink_size, local_capacity)] * rows,
                           sink_size, [local_capacity] * rows)


@dataclass
class KVCache:
    """One memory per row of a group over that row of ``history``: a fixed
    sink and a local window, ``frames[g]`` (sink first) bounded by ``capacity[g]``.

    In the default layout the local slots hold the most recent frames in
    ascending order.  In the routed layout the leading local slots hold
    stochastically routed older frames and the trailing slots the most recent
    ones; eviction is positional (the oldest slots go first), which keeps the
    trailing slots pointing at the newest frames either way.
    """

    history: FrameHistory
    frames: list[tuple[int, ...]]
    capacity: list[int]
    sink_size: int = 3

    def stacked(self) -> list[tuple[list[int], np.ndarray | None, np.ndarray | None]]:
        """Per memory length, shortest first: the rows of that length and their
        (rows, M, h) keys and values, one fancy index each (``None``: empty)."""
        lengths = [len(f) for f in self.frames]
        buckets = []
        # Not np.unique: its first call imports numpy.ma, ~2 MB resident.
        for n in sorted(set(lengths)):
            rows = [g for g, m in enumerate(lengths) if m == n]
            at = np.array(rows)[:, None], np.array([self.frames[g] for g in rows]) - 1
            keys, values = (self.history.keys[at], self.history.values[at]) if n else (None,) * 2
            buckets.append((rows, keys, values))
        return buckets

    def append(self, frames) -> None:
        """Add one block's frames to every row: fill the sink first, then the
        local window, dropping its oldest slots beyond capacity."""
        block = tuple(frames)
        for g, (row, capacity) in enumerate(zip(self.frames, self.capacity)):
            filled, row = min(len(row), self.sink_size), row + block
            sink = min(len(row), self.sink_size)
            if row[filled:sink] != tuple(range(filled + 1, sink + 1)):
                raise ContractError(f"sink frames must arrive in order, got frames "
                                    f"{list(row[filled:sink])} with {filled} sink entries")
            drop = len(row) - sink - capacity
            self.frames[g] = row[:sink] + row[sink + drop:] if drop > 0 else row
