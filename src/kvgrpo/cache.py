"""Sink + sliding-local key/value memory, and the retained per-frame history.

A frame's key and value are one row each of an ``(M, h)`` array; this module
alone knows how those rows are laid out.  The memory splits into a persistent
sink (the first three frames, never evicted) and a bounded local window of
recent frames.  A separate :class:`FrameHistory` keeps every frame's row after
it leaves the window, since branch memories route from frames the window has
already dropped.  Arrays are never written in place: an update builds new
arrays, so memories and history copies share their arrays safely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError


@dataclass
class KVCache:
    """Attention memory with a fixed sink and a bounded local window.

    ``keys`` and ``values`` hold one row per slot, sink rows first (``None``
    while empty), and ``frames`` the frame index of each row.  In the default
    layout the local slots hold the most recent frames in ascending frame
    order.  In the routed layout the leading local slots hold stochastically
    routed older frames and the trailing slots the most recent ones; eviction
    is positional (the oldest slots go first), which keeps the trailing slots
    pointing at the newest frames either way.
    """

    sink_size: int = 3
    local_capacity: int = 9
    keys: np.ndarray | None = None
    values: np.ndarray | None = None
    frames: tuple[int, ...] = ()

    def stacked(self) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
        """Keys and values as (M, h) matrices, sink rows first."""
        return self.keys, self.values

    def append(self, keys: np.ndarray, values: np.ndarray, frames) -> None:
        """Insert one block's rows: fill the sink first, then the local window,
        dropping its oldest rows beyond capacity."""
        filled = min(len(self.frames), self.sink_size)
        frames = self.frames + tuple(frames)
        sink = min(len(frames), self.sink_size)
        if frames[filled:sink] != tuple(range(filled + 1, sink + 1)):
            raise ContractError(
                f"sink frames must arrive in order, got frames {list(frames[filled:sink])} "
                f"with {filled} sink entries")
        if self.keys is not None:
            keys = np.concatenate([self.keys, keys])
            values = np.concatenate([self.values, values])
        drop = len(frames) - sink - self.local_capacity
        if drop > 0:
            keys = np.concatenate([keys[:sink], keys[sink + drop:]])
            values = np.concatenate([values[:sink], values[sink + drop:]])
            frames = frames[:sink] + frames[sink + drop:]
        self.keys, self.values, self.frames = keys, values, frames


@dataclass
class FrameHistory:
    """Every generated frame's key and value, as (N, h) arrays in frame order:
    row ``i`` holds frame ``i + 1``."""

    keys: np.ndarray | None = None
    values: np.ndarray | None = None

    def __len__(self) -> int:
        return 0 if self.keys is None else len(self.keys)

    def copy(self) -> "FrameHistory":
        return FrameHistory(self.keys, self.values)

    def append(self, keys: np.ndarray, values: np.ndarray, frames) -> None:
        """Append one block's rows; ``frames`` must continue the history."""
        frames = list(frames)
        if frames != list(range(len(self) + 1, len(self) + len(frames) + 1)):
            raise ContractError(
                f"history frames must be appended in order, got {frames} "
                f"after {len(self)}")
        if self.keys is not None:
            keys = np.concatenate([self.keys, keys])
            values = np.concatenate([self.values, values])
        self.keys, self.values = keys, values

    def gather(self, frames, sink_size: int = 3, local_capacity: int = 9) -> KVCache:
        """A memory whose rows are the given frames, in the given order."""
        frames = tuple(frames)
        if not frames:
            return KVCache(sink_size, local_capacity)
        bad = [f for f in frames if not 1 <= f <= len(self)]
        if bad:
            raise ContractError(f"frame {bad[0]} not in history of length {len(self)}")
        rows = np.array(frames) - 1
        return KVCache(sink_size, local_capacity, self.keys[rows], self.values[rows],
                       frames)

    def default_cache(self, upto_frame: int, sink_size: int = 3,
                      local_capacity: int = 9) -> KVCache:
        """Default-layout cache as it stands after ``upto_frame`` frames: the
        sink plus the most recent frames, oldest first."""
        if upto_frame > len(self):
            raise ContractError(
                f"history holds {len(self)} frames, cannot rebuild at {upto_frame}")
        first_local = max(sink_size, upto_frame - local_capacity)
        frames = [*range(1, min(sink_size, upto_frame) + 1),
                  *range(first_local + 1, upto_frame + 1)]
        return self.gather(frames, sink_size, local_capacity)
