"""Sink + sliding-local key/value memory, and the retained per-frame history.

The memory splits into a persistent sink (the first three frames, never
evicted) and a bounded local window of recent frames.  A separate
:class:`FrameHistory` keeps every frame's entry alive after it leaves the
window, since branch caches route from frames the window has already dropped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError

DEFAULT_LAYOUT = "default"
ROUTED_LAYOUT = "routed"


@dataclass(frozen=True)
class KVEntry:
    key: np.ndarray
    value: np.ndarray
    frame_index: int


@dataclass
class KVCache:
    """Attention memory with a fixed sink and a bounded local window.

    In the default layout the local slots hold the most recent frames in
    ascending frame order.  In the routed layout the leading slots hold
    stochastically routed older frames and the trailing slots the most recent
    ones; eviction is positional (slots shift left), which keeps the trailing
    slots pointing at the newest frames either way.
    """

    sink_size: int = 3
    local_capacity: int = 9
    layout_tag: str = DEFAULT_LAYOUT
    sink: list[KVEntry] = field(default_factory=list)
    local: list[KVEntry] = field(default_factory=list)

    def copy(self) -> "KVCache":
        return KVCache(self.sink_size, self.local_capacity, self.layout_tag,
                       list(self.sink), list(self.local))

    def entries(self) -> list[KVEntry]:
        return self.sink + self.local

    def stacked(self) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
        """Keys and values as (M, h) matrices, sink rows first."""
        ents = self.entries()
        if not ents:
            return None, None
        return (np.stack([e.key for e in ents]),
                np.stack([e.value for e in ents]))

    def append(self, entry: KVEntry) -> None:
        """Insert a newly generated frame: fill the sink first, then shift the
        local window, evicting from the leading slot."""
        if len(self.sink) < self.sink_size:
            if entry.frame_index != len(self.sink) + 1:
                raise ContractError(
                    f"sink frames must arrive in order, got frame {entry.frame_index} "
                    f"with {len(self.sink)} sink entries")
            self.sink.append(entry)
            return
        self.local.append(entry)
        if len(self.local) > self.local_capacity:
            del self.local[0]

    def frame_indices(self) -> list[int]:
        return [e.frame_index for e in self.entries()]


@dataclass
class FrameHistory:
    """Every generated frame's final latent and KV entry, in frame order."""

    latents: list[np.ndarray] = field(default_factory=list)
    entries: list[KVEntry] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def copy(self) -> "FrameHistory":
        return FrameHistory(list(self.latents), list(self.entries))

    def append(self, latent: np.ndarray, entry: KVEntry) -> None:
        if entry.frame_index != len(self.entries) + 1:
            raise ContractError(
                f"history frames must be appended in order, got {entry.frame_index} "
                f"after {len(self.entries)}")
        self.latents.append(latent)
        self.entries.append(entry)

    def entry(self, frame_index: int) -> KVEntry:
        if not 1 <= frame_index <= len(self.entries):
            raise ContractError(f"frame {frame_index} not in history of length {len(self.entries)}")
        return self.entries[frame_index - 1]

    def default_cache(self, upto_frame: int, sink_size: int = 3,
                      local_capacity: int = 9) -> KVCache:
        """Default-layout cache as it stands after ``upto_frame`` frames: the
        sink plus the most recent frames, oldest first."""
        if upto_frame > len(self.entries):
            raise ContractError(
                f"history holds {len(self.entries)} frames, cannot rebuild at {upto_frame}")
        sink = [self.entries[i] for i in range(min(sink_size, upto_frame))]
        first_local = max(sink_size, upto_frame - local_capacity)
        local = [self.entries[i] for i in range(first_local, upto_frame)]
        return KVCache(sink_size, local_capacity, DEFAULT_LAYOUT, sink, local)
