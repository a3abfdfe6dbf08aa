"""Flat parameter vector with a named-segment layout."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Layout:
    """Maps segment names to (span, shape): the ``slice`` of a flat float64
    vector that holds the segment, and the shape it is read back in.

    Segments are disjoint and cover [0, total).
    """

    segments: dict[str, tuple[slice, tuple[int, ...]]]
    total: int

    @staticmethod
    def build(shapes: dict[str, tuple[int, ...]]) -> "Layout":
        segments: dict[str, tuple[slice, tuple[int, ...]]] = {}
        offset = 0
        for name, shape in shapes.items():
            size = int(np.prod(shape))
            if size <= 0:
                raise ConfigError(f"segment {name!r} has zero size (shape {shape})")
            segments[name] = (slice(offset, offset + size), tuple(shape))
            offset += size
        return Layout(segments, offset)


@dataclass
class Params:
    """Parameter vector.  ``segment(name)`` satisfies the reader protocol used
    by model code, so a Params can be passed anywhere a value-only reader is
    expected."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1 or self.values.size != self.layout.total:
            raise ConfigError(
                f"parameter vector has length {self.values.size}, layout expects {self.layout.total}")

    def segment(self, name: str) -> np.ndarray:
        span, shape = self.layout.segments[name]
        return self.values[span].reshape(shape)

    def copy(self) -> "Params":
        return Params(self.values.copy(), self.layout)

