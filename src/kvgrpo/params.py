"""Flat parameter vector with a named-segment layout."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Layout:
    """Maps segment names to (offset, shape) within a flat float64 vector, and
    to the matching ``slice`` of that vector.

    Segments are disjoint and cover [0, total).
    """

    segments: dict[str, tuple[int, tuple[int, ...]]]
    total: int
    slices: dict[str, slice]

    @staticmethod
    def build(shapes: dict[str, tuple[int, ...]]) -> "Layout":
        segments: dict[str, tuple[int, tuple[int, ...]]] = {}
        slices: dict[str, slice] = {}
        offset = 0
        for name, shape in shapes.items():
            size = int(np.prod(shape))
            if size <= 0:
                raise ConfigError(f"segment {name!r} has zero size (shape {shape})")
            segments[name] = (offset, tuple(shape))
            slices[name] = slice(offset, offset + size)
            offset += size
        return Layout(segments, offset, slices)

    def to_json(self) -> dict:
        return {name: {"offset": off, "shape": list(shape)}
                for name, (off, shape) in self.segments.items()}

    @staticmethod
    def from_json(obj: dict) -> "Layout":
        """The layout :meth:`to_json` wrote: every dimension an int >= 1, and
        every offset the one its segment's shapes give."""
        shapes = {name: tuple(entry["shape"]) for name, entry in obj.items()}
        for name, shape in shapes.items():
            if not all(type(n) is int and n >= 1 for n in shape):
                raise ConfigError(f"segment {name!r} has shape {list(shape)}, not ints >= 1")
        layout = Layout.build(shapes)
        for name, entry in obj.items():
            offset = layout.segments[name][0]
            if type(entry["offset"]) is not int or entry["offset"] != offset:
                raise ConfigError(f"segment {name!r} has offset {entry['offset']!r}, "
                                  f"its layout gives {offset}")
        return layout


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
        layout = self.layout
        return self.values[layout.slices[name]].reshape(layout.segments[name][1])

    def detached(self) -> "Params":
        return self

    def copy(self) -> "Params":
        return Params(self.values.copy(), self.layout)


@dataclass
class GradVector:
    """Gradient with the same flat layout as the Params it differentiates."""

    values: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.values))
