"""Versioned binary checkpoint format.

Layout (all multi-byte integers little-endian):

    bytes 0..7    magic ``KVGRPOC1``
    bytes 8..11   format version (uint32), currently 1
    bytes 12..15  header length H in bytes (uint32)
    bytes 16..16+H  UTF-8 JSON header: {"layout": {name: {offset, shape}},
                  "param_count": P, "config": {...}, "iteration": n,
                  "has_ema": bool}
    then          P float64 values little-endian (the parameters)
    then          P float64 values little-endian (EMA parameters, if has_ema)
"""

from __future__ import annotations

import contextlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import network
from .errors import ConfigError
from .params import Layout, Params

MAGIC = b"KVGRPOC1"
VERSION = 1


@dataclass
class CheckpointData:
    params: Params
    config: dict
    iteration: int
    ema: Params | None


def _layout_json(layout: Layout) -> dict:
    return {name: {"offset": span.start, "shape": list(shape)}
            for name, (span, shape) in layout.segments.items()}


def save_checkpoint(path: str | Path, params: Params, config: dict,
                    iteration: int = 0, ema: Params | None = None) -> None:
    header = {
        "layout": _layout_json(params.layout),
        "param_count": params.layout.total,
        "config": config,
        "iteration": iteration,
        "has_ema": ema is not None,
    }
    blob = json.dumps(header).encode("utf-8")
    # A temp file renamed over the target: a crash mid-write leaves the old one whole.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", VERSION, len(blob)))
            fh.write(blob)
            fh.write(params.values.astype("<f8").tobytes())
            if ema is not None:
                fh.write(ema.values.astype("<f8").tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    with contextlib.suppress(OSError):  # the rename, to disk; a directory may not open
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def load_checkpoint(path: str | Path) -> CheckpointData:
    raw = Path(path).read_bytes()
    if len(raw) < 16 or raw[:8] != MAGIC:
        raise ConfigError(f"{path} is not a checkpoint file (bad magic)")
    version, header_len = struct.unpack("<II", raw[8:16])
    if version != VERSION:
        raise ConfigError(f"unsupported checkpoint version {version}")
    offset = 16 + header_len
    if offset > len(raw):
        raise ConfigError(f"checkpoint truncated: header needs {header_len} bytes")
    try:
        header = json.loads(raw[16:offset].decode("utf-8"))
        # The network's layout comes from these shapes, in ints >= 1 (a bool is not an int).
        stored = header["layout"]
        shapes = {name: stored[name]["shape"] for name in ("embed_w", "head2_w")}
        for name, shape in shapes.items():
            if not all(type(n) is int and n >= 1 for n in shape):
                raise ConfigError(f"{path}: checkpoint segment {name!r} has shape {shape}, "
                                  f"not ints >= 1")
        (in_dim, hidden), (_, latent) = shapes.values()
        count, has_ema = header["param_count"], header["has_ema"]
        config, iteration = header["config"], header["iteration"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ConfigError(f"{path} has a corrupt checkpoint header: {exc!r}") from None
    for name, field in (("param_count", count), ("iteration", iteration)):
        if isinstance(field, bool) or not isinstance(field, int) or field < 0:
            raise ConfigError(f"{path}: checkpoint header field {name} must be an "
                              f"int >= 0, got {field!r}")
    if not isinstance(has_ema, bool):
        raise ConfigError(f"{path}: checkpoint header field has_ema must be a bool, "
                          f"got {has_ema!r}")
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: checkpoint header field config must be a JSON object, "
                          f"got {config!r}")
    try:
        shape = network.NetworkShape(latent, hidden, in_dim - latent - 1)
    except ConfigError as exc:
        raise ConfigError(f"{path}: checkpoint segment 'embed_w' has shape {[in_dim, hidden]}, "
                          f"which gives no network ({exc})") from None
    # Segment by segment, types too: an offset of 208.0 is not the network's 208.
    layout = network.build_layout(shape)
    expected = _layout_json(layout)
    for name in {**expected, **stored}:
        if (json.dumps(stored.get(name), sort_keys=True)
                != json.dumps(expected.get(name), sort_keys=True)):
            raise ConfigError(f"{path}: checkpoint segment {name!r} has {stored.get(name)}, "
                              f"the network's {expected.get(name)}")
    if count != layout.total:
        raise ConfigError(f"checkpoint count {count} disagrees with layout {layout.total}")
    need, have = count * 8 * (2 if has_ema else 1), len(raw) - offset
    if have < need:
        raise ConfigError(f"checkpoint truncated: need {need} value bytes")
    if have > need:
        raise ConfigError(f"checkpoint has {have - need} bytes after its {need} value bytes")
    # Training never saves a non-finite value (an update that makes one rolls back).
    values = np.frombuffer(raw, dtype="<f8", offset=offset).astype(np.float64).reshape(-1, count)
    for name, row in zip(("parameters", "EMA"), values):
        if not np.isfinite(row).all():
            raise ConfigError(f"{path}: the checkpoint's {name} hold a non-finite value")
    ema = Params(values[1], layout) if has_ema else None
    return CheckpointData(Params(values[0], layout), config, iteration, ema)
