"""Velocity-field network: per-frame embedding, single-head attention over the
key/value memory, and a two-layer head.

The forward pass is plain numpy, on one block or a stack of them (a replay pass or a
rollout step runs all its rows as one), over the input rows and joint [memory ; block]
key/value buffers its caller lays out, one Q/K/V projection and attention per memory, each
step after a product in place in it.  It returns the velocity array for a :class:`Params`,
and for a :class:`~kvgrpo.autodiff.TapeReader` one tape node, whose hand-derived VJP reads
only the rows its caller picks, takes one fused Q/K/V adjoint and sums them last row first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, NumericalError
from .params import Layout, Params

# Parameter segments in layout order; also the parent order of the tape node.
SEGMENTS = ("embed_w", "embed_b", "wq", "bq", "wk", "bk", "wv", "bv",
            "head1_w", "head1_b", "head2_w", "head2_b")


@dataclass(frozen=True)
class NetworkShape:
    """Dimensions of the velocity network.

    latent_dim: size d of one frame latent.
    hidden_dim: embedding / attention width h (key and value dims equal h).
    prompt_dim: size of the fixed conditioning vector appended to each frame.
    """

    latent_dim: int = 8
    hidden_dim: int = 16
    prompt_dim: int = 4

    def __post_init__(self) -> None:
        for name in ("latent_dim", "hidden_dim", "prompt_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def input_dim(self) -> int:
        # frame latent + scalar time feature + prompt vector
        return self.latent_dim + 1 + self.prompt_dim


def build_layout(shape: NetworkShape) -> Layout:
    d, h = shape.latent_dim, shape.hidden_dim
    return Layout.build({
        "embed_w": (shape.input_dim, h),
        "embed_b": (h,),
        "wq": (h, h), "bq": (h,),
        "wk": (h, h), "bk": (h,),
        "wv": (h, h), "bv": (h,),
        "head1_w": (h, h), "head1_b": (h,),
        "head2_w": (h, d), "head2_b": (d,),
    })


def shape_from_layout(layout: Layout) -> NetworkShape:
    in_dim, h = layout.segments["embed_w"][1]
    d = layout.segments["head2_w"][1][1]
    return NetworkShape(latent_dim=d, hidden_dim=h, prompt_dim=in_dim - d - 1)


def param_init(shape: NetworkShape, seed: int) -> Params:
    """Deterministic initialization: weight matrices are N(0, 1/fan_in) per
    segment, biases start at zero."""
    layout = build_layout(shape)
    rng = np.random.default_rng(seed)
    values = np.zeros(layout.total)
    for span, seg_shape in layout.segments.values():
        if len(seg_shape) == 2:
            values[span] = rng.standard_normal(span.stop - span.start) / np.sqrt(seg_shape[0])
    return Params(values, layout)


def input_buffer(shape: tuple[int, ...], prompt: np.ndarray):
    """An empty [latents | time | prompt] input for (..., F, d) latents, prompt written."""
    aug = np.empty((*shape[:-1], shape[-1] + 1 + len(prompt)))
    aug[..., shape[-1] + 1:] = prompt
    return aug


def augment(aug: np.ndarray, x: np.ndarray, t):
    """Write latents ``x`` at time ``t`` (a float, or one per block) into an input buffer."""
    d = np.shape(x)[-1]
    aug[..., :d], aug[..., d] = x, (t if isinstance(t, float) else np.asarray(t)[..., None])
    return aug


class Weights:
    """The values ``w`` of a reader's segments in ``SEGMENTS`` order, and the
    value-only fused [wq | wk | wv] and [wk | wv] projections and attention
    scale, read once per rollout or replay call (its passes share them)."""

    def __init__(self, reader) -> None:
        self.w = _, _, wq, bq, wk, bk, wv, bv, *_ = [ad.value(reader.segment(n)) for n in SEGMENTS]
        self.wqkv, self.bqkv = np.concatenate((wq, wk, wv), axis=1), np.concatenate((bq, bk, bv))
        self.wkv, self.bkv = np.concatenate((wk, wv), axis=1), np.concatenate((bk, bv))
        self.scale = 1.0 / np.sqrt(wk.shape[1])


def _affine(x, w, b, activation=None):
    """``activation(x @ w + b)``, each step in place in the product."""
    y = x @ w
    np.add(y, b, out=y)
    return y if activation is None else activation(y, out=y)


def kv_for_frames(weights: Weights, x: np.ndarray, prompt: np.ndarray, aug=None):
    """Key/value projections for frames, as one [wk | wv] projection.  Finished frames
    are embedded at t=1 (the clean end of the flow path), in their input buffer ``aug``."""
    aug = input_buffer(np.shape(x), prompt) if aug is None else aug
    e = _affine(augment(aug, x, 1.0), *weights.w[:2], np.tanh)
    kv, h = _affine(e, weights.wkv, weights.bkv), len(weights.bkv) // 2
    return kv[..., :h], kv[..., h:]


def velocity_forward(reader, weights: Weights, aug, keys, values, taped=...):
    """Predicted velocity for every frame of a block, or of a stack of blocks.

    ``aug`` holds the [latents | time | prompt] rows of one (F, d) block or of rows of them,
    any number of leading dims, as :func:`augment` writes them, and ``keys`` and ``values``
    the joint (..., M + F, h) buffers over them (lists of them, the rows in memory order:
    value-only): attention runs over [memory ; block] jointly, the memory in their first M
    rows, after the block's keys and values are written in their last F.  Returns an array
    for a :class:`Params` reader, and for a tape reader one node whose parents are the
    segments in ``SEGMENTS`` order, valued at every row's velocity, whose adjoint covers only
    the rows the index ``taped`` picks (all by default): its pullback reads those rows alone.
    """
    out, (*saved, scale) = _forward(weights, aug, keys, values)
    if not isinstance(reader, ad.TapeReader):
        return out
    aug, saved = aug[taped], (*(a[taped] for a in saved), scale)
    return reader.tape.push(out, tuple(reader.segment(name).idx for name in SEGMENTS),
                            lambda g: _vjp(g, weights.w, aug, saved))


def _forward(weights: Weights, aug, keys, vals):
    """Network output for an (F, in) block or (R, F, in) rows, and the intermediates its
    backward needs, from one Q/K/V projection and one attention per memory (in lists of
    them: value-only), the block's keys and values written in the buffers' last F rows.
    Each step after a product runs in place in it, in the out-of-place order: no bit moves."""
    (ew, eb, *_, w1, b1, w2, b2), h = weights.w, len(weights.bkv) // 2
    e = _affine(aug, ew, eb, np.tanh)
    qkv = _affine(e, weights.wqkv, weights.bqkv)
    if isinstance(keys, list):
        att, stop = np.empty((*qkv.shape[:-1], h)), 0
        for k, v in zip(keys, vals):
            rows = slice(stop, stop := stop + len(k))
            p, _ = _attend(weights, qkv[rows], k, v, att[rows])
    else:
        p, att = _attend(weights, qkv, keys, vals)
    hid = _affine(att, w1, b1, np.tanh)
    return _affine(hid, w2, b2), (e, qkv, keys, vals, p, att, hid, weights.scale)


def _attend(weights: Weights, qkv, keys, vals, out=None):
    """One memory's softmax ``p`` and ``p @ vals``, into ``out`` if given."""
    h, frames = keys.shape[-1], qkv.shape[-2]
    keys[..., -frames:, :], vals[..., -frames:, :] = qkv[..., h:2 * h], qkv[..., 2 * h:]
    p = qkv[..., :h] @ keys.swapaxes(-1, -2)  # the scores, then their softmax in place
    np.multiply(p, weights.scale, out=p)
    np.exp(np.subtract(p, np.maximum.reduce(p, axis=-1, keepdims=True), out=p), out=p)
    np.divide(p, np.add.reduce(p, axis=-1, keepdims=True), out=p)
    return p, (p @ vals if out is None else np.matmul(p, vals, out=out))


def _vjp(g, w, aug, saved):
    """Adjoints of the segments in ``SEGMENTS`` order, given the output adjoint ``g``: the
    Q, K and V ones column blocks of one fused adjoint, the block's keys and values (the
    buffers' last F rows) from its own columns of the scores and softmax, after writing them
    back from the saved projection (a call in between may have written its own).  For rows of
    blocks (any leading dims) each is summed over the rows in flattened order, last row first
    (``np.add.reduce`` on a reversed view), as the tape adds them when each row is its own
    node.  That order, every product's and the embedding adjoint's (from v + from k) + from q
    are part of the bit-reproducibility contract: reordering moves fixed-seed runs' bits."""
    wq_t, wk_t, wv_t, w1_t, w2_t = (np.ascontiguousarray(w[i].T) for i in (2, 4, 6, 8, 10))
    (e, qkv, keys, vals, p, att, hid, scale), h, frames = saved, len(wq_t), aug.shape[-2]
    keys[..., -frames:, :], vals[..., -frames:, :] = qkv[..., h:2 * h], qkv[..., 2 * h:]
    q = qkv[..., :h]

    def tr(a):
        return a.swapaxes(-1, -2)

    g_pre1 = (g @ w2_t) * (1.0 - hid * hid)
    g_att = g_pre1 @ w1_t
    g_p = g_att @ tr(vals)
    g_scores = p * (g_p - np.sum(g_p * p, axis=-1, keepdims=True)) * scale
    g_qkv = np.empty((*e.shape[:-1], 3 * h))
    g_q, g_k, g_v = g_qkv[..., :h], g_qkv[..., h:2 * h], g_qkv[..., 2 * h:]
    np.matmul(g_scores, keys, out=g_q)
    g_k[...] = tr(tr(q) @ g_scores[..., -frames:])
    np.matmul(tr(p[..., -frames:]), g_att, out=g_v)
    g_e = (g_v @ wv_t + g_k @ wk_t) + g_q @ wq_t
    g_pre = g_e * (1.0 - e * e)
    adjoints = [a if g.ndim == 2 else np.add.reduce(a.reshape(-1, *a.shape[g.ndim - 2:])[::-1])
                for x, g_out in ((aug, g_pre), (e, g_qkv), (att, g_pre1), (hid, g))
                for a in (tr(x) @ g_out, np.sum(g_out, axis=-2))]
    adjoints[2:4] = [a[..., c:c + h] for c in range(0, 3 * h, h) for a in adjoints[2:4]]
    return adjoints


def check_finite(arr: np.ndarray, what: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise NumericalError(f"non-finite {what}")
    return arr
