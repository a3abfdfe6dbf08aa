"""Reverse-mode differentiation on a small explicit tape, plus a finite-difference oracle.

Every operation here accepts either plain ``numpy`` arrays or tape-backed
:class:`Var` handles.  With array-only inputs the functions evaluate eagerly in
numpy and return arrays, so the loss code written against this module runs
unchanged in a fast value-only mode (used by ``fd_grad`` and for bookkeeping).
As soon as one operand is a :class:`Var`, the result is recorded on the tape
and :func:`grad` can backpropagate through it.  The velocity network is not
composed from these ops: it records itself as a single node with a
hand-derived backward (see :func:`kvgrpo.network.velocity_forward`).

All numerics are float64.  Evaluation is pure with respect to the parameter
vector, and backpropagation visits nodes in a fixed reverse order, so repeated
calls with identical inputs produce bit-identical values and gradients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError
from .params import GradVector, Params

Array = np.ndarray

# Marker for a constant operand (no gradient flows into it).
_CONST = -1


class Tape:
    """Append-only record of operations for one reverse-mode evaluation."""

    def __init__(self) -> None:
        self._values: list[Array] = []
        # Per node: (parent indices, backward fn mapping output adjoint to
        # per-parent adjoint contributions, aligned with the parent tuple).
        self._parents: list[tuple[int, ...]] = []
        self._backwards: list[Callable[[Array], tuple] | None] = []

    def push(self, value, parents: tuple[int, ...], backward) -> "Var":
        self._values.append(value)
        self._parents.append(parents)
        self._backwards.append(backward)
        return Var(self, len(self._values) - 1)

    def leaf(self, value) -> "Var":
        return self.push(value, (), None)

    def value_of(self, idx: int):
        return self._values[idx]

    def backward(self, output: "Var") -> list:
        """Adjoints of every node with respect to a scalar ``output``."""
        n = output.idx + 1
        adj: list = [None] * n
        adj[output.idx] = np.float64(1.0)
        for i in range(output.idx, -1, -1):
            g = adj[i]
            if g is None:
                continue
            bwd = self._backwards[i]
            if bwd is None:
                continue
            contributions = bwd(g)
            for p, contrib in zip(self._parents[i], contributions):
                if p == _CONST or contrib is None:
                    continue
                adj[p] = contrib if adj[p] is None else adj[p] + contrib
        return adj


class Var:
    """Handle to one tape node.  Supports the arithmetic used by the models."""

    __slots__ = ("tape", "idx")
    # Keep numpy from absorbing Vars into object arrays; binary ops then fall
    # back to the reflected methods below.
    __array_ufunc__ = None

    def __init__(self, tape: Tape, idx: int) -> None:
        self.tape = tape
        self.idx = idx

    @property
    def value(self):
        return self.tape.value_of(self.idx)

    @property
    def shape(self):
        return np.shape(self.value)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Var(idx={self.idx}, shape={self.shape})"


def value(x):
    """Underlying numeric value of a Var, array, or scalar."""
    return x.value if isinstance(x, Var) else x


def _tape_of(*xs) -> Tape | None:
    for x in xs:
        if isinstance(x, Var):
            return x.tape
    return None


def _operand(x, tape: Tape):
    """Split an operand into (value, parent index)."""
    if isinstance(x, Var):
        if x.tape is not tape:
            raise ValueError("operands belong to different tapes")
        return x.value, x.idx
    return x, _CONST


# ---------------------------------------------------------------------------
# Elementwise and scalar arithmetic
# ---------------------------------------------------------------------------


def add(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.add(value(a), value(b))
    av, ai = _operand(a, tape)
    bv, bi = _operand(b, tape)
    out = np.add(av, bv)

    def bwd(g):
        return _unbroadcast(g, np.shape(av)), _unbroadcast(g, np.shape(bv))

    return tape.push(out, (ai, bi), bwd)


def sub(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.subtract(value(a), value(b))
    av, ai = _operand(a, tape)
    bv, bi = _operand(b, tape)
    out = np.subtract(av, bv)

    def bwd(g):
        return _unbroadcast(g, np.shape(av)), _unbroadcast(-g, np.shape(bv))

    return tape.push(out, (ai, bi), bwd)


def mul(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.multiply(value(a), value(b))
    av, ai = _operand(a, tape)
    bv, bi = _operand(b, tape)
    out = np.multiply(av, bv)

    def bwd(g):
        return _unbroadcast(g * bv, np.shape(av)), _unbroadcast(g * av, np.shape(bv))

    return tape.push(out, (ai, bi), bwd)


def _unbroadcast(g, shape) -> Array:
    """Reduce a gradient to the shape of the operand it belongs to."""
    g = np.asarray(g)
    if g.shape == tuple(shape):
        return g
    # Sum out leading broadcast axes, then any axis of size 1.
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def exp(x):
    tape = _tape_of(x)
    if tape is None:
        return np.exp(x)
    xv, xi = _operand(x, tape)
    out = np.exp(xv)

    def bwd(g):
        return (g * out,)

    return tape.push(out, (xi,), bwd)


def minimum(a, b):
    """Elementwise minimum; at ties the gradient follows the first operand."""
    tape = _tape_of(a, b)
    if tape is None:
        return np.minimum(value(a), value(b))
    av, ai = _operand(a, tape)
    bv, bi = _operand(b, tape)
    out = np.minimum(av, bv)
    take_a = av <= bv

    def bwd(g):
        return g * take_a, g * ~take_a

    return tape.push(out, (ai, bi), bwd)


def clip(x, lo: float, hi: float):
    """Clamp to [lo, hi]; the gradient passes through on the closed interval."""
    tape = _tape_of(x)
    if tape is None:
        return np.clip(value(x), lo, hi)
    xv, xi = _operand(x, tape)
    out = np.clip(xv, lo, hi)
    inside = (xv >= lo) & (xv <= hi)

    def bwd(g):
        return (g * inside,)

    return tape.push(out, (xi,), bwd)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def asum(x):
    """Sum of all entries, as a scalar."""
    tape = _tape_of(x)
    if tape is None:
        return np.sum(value(x))
    xv, xi = _operand(x, tape)
    out = np.sum(xv)

    def bwd(g):
        return (np.full(np.shape(xv), g),)

    return tape.push(out, (xi,), bwd)


def logsumexp(x):
    """log(sum(exp(x))) of a 1-D vector, stable for large magnitudes."""
    tape = _tape_of(x)
    if tape is None:
        return _logsumexp(value(x))
    xv, xi = _operand(x, tape)
    out = _logsumexp(xv)
    soft = np.exp(xv - out)

    def bwd(g):
        return (g * soft,)

    return tape.push(out, (xi,), bwd)


def _logsumexp(x: Array):
    m = np.max(x)
    return m + np.log(np.sum(np.exp(x - m)))


# ---------------------------------------------------------------------------
# Parameter access
# ---------------------------------------------------------------------------


class TapeReader:
    """Hands out parameter segments as tape leaves.

    ``segment`` returns a recorded (differentiable) view, and ``detached`` the
    underlying :class:`Params`, for code paths that must evaluate without
    gradient tracking.
    """

    def __init__(self, tape: Tape, params: Params) -> None:
        self.tape = tape
        self.params = params
        self.layout = params.layout
        self._flat = tape.leaf(params.values)
        self._cache: dict[str, Var] = {}

    def segment(self, name: str) -> Var:
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        span = self.layout.slices[name]
        val = self.params.values[span].reshape(self.layout.segments[name][1])
        flat_idx = self._flat.idx
        total = self.layout.total

        def bwd(g):
            out = np.zeros(total)
            out[span] = np.asarray(g).ravel()
            return (out,)

        var = self.tape.push(val, (flat_idx,), bwd)
        self._cache[name] = var
        return var

    def detached(self) -> Params:
        return self.params

    @property
    def flat_index(self) -> int:
        return self._flat.idx


def grad(params: Params, f) -> tuple[float, GradVector]:
    """Value and exact reverse-mode gradient of a scalar function of the parameters.

    ``f`` receives a reader exposing ``segment(name)``/``detached()``/``layout``;
    :class:`Params` itself satisfies the same protocol for value-only calls.
    Raises :class:`NumericalError` if the value or any gradient entry is
    non-finite, naming the offending layout segments.
    """
    tape = Tape()
    reader = TapeReader(tape, params)
    out = f(reader)
    if not isinstance(out, Var):
        # f ignored the parameters (constant function): zero gradient.
        val = float(value(out))
        if not np.isfinite(val):
            raise NumericalError("loss value is non-finite")
        return val, GradVector(np.zeros(params.layout.total))
    val = float(out.value)
    if not np.isfinite(val):
        raise NumericalError("loss value is non-finite")
    adjoints = tape.backward(out)
    g = adjoints[reader.flat_index]
    if g is None:
        g = np.zeros(params.layout.total)
    g = np.asarray(g, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        bad = ~np.isfinite(g)
        names = [n for n, span in params.layout.slices.items() if bad[span].any()]
        raise NumericalError(f"non-finite gradient entries in segments: {names}")
    return val, GradVector(g)


def fd_grad(params: Params, f, h: float = 1e-5) -> GradVector:
    """Central finite-difference gradient, entry i = (f(p+h·e_i) − f(p−h·e_i)) / 2h."""
    if h <= 0:
        raise ValueError(f"finite-difference step must be positive, got {h}")
    base = params.values
    out = np.empty(base.size)
    work = base.copy()
    for i in range(base.size):
        orig = work[i]
        work[i] = orig + h
        fp = float(value(f(Params(work, params.layout))))
        work[i] = orig - h
        fm = float(value(f(Params(work, params.layout))))
        work[i] = orig
        out[i] = (fp - fm) / (2.0 * h)
    return GradVector(out)
