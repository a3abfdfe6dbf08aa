"""Reverse-mode differentiation on a small explicit tape, plus a finite-difference oracle.

The tape holds no generic operations.  Each model part records itself as one
node with a hand-derived backward: the velocity network (see
:func:`kvgrpo.network.velocity_forward`), the replay energies, and the loss
head's log-softmax, PPO, KL and total (see :mod:`kvgrpo.policy`).  The same
functions return plain ``numpy`` values when no input is on a tape, which is
how ``fd_grad`` and the bookkeeping evaluate them.

All numerics are float64.  Evaluation is pure with respect to the parameter
vector, and backpropagation visits nodes in a fixed reverse order, so repeated
calls with identical inputs produce bit-identical values and gradients.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericalError
from .params import Params

Array = np.ndarray


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

    def backward(self, output: "Var") -> list:
        """Adjoints of every node with respect to a scalar ``output``: one slot
        per node on the tape, ``None`` where ``output`` does not depend on it."""
        adj: list = [None] * len(self._values)
        adj[output.idx] = np.float64(1.0)
        for i in range(output.idx, -1, -1):
            g, bwd = adj[i], self._backwards[i]
            if g is not None and bwd is not None:
                for p, contrib in zip(self._parents[i], bwd(g)):
                    adj[p] = contrib if adj[p] is None else adj[p] + contrib
        return adj


class Var:
    """Handle to one tape node.  It has no arithmetic: numpy operations on it
    raise ``TypeError`` rather than build object arrays."""

    __slots__ = ("tape", "idx")
    __array_ufunc__ = None

    def __init__(self, tape: Tape, idx: int) -> None:
        self.tape = tape
        self.idx = idx

    @property
    def value(self):
        return self.tape._values[self.idx]


def value(x):
    """Underlying numeric value of a Var, array, or scalar."""
    return x.value if isinstance(x, Var) else x


def asum(x):
    """Sum of all entries, as a scalar: a number, or a tape node for a Var."""
    if not isinstance(x, Var):
        return np.sum(x)
    xv = x.value
    return x.tape.push(np.sum(xv), (x.idx,), lambda g: (np.full(np.shape(xv), g),))


class TapeReader:
    """Records each parameter segment as one tape leaf, in layout order, when
    it is made; ``segment`` returns that leaf."""

    def __init__(self, tape: Tape, params: Params) -> None:
        self.tape = tape
        self.params = params
        self.layout = params.layout
        self.leaves = {name: tape.leaf(params.values[span].reshape(shape))
                       for name, (span, shape) in self.layout.segments.items()}

    def segment(self, name: str) -> Var:
        return self.leaves[name]


def grad(params: Params, f) -> tuple[float, Array]:
    """Value and exact reverse-mode gradient of a scalar function of the
    parameters.  The gradient is a float64 array of shape ``(layout.total,)``,
    laid out like ``params.values``: each segment's span holds its leaf's adjoint.

    ``f`` receives a :class:`TapeReader`, exposing ``segment(name)``, ``params``
    and ``layout``; :class:`Params` itself serves value-only calls.
    Raises :class:`NumericalError` if the value or any gradient entry is
    non-finite, naming the offending layout segments.
    """
    tape = Tape()
    reader = TapeReader(tape, params)
    out = f(reader)
    val = float(value(out))
    if not np.isfinite(val):
        raise NumericalError("loss value is non-finite")
    # An f that ignored the parameters (a constant) has a zero gradient.
    g = np.zeros(params.layout.total)
    if isinstance(out, Var):
        adj = tape.backward(out)
        for name, (span, _) in params.layout.segments.items():
            if (a := adj[reader.leaves[name].idx]) is not None:
                g[span] = np.ravel(a)
    if not np.all(np.isfinite(g)):
        bad = ~np.isfinite(g)
        names = [n for n, (span, _) in params.layout.segments.items() if bad[span].any()]
        raise NumericalError(f"non-finite gradient entries in segments: {names}")
    return val, g


def fd_grad(params: Params, f, h: float = 1e-5) -> Array:
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
    return out
