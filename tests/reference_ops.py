"""Tape ops that only the tests build reference graphs with."""

import numpy as np

from kvgrpo import autodiff as ad


def pack(scalars):
    """Stack scalars, plain or on a tape, into a 1-D vector."""
    tape = ad._tape_of(*scalars)
    vals = np.array([np.float64(ad.value(s)) for s in scalars])
    if tape is None:
        return vals
    idxs = tuple(ad._operand(s, tape)[1] for s in scalars)
    return tape.push(vals, idxs, lambda g: tuple(g[i] for i in range(len(idxs))))
