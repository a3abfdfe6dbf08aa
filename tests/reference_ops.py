"""The generic tape ops the loss head was once built from, kept as the tests'
reference: ``test_policy`` builds today's loss and PG surrogate from them and
asserts that the fused head in :mod:`kvgrpo.policy` equals them bit for bit,
and ``test_autodiff.TestOps`` checks each op's backward by finite differences.
Also kept: the network's forward with three Q, K and V projections, which
``test_flow`` asserts the fused projection equals bit for bit, and the per-row
memory gather that a group's default memory, one index for every row, replaced,
the per-block noise draw that the planner's batched seeds replaced, the network
call on fresh inputs that every caller now lays out itself, and the replay that
made two calls per memory size under a gradient (a value-only one for the steps
carrying none), which ``test_policy`` asserts the one taped call equals bit for bit, and the
reward composite through numpy's ``mean``, ``diff``, ``array_split`` and ``stack``, which
``test_rewards`` asserts the bare reductions equal byte for byte.

Each op evaluates eagerly in numpy on plain arrays and records a tape node as
soon as one operand is a :class:`~kvgrpo.autodiff.Var`; the node's adjoint
order is the one the old tape used.
"""

import numpy as np

from kvgrpo import network
from kvgrpo.autodiff import Tape, TapeReader, Var, asum, value
from kvgrpo.cache import FrameHistory, buckets
from kvgrpo.errors import ContractError

Array = np.ndarray

# Marker for a constant operand (no gradient flows into it).
_CONST = -1


def _push(tape: Tape, out, parents: tuple[int, ...], bwd) -> Var:
    """Record a node with only its taped operands as parents."""
    keep = [k for k, p in enumerate(parents) if p != _CONST]

    def taped_bwd(g):
        contributions = bwd(g)
        return tuple(contributions[k] for k in keep)

    return tape.push(out, tuple(parents[k] for k in keep), taped_bwd)


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

    return _push(tape, out, (ai, bi), bwd)


def sub(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.subtract(value(a), value(b))
    av, ai = _operand(a, tape)
    bv, bi = _operand(b, tape)
    out = np.subtract(av, bv)

    def bwd(g):
        return _unbroadcast(g, np.shape(av)), _unbroadcast(-g, np.shape(bv))

    return _push(tape, out, (ai, bi), bwd)


def mul(a, b):
    tape = _tape_of(a, b)
    if tape is None:
        return np.multiply(value(a), value(b))
    av, ai = _operand(a, tape)
    bv, bi = _operand(b, tape)
    out = np.multiply(av, bv)

    def bwd(g):
        return _unbroadcast(g * bv, np.shape(av)), _unbroadcast(g * av, np.shape(bv))

    return _push(tape, out, (ai, bi), bwd)


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

    return _push(tape, out, (xi,), bwd)


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

    return _push(tape, out, (ai, bi), bwd)


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

    return _push(tape, out, (xi,), bwd)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


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

    return _push(tape, out, (xi,), bwd)


def _logsumexp(x: Array):
    m = np.max(x)
    return m + np.log(np.sum(np.exp(x - m)))


def pack(scalars):
    """Stack scalars, plain or on a tape, into a 1-D vector."""
    tape = _tape_of(*scalars)
    vals = np.array([np.float64(value(s)) for s in scalars])
    if tape is None:
        return vals
    idxs = tuple(_operand(s, tape)[1] for s in scalars)
    return _push(tape, vals, idxs, lambda g: tuple(g[i] for i in range(len(idxs))))


# ---------------------------------------------------------------------------
# The loss head on these ops
# ---------------------------------------------------------------------------


def log_policy(energies, tau: float):
    """The trained log-policy ``E*(-1/tau) - lse`` as a chain of ops."""
    logits = mul(energies, -1.0 / tau)
    return sub(logits, logsumexp(logits))


def ppo_kl_loss(log_probs, old_log_probs, ref_log_probs, adv_values, cfg):
    """The trained loss as a chain of ops: ``(total, ppo, kl, rho)``."""
    n = np.size(value(log_probs))
    rho = exp(sub(log_probs, old_log_probs))
    unclipped = mul(rho, adv_values)
    clipped = mul(clip(rho, 1.0 - cfg.eps_low, 1.0 + cfg.eps_high), adv_values)
    ppo = mul(asum(minimum(unclipped, clipped)), -1.0 / n)
    kl = asum(mul(exp(log_probs), sub(log_probs, ref_log_probs)))
    return add(ppo, mul(kl, cfg.beta)), ppo, kl, rho


def pg_surrogate(log_probs, eval_old, adv, cfg):
    """The unclipped PG objective on the trained loss's ratios, as ops."""
    rho = ppo_kl_loss(log_probs, eval_old.log_probs, eval_old.log_probs, adv, cfg)[3]
    return asum(mul(rho, eval_old.probs * adv))


# ---------------------------------------------------------------------------
# The velocity network's forward, one projection each for Q, K and V
# ---------------------------------------------------------------------------


def augment(x, t, prompt):
    """The network input [latents | time | prompt] per frame row, concatenated;
    ``t`` is a float, or one time per (F, d) block of ``x``."""
    lead = np.shape(x)[:-1]
    return np.concatenate([x, np.broadcast_to(np.asarray(t)[..., None, None], (*lead, 1)),
                           np.broadcast_to(prompt, (*lead, len(prompt)))], axis=-1)


def kv_for_frames(w, x, prompt, t=1.0):
    """Key/value projections for frames from the twelve segment values ``w``."""
    ew, eb, _, _, wk, bk, wv, bv = w[:8]
    e = np.tanh(augment(x, t, prompt) @ ew + eb)
    return e @ wk + bk, e @ wv + bv


def network_forward(w, aug, keys, vals, n_ctx):
    """Output and saved intermediates, as ``kvgrpo.network._vjp`` reads them (the
    [q | k | v] projections side by side); the block's keys and values are written
    after the ``n_ctx`` memory rows."""
    ew, eb, wq, bq, wk, bk, wv, bv, w1, b1, w2, b2 = w
    e = np.tanh(aug @ ew + eb)
    q, k, v = e @ wq + bq, e @ wk + bk, e @ wv + bv
    keys[..., n_ctx:, :], vals[..., n_ctx:, :] = k, v
    scale = 1.0 / np.sqrt(keys.shape[-1])
    scores = (q @ keys.swapaxes(-1, -2)) * scale
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = p / p.sum(axis=-1, keepdims=True)
    att = p @ vals
    hid = np.tanh(att @ w1 + b1)
    return hid @ w2 + b2, (e, np.concatenate((q, k, v), axis=-1), keys, vals, p, att, hid, scale)


def velocity(reader, x, t, keys, values, prompt):
    """``network.velocity_forward`` on fresh inputs, as it ran without them: the
    (..., M, h) memories copied into joint buffers, the reader's weights read."""
    aug = network.input_buffer(np.shape(x), prompt)
    inputs = network.Inputs(network.Weights(reader), aug, *joint(np.shape(x), keys, values))
    return network.velocity_forward(reader, x, t, inputs)


def two_call_replay_energies(reader, group, rows, cfg):
    """``policy.replay_energies`` as two passes per memory size under a gradient: a
    value-only call at ``reader.params`` for the counted steps that carry no gradient,
    then a taped call for the carrying ones, each over a gather of its steps (a basic
    slice when it takes all of a size's steps), with one node per taped call."""
    d = network.shape_from_layout(reader.layout).latent_dim
    rows, step = list(rows), group.replay_schedule()[1]
    at = slice(rows[0], rows[-1] + 1) if rows == list(range(rows[0], rows[-1] + 1)) else rows
    carrying = step <= (np.inf if cfg.grad_steps is None else cfg.grad_steps)
    counted = carrying | cfg.include_all_steps
    passes = (((reader.params, counted & ~carrying), (reader, carrying))
              if isinstance(reader, TapeReader) else ((reader, counted),))
    terms, nodes, weights = np.zeros((len(rows), 1 + len(step))), [], None
    for r, steps in passes:
        weights = weights or (network.Weights(r) if steps.any() else None)
        for s, *inputs in group.replay_batch():
            if not (picked := steps[s]).any():
                continue
            cols = None if picked.all() else np.flatnonzero(picked)
            aug, keys, values, targets = ((a[at] if cols is None else np.take(a[at], cols, axis=1))
                                          .reshape(-1, *a.shape[2:]) for a in inputs)
            v = network.velocity_forward(r, None, None, network.Inputs(weights, aug, keys, values))
            diff = value(v) - targets
            terms[:, 1 + s[picked]] = np.add.reduce(
                (diff * diff).reshape(len(rows), -1, diff[0].size), axis=2) * (1.0 / d)
            if isinstance(v, Var):
                nodes.append((v.idx, np.repeat(np.arange(len(rows)), picked.sum()), diff))
    energies = np.cumsum(terms, axis=1)[:, -1]
    if not nodes:
        return energies
    return reader.tape.push(energies, tuple(idx for idx, *_ in nodes), lambda g: tuple(
        (2.0 * (g[row] * (1.0 / d)))[:, None, None] * diff for _, row, diff in nodes))


# ---------------------------------------------------------------------------
# Per-row memories over a group's history
# ---------------------------------------------------------------------------


def gather(history: FrameHistory, frames: list[tuple[int, ...]], block: int = 0):
    """Per memory length, shortest first: the rows whose memory, row g holding
    frames ``frames[g]`` of history row g, has that length, and their (rows, M, h)
    keys and values, gathered as the rollout gathers a block's buckets; with
    ``block`` rows after the memory's, the joint buffers a ``block``-frame block
    is solved over."""
    for row in frames:
        if row and not 1 <= min(row) <= max(row) <= history.length:
            raise ContractError(f"frames {row} not in history of length {history.length}")
    return [(rows, *history.take(rows, index, block)) for rows, index in buckets(frames)]


def joint(shape, keys, values):
    """Fresh joint [memory ; block] key and value buffers for (..., F, d) latents of
    ``shape`` over (..., M, h) memories, the memory copied into the first M rows."""
    (*lead, frames, _), (n, h) = shape, np.shape(keys)[-2:]
    joint_keys, joint_values = np.zeros((2, *lead, n + frames, h))
    joint_keys[..., :n, :], joint_values[..., :n, :] = keys, values
    return joint_keys, joint_values


def block_noise(noise_seed: int, block_index: int, frames: int, dim: int) -> np.ndarray:
    """Seeded standard-normal start latents for one block, drawn from
    ``SeedSequence((noise_seed, block_index))``: every trajectory sharing a noise
    seed shares each block's x_T."""
    rng = np.random.default_rng(np.random.SeedSequence((noise_seed, block_index)))
    return rng.standard_normal((frames, dim))


# ---------------------------------------------------------------------------
# The reward composite through numpy's wrappers
# ---------------------------------------------------------------------------


def composite(frames, spec, target=None):
    """``kvgrpo.rewards.composite`` as it was written on ``np.mean``, ``np.diff``,
    ``np.array_split`` and ``np.stack``, whatever the segment count."""
    frames = np.asarray(frames, dtype=np.float64)
    target = np.zeros(frames.shape[-1]) if target is None else target
    parts = {"target": lambda seg: -np.mean((seg - target) ** 2, axis=(-2, -1)),
             "smoothness": lambda seg: -np.mean(np.diff(seg, axis=-2) ** 2, axis=(-2, -1))}
    totals = [sum(w * parts[name](seg) for name, w in spec.components)
              for seg in np.array_split(frames, spec.segment_count, axis=-2)]
    return np.mean(np.stack(totals, axis=-1), axis=-1)
