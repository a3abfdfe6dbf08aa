"""Reverse-mode tape against analytic gradients and the finite-difference oracle."""

import gc
import weakref

import numpy as np
import pytest

from kvgrpo.autodiff import Tape, TapeReader, fd_grad, grad
from kvgrpo.checks import rel_l2
from kvgrpo.errors import NumericalError
from kvgrpo.network import (SEGMENTS, NetworkShape, Weights, _forward, _vjp, augment,
                            build_layout, input_buffer, param_init)
from kvgrpo.params import Layout, Params

import reference_ops as ops


def quad_params(n=7, seed=0):
    layout = Layout.build({"theta": (n,)})
    rng = np.random.default_rng(seed)
    return Params(rng.normal(size=n), layout), rng


# Velocity-network inputs: d=3 latents, h=5 hidden, p=2 prompt (d != h).
NET = NetworkShape(3, 5, 2)
NET_X = np.random.default_rng(21).normal(size=(3, 3))
NET_PROMPT = np.array([0.3, -0.2])
CONTEXTS = {
    "zero-rows": (np.zeros((0, 5)), np.zeros((0, 5))),
    "four-rows": tuple(np.random.default_rng(22).normal(size=(2, 4, 5))),
}


def net_params(seed=0):
    """Network parameters with every entry random, biases included."""
    layout = build_layout(NET)
    return Params(np.random.default_rng(seed).normal(size=layout.total) * 0.5, layout)


def net_loss(context):
    """A scalar projection of the network output, as a function of a reader."""
    proj = np.random.default_rng(23).normal(size=(3, 3))
    keys, values = CONTEXTS[context]
    return lambda r: ops.asum(ops.mul(
        ops.velocity(r, NET_X, 0.25, keys, values, NET_PROMPT), proj))


def per_row_velocity(params, x, t, keys, values, prompt):
    """Reference forward pass: one frame row at a time, one key at a time."""
    seg = params.segment
    emb = [np.tanh(np.concatenate([row, [t], prompt]) @ seg("embed_w") + seg("embed_b"))
           for row in x]
    keys = list(keys) + [e @ seg("wk") + seg("bk") for e in emb]
    values = list(values) + [e @ seg("wv") + seg("bv") for e in emb]
    out = []
    for e in emb:
        q = e @ seg("wq") + seg("bq")
        scores = np.array([q @ k for k in keys]) / np.sqrt(len(q))
        weights = np.exp(scores - scores.max())
        weights = weights / weights.sum()
        attended = sum(w * v for w, v in zip(weights, values))
        hid = np.tanh(attended @ seg("head1_w") + seg("head1_b"))
        out.append(hid @ seg("head2_w") + seg("head2_b"))
    return np.array(out)


def sq(x):
    """Elementwise square on the tape ops: one product with a shared operand."""
    return ops.mul(x, x)


class TestFiniteDifferences:
    def test_coordinate_function(self):
        params, _ = quad_params()
        fd = fd_grad(params, lambda p: p.segment("theta")[0], 1e-5)
        expected = np.zeros(7)
        expected[0] = 1.0
        np.testing.assert_allclose(fd, expected, atol=1e-10)

    def test_square_at_three(self):
        layout = Layout.build({"theta": (1,)})
        params = Params(np.array([3.0]), layout)
        fd = fd_grad(params, lambda p: p.segment("theta")[0] ** 2, 1e-5)
        assert abs(fd[0] - 6.0) < 1e-8

    def test_random_quadratic_matches_analytic_and_tape(self):
        params, rng = quad_params(seed=3)
        a = rng.normal(size=(7, 7))
        a = a + a.T
        b = rng.normal(size=7)

        def f(p):
            th = p.segment("theta")
            a_th = ops.pack([ops.asum(ops.mul(row, th)) for row in a])
            return ops.add(ops.mul(ops.asum(ops.mul(th, a_th)), 0.5),
                           ops.asum(ops.mul(b, th)))

        analytic = a @ params.segment("theta") + b
        fd = fd_grad(params, f, 1e-5)
        assert rel_l2(fd, analytic) < 1e-7
        _, g = grad(params, f)
        assert rel_l2(g, analytic) < 1e-12

    def test_rejects_nonpositive_step(self):
        params, _ = quad_params()
        with pytest.raises(ValueError):
            fd_grad(params, lambda p: 0.0, h=0.0)


class TestGrad:
    def test_constant_function_gives_zero(self, tiny_params):
        val, g = grad(tiny_params, lambda r: 4.25)
        assert val == 4.25
        np.testing.assert_array_equal(g, np.zeros(tiny_params.layout.total))

    @pytest.mark.parametrize("f", [lambda r: 4.25, lambda r: ops.asum(sq(r.segment("wq")))],
                             ids=["constant", "taped"])
    def test_gradients_are_flat_float64_arrays(self, tiny_params, f):
        from kvgrpo.trainer import clip_gradient
        total = tiny_params.layout.total
        for g in (grad(tiny_params, f)[1], fd_grad(tiny_params, f)):
            assert type(g) is np.ndarray and g.dtype == np.float64 and g.shape == (total,)
            clipped, norm = clip_gradient(g, max_norm=1e-3)
            assert norm == np.linalg.norm(g) and clipped.shape == (total,)

    def test_half_norm_squared_gives_theta(self, tiny_params):
        def f(r):
            total = 0.0
            for name in r.layout.segments:
                total = ops.add(total, ops.asum(sq(r.segment(name))))
            return ops.mul(total, 0.5)

        val, g = grad(tiny_params, f)
        np.testing.assert_allclose(g, tiny_params.values, atol=1e-14)
        assert val == pytest.approx(0.5 * np.sum(tiny_params.values ** 2))

    def test_deterministic_bitwise(self, tiny_params):
        f = net_loss("four-rows")
        _, g1 = grad(tiny_params, f)
        _, g2 = grad(tiny_params, f)
        assert np.array_equal(g1, g2)

    def test_linearity(self, tiny_params):
        def f(r):
            return ops.asum(sq(r.segment("wq")))

        def g_fn(r):
            return ops.asum(ops.exp(r.segment("wk")))

        a, b = 1.7, -0.3
        _, gf = grad(tiny_params, f)
        _, gg = grad(tiny_params, g_fn)
        _, combo = grad(tiny_params, lambda r: ops.add(ops.mul(f(r), a), ops.mul(g_fn(r), b)))
        assert rel_l2(combo, a * gf + b * gg) < 1e-12

    def test_nonfinite_value_raises(self, tiny_params):
        with pytest.raises(NumericalError):
            grad(tiny_params,
                 lambda r: ops.mul(ops.asum(sq(r.segment("wq"))), np.inf))

    def test_nonfinite_gradient_names_segment(self, tiny_params):
        # A node with a finite value whose backward overflows: only the
        # gradient check can catch it, and it must name the segment.
        def f(r):
            s = ops.asum(r.segment("wq"))
            return s.tape.push(np.float64(1.0), (s.idx,), lambda g: (np.inf,))

        with pytest.raises(NumericalError, match=r"\['wq'\]"):
            grad(tiny_params, f)

    def test_reader_records_one_leaf_per_segment_in_layout_order(self, tiny_params):
        tape = Tape()
        reader = TapeReader(tape, tiny_params)
        names = list(tiny_params.layout.segments)
        assert list(reader.leaves) == names
        assert [reader.leaves[name].idx for name in names] == list(range(len(names)))
        assert len(tape._values) == len(names)
        for name in names:
            leaf = reader.segment(name)
            assert leaf is reader.leaves[name]
            assert np.shares_memory(leaf.value, tiny_params.values)
            assert np.array_equal(leaf.value, tiny_params.segment(name))

    def test_gradient_of_one_segment_is_its_adjoint_in_its_span(self, tiny_params):
        weights = np.random.default_rng(5).normal(size=tiny_params.segment("wk").shape)

        def f(r):
            return ops.asum(ops.mul(ops.exp(r.segment("wk")), weights))

        _, g = grad(tiny_params, f)
        tape = Tape()
        reader = TapeReader(tape, tiny_params)
        out = f(reader)
        adjoint = tape.backward(out)[reader.leaves["wk"].idx]
        span, _ = tiny_params.layout.segments["wk"]
        assert np.array_equal(g[span], adjoint.ravel())
        rest = np.ones(g.size, dtype=bool)
        rest[span] = False
        assert np.array_equal(g[rest], np.zeros(rest.sum()))

    def test_constant_function_still_records_every_leaf(self, tiny_params, monkeypatch):
        # A function that reads no segment (latent_l2) still puts the
        # parameters on the tape: one push per segment.
        pushes, push = [], Tape.push

        def counted(self, *args):
            pushes.append(args)
            return push(self, *args)

        monkeypatch.setattr(Tape, "push", counted)
        grad(tiny_params, lambda r: 4.25)
        assert len(pushes) == len(tiny_params.layout.segments) == len(SEGMENTS)

    def test_var_has_no_arithmetic(self):
        # Numbers and arrays do not absorb a handle into an object array.
        v = Tape().leaf(np.array([1.0, -2.0]))
        for op in (lambda: v + 1.0, lambda: 2.0 * v, lambda: np.ones(2) - v, lambda: -v):
            with pytest.raises(TypeError):
                op()


class TestOps:
    """Each reference op's backward against finite differences on a small input."""

    @pytest.mark.parametrize("build", [
        lambda r: ops.asum(sq(ops.add(r.segment("theta"), np.ones((2, 6))))),
        lambda r: ops.asum(ops.exp(ops.mul(r.segment("theta"), 0.3))),
        lambda r: ops.asum(sq(r.segment("theta"))),
        lambda r: ops.logsumexp(r.segment("theta")),
        lambda r: ops.asum(ops.mul(ops.exp(r.segment("theta")),
                                   np.arange(12.0).reshape(2, 1, 6))),
        lambda r: ops.asum(ops.minimum(r.segment("theta"), np.linspace(-1, 1, 6))),
        lambda r: ops.asum(ops.clip(r.segment("theta"), -0.5, 0.5)),
        lambda r: ops.asum(ops.mul(r.segment("theta"), np.linspace(0.5, 1.5, 6).reshape(6, 1))),
        lambda r: ops.asum(ops.add(ops.mul(ops.sub(r.segment("theta"), 0.5), r.segment("theta")),
                                   ops.mul(r.segment("theta"), 2.0))),
        lambda r: ops.add(ops.asum(sq(ops.sub(1.0, r.segment("theta")))),
                          ops.logsumexp(ops.mul(r.segment("theta"), -1.0))),
        lambda r: ops.asum(ops.minimum(sq(r.segment("theta")), ops.exp(r.segment("theta")))),
        lambda r: ops.asum(ops.pack([ops.asum(r.segment("theta")),
                                    ops.logsumexp(r.segment("theta"))])),
        lambda r: ops.asum(ops.clip(ops.exp(r.segment("theta")), 0.8, 1.5)),
        lambda r: ops.asum(sq(ops.mul(ops.asum(r.segment("theta")), np.arange(1.0, 4.0)))),
        lambda r: ops.asum(ops.mul(ops.sub(r.segment("theta"), np.ones((3, 6))),
                                   ops.exp(r.segment("theta")))),
        lambda r: ops.asum(ops.sub(r.segment("theta"), ops.exp(r.segment("theta")))),
    ])
    def test_backward_matches_fd(self, build):
        layout = Layout.build({"theta": (6,)})
        params = Params(np.random.default_rng(5).normal(size=6) * 0.7, layout)
        _, g = grad(params, build)
        fd = fd_grad(params, build, 1e-6)
        assert rel_l2(g, fd) < 1e-7

    def test_numpy_mode_returns_arrays(self):
        x = np.array([1.0, 2.0])
        assert isinstance(ops.add(x, x), np.ndarray)
        assert isinstance(ops.exp(np.eye(2)), np.ndarray)
        assert float(ops.logsumexp(np.array([0.0, 0.0]))) == pytest.approx(np.log(2))

    def test_minimum_tie_takes_first(self):
        layout = Layout.build({"theta": (2,)})
        params = Params(np.array([1.0, 1.0]), layout)
        _, g = grad(params, lambda r: ops.asum(ops.minimum(r.segment("theta"),
                                                           np.array([1.0, 1.0]))))
        np.testing.assert_array_equal(g, np.ones(2))

    def test_mixed_tape_rejected(self):
        t1, t2 = Tape(), Tape()
        a = t1.leaf(np.ones(2))
        b = t2.leaf(np.ones(2))
        with pytest.raises(ValueError):
            ops.add(a, b)


class TestParamInit:
    def test_deterministic(self):
        shape = NetworkShape(4, 6, 3)
        assert np.array_equal(param_init(shape, 42).values,
                              param_init(shape, 42).values)

    def test_seeds_differ(self):
        shape = NetworkShape(4, 6, 3)
        assert not np.array_equal(param_init(shape, 1).values,
                                  param_init(shape, 2).values)

    def test_param_count_386(self):
        # Hand count for (d=8, h=7, p=4): embed (8+1+4)*7+7=98,
        # q/k/v 3*(49+7)=168, head1 49+7=56, head2 7*8+8=64 -> 386.
        assert build_layout(NetworkShape(8, 7, 4)).total == 386

    def test_zero_sized_segment_rejected(self):
        from kvgrpo.errors import ConfigError
        with pytest.raises(ConfigError):
            NetworkShape(0, 4, 2)

    def test_segments_cover_vector(self):
        layout = build_layout(NetworkShape(3, 4, 2))
        covered = np.zeros(layout.total, dtype=int)
        for span, shape in layout.segments.values():
            assert span.stop - span.start == int(np.prod(shape))
            covered[span] += 1
        assert np.all(covered == 1)


class TestConcurrency:
    def test_concurrent_grads_on_shared_params_agree(self, tiny_params):
        # Tape state is per-call; shared read-only Params must be safe.
        from concurrent.futures import ThreadPoolExecutor

        f = net_loss("four-rows")
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(lambda _: grad(tiny_params, f), range(8)))
        base = results[0][1]
        for _, g in results[1:]:
            assert np.array_equal(g, base)


class TestVelocityOp:
    """The network as one tape node with a hand-derived backward."""

    @pytest.mark.parametrize("context", sorted(CONTEXTS))
    def test_vjp_matches_fd(self, context):
        params = net_params(seed=4)
        f = net_loss(context)
        _, g = grad(params, f)
        fd = fd_grad(params, f, 1e-5)
        assert rel_l2(g, fd) < 1e-7

    @pytest.mark.parametrize("context", sorted(CONTEXTS))
    def test_forward_matches_per_row_oracle(self, context):
        params = net_params(seed=5)
        keys, values = CONTEXTS[context]
        out = ops.velocity(params, NET_X, 0.5, keys, values, NET_PROMPT)
        expected = per_row_velocity(params, NET_X, 0.5, keys, values, NET_PROMPT)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_taped_call_pushes_one_node(self):
        params = net_params(seed=6)
        tape = Tape()
        reader = TapeReader(tape, params)
        leaves = [reader.segment(name) for name in SEGMENTS]
        keys, values = CONTEXTS["four-rows"]
        mark = tape.leaf(np.float64(0.0)).idx
        out = ops.velocity(reader, NET_X, 0.75, keys, values, NET_PROMPT)
        assert out.idx == mark + 1
        assert tape.leaf(np.float64(0.0)).idx == out.idx + 1
        assert tape._parents[out.idx] == tuple(leaf.idx for leaf in leaves)

    def test_taped_value_equals_value_only_bitwise(self):
        params = net_params(seed=7)
        keys, values = CONTEXTS["four-rows"]
        taped = ops.velocity(TapeReader(Tape(), params), NET_X, 0.25, keys, values, NET_PROMPT)
        plain = ops.velocity(params, NET_X, 0.25, keys, values, NET_PROMPT)
        assert np.array_equal(taped.value, plain)

    def test_taped_call_leaves_no_reference_cycle(self):
        # A leaf held by a node's backward would keep every tape alive until
        # the cycle collector runs: a training run's memory then grows.
        tape = Tape()
        alive = weakref.ref(tape)
        ops.velocity(TapeReader(tape, net_params(seed=7)), NET_X, 0.25,
                     *CONTEXTS["four-rows"], NET_PROMPT)
        gc.disable()
        try:
            del tape
            assert alive() is None
        finally:
            gc.enable()


class TestBackwardRowOrder:
    """A batched backward must be its rows' backwards summed last row first, the
    order in which the tape adds them when each row is its own node.  The rows'
    scales span 1e-8 to 1e8, so any other order shows in the bits; this also pins
    numpy's order in ``np.add.reduce`` over a reversed view, which the sums use."""

    @staticmethod
    def backward(params, x, t, keys, values, prompt, g):
        tape = Tape()
        out = ops.velocity(TapeReader(tape, params), x, t, keys, values, prompt)
        return tape._backwards[out.idx](g)

    @pytest.mark.parametrize("memory", [0, 3, 12])
    @pytest.mark.parametrize("rows", [1, 2, 16])
    def test_batched_backward_is_the_rows_summed_last_first(self, memory, rows):
        shape = NetworkShape()
        rng = np.random.default_rng(100 * memory + rows)
        layout = build_layout(shape)
        params = Params(rng.normal(size=layout.total) * 0.5, layout)
        x, t = rng.normal(size=(rows, 3, shape.latent_dim)), rng.uniform(size=rows)
        keys, values = rng.normal(size=(2, rows, memory, shape.hidden_dim))
        prompt = rng.normal(size=shape.prompt_dim)
        g = rng.normal(size=x.shape) * np.logspace(-8, 8, rows)[:, None, None]
        batched = self.backward(params, x, t, keys, values, prompt, g)
        per_row = [self.backward(params, x[r], t[r], keys[r], values[r], prompt, g[r])
                   for r in range(rows)]
        forward_order_moves = False
        for name, got, parts in zip(SEGMENTS, batched, zip(*per_row), strict=True):
            last_first = parts[-1]
            for part in parts[-2::-1]:
                last_first = last_first + part
            assert got.shape == last_first.shape, name
            assert got.tobytes() == np.ascontiguousarray(last_first).tobytes(), name
            forward_order_moves |= got.tobytes() != np.ascontiguousarray(sum(parts)).tobytes()
        # The test tells the orders apart wherever they differ: from three rows on
        # (a sum of two commutes).
        assert forward_order_moves == (rows > 2)

    @pytest.mark.parametrize("memory", [0, 12])
    def test_leading_dims_equal_the_flattened_rows(self, memory):
        # A replay's carrying steps: (rows, blocks, k, F, d) views of a forward over
        # every step, summed in (row, block, step) order like the 3-D copy of them.
        shape, (R, B, S, k) = NetworkShape(), (3, 2, 4, 2)
        rng = np.random.default_rng(memory)
        layout = build_layout(shape)
        weights = Weights(Params(rng.normal(size=layout.total) * 0.5, layout))
        x, t = rng.normal(size=(R, B, S, 3, shape.latent_dim)), rng.uniform(size=(R, B, S))
        keys, values = rng.normal(size=(2, R, B, S, memory, shape.hidden_dim))
        aug = augment(input_buffer(x.shape, rng.normal(size=shape.prompt_dim)), x, t)
        _, (*saved, scale) = _forward(weights, aug, *ops.joint(x.shape, keys, values), memory)
        g = rng.normal(size=(R, B, k, 3, shape.latent_dim))
        g *= np.logspace(-8, 8, R * B * k).reshape(R, B, k, 1, 1)
        carrying = np.s_[:, :, :k]

        def flat(a):
            return np.ascontiguousarray(a[carrying]).reshape(-1, *a.shape[3:])

        got = _vjp(g, weights.w, aug[carrying], (*(a[carrying] for a in saved), scale), memory)
        want = _vjp(g.reshape(-1, *g.shape[3:]), weights.w, flat(aug),
                    (*(flat(a) for a in saved), scale), memory)
        for name, a, b in zip(SEGMENTS, got, want, strict=True):
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
