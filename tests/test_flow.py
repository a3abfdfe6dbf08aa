"""Generator mechanics: velocity evaluation, Euler solve, block generation,
history write-back, the group history and frame-index memories, and full
rollouts.  Single-trajectory generation is the one-row case of the group
engine: a one-row history and memory."""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kvgrpo.autodiff import Tape, TapeReader
from kvgrpo.cache import FrameHistory, memory_frames
from kvgrpo.errors import ContractError, NumericalError
from kvgrpo import network
from kvgrpo.flow import Block, GeneratorConfig, generate_block, write_back
from kvgrpo.network import (SEGMENTS, Inputs, NetworkShape, Weights, _forward, _vjp,
                            build_layout, input_buffer, kv_for_frames, param_init,
                            shape_from_layout, velocity_forward)
from kvgrpo.params import Params
from kvgrpo.routing import routable_range, routed_layout, sample_routing

import reference_ops as ops
from reference_ops import block_noise

TINY = NetworkShape(3, 5, 2)
PROMPT = np.array([0.3, -0.2])


@dataclass
class Rollout:
    blocks: list
    history: FrameHistory
    replay: tuple | None  # (z, u_hat), each (steps, F, d)


@dataclass
class RowMemories:
    """Per-row memories over a group's history: row g holds frames
    ``frames[g]`` of history row g, gathered per length by the per-row oracle."""

    history: FrameHistory
    frames: list

    def stacked(self):
        return ops.gather(self.history, self.frames, 3)


def one_row_cache(frames=30, dim=5, rows=1):
    """An empty memory per row over a fresh history of ``frames`` frames."""
    return RowMemories(FrameHistory.allocate(rows, frames, dim), [()] * rows)


def row_memory(cache, row=0):
    """One row's memory: its frames and its (M, h) keys and values, the memory
    rows of the joint buffers ``stacked()`` gathers."""
    for rows, keys, values in cache.stacked():
        if row in rows:
            i, n = rows.tolist().index(row), len(cache.frames[row])
            return cache.frames[row], keys[i, :n], values[i, :n]


def new_record(rows, cfg=GeneratorConfig(), dim=TINY.latent_dim):
    """A ``(z, u_hat)`` record of one block's solver steps, each (rows, steps, F, d),
    NaN until the solver writes it."""
    return tuple(np.full((2, rows, cfg.num_steps, cfg.frames_per_block, dim), np.nan))


def generate_one(params, cache, block_index, noise_seed, prompt, record_replay=False,
                 cfg=GeneratorConfig()):
    """One trajectory's block: the (F, d) frames and its ``(z, u_hat)`` steps, each
    (steps, F, d), or None."""
    noise = block_noise(noise_seed, block_index, cfg.frames_per_block,
                        shape_from_layout(params.layout).latent_dim)
    record = new_record(1, cfg, noise.shape[-1]) if record_replay else None
    block = generate_block(params, cache.stacked(), block_index, noise, prompt,
                           Weights(params), record, cfg)
    steps = None if record is None else tuple(a[0] for a in record)
    return Block(block.frames[0], block_index), steps


def write_one(history, block, params, prompt):
    write_back(history, Block(block.frames[None], block.block_index), Weights(params), prompt)


def default_memory(history):
    """The one-row default-layout memory over every frame of ``history``."""
    return RowMemories(history, [memory_frames(len(history), 3, 9)])


def rollout(params, prompt, num_blocks, noise_seed, record_replay=False) -> Rollout:
    """Sequential block generation under the default sliding-window memory."""
    history = FrameHistory.allocate(1, 3 * num_blocks, shape_from_layout(params.layout).hidden_dim)
    blocks, replay = [], []
    for b in range(1, num_blocks + 1):
        block, steps = generate_one(params, default_memory(history), b, noise_seed, prompt,
                                    record_replay)
        write_one(history, block, params, prompt)
        blocks.append(block)
        replay += [steps] if record_replay else []
    return Rollout(blocks, history, tuple(map(np.concatenate, zip(*replay))) if replay else None)


def tiny_rollout(seed=0, num_blocks=5, record=False):
    params = param_init(TINY, seed)
    return params, rollout(params, PROMPT, num_blocks, noise_seed=seed,
                           record_replay=record)


class TestVelocityEval:
    def test_deterministic(self, tiny_params):
        _, keys, values = row_memory(one_row_cache())
        a = ops.velocity(tiny_params, np.ones((1, 3, 3)), 0.25, keys, values, PROMPT)
        b = ops.velocity(tiny_params, np.ones((1, 3, 3)), 0.25, keys, values, PROMPT)
        assert np.array_equal(a, b)

    def test_zero_head_gives_zero_velocity(self, tiny_params):
        p = tiny_params.copy()
        p.segment("head2_w")[:] = 0.0
        p.segment("head2_b")[:] = 0.0
        out = ops.velocity(p, np.ones((1, 3, 3)), 0.0, *row_memory(one_row_cache())[1:], PROMPT)
        np.testing.assert_array_equal(out, np.zeros((1, 3, 3)))

    def test_perturbing_local_entry_changes_output(self):
        params, res = tiny_rollout(seed=2, num_blocks=5)
        _, keys, values = row_memory(default_memory(res.history))
        x = np.full((1, 3, 3), 0.2)
        before = ops.velocity(params, x, 0.5, keys[None], values[None], PROMPT)
        bumped = values.copy()
        bumped[3 + 4] += 0.5  # local slot 4, after the 3 sink rows
        after = ops.velocity(params, x, 0.5, keys[None], bumped[None], PROMPT)
        assert not np.array_equal(before, after)


def random_call(shape, rows, memory, seed):
    """Parameters (biases too), a prompt, and a call's (rows, 3, d) latents and
    (rows, memory, h) keys and values; ``rows=None`` gives one (3, d) block."""
    rng = np.random.default_rng(seed)
    params = Params(rng.normal(size=build_layout(shape).total) * 0.5, build_layout(shape))
    lead = () if rows is None else (rows,)
    x = rng.normal(size=(*lead, 3, shape.latent_dim))
    keys, values = rng.normal(size=(2, *lead, memory, shape.hidden_dim))
    return params, rng.normal(size=shape.prompt_dim), x, keys, values


def oracle(weights, x, t, keys, values, prompt):
    """The out-of-place three-projection forward on fresh buffers: the input,
    the output and the saved intermediates."""
    aug, fresh = ops.augment(x, t, prompt), ops.joint(np.shape(x), keys, values)
    return (aug, *ops.network_forward(weights.w, aug, *fresh, keys.shape[-2]))


def assert_same_saved(got, want):
    assert len(got) == len(want) == 8
    assert all(np.array_equal(a, b) and np.shape(a) == np.shape(b) for a, b in zip(got, want))


class TestFusedProjection:
    """One [wq | wk | wv] projection per call, and one [wk | wv] projection per
    finished block, each bias add and activation in place in its product, give
    the out-of-place three-projection forward's bits exactly: the output and
    every intermediate the backward reads."""

    @pytest.mark.parametrize("shape", [NetworkShape(), TINY], ids=["default", "tiny"])
    @pytest.mark.parametrize("memory", [0, 12], ids=["empty", "memory"])
    @pytest.mark.parametrize("rows", [None, 1, 9, 17, 80], ids=lambda r: f"rows-{r}")
    def test_forward_and_backward_equal_three_projections(self, shape, memory, rows):
        layout = build_layout(shape)
        rng = np.random.default_rng(0 if rows is None else rows)
        params = Params(rng.normal(size=layout.total) * 0.5, layout)  # biases too
        lead, d, h = () if rows is None else (rows,), shape.latent_dim, shape.hidden_dim
        x = rng.normal(size=(*lead, 3, d))
        t = 0.25 if rows is None else rng.uniform(size=rows)
        keys, values = rng.normal(size=(2, *lead, memory, h))
        prompt, weights = rng.normal(size=shape.prompt_dim), Weights(params)

        aug, want, saved = oracle(weights, x, t, keys, values, prompt)
        inputs = Inputs(weights, input_buffer(x.shape, prompt), *ops.joint(x.shape, keys, values))
        assert np.array_equal(velocity_forward(params, x, t, inputs), want)
        assert np.array_equal(inputs.aug, aug)
        assert np.array_equal(inputs.keys, saved[2]) and np.array_equal(inputs.values, saved[3])
        # The in-place forward's own intermediates, on fresh buffers.
        out, got = _forward(weights, aug, *ops.joint(x.shape, keys, values), memory)
        assert np.array_equal(out, want)
        assert_same_saved(got, saved)
        assert all(np.array_equal(a, b) for a, b in zip(
            kv_for_frames(weights, x, prompt), ops.kv_for_frames(weights.w, x, prompt)))

        # The taped node's twelve adjoints are _vjp's on the oracle's intermediates.
        tape, proj = Tape(), rng.normal(size=x.shape)
        reader = TapeReader(tape, params)
        node = ops.velocity(reader, x, t, keys, values, prompt)
        assert np.array_equal(node.value, want)
        adj = tape.backward(ops.asum(ops.mul(node, proj)))
        expect = list(_vjp(proj, weights.w, aug, saved, memory))
        got = [adj[reader.leaves[name].idx] for name in SEGMENTS]
        assert len(expect) == 12 and all(np.array_equal(a, b) for a, b in zip(got, expect))

    @pytest.mark.parametrize("memory", [0, 12], ids=["empty", "memory"])
    @pytest.mark.parametrize("rows", [1, 16])
    def test_shared_inputs_equal_fresh_calls(self, memory, rows):
        # As generate_block drives them: one Inputs, the (3, d) start noise
        # broadcast against the rows, then each step's latents at a scalar time.  Each call overwrites only
        # the latents, time and block rows; the prompt columns stay.
        params, prompt, x, keys, values = random_call(NetworkShape(), rows, memory, rows)
        weights = Weights(params)
        inputs = Inputs(weights, input_buffer(x.shape, prompt), *ops.joint(x.shape, keys, values))
        xs = [x[0]] + [x * s for s in (0.5, -1.5, 2.0)]
        for t, xt in zip((0.0, 0.25, 0.5, 0.75), xs):
            got = velocity_forward(params, xt, t, inputs)
            aug, want, (*_, keys_all, values_all, _, _, _, _) = oracle(
                weights, np.broadcast_to(xt, x.shape), t, keys, values, prompt)
            assert np.array_equal(got, want)
            assert np.array_equal(inputs.aug, aug)
            assert np.array_equal(inputs.keys, keys_all)
            assert np.array_equal(inputs.values, values_all)

    @pytest.mark.parametrize("rows", [None, 5])
    def test_taped_calls_share_no_buffer(self, rows):
        # Two calls on one tape, the second over other latents and memory: each
        # node's adjoints equal those it gets on a tape of its own.
        calls = [random_call(TINY, rows, 4, seed) for seed in (1, 2)]
        params = calls[0][0]
        t = 0.25 if rows is None else np.linspace(0.0, 0.75, rows)
        proj = np.random.default_rng(3).normal(size=calls[0][2].shape)

        def adjoints(tape, reader, node):
            adj = tape.backward(ops.asum(ops.mul(node, proj)))
            return [adj[reader.leaves[name].idx] for name in SEGMENTS]

        shared = Tape()
        reader = TapeReader(shared, params)
        nodes = [ops.velocity(reader, x, t, k, v, prompt)
                 for _, prompt, x, k, v in calls]
        for node, (_, prompt, x, k, v) in zip(nodes, calls):
            own = Tape()
            own_reader = TapeReader(own, params)
            want = adjoints(own, own_reader, ops.velocity(own_reader, x, t, k, v, prompt))
            got = adjoints(shared, reader, node)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


def constant_field(velocity):
    """Parameters whose velocity is ``velocity`` everywhere: every weight
    zeroed, the output bias set."""
    params = param_init(TINY, 0)
    params.values[:] = 0.0
    params.segment("head2_b")[:] = velocity
    return params


class TestEulerSolve:
    def test_zero_velocity_leaves_the_noise(self):
        block, (zs, _) = generate_one(constant_field(0.0), one_row_cache(), 1, 5, PROMPT, True)
        xT = block_noise(5, 1, 3, 3)
        np.testing.assert_array_equal(block.frames, xT)
        for z in zs:
            np.testing.assert_array_equal(z, xT)

    def test_every_row_of_a_group_starts_from_the_same_noise(self, tiny_params):
        z, _ = record = new_record(2)
        block = generate_block(tiny_params, one_row_cache(rows=2).stacked(), 1,
                               block_noise(9, 1, 3, 3), PROMPT, Weights(tiny_params), record)
        assert block.frames.shape == (2, 3, 3) and z.shape == (2, 4, 3, 3)
        np.testing.assert_array_equal(z[0, 0], block_noise(9, 1, 3, 3))
        np.testing.assert_array_equal(z[1, 0], block_noise(9, 1, 3, 3))
        assert block.frames[0].tobytes() == block.frames[1].tobytes()

    @pytest.mark.parametrize("velocity", [np.inf, -np.inf, np.nan])
    def test_non_finite_velocity_raises(self, velocity):
        # Checked once per bucket: the solver steps after it must not warn either.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite velocity output"):
                generate_one(constant_field(velocity), one_row_cache(), 1, 5, PROMPT)


class TestGenerateBlock:
    def test_bit_identical_for_same_inputs(self, tiny_params):
        cache = one_row_cache()
        b1, _ = generate_one(tiny_params, cache, 1, 9, PROMPT)
        b2, _ = generate_one(tiny_params, cache, 1, 9, PROMPT)
        assert np.array_equal(b1.frames, b2.frames)

    def test_replay_tuple_count_matches_steps(self, tiny_params):
        _, (z, u_hat) = generate_one(tiny_params, one_row_cache(), 1, 9, PROMPT,
                                     record_replay=True)
        assert len(z) == 4 and z.shape == u_hat.shape == (4, 3, 3)
        assert np.isfinite(z).all() and np.isfinite(u_hat).all()  # every step written
        assert GeneratorConfig().times == [0.0, 0.25, 0.5, 0.75]
        assert isinstance(generate_block(tiny_params, one_row_cache().stacked(), 1,
                                         block_noise(9, 1, 3, 3), PROMPT, Weights(tiny_params)),
                          Block)

    @pytest.mark.parametrize("num_steps", [3, 5, 7])
    def test_replay_time_is_the_accumulated_solver_time(self, tiny_params, monkeypatch,
                                                        num_steps):
        # Where dt rounds, the accumulated time can differ from step * dt in the
        # last bits; the network must see the time the rollout saw, and the
        # config's times, which the replay reads, must be that time.
        cfg, seen, real = GeneratorConfig(num_steps=num_steps), [], network.velocity_forward
        monkeypatch.setattr(network, "velocity_forward",
                            lambda p, x, t, *args: seen.append(t) or real(p, x, t, *args))
        generate_one(tiny_params, one_row_cache(), 1, 9, PROMPT, True, cfg)
        accumulated = [0.0]
        while len(accumulated) < num_steps:
            accumulated.append(accumulated[-1] + cfg.dt)
        assert seen == cfg.times == accumulated
        assert all(type(t) is float for t in seen)

    def test_different_noise_seeds_differ(self, tiny_params):
        b1, _ = generate_one(tiny_params, one_row_cache(), 1, 9, PROMPT)
        b2, _ = generate_one(tiny_params, one_row_cache(), 1, 10, PROMPT)
        assert not np.array_equal(b1.frames, b2.frames)

    def test_constant_field_adds_velocity_to_noise(self):
        # A constant velocity everywhere: Euler lands exactly at x_T + v, one
        # dt * v per step.
        v = np.array([0.5, -1.0, 2.0])
        block, steps = generate_one(constant_field(v), one_row_cache(), 1, 5, PROMPT, True)
        xT = block_noise(5, 1, 3, 3)
        np.testing.assert_array_equal(block.frames, xT + v)
        for i, (z, u_hat) in enumerate(zip(*steps)):
            np.testing.assert_allclose(z, xT + i * 0.25 * v, atol=1e-15)
            np.testing.assert_array_equal(u_hat, np.broadcast_to(v, (3, 3)))

    def test_replay_tuples_carry_prestep_latents(self, tiny_params):
        block, steps = generate_one(tiny_params, one_row_cache(), 1, 9, PROMPT,
                                    record_replay=True)
        np.testing.assert_array_equal(steps[0][0], block_noise(9, 1, 3, 3))
        # z + dt*u_hat gives the next row's z, and telescopes to the final block
        x = steps[0][0]
        for z, u_hat in zip(*steps):
            np.testing.assert_array_equal(x, z)
            x = x + 0.25 * u_hat
        np.testing.assert_array_equal(x, block.frames)


class TestSolverPaths:
    """Each bucket is solved on its own and written at its row indices, in
    whatever order they come."""

    @staticmethod
    def buckets(case):
        # Interleaved: rows 0 and 2 share a memory length, so their bucket
        # straddles row 1's.  One bucket: every row at one length, in order or not.
        history = filled_history(3, 6)[0]
        if case == "interleaved":
            return ops.gather(history, [(1, 2, 3, 7, 8, 9), (1, 2, 3, 4), (4, 5, 6, 10, 11, 12)],
                              3)
        (_, keys, values), = ops.gather(history, [(1, 2, 3, 4), (7, 8, 9, 10), (1, 2, 3, 16)], 3)
        order = [0, 1, 2] if case == "one-bucket" else [2, 0, 1]
        return [(np.array(order), keys[order], values[order])]

    CASES = ["interleaved", "one-bucket", "one-bucket-permuted"]

    @pytest.mark.parametrize("case", CASES)
    def test_without_replay_the_block_is_the_same(self, tiny_params, case):
        args = (tiny_params, self.buckets(case), 7, block_noise(9, 7, 3, 3), PROMPT,
                Weights(tiny_params))
        plain, (z, u_hat) = generate_block(*args), new_record(3)
        recorded = generate_block(*args, (z, u_hat))
        assert isinstance(plain, Block) and z.shape == (3, 4, 3, 3)
        assert np.isfinite(z).all() and np.isfinite(u_hat).all()  # every row and step written
        assert plain.frames.tobytes() == recorded.frames.tobytes()

    @pytest.mark.parametrize("case", CASES)
    def test_every_row_equals_the_row_solved_alone(self, tiny_params, case):
        buckets, noise, weights = self.buckets(case), block_noise(9, 7, 3, 3), Weights(tiny_params)
        assert [rows.tolist() for rows, *_ in buckets] == {
            "interleaved": [[1], [0, 2]], "one-bucket": [[0, 1, 2]],
            "one-bucket-permuted": [[2, 0, 1]]}[case]
        steps = new_record(3)
        block = generate_block(tiny_params, buckets, 7, noise, PROMPT, weights, steps)
        for rows, keys, values in buckets:
            for i, g in enumerate(rows):
                alone, own = [(np.array([0]), keys[i:i + 1], values[i:i + 1])], new_record(1)
                own_block = generate_block(tiny_params, alone, 7, noise, PROMPT, weights, own)
                assert block.frames[g].tobytes() == own_block.frames[0].tobytes()
                assert steps[0][g].tobytes() == own[0][0].tobytes()
                assert steps[1][g].tobytes() == own[1][0].tobytes()
        assert block.block_index == 7


def per_bucket_oracle(params, buckets, block_index, noise, prompt, weights, record_replay,
                      cfg=GeneratorConfig()):
    """The reference solve of a block's buckets: a whole Euler loop per bucket,
    one single-memory velocity call per step, each bucket written at its rows.
    Returns the block and, if ``record_replay``, its ``(z, u_hat)`` steps and the
    times the loop accumulated, else None."""
    x = np.empty((sum(len(rows) for rows, *_ in buckets), *noise.shape))
    z, u_hat = np.empty((2, len(x), cfg.num_steps, *noise.shape))
    with np.errstate(all="ignore"):
        for rows, keys, values in buckets:
            xb, t, ts = noise, 0.0, []
            inputs = Inputs(weights, input_buffer((len(rows), *noise.shape), prompt), keys, values)
            for k in range(cfg.num_steps):
                v = velocity_forward(params, xb, t, inputs)
                z[rows, k], u_hat[rows, k] = xb, v
                ts.append(t)
                xb, t = xb + cfg.dt * v, t + cfg.dt
            x[rows] = xb
    if not np.isfinite(x).all():
        raise NumericalError("non-finite velocity output")
    return x, ((z, u_hat, np.array(ts)) if record_replay else None)


@st.composite
def mixed_buckets(draw):
    """1-4 memory lengths (0 is an empty memory), 1-3 rows each, the rows of the
    block dealt to the buckets in a random order, so buckets interleave; each
    bucket's joint buffers hold 3 block rows after its memory."""
    lengths = sorted(draw(st.sets(st.integers(0, 15), min_size=1, max_size=4)))
    counts = [draw(st.integers(1, 3)) for _ in lengths]
    order = draw(st.permutations(range(sum(counts))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    buckets, start = [], 0
    for n, count in zip(lengths, counts):
        rows, start = np.array(order[start:start + count]), start + count
        buckets.append((rows, *rng.normal(size=(2, count, n + 3, TINY.hidden_dim))))
    return buckets, rng


class TestMixedMemoryLengths:
    """One velocity call per solver step for every row of a block, attending
    once per memory length, equals a whole per-bucket solve bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=mixed_buckets(), record=st.booleans(), steps=st.sampled_from([1, 3, 4]))
    def test_equals_the_per_bucket_solve(self, case, record, steps):
        buckets, rng = case
        layout, cfg = build_layout(TINY), GeneratorConfig(num_steps=steps)
        params = Params(rng.normal(size=layout.total) * 0.5, layout)  # biases too
        noise, prompt, weights = rng.normal(size=(3, TINY.latent_dim)), PROMPT, Weights(params)
        record_got = new_record(sum(len(rows) for rows, *_ in buckets), cfg)
        block = generate_block(params, buckets, 4, noise, prompt, weights,
                               record_got if record else None, cfg)
        frames, steps_want = per_bucket_oracle(params, buckets, 4, noise, prompt, weights,
                                               record, cfg)
        assert block.frames.shape == frames.shape
        assert block.frames.tobytes() == frames.tobytes()
        assert (steps_want is None) == (not record)
        # The solver's times are the config's; the replay reads them from there.
        steps_got = (*record_got, np.array(cfg.times))
        for field, got, want in zip(("z", "u_hat", "t"), steps_got, steps_want or ()):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), field

    def test_one_call_per_solver_step(self, tiny_params, monkeypatch):
        calls = []
        real = velocity_forward

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return real(*args, **kwargs)

        monkeypatch.setattr("kvgrpo.network.velocity_forward", counted)
        buckets = TestSolverPaths.buckets("interleaved")
        generate_block(tiny_params, buckets, 7, block_noise(9, 7, 3, 3), PROMPT,
                       Weights(tiny_params), new_record(3))
        assert calls == [(3, 3)] + [(3, 3, 3)] * 3  # the noise, then every row

    @pytest.mark.parametrize("bad", range(4))
    @pytest.mark.parametrize("where", ["keys", "values"])
    def test_a_non_finite_memory_row_raises(self, tiny_params, bad, where):
        history = filled_history(4, 6)[0]
        buckets = ops.gather(history, [(1, 2, 3, 4), (1, 2, 3, 7, 8, 9, 10, 11),
                                       (1, 2, 3), (1, 2, 3, 4, 5)], 3)
        rows, keys, values = buckets[bad]
        (keys if where == "keys" else values)[-1, 1] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="non-finite velocity output"):
                generate_block(tiny_params, buckets, 7, block_noise(9, 7, 3, 3), PROMPT,
                               Weights(tiny_params))


class TestWriteBack:
    def test_first_block_fills_sink_only(self, tiny_params):
        cache = one_row_cache()
        block, _ = generate_one(tiny_params, cache, 1, 0, PROMPT)
        write_one(cache.history, block, tiny_params, PROMPT)
        frames, keys, _ = row_memory(default_memory(cache.history))
        assert frames == (1, 2, 3)  # the sink, and an empty local window
        assert keys.shape == (3, 5) and len(cache.history) == 3

    def test_local_window_after_12_frames(self):
        _, res = tiny_rollout(num_blocks=4)
        frames = res.history.default_cache(12).frames
        assert frames[:3] == (1, 2, 3)
        assert frames[3:] == tuple(range(4, 13))

    def test_eviction_after_15_frames_keeps_history(self):
        _, res = tiny_rollout(num_blocks=5)
        assert res.history.default_cache(15).frames[3:] == tuple(range(7, 16))
        # evicted frames remain addressable in the history store
        frames, keys, values = row_memory(RowMemories(res.history, [(4, 5, 6)]))
        assert frames == (4, 5, 6)
        assert np.array_equal(keys, res.history.keys[0, 3:6])
        assert np.array_equal(values, res.history.values[0, 3:6])

    def test_each_block_equals_the_per_frame_reference(self, tiny_params):
        history, ref = one_row_cache().history, ListMemory()
        for b in range(1, 6):
            block, _ = generate_one(tiny_params, default_memory(history), b, 3, PROMPT)
            write_one(history, block, tiny_params, PROMPT)
            for i in range(len(history) - 3, len(history)):
                ref.append(RefEntry(history.keys[0, i], history.values[0, i], i + 1))
            assert_same_memory(default_memory(history), ref)


@dataclass(frozen=True)
class RefEntry:
    key: np.ndarray
    value: np.ndarray
    frame_index: int


class ListMemory:
    """Reference: the per-frame list memory that the row arrays replaced.  It
    holds one entry per frame in ``sink`` and ``local`` lists, appends frames
    one at a time, and stacks its rows on every call."""

    def __init__(self, sink_size=3, local_capacity=9, sink=(), local=(), dim=5):
        self.sink_size, self.local_capacity, self.dim = sink_size, local_capacity, dim
        self.sink, self.local = list(sink), list(local)

    def append(self, entry):
        if len(self.sink) < self.sink_size:
            if entry.frame_index != len(self.sink) + 1:
                raise ContractError("sink out of order")
            self.sink.append(entry)
            return
        self.local.append(entry)
        if len(self.local) > self.local_capacity:
            del self.local[0]

    def stacked(self):
        entries = self.sink + self.local
        if not entries:
            return np.zeros((0, self.dim)), np.zeros((0, self.dim))
        return (np.stack([e.key for e in entries]),
                np.stack([e.value for e in entries]))

    def frame_indices(self):
        return tuple(e.frame_index for e in self.sink + self.local)


def assert_same_memory(cache, ref, row=0):
    assert_same_row(*row_memory(cache, row), ref)


def assert_same_row(frames, keys, values, ref):
    assert frames == ref.frame_indices()
    for mine, theirs in zip((keys, values), ref.stacked()):
        assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
        assert mine.tobytes() == theirs.tobytes()


def rows(count, h=5, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, h)), rng.standard_normal((count, h))


def filled_history(group, num_blocks, F=3, h=5):
    """A history of ``group`` rows, each with its own random key and value
    rows and room for one more block, and the per-frame reference entries of
    every row."""
    history = FrameHistory.allocate(group, (num_blocks + 1) * F, h)
    for b in range(num_blocks):
        blocks = [rows(F, h, seed=100 * g + b) for g in range(group)]
        history.append(np.stack([k for k, _ in blocks]), np.stack([v for _, v in blocks]))
    entries = [[RefEntry(history.keys[g, i], history.values[g, i], i + 1)
                for i in range(len(history))] for g in range(group)]
    return history, entries


class TestRowMemory:
    @pytest.mark.parametrize("frames_per_block", [1, 2, 3, 4])
    @pytest.mark.parametrize("layout", ["default", "routed"])
    def test_block_append_matches_per_frame_reference(self, frames_per_block, layout):
        F, num_blocks = frames_per_block, 32 // frames_per_block
        blocks = [rows(F, seed=b) for b in range(num_blocks)]
        entries = [RefEntry(k[i], v[i], b * F + i + 1)
                   for b, (k, v) in enumerate(blocks) for i in range(F)]
        history = FrameHistory.allocate(1, F * num_blocks, 5)
        for b, (k, v) in enumerate(blocks):
            history.append(k[None], v[None])
        assert history.keys[0].tobytes() == np.stack([e.key for e in entries]).tobytes()
        assert history.values[0].tobytes() == np.stack([e.value for e in entries]).tobytes()

        if layout == "default":
            start, row, ref = 0, (9, (), 0), ListMemory(3, 9)
        else:
            start = F * -(-15 // F)  # the first block boundary with 15+ frames
            routed = sample_routing(routable_range(start), rng_seed=F)
            row = routed_layout(routed, start)
            near = [entries[i - 1] for i in range(start - 2, start + 1)]
            ref = ListMemory(3, 9, entries[:3],
                             [entries[r - 1] for r in routed.indices] + near)
        assert_same_memory(RowMemories(history, [memory_frames(start, 3, *row)]), ref)
        for b in range(start // F, num_blocks):
            for entry in entries[b * F:(b + 1) * F]:
                ref.append(entry)
            assert_same_memory(RowMemories(history, [memory_frames(b * F + F, 3, *row)]), ref)

    def test_group_rows_match_per_frame_references(self):
        # Row 0 default (9 slots), row 1 routed into 6 slots, row 2 into 12:
        # three memory lengths, each row over its own history row.
        history, entries = filled_history(3, 10)
        L = 15
        routings = [None, sample_routing(routable_range(L, 3), 1, count=3, local_size=6),
                    sample_routing(routable_range(L, 3), 2, count=9, local_size=12)]
        layouts = [(9, (), 0)] + [routed_layout(r, L) for r in routings[1:]]
        refs = [ListMemory(3, 9, entries[0][:3], entries[0][L - 9:L])]
        for g, routing in enumerate(routings[1:], start=1):
            near = entries[g][L - 3:L]
            refs.append(ListMemory(3, routing.local_size, entries[g][:3],
                                   [entries[g][r - 1] for r in routing.indices] + near))
        for b in range(L // 3, 10):
            cache = RowMemories(history, [memory_frames(3 * b, 3, *row) for row in layouts])
            for g, ref in enumerate(refs):
                assert_same_memory(cache, ref, g)
            assert [rows.tolist() for rows, *_ in cache.stacked()] == [[1], [0], [2]]
            for g, ref in enumerate(refs):
                for entry in entries[g][3 * b:3 * b + 3]:
                    ref.append(entry)

    def test_default_rebuild_matches_per_frame_reference(self):
        history, entries = filled_history(2, 6)
        for upto in range(0, 19):
            cache = history.default_cache(upto)
            keys, values = cache.stacked()  # one gather for all rows
            for g in range(2):
                ref = ListMemory()
                for entry in entries[g][:upto]:
                    ref.append(entry)
                assert_same_row(cache.frames, keys[g], values[g], ref)

    @pytest.mark.parametrize("sink_size, local_capacity", [(3, 9), (2, 5), (0, 4)])
    def test_default_memory_equals_the_per_row_oracle(self, sink_size, local_capacity):
        # One index for every row gives each row's own gather, bit for bit.
        history, _ = filled_history(3, 6)
        for upto in range(len(history) + 1):
            frames = memory_frames(upto, sink_size, local_capacity)
            cache = history.default_cache(upto, sink_size, local_capacity)
            (rows, *want), = ops.gather(history, [frames] * 3)
            assert cache.frames == frames and rows.tolist() == [0, 1, 2]
            for mine, theirs in zip(cache.stacked(), want):
                assert mine.shape == theirs.shape == (3, len(frames), 5)
                assert mine.tobytes() == theirs.tobytes()
        assert history.default_cache(0, sink_size, local_capacity).stacked()[0].shape == (3, 0, 5)
        for upto in (len(history) + 1, -1):
            with pytest.raises(ContractError, match=f"frame {upto} not in history of length 18"):
                history.default_cache(upto, sink_size, local_capacity)

    def test_history_frames_must_continue(self):
        k, v = rows(3)
        history = FrameHistory.allocate(1, 6, 5)
        history.append(k[None], v[None])
        history.append(k[None], v[None])
        with pytest.raises(ContractError):  # beyond the allocated frames
            history.append(k[None], v[None])
        assert len(history) == 6

    def test_prefix_rows_are_written_to_every_trajectory(self):
        k, v = rows(3)
        history = FrameHistory.allocate(4, 6, 5)
        history.append(k[None], v[None])
        for g in range(4):
            assert history.keys[g, :3].tobytes() == k.tobytes()
            assert history.values[g, :3].tobytes() == v.tobytes()

    def test_gathered_memories_are_copies(self):
        history, _ = filled_history(2, 4, h=5)
        cache = history.default_cache(12)
        keys, values = cache.stacked()
        snapshot = keys.copy(), values.copy()
        k, v = rows(3, seed=9)
        history.append(np.stack([k, k]), np.stack([v, v]))
        assert np.array_equal(keys, snapshot[0]) and np.array_equal(values, snapshot[1])
        assert len(history) == 15 and cache.frames == (1, 2, 3, *range(4, 13))
        assert history.default_cache(15).frames == (1, 2, 3, *range(7, 16))


class TestRollout:
    def test_single_block(self, tiny_params):
        res = rollout(tiny_params, PROMPT, 1, 0)
        assert len(res.blocks) == 1
        assert len(res.blocks[0].frames) == 3

    def test_ten_blocks_thirty_frames(self, tiny_params):
        res = rollout(tiny_params, PROMPT, 10, 0)
        assert len(res.history) == 30
        assert res.history.keys.shape == (1, 30, 5)

    def test_fixed_seed_reproducible(self, tiny_params):
        r1 = rollout(tiny_params, PROMPT, 6, 123)
        r2 = rollout(tiny_params, PROMPT, 6, 123)
        for b1, b2 in zip(r1.blocks, r2.blocks):
            assert np.array_equal(b1.frames, b2.frames)

    def test_replay_count_invariant(self, tiny_params):
        res = rollout(tiny_params, PROMPT, 7, 0, record_replay=True)
        assert len(res.replay[0]) == len(res.replay[1]) == 7 * 4
        # Block b's steps are rows 4(b-1) to 4b-1, starting from its noise.
        for b in range(1, 8):
            assert res.replay[0][4 * (b - 1)].tobytes() == block_noise(0, b, 3, 3).tobytes()

    def test_cache_layout_invariant_all_points(self, tiny_params):
        history = one_row_cache().history
        for b in range(1, 8):
            block, _ = generate_one(tiny_params, default_memory(history), b, 1, PROMPT)
            write_one(history, block, tiny_params, PROMPT)
            frames, cache = len(history), default_memory(history)
            if frames >= 12:
                assert cache.frames[0][3:] == tuple(range(frames - 8, frames + 1))
                assert cache.frames[0][:3] == (1, 2, 3)
