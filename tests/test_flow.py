"""Generator mechanics: velocity evaluation, Euler solve, block generation,
cache write-back, and full rollouts."""

import numpy as np
import pytest

from kvgrpo.cache import FrameHistory, KVCache, KVEntry
from kvgrpo.errors import ContractError, SequencingError
from kvgrpo.flow import (Block, FlowState, GeneratorConfig, Latent, block_noise,
                         generate_block, ode_step, rollout, velocity_eval,
                         write_back)
from kvgrpo.network import NetworkShape, param_init

TINY = NetworkShape(3, 5, 2)
PROMPT = np.array([0.3, -0.2])


def tiny_rollout(seed=0, num_blocks=5, record=False):
    params = param_init(TINY, seed)
    return params, rollout(params, PROMPT, num_blocks, noise_seed=seed,
                           record_replay=record)


class TestVelocityEval:
    def test_deterministic(self, tiny_params):
        state = FlowState(np.ones((3, 3)), 0.25, 2)
        cache = KVCache()
        a = velocity_eval(tiny_params, state, cache, PROMPT)
        b = velocity_eval(tiny_params, state, cache, PROMPT)
        assert np.array_equal(a, b)

    def test_zero_head_gives_zero_velocity(self, tiny_params):
        p = tiny_params.copy()
        p.segment("head2_w")[:] = 0.0
        p.segment("head2_b")[:] = 0.0
        state = FlowState(np.ones((3, 3)), 0.0, 1)
        out = velocity_eval(p, state, KVCache(), PROMPT)
        np.testing.assert_array_equal(out, np.zeros((3, 3)))

    def test_perturbing_local_entry_changes_output(self):
        params, res = tiny_rollout(seed=2, num_blocks=5)
        cache = res.history.default_cache(len(res.history))
        state = FlowState(np.full((3, 3), 0.2), 0.5, 3)
        before = velocity_eval(params, state, cache, PROMPT)
        bumped = cache.copy()
        old = bumped.local[4]
        bumped.local[4] = KVEntry(old.key, old.value + 0.5, old.frame_index)
        after = velocity_eval(params, state, bumped, PROMPT)
        assert not np.array_equal(before, after)


class TestOdeStep:
    def test_zero_velocity(self):
        s = FlowState(np.ones((1, 2)), 0.0, 1)
        out = ode_step(s, np.zeros((1, 2)), 0.25)
        np.testing.assert_array_equal(out.x, s.x)
        assert out.t == 0.25 and out.step_index == 2

    def test_basic_step(self):
        s = FlowState(np.zeros((1, 2)), 0.0, 1)
        out = ode_step(s, np.ones((1, 2)), 0.25)
        np.testing.assert_array_equal(out.x, np.full((1, 2), 0.25))

    def test_telescoping_constant_velocity(self):
        v = np.array([[1.0, 1.0]])
        s = FlowState(np.array([[0.3, -0.7]]), 0.0, 1)
        for _ in range(4):
            s = ode_step(s, v, 0.25)
        np.testing.assert_allclose(s.x, np.array([[1.3, 0.3]]), atol=1e-15)
        assert s.t == pytest.approx(1.0)

    def test_grid_overflow(self):
        s = FlowState(np.zeros((1, 2)), 1.0, 5)
        with pytest.raises(SequencingError):
            ode_step(s, np.zeros((1, 2)), 0.25)

    def test_nonpositive_dt(self):
        with pytest.raises(ValueError):
            ode_step(FlowState(np.zeros((1, 2)), 0.0, 1), np.zeros((1, 2)), 0.0)


class TestGenerateBlock:
    def test_bit_identical_for_same_inputs(self, tiny_params):
        cache = KVCache()
        b1, _ = generate_block(tiny_params, cache, 1, 9, PROMPT)
        b2, _ = generate_block(tiny_params, cache, 1, 9, PROMPT)
        assert np.array_equal(b1.matrix(), b2.matrix())

    def test_replay_tuple_count_matches_steps(self, tiny_params):
        _, tuples = generate_block(tiny_params, KVCache(), 1, 9, PROMPT,
                                   record_replay=True)
        assert len(tuples) == 4
        assert [t.step for t in tuples] == [1, 2, 3, 4]
        assert [t.t for t in tuples] == [0.0, 0.25, 0.5, 0.75]

    def test_different_noise_seeds_differ(self, tiny_params):
        b1, _ = generate_block(tiny_params, KVCache(), 1, 9, PROMPT)
        b2, _ = generate_block(tiny_params, KVCache(), 1, 10, PROMPT)
        assert not np.array_equal(b1.matrix(), b2.matrix())

    def test_constant_field_adds_velocity_to_noise(self):
        # Zero every weight, then set the output bias: the velocity is that
        # constant everywhere and Euler lands exactly at x_T + v.
        params = param_init(TINY, 0)
        params.values[:] = 0.0
        params.segment("head2_b")[:] = np.array([0.5, -1.0, 2.0])
        block, _ = generate_block(params, KVCache(), 1, 5, PROMPT)
        xT = block_noise(5, 1, 3, 3)
        np.testing.assert_array_equal(block.matrix(), xT + np.array([0.5, -1.0, 2.0]))

    def test_replay_tuples_carry_prestep_latents(self, tiny_params):
        block, tuples = generate_block(tiny_params, KVCache(), 1, 9, PROMPT,
                                       record_replay=True)
        np.testing.assert_array_equal(tuples[0].z, block_noise(9, 1, 3, 3))
        # z + dt*u_hat telescopes to the final block
        x = tuples[0].z
        for t in tuples:
            x = x + 0.25 * t.u_hat
        np.testing.assert_allclose(x, block.matrix(), atol=1e-15)


class TestWriteBack:
    def test_first_block_fills_sink_only(self, tiny_params):
        cache, hist = KVCache(), FrameHistory()
        block, _ = generate_block(tiny_params, cache, 1, 0, PROMPT)
        write_back(cache, block, tiny_params, PROMPT, hist)
        assert [e.frame_index for e in cache.sink] == [1, 2, 3]
        assert cache.local == []

    def test_local_window_after_12_frames(self):
        _, res = tiny_rollout(num_blocks=4)
        cache = res.history.default_cache(12)
        assert [e.frame_index for e in cache.sink] == [1, 2, 3]
        assert [e.frame_index for e in cache.local] == list(range(4, 13))

    def test_eviction_after_15_frames_keeps_history(self):
        _, res = tiny_rollout(num_blocks=5)
        cache = res.history.default_cache(15)
        assert [e.frame_index for e in cache.local] == list(range(7, 16))
        # evicted frames remain addressable in the history store
        for idx in (4, 5, 6):
            assert res.history.entry(idx).frame_index == idx

    def test_incremental_equals_rebuilt(self, tiny_params):
        cache, hist = KVCache(), FrameHistory()
        for b in range(1, 6):
            block, _ = generate_block(tiny_params, cache, b, 3, PROMPT)
            write_back(cache, block, tiny_params, PROMPT, hist)
        rebuilt = hist.default_cache(len(hist))
        assert cache.frame_indices() == rebuilt.frame_indices()
        for a, b in zip(cache.entries(), rebuilt.entries()):
            assert np.array_equal(a.key, b.key) and np.array_equal(a.value, b.value)


class TestRollout:
    def test_single_block(self, tiny_params):
        res = rollout(tiny_params, PROMPT, 1, 0)
        assert len(res.blocks) == 1
        assert len(res.blocks[0].frames) == 3

    def test_ten_blocks_thirty_frames(self, tiny_params):
        res = rollout(tiny_params, PROMPT, 10, 0)
        assert res.frame_count() == 30
        assert len(res.history.entries) == 30

    def test_fixed_seed_reproducible(self, tiny_params):
        r1 = rollout(tiny_params, PROMPT, 6, 123)
        r2 = rollout(tiny_params, PROMPT, 6, 123)
        for b1, b2 in zip(r1.blocks, r2.blocks):
            assert np.array_equal(b1.matrix(), b2.matrix())

    def test_replay_count_invariant(self, tiny_params):
        res = rollout(tiny_params, PROMPT, 7, 0, record_replay=True)
        assert len(res.replay) == 7 * 4

    def test_cache_layout_invariant_all_points(self, tiny_params):
        cache, hist = KVCache(), FrameHistory()
        for b in range(1, 8):
            block, _ = generate_block(tiny_params, cache, b, 1, PROMPT)
            write_back(cache, block, tiny_params, PROMPT, hist)
            frames = len(hist)
            if frames >= 12:
                assert [e.frame_index for e in cache.local] == \
                    list(range(frames - 8, frames + 1))
                assert [e.frame_index for e in cache.sink] == [1, 2, 3]

    def test_rejects_zero_blocks(self, tiny_params):
        with pytest.raises(ContractError):
            rollout(tiny_params, PROMPT, 0, 0)

    def test_frame_indices_consecutive(self, tiny_params):
        res = rollout(tiny_params, PROMPT, 3, 0)
        indices = [f.frame_index for b in res.blocks for f in b.frames]
        assert indices == list(range(1, 10))
