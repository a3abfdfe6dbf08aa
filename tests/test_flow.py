"""Generator mechanics: velocity evaluation, Euler solve, block generation,
history write-back, the group history and frame-index memories, and full
rollouts.  Single-trajectory generation is the one-row case of the group
engine: a one-row history and memory."""

from dataclasses import dataclass

import numpy as np
import pytest

from kvgrpo.cache import FrameHistory, memory_frames
from kvgrpo.errors import ContractError
from kvgrpo.flow import (Block, GeneratorConfig, ReplaySteps, block_noise, generate_block,
                         velocity_eval, write_back)
from kvgrpo.network import NetworkShape, param_init, shape_from_layout
from kvgrpo.routing import routable_range, routed_layout, sample_routing

TINY = NetworkShape(3, 5, 2)
PROMPT = np.array([0.3, -0.2])


@dataclass
class Rollout:
    blocks: list
    history: FrameHistory
    replay: ReplaySteps | None


def one_row_cache(frames=30, dim=5, rows=1):
    """An empty memory per row over a fresh history of ``frames`` frames."""
    return FrameHistory.allocate(rows, frames, dim).default_cache(0)


def row_memory(cache, row=0):
    """One row's memory: its frames and its (M, h) keys and values (``None``
    when empty), gathered by ``stacked()``."""
    for rows, keys, values in cache.stacked():
        if row in rows:
            i = rows.index(row)
            return cache.frames[row], *(None if a is None else a[i] for a in (keys, values))


def generate_one(params, cache, block_index, noise_seed, prompt, record_replay=False,
                 cfg=GeneratorConfig()):
    """One trajectory's block: the (F, d) frames and its replay rows (or None)."""
    noise = block_noise(noise_seed, block_index, cfg.frames_per_block,
                        shape_from_layout(params.layout).latent_dim)
    block, steps = generate_block(params, cache, block_index, noise, prompt, record_replay, cfg)
    return Block(block.frames[0], block_index), None if steps is None else ReplaySteps(
        steps.z[0], steps.u_hat[0], steps.t, steps.step, steps.block)


def write_one(history, block, params, prompt):
    write_back(history, Block(block.frames[None], block.block_index), params, prompt)


def default_memory(history):
    """The one-row default-layout memory over every frame of ``history``."""
    return history.gather([memory_frames(len(history), 3, 9)])


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
    return Rollout(blocks, history, ReplaySteps.concat(replay) if replay else None)


def tiny_rollout(seed=0, num_blocks=5, record=False):
    params = param_init(TINY, seed)
    return params, rollout(params, PROMPT, num_blocks, noise_seed=seed,
                           record_replay=record)


class TestVelocityEval:
    def test_deterministic(self, tiny_params):
        _, keys, values = row_memory(one_row_cache())
        a = velocity_eval(tiny_params, np.ones((1, 3, 3)), 0.25, keys, values, PROMPT)
        b = velocity_eval(tiny_params, np.ones((1, 3, 3)), 0.25, keys, values, PROMPT)
        assert np.array_equal(a, b)

    def test_zero_head_gives_zero_velocity(self, tiny_params):
        p = tiny_params.copy()
        p.segment("head2_w")[:] = 0.0
        p.segment("head2_b")[:] = 0.0
        out = velocity_eval(p, np.ones((1, 3, 3)), 0.0, *row_memory(one_row_cache())[1:],
                            PROMPT)
        np.testing.assert_array_equal(out, np.zeros((1, 3, 3)))

    def test_perturbing_local_entry_changes_output(self):
        params, res = tiny_rollout(seed=2, num_blocks=5)
        _, keys, values = row_memory(res.history.default_cache(len(res.history)))
        x = np.full((1, 3, 3), 0.2)
        before = velocity_eval(params, x, 0.5, keys[None], values[None], PROMPT)
        bumped = values.copy()
        bumped[3 + 4] += 0.5  # local slot 4, after the 3 sink rows
        after = velocity_eval(params, x, 0.5, keys[None], bumped[None], PROMPT)
        assert not np.array_equal(before, after)


def constant_field(velocity):
    """Parameters whose velocity is ``velocity`` everywhere: every weight
    zeroed, the output bias set."""
    params = param_init(TINY, 0)
    params.values[:] = 0.0
    params.segment("head2_b")[:] = velocity
    return params


class TestEulerSolve:
    def test_zero_velocity_leaves_the_noise(self):
        block, steps = generate_one(constant_field(0.0), one_row_cache(), 1, 5, PROMPT, True)
        xT = block_noise(5, 1, 3, 3)
        np.testing.assert_array_equal(block.frames, xT)
        for z in steps.z:
            np.testing.assert_array_equal(z, xT)

    def test_every_row_of_a_group_starts_from_the_same_noise(self, tiny_params):
        block, steps = generate_block(tiny_params, one_row_cache(rows=2), 1,
                                      block_noise(9, 1, 3, 3), PROMPT, True)
        assert block.frames.shape == (2, 3, 3) and steps.z.shape == (2, 4, 3, 3)
        np.testing.assert_array_equal(steps.z[0, 0], block_noise(9, 1, 3, 3))
        np.testing.assert_array_equal(steps.z[1, 0], block_noise(9, 1, 3, 3))
        assert block.frames[0].tobytes() == block.frames[1].tobytes()


class TestGenerateBlock:
    def test_bit_identical_for_same_inputs(self, tiny_params):
        cache = one_row_cache()
        b1, _ = generate_one(tiny_params, cache, 1, 9, PROMPT)
        b2, _ = generate_one(tiny_params, cache, 1, 9, PROMPT)
        assert np.array_equal(b1.frames, b2.frames)

    def test_replay_tuple_count_matches_steps(self, tiny_params):
        _, steps = generate_one(tiny_params, one_row_cache(), 1, 9, PROMPT,
                                  record_replay=True)
        assert len(steps) == 4 and steps.z.shape == steps.u_hat.shape == (4, 3, 3)
        assert steps.step.tolist() == [1, 2, 3, 4]
        assert steps.block.tolist() == [1, 1, 1, 1]
        assert steps.t.tolist() == [0.0, 0.25, 0.5, 0.75]
        assert generate_block(tiny_params, one_row_cache(), 1, block_noise(9, 1, 3, 3),
                              PROMPT)[1] is None

    def test_replay_time_is_the_accumulated_solver_time(self, tiny_params):
        # With dt = 1/3 the accumulated time differs from step * dt in the
        # last bits; the network must see the time the rollout saw.
        cfg = GeneratorConfig(num_steps=3)
        _, steps = generate_one(tiny_params, one_row_cache(), 1, 9, PROMPT, True, cfg)
        assert steps.t.tolist() == [0.0, cfg.dt, cfg.dt + cfg.dt]

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
        for i, (z, u_hat) in enumerate(zip(steps.z, steps.u_hat)):
            np.testing.assert_allclose(z, xT + i * 0.25 * v, atol=1e-15)
            np.testing.assert_array_equal(u_hat, np.broadcast_to(v, (3, 3)))

    def test_replay_tuples_carry_prestep_latents(self, tiny_params):
        block, steps = generate_one(tiny_params, one_row_cache(), 1, 9, PROMPT,
                                      record_replay=True)
        np.testing.assert_array_equal(steps.z[0], block_noise(9, 1, 3, 3))
        # z + dt*u_hat gives the next row's z, and telescopes to the final block
        x = steps.z[0]
        for z, u_hat in zip(steps.z, steps.u_hat):
            np.testing.assert_array_equal(x, z)
            x = x + 0.25 * u_hat
        np.testing.assert_array_equal(x, block.frames)


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
        frames = res.history.default_cache(12).frames[0]
        assert frames[:3] == (1, 2, 3)
        assert frames[3:] == tuple(range(4, 13))

    def test_eviction_after_15_frames_keeps_history(self):
        _, res = tiny_rollout(num_blocks=5)
        assert res.history.default_cache(15).frames[0][3:] == tuple(range(7, 16))
        # evicted frames remain addressable in the history store
        frames, keys, values = row_memory(res.history.gather([(4, 5, 6)]))
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

    def __init__(self, sink_size=3, local_capacity=9, sink=(), local=()):
        self.sink_size, self.local_capacity = sink_size, local_capacity
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
            return None, None
        return (np.stack([e.key for e in entries]),
                np.stack([e.value for e in entries]))

    def frame_indices(self):
        return tuple(e.frame_index for e in self.sink + self.local)


def assert_same_memory(cache, ref, row=0):
    frames, *arrays = row_memory(cache, row)
    assert frames == ref.frame_indices()
    for mine, theirs in zip(arrays, ref.stacked()):
        if theirs is None:  # an empty memory
            assert mine is None
            continue
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
        history.append(np.stack([k for k, _ in blocks]), np.stack([v for _, v in blocks]),
                       range(b * F + 1, b * F + F + 1))
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
            history.append(k[None], v[None], range(b * F + 1, b * F + F + 1))
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
        assert_same_memory(history.gather([memory_frames(start, 3, *row)]), ref)
        for b in range(start // F, num_blocks):
            for entry in entries[b * F:(b + 1) * F]:
                ref.append(entry)
            assert_same_memory(history.gather([memory_frames(b * F + F, 3, *row)]), ref)

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
            cache = history.gather([memory_frames(3 * b, 3, *row) for row in layouts])
            for g, ref in enumerate(refs):
                assert_same_memory(cache, ref, g)
            assert [rows for rows, *_ in cache.stacked()] == [[1], [0], [2]]
            for g, ref in enumerate(refs):
                for entry in entries[g][3 * b:3 * b + 3]:
                    ref.append(entry)

    def test_default_rebuild_matches_per_frame_reference(self):
        history, entries = filled_history(2, 6)
        for upto in range(0, 19):
            cache = history.default_cache(upto)
            assert len(cache.stacked()) == 1  # one length: one gather for all rows
            for g in range(2):
                ref = ListMemory()
                for entry in entries[g][:upto]:
                    ref.append(entry)
                assert_same_memory(cache, ref, g)

    def test_history_frames_must_continue(self):
        k, v = rows(3)
        history = FrameHistory.allocate(1, 6, 5)
        history.append(k[None], v[None], [1, 2, 3])
        with pytest.raises(ContractError):
            history.append(k[None], v[None], [5, 6, 7])
        assert len(history) == 3
        history.append(k[None], v[None], [4, 5, 6])
        with pytest.raises(ContractError):  # beyond the allocated frames
            history.append(k[None], v[None], [7, 8, 9])
        assert len(history) == 6

    def test_prefix_rows_are_written_to_every_trajectory(self):
        k, v = rows(3)
        history = FrameHistory.allocate(4, 6, 5)
        history.append(k[None], v[None], [1, 2, 3])
        for g in range(4):
            assert history.keys[g, :3].tobytes() == k.tobytes()
            assert history.values[g, :3].tobytes() == v.tobytes()

    def test_gather_rejects_frames_outside_history(self):
        history, _ = filled_history(1, 1)
        for bad in ((0,), (4,), (1, 2, 4)):
            with pytest.raises(ContractError):
                history.gather([bad])
        with pytest.raises(ContractError):
            history.default_cache(4)

    def test_gathered_memories_are_copies(self):
        history, _ = filled_history(2, 4, h=5)
        cache = history.default_cache(12)
        (_, keys, values), = cache.stacked()
        snapshot = keys.copy(), values.copy()
        k, v = rows(3, seed=9)
        history.append(np.stack([k, k]), np.stack([v, v]), [13, 14, 15])
        assert np.array_equal(keys, snapshot[0]) and np.array_equal(values, snapshot[1])
        assert len(history) == 15 and cache.frames == [(1, 2, 3, *range(4, 13))] * 2
        assert history.default_cache(15).frames == [(1, 2, 3, *range(7, 16))] * 2


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
        assert len(res.replay) == 7 * 4
        assert res.replay.block.tolist() == [b for b in range(1, 8) for _ in range(4)]

    def test_cache_layout_invariant_all_points(self, tiny_params):
        history = one_row_cache().history
        for b in range(1, 8):
            block, _ = generate_one(tiny_params, default_memory(history), b, 1, PROMPT)
            write_one(history, block, tiny_params, PROMPT)
            frames, cache = len(history), default_memory(history)
            if frames >= 12:
                assert cache.frames[0][3:] == tuple(range(frames - 8, frames + 1))
                assert cache.frames[0][:3] == (1, 2, 3)

    def test_frame_indices_consecutive(self, tiny_params):
        res = rollout(tiny_params, PROMPT, 3, 0)
        indices = [i for b in res.blocks for i in b.frame_indices()]
        assert indices == list(range(1, 10))
