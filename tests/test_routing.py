"""Exploration mechanics: routable sets, routing draws, branch memories, group
rollouts, and replay contexts."""

import pickle
import pickletools
import re
from collections import defaultdict
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kvgrpo import cache, checks, network, routing
from kvgrpo.cache import FrameHistory, KVCache, memory_frames
from kvgrpo.config import from_flat_dict
from kvgrpo.errors import ConfigError, ContractError, InsufficientHistoryError
from kvgrpo.flow import Block, GeneratorConfig
from kvgrpo.network import NetworkShape, param_init
from kvgrpo.params import Params
from kvgrpo.policy import replay_energies
from kvgrpo.routing import (GroupSeeds, RolloutPlan, RoutingDecision, build_replay_contexts,
                            plan_rollout, rollout_group, routable_range, routed_layout,
                            sample_routing, seed_states)
from kvgrpo.trainer import plan_iteration
import reference_ops as ops
from reference_ops import block_noise
from test_flow import rollout
from test_golden import CONFIGS as GOLDEN_CONFIGS, RUN as GOLDEN_RUN

TINY = NetworkShape(3, 5, 2)
PROMPT = np.array([0.3, -0.2])


def replay_velocities(params, group, row):
    """Each cached solver step of one row of a group, re-evaluated under its
    restored default-layout context."""
    out, (t, _, window) = [], group.replay_schedule()
    for z, t, j in zip(group.replay[0][row], t, window):
        keys, values = memory(group, row, group.pivot_block + j)
        out.append(ops.velocity(params, z, t, keys, values, group.prompt))
    return out


def memory(group, branch_id, block):
    """The filled rows of one trajectory's replay memory at one window block."""
    contexts, j = group.contexts, block - group.pivot_block
    n = contexts.sizes[j]
    return contexts.keys[branch_id, j, :n], contexts.values[branch_id, j, :n]


def roll(params, prompt, num_blocks, pivot, window, num_branches, seeds,
         cfg=GeneratorConfig(), *args, routing_overrides=None, **kw):
    """Plan a group (``args`` and ``kw`` go to :func:`plan_rollout` after the
    latent dimension), apply any :func:`override_routings`, then roll it out."""
    plan = plan_rollout(num_blocks, pivot, window, num_branches, seeds, cfg,
                        network.shape_from_layout(params.layout).latent_dim, *args, **kw)
    if routing_overrides is not None:
        plan = override_routings(plan, routing_overrides, cfg)
    return rollout_group(params, prompt, cfg, pivot, window, plan)


def override_routings(plan, overrides, cfg=GeneratorConfig()):
    """``plan`` with branch g's routing replaced by the frame indices
    ``overrides[g]``, at that branch's own local size, at every block that
    routes, and its memories planned again."""
    return RolloutPlan.build(plan.noise, {b: tuple(
        RoutingDecision(tuple(overrides[g]), r.local_size) if g in overrides else r
        for g, r in enumerate(rows)) for b, rows in plan.routings.items()},
        plan.pivot, plan.window, cfg)


def window_frames(group):
    """Every row's final latents over the window blocks, (G, window * F, d)."""
    F = group.gen_cfg.frames_per_block
    return group.frames[:, (group.pivot_block - 1) * F:(group.pivot_block + group.window - 1) * F]


def make_group(seed=0, num_blocks=8, pivot=6, window=2, branches=4, **kw):
    params = param_init(TINY, seed)
    group = roll(params, PROMPT, num_blocks, pivot, window, branches,
                 GroupSeeds(noise=seed + 100, routing=seed + 200), **kw)
    return params, group


class TestRoutableSet:
    def test_minimum_history(self):
        assert list(routable_range(12)) == [4, 5, 6, 7, 8, 9]

    def test_fifteen_frames(self):
        assert list(routable_range(15)) == list(range(4, 13))

    def test_too_short_errors(self):
        with pytest.raises(InsufficientHistoryError, match="size 5 cannot fill 6"):
            sample_routing(routable_range(11), rng_seed=0)

    def test_generalized_near_count(self):
        # 9 routed slots, none preserved: routable reaches the newest frame.
        omega = routable_range(12, near_count=0)
        assert list(omega) == list(range(4, 13))
        assert sorted(sample_routing(omega, 0, count=9).indices) == list(omega)


class TestSampleRouting:
    def test_forced_permutation_when_set_is_minimal(self):
        omega = list(routable_range(12))
        decision = sample_routing(omega, rng_seed=5)
        assert sorted(decision.indices) == omega

    def test_same_seed_identical(self):
        omega = routable_range(15)
        a = sample_routing(omega, rng_seed=7)
        b = sample_routing(omega, rng_seed=7)
        assert a.indices == b.indices

    def test_indices_distinct(self):
        for seed in range(50):
            decision = sample_routing(routable_range(15), rng_seed=seed)
            assert len(set(decision.indices)) == 6

    def test_uniform_marginals(self):
        # Drawing 6 of 9 without replacement: each index appears with
        # probability 6/9.
        omega = routable_range(15)
        counts = {i: 0 for i in omega}
        draws = 10_000
        for seed in range(draws):
            for i in sample_routing(omega, rng_seed=seed).indices:
                counts[i] += 1
        for i, c in counts.items():
            assert abs(c / draws - 6 / 9) < 0.02, f"index {i} frequency off"

    def test_small_set_errors(self):
        with pytest.raises(InsufficientHistoryError):
            sample_routing([4, 5, 6], rng_seed=0)

    def test_draws_equal_a_choice_from_the_sorted_set(self):
        # Positions drawn and mapped through omega are the frames a choice over
        # the sorted set draws, for integer seeds and the planner's sequences.
        for seed in range(2000):
            omega = routable_range(12 + seed % 40, near_count=3 + seed % 4)
            count = 1 + seed % min(len(omega), 9)
            for rng_seed in (seed, np.random.SeedSequence((seed, 1 + seed % 7))):
                want = np.random.default_rng(rng_seed).choice(sorted(omega), size=count,
                                                              replace=False)
                got = sample_routing(omega, rng_seed, count, local_size=count + 3)
                assert got.indices == tuple(want.tolist())


WORD = st.integers(0, 2**32 - 1)


class TestSeedStates:
    """The planner seeds every draw of a plan in one pass of ``SeedSequence``'s
    pool hash, which must give each entropy's own ``SeedSequence`` state."""

    @settings(max_examples=200, deadline=None)
    @given(entropies=st.lists(st.lists(WORD, min_size=1, max_size=4).map(tuple),
                              min_size=1, max_size=20))
    @example(entropies=[(0,), (2**32 - 1,), (0, 0, 0, 0), (2**32 - 1,) * 4,
                        (2**32 - 1, 0, 2**32 - 1), (5, 7, 997)])
    def test_equal_to_seed_sequence(self, entropies):
        for entropy, seed in zip(entropies, seed_states(entropies), strict=True):
            want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
            got = seed.generate_state(4, np.uint64)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()

    @settings(max_examples=50, deadline=None)
    @given(entropy=st.lists(WORD, min_size=1, max_size=3).map(tuple))
    def test_trailing_zeros_are_the_missing_words(self, entropy):
        # (r, g) hashes as (r, g, 0): the pool's missing words count as zeros.
        short, padded = seed_states([entropy, entropy + (0,)])
        assert short.generate_state(4, np.uint64).tolist() == \
            padded.generate_state(4, np.uint64).tolist() == \
            np.random.SeedSequence(entropy).generate_state(4, np.uint64).tolist()

    def test_draws_equal_the_seed_sequence_draws(self):
        entropies = [(123456789, g, b) for g in range(1, 5) for b in (0, 5, 997)]
        for entropy, seed in zip(entropies, seed_states(entropies)):
            want = np.random.default_rng(np.random.SeedSequence(entropy))
            got = np.random.default_rng(seed)
            assert got.standard_normal(6).tobytes() == want.standard_normal(6).tobytes()
            assert got.choice(30, 6, replace=False).tolist() == \
                want.choice(30, 6, replace=False).tolist()

    @settings(max_examples=50, deadline=None)
    @given(entropies=st.lists(st.lists(st.integers(0, 2**80), min_size=1, max_size=5).map(tuple),
                              min_size=1, max_size=6))
    @example(entropies=[(2**32,), (7, 2**32 - 1)])
    @example(entropies=[(1, 2, 3, 4, 5)])
    def test_wide_entropies_equal_seed_sequence(self, entropies):
        # SeedSequence splits a word past 32 bits in two, and hashes a fifth word in.
        for entropy, seed in zip(entropies, seed_states(entropies), strict=True):
            want = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
            assert seed.generate_state(4, np.uint64).tolist() == want.tolist()

    def test_negative_entropy_raises_as_seed_sequence(self):
        with pytest.raises(ValueError):
            seed_states([(1, 2), (-1, 2)])

    @pytest.mark.parametrize("routing_per_block", [False, True], ids=["pivot", "per-block"])
    @pytest.mark.parametrize("seeds", [GroupSeeds(2**32, 5), GroupSeeds(3, 2**32 + 7),
                                       GroupSeeds(2**64 + 1, 2**70 + 2)],
                             ids=["noise", "routing", "both"])
    def test_plans_with_wide_seeds_draw_as_seed_sequence(self, seeds, routing_per_block):
        cfg, choices = GeneratorConfig(), ((9, 6), (8, 4))
        plan = plan_rollout(8, 5, 3, 4, seeds, cfg, TINY.latent_dim, choices, routing_per_block)
        for b in range(1, 9):
            want = block_noise(seeds.noise, b, cfg.frames_per_block, TINY.latent_dim)
            assert plan.noise[b - 1].tobytes() == want.tobytes()
        pivot_frame = 4 * cfg.frames_per_block
        for g in range(1, 5):
            decide = _branch_decider(seeds, g, choices, pivot_frame, cfg.sink_size, None)
            for b in plan.routings:
                block = b if routing_per_block else None
                assert plan.routings[b][g] == decide((b - 1) * cfg.frames_per_block, block)

    def test_gradcheck_instance_with_seeds_past_32_bits(self):
        # gradcheck --seed 613567 plans with GroupSeeds(4294969001, 4294969002).
        instance = checks.make_instance(613567 * 1000)
        assert np.isfinite(instance.group.frames).all()


def branch_frames(L, routings, sink_size=3, local_size=9):
    """Every row's memory frames at L frames as the rollout lays them out:
    routed rows by their :func:`routed_layout`, ``None`` rows (the anchor) by
    default."""
    return [memory_frames(L, sink_size, *(
        (local_size, (), 0) if r is None else routed_layout(r, L, sink_size)))
        for r in routings]


def branch_cache(history, L, routings, sink_size=3, local_size=9):
    """The rows' :func:`branch_frames`, and their buckets as the per-row
    oracle gathers them."""
    frames = branch_frames(L, routings, sink_size, local_size)
    return frames, ops.gather(history, frames)


class TestBranchMemory:
    def setup_method(self):
        self.params = param_init(TINY, 3)
        self.res = rollout(self.params, PROMPT, 5, noise_seed=1)

    def test_layout_order(self):
        decision = RoutingDecision((4, 7, 5, 9, 8, 6))
        (frames,), ((_, keys, values),) = branch_cache(self.res.history, 12, [decision])
        assert frames[3:] == (4, 7, 5, 9, 8, 6, 10, 11, 12)
        assert frames[:3] == (1, 2, 3)
        rows = np.array(frames) - 1
        assert np.array_equal(keys[0], self.res.history.keys[0, rows])
        assert np.array_equal(values[0], self.res.history.values[0, rows])

    def test_identity_routing_equals_default(self):
        L = 15
        decision = RoutingDecision(tuple(range(L - 8, L - 2)))
        (frames,), ((_, *routed),) = branch_cache(self.res.history, L, [decision])
        default = self.res.history.default_cache(L)
        assert frames == default.frames
        for mine, theirs in zip(routed, default.stacked()):
            assert np.array_equal(mine, theirs)

    def test_unrouted_rows_take_the_default_layout(self):
        decision = RoutingDecision((4, 7, 5, 9, 8, 6))
        frames = branch_frames(15, [None, decision, None], 3, 9)
        assert frames[0] == frames[2] == self.res.history.default_cache(15).frames
        assert frames[1] == (1, 2, 3, 4, 7, 5, 9, 8, 6, 13, 14, 15)

    def test_near_slots_always_newest(self):
        for seed in range(10):
            decision = sample_routing(routable_range(15), rng_seed=seed)
            (frames,) = branch_frames(15, [decision])
            assert frames[-3:] == (13, 14, 15)

    def test_missing_history_frame_rejected(self):
        with pytest.raises(ContractError):
            branch_cache(self.res.history, 99, [RoutingDecision((4, 5, 6, 7, 8, 9))])


class TestRolloutGroup:
    def test_replay_tuple_counts(self):
        # Window of 5 blocks at 4 steps each: 20 tuples per trajectory.
        _, group = make_group(num_blocks=9, pivot=5, window=5, branches=2)
        t, step, window = group.replay_schedule()
        assert len(t) == len(step) == len(window) == 20
        assert group.replay[0].shape[:2] == group.replay[1].shape[:2] == (3, 20)
        assert t.tolist() == [0.0, 0.25, 0.5, 0.75] * 5 and step.tolist() == [1, 2, 3, 4] * 5
        assert window.tolist() == [j for j in range(5) for _ in range(4)]

    def test_identical_seeds_identical_trajectories(self):
        _, g1 = make_group(seed=4)
        _, g2 = make_group(seed=4)
        assert np.array_equal(g1.frames, g2.frames)

    def test_anchor_equals_plain_rollout(self):
        params, group = make_group(seed=5)
        plain = rollout(params, PROMPT, 8, noise_seed=105)
        assert np.array_equal(group.frames[0], np.vstack([b.frames for b in plain.blocks]))

    def test_branches_share_block_noise(self):
        # every trajectory's pivot block starts from the same x_T
        _, group = make_group(seed=16, pivot=6, window=2)
        starts = group.replay[0][:, 0]
        for z in starts[1:]:
            assert np.array_equal(z, starts[0])

    def test_shared_prefix_bitwise(self):
        _, group = make_group(seed=6, pivot=6)
        prefix = group.frames[:, :5 * 3]  # blocks 1-5
        for mine in prefix[1:]:
            assert np.array_equal(mine, prefix[0])

    def test_identity_routing_reproduces_anchor_bitwise(self):
        L = 15  # pivot 6 under 3-frame blocks
        identity = tuple(range(L - 8, L - 2))
        _, group = make_group(seed=7, pivot=6, window=3, branches=2,
                              routing_overrides={1: identity})
        assert group.routings[1].indices == identity
        assert np.array_equal(group.frames[1], group.frames[0])
        assert not np.array_equal(group.frames[2], group.frames[0])

    def test_distinct_routings_diverge_in_window(self):
        _, group = make_group(seed=8, pivot=6, window=3, branches=4)
        mats = window_frames(group)
        for i in range(1, len(mats)):
            for j in range(i + 1, len(mats)):
                if group.routings[i].indices != group.routings[j].indices:
                    assert not np.array_equal(mats[i], mats[j])

    def test_window_end_reverts_to_default_layout(self):
        _, group = make_group(seed=9, pivot=5, window=2, branches=2, num_blocks=8)
        # after the window the branch continues from its own most-recent frames;
        # the window-end cases of TestLockstepMatchesReference check those
        # blocks bit for bit; here just check trajectory lengths.
        assert group.frames.shape[:2] == (3, 24)
        assert len(group.history) == 24 and group.history.keys.shape[:2] == (3, 24)

    def test_precondition_window_fits(self):
        with pytest.raises(ConfigError):
            make_group(pivot=7, window=3, num_blocks=8)

    def test_precondition_enough_history(self):
        with pytest.raises(InsufficientHistoryError):
            make_group(pivot=4, window=1)  # only 9 frames before the pivot

    def test_precondition_one_branch(self):
        with pytest.raises(ConfigError, match="at least one branch"):
            make_group(branches=0)

    def test_block_and_row_counts_come_from_the_plan(self):
        params, cfg = param_init(TINY, 0), GeneratorConfig()
        plan = plan_rollout(7, 6, 2, 3, GroupSeeds(1, 2), cfg, TINY.latent_dim)
        group = rollout_group(params, PROMPT, cfg, 6, 2, plan)
        assert group.frames.shape == (4, 7 * 3, TINY.latent_dim)
        assert group.routings == plan.routings[6] and group.rewards is None

    def test_pivot_missing_from_the_plan_rejected(self):
        params, cfg = param_init(TINY, 0), GeneratorConfig()
        plan = plan_rollout(8, 6, 2, 2, GroupSeeds(1, 2), cfg, TINY.latent_dim)
        with pytest.raises(ContractError, match="pivot block 7"):
            rollout_group(params, PROMPT, cfg, 7, 2, plan)

    def test_window_past_the_plan_rejected(self):
        # Rejected when planned: the window must fit the plan's blocks.
        with pytest.raises(ConfigError, match="7 blocks"):
            plan_rollout(7, 6, 3, 2, GroupSeeds(1, 2), GeneratorConfig(), TINY.latent_dim)

    def test_per_block_resampling_differs_from_fixed(self):
        _, fixed = make_group(seed=10, pivot=6, window=3)
        _, per_block = make_group(seed=10, pivot=6, window=3,
                                  routing_per_block=True)
        assert not np.array_equal(fixed.frames[1:], per_block.frames[1:])

    def test_local_kv_choice_respected(self):
        _, group = make_group(seed=11, pivot=6, window=2,
                              local_kv_choices=((6, 3),))
        for routing in group.routings[1:]:
            assert routing.local_size == 6
            assert len(routing.indices) == 3

    def test_random_local_kv_choices_deterministic(self):
        kw = dict(seed=12, pivot=7, window=2, num_blocks=9,
                  local_kv_choices=((6, 3), (9, 6), (12, 9)))
        _, g1 = make_group(**kw)
        _, g2 = make_group(**kw)
        sizes1 = [r.local_size for r in g1.routings[1:]]
        sizes2 = [r.local_size for r in g2.routings[1:]]
        assert sizes1 == sizes2
        assert set(sizes1) <= {6, 9, 12}

    def test_infeasible_choices_filtered(self):
        # At pivot 6 (15 frames) a 12-slot window is feasible; at pivot 5 (12
        # frames) it is not and must never be picked.
        _, group = make_group(seed=13, pivot=5, window=1, num_blocks=8,
                              local_kv_choices=((12, 9), (9, 6)))
        assert all(r.local_size == 9 for r in group.routings[1:])


class TestReplayContexts:
    def test_anchor_replay_energy_is_exactly_zero(self, check_instance):
        energy = replay_energies(check_instance.params, check_instance.group, [0])
        assert energy.tolist() == [0.0]

    def test_anchor_replay_velocities_equal_cached_targets_bitwise(self, check_instance):
        group = check_instance.group
        velocities = replay_velocities(check_instance.params, group, 0)
        assert len(velocities) == group.replay[1].shape[1]
        for v, u_hat in zip(velocities, group.replay[1][0]):
            assert np.array_equal(v, u_hat)

    def test_branch_replay_velocities_differ_from_targets(self, check_instance):
        group = check_instance.group
        velocities = replay_velocities(check_instance.params, group, 1)
        assert any(not np.array_equal(v, u_hat)
                   for v, u_hat in zip(velocities, group.replay[1][1]))

    def test_branch_energies_positive(self, check_instance):
        group = check_instance.group
        energies = replay_energies(check_instance.params, group, range(1, len(group.frames)))
        assert np.all(energies > 0.0)

    def test_replay_deterministic(self, check_instance):
        group = check_instance.group
        e1 = replay_energies(check_instance.params, group, [1])
        e2 = replay_energies(check_instance.params, group, [1])
        assert e1.tobytes() == e2.tobytes()

    def test_replay_eval_count(self, check_instance):
        group = check_instance.group
        assert len(group.replay_schedule()[0]) == group.window * 4
        assert group.replay[0].shape[:2] == (len(group.frames), group.window * 4)

    def test_anchor_source_shares_contexts(self):
        _, group = make_group(seed=14, pivot=6, window=2)
        anchor_ctx = replace(group, contexts=build_replay_contexts(group, source="anchor"))
        own_ctx = replace(group, contexts=build_replay_contexts(group, source="branch"))
        b = 1  # the first branch's row
        first_block = group.pivot_block
        shared_keys, shared_values = memory(anchor_ctx, b, first_block)
        own_keys, own_values = memory(own_ctx, b, first_block)
        # At the first window block both sources coincide (prefix is shared).
        assert np.array_equal(shared_keys, own_keys)
        assert np.array_equal(shared_values, own_values)
        later = group.pivot_block + 1
        anchor_keys, _ = memory(anchor_ctx, b, later)
        own_keys, _ = memory(own_ctx, b, later)
        # Same slots, but the branch's own frames differ from the anchor's.
        assert anchor_keys.shape == own_keys.shape
        assert not np.array_equal(anchor_keys, own_keys)

    def test_bad_source_rejected(self):
        _, group = make_group(seed=15)
        with pytest.raises(ConfigError):
            build_replay_contexts(group, source="other")


@dataclass
class RowMemory:
    """Reference: one trajectory's memory as the generator kept it before the
    group memory: its own (M, h) key and value arrays plus each row's frame
    index, filled sink first, with positional eviction, and rebuilt by
    concatenation on every append."""

    sink_size: int = 3
    local_capacity: int = 9
    keys: np.ndarray | None = None
    values: np.ndarray | None = None
    frames: tuple = ()

    def append(self, keys, values, frames):
        filled = min(len(self.frames), self.sink_size)
        frames = self.frames + tuple(frames)
        sink = min(len(frames), self.sink_size)
        if frames[filled:sink] != tuple(range(filled + 1, sink + 1)):
            raise ContractError(f"sink frames out of order: {frames[filled:sink]}")
        if self.keys is not None:
            keys = np.concatenate([self.keys, keys])
            values = np.concatenate([self.values, values])
        drop = len(frames) - sink - self.local_capacity
        if drop > 0:
            keys = np.concatenate([keys[:sink], keys[sink + drop:]])
            values = np.concatenate([values[:sink], values[sink + drop:]])
            frames = frames[:sink] + frames[sink + drop:]
        self.keys, self.values, self.frames = keys, values, frames


@dataclass
class RowHistory:
    """Reference: one trajectory's (N, h) frame history, grown by
    concatenation, from which its routed and default memories are gathered."""

    keys: np.ndarray | None = None
    values: np.ndarray | None = None

    def __len__(self):
        return 0 if self.keys is None else len(self.keys)

    def copy(self):
        return RowHistory(self.keys, self.values)

    def append(self, keys, values, frames):
        assert list(frames) == list(range(len(self) + 1, len(self) + len(frames) + 1))
        if self.keys is not None:
            keys = np.concatenate([self.keys, keys])
            values = np.concatenate([self.values, values])
        self.keys, self.values = keys, values

    def gather(self, frames, sink_size, local_capacity):
        frames = tuple(frames)
        if not frames:
            return RowMemory(sink_size, local_capacity)
        assert all(1 <= f <= len(self) for f in frames)
        rows = np.array(frames) - 1
        return RowMemory(sink_size, local_capacity, self.keys[rows], self.values[rows], frames)

    def default_cache(self, upto_frame, sink_size, local_capacity):
        first_local = max(sink_size, upto_frame - local_capacity)
        return self.gather([*range(1, min(sink_size, upto_frame) + 1),
                            *range(first_local + 1, upto_frame + 1)], sink_size, local_capacity)

    def branch_cache(self, L, routing, sink_size):
        near_count = routing.local_size - len(routing.indices)
        return self.gather([*range(1, sink_size + 1), *routing.indices,
                            *range(L - near_count + 1, L + 1)], sink_size, routing.local_size)


def _branch_decider(seeds: GroupSeeds, branch_id: int, choices, pivot_frame: int,
                    sink_size: int, override: tuple[int, ...] | None):
    """Reference: one branch's routing as :func:`plan_rollout` drew it before
    it planned a group in one loop.  Its (local_size, routed_slots) pair is
    drawn once from the choices feasible at the pivot; ``decide(L, block)``
    then routes L frames of history, or returns ``override`` at that local
    size."""
    feasible = [c for c in choices
                if len(routable_range(pivot_frame, c[0] - c[1], sink_size)) >= c[1]]
    if not feasible:
        raise InsufficientHistoryError(
            f"no local-window choice from {list(choices)} is routable at L={pivot_frame}")
    pick = 0
    if len(feasible) > 1:
        rng = np.random.default_rng(np.random.SeedSequence((seeds.routing, branch_id, 997)))
        pick = int(rng.integers(len(feasible)))
    local_size, routed_slots = (int(c) for c in feasible[pick])

    def decide(L: int, block: int | None) -> RoutingDecision:
        if override is not None:
            return RoutingDecision(tuple(override), local_size)
        omega = routable_range(L, local_size - routed_slots, sink_size)
        # Documented derivation: fixed-mode decisions use (routing, branch), the
        # per-block mode appends the block index.
        entropy = (seeds.routing, branch_id) + (() if block is None else (block,))
        return sample_routing(omega, np.random.SeedSequence(entropy), routed_slots,
                              local_size)

    return decide


class ReferenceRollout:
    """Reference: the per-trajectory rollout that the lockstep group engine
    replaced.  The prefix, then the anchor and each branch in turn, are solved
    one (F, d) block at a time over their own :class:`RowMemory` and
    :class:`RowHistory`, with one network call per solver step and one
    key/value projection per block.  Records the memory length each solve
    saw, per block."""

    def __init__(self, params, prompt, cfg):
        self.params, self.prompt, self.cfg = params, prompt, cfg
        self.lengths = defaultdict(set)

    def generate(self, cache, b, noise_seed, record):
        cfg = self.cfg
        shape = network.shape_from_layout(self.params.layout)
        x, t = block_noise(noise_seed, b, cfg.frames_per_block, shape.latent_dim), 0.0
        empty = np.zeros((0, shape.hidden_dim))  # a memory with no frames yet
        keys, values = (empty, empty) if cache.keys is None else (cache.keys, cache.values)
        self.lengths[b].add(len(keys))
        rows = []
        for _ in range(cfg.num_steps):
            v = ops.velocity(self.params, x, t, keys, values, self.prompt)
            rows.append((x, v, t))
            x, t = x + cfg.dt * v, t + cfg.dt
        # The block's z, u_hat, times, 1-based steps and block, one row per step.
        steps = (*(np.array(column) for column in zip(*rows)), np.arange(1, cfg.num_steps + 1),
                 np.full(cfg.num_steps, b))
        return Block(x, b), steps if record else None

    def write_back(self, cache, block, history):
        keys, values = network.kv_for_frames(network.Weights(self.params), block.frames,
                                             self.prompt)
        F = self.cfg.frames_per_block
        frames = range((block.block_index - 1) * F + 1, block.block_index * F + 1)
        cache.append(keys, values, frames)
        history.append(keys, values, frames)

    def group(self, num_blocks, pivot, window, num_branches, seeds,
              local_kv_choices=((9, 6),), routing_per_block=False, routing_overrides=None):
        cfg = self.cfg
        cache, history, prefix = RowMemory(cfg.sink_size, cfg.local_size), RowHistory(), []
        for b in range(1, pivot):
            block, _ = self.generate(cache, b, seeds.noise, False)
            self.write_back(cache, block, history)
            prefix.append(block)
        return [self.branch(prefix, history, len(history), pivot, window, num_blocks,
                            seeds, g, local_kv_choices, routing_per_block,
                            None if routing_overrides is None else routing_overrides.get(g))
                for g in range(num_branches + 1)]

    def branch(self, prefix, prefix_history, pivot_frame, pivot, window, num_blocks,
               seeds, branch_id, local_kv_choices, routing_per_block, override):
        cfg = self.cfg
        history, routing = prefix_history.copy(), None
        if branch_id == 0:
            cache = history.default_cache(pivot_frame, cfg.sink_size, cfg.local_size)
        else:
            decide = _branch_decider(seeds, branch_id, local_kv_choices, pivot_frame,
                                     cfg.sink_size, override)
            routing = decide(pivot_frame, pivot if routing_per_block else None)
            cache = history.branch_cache(pivot_frame, routing, cfg.sink_size)
        blocks, replay = list(prefix), []
        for b in range(pivot, num_blocks + 1):
            in_window = pivot <= b < pivot + window
            if routing is not None and in_window and routing_per_block and b > pivot:
                cache = history.branch_cache(len(history), decide(len(history), b),
                                             cfg.sink_size)
            if b == pivot + window:
                cache = history.default_cache(len(history), cfg.sink_size, cfg.local_size)
            block, steps = self.generate(cache, b, seeds.noise, in_window)
            self.write_back(cache, block, history)
            blocks.append(block)
            replay += [steps] if in_window else []
        return blocks, routing, [np.concatenate(column) for column in zip(*replay)], history


def oracle_memories(routings, num_blocks, pivot, window, cfg):
    """Reference: every block's memories as the rollout laid them out block
    by block before they were planned, as the frame tuples of the rows it
    solves.  One default-layout row until the pivot; at each block that
    routes, each row's :func:`routed_layout`, kept until the window ends;
    then the default layout again, one row per trajectory."""
    default = (cfg.local_size, (), 0)
    layouts, memories = [default], []
    for b in range(1, num_blocks + 1):
        L = (b - 1) * cfg.frames_per_block
        if b in routings:
            layouts = [default if r is None else routed_layout(r, L, cfg.sink_size)
                       for r in routings[b]]
        elif b == pivot + window:
            layouts = [default] * len(routings[pivot])
        memories.append([memory_frames(L, cfg.sink_size, *row) for row in layouts])
    return memories


SHAPE = NetworkShape(8, 16, 4)
EXPLORE_WIDE = dict(num_branches=16, local_kv_choices=((6, 3), (9, 6), (12, 9)),
                    routing_per_block=True)
# (case, num_blocks, pivot, generator config, rollout keywords); the window
# is the keywords' ``window``, else the trainer's min(perturbed_blocks=5,
# num_blocks - pivot + 1).  The window-end cases end the window before the
# last block, while a routed frame is still in memory, so the revert to the
# default layout changes what the following blocks see.  At three solver steps
# dt = 1/3 rounds, so times not summed as the solver sums them can differ in the last bit.
LOCKSTEP_CASES = [
    *((f"default-p{p}", 8, p, GeneratorConfig(), dict(num_branches=8)) for p in (5, 6, 7)),
    *((f"explore-wide-p{p}", 8, p, GeneratorConfig(), EXPLORE_WIDE) for p in (5, 6, 7)),
    ("overrides", 8, 6, GeneratorConfig(),
     dict(num_branches=4, routing_overrides={1: (7, 8, 9, 10, 11, 12), 3: (4, 6, 8, 5, 7, 9)})),
    ("overrides-per-block", 8, 5, GeneratorConfig(),
     dict(num_branches=3, routing_overrides={2: (4, 5, 6, 7, 8, 9)}, routing_per_block=True)),
    *((f"two-frame-p{p}", 10, p, GeneratorConfig(frames_per_block=2), dict(num_branches=8))
      for p in (7, 8)),
    ("window-end-fixed", 9, 5, GeneratorConfig(), dict(num_branches=6, window=1)),
    ("window-end-per-block", 10, 5, GeneratorConfig(),
     dict(num_branches=4, routing_per_block=True, window=2)),
    ("window-end-explore-wide", 9, 6, GeneratorConfig(), dict(EXPLORE_WIDE, window=2)),
    ("three-steps-p6", 8, 6, GeneratorConfig(num_steps=3), dict(num_branches=4)),
]


class TestLockstepMatchesReference:
    @pytest.mark.parametrize("case", LOCKSTEP_CASES, ids=[c[0] for c in LOCKSTEP_CASES])
    def test_bitwise_equal_to_per_trajectory_rollout(self, case, monkeypatch):
        _, num_blocks, pivot, cfg, kw = case
        params = param_init(SHAPE, pivot)
        prompt = np.linspace(0.5, -0.5, 4)
        seeds = GroupSeeds(noise=1000 + pivot, routing=2000 + pivot)
        kw = dict(kw)
        num_branches = kw.pop("num_branches")
        window = kw.pop("window", min(5, num_blocks - pivot + 1))
        reference = ReferenceRollout(params, prompt, cfg)
        expected = reference.group(num_blocks, pivot, window, num_branches, seeds, **kw)

        calls = defaultdict(int)
        for name in ("velocity_forward", "kv_for_frames"):
            def counted(*args, real=getattr(network, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(network, name, counted)
        group = roll(params, prompt, num_blocks, pivot, window, num_branches, seeds, cfg, **kw)
        monkeypatch.undo()

        F = cfg.frames_per_block
        assert len(group.frames) == len(group.routings) == len(expected) == num_branches + 1
        assert group.frames.shape[1] == num_blocks * F
        for g, (blocks, routing, replay, history) in enumerate(expected):
            assert group.routings[g] == routing
            assert [b.block_index for b in blocks] == list(range(1, num_blocks + 1))
            for b, theirs in enumerate(blocks):
                mine = group.frames[g, b * F:(b + 1) * F]
                assert mine.shape == theirs.frames.shape
                assert mine.tobytes() == theirs.frames.tobytes()
            # The record, and the times, steps and blocks derived from the config,
            # against the ones the reference's own solver loop accumulated.
            t, step, window = group.replay_schedule()
            recorded = (group.replay[0][g], group.replay[1][g], t, step, pivot + window)
            for field, mine, theirs in zip(("z", "u_hat", "t", "step", "block"), recorded,
                                           replay):
                assert mine.shape == theirs.shape and mine.dtype == theirs.dtype
                assert mine.tobytes() == theirs.tobytes(), field
            assert group.history.keys[g].tobytes() == history.keys.tobytes()
            assert group.history.values[g].tobytes() == history.values.tobytes()
        if "local_kv_choices" in kw:  # the case mixes memory lengths in one block
            assert max(len(n) for n in reference.lengths.values()) > 1
        # One network call per (block, solver step), whatever the memory
        # lengths, and one key/value projection per block.
        assert calls["velocity_forward"] == cfg.num_steps * num_blocks
        assert calls["kv_for_frames"] == num_blocks


def case_plan(case):
    """The plan a :data:`LOCKSTEP_CASES` entry rolls out, and its config."""
    _, num_blocks, pivot, cfg, kw = case
    kw = dict(kw)
    num_branches, overrides = kw.pop("num_branches"), kw.pop("routing_overrides", None)
    window = kw.pop("window", min(5, num_blocks - pivot + 1))
    plan = plan_rollout(num_blocks, pivot, window, num_branches,
                        GroupSeeds(noise=1000 + pivot, routing=2000 + pivot), cfg,
                        SHAPE.latent_dim, **kw)
    return (plan if overrides is None else override_routings(plan, overrides, cfg)), cfg


def assert_planned_as_the_oracle(plan, cfg):
    """Every block's buckets hold the oracle's rows, grouped by memory length,
    shortest first, each row's frames less one."""
    expected = oracle_memories(plan.routings, len(plan.noise), plan.pivot, plan.window, cfg)
    assert len(plan.memories) == len(expected)
    for b, (buckets, frames) in enumerate(zip(plan.memories, expected), start=1):
        lengths = sorted({len(f) for f in frames})
        assert len(buckets) == len(lengths), f"block {b}"
        for n, (rows, index) in zip(lengths, buckets):
            want = [g for g, f in enumerate(frames) if len(f) == n]
            assert rows.tolist() == want, f"block {b}"
            assert index.dtype == np.intp and index.shape == (len(want), n), f"block {b}"
            assert index.tolist() == [[i - 1 for i in frames[g]] for g in want], f"block {b}"


class TestPlannedMemories:
    @pytest.mark.parametrize("case", LOCKSTEP_CASES, ids=[c[0] for c in LOCKSTEP_CASES])
    def test_buckets_equal_the_block_by_block_oracle(self, case):
        assert_planned_as_the_oracle(*case_plan(case))

    @pytest.mark.parametrize("name", GOLDEN_CONFIGS)
    def test_golden_configs_plan_as_the_oracle(self, name):
        cfg = from_flat_dict({**GOLDEN_CONFIGS[name], **GOLDEN_RUN}).trainer
        gen_cfg = GeneratorConfig(cfg.frames_per_block, cfg.denoise_steps, cfg.sink_size,
                                  cfg.local_size)
        for it in range(1, 51):
            assert_planned_as_the_oracle(plan_iteration(cfg, it).rollout, gen_cfg)

    @pytest.mark.parametrize("name", GOLDEN_CONFIGS)
    def test_golden_plans_survive_pickling(self, name):
        # The sidecar sends each plan pickled: every bucket's rows and index come back as
        # views of one packed intp array, beside the noise, the only other array.
        cfg = from_flat_dict({**GOLDEN_CONFIGS[name], **GOLDEN_RUN}).trainer
        for it in range(1, 26):
            plan = plan_iteration(cfg, it)
            data = pickle.dumps(plan)
            assert ndarrays_in(data) == 2
            got, want = pickle.loads(data).rollout, plan.rollout
            assert got.noise.dtype == want.noise.dtype and got.noise.shape == want.noise.shape
            assert got.noise.tobytes() == want.noise.tobytes()
            assert got.routings == want.routings and got.cfg == want.cfg
            assert (got.pivot, got.window) == (want.pivot, want.window)
            assert len(got.memories) == len(want.memories)
            for got_block, want_block in zip(got.memories, want.memories):
                assert len(got_block) == len(want_block)
                for got_arrays, want_arrays in zip(got_block, want_block):
                    for a, b in zip(got_arrays, want_arrays):
                        assert a.dtype == b.dtype == np.intp and a.shape == b.shape
                        assert a.tolist() == b.tolist()

    @pytest.mark.parametrize("indices", [(3, 5, 6, 7, 8, 9), (4, 4, 5, 6, 7, 8)],
                             ids=["out-of-range", "repeated"])
    def test_invalid_routing_rejected_when_planned(self, indices):
        # At pivot 5, 12 frames: the routable frames are 4-9.
        plan = plan_rollout(8, 5, 2, 2, GroupSeeds(1, 2), GeneratorConfig(), TINY.latent_dim)
        with pytest.raises(ContractError, match=re.escape(
                f"routed frames {indices} must be distinct and in [4, 9]")):
            override_routings(plan, {2: indices})

    def test_rollout_lays_out_nothing_and_reads_each_weight_once(self, monkeypatch):
        params, cfg = param_init(SHAPE, 0), GeneratorConfig()
        calls, segments = defaultdict(int), []
        for owner, name in ((cache, "memory_frames"), (routing, "memory_frames"),
                            (routing, "routed_layout"), (FrameHistory, "default_cache"),
                            (KVCache, "stacked")):
            def counted(*args, real=getattr(owner, name), name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        real_segment = Params.segment
        monkeypatch.setattr(Params, "segment",
                            lambda self, name: segments.append(name) or real_segment(self, name))

        plan, _ = case_plan(LOCKSTEP_CASES[4])  # explore-wide, pivot 6
        assert max(len(buckets) for buckets in plan.memories) == 3  # three memory lengths
        assert calls["memory_frames"] and calls["routed_layout"] and not segments
        calls.clear()
        group = rollout_group(params, np.linspace(0.5, -0.5, 4), cfg, plan.pivot, plan.window,
                              plan)
        assert dict(calls) == {} and sorted(segments) == sorted(network.SEGMENTS)
        build_replay_contexts(group)  # the counters do see a default-layout gather
        assert calls["default_cache"] and calls["stacked"]

    def test_each_bucket_is_gathered_once_into_the_buffers_attended_over(self, monkeypatch):
        # FrameHistory.take gathers each bucket's memory straight into the joint
        # buffers that the network writes its block rows into: no copy in between.
        params, cfg = param_init(SHAPE, 0), GeneratorConfig()
        plan, _ = case_plan(LOCKSTEP_CASES[4])  # explore-wide, pivot 6
        assert {1, 3} <= {len(buckets) for buckets in plan.memories}
        taken, attended = [], []
        real_take, real_attend = FrameHistory.take, network._attend
        monkeypatch.setattr(FrameHistory, "take", lambda *args: taken.append(
            real_take(*args)) or taken[-1])
        monkeypatch.setattr(network, "_attend", lambda weights, qkv, keys, vals, *args: (
            attended.append((keys, vals)) or real_attend(weights, qkv, keys, vals, *args)))
        rollout_group(params, np.linspace(0.5, -0.5, 4), cfg, plan.pivot, plan.window, plan)
        assert len(taken) == sum(map(len, plan.memories))
        assert len(attended) == cfg.num_steps * len(taken)
        for buckets in plan.memories:
            block, taken = taken[:len(buckets)], taken[len(buckets):]
            for _ in range(cfg.num_steps):
                for (keys, values), (got_keys, got_values) in zip(block, attended):
                    assert got_keys is keys and got_values is values
                attended = attended[len(buckets):]

    @pytest.mark.parametrize("pivot, window, other_blocks", [(6, 2, False), (5, 3, False),
                                                              (5, 2, True)])
    def test_plan_made_for_another_rollout_rejected(self, pivot, window, other_blocks):
        params, cfg = param_init(TINY, 0), GeneratorConfig()
        plan = plan_rollout(8, 5, 2, 2, GroupSeeds(1, 2), cfg, TINY.latent_dim)
        if other_blocks:  # its noise from a plan made for 7 blocks
            plan = replace(plan, noise=plan_rollout(7, 5, 2, 2, GroupSeeds(1, 2), cfg,
                                                   TINY.latent_dim).noise)
        with pytest.raises(ContractError, match=re.escape(
                f"the plan is for pivot block 5, window 2, not pivot block {pivot}, "
                f"window {window} in {7 if other_blocks else 8} blocks")):
            rollout_group(params, PROMPT, cfg, pivot, window, plan)

    @pytest.mark.parametrize("made", [GeneratorConfig(local_size=12),
                                      GeneratorConfig(frames_per_block=2)],
                             ids=["local-size", "frames-per-block"])
    def test_plan_made_for_another_config_rejected(self, made):
        # Unchecked, another local size rolls out with memories of the wrong
        # size, and another block length fails inside numpy.
        params, cfg = param_init(TINY, 0), GeneratorConfig()
        plan = plan_rollout(9, 8, 2, 2, GroupSeeds(1, 2), made, TINY.latent_dim)
        assert plan.cfg == made
        with pytest.raises(ContractError, match=re.escape(f"the plan is for {made}, not {cfg}")):
            rollout_group(params, PROMPT, cfg, 8, 2, plan)


def ndarrays_in(data: bytes) -> int:
    """The arrays a pickle builds: its uses of numpy's array reconstructor, by name or
    from the memo."""
    strings, memo, count, top = [], [], 0, None
    for op, arg, _ in pickletools.genops(data):
        if op.name in ("SHORT_BINUNICODE", "BINUNICODE", "BINUNICODE8"):
            strings.append(top := arg)
        elif op.name in ("STACK_GLOBAL", "GLOBAL"):
            top = ".".join(strings[-2:]) if op.name == "STACK_GLOBAL" else arg.replace(" ", ".")
            count += top.endswith("._reconstruct")
        elif op.name == "MEMOIZE":
            memo.append(top)
        elif op.name in ("BINGET", "LONG_BINGET"):
            top = memo[arg]
            count += isinstance(top, str) and top.endswith("._reconstruct")
        else:
            top = None
    return count


class TestRolloutBuffers:
    """A rollout's bookkeeping around its network calls: one input buffer per row
    count, shared by every block's solve and projection, and the group's blocks written
    straight into the group's arrays."""

    def test_one_input_buffer_per_row_count(self, monkeypatch):
        params, prompt = param_init(SHAPE, 0), np.linspace(0.5, -0.5, 4)
        plan = plan_iteration(from_flat_dict({}).trainer, 1).rollout
        made, real = [], network.input_buffer
        monkeypatch.setattr(network, "input_buffer",
                            lambda shape, prompt: made.append(shape) or real(shape, prompt))
        group = rollout_group(params, prompt, plan.cfg, plan.pivot, plan.window, plan)
        F, d = plan.cfg.frames_per_block, SHAPE.latent_dim
        assert plan.pivot > 1 and made == [(1, F, d), (len(group.frames), F, d)]

    def test_a_given_buffer_is_the_projections_input(self, monkeypatch):
        params, prompt = param_init(SHAPE, 0), np.linspace(0.5, -0.5, 4)
        weights, x = network.Weights(params), np.random.default_rng(0).normal(size=(5, 3, 8))
        want = network.kv_for_frames(weights, x, prompt)
        aug = network.input_buffer(x.shape, prompt)
        aug[..., :9] = np.nan  # latents and time, which the projection writes
        made, real = [], network.input_buffer
        monkeypatch.setattr(network, "input_buffer",
                            lambda shape, prompt: made.append(shape) or real(shape, prompt))
        got = network.kv_for_frames(weights, x, prompt, aug)
        assert made == []
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))

    def test_in_order_blocks_write_into_the_group(self, monkeypatch):
        # Each window step is in the group's record before the next network call, and a
        # block's frames are the group's: no block-local copy of either.
        params, prompt = param_init(SHAPE, 0), np.linspace(0.5, -0.5, 4)
        plan = plan_iteration(from_flat_dict({}).trainer, 1).rollout
        blocks, steps, solving = [], [], []
        real_block, real_forward = routing.generate_block, network.velocity_forward

        def block(*args):
            solving[:] = [args[6]]
            blocks.append(real_block(*args))
            return blocks[-1]

        def forward(reader, x, t, inputs):
            if (record := solving[0]) is not None and steps:
                k, (z, v) = len(steps) % plan.cfg.num_steps, steps[-1]
                if k:
                    assert record[0][:, k - 1].tobytes() == np.broadcast_to(z, v.shape).tobytes()
                    assert record[1][:, k - 1].tobytes() == v.tobytes()
            steps.append((x, real_forward(reader, x, t, inputs)))
            return steps[-1][1]

        monkeypatch.setattr(routing, "generate_block", block)
        monkeypatch.setattr(network, "velocity_forward", forward)
        group = rollout_group(params, prompt, plan.cfg, plan.pivot, plan.window, plan)
        for b in blocks:  # the prefix solves row 0 alone
            assert np.shares_memory(b.frames, group.frames), b.block_index
            assert len(b.frames) == (len(group.frames) if b.block_index >= plan.pivot else 1)


class TestReplayContextsMatchReference:
    @pytest.mark.parametrize("source", ["branch", "anchor"])
    @pytest.mark.parametrize("mixed", [False, True], ids=["uniform", "mixed"])
    def test_bitwise_equal_to_per_trajectory_default_cache(self, source, mixed,
                                                          monkeypatch):
        # The mixed group pivots early enough that the first window block's
        # memory is shorter than the later ones.
        params, prompt, cfg = param_init(SHAPE, 3), np.linspace(0.5, -0.5, 4), GeneratorConfig()
        pivot, choices = (4, ((5, 2),)) if mixed else (5, ((9, 6),))
        args = (8, pivot, 4, 6, GroupSeeds(31, 32))
        histories = [h for *_, h in ReferenceRollout(params, prompt, cfg).group(*args, choices)]
        group = roll(params, prompt, *args, cfg, choices)

        memories = [[histories[0 if source == "anchor" else g].default_cache(
            cfg.frames_per_block * (b - 1), cfg.sink_size, cfg.local_size)
            for b in group.window_block_indices] for g in range(len(histories))]
        sizes = np.array([len(m.frames) for m in memories[0]])
        shape = (len(histories), len(sizes), sizes.max(), SHAPE.hidden_dim)
        keys, values = np.zeros(shape), np.zeros(shape)
        for i, row in enumerate(memories):
            for j, m in enumerate(row):
                keys[i, j, :sizes[j]], values[i, j, :sizes[j]] = m.keys, m.values

        calls = []
        real = FrameHistory.default_cache
        monkeypatch.setattr(FrameHistory, "default_cache",
                            lambda *a, **kw: calls.append(a[1]) or real(*a, **kw))
        contexts = build_replay_contexts(group, source)
        monkeypatch.undo()
        assert len(calls) == group.window  # one gather per window block, all rows
        assert (len(set(sizes.tolist())) > 1) == mixed
        assert contexts.sizes.tolist() == sizes.tolist()
        assert contexts.keys.shape == keys.shape
        assert contexts.keys.tobytes() == keys.tobytes()
        assert contexts.values.tobytes() == values.tobytes()
