"""Exploration mechanics: routable sets, routing draws, branch caches, group
rollouts, and replay contexts."""

import numpy as np
import pytest

from kvgrpo.cache import ROUTED_LAYOUT
from kvgrpo.errors import ConfigError, ContractError, InsufficientHistoryError
from kvgrpo.flow import GeneratorConfig, rollout
from kvgrpo.network import NetworkShape, param_init, velocity_forward
from kvgrpo.policy import replay_energy
from kvgrpo.routing import (GroupSeeds, RoutingDecision, build_branch_cache,
                            build_replay_contexts, rollout_group, routable_set,
                            sample_routing)

TINY = NetworkShape(3, 5, 2)
PROMPT = np.array([0.3, -0.2])


def replay_velocities(params, branch, contexts):
    """Each cached solver step of a branch, re-evaluated under its restored
    default-layout context."""
    out = []
    for tup in branch.replay:
        keys, values = contexts.for_block(branch.branch_id, tup.block)
        out.append(velocity_forward(params, tup.z, tup.t, keys, values, contexts.prompt))
    return out


def make_group(seed=0, num_blocks=8, pivot=6, window=2, branches=4, **kw):
    params = param_init(TINY, seed)
    group = rollout_group(params, PROMPT, num_blocks, pivot, window, branches,
                          GroupSeeds(noise=seed + 100, routing=seed + 200), **kw)
    return params, group


class TestRoutableSet:
    def test_minimum_history(self):
        assert routable_set(12) == [4, 5, 6, 7, 8, 9]

    def test_fifteen_frames(self):
        assert routable_set(15) == list(range(4, 13))

    def test_too_short_errors(self):
        with pytest.raises(InsufficientHistoryError):
            routable_set(11)

    def test_generalized_near_count(self):
        # 9 routed slots, none preserved: routable reaches the newest frame.
        assert routable_set(12, near_count=0, min_count=9) == list(range(4, 13))


class TestSampleRouting:
    def test_forced_permutation_when_set_is_minimal(self):
        omega = routable_set(12)
        decision = sample_routing(omega, rng_seed=5)
        assert sorted(decision.indices) == omega

    def test_same_seed_identical(self):
        omega = routable_set(15)
        a = sample_routing(omega, rng_seed=7)
        b = sample_routing(omega, rng_seed=7)
        assert a.indices == b.indices

    def test_indices_distinct(self):
        for seed in range(50):
            decision = sample_routing(routable_set(15), rng_seed=seed)
            assert len(set(decision.indices)) == 6

    def test_uniform_marginals(self):
        # Drawing 6 of 9 without replacement: each index appears with
        # probability 6/9.
        omega = routable_set(15)
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


class TestBuildBranchCache:
    def setup_method(self):
        self.params = param_init(TINY, 3)
        self.res = rollout(self.params, PROMPT, 5, noise_seed=1)

    def test_layout_order(self):
        decision = RoutingDecision((4, 7, 5, 9, 8, 6), branch_id=1, pivot_block=5)
        cache = build_branch_cache(self.res.history, 12, decision)
        assert cache.layout_tag == ROUTED_LAYOUT
        assert [e.frame_index for e in cache.local] == [4, 7, 5, 9, 8, 6, 10, 11, 12]
        assert [e.frame_index for e in cache.sink] == [1, 2, 3]

    def test_identity_routing_equals_default(self):
        L = 15
        decision = RoutingDecision(tuple(range(L - 8, L - 2)))
        routed = build_branch_cache(self.res.history, L, decision)
        default = self.res.history.default_cache(L)
        assert routed.frame_indices() == default.frame_indices()
        for a, b in zip(routed.entries(), default.entries()):
            assert np.array_equal(a.key, b.key) and np.array_equal(a.value, b.value)

    def test_near_slots_always_newest(self):
        for seed in range(10):
            decision = sample_routing(routable_set(15), rng_seed=seed)
            cache = build_branch_cache(self.res.history, 15, decision)
            assert [e.frame_index for e in cache.local[-3:]] == [13, 14, 15]

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ContractError):
            build_branch_cache(self.res.history, 12,
                               RoutingDecision((3, 5, 6, 7, 8, 9)))

    def test_repeated_index_rejected(self):
        with pytest.raises(ContractError):
            build_branch_cache(self.res.history, 12,
                               RoutingDecision((4, 4, 5, 6, 7, 8)))

    def test_missing_history_frame_rejected(self):
        with pytest.raises(ContractError):
            build_branch_cache(self.res.history, 99,
                               RoutingDecision((4, 5, 6, 7, 8, 9)))


class TestRolloutGroup:
    def test_replay_tuple_counts(self):
        # Window of 5 blocks at 4 steps each: 20 tuples per trajectory.
        _, group = make_group(num_blocks=9, pivot=5, window=5, branches=2)
        for traj in group.all_trajectories():
            assert len(traj.replay) == 20

    def test_identical_seeds_identical_trajectories(self):
        _, g1 = make_group(seed=4)
        _, g2 = make_group(seed=4)
        for t1, t2 in zip(g1.all_trajectories(), g2.all_trajectories()):
            for b1, b2 in zip(t1.blocks, t2.blocks):
                assert np.array_equal(b1.matrix(), b2.matrix())

    def test_anchor_equals_plain_rollout(self):
        params, group = make_group(seed=5)
        plain = rollout(params, PROMPT, 8, noise_seed=105)
        for b1, b2 in zip(group.anchor.blocks, plain.blocks):
            assert np.array_equal(b1.matrix(), b2.matrix())

    def test_branches_share_block_noise(self):
        # every trajectory's pivot block starts from the same x_T
        _, group = make_group(seed=16, pivot=6, window=2)
        starts = [t.replay[0].z for t in group.all_trajectories()]
        for z in starts[1:]:
            assert np.array_equal(z, starts[0])

    def test_shared_prefix_bitwise(self):
        _, group = make_group(seed=6, pivot=6)
        anchor_prefix = [b.matrix() for b in group.anchor.blocks[:5]]
        for branch in group.branches:
            for mine, theirs in zip([b.matrix() for b in branch.blocks[:5]],
                                    anchor_prefix):
                assert np.array_equal(mine, theirs)

    def test_identity_routing_reproduces_anchor_bitwise(self):
        L = 15  # pivot 6 under 3-frame blocks
        identity = tuple(range(L - 8, L - 2))
        _, group = make_group(seed=7, pivot=6, window=3, branches=2,
                              routing_overrides={1: identity})
        routed = group.branches[0]
        assert routed.routing.indices == identity
        for b1, b2 in zip(routed.blocks, group.anchor.blocks):
            assert np.array_equal(b1.matrix(), b2.matrix())
        other = group.branches[1]
        assert any(not np.array_equal(b1.matrix(), b2.matrix())
                   for b1, b2 in zip(other.blocks, group.anchor.blocks))

    def test_distinct_routings_diverge_in_window(self):
        _, group = make_group(seed=8, pivot=6, window=3, branches=4)
        pivot, window = group.pivot_block, group.window
        mats = [np.vstack([b.matrix() for b in t.window_blocks(pivot, window)])
                for t in group.branches]
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if group.branches[i].routing.indices != group.branches[j].routing.indices:
                    assert not np.array_equal(mats[i], mats[j])

    def test_window_end_reverts_to_default_layout(self):
        _, group = make_group(seed=9, pivot=5, window=2, branches=2, num_blocks=8)
        # after the window the branch continues from its own most-recent frames;
        # replaying the *post-window* context is the default rebuild, which the
        # replay contexts below cover; here just check trajectory lengths.
        for t in group.all_trajectories():
            assert len(t.blocks) == 8
            assert len(t.history) == 24

    def test_precondition_window_fits(self):
        with pytest.raises(ConfigError):
            make_group(pivot=7, window=3, num_blocks=8)

    def test_precondition_enough_history(self):
        with pytest.raises(InsufficientHistoryError):
            make_group(pivot=4, window=1)  # only 9 frames before the pivot

    def test_per_block_resampling_differs_from_fixed(self):
        _, fixed = make_group(seed=10, pivot=6, window=3)
        _, per_block = make_group(seed=10, pivot=6, window=3,
                                  routing_per_block=True)
        same = all(np.array_equal(a.matrix(), b.matrix())
                   for t1, t2 in zip(fixed.branches, per_block.branches)
                   for a, b in zip(t1.blocks, t2.blocks))
        assert not same

    def test_local_kv_choice_respected(self):
        _, group = make_group(seed=11, pivot=6, window=2,
                              local_kv_choices=((6, 3),))
        for branch in group.branches:
            assert branch.routing.local_size == 6
            assert len(branch.routing.indices) == 3

    def test_random_local_kv_choices_deterministic(self):
        kw = dict(seed=12, pivot=7, window=2, num_blocks=9,
                  local_kv_choices=((6, 3), (9, 6), (12, 9)))
        _, g1 = make_group(**kw)
        _, g2 = make_group(**kw)
        sizes1 = [b.routing.local_size for b in g1.branches]
        sizes2 = [b.routing.local_size for b in g2.branches]
        assert sizes1 == sizes2
        assert set(sizes1) <= {6, 9, 12}

    def test_infeasible_choices_filtered(self):
        # At pivot 6 (15 frames) a 12-slot window is feasible; at pivot 5 (12
        # frames) it is not and must never be picked.
        _, group = make_group(seed=13, pivot=5, window=1, num_blocks=8,
                              local_kv_choices=((12, 9), (9, 6)))
        assert all(b.routing.local_size == 9 for b in group.branches)


class TestReplayContexts:
    def test_anchor_replay_energy_is_exactly_zero(self, check_instance):
        energy = replay_energy(check_instance.params, check_instance.group.anchor,
                               check_instance.contexts)
        assert float(energy) == 0.0

    def test_anchor_replay_velocities_equal_cached_targets_bitwise(self, check_instance):
        anchor = check_instance.group.anchor
        velocities = replay_velocities(check_instance.params, anchor,
                                       check_instance.contexts)
        assert len(velocities) == len(anchor.replay)
        for v, tup in zip(velocities, anchor.replay):
            assert np.array_equal(v, tup.u_hat)

    def test_branch_replay_velocities_differ_from_targets(self, check_instance):
        branch = check_instance.group.branches[0]
        velocities = replay_velocities(check_instance.params, branch,
                                       check_instance.contexts)
        assert any(not np.array_equal(v, tup.u_hat)
                   for v, tup in zip(velocities, branch.replay))

    def test_branch_energies_positive(self, check_instance):
        for branch in check_instance.group.branches:
            assert float(replay_energy(check_instance.params, branch,
                                       check_instance.contexts)) > 0.0

    def test_replay_deterministic(self, check_instance):
        b = check_instance.group.branches[0]
        e1 = replay_energy(check_instance.params, b, check_instance.contexts)
        e2 = replay_energy(check_instance.params, b, check_instance.contexts)
        assert float(e1) == float(e2)

    def test_replay_eval_count(self, check_instance):
        group = check_instance.group
        for branch in group.branches:
            assert len(branch.replay) == group.window * 4

    def test_anchor_source_shares_contexts(self):
        _, group = make_group(seed=14, pivot=6, window=2)
        anchor_ctx = build_replay_contexts(group, source="anchor")
        own_ctx = build_replay_contexts(group, source="branch")
        b = group.branches[0].branch_id
        first_block = group.pivot_block
        shared_keys, shared_values = anchor_ctx.for_block(b, first_block)
        own_keys, own_values = own_ctx.for_block(b, first_block)
        # At the first window block both sources coincide (prefix is shared).
        assert np.array_equal(shared_keys, own_keys)
        assert np.array_equal(shared_values, own_values)
        later = group.pivot_block + 1
        anchor_keys, _ = anchor_ctx.for_block(b, later)
        own_keys, _ = own_ctx.for_block(b, later)
        # Same slots, but the branch's own frames differ from the anchor's.
        assert anchor_keys.shape == own_keys.shape
        assert not np.array_equal(anchor_keys, own_keys)

    def test_bad_source_rejected(self):
        _, group = make_group(seed=15)
        with pytest.raises(ConfigError):
            build_replay_contexts(group, source="other")
