"""Surrogate-policy math: energies, Gibbs softmax, log ratios, advantages,
clipped PPO, KL penalty, guard, and the closed-form gradient reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kvgrpo.autodiff as ad
from kvgrpo.autodiff import fd_grad, grad
from kvgrpo.cache import KVCache, KVEntry
from kvgrpo.checks import rel_l2
from kvgrpo.errors import ContractError
from kvgrpo.flow import ReplayTuple
from kvgrpo.network import NetworkShape, param_init
from kvgrpo.params import Params
from kvgrpo.policy import (ADV_EPS, PolicyConfig, advantages,
                           contrastive_grad_reference, gibbs, guard,
                           kl_penalty, latent_l2_energies, log_ratio,
                           replay_energy, ppo_loss, total_loss,
                           total_loss_grad)
from kvgrpo.routing import BranchTrajectory, ReplayContexts, build_replay_contexts

finite_energies = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2, max_size=12)


class TestReplayEnergy:
    def test_zero_residual_gives_zero(self, check_instance):
        assert float(replay_energy(check_instance.params,
                                   check_instance.group.anchor,
                                   check_instance.contexts)) == 0.0

    def test_single_tuple_hand_case(self, tiny_params):
        # One frame, d=3, residual (1,0,0): energy = 1/d = 1/3.  Build a fake
        # branch whose cached velocity differs from the replayed one by exactly
        # that residual.
        from kvgrpo.network import velocity_forward
        z = np.zeros((1, 3))
        cache = KVCache()
        cache.sink = [KVEntry(np.ones(5), np.ones(5), 1)]
        keys, values = cache.stacked()
        prompt = np.array([0.3, -0.2])
        v = np.asarray(velocity_forward(tiny_params, z, 0.25, keys, values, prompt))
        u_hat = v - np.array([[1.0, 0.0, 0.0]])
        branch = BranchTrajectory([], None, [ReplayTuple(z, u_hat, 5, 1, 0.25)],
                                  branch_id=1, history=None)
        contexts = ReplayContexts([5], {1: [(keys, values)]}, prompt)
        energy = replay_energy(tiny_params, branch, contexts)
        assert float(energy) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_double_loop_oracle(self, check_instance):
        inst = check_instance
        branch = inst.group.branches[2]
        energy = float(replay_energy(inst.params, branch, inst.contexts))
        # direct two-level summation using only public pieces
        from kvgrpo.network import velocity_forward
        total = 0.0
        d = 3
        for tup in branch.replay:
            keys, values = inst.contexts.for_block(branch.branch_id, tup.block)
            v = np.asarray(velocity_forward(inst.params, tup.z, tup.t, keys,
                                            values, inst.contexts.prompt))
            for frame in range(v.shape[0]):
                for dim in range(d):
                    total += (v[frame, dim] - tup.u_hat[frame, dim]) ** 2 / d
        assert abs(energy - total) < 1e-12 * max(1.0, abs(total))

    def test_grad_steps_do_not_change_value_when_all_included(self, check_instance):
        inst = check_instance
        b = inst.group.branches[0]
        full = float(replay_energy(inst.params, b, inst.contexts, None))
        restricted_grad = replay_energy(inst.params, b, inst.contexts, 2, True)
        assert float(restricted_grad) == pytest.approx(full, rel=1e-15)

    def test_value_restriction_drops_late_steps(self, check_instance):
        inst = check_instance
        b = inst.group.branches[0]
        only_early = float(replay_energy(inst.params, b, inst.contexts, 2, False))
        full = float(replay_energy(inst.params, b, inst.contexts, None))
        assert only_early < full

    def test_restricted_gradient_equals_restricted_value_gradient(self, check_instance):
        # Constants added by include_all_steps must not change the gradient.
        inst = check_instance
        b = inst.group.branches[1]
        _, g_all = grad(inst.params,
                        lambda r: replay_energy(r, b, inst.contexts, 2, True))
        _, g_restr = grad(inst.params,
                          lambda r: replay_energy(r, b, inst.contexts, 2, False))
        np.testing.assert_array_equal(g_all.values, g_restr.values)

    @pytest.mark.parametrize("grad_steps", [2, None])
    @pytest.mark.parametrize("include_all_steps", [True, False])
    def test_taped_energies_equal_value_only_bitwise(self, check_instance,
                                                     grad_steps, include_all_steps):
        # The trainer takes the old policy from the first taped pass, so its
        # energies must be the value-only ones bit for bit.
        from kvgrpo.policy import surrogate_energies
        inst = check_instance
        pcfg = PolicyConfig(grad_steps=grad_steps, include_all_steps=include_all_steps)
        plain = [float(e) for e in surrogate_energies(inst.params, inst.group,
                                                      inst.contexts, pcfg)]
        reader = ad.TapeReader(ad.Tape(), inst.params)
        taped = surrogate_energies(reader, inst.group, inst.contexts, pcfg)
        assert all(isinstance(e, ad.Var) for e in taped)
        assert [float(ad.value(e)) for e in taped] == plain

    def test_dimension_mismatch_rejected(self, check_instance):
        inst = check_instance
        bad = BranchTrajectory([], None,
                               [ReplayTuple(np.zeros((1, 7)), np.zeros((1, 7)),
                                            inst.contexts.window_blocks[0], 1, 0.0)],
                               branch_id=1, history=None)
        with pytest.raises(ContractError):
            replay_energy(inst.params, bad, inst.contexts)


class TestGibbs:
    def test_equal_energies_uniform(self):
        ev = gibbs(np.zeros(8), tau=1.0)
        np.testing.assert_allclose(ev.probs, np.full(8, 0.125), atol=1e-15)

    def test_analytic_two_branch(self):
        tau = 1.7
        ev = gibbs(np.array([0.0, tau * np.log(2.0)]), tau=tau)
        np.testing.assert_allclose(ev.probs, [2 / 3, 1 / 3], atol=1e-12)

    def test_overflow_safety(self):
        ev = gibbs(np.array([1e6, 1e6 + 1.0]), tau=1.0)
        np.testing.assert_allclose(ev.probs, [0.7310585786300049, 0.2689414213699951],
                                   atol=1e-12)
        assert np.all(np.isfinite(ev.log_probs))

    def test_nonpositive_tau_rejected(self):
        with pytest.raises(ValueError):
            gibbs(np.zeros(4), tau=0.0)

    @given(finite_energies)
    @settings(max_examples=200, deadline=None)
    def test_normalization_and_monotonicity(self, energies):
        ev = gibbs(np.array(energies), tau=1.0)
        assert abs(ev.probs.sum() - 1.0) < 1e-12
        order = np.argsort(ev.energies)
        log_probs = ev.log_probs[order]
        sorted_e = ev.energies[order]
        for i, gap in enumerate(np.diff(sorted_e)):
            # strict ordering whenever the gap is resolvable in the logits
            if gap > 1e-12 * max(1.0, abs(sorted_e[i]), abs(sorted_e[i + 1])):
                assert log_probs[i] > log_probs[i + 1]

    @given(finite_energies, st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, energies, shift):
        base = gibbs(np.array(energies), tau=1.0)
        shifted = gibbs(np.array(energies) + shift, tau=1.0)
        np.testing.assert_allclose(base.probs, shifted.probs, atol=1e-12)


class TestLogRatio:
    def test_identical_evals_zero(self):
        ev = gibbs(np.array([1.0, 2.0, 3.0]), 1.0)
        np.testing.assert_array_equal(log_ratio(ev, ev), np.zeros(3))

    def test_constant_logit_shift_invariant(self):
        rng = np.random.default_rng(0)
        energies = rng.normal(size=8)
        old = gibbs(energies + 0.3, 1.0)
        new1 = gibbs(energies, 1.0)
        new2 = gibbs(energies + 5.0, 1.0)  # adds a constant to all logits
        np.testing.assert_allclose(log_ratio(new1, old), log_ratio(new2, old),
                                   atol=1e-12)

    def test_matches_probability_ratio_oracle(self):
        rng = np.random.default_rng(1)
        new = gibbs(rng.normal(size=8), 1.0)
        old = gibbs(rng.normal(size=8), 1.0)
        expected = new.probs / old.probs
        np.testing.assert_allclose(np.exp(log_ratio(new, old)), expected, rtol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ContractError):
            log_ratio(gibbs(np.zeros(3), 1.0), gibbs(np.zeros(4), 1.0))


class TestAdvantages:
    def test_all_equal_rewards_zero(self):
        adv = advantages(np.full(8, 3.25))
        np.testing.assert_array_equal(adv.values, np.zeros(8))

    def test_two_point_case(self):
        adv = advantages(np.array([1.0, -1.0]))
        np.testing.assert_allclose(adv.values, [1.0, -1.0], atol=1e-7)

    def test_hand_case_ten_zero(self):
        adv = advantages(np.array([10.0, 0.0, 0.0, 0.0]), clip_max=2.5)
        # mean 2.5, population std sqrt(18.75); raw A = (7.5, -2.5, ...)/std
        std = np.sqrt(18.75)
        expected = np.array([7.5, -2.5, -2.5, -2.5]) / (std + ADV_EPS)
        assert expected[0] == pytest.approx(np.sqrt(3), rel=1e-8)
        np.testing.assert_allclose(adv.values, expected, atol=1e-12)

    def test_clipping_bounds(self):
        adv = advantages(np.array([100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                         clip_max=2.5)
        assert np.max(np.abs(adv.values)) <= 2.5

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                    min_size=2, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_normalization_identity(self, rewards):
        r = np.array(rewards)
        adv = advantages(r, clip_max=np.inf)
        std = float(np.sqrt(np.mean((r - r.mean()) ** 2)))
        if np.all(r == r[0]):
            np.testing.assert_array_equal(adv.values, np.zeros(r.size))
        elif std > 0.0:
            # exact identity: std(A) = std / (std + eps)
            got = float(np.sqrt(np.mean((adv.values - adv.values.mean()) ** 2)))
            assert got == pytest.approx(std / (std + ADV_EPS), rel=1e-9)
            assert abs(adv.values.mean()) < 1e-9
        # an underflowing-but-nonzero spread exercises neither contract


class TestPpoLoss:
    def test_unit_ratios_give_negative_mean_advantage(self):
        adv = advantages(np.array([3.0, 1.0, -1.0, -3.0]))
        loss = ppo_loss(np.zeros(4), adv)
        assert loss == pytest.approx(-adv.values.mean(), abs=1e-12)

    def test_high_side_clip(self):
        adv = advantages(np.array([1.0, -1.0]))
        adv.values[:] = [1.0, 0.0]
        loss = ppo_loss(np.log(np.array([1.5, 1.0])), adv, eps_low=0.1, eps_high=0.2)
        # branch 1 term min(1.5, 1.2)*1 = 1.2; branch 2 term 0
        assert loss == pytest.approx(-1.2 / 2, abs=1e-12)

    def test_low_side_clip(self):
        adv = advantages(np.array([1.0, -1.0]))
        adv.values[:] = [0.0, -1.0]
        loss = ppo_loss(np.log(np.array([1.0, 0.5])), adv, eps_low=0.1, eps_high=0.2)
        # branch 2 term min(-0.5, -0.9) = -0.9
        assert loss == pytest.approx(0.9 / 2, abs=1e-12)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            ppo_loss(np.zeros(2), advantages(np.array([1.0, -1.0])), eps_low=0.0)

    def test_trust_region_flat_regions(self):
        # For A > 0 the term is constant beyond 1 + eps_high; for A < 0,
        # constant below 1 - eps_low.  Checked by finite differences on log rho.
        h = 1e-6
        for a, log_rho in ((1.7, np.log(1.35)), (-0.8, np.log(0.8))):
            def term(lr):
                rho = np.exp(lr)
                return min(rho * a, np.clip(rho, 0.9, 1.2) * a)
            deriv = (term(log_rho + h) - term(log_rho - h)) / (2 * h)
            assert abs(deriv) < 1e-12
        # interior point: derivative equals rho * A
        lr0 = np.log(1.05)
        a = 1.7
        deriv = ((min(np.exp(lr0 + h) * a, np.clip(np.exp(lr0 + h), 0.9, 1.2) * a)
                  - min(np.exp(lr0 - h) * a, np.clip(np.exp(lr0 - h), 0.9, 1.2) * a))
                 / (2 * h))
        assert deriv == pytest.approx(np.exp(lr0) * a, rel=1e-6)


class TestKlPenalty:
    def test_identical_policies_zero(self):
        ev = gibbs(np.array([0.3, -0.2, 1.0, 0.5]), 1.0)
        assert kl_penalty(ev, ev) == 0.0

    def test_near_deterministic_vs_uniform_approaches_log_g(self):
        energies = np.array([0.0] + [60.0] * 7)
        cur = gibbs(energies, 1.0)
        ref = gibbs(np.zeros(8), 1.0)
        assert kl_penalty(cur, ref) == pytest.approx(np.log(8), abs=1e-6)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cur = gibbs(rng.normal(size=8), 1.0)
            ref = gibbs(rng.normal(size=8), 1.0)
            expected = sum(cur.probs[i] * (np.log(cur.probs[i]) - np.log(ref.probs[i]))
                           for i in range(8))
            assert kl_penalty(cur, ref) == pytest.approx(expected, abs=1e-12)

    @given(finite_energies)
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, energies):
        rng = np.random.default_rng(abs(hash(tuple(energies))) % 2**31)
        cur = gibbs(np.array(energies), 1.0)
        ref = gibbs(rng.normal(size=len(energies)), 1.0)
        assert kl_penalty(cur, ref) >= 0.0

    def test_zero_reference_probability_rejected(self):
        cur = gibbs(np.array([0.0, 1.0]), 1.0)
        ref = gibbs(np.array([0.0, 1.0]), 1.0)
        ref.log_probs = np.array([0.0, -np.inf])
        with pytest.raises(ValueError):
            kl_penalty(cur, ref)


class TestGuard:
    def test_all_below_anchor_skips(self):
        assert guard(np.array([0.1, 0.2, 0.3]), anchor_reward=0.5) is True

    def test_one_above_anchor_proceeds(self):
        assert guard(np.array([0.1, 0.9, 0.3]), anchor_reward=0.5) is False

    def test_exact_tie_skips(self):
        assert guard(np.array([0.1, 0.5]), anchor_reward=0.5) is True


class TestLatentL2:
    def test_identical_branch_zero(self, check_instance):
        energies = latent_l2_energies(check_instance.group)
        # no branch equals the anchor here, but the anchor against itself:
        group = check_instance.group
        anchor_copy = group.branches[0]
        saved = anchor_copy.blocks
        anchor_copy.blocks = group.anchor.blocks
        try:
            energies = latent_l2_energies(group)
            assert energies[0] == 0.0
        finally:
            anchor_copy.blocks = saved

    def test_hand_case(self):
        class Blocky:
            def __init__(self, m):
                self._m = m
                self.block_index = 5
            def matrix(self):
                return self._m

        class Traj:
            def __init__(self, m, branch_id):
                self.blocks = [Blocky(m)]
                self.branch_id = branch_id
            def window_blocks(self, pivot, window):
                return self.blocks

        class Group:
            pivot_block, window = 5, 1
            anchor = Traj(np.zeros((1, 2)), 0)
            branches = [Traj(np.array([[3.0, 4.0]]), 1)]

        energies = latent_l2_energies(Group(), sigma=1.0)
        assert energies[0] == pytest.approx(12.5)

    def test_matches_norm_oracle(self, check_instance):
        group = check_instance.group
        energies = latent_l2_energies(group, sigma=0.7)
        pivot, window = group.pivot_block, group.window
        anchor = np.vstack([b.matrix() for b in group.anchor.window_blocks(pivot, window)])
        for e, br in zip(energies, group.branches):
            mine = np.vstack([b.matrix() for b in br.window_blocks(pivot, window)])
            assert e == pytest.approx(np.linalg.norm(mine - anchor) ** 2 / (2 * 0.49),
                                      rel=1e-12)


class TestTotalLoss:
    def _evals(self, inst, pcfg):
        from kvgrpo.policy import surrogate_energies
        energies = np.array([float(e) for e in surrogate_energies(
            inst.params, inst.group, inst.contexts, pcfg)])
        # reference from per-branch perturbed energies (a constant shift would
        # leave the distribution unchanged and make the KL term degenerate)
        jitter = np.random.default_rng(99).normal(scale=0.3, size=energies.size)
        return gibbs(energies, pcfg.tau), gibbs(energies + jitter, pcfg.tau)

    def test_beta_zero_equals_ppo(self, check_instance):
        pcfg = PolicyConfig(beta=0.0)
        eval_old, eval_ref = self._evals(check_instance, pcfg)
        breakdown = total_loss(check_instance.params, check_instance.group,
                               check_instance.contexts, eval_old, eval_ref, pcfg)
        assert breakdown.total == pytest.approx(breakdown.ppo, abs=1e-15)

    def test_total_is_ppo_plus_beta_kl(self, check_instance):
        pcfg = PolicyConfig(beta=5.0)
        eval_old, eval_ref = self._evals(check_instance, pcfg)
        breakdown = total_loss(check_instance.params, check_instance.group,
                               check_instance.contexts, eval_old, eval_ref, pcfg)
        assert breakdown.total == pytest.approx(
            breakdown.ppo + 5.0 * breakdown.kl, rel=1e-12)
        assert breakdown.kl >= 0.0

    def test_ratios_are_one_against_matching_old(self, check_instance):
        pcfg = PolicyConfig()
        eval_old, eval_ref = self._evals(check_instance, pcfg)
        breakdown = total_loss(check_instance.params, check_instance.group,
                               check_instance.contexts, eval_old, eval_ref, pcfg)
        np.testing.assert_allclose(breakdown.per_branch_ratio, np.ones(8), atol=1e-12)

    @pytest.mark.parametrize("part,beta", [("total", 5.0), ("ppo", 0.0),
                                           ("kl", 5.0)])
    def test_each_loss_term_grad_matches_fd(self, check_instance, part, beta):
        inst = check_instance
        pcfg = PolicyConfig(grad_steps=None, beta=beta)
        eval_old, eval_ref = self._evals(inst, pcfg)
        from kvgrpo.policy import _build_loss
        adv = advantages(inst.group.branch_rewards(), pcfg.adv_clip_max)

        def f(reader):
            total, ppo, kl, *_ = _build_loss(reader, inst.group, inst.contexts,
                                             eval_old, eval_ref, adv, pcfg)
            return {"total": total, "ppo": ppo, "kl": kl}[part]

        _, g = grad(inst.params, f)
        fd = fd_grad(inst.params, f, 1e-5)
        assert rel_l2(g.values, fd.values) < 1e-4

    def test_guard_sets_skipped_flag(self, check_instance):
        inst = check_instance
        pcfg = PolicyConfig()
        eval_old, eval_ref = self._evals(inst, pcfg)
        saved = [b.reward for b in inst.group.branches] + [inst.group.anchor.reward]
        try:
            inst.group.anchor.reward = 10.0
            for b in inst.group.branches:
                b.reward = -10.0
            breakdown = total_loss(inst.params, inst.group, inst.contexts,
                                   eval_old, eval_ref, pcfg)
            assert breakdown.skipped is True
        finally:
            for b, r in zip(inst.group.branches, saved):
                b.reward = r
            inst.group.anchor.reward = saved[-1]

    def test_l2_surrogate_has_zero_gradient(self, check_instance):
        inst = check_instance
        pcfg = PolicyConfig(surrogate="latent_l2")
        from kvgrpo.policy import surrogate_energies
        energies = np.array(surrogate_energies(inst.params, inst.group,
                                               inst.contexts, pcfg))
        eval_old = gibbs(energies, pcfg.tau)
        eval_ref = gibbs(energies, pcfg.tau)
        breakdown, _, g, used_old = total_loss_grad(inst.params, inst.group,
                                                    inst.contexts, eval_old,
                                                    eval_ref, pcfg)
        assert used_old is eval_old
        np.testing.assert_array_equal(g.values, np.zeros_like(g.values))
        np.testing.assert_allclose(breakdown.per_branch_ratio, np.ones(8), atol=1e-15)


class TestContrastiveReference:
    def test_equal_advantages_give_zero(self, check_instance):
        inst = check_instance
        energies = np.array([float(replay_energy(inst.params, b, inst.contexts,
                                                 2, True))
                             for b in inst.group.branches])
        ev = gibbs(energies, 1.0)
        adv = advantages(np.ones(8), clip_max=np.inf)  # all equal -> all zero
        ref = contrastive_grad_reference(inst.params, inst.group, inst.contexts,
                                         ev, adv, tau=1.0)
        np.testing.assert_array_equal(ref.values, np.zeros_like(ref.values))

    def test_two_branch_symmetric_case(self, check_instance):
        # pi = (1/2, 1/2), A = (1, -1): reference reduces to
        # -(1/(2 tau)) (grad E_1 - grad E_2).
        inst = check_instance
        sub = type(inst.group)(inst.group.anchor, inst.group.branches[:2],
                               inst.group.pivot_block, inst.group.window,
                               inst.group.seeds, inst.group.prompt,
                               inst.group.gen_cfg)
        ev = gibbs(np.array([4.0, 4.0]), 2.0)
        adv = advantages(np.array([1.0, -1.0]), clip_max=np.inf)
        got = contrastive_grad_reference(inst.params, sub, inst.contexts, ev,
                                         adv, tau=2.0)
        pcfg = PolicyConfig()
        grads = []
        for b in sub.branches:
            _, g = grad(inst.params, lambda r, br=b: replay_energy(
                r, br, inst.contexts, pcfg.grad_steps, pcfg.include_all_steps))
            grads.append(g.values)
        expected = -(grads[0] - grads[1]) / (2 * 2.0)
        np.testing.assert_allclose(got.values, expected, atol=1e-15)

    def test_matches_autodiff_of_unclipped_surrogate(self, check_instance):
        from kvgrpo.checks import check_pg_identity
        rng = np.random.default_rng(5)
        for tau in (0.5, 1.0, 2.0):
            err = check_pg_identity(check_instance, tau, rng.normal(size=8),
                                    PolicyConfig(grad_steps=2))
            assert err < 1e-6
