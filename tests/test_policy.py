"""Surrogate-policy math: energies, Gibbs softmax, log ratios, advantages,
clipped PPO, KL penalty, guard, and the closed-form gradient reference."""

import dataclasses
import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import kvgrpo.autodiff as ad
from kvgrpo import network, policy
from kvgrpo.autodiff import fd_grad, grad
from kvgrpo.checks import rel_l2
from kvgrpo.errors import ContractError, NumericalError
from kvgrpo.flow import GeneratorConfig
from kvgrpo.network import NetworkShape, param_init
from kvgrpo.params import Params
from kvgrpo.policy import (ADV_EPS, LossBreakdown, PolicyConfig, PolicyEval,
                           _build_loss, advantages, contrastive_grad_reference,
                           gibbs, guard, latent_l2_energies, pg_surrogate_value,
                           ppo_kl_loss, replay_energies, surrogate_energies,
                           total_loss_grad)
from kvgrpo.routing import (GroupSeeds, RolloutGroup, build_replay_contexts, plan_rollout,
                            rollout_group)
import reference_ops as ops
from test_routing import memory, roll

finite_energies = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=2, max_size=12)


def ratios(eval_new, eval_old):
    """Importance ratios of the trained loss, new policy against old."""
    n = eval_new.log_probs.size
    *_, rho = ppo_kl_loss(eval_new.log_probs, eval_old.log_probs, np.zeros(n),
                          np.zeros(n), PolicyConfig())
    return rho


def ppo_part(log_ratios, adv_values, eps_low=0.1, eps_high=0.2):
    """The trained loss's clipped PPO term for the given log ratios."""
    n = np.size(log_ratios)
    _, ppo, _, _ = ppo_kl_loss(np.asarray(log_ratios, dtype=np.float64), np.zeros(n),
                               np.zeros(n), adv_values,
                               PolicyConfig(eps_low=eps_low, eps_high=eps_high))
    return float(ppo)


def reported_kl(eval_cur, eval_ref):
    """KL(cur || ref) as the trainer reports it (clamped at zero)."""
    n = eval_cur.log_probs.size
    terms = ppo_kl_loss(eval_cur.log_probs, eval_cur.log_probs, eval_ref.log_probs,
                        np.zeros(n), PolicyConfig())
    return LossBreakdown.of(*terms).kl


def energy(reader, group, row, grad_steps=None, include_all_steps=True):
    """One row's replay energy: a number, or a tape node."""
    return ad.asum(replay_energies(reader, group, [row],
                                   PolicyConfig(grad_steps=grad_steps,
                                                include_all_steps=include_all_steps)))


def branch_rows(group):
    return range(1, len(group.frames))


def reference_energy(reader, group, row, grad_steps=None, include_all_steps=True):
    """The per-step loop the batched replay replaced, kept as its oracle: one
    network call and five tape ops per cached solver step, summed in order.
    (It squared with a tape op of its own; a product with a shared operand
    gets the same adjoint, (g * diff) + (g * diff) = (2 * g) * diff, exactly.)"""
    d = reader.layout.segments["head2_w"][1][1]
    (zs, u_hats), (ts, steps, window) = group.replay, ops.replay_schedule(group)
    total = 0.0
    for z, u_hat, t, step, j in zip(zs[row], u_hats[row], ts, steps, window):
        carrying = grad_steps is None or step <= grad_steps
        if not carrying and not include_all_steps:
            continue
        keys, values = memory(group, row, group.pivot_block + j)
        r = reader if carrying or not isinstance(reader, ad.TapeReader) else reader.params
        v = ops.velocity(r, z, t, keys, values, group.prompt)
        diff = ops.sub(v, u_hat)
        term = ops.mul(ops.asum(ops.mul(diff, diff)), 1.0 / d)
        total = ops.add(total, ad.value(term) if not carrying else term)
    return total


def reference_loss_grad(params, group, eval_ref, pcfg):
    """The trained loss on the per-step oracle's energies, packed branch by
    branch, with the old policy taken from its own values, all on the
    reference ops."""
    adv = advantages(group.rewards[1:], pcfg.adv_clip_max)
    old = gibbs(np.array([float(reference_energy(params, group, g, pcfg.grad_steps,
                                                 pcfg.include_all_steps))
                          for g in branch_rows(group)]), pcfg.tau)

    def f(reader):
        energies = [reference_energy(reader, group, g, pcfg.grad_steps,
                                     pcfg.include_all_steps) for g in branch_rows(group)]
        log_probs = ops.log_policy(ops.pack(energies), pcfg.tau)
        return ops.ppo_kl_loss(log_probs, old.log_probs, eval_ref.log_probs, adv, pcfg)[0]

    return grad(params, f)


class TestReplayEnergy:
    @pytest.mark.parametrize("num_steps", [3, 4, 5])
    def test_zero_residual_gives_zero(self, check_instance, num_steps):
        # The anchor replays to exactly zero only if the replay's times are the
        # solver's; at 3 and 5 steps dt rounds, so a schedule that drifts from
        # the solver's accumulated times by an ulp shows here.
        inst, cfg = check_instance, GeneratorConfig(num_steps=num_steps)
        plan = plan_rollout(6, 6, 1, 8, GroupSeeds(noise=78, routing=79), cfg, 3)
        group = rollout_group(inst.params, inst.group.prompt, cfg, 6, 1, plan)
        group.contexts = build_replay_contexts(group)
        assert replay_energies(inst.params, group, [0]).tolist() == [0.0]
        if num_steps == 4:  # the shared instance is this group
            assert group.replay[0].tobytes() == inst.group.replay[0].tobytes()
            assert replay_energies(inst.params, inst.group, [0]).tolist() == [0.0]

    def test_single_tuple_hand_case(self, tiny_params):
        # One frame, d=3, residual (1,0,0): energy = 1/d = 1/3.  Build a fake
        # one-row group replay whose cached velocity differs from the replayed
        # one by exactly that residual.
        z, cfg = np.zeros((1, 3)), GeneratorConfig(frames_per_block=1, num_steps=1)
        keys, values = np.ones((1, 5)), np.ones((1, 5))  # a one-frame memory
        prompt = np.array([0.3, -0.2])
        v = np.asarray(ops.velocity(tiny_params, z, 0.0, keys, values, prompt))
        u_hat = v - np.array([[1.0, 0.0, 0.0]])
        contexts = ((keys[None], values[None]),)
        group = RolloutGroup(pivot_block=5, window=1, prompt=prompt, gen_cfg=cfg, frames=None,
                             history=None, replay=(z[None, None], u_hat[None, None]),
                             routings=(None,), contexts=contexts)
        energies = replay_energies(tiny_params, group, [0])
        assert energies.shape == (1,)
        assert energies[0] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_matches_double_loop_oracle(self, check_instance):
        inst = check_instance
        (zs, u_hats), row = inst.group.replay, 3
        ts, _, window = ops.replay_schedule(inst.group)
        got = float(energy(inst.params, inst.group, row))
        # direct two-level summation using only public pieces
        total = 0.0
        d = 3
        for z, u_hat, t, j in zip(zs[row], u_hats[row], ts, window):
            keys, values = memory(inst.group, row, inst.group.pivot_block + j)
            v = np.asarray(ops.velocity(inst.params, z, t, keys, values, inst.group.prompt))
            for frame in range(v.shape[0]):
                for dim in range(d):
                    total += (v[frame, dim] - u_hat[frame, dim]) ** 2 / d
        assert abs(got - total) < 1e-12 * max(1.0, abs(total))

    def test_grad_steps_do_not_change_value_when_all_included(self, check_instance):
        inst = check_instance
        g = inst.group
        full = float(energy(inst.params, g, 1, None))
        restricted_grad = energy(inst.params, g, 1, 2, True)
        assert float(restricted_grad) == pytest.approx(full, rel=1e-15)

    def test_value_restriction_drops_late_steps(self, check_instance):
        inst = check_instance
        g = inst.group
        only_early = float(energy(inst.params, g, 1, 2, False))
        full = float(energy(inst.params, g, 1, None))
        assert only_early < full

    def test_restricted_gradient_equals_restricted_value_gradient(self, check_instance):
        # Constants added by include_all_steps must not change the gradient.
        inst = check_instance
        g = inst.group
        _, g_all = grad(inst.params, lambda r: energy(r, g, 2, 2, True))
        _, g_restr = grad(inst.params, lambda r: energy(r, g, 2, 2, False))
        np.testing.assert_array_equal(g_all, g_restr)

    @pytest.mark.parametrize("grad_steps", [2, None])
    @pytest.mark.parametrize("include_all_steps", [True, False])
    def test_taped_energies_equal_value_only_bitwise(self, check_instance,
                                                     grad_steps, include_all_steps):
        # The trainer takes the old policy from the first taped pass, so its
        # energies must be the value-only ones bit for bit.
        inst = check_instance
        pcfg = PolicyConfig(grad_steps=grad_steps, include_all_steps=include_all_steps)
        plain = surrogate_energies(inst.params, inst.group, pcfg)
        reader = ad.TapeReader(ad.Tape(), inst.params)
        taped = surrogate_energies(reader, inst.group, pcfg)
        assert isinstance(taped, ad.Var)
        assert taped.value.tobytes() == plain.tobytes()

    @pytest.mark.parametrize("taped", [False, True], ids=["value", "taped"])
    def test_group_without_contexts_rejected(self, check_instance, taped):
        inst = check_instance
        group = dataclasses.replace(inst.group, contexts=None)
        reader = ad.TapeReader(ad.Tape(), inst.params) if taped else inst.params
        with pytest.raises(ContractError, match="the group has no replay contexts"):
            surrogate_energies(reader, group, PolicyConfig())

    def test_dimension_mismatch_rejected(self, check_instance):
        inst = check_instance
        rows = np.zeros((2, 1, 1, 7))
        bad = (rows, rows)
        with pytest.raises(ContractError):
            replay_energies(inst.params, dataclasses.replace(inst.group, replay=bad), [1])


def replay_group(mixed: bool, empty: bool = False):
    """A default-size group with a four-block window.  ``mixed`` pivots early
    enough that the first window block's memory is shorter than the rest, with
    routed slots that still leave the branches a choice of frames; ``empty``
    has no sink and no default local slots, so every replay memory is empty."""
    params = param_init(NetworkShape(), 3)
    pivot, choices = (4, ((5, 2),)) if mixed else (5, ((9, 6),))
    cfg = GeneratorConfig(sink_size=0, local_size=0) if empty else GeneratorConfig()
    group = roll(params, np.linspace(0.5, -0.5, 4), 8, pivot, 4, 6, GroupSeeds(31, 32),
                 cfg, choices)
    group.rewards = np.random.default_rng(4).normal(size=len(group.frames))
    group.contexts = build_replay_contexts(group)
    return params, group


@pytest.fixture(scope="module", params=[(False, False), (True, False), (False, True)],
                ids=["uniform", "mixed", "empty"])
def replay_case(request):
    return request.param[0], *replay_group(*request.param)


class TestBatchedReplay:
    """One network call per pass and memory size must give the per-step
    loop's energies bit for bit, and its gradient bit for bit when every
    memory has one size.  Mixed sizes make one tape node per size, whose
    adjoints the tape adds size by size instead of row by row."""

    @pytest.mark.parametrize("source", ["branch", "anchor"])
    @pytest.mark.parametrize("include_all_steps", [True, False])
    @pytest.mark.parametrize("grad_steps", [2, 4, None])
    def test_energies_and_gradient_match_per_step_loop(self, replay_case, source,
                                                       include_all_steps, grad_steps):
        mixed, params, group = replay_case
        group = dataclasses.replace(group, contexts=build_replay_contexts(group, source))
        pcfg = PolicyConfig(grad_steps=grad_steps, include_all_steps=include_all_steps)
        ref_params = param_init(NetworkShape(), 8)
        expected = np.array([float(reference_energy(params, group, g, grad_steps,
                                                    include_all_steps))
                             for g in branch_rows(group)])
        plain = surrogate_energies(params, group, pcfg)
        assert plain.tobytes() == expected.tobytes()
        taped = surrogate_energies(ad.TapeReader(ad.Tape(), params), group, pcfg)
        assert taped.value.tobytes() == expected.tobytes()

        eval_ref = gibbs(surrogate_energies(ref_params, group, pcfg), pcfg.tau)
        breakdown, energies, g, _ = total_loss_grad(params, group, None, eval_ref, pcfg)
        total, g_ref = reference_loss_grad(params, group, eval_ref, pcfg)
        assert energies.tobytes() == expected.tobytes()
        assert breakdown.total == total
        assert np.linalg.norm(g_ref) > 1e-3
        if mixed:
            assert rel_l2(g, g_ref) < 1e-12
        else:
            np.testing.assert_array_equal(g, g_ref)

    @pytest.mark.parametrize("grad_steps", [2, None])
    def test_one_row_equals_its_entry_of_all_branches(self, replay_case, grad_steps):
        # Selecting rows changes which steps share a network call, not a bit.
        _, params, group = replay_case
        for reader in (params, ad.TapeReader(ad.Tape(), params)):
            pcfg = PolicyConfig(grad_steps=grad_steps)
            every = ad.value(replay_energies(reader, group, branch_rows(group), pcfg))
            assert isinstance(every, np.ndarray) and every.shape == (len(group.frames) - 1,)
            for g in branch_rows(group):
                one = replay_energies(reader, group, [g], pcfg)
                assert ad.value(one).tobytes() == every[g - 1:g].tobytes()

    def test_mixed_case_has_two_memory_sizes(self):
        _, group = replay_group(mixed=True)
        assert [k.shape[1] for k, _ in build_replay_contexts(group)] == [9, 12, 12, 12]

    def test_empty_case_has_empty_memories(self):
        _, group = replay_group(mixed=False, empty=True)
        assert [k.shape[1] for k, _ in build_replay_contexts(group)] == [0, 0, 0, 0]

    def test_one_network_call_per_pass_and_memory_size(self, replay_case, monkeypatch):
        _, params, group = replay_case
        sizes = len({k.shape[1] for k, _ in group.contexts})
        calls = []
        real = network.velocity_forward

        def counted(reader, *args, **kwargs):
            calls.append(isinstance(reader, ad.TapeReader))
            return real(reader, *args, **kwargs)

        monkeypatch.setattr(network, "velocity_forward", counted)
        pcfg = PolicyConfig(grad_steps=2, include_all_steps=True)
        surrogate_energies(params, group, pcfg)
        assert calls == [False] * sizes
        calls.clear()
        eval_ref = gibbs(np.zeros(len(group.frames) - 1), pcfg.tau)
        total_loss_grad(params, group, None, eval_ref, pcfg)
        # one taped call over every counted step, none value-only for the steps
        # that carry no gradient
        assert calls == [True] * sizes

    @pytest.mark.parametrize("grad_steps", [2, None])
    def test_each_pass_reads_each_segment_once(self, monkeypatch, grad_steps):
        # Two memory sizes, so two network calls per pass, over one read.
        params, group = replay_group(mixed=True)
        pcfg, rows = PolicyConfig(grad_steps=grad_steps), branch_rows(group)
        segments, real_segment = [], Params.segment
        monkeypatch.setattr(Params, "segment",
                            lambda self, name: segments.append(name) or real_segment(self, name))
        replay_energies(params, group, rows, pcfg)
        assert sorted(segments) == sorted(network.SEGMENTS)
        weights = network.Weights(params)
        segments.clear()
        # A taped pass reads its tape leaves, whichever steps carry gradient, and
        # a pass given the parameters' weights reads nothing.
        replay_energies(ad.TapeReader(ad.Tape(), params), group, rows, pcfg)
        for reader in (params, ad.TapeReader(ad.Tape(), params)):
            replay_energies(reader, group, rows, pcfg, weights)
        assert segments == []

    @pytest.mark.parametrize("include_all_steps", [True, False])
    @pytest.mark.parametrize("grad_steps", [1, 2, 4, None], ids=["1", "2", "S", "None"])
    def test_one_call_equals_the_two_call_split_bitwise(self, replay_case, grad_steps,
                                                         include_all_steps):
        # Per memory size, one taped call whose pullback reads the carrying steps
        # alone, against a value-only call for the rest and a taped one for them.
        _, params, group = replay_case
        assert group.gen_cfg.num_steps == 4
        pcfg = PolicyConfig(grad_steps=grad_steps, include_all_steps=include_all_steps)
        for rows in (list(branch_rows(group)), [5, 2, 3]):  # a slice, and a gather
            scale = np.random.default_rng(len(rows)).normal(size=len(rows))

            def gradient(energies):
                return grad(params, lambda r: ops.asum(ops.mul(energies(r), scale)))[1]

            for reader in (params, ad.TapeReader(ad.Tape(), params)):
                got = ad.value(replay_energies(reader, group, rows, pcfg))
                want = ad.value(ops.two_call_replay_energies(reader, group, rows, pcfg))
                assert got.tobytes() == want.tobytes()
            got = gradient(lambda r: replay_energies(r, group, rows, pcfg))
            want = gradient(lambda r: ops.two_call_replay_energies(r, group, rows, pcfg))
            assert np.linalg.norm(want) > 1e-3
            assert got.tobytes() == want.tobytes()


class TestReplayBatch:
    """Every replay pass slices one batch that the group lays out once: a pass over
    all of a memory size's steps reads and writes the batch's own buffers."""

    @pytest.mark.parametrize("grad_steps", [None, 2])
    def test_a_pass_between_forward_and_backward_moves_no_gradient_bit(self, replay_case,
                                                                        grad_steps):
        # The value-only pass writes its block rows into the buffers that the taped
        # node attended over; its backward must not read them.
        _, params, group = replay_case
        pcfg, rows, other = PolicyConfig(grad_steps=grad_steps), branch_rows(group), param_init(
            NetworkShape(), 8)

        def gradient(between):
            def f(reader):
                energies = ad.asum(replay_energies(reader, group, rows, pcfg))
                between()
                return energies
            return grad(params, f)[1]

        alone = gradient(lambda: None)
        assert np.linalg.norm(alone) > 1e-3
        for between in (lambda: replay_energies(other, group, rows),
                        lambda: replay_energies(ad.TapeReader(ad.Tape(), other), group, rows),
                        lambda: replay_energies(other, group, [2], pcfg)):
            assert gradient(between).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("how", ["replace", "assign"])
    @pytest.mark.parametrize("what", ["replay", "contexts"])
    def test_a_new_replay_or_contexts_is_laid_out_afresh(self, what, how):
        params, group = replay_group(mixed=True)
        rows = branch_rows(group)
        before = replay_energies(params, group, rows)  # lays the batch out
        z, u_hat = group.replay
        new = (z * 0.5, u_hat) if what == "replay" else build_replay_contexts(group, "anchor")
        if how == "replace":
            group = dataclasses.replace(group, **{what: new})
        else:
            setattr(group, what, new)
        fresh = RolloutGroup(**{f.name: getattr(group, f.name)
                                for f in dataclasses.fields(group) if f.init})
        want = replay_energies(params, fresh, rows)
        assert want.tobytes() != before.tobytes()
        for reader in (params, ad.TapeReader(ad.Tape(), params)):
            assert ad.value(replay_energies(reader, group, rows)).tobytes() == want.tobytes()


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
        np.testing.assert_array_equal(ratios(ev, ev), np.ones(3))

    def test_constant_logit_shift_invariant(self):
        rng = np.random.default_rng(0)
        energies = rng.normal(size=8)
        old = gibbs(energies + 0.3, 1.0)
        new1 = gibbs(energies, 1.0)
        new2 = gibbs(energies + 5.0, 1.0)  # adds a constant to all logits
        np.testing.assert_allclose(np.log(ratios(new1, old)), np.log(ratios(new2, old)),
                                   atol=1e-12)

    def test_matches_probability_ratio_oracle(self):
        rng = np.random.default_rng(1)
        new = gibbs(rng.normal(size=8), 1.0)
        old = gibbs(rng.normal(size=8), 1.0)
        expected = new.probs / old.probs
        np.testing.assert_allclose(ratios(new, old), expected, rtol=1e-12)

    def test_size_mismatch(self):
        with pytest.raises(ContractError):
            ratios(gibbs(np.zeros(3), 1.0), gibbs(np.zeros(4), 1.0))


class TestAdvantages:
    def test_all_equal_rewards_zero(self):
        adv = advantages(np.full(8, 3.25))
        np.testing.assert_array_equal(adv, np.zeros(8))

    def test_two_point_case(self):
        adv = advantages(np.array([1.0, -1.0]))
        np.testing.assert_allclose(adv, [1.0, -1.0], atol=1e-7)

    def test_hand_case_ten_zero(self):
        adv = advantages(np.array([10.0, 0.0, 0.0, 0.0]), clip_max=2.5)
        # mean 2.5, population std sqrt(18.75); raw A = (7.5, -2.5, ...)/std
        std = np.sqrt(18.75)
        expected = np.array([7.5, -2.5, -2.5, -2.5]) / (std + ADV_EPS)
        assert expected[0] == pytest.approx(np.sqrt(3), rel=1e-8)
        np.testing.assert_allclose(adv, expected, atol=1e-12)

    def test_clipping_bounds(self):
        adv = advantages(np.array([100.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
                         clip_max=2.5)
        assert np.max(np.abs(adv)) <= 2.5

    @given(st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
                    min_size=2, max_size=16))
    # A spread of one ulp: the mean rounds to 1000.0, off by half the spread.
    @example([1000.0, 999.9999999999999])
    @example([1000.0, 1000.0])
    @settings(max_examples=200, deadline=None)
    def test_normalization_identity(self, rewards):
        r = np.array(rewards)
        adv = advantages(r, clip_max=np.inf)
        assert np.isfinite(adv).all()
        assert (np.diff(adv[np.argsort(r, kind="stable")]) >= 0).all()  # order kept
        std = float(np.sqrt(np.mean((r - r.mean()) ** 2)))
        # r.mean() is off the exact mean by at most this; std is taken about it.
        mean_err = r.size * np.spacing(np.abs(r).max())
        if np.all(r == r[0]):
            np.testing.assert_array_equal(adv, np.zeros(r.size))
        elif std > 64 * mean_err:
            # std(A) = std / (std + eps), exactly about the exact mean; the rounded
            # mean adds (mean_err / std) ** 2 to it, and mean_err / std to mean(A).
            slack = mean_err / std
            got = float(np.sqrt(np.mean((adv - adv.mean()) ** 2)))
            assert got == pytest.approx(std / (std + ADV_EPS), rel=1e-9 + slack ** 2)
            assert abs(adv.mean()) < 1e-9 + slack
        # a spread within 64 * mean_err is mostly the mean's rounding error


class TestPpoLoss:
    def test_unit_ratios_give_negative_mean_advantage(self):
        adv = advantages(np.array([3.0, 1.0, -1.0, -3.0]))
        loss = ppo_part(np.zeros(4), adv)
        assert loss == pytest.approx(-adv.mean(), abs=1e-12)

    def test_high_side_clip(self):
        adv = advantages(np.array([1.0, -1.0]))
        adv[:] = [1.0, 0.0]
        loss = ppo_part(np.log(np.array([1.5, 1.0])), adv, eps_low=0.1, eps_high=0.2)
        # branch 1 term min(1.5, 1.2)*1 = 1.2; branch 2 term 0
        assert loss == pytest.approx(-1.2 / 2, abs=1e-12)

    def test_low_side_clip(self):
        adv = advantages(np.array([1.0, -1.0]))
        adv[:] = [0.0, -1.0]
        loss = ppo_part(np.log(np.array([1.0, 0.5])), adv, eps_low=0.1, eps_high=0.2)
        # branch 2 term min(-0.5, -0.9) = -0.9
        assert loss == pytest.approx(0.9 / 2, abs=1e-12)

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            ppo_part(np.zeros(2), advantages(np.array([1.0, -1.0])), eps_low=0.0)

    def test_trust_region_flat_regions(self):
        # For A > 0 the term is constant beyond 1 + eps_high; for A < 0,
        # constant below 1 - eps_low.  Checked by finite differences on log rho.
        h = 1e-6

        def term(lr, a):  # one branch's min(rho A, clip(rho) A)
            return -ppo_part([lr], np.array([a]))

        for a, log_rho in ((1.7, np.log(1.35)), (-0.8, np.log(0.8))):
            deriv = (term(log_rho + h, a) - term(log_rho - h, a)) / (2 * h)
            assert abs(deriv) < 1e-12
        # interior point: derivative equals rho * A
        lr0 = np.log(1.05)
        a = 1.7
        deriv = (term(lr0 + h, a) - term(lr0 - h, a)) / (2 * h)
        assert deriv == pytest.approx(np.exp(lr0) * a, rel=1e-6)


class TestKlPenalty:
    def test_identical_policies_zero(self):
        ev = gibbs(np.array([0.3, -0.2, 1.0, 0.5]), 1.0)
        assert reported_kl(ev, ev) == 0.0

    def test_near_deterministic_vs_uniform_approaches_log_g(self):
        energies = np.array([0.0] + [60.0] * 7)
        cur = gibbs(energies, 1.0)
        ref = gibbs(np.zeros(8), 1.0)
        assert reported_kl(cur, ref) == pytest.approx(np.log(8), abs=1e-6)

    def test_matches_summation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cur = gibbs(rng.normal(size=8), 1.0)
            ref = gibbs(rng.normal(size=8), 1.0)
            expected = sum(cur.probs[i] * (np.log(cur.probs[i]) - np.log(ref.probs[i]))
                           for i in range(8))
            assert reported_kl(cur, ref) == pytest.approx(expected, abs=1e-12)

    @given(finite_energies)
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, energies):
        rng = np.random.default_rng(abs(hash(tuple(energies))) % 2**31)
        cur = gibbs(np.array(energies), 1.0)
        ref = gibbs(rng.normal(size=len(energies)), 1.0)
        assert reported_kl(cur, ref) >= 0.0

    def test_zero_reference_probability_rejected(self, check_instance):
        # The KL to such a reference is infinite: the gradient pass rejects the
        # loss, and the trainer skips the iteration.
        inst = check_instance
        ref = gibbs(np.zeros(len(inst.group.rewards) - 1), 1.0)
        ref.log_probs[1] = -np.inf
        with pytest.raises(NumericalError):
            total_loss_grad(inst.params, inst.group, None, ref, PolicyConfig())


class TestGuard:
    def test_all_below_anchor_skips(self):
        assert guard(np.array([0.1, 0.2, 0.3]), anchor_reward=0.5) is True

    def test_one_above_anchor_proceeds(self):
        assert guard(np.array([0.1, 0.9, 0.3]), anchor_reward=0.5) is False

    def test_exact_tie_skips(self):
        assert guard(np.array([0.1, 0.5]), anchor_reward=0.5) is True


class TestLatentL2:
    def test_identical_branch_zero(self, check_instance):
        # no branch equals the anchor here, but the anchor against itself:
        group = check_instance.group
        frames = group.frames.copy()
        frames[1] = frames[0]
        energies = latent_l2_energies(dataclasses.replace(group, frames=frames))
        assert energies[0] == 0.0

    def test_hand_case(self):
        # One-frame blocks; only block 5 is in the window.
        frames = np.zeros((2, 6, 2))
        frames[1, 4] = [3.0, 4.0]
        frames[1, [3, 5]] = 7.0
        group = SimpleNamespace(pivot_block=5, window=1, frames=frames,
                                gen_cfg=GeneratorConfig(frames_per_block=1))
        energies = latent_l2_energies(group, sigma=1.0)
        assert energies[0] == pytest.approx(12.5)

    def test_needs_no_replay_contexts(self, check_instance):
        inst = check_instance
        group, pcfg = dataclasses.replace(inst.group, contexts=None), PolicyConfig(
            surrogate="latent_l2")
        energies = surrogate_energies(inst.params, group, pcfg)
        assert energies.tobytes() == latent_l2_energies(inst.group).tobytes()
        _, _, g, _ = total_loss_grad(inst.params, group, None, gibbs(energies, pcfg.tau), pcfg)
        assert not g.any()

    def test_matches_norm_oracle(self, check_instance):
        group = check_instance.group
        energies = latent_l2_energies(group, sigma=0.7)
        F = group.gen_cfg.frames_per_block
        window = range(group.pivot_block, group.pivot_block + group.window)
        blocks = [group.frames[:, (b - 1) * F:b * F] for b in window]
        anchor, *rows = np.concatenate(blocks, axis=1)
        for e, mine in zip(energies, rows):
            assert e == pytest.approx(np.linalg.norm(mine - anchor) ** 2 / (2 * 0.49),
                                      rel=1e-12)


class TestTotalLoss:
    def _evals(self, inst, pcfg):
        energies = surrogate_energies(inst.params, inst.group, pcfg)
        # reference from per-branch perturbed energies (a constant shift would
        # leave the distribution unchanged and make the KL term degenerate)
        jitter = np.random.default_rng(99).normal(scale=0.3, size=energies.size)
        return gibbs(energies, pcfg.tau), gibbs(energies + jitter, pcfg.tau)

    def test_beta_zero_equals_ppo(self, check_instance):
        pcfg = PolicyConfig(beta=0.0)
        eval_old, eval_ref = self._evals(check_instance, pcfg)
        breakdown, *_ = total_loss_grad(check_instance.params, check_instance.group,
                                        eval_old, eval_ref, pcfg)
        assert breakdown.total == pytest.approx(breakdown.ppo, abs=1e-15)

    def test_total_is_ppo_plus_beta_kl(self, check_instance):
        pcfg = PolicyConfig(beta=5.0)
        eval_old, eval_ref = self._evals(check_instance, pcfg)
        breakdown, *_ = total_loss_grad(check_instance.params, check_instance.group,
                                        eval_old, eval_ref, pcfg)
        assert breakdown.total == pytest.approx(
            breakdown.ppo + 5.0 * breakdown.kl, rel=1e-12)
        assert breakdown.kl >= 0.0

    def test_ratios_are_one_against_matching_old(self, check_instance):
        pcfg = PolicyConfig()
        eval_old, eval_ref = self._evals(check_instance, pcfg)
        breakdown, *_ = total_loss_grad(check_instance.params, check_instance.group,
                                        eval_old, eval_ref, pcfg)
        np.testing.assert_allclose(breakdown.per_branch_ratio, np.ones(8), atol=1e-12)

    @pytest.mark.parametrize("part,beta", [("total", 5.0), ("ppo", 0.0),
                                           ("kl", 5.0)])
    def test_each_loss_term_grad_matches_fd(self, check_instance, part, beta):
        inst = check_instance
        pcfg = PolicyConfig(grad_steps=None, beta=beta)
        eval_old, eval_ref = self._evals(inst, pcfg)
        adv = advantages(inst.group.rewards[1:], pcfg.adv_clip_max)

        def f(reader):
            total, ppo, kl, *_ = _build_loss(reader, inst.group, eval_old, eval_ref, adv,
                                             pcfg)
            return {"total": total, "ppo": ppo, "kl": kl}[part]

        _, g = grad(inst.params, f)
        fd = fd_grad(inst.params, f, 1e-5)
        assert rel_l2(g, fd) < 1e-4

    def test_value_only_terms_equal_taped_terms_bitwise(self, check_instance):
        # One formula: at plain parameters it gives the numbers the gradient
        # pass records.
        inst = check_instance
        pcfg = PolicyConfig()
        eval_old, eval_ref = self._evals(inst, pcfg)
        adv = advantages(inst.group.rewards[1:], pcfg.adv_clip_max)
        total, ppo, kl, rho, *_ = _build_loss(inst.params, inst.group, eval_old, eval_ref,
                                              adv, pcfg)
        plain = LossBreakdown.of(total, ppo, kl, rho)
        taped, *_ = total_loss_grad(inst.params, inst.group, eval_old, eval_ref, pcfg)
        assert (plain.total, plain.ppo, plain.kl) == (taped.total, taped.ppo, taped.kl)
        np.testing.assert_array_equal(plain.per_branch_ratio, taped.per_branch_ratio)

    def test_l2_surrogate_has_zero_gradient(self, check_instance):
        inst = check_instance
        pcfg = PolicyConfig(surrogate="latent_l2")
        energies = surrogate_energies(inst.params, inst.group, pcfg)
        eval_old = gibbs(energies, pcfg.tau)
        eval_ref = gibbs(energies, pcfg.tau)
        breakdown, _, g, used_old = total_loss_grad(inst.params, inst.group, eval_old,
                                                    eval_ref, pcfg)
        assert used_old is eval_old
        np.testing.assert_array_equal(g, np.zeros_like(g))
        np.testing.assert_allclose(breakdown.per_branch_ratio, np.ones(8), atol=1e-15)


def at_ratio(log_probs, old_log_probs, k, target):
    """``old_log_probs`` with entry ``k`` moved so that the ratio
    ``exp(log_probs - old)[k]`` is exactly ``target``.  The candidates step the
    entry by one spacing at a time; with both log-probabilities in (-1, -0.25)
    that moves the ratio by less than one ulp, so one of them hits ``target``."""
    start = log_probs[k] - np.log(target)
    for step in sorted(range(-400, 401), key=abs):
        old = old_log_probs.copy()
        old[k] = start + step * np.spacing(start)
        if np.exp(log_probs - old)[k] == target:
            return old
    raise AssertionError(f"no old log-probability gives ratio {target!r}")


def head_case(size, tau, eps, rng, with_old):
    """Energies, old and reference policies and advantages for one grid case.
    Branches 0 and 1 hold most of the probability.  A given old policy puts
    branch 0 exactly on 1 - eps_low, branch 1 exactly on 1 + eps_high, and the
    other branches alternately far outside the clip range and inside it."""
    probs = np.concatenate([0.47 + rng.uniform(-0.02, 0.02, size=2),
                            rng.uniform(0.5, 1.5, size=size - 2) * (0.06 / (size - 1))])
    energies = -tau * np.log(probs / probs.sum()) + rng.normal() * 3.0
    eval_ref = gibbs(energies + rng.normal(scale=0.5, size=size), tau)
    adv = np.clip(rng.normal(size=size) * 1.5, -2.5, 2.5)
    if not with_old:
        return energies, None, eval_ref, adv
    lp = ops.log_policy(energies, tau)
    lo, hi = 1.0 - eps[0], 1.0 + eps[1]
    far = [np.exp(-1.5), np.exp(1.5), 1.0, 0.95]
    old = lp - np.log([lo, hi, *(far[i % 4] for i in range(size - 2))])
    old = at_ratio(lp, at_ratio(lp, old, 0, lo), 1, hi)
    return energies, PolicyEval(energies, old, np.exp(old)), eval_ref, adv


def taped(energies):
    tape = ad.Tape()
    return tape, tape.leaf(np.array(energies))


def adjoint(out, leaf):
    return out.tape.backward(out)[leaf.idx]


class TestFusedHead:
    """The loss head's hand-written nodes against the same loss built from
    the reference ops, over a grid of group sizes, temperatures, KL weights,
    clip bounds and old policies: values and energy gradients bit for bit.
    (A temperature that is not a power of two makes the scaling by -1/tau
    round, so it pins where the backward applies it.)"""

    @pytest.fixture(autouse=True)
    def energies_are_the_reader(self, monkeypatch):
        # The head's input is the energies: pass them where the reader goes.
        monkeypatch.setattr(policy, "surrogate_energies", lambda reader, *_: reader)

    @pytest.mark.parametrize("with_old", [False, True], ids=["own-old", "given-old"])
    @pytest.mark.parametrize("size", [2, 3, 8, 16])
    def test_total_ppo_kl_and_ratios_equal_reference(self, size, with_old):
        rng = np.random.default_rng(size)
        for tau, beta, eps in itertools.product((0.5, 0.7, 1.0, 2.0), (0.0, 0.3, 5.0),
                                                ((0.1, 0.2), (0.2, 0.28))):
            cfg = PolicyConfig(tau=tau, beta=beta, eps_low=eps[0], eps_high=eps[1])
            energies, eval_old, eval_ref, adv = head_case(size, tau, eps, rng, with_old)
            old = eval_old if with_old else gibbs(energies, tau)
            for part in range(3):  # total, ppo, kl
                tape, leaf = taped(energies)
                *fused, _, used_old = _build_loss(leaf, None, eval_old, eval_ref, adv, cfg)
                assert len(tape._values) == 1 + 4
                np.testing.assert_array_equal(used_old.log_probs, old.log_probs)
                _, ref_leaf = taped(energies)
                ref = ops.ppo_kl_loss(ops.log_policy(ref_leaf, tau), old.log_probs,
                                      eval_ref.log_probs, adv, cfg)
                for got, want in zip(fused, ref):
                    assert np.array_equal(ad.value(got), ad.value(want))
                assert np.array_equal(adjoint(fused[part], leaf),
                                      adjoint(ref[part], ref_leaf))
            plain = _build_loss(energies, None, eval_old, eval_ref, adv, cfg)[:4]
            for got, want in zip(plain, fused):
                assert np.array_equal(got, ad.value(want))
            if with_old:
                rho = ad.value(fused[3])
                assert rho[0] == 1.0 - eps[0] and rho[1] == 1.0 + eps[1]

    @pytest.mark.parametrize("with_old", [False, True], ids=["own-old", "given-old"])
    @pytest.mark.parametrize("size", [2, 3, 8, 16])
    def test_pg_surrogate_equals_reference(self, size, with_old):
        rng = np.random.default_rng(100 + size)
        for tau in (0.5, 0.7, 1.0, 2.0):
            cfg = PolicyConfig(tau=tau)
            energies, eval_old, _, adv = head_case(size, tau, (0.1, 0.2), rng, with_old)
            eval_old = eval_old if with_old else gibbs(energies, tau)
            tape, leaf = taped(energies)
            fused = pg_surrogate_value(leaf, None, eval_old, adv, cfg)
            assert len(tape._values) == 1 + 2
            _, ref_leaf = taped(energies)
            ref = ops.pg_surrogate(ops.log_policy(ref_leaf, tau), eval_old, adv, cfg)
            assert np.array_equal(fused.value, ref.value)
            assert np.array_equal(adjoint(fused, leaf), adjoint(ref, ref_leaf))
            plain = pg_surrogate_value(energies, None, eval_old, adv, cfg)
            assert np.array_equal(plain, fused.value)


class TestContrastiveReference:
    def test_equal_advantages_give_zero(self, check_instance):
        inst = check_instance
        energies = replay_energies(inst.params, inst.group, branch_rows(inst.group),
                                   PolicyConfig(grad_steps=2))
        ev = gibbs(energies, 1.0)
        adv = advantages(np.ones(8), clip_max=np.inf)  # all equal -> all zero
        ref = contrastive_grad_reference(inst.params, inst.group, ev, adv, PolicyConfig(tau=1.0))
        np.testing.assert_array_equal(ref, np.zeros_like(ref))

    def test_two_branch_symmetric_case(self, check_instance):
        # pi = (1/2, 1/2), A = (1, -1): reference reduces to
        # -(1/(2 tau)) (grad E_1 - grad E_2).
        inst = check_instance
        g = inst.group
        sub = dataclasses.replace(  # the anchor and the first two branches
            g, frames=g.frames[:3], routings=g.routings[:3], rewards=g.rewards[:3],
            replay=tuple(a[:3] for a in g.replay))
        ev = gibbs(np.array([4.0, 4.0]), 2.0)
        adv = advantages(np.array([1.0, -1.0]), clip_max=np.inf)
        got = contrastive_grad_reference(inst.params, sub, ev, adv, PolicyConfig(tau=2.0))
        pcfg = PolicyConfig()
        grads = []
        for row in branch_rows(sub):
            _, g = grad(inst.params, lambda r, row=row: energy(
                r, sub, row, pcfg.grad_steps, pcfg.include_all_steps))
            grads.append(g)
        expected = -(grads[0] - grads[1]) / (2 * 2.0)
        np.testing.assert_allclose(got, expected, atol=1e-15)

    def test_matches_autodiff_of_unclipped_surrogate(self, check_instance):
        from kvgrpo.checks import check_pg_identity
        rng = np.random.default_rng(5)
        for tau in (0.5, 1.0, 2.0):
            err = check_pg_identity(check_instance, tau, rng.normal(size=8),
                                    PolicyConfig(grad_steps=2))
            assert err < 1e-6
