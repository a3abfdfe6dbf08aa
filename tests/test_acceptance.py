"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one `ACCEPTANCE <n> PASS|FAIL` line (run with ``-s`` to see the lines
as they complete).  The training-based criteria share a session-scoped matrix
of full 200-iteration runs; they are marked ``slow``, so
``pytest -m "not slow"`` runs everything else.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import kvgrpo.autodiff as ad
import kvgrpo.trainer as trainer_mod
from kvgrpo.autodiff import fd_grad, grad
from kvgrpo.checks import (check_pg_identity, check_total_grad, check_energy_grad,
                           make_instance, rel_l2)
from kvgrpo.config import RunConfig, TrainerConfig
from kvgrpo.network import NetworkShape, param_init
from kvgrpo.policy import (LossBreakdown, PolicyConfig, advantages, gibbs, guard,
                           ppo_kl_loss)
from kvgrpo.routing import GroupSeeds
from kvgrpo.trainer import init_state, run, train_iteration
from test_routing import roll, window_frames


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL: {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS: {label}")


# ---------------------------------------------------------------------------
# Training matrix shared by criteria 9-11: three seeds x three variants.
# ---------------------------------------------------------------------------

MATRIX_SEEDS = (0, 1, 2)
VARIANTS = {
    "replay-b5": {},
    "l2-b5": {"surrogate": "latent_l2"},
    "replay-b0": {"kl_penalty_weight": 0.0},
}


@pytest.fixture(scope="session")
def training_matrix():
    runs = {}
    for seed in MATRIX_SEEDS:
        for label, overrides in VARIANTS.items():
            cfg = TrainerConfig(seed=seed, max_iterations=200, **overrides)
            started = time.perf_counter()
            result = run(RunConfig(trainer=cfg).validate())
            runs[(seed, label)] = (result, time.perf_counter() - started)
    return runs


def reward_means(result, head=20):
    rewards = [r.anchor_reward for r in result.records]
    return float(np.mean(rewards[:head])), float(np.mean(rewards[-head:]))


class TestCriterion1GradientFidelity:
    def test_replay_energy_and_total_loss_match_finite_differences(self):
        with criterion(1, "reverse-mode vs central differences at 1e-4, "
                          ">=20 instances, < 2 min"):
            started = time.perf_counter()
            worst_energy, worst_total = 0.0, 0.0
            for i in range(20):
                inst = make_instance(seed=3000 + i)
                assert inst.params.layout.total <= 1000
                pcfg = (PolicyConfig(grad_steps=None) if i % 2 == 0
                        else PolicyConfig(grad_steps=2, include_all_steps=False))
                worst_energy = max(worst_energy, check_energy_grad(
                    inst, pcfg, branch_index=i % len(inst.rewards)))
                old = param_init(NetworkShape(3, 5, 2), 5000 + i)
                ref = param_init(NetworkShape(3, 5, 2), 7000 + i)
                worst_total = max(worst_total,
                                  check_total_grad(inst, pcfg, old, ref))
            elapsed = time.perf_counter() - started
            assert worst_energy < 1e-4, f"replay-energy grad error {worst_energy}"
            assert worst_total < 1e-4, f"total-loss grad error {worst_total}"
            assert elapsed < 120.0, f"took {elapsed:.1f}s"


class TestCriterion2ContrastiveIdentity:
    def test_closed_form_matches_autodiff_on_100_instances(self):
        with criterion(2, "contrastive gradient identity at 1e-6, "
                          ">=100 instances, < 1 min"):
            started = time.perf_counter()
            rng = np.random.default_rng(42)
            shape = NetworkShape(3, 5, 2)
            groups = [make_instance(seed=100 + k) for k in range(4)]
            worst = 0.0
            for i in range(100):
                inst = groups[i % len(groups)]
                tau = (0.5, 1.0, 2.0)[i % 3]
                rewards = rng.normal(size=len(inst.rewards))
                eval_params = param_init(shape, 9000 + i)
                worst = max(worst, check_pg_identity(
                    inst, tau, rewards, PolicyConfig(grad_steps=2), eval_params))
            elapsed = time.perf_counter() - started
            assert worst < 1e-6, f"identity error {worst}"
            assert elapsed < 60.0, f"took {elapsed:.1f}s"


class TestCriterion3GibbsSuite:
    def test_normalization_shift_monotonicity_overflow(self):
        with criterion(3, "Gibbs softmax: normalization 1e-12, shift invariance, "
                          "monotonicity, |E|=1e8 overflow safety, 1e4 vectors"):
            rng = np.random.default_rng(7)
            scales = 10.0 ** rng.uniform(-2, 8, size=10_000)
            for row in range(10_000):
                energies = rng.uniform(-1.0, 1.0, size=8) * scales[row]
                ev = gibbs(energies, tau=1.0)
                assert abs(ev.probs.sum() - 1.0) < 1e-12
                shifted = gibbs(energies + scales[row], tau=1.0)
                np.testing.assert_allclose(ev.probs, shifted.probs, atol=1e-12)
                order = np.argsort(energies)
                lp = ev.log_probs[order]
                # strict monotonicity on the log scale
                sorted_e = energies[order]
                for i in range(7):
                    if sorted_e[i + 1] > sorted_e[i]:
                        assert lp[i] > lp[i + 1]
            hot = gibbs(np.array([1e8, -1e8, 0.0, 5e7, -5e7, 1e8 - 1e4, 2.0, -2.0]),
                        tau=1.0)
            assert np.all(np.isfinite(hot.log_probs))
            assert abs(hot.probs.sum() - 1.0) < 1e-12


class TestCriterion4AdvantageSuite:
    def test_normalization_degeneracy_and_clamp(self):
        with criterion(4, "advantages: mean 0 +-1e-12, population std 1 +-1e-9, "
                          "all-equal -> 0, |A| <= 2.5"):
            rng = np.random.default_rng(11)
            checked = 0
            for _ in range(1000):
                rewards = rng.uniform(-100.0, 100.0, size=8)
                std = float(np.std(rewards))
                if std < 10.0:
                    continue
                checked += 1
                adv = advantages(rewards, clip_max=np.inf)
                assert abs(float(np.mean(adv))) < 1e-12
                assert abs(float(np.std(adv)) - 1.0) < 1e-9
            assert checked > 900
            np.testing.assert_array_equal(advantages(np.full(8, 2.5)),
                                          np.zeros(8))
            outlier = advantages(np.array([1e6, 0, 0, 0, 0, 0, 0, 0]), clip_max=2.5)
            assert np.max(np.abs(outlier)) <= 2.5


class TestCriterion5ClippingTrustRegion:
    def test_flat_regions_have_zero_partial(self):
        with criterion(5, "clip trust region: zero d/dlog-rho for (A>0, rho>1.2) "
                          "and (A<0, rho<0.9); ppo_epochs=2 forces rho != 1"):
            # A second optimization epoch on the same group moves the ratios.
            cfg = TrainerConfig(seed=2, latent_dim=3, hidden_dim=5, prompt_dim=2,
                                num_blocks=6, pivot_blocks=[6], perturbed_blocks=2,
                                branch_number=4, max_iterations=1, ppo_epochs=2,
                                learning_rate=0.05).validate()
            state = init_state(cfg)
            record = train_iteration(state, cfg)
            while record.skipped:
                record = train_iteration(state, cfg)
            assert np.max(np.abs(np.array(record.per_branch_ratio) - 1.0)) > 1e-9

            rng = np.random.default_rng(3)
            h = 1e-6
            pcfg = PolicyConfig(eps_low=0.1, eps_high=0.2)

            def ppo(log_rho, a):
                """The trained loss's PPO term of one branch: a number for a
                float log-ratio, a tape node for a tape leaf."""
                return ppo_kl_loss(log_rho, np.zeros(1), np.zeros(1), np.array([a]),
                                   pcfg)[1]

            def partials(log_rho, a):
                fd = (ppo(np.array([log_rho + h]), a)
                      - ppo(np.array([log_rho - h]), a)) / (2 * h)
                tape = ad.Tape()
                leaf = tape.leaf(np.array([log_rho]))
                exact = tape.backward(ppo(leaf, a))[leaf.idx]
                return float(fd), 0.0 if exact is None else float(exact[0])

            for _ in range(200):
                a = rng.uniform(0.1, 2.5)
                fd, exact = partials(np.log(rng.uniform(1.25, 3.0)), a)
                assert abs(fd) < 1e-12 and abs(exact) < 1e-12
                a = -rng.uniform(0.1, 2.5)
                fd, exact = partials(np.log(rng.uniform(0.3, 0.85)), a)
                assert abs(fd) < 1e-12 and abs(exact) < 1e-12


class TestCriterion6Determinism:
    PROMPT = np.array([0.3, -0.2])

    def _group(self, params_seed, group_seed, branches=2, overrides=None):
        params = param_init(NetworkShape(3, 5, 2), params_seed)
        return params, roll(params, self.PROMPT, 7, pivot=6, window=2, num_branches=branches,
                            seeds=GroupSeeds(noise=group_seed, routing=group_seed + 1),
                            routing_overrides=overrides)

    def test_bitwise_reproduction_identity_routing_and_divergence(self):
        with criterion(6, "determinism: bitwise group reproduction, identity "
                          "routing == anchor, distinct routings differ on "
                          ">=95/100 trials"):
            _, g1 = self._group(5, 50)
            _, g2 = self._group(5, 50)
            assert np.array_equal(g1.frames, g2.frames)

            identity = tuple(range(15 - 8, 15 - 2))
            _, g3 = self._group(6, 60, overrides={1: identity})
            anchor, routed = window_frames(g3)[:2]
            assert np.array_equal(routed, anchor)

            differing = 0
            for trial in range(100):
                _, g = self._group(1000 + trial, 2000 + trial)
                _, wa, wb = window_frames(g)
                if not np.array_equal(wa, wb):
                    differing += 1
            assert differing >= 95, f"only {differing}/100 trials diverged"


class TestCriterion7GuardSoundness:
    def test_guard_skips_and_freezes_params(self, monkeypatch):
        with criterion(7, "guard: no branch beats anchor -> skipped=true, "
                          "parameters bitwise unchanged"):
            cfg = TrainerConfig(seed=4, latent_dim=3, hidden_dim=5, prompt_dim=2,
                                num_blocks=6, pivot_blocks=[5, 6],
                                perturbed_blocks=2, branch_number=4,
                                max_iterations=1).validate()
            # Construct groups where the anchor strictly dominates, then where
            # the best branch exactly ties; both must skip.
            for branch_reward in (-1.0, 1.0):
                state = init_state(cfg)
                monkeypatch.setattr(
                    trainer_mod, "composite",
                    lambda frames, spec, target, _r=branch_reward:
                        np.array([1.0] + [_r] * (len(frames) - 1)))
                before = state.params.values.copy()
                record = train_iteration(state, cfg)
                assert record.skipped is True
                assert np.array_equal(state.params.values, before)
            assert guard(np.array([1.0, 1.0]), 1.0) is True
            assert guard(np.array([1.0, 1.0 + 1e-12]), 1.0) is False


class TestCriterion8KlSuite:
    def test_nonnegative_identity_and_oracle(self):
        with criterion(8, "KL: >= 0 always, == 0 at matching policies, "
                          "oracle match at 1e-12"):
            def reported_kl(cur, ref):
                """The KL the trainer records as ``kl_value``."""
                terms = ppo_kl_loss(cur.log_probs, cur.log_probs, ref.log_probs,
                                    np.zeros(8), PolicyConfig())
                return LossBreakdown.of(*terms).kl

            rng = np.random.default_rng(13)
            for _ in range(2000):
                scale = 10.0 ** rng.uniform(-2, 2)
                cur = gibbs(rng.normal(size=8) * scale, tau=1.0)
                ref = gibbs(rng.normal(size=8) * scale, tau=1.0)
                kl = reported_kl(cur, ref)
                assert kl >= 0.0
                oracle = float(np.sum(cur.probs * (cur.log_probs - ref.log_probs)))
                assert abs(kl - oracle) < 1e-12
            ev = gibbs(rng.normal(size=8), tau=1.0)
            assert reported_kl(ev, ev) == 0.0


@pytest.mark.slow
class TestCriterion9DeskScaleLearning:
    def test_default_run_improves(self, training_matrix):
        with criterion(9, "desk-scale learning: final-20 mean reward exceeds "
                          "first-20 mean on the default 200-iteration run"):
            result, elapsed = training_matrix[(0, "replay-b5")]
            assert len(result.records) == 200
            first, final = reward_means(result)
            assert final > first, f"no improvement: {first:.4f} -> {final:.4f}"
            assert elapsed < 600.0, f"took {elapsed:.1f}s"
            print(f"  [criterion 9] reward {first:+.4f} -> {final:+.4f} "
                  f"in {elapsed:.0f}s")


@pytest.mark.slow
class TestCriterion10SurrogateAblation:
    def test_replay_surrogate_beats_latent_l2(self, training_matrix):
        with criterion(10, "surrogate ablation: replay-energy >= latent-l2 "
                           "final reward on >= 2 of 3 seeds"):
            wins = 0
            for seed in MATRIX_SEEDS:
                _, replay_final = reward_means(training_matrix[(seed, "replay-b5")][0])
                _, l2_final = reward_means(training_matrix[(seed, "l2-b5")][0])
                wins += replay_final >= l2_final
                print(f"  [criterion 10] seed {seed}: replay {replay_final:+.4f} "
                      f"vs l2 {l2_final:+.4f}")
            assert wins >= 2, f"replay surrogate won on only {wins}/3 seeds"


@pytest.mark.slow
class TestCriterion11KlWeightDirection:
    def test_beta_zero_does_not_outperform(self, training_matrix):
        with criterion(11, "KL-weight direction: beta=0 does not outperform "
                           "beta=5 on >= 2 of 3 seeds; KL finite at beta=5"):
            wins = 0
            for seed in MATRIX_SEEDS:
                _, b5_final = reward_means(training_matrix[(seed, "replay-b5")][0])
                _, b0_final = reward_means(training_matrix[(seed, "replay-b0")][0])
                wins += b0_final <= b5_final
                print(f"  [criterion 11] seed {seed}: beta5 {b5_final:+.4f} "
                      f"vs beta0 {b0_final:+.4f}")
                records = training_matrix[(seed, "replay-b5")][0].records
                assert all(np.isfinite(r.kl_value) for r in records)
            assert wins >= 2, f"beta=0 outperformed on {3 - wins}/3 seeds"
