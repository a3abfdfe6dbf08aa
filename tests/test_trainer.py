"""Training loop: snapshots, optimizer, EMA, guard behavior, ratio identity,
warmup, and reproducibility."""

import numpy as np
import pytest

from kvgrpo.checks import rel_l2
from kvgrpo.config import RunConfig, TrainerConfig
from kvgrpo.network import NetworkShape, param_init
from kvgrpo.params import GradVector
from kvgrpo.trainer import (Adam, TrainerState, clip_gradient, ema_update,
                            init_state, learning_rate_at, run, snapshot,
                            train_iteration)


def small_config(**overrides) -> TrainerConfig:
    base = dict(seed=3, latent_dim=3, hidden_dim=5, prompt_dim=2, num_blocks=6,
                pivot_blocks=[5, 6], perturbed_blocks=2, branch_number=4,
                max_iterations=4)
    base.update(overrides)
    return TrainerConfig(**base).validate()


class TestSnapshot:
    def test_snapshot_immune_to_mutation(self, tiny_params):
        snap = snapshot(tiny_params)
        tiny_params.values[0] += 1.0
        assert snap.values[0] != tiny_params.values[0]

    def test_ref_snapshot_fixed_at_init(self):
        cfg = small_config()
        state = init_state(cfg)
        ref0 = state.ref.values.copy()
        for _ in range(3):
            train_iteration(state, cfg)
        assert np.array_equal(state.ref.values, ref0)

    def test_aborted_epoch_restores_params_and_optimizer(self, monkeypatch):
        # A NumericalError in the second PPO epoch must undo the first
        # epoch's update of the parameters and of Adam's m, v and step.
        from kvgrpo import policy
        from kvgrpo.errors import NumericalError
        cfg = small_config(seed=2, ppo_epochs=2)
        state = init_state(cfg)
        while train_iteration(state, cfg).skipped:
            pass
        assert state.opt.step == 2
        real = policy.total_loss_grad
        calls = []

        def second_epoch_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NumericalError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(policy, "total_loss_grad", second_epoch_fails)
        while True:
            calls.clear()
            params, m, v = (state.params.values.copy(), state.opt.m.copy(),
                            state.opt.v.copy())
            step = state.opt.step
            record = train_iteration(state, cfg)
            if calls:
                break
        assert record.skipped and record.error == "injected"
        assert np.array_equal(state.params.values, params)
        assert np.array_equal(state.opt.m, m)
        assert np.array_equal(state.opt.v, v)
        assert state.opt.step == step

    def test_ref_pass_error_skips_iteration(self, monkeypatch, tmp_path):
        # A NumericalError in the value-only reference pass aborts the
        # iteration like any other, and the run still writes its final
        # checkpoint.
        from kvgrpo import policy, trainer
        from kvgrpo.errors import NumericalError
        real_energies, real_init, states = policy.surrogate_energies, init_state, []

        def keep_state(c):
            states.append(real_init(c))
            return states[-1]

        def ref_pass_fails(reader, *args, **kwargs):
            if reader is states[0].ref:
                raise NumericalError("injected ref failure")
            return real_energies(reader, *args, **kwargs)

        monkeypatch.setattr(trainer, "init_state", keep_state)
        monkeypatch.setattr(policy, "surrogate_energies", ref_pass_fails)
        cfg = RunConfig(trainer=small_config(seed=2, max_iterations=6),
                        out_dir=str(tmp_path / "r")).validate()
        fresh = real_init(cfg.trainer).params.values
        result = run(cfg)
        errored = [r for r in result.records if r.error is not None]
        assert errored and all(r.skipped for r in errored)
        assert all(r.error == "injected ref failure" for r in errored)
        assert (tmp_path / "r" / "checkpoint_final.kvc").exists()
        assert np.array_equal(result.state.params.values, fresh)

    def test_rollout_error_skips_iteration(self, monkeypatch, tmp_path):
        # A NumericalError raised mid-rollout at iteration 2 of 3 skips that
        # iteration with no rewards, and the run goes on to its final checkpoint.
        import json
        from kvgrpo import flow, trainer
        from kvgrpo.errors import NumericalError
        real_eval, real_rollout, rollouts = flow.velocity_eval, trainer.rollout_group, []

        def counted_rollout(*args, **kwargs):
            rollouts.append(1)
            return real_rollout(*args, **kwargs)

        def second_rollout_fails(*args, **kwargs):
            if len(rollouts) == 2:
                raise NumericalError("injected rollout failure")
            return real_eval(*args, **kwargs)

        monkeypatch.setattr(trainer, "rollout_group", counted_rollout)
        monkeypatch.setattr(flow, "velocity_eval", second_rollout_fails)
        out = tmp_path / "r"
        result = run(RunConfig(trainer=small_config(seed=2, max_iterations=3),
                               out_dir=str(out), dump_trajectories=True).validate())
        assert len(result.records) == 3
        first, failed, last = result.records
        assert failed.skipped and failed.error == "injected rollout failure"
        assert failed.branch_rewards == [] and failed.branch_energies == []
        assert (failed.anchor_reward, failed.reward_mean, failed.reward_std) == (None,) * 3
        assert first.error is None and last.error is None
        assert (out / "checkpoint_final.kvc").exists()
        assert result.final_mean_reward() == np.mean([first.anchor_reward,
                                                      last.anchor_reward])
        logged = [json.loads(line) for line in
                  (out / "metrics.jsonl").read_text().splitlines()]
        assert logged[1]["skipped"] and logged[1]["anchor_reward"] is None
        dumped = [json.loads(line)["iteration"] for line in
                  (out / "trajectories.jsonl").read_text().splitlines()]
        assert sorted(set(dumped)) == [1, 3]


class TestApplyUpdate:
    def test_zero_gradient_leaves_params_unchanged(self, tiny_params):
        opt = Adam(tiny_params.layout.total)
        out = opt.apply(tiny_params, np.zeros(tiny_params.layout.total), lr=0.1)
        assert np.array_equal(out.values, tiny_params.values)

    def test_gradient_clipping_to_unit_norm(self):
        g = GradVector(np.full(100, 1.0))  # norm 10
        clipped, norm = clip_gradient(g, max_norm=1.0)
        assert norm == pytest.approx(10.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)

    def test_below_max_untouched(self):
        g = GradVector(np.array([0.3, -0.4]))
        clipped, norm = clip_gradient(g, max_norm=1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(clipped, g.values)

    def test_deterministic_updates(self, tiny_params):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=tiny_params.layout.total) for _ in range(4)]
        outs = []
        for _ in range(2):
            opt = Adam(tiny_params.layout.total)
            p = tiny_params.copy()
            for g in grads:
                p = opt.apply(p, g, lr=1e-2)
            outs.append(p.values)
        assert np.array_equal(outs[0], outs[1])


class TestEmaUpdate:
    def test_zero_decay_copies_params(self, tiny_params):
        ema = ema_update(snapshot(tiny_params), tiny_params, decay=0.0)
        assert np.array_equal(ema.values, tiny_params.values)

    def test_fixed_point(self, tiny_params):
        ema = ema_update(tiny_params, tiny_params, decay=0.9)
        np.testing.assert_allclose(ema.values, tiny_params.values, atol=1e-16)

    def test_geometric_convergence(self, tiny_params):
        target = tiny_params
        ema = snapshot(tiny_params)
        ema.values[:] = 0.0
        decay = 0.5
        prev_gap = np.linalg.norm(target.values)
        for k in range(1, 4):
            ema = ema_update(ema, target, decay)
            gap = np.linalg.norm(ema.values - target.values)
            # closed form: gap = decay^k * |target|
            assert gap == pytest.approx(decay ** k * np.linalg.norm(target.values),
                                        rel=1e-12)
            assert gap < prev_gap
            prev_gap = gap

    def test_invalid_decay(self, tiny_params):
        with pytest.raises(ValueError):
            ema_update(tiny_params, tiny_params, decay=1.0)


class TestTrainIteration:
    def test_guard_skip_leaves_params_bitwise(self):
        cfg = small_config(seed=5, max_iterations=40)
        state = init_state(cfg)
        skipped_seen = False
        for _ in range(40):
            before = state.params.values.copy()
            record = train_iteration(state, cfg)
            if record.skipped:
                skipped_seen = True
                assert np.array_equal(state.params.values, before)
                assert record.grad_norm == 0.0
            else:
                assert not np.array_equal(state.params.values, before)
        assert skipped_seen, "no guard fire in 40 iterations; adjust the seed"

    def test_single_epoch_ratios_are_one(self):
        cfg = small_config(seed=2)
        state = init_state(cfg)
        record = None
        for _ in range(10):
            record = train_iteration(state, cfg)
            if not record.skipped:
                break
        assert record is not None and not record.skipped
        np.testing.assert_allclose(record.per_branch_ratio, 1.0, atol=1e-12)

    def test_second_epoch_ratios_move(self):
        cfg = small_config(seed=2, ppo_epochs=2, learning_rate=0.05)
        state = init_state(cfg)
        for _ in range(10):
            record = train_iteration(state, cfg)
            if not record.skipped:
                break
        # the recorded breakdown is from the final epoch, after one update
        assert np.max(np.abs(np.array(record.per_branch_ratio) - 1.0)) > 1e-9

    def test_ppo_gradient_matches_pg_closed_form_at_ratio_one(self):
        # At the first epoch the clipped PPO gradient equals the gradient of
        # the unclipped empirical surrogate -(1/G) sum rho_g A_g, which in
        # closed form is (1/(G tau)) [sum_g A_g grad E_g
        #                             - (sum_g A_g) sum_k pi_k grad E_k].
        from kvgrpo import autodiff as ad
        from kvgrpo import policy
        from kvgrpo.autodiff import grad
        from kvgrpo.checks import make_instance
        from kvgrpo.policy import PolicyConfig, advantages, gibbs

        inst = make_instance(21)
        pcfg = PolicyConfig(beta=0.0, grad_steps=2)
        energies = np.array([float(e) for e in policy.surrogate_energies(
            inst.params, inst.group, inst.contexts, pcfg)])
        eval_old = gibbs(energies, pcfg.tau)
        eval_ref = gibbs(energies, pcfg.tau)
        adv = advantages(inst.rewards, pcfg.adv_clip_max)
        _, _, g, _ = policy.total_loss_grad(inst.params, inst.group, inst.contexts,
                                            eval_old, eval_ref, pcfg)
        # The old policy taken from the pass itself gives the same gradient.
        _, _, g_own, own_old = policy.total_loss_grad(
            inst.params, inst.group, inst.contexts, None, eval_ref, pcfg)
        np.testing.assert_array_equal(g_own.values, g.values)
        np.testing.assert_array_equal(own_old.log_probs, eval_old.log_probs)
        per_branch = []
        for b in inst.group.branches:
            _, gb = grad(inst.params, lambda r, br=b: ad.asum(policy.replay_energies(
                r, [br], inst.contexts, pcfg.grad_steps, pcfg.include_all_steps)))
            per_branch.append(gb.values)
        per_branch = np.array(per_branch)
        G, tau = len(per_branch), pcfg.tau
        mix = eval_old.probs @ per_branch
        expected = (adv @ per_branch - adv.sum() * mix) / (G * tau)
        assert rel_l2(g.values, expected) < 1e-10

    def test_seeds_advance_on_skip(self):
        from kvgrpo.trainer import iteration_seeds
        cfg = small_config()
        p1, s1 = iteration_seeds(cfg, 1)
        p2, s2 = iteration_seeds(cfg, 2)
        assert (p1, s1.noise, s1.routing) != (p2, s2.noise, s2.routing)

    def test_window_clipped_to_trajectory_end(self):
        cfg = small_config(perturbed_blocks=5, num_blocks=6, pivot_blocks=[6])
        state = init_state(cfg)
        record = train_iteration(state, cfg)
        assert record.window == 1


class TestRun:
    def test_zero_iterations_checkpoint_equals_init(self, tmp_path):
        from kvgrpo.checkpoint import load_checkpoint
        cfg = RunConfig(trainer=small_config(max_iterations=0),
                        out_dir=str(tmp_path / "run")).validate()
        result = run(cfg)
        init = load_checkpoint(tmp_path / "run" / "checkpoint_init.kvc")
        final = load_checkpoint(tmp_path / "run" / "checkpoint_final.kvc")
        assert np.array_equal(init.params.values, final.params.values)
        assert result.records == []

    def test_bit_reproducible_runs(self):
        cfg1 = RunConfig(trainer=small_config(max_iterations=6)).validate()
        cfg2 = RunConfig(trainer=small_config(max_iterations=6)).validate()
        r1, r2 = run(cfg1), run(cfg2)
        assert np.array_equal(r1.state.params.values, r2.state.params.values)
        assert [rec.anchor_reward for rec in r1.records] == \
            [rec.anchor_reward for rec in r2.records]

    def test_warmup_ramps_learning_rate(self):
        cfg = small_config(warmup_steps=5, learning_rate=1e-2, max_iterations=8)
        rates = [learning_rate_at(cfg, it) for it in range(1, 9)]
        np.testing.assert_allclose(
            rates, [0.002, 0.004, 0.006, 0.008, 0.01, 0.01, 0.01, 0.01])
        state = init_state(cfg)
        records = [train_iteration(state, cfg) for _ in range(8)]
        assert [r.learning_rate for r in records] == rates

    def test_surrogates_share_rollouts_then_diverge(self):
        replay_cfg = RunConfig(trainer=small_config(max_iterations=6,
                                                 surrogate="replay")).validate()
        l2_cfg = RunConfig(trainer=small_config(max_iterations=6,
                                                surrogate="latent_l2")).validate()
        r_replay, r_l2 = run(replay_cfg), run(l2_cfg)
        # identical first-iteration rollouts (same seeds, same initial params)
        assert r_replay.records[0].anchor_reward == r_l2.records[0].anchor_reward
        assert r_replay.records[0].branch_rewards == r_l2.records[0].branch_rewards
        # parameters diverge afterwards (l2 never updates, replay does)
        assert not np.array_equal(r_replay.state.params.values,
                                  r_l2.state.params.values)

    def test_l2_surrogate_keeps_params_frozen(self):
        cfg = RunConfig(trainer=small_config(max_iterations=5,
                                             surrogate="latent_l2")).validate()
        result = run(cfg)
        fresh = init_state(cfg.trainer)
        assert np.array_equal(result.state.params.values, fresh.params.values)

    def test_kl_nonnegative_throughout(self):
        cfg = RunConfig(trainer=small_config(max_iterations=10)).validate()
        result = run(cfg)
        assert all(rec.kl_value >= 0.0 for rec in result.records)

    def test_metrics_file_one_record_per_iteration(self, tmp_path):
        import json
        cfg = RunConfig(trainer=small_config(max_iterations=5),
                        out_dir=str(tmp_path / "m")).validate()
        run(cfg)
        lines = (tmp_path / "m" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 5
        rec = json.loads(lines[0])
        for key in ("iteration", "anchor_reward", "branch_rewards", "loss_total",
                    "kl_value", "grad_norm", "skipped", "wall_clock_s"):
            assert key in rec

    def test_dump_equals_reroll_at_entering_params(self, tmp_path):
        # Reference for the dump: re-roll each iteration's group from the
        # parameters entering that iteration and score it again.
        import json
        from kvgrpo.flow import GeneratorConfig
        from kvgrpo.routing import rollout_group
        from kvgrpo.trainer import iteration_seeds, score_group
        tcfg = small_config(max_iterations=5, routing_mode="per_block",
                            local_kv_choices=[[6, 3], [9, 6]])
        run(RunConfig(trainer=tcfg, out_dir=str(tmp_path / "d"),
                      dump_trajectories=True).validate())
        lines = (tmp_path / "d" / "trajectories.jsonl").read_text().splitlines()

        state = init_state(tcfg)
        expected, updated = [], 0
        for _ in range(tcfg.max_iterations):
            entering = state.params.copy()
            record = train_iteration(state, tcfg)
            updated += not record.skipped
            pivot, seeds = iteration_seeds(tcfg, record.iteration)
            group = rollout_group(
                entering, tcfg.prompt(), tcfg.num_blocks, pivot, record.window,
                tcfg.branch_number, seeds,
                GeneratorConfig(tcfg.frames_per_block, tcfg.denoise_steps,
                                tcfg.sink_size, tcfg.local_size),
                tuple(tuple(c) for c in tcfg.local_kv_choices), True)
            score_group(group, tcfg)
            for traj in group.all_trajectories():
                expected.append({
                    "iteration": record.iteration,
                    "branch_id": traj.branch_id,
                    "routing": list(traj.routing.indices) if traj.routing else None,
                    "reward": traj.reward,
                    "blocks": [b.frames.tolist() for b in traj.blocks],
                })
        assert updated, "no update in the run; the check would not see stale params"
        assert [json.loads(line) for line in lines] == expected

    def test_trajectory_dump(self, tmp_path):
        import json
        cfg = RunConfig(trainer=small_config(max_iterations=2),
                        out_dir=str(tmp_path / "t"),
                        dump_trajectories=True).validate()
        run(cfg)
        lines = (tmp_path / "t" / "trajectories.jsonl").read_text().splitlines()
        assert len(lines) == 2 * (4 + 1)  # branches + anchor per iteration
        rec = json.loads(lines[0])
        assert rec["branch_id"] == 0 and rec["routing"] is None
        assert json.loads(lines[1])["routing"] is not None

    def test_ema_tracks_params(self):
        cfg = RunConfig(trainer=small_config(max_iterations=6,
                                             ema_decay=0.5)).validate()
        result = run(cfg)
        gap = np.linalg.norm(result.state.ema.values - result.state.params.values)
        init_gap = np.linalg.norm(init_state(cfg.trainer).params.values
                                  - result.state.params.values)
        assert gap < init_gap
