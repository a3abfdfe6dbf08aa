"""Training loop: snapshots, optimizer, EMA, guard behavior, ratio identity,
warmup, and reproducibility."""

import contextlib
import errno
import gc
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kvgrpo.checks import make_instance, rel_l2
from kvgrpo.config import RunConfig, TrainerConfig
from kvgrpo.errors import ContractError, InsufficientHistoryError
from kvgrpo.flow import GeneratorConfig
from kvgrpo.network import NetworkShape, param_init
from kvgrpo.routing import RolloutGroup, RoutingDecision
from kvgrpo.trainer import (Adam, TrainerState, _dump_trajectories, _encode_group, _Sidecar,
                            clip_gradient, ema_update, init_state, learning_rate_at,
                            plan_iteration, run, train_iteration)


def small_config(**overrides) -> TrainerConfig:
    base = dict(seed=3, latent_dim=3, hidden_dim=5, prompt_dim=2, num_blocks=6,
                pivot_blocks=[5, 6], perturbed_blocks=2, branch_number=4,
                max_iterations=4)
    base.update(overrides)
    return TrainerConfig(**base).validate()


def has_mallopt() -> bool:
    import ctypes
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


class TestSnapshot:
    def test_snapshot_immune_to_mutation(self, tiny_params):
        snap = tiny_params.copy()
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

    @pytest.mark.parametrize("failing", [1, 2])
    def test_aborted_epoch_records_no_update(self, monkeypatch, failing):
        # A NumericalError in any PPO epoch leaves the record without energies,
        # ratios, losses or norm, not with those of an epoch that was rolled back.
        from kvgrpo import policy
        from kvgrpo.errors import NumericalError
        cfg = small_config(seed=2, ppo_epochs=2)
        state, real, calls = init_state(cfg), policy.total_loss_grad, []

        def epoch_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == failing:
                raise NumericalError("injected")
            return real(*args, **kwargs)

        monkeypatch.setattr(policy, "total_loss_grad", epoch_fails)
        while not calls:
            record = train_iteration(state, cfg)
        assert record.skipped and record.error == "injected" and len(calls) == failing
        assert record.branch_energies == record.per_branch_ratio == []
        assert (record.loss_ppo, record.kl_value, record.loss_total, record.grad_norm) == (
            0.0, 0.0, 0.0, 0.0)

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("settings,error", [
        (dict(reward_components=[["target", 1e308], ["smoothness", 1e308]]),
         "non-finite rewards"),
        (dict(kl_penalty_weight=1e308), "non-finite gradient norm"),
        (dict(temperature=1e-300), "non-finite gradient norm"),
    ], ids=["reward", "kl-weight", "temperature"])
    def test_non_finite_reward_or_norm_skips_iteration(self, tmp_path, settings, error):
        # -inf rewards, and finite gradient entries whose norm overflows, abort
        # the iteration as any numerical error does; the run writes strict JSON
        # and its final checkpoint, and no update reaches the parameters.
        import json
        from kvgrpo.checkpoint import load_checkpoint
        out = tmp_path / "r"
        cfg = RunConfig(trainer=TrainerConfig(max_iterations=5, **settings), out_dir=str(out),
                        dump_trajectories=True).validate()
        fresh = init_state(cfg.trainer).params.values
        result = run(cfg)
        assert all(r.skipped and r.error for r in result.records)
        assert error in [r.error for r in result.records]
        logged = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert [r["error"] for r in logged] == [r.error for r in result.records]
        # A group whose rewards are not finite never reaches the dump.
        dumped = {json.loads(line)["iteration"]
                  for line in (out / "trajectories.jsonl").read_text().splitlines()}
        assert not dumped & {r.iteration for r in result.records
                             if r.error == "non-finite rewards"}
        final = load_checkpoint(out / "checkpoint_final.kvc")
        assert final.params.values.tobytes() == final.ema.values.tobytes() == fresh.tobytes()
        assert result.state.opt.step == 0 and not result.state.opt.m.any()

    def test_rollout_error_skips_iteration(self, monkeypatch, tmp_path):
        # A NumericalError raised mid-rollout at iteration 2 of 3 skips that
        # iteration with no rewards, and the run goes on to its final checkpoint.
        import json
        from kvgrpo import network, trainer
        from kvgrpo.errors import NumericalError
        real_eval, real_rollout, rollouts = network.velocity_forward, trainer.rollout_group, []

        def counted_rollout(*args, **kwargs):
            rollouts.append(1)
            return real_rollout(*args, **kwargs)

        def second_rollout_fails(*args, **kwargs):
            if len(rollouts) == 2:
                raise NumericalError("injected rollout failure")
            return real_eval(*args, **kwargs)

        monkeypatch.setattr(trainer, "rollout_group", counted_rollout)
        monkeypatch.setattr(network, "velocity_forward", second_rollout_fails)
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
        g = np.full(100, 1.0)  # norm 10
        clipped, norm = clip_gradient(g, max_norm=1.0)
        assert norm == pytest.approx(10.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_norm_raises(self):
        from kvgrpo.errors import NumericalError
        with pytest.raises(NumericalError, match="non-finite gradient norm"):
            clip_gradient(np.full(4, 1e300), max_norm=1.0)

    def test_below_max_untouched(self):
        g = np.array([0.3, -0.4])
        clipped, norm = clip_gradient(g, max_norm=1.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(clipped, g)

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
        ema = ema_update(tiny_params.copy(), tiny_params, decay=0.0)
        assert np.array_equal(ema.values, tiny_params.values)

    def test_fixed_point(self, tiny_params):
        ema = ema_update(tiny_params, tiny_params, decay=0.9)
        np.testing.assert_allclose(ema.values, tiny_params.values, atol=1e-16)

    def test_geometric_convergence(self, tiny_params):
        target = tiny_params
        ema = tiny_params.copy()
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
            inst.params, inst.group, pcfg)])
        eval_old = gibbs(energies, pcfg.tau)
        eval_ref = gibbs(energies, pcfg.tau)
        adv = advantages(inst.group.rewards[1:], pcfg.adv_clip_max)
        _, _, g, _ = policy.total_loss_grad(inst.params, inst.group, eval_old, eval_ref, pcfg)
        # The old policy taken from the pass itself gives the same gradient.
        _, _, g_own, own_old = policy.total_loss_grad(
            inst.params, inst.group, None, eval_ref, pcfg)
        np.testing.assert_array_equal(g_own, g)
        np.testing.assert_array_equal(own_old.log_probs, eval_old.log_probs)
        per_branch = []
        for row in range(1, len(inst.group.frames)):
            _, gb = grad(inst.params, lambda r, row=row: ad.asum(policy.replay_energies(
                r, inst.group, [row], pcfg)))
            per_branch.append(gb)
        per_branch = np.array(per_branch)
        G, tau = len(per_branch), pcfg.tau
        mix = eval_old.probs @ per_branch
        expected = (adv @ per_branch - adv.sum() * mix) / (G * tau)
        assert rel_l2(g, expected) < 1e-10

    def test_call_budget_of_a_trained_default_iteration(self, monkeypatch):
        # The default config: the rollout's calls, then one value-only call at the
        # reference and one taped call per memory size, the rollout's weights read
        # once and the reference's taken from the caller.  A taped pass split into
        # a value-only and a taped call again fails here.
        from kvgrpo import network
        from kvgrpo.autodiff import TapeReader
        cfg = TrainerConfig().validate()
        state = init_state(cfg)
        ref_weights = network.Weights(state.ref)
        calls, reads = [], []
        real_forward, real_weights = network.velocity_forward, network.Weights.__init__
        monkeypatch.setattr(network, "velocity_forward",
                            lambda reader, *a: calls.append(reader) or real_forward(reader, *a))
        monkeypatch.setattr(network.Weights, "__init__",
                            lambda self, reader: reads.append(reader) or real_weights(self, reader))
        for _ in range(10):
            calls.clear(), reads.clear()
            entering = state.params
            record = train_iteration(state, cfg, None, ref_weights)
            if not record.skipped:
                break
        assert not record.skipped and record.error is None
        sizes = len(set(state.group.contexts.sizes.tolist()))
        kinds = ["rollout" if r is entering else "reference" if r is state.ref
                 else "taped" if isinstance(r, TapeReader) and r.params is entering else r
                 for r in calls]
        assert kinds == (["rollout"] * (cfg.num_blocks * cfg.denoise_steps)
                         + ["reference"] * sizes + ["taped"] * sizes)
        assert reads == [entering]

    def test_a_run_reads_the_reference_weights_once(self, monkeypatch):
        from kvgrpo import network
        cfg = small_config(max_iterations=5)
        reads, real_weights = [], network.Weights.__init__
        monkeypatch.setattr(network.Weights, "__init__",
                            lambda self, reader: reads.append(1) or real_weights(self, reader))
        run(RunConfig(trainer=cfg).validate())
        assert len(reads) == cfg.max_iterations + 1  # each rollout's, and the reference's

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
        from kvgrpo.routing import plan_rollout, rollout_group
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
            gen_cfg = GeneratorConfig(tcfg.frames_per_block, tcfg.denoise_steps,
                                      tcfg.sink_size, tcfg.local_size)
            plan = plan_rollout(tcfg.num_blocks, pivot, record.window, tcfg.branch_number,
                                seeds, gen_cfg, tcfg.latent_dim,
                                tuple(tuple(c) for c in tcfg.local_kv_choices), True)
            group = rollout_group(entering, tcfg.prompt(), gen_cfg, pivot, record.window, plan)
            score_group(group, tcfg)
            for g, routing in enumerate(group.routings):
                expected.append({
                    "iteration": record.iteration,
                    "branch_id": g,
                    "routing": list(routing.indices) if routing else None,
                    "reward": float(group.rewards[g]),
                    "blocks": group.frames[g].reshape(
                        tcfg.num_blocks, tcfg.frames_per_block, -1).tolist(),
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

    @pytest.mark.skipif(not has_mallopt(), reason="libc has no mallopt, so run() "
                        "leaves the allocator's thresholds as they are")
    def test_iterations_do_not_refault_their_temporaries(self):
        # Freed temporaries stay on the heap: a fresh process at replay-grad's
        # settings takes ~300 minor faults per iteration without that, ~3 with it.
        code = """if True:
            import resource
            from kvgrpo.config import RunConfig, TrainerConfig
            from kvgrpo.trainer import run
            faults = {}
            def on_record(record):
                if record.iteration in (10, 30):
                    faults[record.iteration] = resource.getrusage(
                        resource.RUSAGE_SELF).ru_minflt
            run(RunConfig(TrainerConfig(grad_replay_steps=4, ppo_epochs=2,
                                        max_iterations=30)).validate(), on_record)
            print((faults[30] - faults[10]) / 20)
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) < 50


EXPLORE_WIDE = dict(branch_number=16, local_kv_choices=[[6, 3], [9, 6], [12, 9]],
                    routing_mode="per_block", surrogate="latent_l2")


def recorded_forks(monkeypatch) -> list[int]:
    """The pids of the children forked from now on, as the parent sees them."""
    pids, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def children(pid: int) -> list[int]:
    """Processes whose parent is ``pid`` and that have not exited, read from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        try:
            state, parent = (entry / "stat").read_text().rpartition(")")[2].split()[:2]
        except (OSError, ValueError):
            continue
        if entry.name.isdigit() and int(parent) == pid and state != "Z":
            found.append(int(entry.name))
    return found


def outcomes(records):
    return [{k: v for k, v in r.to_json().items() if not k.endswith("_s")} for r in records]


class TestPlanner:
    @pytest.mark.parametrize("overrides", [{}, EXPLORE_WIDE], ids=["default", "explore-wide"])
    def test_run_equals_a_loop_that_plans_inline(self, overrides, monkeypatch):
        cfg = RunConfig(trainer=TrainerConfig(seed=5, max_iterations=8, **overrides)).validate()
        pids = recorded_forks(monkeypatch)
        result = run(cfg)
        assert len(pids) == 1 and reaped(pids[0])
        state = init_state(cfg.trainer)
        records = [train_iteration(state, cfg.trainer) for _ in range(8)]
        assert outcomes(result.records) == outcomes(records)
        assert result.state.params.values.tobytes() == state.params.values.tobytes()
        assert result.state.ema.values.tobytes() == state.ema.values.tobytes()

    def test_plan_of_another_iteration_rejected(self):
        # A refused plan leaves the state as it was: the right plan then gives
        # the record a fresh state gives.
        cfg = small_config()
        state = init_state(cfg)
        params = state.params.values.tobytes()
        with pytest.raises(ContractError, match="plan of iteration 2 reached iteration 1"):
            train_iteration(state, cfg, plan_iteration(cfg, 2))
        assert state.iteration == 0 and state.params.values.tobytes() == params
        record = train_iteration(state, cfg, plan_iteration(cfg, 1))
        assert outcomes([record]) == outcomes([train_iteration(init_state(cfg), cfg)])

    def test_planning_error_raised_at_its_iteration(self, monkeypatch, tmp_path):
        from kvgrpo import trainer
        real_plan = trainer.plan_iteration

        def plan(cfg, iteration):
            if iteration == 3:
                raise InsufficientHistoryError("injected at iteration 3")
            return real_plan(cfg, iteration)

        monkeypatch.setattr(trainer, "plan_iteration", plan)
        pids = recorded_forks(monkeypatch)
        out = tmp_path / "p"
        with pytest.raises(InsufficientHistoryError, match="injected at iteration 3"):
            run(RunConfig(trainer=small_config(max_iterations=6), out_dir=str(out)).validate())
        assert len((out / "metrics.jsonl").read_text().splitlines()) == 2
        assert len(pids) == 1 and reaped(pids[0])

    def test_killed_planner_raises_instead_of_hanging(self, monkeypatch):
        pids = recorded_forks(monkeypatch)

        def kill_planner(record):
            if record.iteration == 2:
                os.kill(pids[0], signal.SIGKILL)

        # Far more iterations than the pipe can hold plans for.
        cfg = RunConfig(trainer=small_config(max_iterations=100_000)).validate()
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="sidecar process") as raised:
            run(cfg, on_record=kill_planner)
        assert time.monotonic() - started < 60
        assert f"process {pids[0]} died" in str(raised.value)
        assert reaped(pids[0])

    def test_iteration_1_is_planned_by_the_parent(self, monkeypatch):
        from kvgrpo import trainer
        real_plan, parent, in_parent = trainer.plan_iteration, os.getpid(), []

        def plan(cfg, iteration):
            if os.getpid() == parent:
                in_parent.append(iteration)
            elif iteration < 2:
                raise AssertionError(f"the sidecar planned iteration {iteration}")
            return real_plan(cfg, iteration)

        monkeypatch.setattr(trainer, "plan_iteration", plan)
        result = run(RunConfig(trainer=small_config(max_iterations=5)).validate())
        assert len(result.records) == 5 and in_parent == [1]

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_interrupted_train_leaves_no_planner(self, tmp_path):
        interrupt_train(tmp_path / "run")

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_interrupted_dumping_train_leaves_no_sidecar(self, tmp_path):
        out = tmp_path / "run"
        interrupt_train(out, "--set", "dump_trajectories=true")
        records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
        assert records
        assert dumped_groups(out) == [r["iteration"] for r in records
                                      if r["anchor_reward"] is not None]


def interrupt_train(out: Path, *settings: str) -> None:
    """Ctrl-C a ``kvgrpo train`` process group once it has written two records;
    it must exit by ``KeyboardInterrupt`` and leave its sidecar reaped."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    # -X faulthandler: on SIGABRT the trainer and its forked sidecar dump their stacks.
    command = [sys.executable, "-X", "faulthandler", "-m", "kvgrpo.cli", "--seed", "3",
               "--out-dir", str(out), "--set", "num_blocks=6", "--set", "pivot_blocks=[5, 6]",
               *settings, "train", "--max-iters", "100000"]
    # Its own process group, which Ctrl-C signals as a whole.
    proc = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        deadline = time.monotonic() + 60
        while not ((out / "metrics.jsonl").exists()
                   and (out / "metrics.jsonl").read_text().count("\n") >= 2):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.05)
        sidecars = children(proc.pid)
        os.kill(sidecars[0], signal.SIGINT)  # the sidecar alone ignores it
        time.sleep(0.5)
        assert children(proc.pid) == sidecars
        os.killpg(proc.pid, signal.SIGINT)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGABRT)
            _, err = proc.communicate(timeout=60)
            pytest.fail("kvgrpo train did not exit within 60 s of Ctrl-C; its stderr, with "
                        "every process's Python stacks:\n" + err.decode(errors="replace"))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert len(sidecars) == 1
    assert proc.returncode == -signal.SIGINT and b"KeyboardInterrupt" in err
    with pytest.raises(ProcessLookupError):
        os.kill(sidecars[0], 0)


def dumped_groups(out: Path) -> list[int]:
    """The iteration of each group in a run's ``trajectories.jsonl``, in order;
    every group starts with its anchor."""
    lines = [json.loads(line) for line in (out / "trajectories.jsonl").read_text().splitlines()]
    return [line["iteration"] for line in lines if line["branch_id"] == 0]


def dumping_config(out: Path, **overrides) -> RunConfig:
    return RunConfig(trainer=small_config(**overrides), out_dir=str(out),
                     dump_trajectories=True).validate()


def usable_cpus() -> set[int]:
    """This thread's CPUs, if it may pin itself; else none."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()


needs_affinity = pytest.mark.skipif(not usable_cpus(), reason="needs os.sched_setaffinity")
needs_two_cpus = pytest.mark.skipif(
    len(usable_cpus()) < 2,
    reason="the sidecar is pinned only when this thread has two or more CPUs")


def run_outputs(out: Path, result) -> tuple:
    """A run's metrics less their timings, its final weights and its dump, as bytes."""
    metrics = [{k: v for k, v in json.loads(line).items() if not k.endswith("_s")}
               for line in (out / "metrics.jsonl").read_text().splitlines()]
    return (metrics, result.state.params.values.tobytes(), result.state.ema.values.tobytes(),
            (out / "trajectories.jsonl").read_bytes())


class TestSidecar:
    def test_every_checkpoint_sees_every_group(self, monkeypatch, tmp_path):
        from kvgrpo import trainer
        real_save, seen = trainer.save_checkpoint, []

        def save(path, params, config, iteration, ema):
            records = [json.loads(line) for line in
                       (tmp_path / "metrics.jsonl").read_text().splitlines()]
            assert dumped_groups(tmp_path) == [r["iteration"] for r in records
                                               if r["anchor_reward"] is not None]
            seen.append(iteration)
            return real_save(path, params, config, iteration, ema)

        monkeypatch.setattr(trainer, "save_checkpoint", save)
        cfg = RunConfig(trainer=TrainerConfig(seed=0, max_iterations=9, **EXPLORE_WIDE),
                        out_dir=str(tmp_path), checkpoint_every=2,
                        dump_trajectories=True).validate()
        run(cfg)
        assert seen == [0, 2, 4, 6, 8, 9] and dumped_groups(tmp_path) == list(range(1, 10))

    def test_killed_sidecar_raises_instead_of_hanging(self, monkeypatch, tmp_path):
        pids = recorded_forks(monkeypatch)

        def kill_sidecar(record):
            if record.iteration == 2:
                os.kill(pids[0], signal.SIGKILL)

        started = time.monotonic()
        with pytest.raises(RuntimeError, match="sidecar process") as raised:
            run(dumping_config(tmp_path, max_iterations=100_000), on_record=kill_sidecar)
        assert time.monotonic() - started < 60
        assert f"process {pids[0]} died" in str(raised.value)
        assert len(pids) == 1 and reaped(pids[0])

    def test_encoder_error_in_the_sidecar_is_raised(self, monkeypatch, tmp_path):
        from kvgrpo import trainer
        real_encode = trainer._encode_group

        def encode(iteration, *rest):
            if iteration == 3:
                raise OSError("injected write failure")
            return real_encode(iteration, *rest)

        monkeypatch.setattr(trainer, "_encode_group", encode)
        pids = recorded_forks(monkeypatch)
        with pytest.raises(RuntimeError, match="sidecar process .*injected write failure"):
            run(dumping_config(tmp_path, max_iterations=40))
        assert dumped_groups(tmp_path) == [1, 2]
        assert len(pids) == 1 and reaped(pids[0])

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer runs inline without fork")
    def test_writer_that_cannot_report_still_ends_the_sidecar(self, tmp_path):
        # The writer fails and so does its report on the acks pipe: the child must
        # still exit, or the parent's barrier waits on the pipe forever.  Both
        # patches are inherited by the fork and act in the child only.  In a
        # subprocess under a timeout, so that a hang fails instead of stalling.
        code = f"""if True:
            import os
            from kvgrpo import trainer
            from kvgrpo.config import RunConfig, TrainerConfig
            parent, real_write = os.getpid(), os.write

            def encode(*args):
                if os.getpid() != parent:
                    raise OSError("injected write failure")

            def write(fd, data):
                if os.getpid() != parent:
                    raise OSError("injected acks failure")
                return real_write(fd, data)

            trainer._encode_group, os.write = encode, write
            cfg = TrainerConfig(seed=3, latent_dim=3, hidden_dim=5, prompt_dim=2, num_blocks=6,
                                pivot_blocks=[5, 6], perturbed_blocks=2, branch_number=4,
                                max_iterations=100_000)  # more plans than the socket holds
            try:
                trainer.run(RunConfig(trainer=cfg, out_dir={str(tmp_path)!r}, checkpoint_every=2,
                                      dump_trajectories=True).validate())
            except RuntimeError as exc:
                print(exc)
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                print("no child left")
        """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2 and "sidecar process" in lines[0] and "died" in lines[0], lines
        assert lines[1] == "no child left"

    def test_non_finite_frame_raises_in_the_parent(self, monkeypatch, tmp_path):
        from kvgrpo import trainer
        real_dump, real_encode = trainer._dump_trajectories, trainer._encode_group

        def dump(send, group, record):
            if record.iteration == 3:
                group.frames[1, -1, 0] = np.nan
            return real_dump(send, group, record)

        def slow_encode(iteration, *rest):
            time.sleep(0.3 if iteration == 2 else 0)  # still writing when the parent raises
            return real_encode(iteration, *rest)

        monkeypatch.setattr(trainer, "_dump_trajectories", dump)
        monkeypatch.setattr(trainer, "_encode_group", slow_encode)
        pids = recorded_forks(monkeypatch)
        with pytest.raises(ValueError, match="JSON cannot encode"):
            run(dumping_config(tmp_path, max_iterations=6))
        assert dumped_groups(tmp_path) == [1, 2]
        assert len((tmp_path / "metrics.jsonl").read_text().splitlines()) == 3
        assert len(pids) == 1 and reaped(pids[0])

    def test_failed_fork_raises_and_closes_its_descriptors(self, monkeypatch, tmp_path):
        # fork() failing for lack of processes or memory fails the run, with the
        # socketpair and the pipe opened for the child closed, not left to leak.
        def no_fork():
            raise OSError(errno.EAGAIN, "injected fork failure")

        monkeypatch.setattr(os, "fork", no_fork)
        before = sorted(os.listdir("/dev/fd"))
        with pytest.raises(OSError, match="injected fork failure"):
            run(dumping_config(tmp_path / "r", max_iterations=2))
        gc.collect()  # an unclosed socket warns when collected
        assert sorted(os.listdir("/dev/fd")) == before

    @needs_two_cpus
    def test_sidecar_and_loop_run_on_separate_cpus(self, monkeypatch, tmp_path):
        cpus, seen = usable_cpus(), []
        pids = recorded_forks(monkeypatch)

        def look(record):
            if record.iteration >= 2:  # plan 2 was sent after the writer started
                threads = os.listdir(f"/proc/{pids[0]}/task")
                seen.append((os.sched_getaffinity(0),
                             [os.sched_getaffinity(int(t)) for t in threads]))

        run(dumping_config(tmp_path, max_iterations=4), on_record=look)
        top = max(cpus)
        assert seen == [(cpus - {top}, [{top}, {top}])] * 3  # the main and writer threads
        assert os.sched_getaffinity(0) == cpus

    @needs_two_cpus
    @pytest.mark.parametrize("ending", ["return", "killed", "interrupt", "fork"])
    def test_loop_gets_its_cpus_back(self, ending, monkeypatch, tmp_path):
        cpus, narrowed = usable_cpus(), []
        pids = recorded_forks(monkeypatch)

        def on_record(record):
            narrowed.append(os.sched_getaffinity(0) == cpus - {max(cpus)})
            if ending == "killed" and record.iteration == 2:
                os.kill(pids[0], signal.SIGKILL)
            if ending == "interrupt" and record.iteration == 2:
                raise KeyboardInterrupt

        def no_fork():
            narrowed.append(os.sched_getaffinity(0) == cpus - {max(cpus)})
            raise OSError(errno.EAGAIN, "injected fork failure")

        if ending == "fork":
            monkeypatch.setattr(os, "fork", no_fork)
        raised = {"return": contextlib.nullcontext(),
                  "killed": pytest.raises(RuntimeError, match="sidecar process"),
                  "interrupt": pytest.raises(KeyboardInterrupt),
                  "fork": pytest.raises(OSError, match="injected fork failure")}[ending]
        with raised:
            run(dumping_config(tmp_path, max_iterations=4 if ending == "return" else 100_000),
                on_record=on_record)
        assert narrowed and all(narrowed)
        assert os.sched_getaffinity(0) == cpus

    @needs_affinity
    def test_one_cpu_pins_nothing(self, monkeypatch, tmp_path):
        cpus, real_pin, calls, seen = usable_cpus(), os.sched_setaffinity, [], []
        one = {min(cpus)}
        real_pin(0, one)
        try:
            monkeypatch.setattr(os, "sched_setaffinity",
                                lambda pid, mask: (calls.append(mask), real_pin(pid, mask)))
            pids = recorded_forks(monkeypatch)
            run(dumping_config(tmp_path, max_iterations=3), on_record=lambda record: seen.append(
                (os.sched_getaffinity(0), os.sched_getaffinity(pids[0]))))
        finally:
            real_pin(0, cpus)
        assert calls == [] and seen == [(one, one)] * 3

    @needs_affinity
    def test_failed_pinning_changes_no_output(self, monkeypatch, tmp_path):
        # sched_setaffinity refused on both sides: the run goes on, unpinned.
        def refuse(pid, mask):
            raise OSError(errno.EINVAL, "injected affinity failure")

        cpus, outputs, kept = usable_cpus(), {}, []
        for name in ("pinned", "refused", "unpinned"):
            if name == "refused":
                monkeypatch.setattr(os, "sched_setaffinity", refuse)
            elif name == "unpinned":
                monkeypatch.delattr(os, "sched_setaffinity")
            out = tmp_path / name
            result = run(dumping_config(out, max_iterations=6), on_record=lambda record: kept.append(
                name != "refused" or os.sched_getaffinity(0) == cpus))
            outputs[name] = run_outputs(out, result)
        assert all(kept) and len(kept) == 18
        assert outputs["refused"] == outputs["unpinned"] == outputs["pinned"]
        assert dumped_groups(tmp_path / "refused") == list(range(1, 7))

    def test_dump_without_fork_is_byte_identical(self, monkeypatch, tmp_path):
        run(dumping_config(tmp_path / "forked", max_iterations=6))
        monkeypatch.delattr(os, "fork")
        run(dumping_config(tmp_path / "inline", max_iterations=6))
        forked, inline = ((tmp_path / d / "trajectories.jsonl").read_bytes()
                          for d in ("forked", "inline"))
        assert forked == inline and dumped_groups(tmp_path / "inline") == list(range(1, 7))


def reference_dump(fh, group, record):
    """The per-trajectory encoder that the shared-prefix dump replaced: its
    bytes are the dump's contract."""
    F, d = group.gen_cfg.frames_per_block, group.frames.shape[-1]
    for g, (routing, reward) in enumerate(zip(group.routings, group.rewards.tolist())):
        fh.write(json.dumps({
            "iteration": record.iteration,
            "branch_id": g,
            "routing": list(routing.indices) if routing else None,
            "reward": reward,
            "blocks": group.frames[g].reshape(-1, F, d).tolist(),
        }, allow_nan=False) + "\n")
    fh.flush()


class RecordingFile(io.StringIO):
    """A text file that counts its writes and flushes."""

    def __init__(self):
        super().__init__()
        self.writes = self.flushes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)

    def flush(self):
        self.flushes += 1


def hand_group(pivot: int, rows: int = 3, num_blocks: int = 4, F: int = 2,
               d: int = 3) -> RolloutGroup:
    """A group built without a rollout: random frames, equal before the pivot."""
    rng = np.random.default_rng(pivot)
    frames = rng.normal(size=(rows, num_blocks * F, d))
    frames[:, :(pivot - 1) * F] = frames[0, :(pivot - 1) * F]
    routings = tuple(None if g == 0 else RoutingDecision((4 + g, 6 + g), 3)
                     for g in range(rows))
    return RolloutGroup(pivot, 1, np.zeros(2), GeneratorConfig(frames_per_block=F), frames,
                        history=None, replay=None, routings=routings,
                        rewards=-0.25 * np.arange(rows))


EXPLORE_WIDE = dict(branch_number=16, local_kv_choices=[[6, 3], [9, 6], [12, 9]],
                    routing_mode="per_block", surrogate="latent_l2")


class TestTrajectoryDump:
    @pytest.mark.parametrize("overrides", [EXPLORE_WIDE, {}],
                             ids=["explore-wide", "default"])
    def test_file_bytes_equal_per_trajectory_encoder(self, overrides, tmp_path,
                                                     monkeypatch):
        from kvgrpo import trainer
        expected, pivots = io.StringIO(), []

        def both(fh, group, record):
            reference_dump(expected, group, record)
            pivots.append(group.pivot_block)
            _dump_trajectories(fh, group, record)

        monkeypatch.setattr(trainer, "_dump_trajectories", both)
        cfg = TrainerConfig(seed=0, max_iterations=8, **overrides).validate()
        run(RunConfig(trainer=cfg, out_dir=str(tmp_path),
                      dump_trajectories=True).validate())
        assert sorted(set(pivots)) == [5, 6, 7]  # every prefix length of the config
        assert ((tmp_path / "trajectories.jsonl").read_bytes()
                == expected.getvalue().encode())

    @pytest.mark.parametrize("pivot", [1, 2, 4])
    def test_hand_built_group_encodes_as_per_trajectory(self, pivot):
        group, sent, expected = hand_group(pivot), [], io.StringIO()
        record = SimpleNamespace(iteration=7)
        _dump_trajectories(sent.append, group, record)
        reference_dump(expected, group, record)
        assert len(sent) == 1 and _encode_group(*sent[0]) == expected.getvalue()
        lines = expected.getvalue().splitlines()
        assert [json.loads(line)["branch_id"] for line in lines] == [0, 1, 2]
        # An empty prefix leaves no separator before the first block.
        assert all('"blocks": [[[' in line for line in lines)

    def test_inline_dump_is_one_write_and_one_flush(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        fh, sent = RecordingFile(), []
        _dump_trajectories(sent.append, hand_group(2), SimpleNamespace(iteration=7))
        _Sidecar(small_config(), fh).dump(sent[0])
        assert (fh.writes, fh.flushes) == (1, 1)
        assert fh.getvalue() == _encode_group(*sent[0])

    @pytest.mark.parametrize("row, frame", [(1, 0), (2, 7), (8, 14)])
    def test_prefix_mismatch_raises_and_writes_nothing(self, row, frame):
        group = make_instance(seed=3).group   # pivot 6: frames 0-14 are the prefix
        group.frames[row, frame, 1] += 1e-12
        sent = []
        with pytest.raises(ContractError):
            _dump_trajectories(sent.append, group, SimpleNamespace(iteration=1))
        assert sent == []

    @pytest.mark.parametrize("rows, frame", [(slice(None), 3), (slice(0, 1), 16),
                                             (slice(8, 9), 17), (slice(2, 3), 4)],
                             ids=["shared-prefix", "anchor-tail", "branch-tail",
                                  "one-row-prefix"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_frame_raises_and_writes_nothing(self, rows, frame, value):
        group = make_instance(seed=3).group
        group.frames[rows, frame, 0] = value
        sent = []
        with pytest.raises(ValueError):
            _dump_trajectories(sent.append, group, SimpleNamespace(iteration=1))
        assert sent == []
