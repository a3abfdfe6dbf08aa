"""Config round-trips, override handling, checkpoint format, and the CLI."""

import json

import numpy as np
import pytest

from kvgrpo.checkpoint import load_checkpoint, save_checkpoint
from kvgrpo.cli import main
from kvgrpo.config import (PRESETS, RunConfig, TrainerConfig, apply_overrides,
                           from_flat_dict, load_config, save_config,
                           to_flat_dict)
from kvgrpo.errors import ConfigError
from kvgrpo.network import NetworkShape, param_init


def small_run_config(tmp_path=None, **overrides) -> RunConfig:
    trainer = dict(seed=3, latent_dim=3, hidden_dim=5, prompt_dim=2, num_blocks=6,
                   pivot_blocks=[5, 6], perturbed_blocks=2, branch_number=4,
                   max_iterations=2)
    trainer.update(overrides)
    cfg = RunConfig(trainer=TrainerConfig(**trainer))
    if tmp_path is not None:
        cfg.out_dir = str(tmp_path / "out")
    return cfg.validate()


def write_small_config(tmp_path, **overrides):
    cfg = small_run_config(tmp_path, **overrides)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    return path


class TestConfig:
    def test_roundtrip_identity(self, tmp_path):
        cfg = small_run_config(tmp_path)
        path = tmp_path / "c.json"
        save_config(cfg, path)
        again = load_config(path)
        assert to_flat_dict(again) == to_flat_dict(cfg)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            from_flat_dict({"branch_numberz": 8})

    def test_override_parsing(self):
        cfg = small_run_config()
        out = apply_overrides(cfg, ["kl_penalty_weight=2.5",
                                    "pivot_blocks=[5]",
                                    "surrogate=latent_l2"])
        assert out.trainer.kl_penalty_weight == 2.5
        assert out.trainer.pivot_blocks == [5]
        assert out.trainer.surrogate == "latent_l2"

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            apply_overrides(small_run_config(), ["not_a_key=1"])

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides(small_run_config(), ["just-a-flag"])

    def test_missing_file_names_path(self, tmp_path):
        with pytest.raises(ConfigError, match="nowhere.json"):
            load_config(tmp_path / "nowhere.json")

    @pytest.mark.parametrize("bad", [
        {"temperature": 0.0},
        {"clip_eps_low": 1.5},
        {"ema_decay": 1.0},
        {"routing_mode": "chaotic"},
        {"surrogate": "cosine"},
        {"grad_replay_steps": 9},
        {"pivot_blocks": [40]},
        {"prompt_values": [1.0]},          # wrong length for prompt_dim=2
        {"reward_target_values": [0.0]},   # wrong length for latent_dim=3
        {"reward_components": [["sharpness", 1.0]]},
        {"local_kv_choices": [[30, 6]]},   # never routable at the pivots
    ])
    def test_field_validation(self, bad):
        with pytest.raises(ConfigError):
            small_run_config(**bad)

    def test_presets_cover_required_axes(self):
        assert len(PRESETS["surrogate"]) == 2
        assert len(PRESETS["kl-weight"]) == 6
        assert [o["kl_penalty_weight"] for _, o in PRESETS["kl-weight"]] == \
            [0.0, 1.0, 3.0, 5.0, 10.0, 20.0]
        assert len(PRESETS["solver-steps"]) == 4
        assert len(PRESETS["perturbed-blocks"]) == 3
        assert len(PRESETS["routed-slots"]) == 3
        assert len(PRESETS["local-kv"]) == 2

    def test_default_config_mirrors_published_hyperparameters(self):
        cfg = TrainerConfig()
        assert cfg.branch_number == 8
        assert cfg.perturbed_blocks == 5
        assert cfg.denoise_steps == 4
        assert cfg.grad_replay_steps == 2
        assert (cfg.clip_eps_low, cfg.clip_eps_high) == (0.1, 0.2)
        assert cfg.advantage_clip_max == 2.5
        assert cfg.kl_penalty_weight == 5.0
        assert cfg.ppo_epochs == 1
        assert cfg.max_grad_norm == 1.0
        assert cfg.ema_decay == 0.999
        assert cfg.warmup_steps == 5
        assert cfg.sink_size == 3
        assert cfg.local_size == 9
        assert cfg.frames_per_block == 3


class TestCheckpoint:
    def test_roundtrip_bitwise(self, tmp_path):
        params = param_init(NetworkShape(3, 5, 2), 9)
        ema = param_init(NetworkShape(3, 5, 2), 10)
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, params, {"seed": 3}, iteration=7, ema=ema)
        data = load_checkpoint(path)
        assert np.array_equal(data.params.values, params.values)
        assert np.array_equal(data.ema.values, ema.values)
        assert data.iteration == 7
        assert data.config == {"seed": 3}
        assert data.params.layout == params.layout

    def test_no_ema(self, tmp_path):
        params = param_init(NetworkShape(3, 5, 2), 9)
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, params, {}, 0, None)
        assert load_checkpoint(path).ema is None

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.kvc"
        path.write_bytes(b"NOTHING-TO-SEE-HERE")
        with pytest.raises(ConfigError, match="magic"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, capsys):
        params = param_init(NetworkShape(3, 5, 2), 9)
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, params, {}, 0, None)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[12:16], "little")
        header = blob[16:16 + header_len]
        faults = {
            "values cut": (blob[:-16], "truncated"),
            "header length past the end": (
                blob[:12] + (len(blob) + 1).to_bytes(4, "little") + blob[16:], "truncated"),
            "cut inside the header": (blob[:16 + header_len // 2], "truncated"),
            "header not UTF-8": (blob[:16] + b"\xff" * header_len + blob[16 + header_len:],
                                 "corrupt"),
            "header not JSON": (blob[:16] + b"{" * header_len + blob[16 + header_len:],
                                "corrupt"),
            "header key missing": (
                blob[:16] + header.replace(b'"has_ema"', b'"has_em_"') + blob[16 + header_len:],
                "corrupt"),
        }
        for fault, (data, message) in faults.items():
            path.write_bytes(data)
            with pytest.raises(ConfigError, match=message):
                load_checkpoint(path)
            assert main(["inspect", str(path)]) == 1, fault
            assert "configuration error" in capsys.readouterr().err


class TestCli:
    def test_missing_config_exits_one(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.json"), "train"])
        assert code == 1
        assert "absent.json" in capsys.readouterr().err

    def test_train_zero_iters_writes_initial_checkpoint(self, tmp_path, capsys):
        cfg_path = write_small_config(tmp_path)
        out = tmp_path / "run0"
        code = main(["--config", str(cfg_path), "--out-dir", str(out),
                     "train", "--max-iters", "0"])
        assert code == 0
        init = load_checkpoint(out / "checkpoint_init.kvc")
        final = load_checkpoint(out / "checkpoint_final.kvc")
        assert np.array_equal(init.params.values, final.params.values)

    def test_train_writes_metrics_per_iteration(self, tmp_path):
        cfg_path = write_small_config(tmp_path)
        out = tmp_path / "run1"
        code = main(["--config", str(cfg_path), "--out-dir", str(out), "train"])
        assert code == 0
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        saved = load_config(out / "config.json")
        assert saved.trainer.seed == 3

    def test_train_writes_config_before_a_crash(self, tmp_path, capsys, monkeypatch):
        import kvgrpo.trainer as trainer

        def crash(cfg, on_record=None):
            raise RuntimeError("injected crash")

        monkeypatch.setattr(trainer, "run", crash)
        cfg_path = write_small_config(tmp_path)
        out = tmp_path / "crashed"
        code = main(["--config", str(cfg_path), "--out-dir", str(out), "train"])
        assert code == 3
        assert "injected crash" in capsys.readouterr().err
        assert load_config(out / "config.json").trainer.seed == 3

    def test_unknown_override_exits_one(self, tmp_path, capsys):
        cfg_path = write_small_config(tmp_path)
        code = main(["--config", str(cfg_path), "--set", "bogus=1", "train"])
        assert code == 1
        assert "bogus" in capsys.readouterr().err

    def test_gradcheck_passes_and_reports(self, capsys, monkeypatch):
        import kvgrpo.checks as checks
        monkeypatch.setattr(checks, "run_gradient_checks",
                            lambda seed: checks.GradCheckReport(
                                energy_max_rel=1e-9, total_max_rel=1e-9,
                                identity_max_rel=1e-12, instances=1))
        code = main(["gradcheck"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max rel err" in out and "passed" in out

    def test_gradcheck_real_small_run(self, capsys):
        code = main(["--set", "seed=1", "gradcheck"])
        assert code == 0
        assert "all gradient checks passed" in capsys.readouterr().out

    def test_gradcheck_detects_injected_bad_backward(self, capsys, monkeypatch):
        # Negative control: corrupt the network's backward and expect exit 2.
        import kvgrpo.network as network
        true_vjp = network._vjp

        def bad_vjp(*args):
            return tuple(0.9 * g for g in true_vjp(*args))

        monkeypatch.setattr(network, "_vjp", bad_vjp)
        assert main(["gradcheck"]) == 2
        assert "FAILED" in capsys.readouterr().out

    def test_gradcheck_reports_are_reproducible(self, capsys):
        from kvgrpo.checks import run_gradient_checks
        a = run_gradient_checks(seed=4, instances=2, identity_instances=3)
        b = run_gradient_checks(seed=4, instances=2, identity_instances=3)
        assert a.energy_max_rel == b.energy_max_rel
        assert a.total_max_rel == b.total_max_rel
        assert a.identity_max_rel == b.identity_max_rel

    def test_ablate_unknown_preset_lists_available(self, tmp_path, capsys):
        cfg_path = write_small_config(tmp_path)
        code = main(["--config", str(cfg_path), "ablate", "made-up"])
        assert code == 1
        out = capsys.readouterr().out
        assert "surrogate" in out and "kl-weight" in out

    def test_ablate_surrogate_runs_two_variants(self, tmp_path, capsys):
        cfg_path = write_small_config(tmp_path)
        out_dir = tmp_path / "ab"
        code = main(["--config", str(cfg_path), "--out-dir", str(out_dir),
                     "ablate", "surrogate", "--max-iters", "2"])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [s["variant"] for s in summary] == ["replay", "latent-l2"]
        assert all(s["iterations"] == 2 for s in summary)
        for s in summary:
            assert (out_dir / s["variant"] / "metrics.jsonl").exists()

    @pytest.mark.parametrize("preset,expected", [
        ("kl-weight", ["beta-0", "beta-1", "beta-3", "beta-5", "beta-10",
                       "beta-20"]),
        ("solver-steps", ["steps-1", "steps-2", "steps-3", "steps-4"]),
    ])
    def test_ablate_multi_variant_presets(self, tmp_path, capsys, preset, expected):
        cfg_path = write_small_config(tmp_path)
        out_dir = tmp_path / f"ab-{preset}"
        code = main(["--config", str(cfg_path), "--out-dir", str(out_dir),
                     "ablate", preset, "--max-iters", "1"])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert [s["variant"] for s in summary] == expected
        assert "final_mean_reward" in capsys.readouterr().out

    def test_inspect_checkpoint(self, tmp_path, capsys):
        params = param_init(NetworkShape(3, 5, 2), 1)
        path = tmp_path / "x.kvc"
        save_checkpoint(path, params, {}, 3, None)
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "iteration: 3" in out

    def test_inspect_metrics(self, tmp_path, capsys):
        cfg_path = write_small_config(tmp_path)
        out_dir = tmp_path / "runm"
        main(["--config", str(cfg_path), "--out-dir", str(out_dir), "train"])
        capsys.readouterr()
        assert main(["inspect", str(out_dir / "metrics.jsonl")]) == 0
        assert "records" in capsys.readouterr().out

    def _metrics_lines(self, tmp_path, capsys) -> list[str]:
        cfg_path = write_small_config(tmp_path)
        out_dir = tmp_path / "runc"
        main(["--config", str(cfg_path), "--out-dir", str(out_dir), "train"])
        capsys.readouterr()
        return (out_dir / "metrics.jsonl").read_text().splitlines(keepends=True)

    def test_inspect_metrics_with_cut_final_line(self, tmp_path, capsys):
        # What a crash mid-write leaves: the last record stops without a newline.
        lines = self._metrics_lines(tmp_path, capsys)
        path = tmp_path / "cut.jsonl"
        path.write_text(lines[0] + lines[1][:len(lines[1]) // 2])
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "ignoring cut final line 2" in out
        assert "(1 records)" in out

    def test_inspect_metrics_with_bad_inner_line(self, tmp_path, capsys):
        lines = self._metrics_lines(tmp_path, capsys)
        path = tmp_path / "bad.jsonl"
        path.write_text(lines[0][:len(lines[0]) // 2] + "\n" + lines[1])
        assert main(["inspect", str(path)]) == 1
        assert "line 1 is not valid JSON" in capsys.readouterr().err

    def test_inspect_missing_file(self, capsys):
        assert main(["inspect", "/definitely/not/here"]) == 1
