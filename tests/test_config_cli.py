"""Config round-trips, override handling, checkpoint format, and the CLI."""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from kvgrpo.checkpoint import load_checkpoint, save_checkpoint
from kvgrpo.cli import main
from kvgrpo.config import (PRESETS, RunConfig, TrainerConfig, apply_overrides,
                           from_flat_dict, load_config, save_config,
                           to_flat_dict)
from kvgrpo.errors import ConfigError, InsufficientHistoryError
from kvgrpo.network import NetworkShape, build_layout, param_init
from kvgrpo.params import Layout, Params
from kvgrpo.trainer import plan_iteration


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


# Values of the wrong type, as ``--set KEY=TEXT`` would give them.
WRONG_TYPES = [
    ("learning_rate", "abc"), ("latent_dim", "2.5"), ("branch_number", "true"),
    ("energy_includes_all_steps", "1"), ("surrogate", "3"), ("pivot_blocks", "5"),
    ("pivot_blocks", '[5, "6"]'), ("local_kv_choices", "[[9, 6.5]]"),
    ("prompt_values", '["a", "b"]'), ("reward_components", '["target"]'),
    ("checkpoint_every", "1.5"), ("dump_trajectories", '"yes"'), ("threads", "false"),
]
# Pair-valued entries of the right element type but the wrong shape or kinds.
BAD_PAIRS = [
    ("local_kv_choices", "[[9]]"), ("local_kv_choices", "[[9, 6, 3]]"),
    ("local_kv_choices", "[[9, 6], []]"), ("reward_components", '[["target"]]'),
    ("reward_components", '[["target", "x"]]'), ("reward_components", '[[0.7, "target"]]'),
    ("reward_components", '[["target", true]]'),
    ("reward_components", '[["target", 0.7, "smoothness"]]'),
]
# Sizes that pass the type checks but cannot run: a one-branch policy,
# negative memories, more reward segments than frames (18 here), segments
# too short for the smoothness component's frame differences, and a reward of
# no components.
BAD_SIZES = [
    ("branch_number", "1", "branch_number must be >= 2"),
    ("sink_size", "-1", "sink_size must be >= 0"),
    ("local_size", "-1", "local_size must be >= 0"),
    ("reward_segments", "25", "reward_segments 25 leaves fewer than 2"),
    ("reward_segments", "10", "reward_segments 10 leaves fewer than 2"),
    ("reward_components", "[]", "reward_components must name at least one component"),
]


def parsed(text):
    """A ``--set`` value as the CLI parses it: JSON when it is JSON, else text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


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
        {"advantage_clip_max": 0.0},
    ])
    def test_field_validation(self, bad):
        with pytest.raises(ConfigError):
            small_run_config(**bad)

    def test_validation_accepts_exactly_the_routable_choices(self):
        # Over sinks 0-4, 1-3 frames per block, pivots 1-8 and 1 <= r <= n <= 12,
        # a (local_size n, routed_slots r) choice passes validation exactly when
        # the planner can route it at the pivot.
        verdicts = []
        for sink, frames, pivot in itertools.product(range(5), range(1, 4), range(1, 9)):
            for n in range(1, 13):
                for r in range(1, n + 1):
                    cfg = TrainerConfig(num_blocks=8, frames_per_block=frames, sink_size=sink,
                                        pivot_blocks=[pivot], local_kv_choices=[[n, r]],
                                        branch_number=2)
                    try:
                        cfg.validate()
                    except ConfigError as exc:
                        assert "routable at the earliest pivot" in str(exc)
                        accepted = False
                    else:
                        accepted = True
                    try:
                        plan_iteration(cfg, 1)
                    except InsufficientHistoryError:
                        planned = False
                    else:
                        planned = True
                    verdicts.append((accepted, planned))
        assert len(verdicts) == 9360
        assert all(accepted == planned for accepted, planned in verdicts)
        assert 0 < sum(accepted for accepted, _ in verdicts) < len(verdicts)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("key", [
        "learning_rate", "temperature", "l2_sigma", "max_grad_norm",
        "kl_penalty_weight", "advantage_clip_max", "clip_eps_high", "ema_decay",
        "prompt_values", "reward_target_values", "threads"])
    def test_non_finite_values_rejected(self, key, value):
        flat = to_flat_dict(small_run_config())
        if key == "prompt_values":
            flat[key] = [0.5, value]
        elif key == "reward_target_values":
            flat[key] = [0.0, value, 0.0]
        else:
            flat[key] = value
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            from_flat_dict(flat)

    @pytest.mark.parametrize("key,text", WRONG_TYPES)
    def test_wrong_types_rejected(self, key, text):
        flat = to_flat_dict(small_run_config())
        flat[key] = parsed(text)
        with pytest.raises(ConfigError, match=f"{key} must be "):
            from_flat_dict(flat)

    @pytest.mark.parametrize("key,text", BAD_PAIRS)
    def test_bad_pairs_rejected(self, key, text):
        flat = to_flat_dict(small_run_config())
        flat[key] = parsed(text)
        with pytest.raises(ConfigError, match=f"{key} entries must be "):
            from_flat_dict(flat)

    @pytest.mark.parametrize("key,text,message", BAD_SIZES)
    def test_bad_sizes_rejected(self, key, text, message):
        flat = to_flat_dict(small_run_config())
        flat[key] = parsed(text)
        with pytest.raises(ConfigError, match=message):
            from_flat_dict(flat)

    def test_reward_segments_without_smoothness_need_one_frame_each(self):
        only_target = [["target", 1.0]]
        assert small_run_config(reward_components=only_target,
                                reward_segments=18).trainer.reward_segments == 18
        with pytest.raises(ConfigError, match="fewer than 1 of the 18"):
            small_run_config(reward_components=only_target, reward_segments=19)

    def test_ints_are_floats_but_bools_are_not_ints(self):
        assert small_run_config(learning_rate=1).trainer.learning_rate == 1
        with pytest.raises(ConfigError, match="seed must be int"):
            small_run_config(seed=True)

    @pytest.mark.parametrize("name", ["", ".", "..", "sub/m.jsonl", "sub\\m.jsonl", "config.json",
                                      "trajectories.jsonl", "checkpoint_final.kvc",
                                      "checkpoint_000050.kvc"])
    def test_metrics_filename_must_be_a_plain_name_of_its_own(self, name):
        flat = to_flat_dict(small_run_config())
        flat["metrics_filename"] = name
        with pytest.raises(ConfigError, match="metrics_filename must be a plain file name"):
            from_flat_dict(flat)

    def test_metrics_filename_may_be_any_other_name(self):
        flat = to_flat_dict(small_run_config())
        for name in ("m.jsonl", "config.json.bak", "checkpoint_1.json", ".metrics"):
            flat["metrics_filename"] = name
            assert from_flat_dict(flat).metrics_filename == name

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

    @pytest.mark.parametrize("ema", [False, True])
    def test_trailing_bytes_rejected(self, tmp_path, capsys, ema):
        params = param_init(NetworkShape(3, 5, 2), 9)
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, params, {}, 0, params if ema else None)
        path.write_bytes(path.read_bytes() + bytes(4096))
        with pytest.raises(ConfigError, match="4096 bytes after its"):
            load_checkpoint(path)
        assert main(["inspect", str(path)]) == 1
        assert "configuration error" in capsys.readouterr().err

    def test_second_value_block_without_ema_rejected(self, tmp_path, capsys):
        # A has_ema: false header followed by two blocks of values.
        params = param_init(NetworkShape(3, 5, 2), 9)
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, params, {}, 0, None)
        path.write_bytes(path.read_bytes() + params.values.astype("<f8").tobytes())
        with pytest.raises(ConfigError, match="bytes after its"):
            load_checkpoint(path)
        assert main(["inspect", str(path)]) == 1

    def test_failed_save_keeps_the_previous_checkpoint(self, tmp_path):
        params = param_init(NetworkShape(3, 5, 2), 9)
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, params, {"seed": 3}, iteration=1, ema=params)
        first = path.read_bytes()

        class FailingEma:  # the disk fills after the header and the parameters
            @property
            def values(self):
                raise OSError("no space left on device")

        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, param_init(NetworkShape(3, 5, 2), 10), {"seed": 3},
                            iteration=2, ema=FailingEma())
        assert path.read_bytes() == first
        assert load_checkpoint(path).iteration == 1
        assert [p.name for p in tmp_path.iterdir()] == ["ck.kvc"]

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

    @pytest.mark.parametrize("field,value", [
        ("param_count", 386.0), ("param_count", True), ("param_count", -386),
        ("iteration", "x"), ("iteration", 2.0), ("iteration", -1),
        ("has_ema", "no"), ("has_ema", 0), ("has_ema", None)])
    def test_header_field_of_wrong_type_rejected(self, tmp_path, capsys, field, value):
        params = param_init(NetworkShape(8, 7, 4), 9)  # 386 values
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, params, {}, 3, None)
        rewrite_header(path, lambda header: header.update({field: value}))
        with pytest.raises(ConfigError, match=f"header field {field} must be"):
            load_checkpoint(path)
        assert main(["inspect", str(path)]) == 1
        assert f"header field {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("segment,key,value", [
        ("embed_w", "shape", [-13, -16]), ("embed_w", "shape", [13.0, 16]),
        ("embed_w", "shape", [13, True]), ("embed_b", "offset", 999),
        ("embed_b", "offset", 208.0), ("embed_w", "shape", [9, 16])])
    def test_corrupt_layout_rejected(self, tmp_path, capsys, segment, key, value):
        # The first two keep the segment's size, so the value count still agrees.
        # The last leaves no input for a prompt after head2_w's 8 latents and time.
        params = param_init(NetworkShape(), 9)  # embed_w is 13 x 16, embed_b at 208
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, params, {}, 3, None)
        rewrite_header(path, lambda header: header["layout"][segment].update({key: value}))
        with pytest.raises(ConfigError, match=f"segment '{segment}' has "):
            load_checkpoint(path)
        assert main(["inspect", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"segment '{segment}' has " in err and str(path) in err

    @pytest.mark.parametrize("segment,edit", [
        ("head2_b", lambda shapes: {"head3_b" if name == "head2_b" else name: shape
                                    for name, shape in shapes.items()}),
        ("embed_w", lambda shapes: {n: s for n, s in shapes.items() if n != "embed_w"}),
        ("head2_w", lambda shapes: {n: s for n, s in shapes.items() if n != "head2_w"}),
        ("head2_w", lambda shapes: {**shapes, "head2_w": (6, 8)}),  # embed_w's hidden is 16
    ], ids=["renamed", "no-embed_w", "no-head2_w", "hidden-mismatch"])
    def test_layout_not_the_networks_rejected(self, tmp_path, capsys, segment, edit):
        # A self-consistent layout, offsets and value count included, that the
        # network cannot run.
        shapes = edit({n: s for n, (_, s) in build_layout(NetworkShape()).segments.items()})
        layout = Layout.build(shapes)
        path = tmp_path / "ck.kvc"
        save_checkpoint(path, Params(np.zeros(layout.total), layout), {}, 3, None)
        with pytest.raises(ConfigError, match=segment):
            load_checkpoint(path)
        assert main(["inspect", str(path)]) == 1
        assert segment in capsys.readouterr().err


def rewrite_header(path, edit):
    """Apply ``edit`` to the JSON header of the checkpoint at ``path``, in place."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[12:16], "little")
    header = json.loads(blob[16:16 + header_len])
    edit(header)
    text = json.dumps(header).encode()
    path.write_bytes(blob[:12] + len(text).to_bytes(4, "little") + text
                     + blob[16 + header_len:])


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

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["learning_rate", "kl_penalty_weight",
                                     "advantage_clip_max"])
    def test_non_finite_override_exits_one_before_training(self, tmp_path, capsys,
                                                           key, text):
        cfg_path = write_small_config(tmp_path)
        out = tmp_path / "nonfinite"
        code = main(["--config", str(cfg_path), "--out-dir", str(out),
                     "--set", f"{key}={text}", "train", "--max-iters", "1"])
        assert code == 1
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,text", WRONG_TYPES)
    def test_wrong_type_override_exits_one_before_training(self, tmp_path, capsys,
                                                           key, text):
        cfg_path = write_small_config(tmp_path)
        out = tmp_path / "wrongtype"
        code = main(["--config", str(cfg_path), "--out-dir", str(out),
                     "--set", f"{key}={text}", "train", "--max-iters", "1"])
        assert code == 1
        assert f"{key} must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,text", BAD_PAIRS)
    def test_bad_pair_override_exits_one_before_training(self, tmp_path, capsys, key, text):
        cfg_path = write_small_config(tmp_path)
        out = tmp_path / "badpair"
        code = main(["--config", str(cfg_path), "--out-dir", str(out),
                     "--set", f"{key}={text}", "train", "--max-iters", "1"])
        assert code == 1
        assert f"{key} entries must be " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,text,message", BAD_SIZES)
    def test_bad_size_override_exits_one_before_training(self, tmp_path, capsys, key, text,
                                                         message):
        cfg_path = write_small_config(tmp_path)
        out = tmp_path / "badsize"
        code = main(["--config", str(cfg_path), "--out-dir", str(out),
                     "--set", f"{key}={text}", "train", "--max-iters", "1"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_gradcheck_rejects_the_settings_it_would_ignore(self, capsys):
        assert main(["--set", "sink_size=0", "--set", "local_size=0", "gradcheck"]) == 1
        err = capsys.readouterr().err
        assert "configuration error" in err and "sink_size, local_size" in err

    def test_gradcheck_takes_the_seed_and_run_settings(self, tmp_path, capsys, monkeypatch):
        import kvgrpo.checks as checks
        seeds = []
        monkeypatch.setattr(checks, "run_gradient_checks",
                            lambda seed: seeds.append(seed) or checks.GradCheckReport(
                                energy_max_rel=1e-9, total_max_rel=1e-9,
                                identity_max_rel=1e-12, instances=1))
        assert main(["--seed", "3", "--threads", "2", "--out-dir", str(tmp_path / "x"),
                     "--set", "checkpoint_every=7", "gradcheck"]) == 0
        assert seeds == [3] and not (tmp_path / "x").exists()

    @pytest.mark.parametrize("name", ["", "sub/m.jsonl", "config.json", "trajectories.jsonl"])
    def test_train_rejects_a_metrics_filename_before_writing(self, tmp_path, capsys, name):
        # Each used to exit 3 after writing config.json, or to overwrite
        # config.json or interleave with the dump.
        out = tmp_path / "run"
        code = main(["--out-dir", str(out), "--set", f"metrics_filename={name}",
                     "--set", "dump_trajectories=true", "train", "--max-iters", "2"])
        assert code == 1
        assert "metrics_filename must be a plain file name" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train", "--max-iters", "1"], ["gradcheck"]])
    def test_negative_seed_exits_one_before_writing(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        assert main(["--seed", "-1", "--out-dir", str(out), *command]) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_config_that_is_a_directory_exits_one(self, tmp_path, capsys):
        folder = tmp_path / "conf.d"
        folder.mkdir()
        with pytest.raises(ConfigError, match="conf.d cannot be read"):
            load_config(folder)
        assert main(["--config", str(folder), "train"]) == 1
        assert "conf.d cannot be read" in capsys.readouterr().err

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

    @pytest.mark.parametrize("name", ["_log_policy_vjp", "_ppo_vjp", "_kl_vjp",
                                      "_total_vjp", "_pg_vjp"])
    def test_gradcheck_detects_injected_bad_loss_head_backward(self, capsys, monkeypatch,
                                                               name):
        # The loss head's nodes have no other independent check: corrupt one
        # backward and expect exit 2 from the finite-difference or the
        # contrastive check.
        import kvgrpo.policy as policy
        true_vjp = getattr(policy, name)

        def bad_vjp(*args):
            out = true_vjp(*args)
            return tuple(0.9 * g for g in out) if isinstance(out, tuple) else 0.9 * out

        monkeypatch.setattr(policy, name, bad_vjp)
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

    def test_ablate_without_iterations_writes_strict_json(self, tmp_path, capsys):
        # No iteration, no reward: the summary says null, never a bare NaN.
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        cfg_path = write_small_config(tmp_path)
        out_dir = tmp_path / "ab0"
        code = main(["--config", str(cfg_path), "--out-dir", str(out_dir),
                     "ablate", "surrogate", "--max-iters", "0"])
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text(), parse_constant=reject)
        assert [s["final_mean_reward"] for s in summary] == [None, None]

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

    @pytest.mark.parametrize("command, out, blocked", [
        ("train", "taken", "taken"), ("train", "taken/run", "taken"),
        ("ablate", "taken", "taken"), ("ablate", "taken/run", "taken"),
        ("ablate", "ab", "ab/latent-l2"),  # only the second variant's directory
    ])
    def test_out_dir_blocked_by_a_file_exits_one_before_writing(self, tmp_path, capsys,
                                                               command, out, blocked):
        config = write_small_config(tmp_path)
        (tmp_path / "ab").mkdir()
        (tmp_path / blocked).write_text("a file\n")
        before = sorted(tmp_path.rglob("*"))
        args = ["train"] if command == "train" else ["ablate", "surrogate"]
        code = main(["--config", str(config), "--out-dir", str(tmp_path / out), *args,
                     "--max-iters", "1"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: output directory {tmp_path / out}")
        assert f"{tmp_path / blocked} is not a directory" in err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / blocked).read_text() == "a file\n"

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

    def test_inspect_refuses_a_trajectory_dump(self, tmp_path, capsys):
        cfg_path = write_small_config(tmp_path, max_iterations=3)
        out_dir = tmp_path / "rund"
        assert main(["--config", str(cfg_path), "--out-dir", str(out_dir),
                     "--set", "dump_trajectories=true", "train"]) == 0
        capsys.readouterr()
        assert main(["inspect", str(out_dir / "trajectories.jsonl")]) == 1
        captured = capsys.readouterr()
        assert "not a metrics file: line 1 carries 'blocks'" in captured.err
        assert "records)" not in captured.out
        assert main(["inspect", str(out_dir / "metrics.jsonl")]) == 0
        assert "(3 records)" in capsys.readouterr().out

    @pytest.mark.parametrize("line,why", [('{"iteration": 1}', "lacks 'skipped'"),
                                          ('{"skipped": false}', "lacks 'iteration'")])
    def test_inspect_refuses_lines_that_are_not_records(self, tmp_path, capsys, line, why):
        lines = self._metrics_lines(tmp_path, capsys)
        path = tmp_path / "other.jsonl"
        path.write_text(lines[0] + line + "\n" + lines[1])
        assert main(["inspect", str(path)]) == 1
        assert f"not a metrics file: line 2 {why}" in capsys.readouterr().err

    @pytest.mark.parametrize("reward", ['"x"', "true", "[0.5]", '{"a": 1}'])
    def test_inspect_metrics_with_non_numeric_anchor_reward(self, tmp_path, capsys, reward):
        path = tmp_path / "reward.jsonl"
        path.write_text(f'{{"iteration": 1, "anchor_reward": {reward}, "skipped": false}}\n')
        assert main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert "line 1 has a non-numeric anchor_reward" in captured.err
        assert "records)" not in captured.out

    @pytest.mark.parametrize("line", ["[1, 2]", "3", '"text"', "null"])
    def test_inspect_metrics_with_non_object_line(self, tmp_path, capsys, line):
        lines = self._metrics_lines(tmp_path, capsys)
        path = tmp_path / "list.jsonl"
        path.write_text(lines[0] + line + "\n" + lines[1])
        assert main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert "line 2 is not a JSON object" in captured.err
        assert "records)" not in captured.out

    @pytest.mark.parametrize("flags,expected", [
        ([], "2"),                                          # the config file's key
        (["--set", "threads=3"], "3"),                      # --set beats the file
        (["--threads", "4", "--set", "threads=3"], "4"),    # --threads beats both
    ])
    def test_threads_setting_pins_blas_env(self, tmp_path, capsys, monkeypatch,
                                           flags, expected):
        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in variables:
            monkeypatch.delenv(var, raising=False)
        cfg = small_run_config(tmp_path)
        cfg.threads = 2
        path = tmp_path / "threads.json"
        save_config(cfg, path)
        assert main(["--config", str(path), *flags, "inspect", str(path)]) == 0
        assert [os.environ.get(var) for var in variables] == [expected] * 3

    @pytest.mark.parametrize("flags,expected", [
        ([], RunConfig().threads),                          # no setting: the default, 1
        (["--threads", "2"], 2),
    ])
    def test_threads_written_to_config_are_pinned(self, tmp_path, capsys, monkeypatch,
                                                  flags, expected):
        # The thread count a run records is the one it sets for BLAS.
        variables = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        for var in variables:
            monkeypatch.setenv(var, "")  # so that the teardown restores what main() sets
            monkeypatch.delenv(var)
        out = tmp_path / "out"
        assert main(["--out-dir", str(out), *flags, "train", "--max-iters", "1"]) == 0
        assert json.loads((out / "config.json").read_text())["threads"] == expected
        assert [os.environ.get(var) for var in variables] == [str(expected)] * 3

    @pytest.mark.parametrize("content", [
        b'{"a": 1,',                 # cut mid-object
        b"[1, 2]",                   # JSON, but not an object
        b'{"seed": "\xff"}',        # not UTF-8
    ])
    def test_bad_config_file_is_a_config_error(self, tmp_path, capsys, content):
        path = tmp_path / "bad-config.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match="bad-config.json"):
            load_config(path)
        assert main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert "bad-config.json" in captured.err
        assert " = " not in captured.out
        assert main(["--config", str(path), "train"]) == 1

    def test_importing_the_cli_leaves_numpy_unloaded(self):
        # The CLI pins the BLAS thread count before numpy loads; importing the
        # package must not load it first.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        probe = ("import sys, kvgrpo.cli; "
                 "print('numpy' in sys.modules, kvgrpo.from_flat_dict.__module__, "
                 "kvgrpo.init_state.__module__)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split() == ["False", "kvgrpo.config", "kvgrpo.trainer"]

    def test_training_set_up_leaves_multiprocessing_unloaded(self):
        # What the benchmark's set-up time covers: the planner is forked
        # with os.fork, and nothing on this path loads multiprocessing.
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        probe = ("import sys, kvgrpo.trainer as t; t.init_state(t.TrainerConfig()); "
                 "print('multiprocessing' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        assert out.split() == ["False"]

    def test_train_is_bit_identical_at_one_and_two_threads(self, tmp_path):
        # Each run is its own process, so the thread pin reaches its BLAS.
        # Explore-wide's overrides: 17 trajectories over mixed memory lengths.
        overrides = ["branch_number=16", "local_kv_choices=[[6, 3], [9, 6], [12, 9]]",
                     "routing_mode=per_block", "surrogate=latent_l2",
                     "dump_trajectories=true"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        for threads in (1, 2):
            command = [sys.executable, "-m", "kvgrpo.cli", "--seed", "0",
                       "--threads", str(threads), "--out-dir", str(tmp_path / str(threads))]
            for item in overrides:
                command += ["--set", item]
            subprocess.run(command + ["train", "--max-iters", "8"], env=env, check=True,
                           capture_output=True, timeout=300)

        def records(threads, name):
            lines = (tmp_path / str(threads) / name).read_text().splitlines()
            return [{k: v for k, v in json.loads(line).items() if not k.endswith("_s")}
                    for line in lines]

        assert len(records(1, "metrics.jsonl")) == 8
        assert records(1, "metrics.jsonl") == records(2, "metrics.jsonl")
        assert ((tmp_path / "1" / "trajectories.jsonl").read_bytes()
                == (tmp_path / "2" / "trajectories.jsonl").read_bytes())
        one, two = (load_checkpoint(tmp_path / str(n) / "checkpoint_final.kvc")
                    for n in (1, 2))
        assert one.params.values.tobytes() == two.params.values.tobytes()
        assert one.ema.values.tobytes() == two.ema.values.tobytes()

    def test_every_export_resolves(self):
        import kvgrpo
        for name in kvgrpo.__all__:
            assert getattr(kvgrpo, name) is not None, name
        with pytest.raises(AttributeError):
            kvgrpo.not_an_export

    def test_inspect_missing_file(self, capsys):
        assert main(["inspect", "/definitely/not/here"]) == 1

    def test_inspect_directory(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path)]) == 1
        assert f"not a file: {tmp_path}" in capsys.readouterr().out
