"""Golden fingerprints: the outputs of a 20-iteration ``run()`` of four configs
must match ``tests/data/golden.json`` bit for bit, at threads 1 in this process
and at threads 2 in a ``kvgrpo train`` subprocess.  So must the three maxima
that ``kvgrpo gradcheck`` reports, as their ``repr``, and each config's plans
of iterations 1-200, and the memories they lay out.

A fingerprint is the sha256 of ``metrics.jsonl`` without its ``_s`` (timing)
fields, of the final parameters, of the final EMA and of ``trajectories.jsonl``.
A plan's fingerprint is the sha256, over iterations 1-200 of
:func:`~kvgrpo.trainer.plan_iteration`, of each plan's noise bytes and then
every routing's indices and local size, in block and row order.  The
memories' fingerprint is the sha256, over the same plans, of every block's
frame tuples, one per row the block solves, in block and row order.
The file is regenerated only with a change that declares it moves bits:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from kvgrpo.checkpoint import load_checkpoint
from kvgrpo.checks import run_gradient_checks
from kvgrpo.config import from_flat_dict
from kvgrpo.trainer import plan_iteration, run

GOLDEN = Path(__file__).parent / "data" / "golden.json"
REGENERATE = "PYTHONPATH=src python tests/test_golden.py"

# The four configs every bit-identity check has used: the default, the long
# taped replay, the wide routed rollout, and short blocks with anchor contexts.
CONFIGS = {
    "default": {},
    "replay-grad": {"grad_replay_steps": 4, "ppo_epochs": 2},
    "explore-wide": {"branch_number": 16, "local_kv_choices": [[6, 3], [9, 6], [12, 9]],
                     "routing_mode": "per_block", "surrogate": "latent_l2"},
    "short-blocks": {"frames_per_block": 2, "pivot_blocks": [7, 8], "num_blocks": 10,
                     "replay_context": "anchor"},
}
# Every run dumps its trajectories and checkpoints along the way.
RUN = {"seed": 0, "max_iterations": 20, "checkpoint_every": 5, "dump_trajectories": True}
FIELDS = ("metrics", "params", "ema", "trajectories")
GRADCHECK_FIELDS = ("energy_max_rel", "total_max_rel", "identity_max_rel")
PLANNED = range(1, 201)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fingerprints(out_dir: Path) -> dict[str, str]:
    """The four fingerprints of a finished run directory."""
    records = [json.loads(line) for line in (out_dir / "metrics.jsonl").read_text().splitlines()]
    metrics = "".join(json.dumps({k: v for k, v in r.items() if not k.endswith("_s")}) + "\n"
                      for r in records)
    final = load_checkpoint(out_dir / "checkpoint_final.kvc")
    return {"metrics": sha256(metrics.encode()),
            "params": sha256(final.params.values.astype("<f8").tobytes()),
            "ema": sha256(final.ema.values.astype("<f8").tobytes()),
            "trajectories": sha256((out_dir / "trajectories.jsonl").read_bytes())}


def run_in_process(name: str, out_dir: Path) -> dict[str, str]:
    run(from_flat_dict({**CONFIGS[name], **RUN, "out_dir": str(out_dir)}))
    return fingerprints(out_dir)


def run_in_subprocess(name: str, out_dir: Path, threads: int) -> dict[str, str]:
    out_dir.mkdir(parents=True)
    config = out_dir / "golden-config.json"
    config.write_text(json.dumps({**CONFIGS[name], **RUN}))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-m", "kvgrpo.cli", "--threads", str(threads),
                    "--config", str(config), "--out-dir", str(out_dir), "train"],
                   env=env, check=True, capture_output=True, timeout=300)
    return fingerprints(out_dir)


def gradcheck_maxima() -> dict[str, str]:
    """The ``repr`` of each maximum of the ``kvgrpo gradcheck`` report."""
    report = run_gradient_checks(seed=0)
    return {f: repr(getattr(report, f)) for f in GRADCHECK_FIELDS}


def plan_fingerprints(name: str) -> dict[str, str]:
    """The sha256 of the config's plans of the ``PLANNED`` iterations, and of
    the memories they lay out."""
    cfg = from_flat_dict({**CONFIGS[name], **RUN}).trainer
    plans, memories = hashlib.sha256(), hashlib.sha256()
    for it in PLANNED:
        plan = plan_iteration(cfg, it).rollout
        plans.update(plan.noise.tobytes())
        for b in sorted(plan.routings):
            plans.update(json.dumps([b, [None if r is None else [list(r.indices), r.local_size]
                                         for r in plan.routings[b]]]).encode())
        for b, buckets in enumerate(plan.memories, start=1):
            frames = {g: row for rows, index in buckets
                      for g, row in zip(rows.tolist(), (index + 1).tolist())}
            memories.update(json.dumps([b, [frames[g] for g in sorted(frames)]]).encode())
    return {"plans": plans.hexdigest(), "memories": memories.hexdigest()}


def environment() -> dict[str, str]:
    return {"numpy": np.__version__,
            "platform": f"{platform.system()}-{platform.machine()}",
            "python": platform.python_version()}


@pytest.fixture(scope="module")
def golden() -> dict:
    data = json.loads(GOLDEN.read_text())
    if data["environment"]["numpy"] != np.__version__:
        pytest.fail(f"{GOLDEN.name} was made with numpy {data['environment']['numpy']}, "
                    f"this is numpy {np.__version__}; after checking that the bits "
                    f"moved for that reason alone, regenerate it with: {REGENERATE}")
    return data


def assert_matches(found: dict[str, str], expected: dict[str, str], where: str,
                   fields=FIELDS) -> None:
    moved = [f for f in fields if found[f] != expected[f]]
    assert not moved, f"{where}: {', '.join(moved)} differ from {GOLDEN.name}"


def test_golden_covers_every_config(golden):
    assert sorted(golden["runs"]) == sorted(CONFIGS)
    assert golden["run"] == RUN
    assert sorted(golden["gradcheck"]) == sorted(GRADCHECK_FIELDS)
    assert sorted(golden["plans"]) == sorted(golden["memories"]) == sorted(CONFIGS)


def test_gradcheck_maxima(golden):
    assert_matches(gradcheck_maxima(), golden["gradcheck"], "gradcheck seed 0",
                   GRADCHECK_FIELDS)


@pytest.mark.parametrize("name", CONFIGS)
def test_plans(name, golden):
    found = plan_fingerprints(name)
    for key in ("plans", "memories"):
        assert found[key] == golden[key][name], (
            f"{name}: the {key} of iterations {PLANNED.start}-{PLANNED.stop - 1} differ "
            f"from {GOLDEN.name}; if the change declares that, regenerate it with: {REGENERATE}")


@pytest.mark.parametrize("name", CONFIGS)
def test_threads_1_in_process(name, golden, tmp_path):
    assert_matches(run_in_process(name, tmp_path / name), golden["runs"][name],
                   f"{name} at threads 1")


@pytest.mark.parametrize("name", CONFIGS)
def test_threads_2_in_subprocess(name, golden, tmp_path):
    assert_matches(run_in_subprocess(name, tmp_path / name, threads=2),
                   golden["runs"][name], f"{name} at threads 2")


def main() -> None:
    runs = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in CONFIGS:
            runs[name] = run_in_process(name, Path(scratch) / name)
            other = run_in_subprocess(name, Path(scratch) / f"{name}-threads-2", threads=2)
            if other != runs[name]:
                sys.exit(f"{name}: threads 1 and threads 2 disagree; nothing written")
    planned = {name: plan_fingerprints(name) for name in CONFIGS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"environment": environment(), "run": RUN, "runs": runs,
                                  "gradcheck": gradcheck_maxima(),
                                  **{key: {name: planned[name][key] for name in CONFIGS}
                                     for key in ("plans", "memories")}},
                                 indent=2) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
