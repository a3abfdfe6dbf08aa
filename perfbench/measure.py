"""Timed passes of ``kvgrpo.trainer.run``, the correctness gate, and the report.

A pass is one ``run()`` of a workload for ``workloads.ITERATIONS``
iterations into a scratch output directory.  Untraced runs make two full
passes and then, while the measuring budget lasts, more passes with fresh
trainer seeds, the last one cut to the iterations that fit.  Traced runs make
one untraced and one traced pass of the same trainer seed, so the two can be
compared bit for bit and by speed.

Timings come from this process's clock only, never from a record's
``wall_clock_s``: an iteration sample is the interval between successive
``on_record`` callbacks, so it covers ``train_iteration`` and the metrics
write, trajectory dump and checkpoint that follow it.

On a shared host the speed of a core can drift by 2x for seconds at a time,
as other tenants come and go, which a run of half a minute does not average
away.  So every
callback also times a fixed numpy loop, outside the samples, and each time
is scaled to the reference speed at which that loop takes ``REF_S``: a
sample taken while the loop needs ``c`` seconds is multiplied by
``REF_S / c``, with ``c`` the mean of the loops just before and after it.
The loop runs no kvgrpo code, so a change to kvgrpo moves the scaled times
as much as the raw ones.  Raw times are reported beside them.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kvgrpo
from kvgrpo import checks, trainer
from kvgrpo.config import from_flat_dict, to_flat_dict
from kvgrpo.network import NetworkShape, param_init
from kvgrpo.policy import PolicyConfig

from tracer import LAYER_UNITS, MissingLayer, Tracer
from workloads import ITERATIONS, flat_config

E2E_UNITS = {"iter_ms_p50": "ms", "iter_ms_p90": "ms", "iters_per_s": "1/s",
             "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
GATE_ITERATIONS = 5     # length of the two re-runs the determinism check compares
MIN_PASS = 10           # shortest pass worth starting once the budget runs low
SCRATCH = ".perfbench-out"  # run directories and reports, under the checkout
REF_S = 1e-3
_CAL_REPS = 300
_CAL_MATRIX = np.linspace(-1.0, 1.0, 256).reshape(16, 16) / 8


def calibrate() -> float:
    """Seconds the fixed reference loop takes now."""
    started = time.perf_counter()
    x = _CAL_MATRIX
    for _ in range(_CAL_REPS):
        x = np.tanh(x @ _CAL_MATRIX)
    return time.perf_counter() - started


@dataclass
class Pass:
    trainer_seed: int
    records: list
    enter: list[float]      # perf_counter on entering each on_record callback
    leave: list[float]      # and on leaving it
    calib_s: list[float]    # the reference loop's time in each callback
    wall_s: float           # wall time of run()
    fingerprint: str
    final_mean_reward: float

    def intervals_ms(self) -> list[float]:
        """Raw per-iteration samples; the first iteration is warm-up."""
        return [(self.enter[i] - self.leave[i - 1]) * 1e3
                for i in range(1, len(self.enter))]

    def scaled_intervals_ms(self) -> list[float]:
        c = self.calib_s
        return [ms * 2 * REF_S / (c[i] + c[i + 1])
                for i, ms in enumerate(self.intervals_ms())]

    def scale(self) -> float:
        """Factor taking this pass's times to the reference speed."""
        return REF_S / statistics.mean(self.calib_s)

    def busy_s(self, scaled: bool = True) -> float:
        """Wall time of ``run()`` without the callbacks."""
        busy = self.wall_s - sum(b - a for a, b in zip(self.enter, self.leave))
        return busy * (self.scale() if scaled else 1.0)

    def iters_per_s(self, scaled: bool = True) -> float:
        return len(self.records) / self.busy_s(scaled)


def outcome(record) -> str:
    """Canonical JSON of a record's non-timing fields.  Record fields in
    seconds, the timing ones, carry the ``_s`` suffix (``wall_clock_s``)."""
    fields = {k: v for k, v in record.to_json().items() if not k.endswith("_s")}
    return json.dumps(fields, sort_keys=True)


def fingerprint(records: list, params) -> str:
    digest = hashlib.sha256()
    for record in records:
        digest.update(outcome(record).encode())
    digest.update(np.ascontiguousarray(params.values, dtype="<f8").tobytes())
    return digest.hexdigest()


def _finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (int, float)):
        return bool(np.isfinite(value))
    return True


def run_pass(root: Path, workload: str, seed: int, index: int,
             iterations: int = ITERATIONS, tracer: Tracer | None = None) -> Pass:
    (root / SCRATCH).mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=root / SCRATCH)
    try:
        cfg = from_flat_dict(flat_config(workload, seed, index, out_dir, iterations))
        records, enter, leave, calib = [], [], [], []
        clock = time.perf_counter

        def on_record(record) -> None:
            t = clock()
            records.append(record)
            if tracer is not None:
                tracer.mark()
            calib.append(calibrate())
            enter.append(t)
            leave.append(clock())

        if tracer is not None:
            tracer.install()
        try:
            started = clock()
            result = trainer.run(cfg, on_record=on_record)
            wall = clock() - started
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return Pass(cfg.trainer.seed, records, enter, leave, calib, wall,
                fingerprint(records, result.state.params), result.final_mean_reward())


def timed_passes(root: Path, workload: str, seed: int, seconds: float) -> list[Pass]:
    started = time.perf_counter()
    passes = [run_pass(root, workload, seed, i) for i in range(2)]
    while True:
        elapsed = time.perf_counter() - started
        per_iteration = elapsed / sum(len(p.records) for p in passes)
        fits = min(ITERATIONS, int((seconds - elapsed) / per_iteration))
        if fits < MIN_PASS:
            return passes
        passes.append(run_pass(root, workload, seed, len(passes), fits))


def setup_times(root: Path, workload: str, seed: int) -> list[tuple[float, float]]:
    """``setup_s`` samples, each from a fresh interpreter: (raw seconds, scale)."""
    flat = json.dumps(flat_config(workload, seed, 0, None))
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    probe = Path(__file__).with_name("setup_probe.py")
    samples = []
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        proc = subprocess.run([sys.executable, str(probe), flat], cwd=root, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        samples.append((float(proc.stdout.split()[-1]), 2 * REF_S / (before + calibrate())))
    return samples


def fd_check(workload: str, seed: int) -> float:
    """Relative error of one total-loss gradient against finite differences,
    on a small instance with the workload's policy settings."""
    cfg = from_flat_dict(flat_config(workload, seed, 0, None)).trainer
    pcfg = PolicyConfig(cfg.temperature, cfg.kl_penalty_weight, cfg.clip_eps_low,
                        cfg.clip_eps_high, cfg.advantage_clip_max,
                        cfg.grad_replay_steps, include_all_steps=False)
    shape = NetworkShape(3, 5, 2)
    return checks.check_total_grad(checks.make_instance(seed), pcfg,
                                   param_init(shape, seed + 500),
                                   param_init(shape, seed + 900))


def gate(root: Path, workload: str, seed: int, passes: list[Pass],
         traced: bool) -> list[str]:
    """Correctness problems of a run, outside the timed region."""
    problems = []
    for p in passes:
        bad = [r.iteration for r in p.records if not _finite(json.loads(outcome(r)))]
        if bad:
            problems.append(f"trainer seed {p.trainer_seed}: non-finite record fields "
                            f"at iterations {bad[:5]}")
    if traced:
        # Same trainer seed with and without the tracer.
        if passes[0].fingerprint != passes[1].fingerprint:
            problems.append("the traced pass differs from the untraced pass")
    else:
        reruns = [run_pass(root, workload, seed, 0, GATE_ITERATIONS) for _ in range(2)]
        if reruns[0].fingerprint != reruns[1].fingerprint:
            problems.append("two runs of one workload and seed differ")
        timed = [outcome(r) for r in passes[0].records[:GATE_ITERATIONS]]
        if [outcome(r) for r in reruns[0].records] != timed:
            problems.append("a re-run differs from the timed pass")
    err = fd_check(workload, seed)
    if not err <= checks.TOTAL_TOL:
        problems.append(f"total-loss gradient vs finite differences: rel err {err:.3e} "
                        f"> {checks.TOTAL_TOL:.0e}")
    return problems


def _git_rev(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def manifest(root: Path, args, passes: list[Pass]) -> dict:
    config = to_flat_dict(from_flat_dict(flat_config(args.workload, 0, 0, None)))
    del config["seed"]
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "kvgrpo").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "trainer_seeds": [p.trainer_seed for p in passes],
        "iterations_per_pass": ITERATIONS,
        "config_sha256": hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()).hexdigest(),
        "git_rev": _git_rev(root),
        "src_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "platform": platform.platform(),
    }


def end_to_end(passes: list[Pass], scaled: bool = True) -> dict:
    samples = [ms for p in passes
               for ms in (p.scaled_intervals_ms() if scaled else p.intervals_ms())]
    return {
        "iter_ms_p50": statistics.median(samples),
        "iter_ms_p90": float(np.percentile(samples, 90)),
        "iters_per_s": (sum(len(p.records) for p in passes)
                        / sum(p.busy_s(scaled) for p in passes)),
    }


def main(args, root: Path) -> int:
    src = (root / "src").resolve()
    if src not in Path(kvgrpo.__file__).resolve().parents:
        print(f"perfbench: imported kvgrpo from {kvgrpo.__file__}, not {src}", file=sys.stderr)
        return 2
    out = root / SCRATCH
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    tracer = None
    if args.trace:
        tracer = Tracer()
        passes = [run_pass(root, args.workload, args.seed, 0)]
        timed = passes[:1]
        try:
            traced = run_pass(root, args.workload, args.seed, 0, tracer=tracer)
            metrics, phases = tracer.summarize(args.workload, traced.records, traced.enter,
                                               traced.leave, traced.scale())
        except MissingLayer as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        raw = tracer.summarize(args.workload, traced.records, traced.enter, traced.leave,
                               1.0)[0]
        for table, scaled in ((metrics, True), (raw, False)):
            table["trace.untraced_iters_per_s"] = passes[0].iters_per_s(scaled)
            table["trace.traced_iters_per_s"] = traced.iters_per_s(scaled)
        passes.append(traced)
        units = LAYER_UNITS
    else:
        passes = timed = timed_passes(root, args.workload, args.seed, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        setup = setup_times(root, args.workload, args.seed)
        metrics = end_to_end(passes)
        metrics["setup_s"] = statistics.median(t * k for t, k in setup)
        metrics["peak_rss_mb"] = rss_mb
        raw = end_to_end(passes, scaled=False)
        raw["setup_s"] = statistics.median(t for t, _ in setup)
        raw["peak_rss_mb"] = rss_mb
        units = E2E_UNITS

    problems = gate(root, args.workload, args.seed, passes, bool(args.trace))
    attempted = sum(len(p.records) for p in timed)
    failed = attempted if problems else sum(r.error is not None for p in timed for r in p.records)

    info = manifest(root, args, passes)
    print("manifest " + json.dumps(info, sort_keys=True))
    samples = sum(len(p.intervals_ms()) for p in timed)
    print(f"{args.workload}: {len(timed)} timed pass(es) of "
          f"{'+'.join(str(len(p.records)) for p in timed)} iterations, "
          f"{samples} iteration samples")
    print(f"  {'metric':32s} {'at ref speed':>14s} {'raw':>14s}")
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {raw[name]:14.6g} {unit}")
    print(f"  {'iter_error_frac':32s} {failed / attempted:14.6g} {'':14s} ratio")
    for p in passes:
        print(f"  trainer seed {p.trainer_seed}: fingerprint {p.fingerprint} "
              f"final_mean_reward {p.final_mean_reward!r}")
    report = {"manifest": info, "problems": problems, "metrics": metrics, "raw": raw,
              "fingerprints": {str(p.trainer_seed): p.fingerprint for p in passes}}
    if tracer is not None:
        # Scaled per pass, as the phases are, so that the phases sum to it.
        untraced_ms = statistics.mean(passes[0].intervals_ms()) * passes[0].scale()
        traced_ms = statistics.mean(traced.intervals_ms()) * traced.scale()
        print("phase table, traced pass, ms per iteration at reference speed "
              f"(iterations 2..{ITERATIONS}):")
        for name, ms in phases:
            print(f"  {name:34s} {ms:9.3f}  {100 * ms / traced_ms:5.1f}%")
        print(f"  {'sum of phases':34s} {sum(ms for _, ms in phases):9.3f}")
        print(f"  {'traced iteration':34s} {traced_ms:9.3f}")
        print(f"  {'untraced iteration, same seed':34s} {untraced_ms:9.3f}  "
              f"tracing overhead {100 * (traced_ms / untraced_ms - 1):.1f}%")
        report["phases_ms"] = dict(phases)
        tracer.save(out / f"{stem}.spans.npz")
    for problem in problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    (out / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0
