"""Command-line front end.

Subcommands: ``train``, ``gradcheck``, ``ablate``, ``inspect``.  Exit codes:
0 success, 1 configuration error, 2 check failure, 3 runtime error.

Heavy imports happen inside ``main`` so thread-count environment variables can
be pinned before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import ConfigError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CHECK = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kvgrpo",
        description="Group-relative policy optimization on a toy block-autoregressive "
                    "flow generator with KV-cache-routing exploration.")
    parser.add_argument("--config", help="path to a JSON config file")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out-dir", help="output directory for metrics and checkpoints")
    parser.add_argument("--threads", type=int,
                        help="BLAS/OpenMP thread cap (use 1 for bit-reproducible runs)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a single config key (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop")
    p_train.add_argument("--max-iters", type=int, help="override max_iterations")

    sub.add_parser("gradcheck", help="verify gradients against finite differences "
                                     "and the closed-form reference")

    p_ablate = sub.add_parser("ablate", help="run an ablation preset with shared seeds")
    p_ablate.add_argument("preset", nargs="?", help="preset name (omit to list)")
    p_ablate.add_argument("--max-iters", type=int, help="override max_iterations")

    p_inspect = sub.add_parser("inspect", help="pretty-print a checkpoint, metrics, "
                                               "or config file")
    p_inspect.add_argument("path", help="file to inspect")
    return parser


def _load_run_config(args):
    from .config import RunConfig, apply_overrides, load_config

    cfg = load_config(args.config) if args.config else RunConfig().validate()
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.out_dir is not None:
        cfg.out_dir = args.out_dir
    if args.threads is not None:
        overrides.append(f"threads={args.threads}")
    if getattr(args, "max_iters", None) is not None:
        overrides.append(f"max_iterations={args.max_iters}")
    return apply_overrides(cfg, overrides)


def _out_dir(path: str | Path, metrics_filename: str) -> Path:
    """``path``, unless a file stands where it or a directory above it would be, or it
    holds a run's config, metrics, dump or checkpoint (not a killed save's temp file)."""
    from .config import RUN_FILES
    if blocked := [p for p in (Path(path), *Path(path).parents) if p.exists() and not p.is_dir()]:
        raise ConfigError(f"output directory {path}: {blocked[0]} is not a directory")
    if held := sorted(p for p in Path(path).glob("*") if p.name == metrics_filename
                      or any(p.match(output) for output in RUN_FILES)):
        raise ConfigError(f"output directory {path} already holds a run's output: {held[0]}")
    return Path(path)


def cmd_train(args) -> int:
    from .trainer import run

    cfg = _load_run_config(args)
    if cfg.out_dir is None:
        cfg.out_dir = "runs/default"
    _out_dir(cfg.out_dir, cfg.metrics_filename)
    result = run(cfg)
    done = len(result.records)
    skipped = sum(r.skipped for r in result.records)
    print(f"completed {done} iterations ({skipped} skipped); "
          f"final mean reward {_reward(result.final_mean_reward())}")
    print(f"outputs in {cfg.out_dir}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    from .checks import run_gradient_checks
    from .config import TrainerConfig

    cfg = _load_run_config(args)
    # The checks run fixed instances: of the trainer's settings only the seed reaches them.
    default = vars(TrainerConfig())
    if ignored := [k for k, v in vars(cfg.trainer).items() if k != "seed" and v != default[k]]:
        raise ConfigError(f"gradcheck reads no trainer setting but seed; it would ignore "
                          f"{', '.join(ignored)}")
    report = run_gradient_checks(seed=cfg.trainer.seed)
    for line in report.lines():
        print(line)
    if not report.passed:
        print("FAILED: " + ", ".join(report.failures))
        return EXIT_CHECK
    print("all gradient checks passed")
    return EXIT_OK


def cmd_ablate(args) -> int:
    from .config import PRESETS, apply_overrides
    from .trainer import run

    if not args.preset:
        print("available presets: " + ", ".join(sorted(PRESETS)))
        return EXIT_CONFIG
    if args.preset not in PRESETS:
        print(f"unknown preset {args.preset!r}; available: " + ", ".join(sorted(PRESETS)))
        return EXIT_CONFIG
    base = _load_run_config(args)
    out_root = Path(base.out_dir) if base.out_dir else Path(f"runs/ablate-{args.preset}")
    if (out_root / "summary.json").exists():
        raise ConfigError(f"output directory {out_root} already holds an ablation's output: "
                          f"{out_root / 'summary.json'}")
    for label, _ in PRESETS[args.preset]:
        _out_dir(out_root / label, base.metrics_filename)
    summary = []
    for label, overrides in PRESETS[args.preset]:
        variant = apply_overrides(base, dict(overrides))
        variant.out_dir = str(out_root / label)
        result = run(variant)
        summary.append({
            "variant": label,
            "overrides": overrides,
            "final_mean_reward": result.final_mean_reward(),
            "iterations": len(result.records),
            "skipped": sum(r.skipped for r in result.records),
        })
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "summary.json").write_text(
        json.dumps(summary, indent=2, allow_nan=False) + "\n")
    width = max(len(s["variant"]) for s in summary)
    print(f"{'variant'.ljust(width)}  final_mean_reward")
    for s in summary:
        print(f"{s['variant'].ljust(width)}  {_reward(s['final_mean_reward'])}")
    print(f"summary written to {out_root / 'summary.json'}")
    return EXIT_OK


def cmd_inspect(args) -> int:
    from .checkpoint import MAGIC, load_checkpoint
    from .config import load_json_object, read_metrics

    path = Path(args.path)
    if not path.exists():
        print(f"no such file: {path}")
        return EXIT_CONFIG
    if not path.is_file():
        print(f"not a file: {path}")
        return EXIT_CONFIG
    with path.open("rb") as fh:
        head = fh.read(8)
    if head == MAGIC:
        data = load_checkpoint(path)
        values = data.params.values
        print(f"checkpoint: {path}")
        print(f"  iteration: {data.iteration}")
        print(f"  parameters: {values.size} "
              f"(min {values.min():.4f}, max {values.max():.4f}, "
              f"norm {float((values ** 2).sum()) ** 0.5:.4f})")
        print(f"  ema present: {data.ema is not None}")
        print(f"  segments: {', '.join(data.params.layout.segments)}")
        return EXIT_OK
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    try:  # one JSON value: a config, unless it is a metrics record
        lone = json.loads(text)
    except ValueError:
        lone = None
    if (path.suffix == ".jsonl" or "\n{" in text.strip()
            or isinstance(lone, dict) and {"iteration", "skipped"} <= lone.keys()):
        records, cut = read_metrics(path, text)
        if cut:  # what a crash mid-write leaves: a last line with no newline
            print(f"note: ignoring cut final line {cut}")
        print(f"metrics: {path} ({len(records)} records)")
        # A record whose rollout failed carries no rewards.
        rewarded = [r for r in records if r.get("anchor_reward") is not None]
        for tag, rec in zip(("first", "last"), rewarded[:1] + rewarded[-1:]):
            print(f"  {tag}: iteration {rec.get('iteration')}, "
                  f"anchor_reward {rec['anchor_reward']:.6f}, skipped {rec.get('skipped')}")
        print(f"  skipped iterations: {sum(bool(r.get('skipped')) for r in records)}")
        return EXIT_OK
    obj = load_json_object(path)
    print(f"config: {path}")
    for key in sorted(obj):
        print(f"  {key} = {obj[key]!r}")
    return EXIT_OK


def _reward(value: float | None) -> str:
    return "none" if value is None else f"{value:.6f}"


def _thread_cap(args) -> int | None:
    """The ``threads`` setting, read without numpy: ``--threads``, else the
    last ``--set threads=N``, else the config file's key, else 1 (the
    ``RunConfig.threads`` default).  None unless it is a positive integer: the
    config validation reports a bad value."""
    value = args.threads
    sets = [v for k, _, v in (item.partition("=") for item in args.overrides)
            if k.strip() == "threads"]
    try:
        if value is None and sets:
            value = json.loads(sets[-1])
        elif value is None and args.config:
            value = json.loads(Path(args.config).read_text())
            value = value.get("threads") if isinstance(value, dict) else None
    except (OSError, ValueError):  # not JSON, or not readable
        return None
    value = 1 if value is None else value
    return value if type(value) is int and value >= 1 else None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    threads = _thread_cap(args)
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(threads)

    handlers = {"train": cmd_train, "gradcheck": cmd_gradcheck,
                "ablate": cmd_ablate, "inspect": cmd_inspect}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001  - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
