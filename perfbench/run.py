"""Benchmark of kvgrpo's training loop, measured from outside the package.

Run it from the root of a kvgrpo source checkout:

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 35 --trace 0

``--trace 0`` times ``kvgrpo.trainer.run`` end to end and prints the
end-to-end metrics; ``--trace 1`` adds one traced pass and prints the
per-layer metrics and a phase table.  The last line of standard output is a
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Workloads are listed in ``perfbench/workloads.py``; what each
metric should show is in ``perfbench/README.md``.  Exits with 2, printing no
result, when the directory holds no kvgrpo sources under ``src/``.
"""

import os

# One BLAS thread, pinned before numpy is imported here or in a child.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_natural, default=0)
    parser.add_argument("--seconds", type=_natural, default=35,
                        help="measuring budget; at least two passes always run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "kvgrpo" / "__init__.py").is_file():
        print(f"perfbench: no kvgrpo package at {SRC / 'kvgrpo'}; "
              f"run from the root of a kvgrpo source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure
    return measure.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
