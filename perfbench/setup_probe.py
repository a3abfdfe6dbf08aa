"""One sample of the ``setup_s`` metric, taken in a fresh interpreter.

Usage: ``python3 perfbench/setup_probe.py '<flat run config as JSON>'`` with
kvgrpo importable.  Times importing kvgrpo, building and validating the run
config, and one ``init_state``; prints the seconds on the last line.
"""

import json
import sys
import time


def main() -> None:
    flat = json.loads(sys.argv[1])
    started = time.perf_counter()
    import kvgrpo
    cfg = kvgrpo.from_flat_dict(flat)
    kvgrpo.init_state(cfg.trainer)
    print(repr(time.perf_counter() - started))


if __name__ == "__main__":
    main()
