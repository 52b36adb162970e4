"""timbrekit benchmark: one seeded workload, run through the CLI in-process.

    python3 perfbench/run.py --workload extract_voiced --seed 1 --seconds 35 --trace 0

Run it from the root of a timbrekit checkout; it imports the package from
./src. Every workload runs the paper's pipeline as a user does: `extract`
over a WAV corpus, `train` on a pair manifest, `eval` on its test split,
each with --jobs 1 and back to back in one process (a closed loop with one
caller). The workloads differ in where the work lands; see README.md.

--trace 0 prints the end-to-end metrics; --trace 1 wraps timbrekit's public
functions (perfbench/tracer.py) and prints the per-layer metrics instead.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Records, traces and scratch inputs go under ./.perfbench/.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

WORKLOADS = ("extract_voiced", "classify")
# One BLAS thread: the CLI runs with --jobs 1 and the reference machine has
# two shared cores, so more threads would measure the scheduler.
BLAS_THREADS = 1
_BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = _parse(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "timbrekit" / "__init__.py").is_file():
        print(f"error: no timbrekit sources under {src}; run from a checkout root", file=sys.stderr)
        return 2
    for var in _BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import timbrekit.cli  # numpy, scipy, click and every layer

    if not Path(timbrekit.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: timbrekit imported from {timbrekit.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - started

    from bench import Bench

    bench = Bench(root, src, args.workload, args.seed, args.seconds, bool(args.trace))
    result = bench.run(import_s)
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
