"""tmlab benchmark: three seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

  python3 perfbench/run.py --workload retrieval|training|translate \
      --seed N --seconds S --trace 0|1

With --trace 0 it runs whole rounds of the workload for at least S
seconds, and at least three, and prints the end-to-end metrics; with --trace 1 it runs one
round untraced and one traced and prints the per-layer metrics. Either
way it checks the program's outputs, and its last line of output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See
perfbench/README.md for the workloads and the metrics.
"""

import os
import sys
from pathlib import Path

# One thread everywhere, set before numpy loads BLAS.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TMLAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("retrieval", "training", "translate")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tmlab" / "__init__.py").is_file():
        print(f"benchmark: no tmlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tmlab

    if Path(tmlab.__file__).resolve().parent != SRC / "tmlab":
        print(f"benchmark: imported tmlab from {tmlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import harness
    from tracing import TraceTargetMissing

    workload = __import__(f"wl_{args.workload}")
    try:
        return harness.run(workload, args.workload, args.seed, args.seconds, bool(args.trace))
    except TraceTargetMissing as e:
        print(f"benchmark: cannot trace {e}: the function no longer exists", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
