"""Run the benchmark on several seeds and summarize each metric's spread.

Usage, from the repository root:

  python3 perfbench/spread.py --workload translate --seeds 1-10 [--seconds 20] [--trace 0]

Runs are sequential, one process each. For every metric it prints the
median, the first and third quartiles (statistics.quantiles, n=4) and
the spread (Q3 - Q1) / median; for the end-to-end metrics it also
prints that spread as a share of the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    failed_share = set()
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed",
               str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        failed_share.add(result["failed"] / result["attempted"])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"\n{args.workload}: {len(args.seeds)} runs, failed share {sorted(failed_share)}")
    print(f"{'metric':44} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'/bound':>7}")
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
        spread = (q3 - q1) / med if med else float("nan")
        share = f"{spread / bounds[name]:7.2f}" if name in bounds else ""
        print(f"{name:44} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
