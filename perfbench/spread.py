"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py --workload edge-dense --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload edge-dense --seeds 1 --trace 1 --repeat 2
    python3 perfbench/spread.py --workload edge-dense --seeds 1 2 3 4 5 --sets 2

Runs one benchmark process at a time.  For every metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), and the
spread (Q3 - Q1) / median next to the bound BENCHMARK.json fixes.  With
``--repeat`` above 1 each seed runs that many times and every count must
repeat exactly.  With ``--sets`` above 1 the seeds run that many times
over, one set after another, and each later set's medians are compared
with the first set's: a metric fails if its median got worse by more than
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def summarise(declared, values):
    """Print each metric's median, quartiles and spread; return the medians."""
    medians = {}
    for m in declared:
        vals = values[m["name"]]
        med = medians[m["name"]] = statistics.median(vals)
        line = f"{m['name']:45s} median {med:.6g} {m['unit']}"
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            line += f"  q1 {q1:.6g}  q3 {q3:.6g}"
            if med and "bound" in m:
                spread = (q3 - q1) / med
                flag = "  OVER a third of bound" if spread > m["bound"] / 3 else ""
                line += f"  spread {spread:.4f} (bound {m['bound']}){flag}"
        print(line)
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if args.trace else "end_to_end"]

    counts_ok = True
    medians = []
    for set_no in range(1, args.sets + 1):
        values = {m["name"]: [] for m in declared}
        for seed in args.seeds:
            first = None
            for _ in range(args.repeat):
                result, wall = run_once(spec, args.workload, seed, spec["run_seconds"],
                                        args.trace)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                shown = " ".join(f"{k}={v:.4g}" for k, v in list(metrics.items())[:8])
                print(f"set {set_no} seed {seed}: wall {wall:.1f} s, attempted "
                      f"{result['attempted']}, failed {result['failed']}, correct "
                      f"{result['correct']}; {shown}", flush=True)
                counts = {k: v for k, v in metrics.items()
                          if k.endswith(".calls") or k.split(".")[0] in
                          ("counters", "report", "stream", "static")}
                if first is None:
                    first = counts
                elif counts != first:
                    counts_ok = False
                    print(f"seed {seed}: counts differ between repeats", flush=True)
                for k, v in metrics.items():
                    values[k].append(v)
        print(f"== set {set_no}")
        medians.append(summarise(declared, values))

    drift_ok = True
    for set_no, later in enumerate(medians[1:], start=2):
        print(f"== set {set_no} against set 1: change of the median, worse if positive")
        for m in declared:
            if "bound" not in m:
                continue
            change = later[m["name"]] / medians[0][m["name"]] - 1
            worse = change if m["better"] == "lower" else -change
            flag = ""
            if worse > m["bound"]:
                drift_ok = False
                flag = "  WORSE than the bound"
            print(f"{m['name']:45s} {worse:+.4f} (bound {m['bound']}){flag}")
    if args.repeat > 1:
        print("counts repeat exactly" if counts_ok else "COUNTS DIFFER")
    return 0 if counts_ok and drift_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
