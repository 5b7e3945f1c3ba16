"""Repeat the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload search --seeds 1-10 [--trace 1] [--out FILE]

Runs perfbench/run.py once per seed with BENCHMARK.json's run_seconds,
then prints, per metric, the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median, next to the metric's bound and a
third of it.  Counts must repeat exactly; a count that varies is flagged.
--out merges the summary into a JSON file keyed by workload, which is how
perfbench/baseline.json is written.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["per_layer" if args.trace else "end_to_end"]}

    values = {name: [] for name in metrics}
    failures = 0
    for seed in args.seeds:
        proc = subprocess.run(
            [*bench["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        failures += result["failed"]
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + " ".join(f"{n}={values[n][-1]:.6g}" for n in metrics if metrics[n]["unit"] != "count"), flush=True)

    summary = {"seeds": args.seeds, "run_seconds": seconds, "failed": failures, "metrics": {}}
    for name, meta in metrics.items():
        vals = values[name]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        spread = (q3 - q1) / med if med else 0.0
        row = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": meta["unit"]}
        line = f"{name:40s} median {med:.6g} {meta['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.4f}"
        if "bound" in meta:
            row["bound"] = meta["bound"]
            line += f"  bound {meta['bound']}  {'ok' if spread < meta['bound'] / 3 else 'ABOVE a third of the bound'}"
        if meta["unit"] in ("count", "bytes") and len(set(vals)) > 1:
            line += "  COUNT VARIES"
        summary["metrics"][name] = row
        print(line)
    print(f"failed jobs: {failures}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data.setdefault("trace" if args.trace else "end_to_end", {})[args.workload] = summary
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
