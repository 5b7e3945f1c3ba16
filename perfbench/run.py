"""Benchmark of cch: one workload, closed loop, one client, one job at a time.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  It writes the workload's inputs from
the seed under .bench_build/perfbench/, then for --seconds seconds starts
jobs one after another, each in a fresh single-threaded process
(perfbench/job.py), and checks every job's reports against the workload's
oracle.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones: wall_s (median job
time), setup_s (median time to import cch in a fresh process, over
PROBES_PER_ROUND import-only processes before each round and every job
process), and peak_rss_mb (median peak resident memory of a job process).
Times are given at the reference host speed of calibration.py: each job's
time is scaled by the calibrations timed around it, and the other times by
the mean calibration of the run.  The raw job times are printed above the
last line.  failed_frac, failed jobs over attempted ones, is printed there
too and carried by `failed` and `attempted`.  With --trace 1 each round
runs an untraced and a traced job, in alternating order, and the metrics
are the per-layer ones of perfbench/tracing.py (medians over traced jobs)
plus trace.overhead_s, the median over rounds of traced minus untraced job
time.

A job fails if it raises, exits with an unexpected code, fails its oracle,
runs past JOB_TIME_LIMIT_S, gives a report whose SHA-256 differs from an
earlier job of the same seed, or (traced) gives counts that differ from
an earlier traced job.  A failed job is never timed as a success: the
metrics come from the jobs that succeeded, and are null if none did.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_build" / "perfbench"
JOB = Path(__file__).resolve().with_name("job.py")
JOB_TIME_LIMIT_S = 150
PROBES_PER_ROUND = 5  # import-only processes before each round of jobs, for setup_s
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_ONLY = {"trace.overhead_s": "s"}


def _job(args, env):
    """Run job.py once; returns its JSON record, with `problems` on failure."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(JOB), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=JOB_TIME_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        return {"problems": [f"time limit of {JOB_TIME_LIMIT_S} s exceeded"], "elapsed": time.monotonic() - started}
    record = {}
    if proc.returncode == 0:
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            record = {"problems": ["job printed no result"]}
    else:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        record = {"problems": [f"job exited {proc.returncode}: {tail[0]}"]}
    record.setdefault("problems", [])
    record["elapsed"] = time.monotonic() - started
    return record


def _digest_log(work, key, digest):
    """The first digest recorded for key under work, recording digest if
    there is none.  Runs of one seed in one checkout must agree."""
    path = work / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key not in known and digest:
        known[key] = digest
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return known.get(key)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def run_workload(workload, seed, seconds, trace, size=None, work=WORK, digest_key=None):
    """Generate, run and check one workload; returns the result object."""
    in_dir = work / f"{workload}-{seed}"
    workloads.generate(workload, seed, in_dir, size or workloads.FULL[workload])
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)

    started = time.monotonic()
    _job(["--probe"], env)  # warm-up: byte-compiles src/ once per checkout
    plain, traced, probes = [], [], []
    modes = [([], plain), (["--trace"], traced)][: 1 + trace]
    reference = {}
    while True:
        if plain:
            round_s = statistics.median(r["elapsed"] for r in plain) * len(modes)
            round_s += statistics.median(r["elapsed"] for r in probes) * PROBES_PER_ROUND
            if time.monotonic() - started + round_s > seconds:
                break
        probes += [_job(["--probe"], env) for _ in range(PROBES_PER_ROUND)]
        order = modes if len(plain) % 2 == 0 else modes[::-1]  # alternate which mode goes first
        for flags, bucket in order:
            record = _job([str(in_dir), *flags], env)
            bucket.append(record)
            if record["problems"]:
                continue
            first = reference.setdefault("digest", record["digest"])
            if record["digest"] != first:
                record["problems"].append(f"report digest {record['digest']} != {first} of this run")
            if "layers" in record:
                counts = {k: v for k, v in record["layers"].items() if tracing.LAYER_METRICS[k] != "s"}
                if reference.setdefault("counts", counts) != counts:
                    record["problems"].append("traced counts differ from the first traced job")

    jobs = plain + traced
    digest = reference.get("digest")
    if digest_key is not None and digest:
        recorded = _digest_log(work, digest_key, digest)
        if recorded != digest:
            for r in jobs:
                if not r["problems"]:
                    r["problems"].append(f"report digest {digest} != {recorded} recorded for this seed")
    ok_plain = [r for r in plain if not r["problems"]]
    ok_traced = [r for r in traced if not r["problems"]]
    failed = sum(1 for r in jobs if r["problems"])

    setups = [r["setup_s"] for r in probes + jobs if "setup_s" in r]
    calibrations = [c for r in probes + jobs for c in r.get("calibration_s", ())]
    scale = calibration.REFERENCE_S / statistics.mean(calibrations) if calibrations else None

    def median(values):
        values = list(values)
        return statistics.median(values) if values else None  # None: no job succeeded

    def at_reference(records):
        """Median job time, each job scaled by the calibrations around it."""
        return median(r["wall_s"] * calibration.REFERENCE_S / statistics.mean(r["calibration_s"]) for r in records)

    if trace:
        layers = [r["layers"] for r in ok_traced]
        values = {}
        for name, unit in tracing.LAYER_METRICS.items():
            value = median(l[name] for l in layers)
            values[name] = value * scale if unit == "s" and value is not None else value
        # A traced and an untraced job run in each round, in alternating
        # order; the two of one round ran at nearly the same host speed.
        overhead = median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced) if not p["problems"] + t["problems"])
        values["trace.overhead_s"] = None if overhead is None else overhead * scale
        units = {**tracing.LAYER_METRICS, **TRACE_ONLY}
    else:
        values = {
            "wall_s": at_reference(ok_plain),
            "setup_s": median(setups) * scale if setups else None,
            "peak_rss_mb": median(r["peak_rss_mb"] for r in ok_plain),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "jobs": jobs,
        "plain": plain,
        "digest": digest,
        "scale": scale,
        "items": next((r["items"] for r in jobs if "items" in r), {}),
        "result": {
            "correct": failed == 0,
            "attempted": len(jobs),
            "failed": failed,
            "metrics": metrics,
        },
    }


def summary(run):
    """Human-readable lines for one workload's run."""
    res = run["result"]
    walls = sorted(r["wall_s"] for r in run["plain"] if "wall_s" in r and not r["problems"])
    lines = [
        f"workload {run['workload']}  seed {run['seed']}  trace {run['trace']}  "
        f"jobs {res['attempted']}  (closed loop, 1 client, fresh process per job)",
        "  items: " + " ".join(f"{k}={v}" for k, v in sorted(run["items"].items())),
        f"  report sha256: {run['digest']}",
    ]
    if walls:
        q1, q3 = _quartiles(walls)
        lines.append(
            f"  raw job time: min {walls[0]:.4f} s  median {statistics.median(walls):.4f}  "
            f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(walls)}"
        )
    if run["scale"] is not None:
        lines.append(f"  host-speed scale (calibration.py) {run['scale']:.4f}")
    for name, metric in res["metrics"].items():
        lines.append(f"  {name} = {metric['value']} {metric['unit']}")
    lines.append(
        f"  failed_frac = {res['failed']}/{res['attempted']} = "
        f"{res['failed'] / res['attempted']:.6g} (jobs failed / attempted)"
    )
    for r in run["jobs"]:
        for problem in r["problems"]:
            lines.append(f"  FAILED: {problem}")
    lines.append(f"  correct: {str(res['correct']).lower()}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cch" / "__init__.py").is_file():
        print(f"error: no cch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(parents=True, exist_ok=True)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = run_workload(name, args.seed, args.seconds, args.trace, digest_key=f"{name}/{args.seed}")
        print("\n".join(summary(run)), flush=True)
        runs.append(run)
    if len(runs) == 1:
        result = runs[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {
                f"{r['workload']}.{k}": v for r in runs for k, v in r["result"]["metrics"].items()
            },
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
