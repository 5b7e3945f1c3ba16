"""One job in a fresh process; prints one JSON line with its measurements.

    python3 perfbench/job.py <input dir> [--trace | --probe]

`--probe` only times the import and one calibration (calibration.py).
Otherwise the job runs the workload written in <input dir>, times it from
the call to the returned reports, reads the peak resident memory, and then
checks the reports against the workload's oracle.  CALIBRATIONS
calibrations are timed right before the job and as many right after.
`--trace` wraps the cch layers while the job runs.
"""
import os  # os, sys and time are loaded at interpreter start-up
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_started = time.perf_counter()
sys.path.insert(0, _SRC)
import cch.cli  # noqa: E402  (timed: what every CLI invocation pays)

SETUP_S = time.perf_counter() - _started

import json  # noqa: E402
import resource  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CALIBRATIONS = 3


def main(argv):
    if not os.path.abspath(cch.cli.__file__).startswith(_SRC + os.sep):
        print(f"cch was imported from {cch.cli.__file__}, not {_SRC}", file=sys.stderr)
        return 2
    out = {"setup_s": SETUP_S}
    out["calibration_s"] = [calibration.calibrate() for _ in range(1 if "--probe" in argv else CALIBRATIONS)]
    if "--probe" in argv:
        print(json.dumps(out))
        return 0
    in_dir = argv[0]
    spec = workloads.load_spec(in_dir)
    if "--trace" in argv:
        with tracing.Tracer() as tracer:
            started = time.perf_counter()
            reports = workloads.run_job(spec, in_dir)
            out["wall_s"] = time.perf_counter() - started
        out["layers"] = tracer.layer_metrics()
    else:
        started = time.perf_counter()
        reports = workloads.run_job(spec, in_dir)
        out["wall_s"] = time.perf_counter() - started
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    out["calibration_s"] += [calibration.calibrate() for _ in range(CALIBRATIONS)]
    out["problems"], out["items"] = workloads.check(spec, reports)
    out["digest"] = workloads.digest(reports)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
