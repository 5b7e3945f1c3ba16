#!/usr/bin/env python3
"""Run the full index-estimate suite over an exhaustive component sweep."""
import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cch import run_estimate_sweep
from cch.scenario import parse_scenario

DEFAULT = Path(__file__).resolve().parents[1] / "scenarios" / "estimate_suite.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", default=str(DEFAULT))
    args = parser.parse_args()

    scenario = parse_scenario(args.scenario)
    started = time.monotonic()
    report = run_estimate_sweep(scenario.orbits, scenario.profile, scenario.bounds)
    elapsed = time.monotonic() - started
    for line in report.lines():
        print(line)
    print(f"elapsed: {elapsed:.1f}s", file=sys.stderr)
    if not report.ok:
        for name, items in report.violations.items():
            for key in items[:10]:
                print(f"violation {name}: {key}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
