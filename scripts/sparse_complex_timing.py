#!/usr/bin/env python3
"""Time build_complex and verify_d_squared on a sparse three-block complex.

    python3 scripts/sparse_complex_timing.py [--per-block N]

The complex has three orbits a, b, c in one non-contractible class, each
with covers 1..N at gradings 2, 1 and 0.  Every cover of a and of b has
two count rows, of random sign, to two distinct random covers one
grading below, so d has 2 entries per column in two nonzero blocks and
d^2 is (almost surely) nonzero; the rows come from a fixed seed.

Both calls, and a plain per-entry dict loop over the stored boundary, are
timed in process, the minimum over RUNS runs.  Every nonzero entry of
delta kappa delta that verify_d_squared reports is checked against that
loop; the script exits 1 on any mismatch.
"""
import argparse
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from cch import OrbitRef, RotationData, build_complex, verify_d_squared
from cch.orbits import format_orbit

SEED = 1
RUNS = 5


def sparse_complex_inputs(n, seed):
    """Orbits, relative gradings, count rows and the covers they index:
    cover k * n + m - 1 is the m-fold cover of orbit k."""
    rng = random.Random(seed)
    orbits = [RotationData(name, Fraction(1), n, homotopy_class="f") for name in "abc"]
    gradings = {f"{o.name}^{m}": g for o, g in zip(orbits, (2, 1, 0)) for m in range(1, n + 1)}
    covers = [OrbitRef(o, m) for o in orbits for m in range(1, n + 1)]
    counts = []
    for upper in (0, n):
        for m in range(1, n + 1):
            for target in rng.sample(range(1, n + 1), 2):
                counts.append((upper + m - 1, upper + n + target - 1, rng.choice((1, -1)), 1))
    return orbits, gradings, counts, covers


def per_entry_d_squared(cx):
    """The nonzero entries of delta kappa delta as (row, column, value),
    by one multiply-add per pair of stored entries."""
    d = cx.boundary
    total = {}
    for k, column in d.items():
        for j, b in column.items():
            for i, a in d.get(j, {}).items():
                total[i, k] = total.get((i, k), 0) + a * b
    return sorted(
        (i, k, Fraction(v, cx.kappa_diag[k])) for (i, k), v in total.items() if v
    )


def best_of(call):
    """The result of call and the least of RUNS wall times."""
    best = None
    for _ in range(RUNS):
        started = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - started
        best = elapsed if best is None else min(best, elapsed)
    return result, best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--per-block", type=int, default=4000)
    args = parser.parse_args(argv)
    if args.per_block < 2:
        parser.error("--per-block must be >= 2")

    orbits, gradings, counts, covers = sparse_complex_inputs(args.per_block, SEED)
    cx, build_s = best_of(lambda: build_complex(orbits, args.per_block, gradings, counts, covers))
    report, verify_s = best_of(lambda: verify_d_squared(cx))
    expected, loop_s = best_of(lambda: per_entry_d_squared(cx))

    names = [format_orbit(g) for g in cx.generators]
    want = [(names[k], names[i], v) for i, k, v in expected]
    matches = list(report.nonzero_entries) == want and report.ok == (not want)
    print(f"per block: {args.per_block}")
    print(f"records: {len(counts)}")
    print(f"nonzero d^2 entries: {len(want)}")
    print(f"build_complex_s: {build_s:.4f} (min of {RUNS})")
    print(f"verify_d_squared_s: {verify_s:.4f} (min of {RUNS})")
    print(f"per_entry_loop_s: {loop_s:.4f} (min of {RUNS})")
    print(f"d^2 matches per-entry loop: {matches}")
    return 0 if matches else 1


if __name__ == "__main__":
    raise SystemExit(main())
