"""Negative-end multisets of the branched covers of a curve, one base orbit
at a time.

A genus-zero degree-d cover of a curve with negative ends refs[ids] has, over
each underlying end, ends whose multiplicities are a partition of d times
that end's (ways[i], one tuple of OrbitTable ids per partition).  Covers of
distinct base orbits are distinct, so a multiset of cover ends splits
uniquely into one multiset per run of ids over one orbit.  Ids ascend with
the orbits, so the parts join into a sorted id tuple, and the first
grouping of ways that reaches a multiset is its parts' first groupings
joined.  Two groupings over one run can give one multiset by more than a
swap of equal underlying ends ({e^2, e^1, e^1} twice and {e^2, e^2} with
{e^1 x4} over e^1, e^1 at d = 4), so a run's multisets are deduplicated.
"""
from __future__ import annotations

from itertools import chain, groupby, product


def _runs(table, ids):
    """The runs of ids over one orbit, in order."""
    refs = table.refs
    return [tuple(run) for _, run in groupby(ids, key=lambda i: i - refs[i].multiplicity)]


def _orbit_multisets(table, run, ways):
    """[(sorted end ids, grading sum)] of the distinct multisets of cover ends
    over the ends refs[run] of one orbit, in order of first sight."""
    g, found = table.grading, {}
    for groups in product(*[ways[i] for i in run]):
        key = tuple(sorted(chain.from_iterable(groups)))
        if key not in found:
            found[key] = sum(g[e] for e in key)
    return list(found.items())


def _cover_shapes(table, p, ids, d, ways):
    """(sorted negative end ids, b, index) of each genus-zero degree-d cover
    with positive end refs[p] of a curve with negative ends refs[ids], once
    per negative-end multiset, in the order in which the product of ways[i]
    over ids first reaches it; b >= 0 by Riemann-Hurwitz b = n + d - d*k - 1
    for n ends over k."""
    g, k = table.grading, len(ids)
    for parts in product(*[_orbit_multisets(table, run, ways) for run in _runs(table, ids)]):
        key = tuple(chain.from_iterable(key for key, _ in parts))
        b = len(key) + d - d * k - 1
        if b >= 0:
            yield key, b, g[p] - sum(t for _, t in parts)


def _cover_counts(table, d, ids, ways, runs):
    """[(b, n, t, count)]: how many of _cover_shapes' multisets have n ends of
    grading sum t, and b branch points, in its order of first sight.  Each
    run's counts, kept in runs per (d, run), convolve; Riemann-Hurwitz reads
    the total n, so it is tested after."""
    total, k = {(0, 0): 1}, len(ids)
    for run in _runs(table, ids):
        if (d, run) not in runs:
            counts = runs[d, run] = {}
            for key, t in _orbit_multisets(table, run, ways):
                counts[len(key), t] = counts.get((len(key), t), 0) + 1
        into = {}
        for (n, t), count in total.items():
            for (m, s), more in runs[d, run].items():
                into[n + m, t + s] = into.get((n + m, t + s), 0) + count * more
        total = into
    return [(b, n, t, count) for (n, t), count in total.items() if (b := n + d - d * k - 1) >= 0]
