"""Acceptance suite: one test per criterion, each printing a pass line.

Every expected value here is either computed by an independent oracle
inside the test (direct floor enumeration, brute force recounts) or is a
frozen constant verified by such an oracle.  All comparisons are exact;
the only tolerances are the stated wall-clock limits.
"""
import json
import random
import time
from fractions import Fraction
from math import floor, gcd, lcm
from pathlib import Path

import pytest

from cch.buildings import (
    ComponentKind,
    EnumerationBounds,
    GenericityProfile,
    classify_building,
    enumerate_buildings,
    run_estimate_sweep,
    verify_propositions,
)
from cch.cli import run_command
from cch.complexes import (
    build_complex,
    end_contribution,
    gluing_count,
    homology_ranks,
    verify_d_squared,
)
from cch.orbits import (
    CurveData,
    OrbitRef,
    OrbitType,
    RotationData,
    cz_index,
    fredholm_index,
    orbit_type,
)
from cch.scenario import emit_scenario, parse_scenario, parse_scenario_text
from cch.writhe import sweep_no_bad_break

F = Fraction

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def _stamp(number, name, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.2f}s")


def test_criterion_1_pair_of_pants_index_one():
    started = time.monotonic()
    thetas = [F(t) for t in range(-10, 11)]
    thetas += [t + F(1, 2) for t in range(-10, 10)]
    assert len(thetas) == 41
    for theta in thetas:
        base = RotationData("g", theta, 20)
        for d1 in range(1, 11):
            for d2 in range(1, 11):
                pants = CurveData(
                    0,
                    (OrbitRef(base, d1 + d2),),
                    (OrbitRef(base, d1), OrbitRef(base, d2)),
                )
                assert fredholm_index(pants) == 1
    _stamp(1, "hyperbolic pair-of-pants index", started, 1.0)


def test_criterion_2_estimate_suite_zero_violations():
    started = time.monotonic()
    orbits = [
        RotationData("a", F(6, 5), 4),
        RotationData("b", F(233, 144), 100),
        RotationData("c", F(1, 2), 100),
        RotationData("d", F(3, 2), 100),
        RotationData("e", F(2), 100),
        RotationData("f", F(3, 10), 9),
        RotationData("g", F(7, 5), 4),
    ]
    profile = GenericityProfile(generic_J=True, dynamically_convex=False)
    report = run_estimate_sweep(orbits, profile, EnumerationBounds())
    assert report.components > 50_000
    for name in (
        "trivial_cover_nonnegative",
        "cover_index_bound",
        "nontrivial_cover_bounds",
        "cylinder_cover_index",
        "multi_end_cover_combination",
    ):
        assert report.checked[name] > 0
        assert not report.violations[name], (name, report.violations[name][:3])
    _stamp(2, "index estimate suite", started, 300.0)


def test_criterion_3_low_index_building_classification():
    started = time.monotonic()
    orbits = [
        RotationData("e", F(6, 5), 4, contractible=True),
        RotationData("p", F(2), 30, contractible=True),
        RotationData("h", F(1, 2), 30, homotopy_class="f"),
    ]
    profile = GenericityProfile(True, True, True)
    report = verify_propositions(orbits, profile, EnumerationBounds())
    assert report.entries
    assert report.ok, [e.building.key for e in report.counterexamples]
    for entry in report.entries:
        b = entry.building
        if b.total_index == 2 and len(b.negative_ends) == 1:
            assert entry.classification in (
                "index-two:one-level",
                "index-two:two-cylinder-levels",
                "index-two:split-off-plane",
            )
    assert report.tally().get("index-two:split-off-plane", 0) >= 1

    # The split-off-plane shape with an embedded plane orbit must occur.
    found_embedded_split = False
    for b in enumerate_buildings(orbits, profile, EnumerationBounds()):
        tag, ok = classify_building(b)
        if tag != "index-two:split-off-plane":
            continue
        planes = [c for c in b.levels[1] if not c.negative_ends]
        if planes[0].positive_end.multiplicity == 1:
            found_embedded_split = True
    assert found_embedded_split
    _stamp(3, "low-index building classification", started, 600.0)


def test_criterion_4_breaking_exclusion_sweep():
    started = time.monotonic()
    result = sweep_no_bad_break(max_degree=200, max_denominator=50, theta_upper=10)
    # Reduced rationals p/q, q >= 3 (others are hyperbolic), 200 degrees each.
    expected = 200 * sum(
        1
        for q in range(3, 51)
        for p in range(1, 10 * q)
        if gcd(p, q) == 1
    )
    assert result.certificates_checked == expected
    assert result.counterexamples == ()
    _stamp(4, "A-and-B unsatisfiable sweep", started, 120.0)


def test_criterion_5_beatty_surrogate_homology():
    started = time.monotonic()
    theta1, bound1 = F(233, 144), 21
    theta2, bound2 = F(233, 89), 13

    # Independent oracle: enumerate both floor sequences directly and check
    # they partition an initial segment of the positive integers.
    seq1 = [floor(theta1 * k) for k in range(1, bound1 + 1)]
    seq2 = [floor(theta2 * k) for k in range(1, bound2 + 1)]
    assert len(set(seq1)) == len(seq1)
    assert len(set(seq2)) == len(seq2)
    assert not set(seq1) & set(seq2)
    horizon = min(floor(theta1 * (bound1 + 1)), floor(theta2 * (bound2 + 1)))
    n_top = horizon - 1
    assert n_top == 34  # frozen from the oracle
    assert sorted(set(seq1) | set(seq2)) == list(range(1, n_top + 1))

    g1 = RotationData("g1", theta1, bound1, contractible=True)
    g2 = RotationData("g2", theta2, bound2, contractible=True)
    cx = build_complex([g1, g2], max(bound1, bound2))
    assert verify_d_squared(cx).ok
    ranks = homology_ranks(cx)
    assert ranks == {("0", 2 * j): 1 for j in range(1, n_top + 1)}
    _stamp(5, "Beatty-partition homology", started, 1.0)


def _split_cancel_complex(flip_sign=False):
    a = RotationData("a", F(6, 5), 1, contractible=True)
    b = RotationData("b", F(1), 1, contractible=True)
    c = RotationData("c", F(1, 2), 1, contractible=True)
    p = RotationData("p", F(6, 5), 2, homotopy_class="t")
    q = RotationData("q", F(6, 5), 2, homotopy_class="t")
    r = RotationData("r", F(6, 5), 2, homotopy_class="t")
    second = 1 if flip_sign else -1
    covers = (
        OrbitRef(a, 1), OrbitRef(b, 1), OrbitRef(c, 1), OrbitRef(p, 2), OrbitRef(q, 2), OrbitRef(r, 2)
    )
    counts = [
        (0, 1, 1, 1),  # a^1 -> b^1
        (1, 2, 1, 1),  # b^1 -> c^1
        (1, 2, second, 1),
        (3, 4, 1, 2),  # p^2 -> q^2
        (4, 5, 1, 2),  # q^2 -> r^2
        (4, 5, second, 2),
    ]
    gradings = {"p^1": 6, "p^2": 3, "q^1": 5, "q^2": 2, "r^1": 4, "r^2": 1}
    return build_complex([a, b, c, p, q, r], 2, gradings, counts, covers)


def test_criterion_6_split_contributions_cancel():
    started = time.monotonic()
    # Oracle: the broken-pair contributions along each middle generator sum
    # to zero with these signs and degrees.
    assert end_contribution(1, 1, 1, 1, 1, True) + end_contribution(1, -1, 1, 1, 1, True) == 0
    assert end_contribution(1, 1, 2, 2, 2, True) + end_contribution(1, -1, 2, 2, 2, True) == 0

    cx = _split_cancel_complex()
    report = verify_d_squared(cx)
    assert report.ok
    # The integer boundary: a^1 -> b^1 is 1, p^2 -> q^2 is m(p^2) / 2 = 1,
    # and the two pairs of opposite records cancel.
    boundary = [v for column in cx.boundary.values() for v in column.values()]
    assert sorted(boundary) == [1, 1]

    corrupted = _split_cancel_complex(flip_sign=True)
    bad_report = verify_d_squared(corrupted)
    assert not bad_report.ok
    assert bad_report.nonzero_entries
    _stamp(6, "split-contribution cancellation", started, 1.0)


def test_criterion_7_gluing_integrality_sweep():
    started = time.monotonic()
    rng = random.Random(20260809)
    for _ in range(10_000):
        d_plus = rng.randint(1, 24)
        d_minus = rng.randint(1, 24)
        d0 = lcm(d_plus, d_minus) * rng.randint(1, 12)
        out = gluing_count(d_plus, d_minus, d0)
        k = gcd(d_plus, d_minus)
        assert out.count * d_plus * d_minus == k * d0
        assert out.count >= 1
        assert out.end_degree == k
        if d_plus == d_minus == 1:
            assert out.count == d0
        recount = gluing_count(d_plus // k, d_minus // k, d0 // k)
        assert recount.count == out.count
        assert recount.end_degree == 1
    _stamp(7, "gluing count integrality", started, 1.0)


def _random_theta(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return F(rng.randint(-12, 12))
    if kind == 1:
        return rng.randint(-12, 12) + F(1, 2)
    while True:
        q = rng.randint(3, 48)
        p = rng.randint(1, 12 * q)
        theta = F(p, q)
        if theta.denominator > 2:
            return theta


def test_criterion_8_property_battery():
    started = time.monotonic()
    rng = random.Random(89)

    for _ in range(100_000):
        theta = _random_theta(rng)
        if theta.denominator > 2:
            bound = theta.denominator - 1
        else:
            bound = 48
        base = RotationData("g", theta, bound)
        m = rng.randint(1, bound)
        ref = OrbitRef(base, m)
        cz = cz_index(ref)
        assert (cz % 2 == 0) == (orbit_type(ref) is OrbitType.POSITIVE_HYPERBOLIC)
        m1 = rng.randint(1, m)
        m2 = m - m1
        if m2 >= 1:
            gap = cz - cz_index(OrbitRef(base, m1)) - cz_index(OrbitRef(base, m2))
            assert -1 <= gap <= 1
        assert cz >= m * cz_index(OrbitRef(base, 1)) - m + 1

    def automatic_transversality(genus, h_plus, index):
        return 2 * genus - 2 + h_plus < index

    for g in range(0, 4):
        for h in range(0, 8):
            for ind in range(-4, 8):
                here = automatic_transversality(g, h, ind)
                assert automatic_transversality(g, h, ind + 1) or not here
                assert here or not automatic_transversality(g, h + 1, ind)

    for path in sorted(SCENARIOS.glob("*.json")):
        s = parse_scenario(path)
        assert parse_scenario_text(emit_scenario(s)) == s

    small = str(SCENARIOS / "convex_small.json")
    runs = {run_command(["enumerate", "--scenario", small]) for _ in range(3)}
    assert len(runs) == 1
    runs = {run_command(["cz", "--theta", "3/2", "--mult", "2"]) for _ in range(3)}
    assert len(runs) == 1
    _stamp(8, "index and interface properties", started, 120.0)
