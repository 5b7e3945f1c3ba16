import random
import time
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cch.complexes import (
    CylinderCount,
    EMPTY_COUNTS,
    GluingEnds,
    ModuliCountTable,
    build_complex,
    end_contribution,
    gluing_count,
    homology_ranks,
    render_homology_report,
    verify_d_squared,
)
from cch.errors import (
    BadOrbitError,
    CoverDivisibilityError,
    GradingMismatchError,
    PreconditionError,
    SequencingError,
)
from cch.orbits import (
    OrbitRef,
    OrbitType,
    RotationData,
    cz_index,
    format_orbit,
    grading,
    orbit_type,
)

F = Fraction

GOLD1 = RotationData("g1", F(233, 144), 30, contractible=True)
GOLD2 = RotationData("g2", F(233, 89), 30, contractible=True)


def synthetic_complex(flip_sign=False):
    a = RotationData("a", F(6, 5), 4, contractible=True)
    b = RotationData("b", F(1), 4, contractible=True)
    c = RotationData("c", F(1, 2), 1, contractible=True)
    p = RotationData("p", F(6, 5), 4, homotopy_class="t")
    q = RotationData("q", F(6, 5), 4, homotopy_class="t")
    r = RotationData("r", F(6, 5), 4, homotopy_class="t")
    second = 1 if flip_sign else -1
    counts = ModuliCountTable(
        {
            (OrbitRef(a, 1), OrbitRef(b, 1)): (CylinderCount(1, 1),),
            (OrbitRef(b, 1), OrbitRef(c, 1)): (
                CylinderCount(1, 1),
                CylinderCount(second, 1),
            ),
            (OrbitRef(p, 2), OrbitRef(q, 2)): (CylinderCount(1, 2),),
            (OrbitRef(q, 2), OrbitRef(r, 2)): (
                CylinderCount(1, 2),
                CylinderCount(second, 2),
            ),
        }
    )
    gradings = {"p^2": 3, "q^2": 2, "r^2": 1, "p^1": 6, "q^1": 5, "r^1": 4}
    return build_complex([a, b, c, p, q, r], 2, gradings, counts)


# ----------------------------------------------------------------- building


def test_two_elliptic_orbits_empty_counts():
    cx = build_complex([GOLD1, GOLD2], 30)
    assert len(cx.generators) == 60
    assert cx.delta == {}
    assert cx.boundary == {}
    assert all(g % 2 == 0 for g in cx.gradings)


def test_single_positive_hyperbolic_orbit():
    o = RotationData("o", F(2), 5, contractible=True)
    cx = build_complex([o], 5)
    assert len(cx.generators) == 5
    assert cx.boundary == {}


def test_smallest_nonzero_boundary_coefficient():
    alpha = RotationData("al", F(10, 7), 3, homotopy_class="w")
    beta = RotationData("be", F(6, 5), 3, homotopy_class="w")
    counts = ModuliCountTable(
        {(OrbitRef(alpha, 1), OrbitRef(beta, 1)): (CylinderCount(1, 1),)}
    )
    cx = build_complex([alpha, beta], 1, {"al^1": 1, "be^1": 0}, counts)
    i, j = cx.index_of(OrbitRef(beta, 1)), cx.index_of(OrbitRef(alpha, 1))
    assert cx.boundary == {(i, j): 1}


def test_bad_orbit_generators_are_excluded():
    h = RotationData("h", F(1, 2), 6)
    cx = build_complex([h], 6)
    mults = sorted(r.multiplicity for r in cx.generators)
    assert mults == [1, 3, 5]


def test_counts_referencing_bad_orbit_rejected():
    h = RotationData("h", F(1, 2), 4)
    e = RotationData("e", F(6, 5), 4)
    counts = ModuliCountTable(
        {(OrbitRef(e, 1), OrbitRef(h, 2)): (CylinderCount(1, 1),)}
    )
    with pytest.raises(BadOrbitError):
        build_complex([h, e], 4, {"e^1": 1, "h^1": 0, "h^3": 0}, counts)


def test_cover_degree_divisibility_enforced():
    p = RotationData("p", F(6, 5), 4, homotopy_class="t")
    q = RotationData("q", F(6, 5), 4, homotopy_class="t")
    counts = ModuliCountTable(
        {(OrbitRef(p, 1), OrbitRef(q, 2)): (CylinderCount(1, 2),)}
    )
    with pytest.raises(CoverDivisibilityError):
        build_complex([p, q], 2, {"p^1": 6, "q^2": 5, "p^2": 0, "q^1": 0}, counts)


def test_grading_must_drop_by_one():
    a = RotationData("a", F(6, 5), 2, contractible=True)
    b = RotationData("b", F(233, 144), 2, contractible=True)
    counts = ModuliCountTable(
        {(OrbitRef(a, 1), OrbitRef(b, 1)): (CylinderCount(1, 1),)}
    )
    with pytest.raises(GradingMismatchError):
        build_complex([a, b], 1, None, counts)


def test_cross_class_counts_rejected():
    a = RotationData("a", F(6, 5), 2, homotopy_class="x")
    b = RotationData("b", F(6, 5), 2, homotopy_class="y")
    counts = ModuliCountTable(
        {(OrbitRef(a, 1), OrbitRef(b, 1)): (CylinderCount(1, 1),)}
    )
    with pytest.raises(GradingMismatchError):
        build_complex([a, b], 1, {"a^1": 1, "b^1": 0}, counts)


def test_contractible_grading_cannot_be_overridden():
    a = RotationData("a", F(6, 5), 2, contractible=True)
    with pytest.raises(GradingMismatchError):
        build_complex([a], 1, {"a^1": 7})


def test_empty_orbit_set_gives_empty_complex():
    cx = build_complex([], 3)
    assert cx.generators == ()
    assert verify_d_squared(cx).ok
    assert homology_ranks(cx) == {}


# ------------------------------------------------------------- verification


def test_delta_zero_complex_passes():
    cx = build_complex([GOLD1], 5)
    report = verify_d_squared(cx)
    assert report.ok and report.boundary_squared_ok


def test_synthetic_complex_passes_and_is_integral():
    cx = synthetic_complex()
    report = verify_d_squared(cx)
    assert report.ok
    assert report.boundary_squared_ok
    boundary = cx.boundary
    assert boundary
    assert all(v.denominator == 1 for v in boundary.values())
    # b^1 -> c^1 carries +1 and -1: the cancelled entry is not stored.
    keys = cx.generator_keys()
    b, c = keys.index("b^1"), keys.index("c^1")
    assert c not in cx.delta.get(b, {})
    assert all(v != 0 for column in cx.delta.values() for v in column.values())


def test_corrupted_table_reports_nonzero_entry():
    cx = synthetic_complex(flip_sign=True)
    report = verify_d_squared(cx)
    assert not report.ok
    assert report.nonzero_entries
    sources = {entry[0] for entry in report.nonzero_entries}
    assert "a^1" in sources or "p^2" in sources


def test_homology_requires_verification():
    cx = build_complex([GOLD1], 3)
    with pytest.raises(SequencingError):
        homology_ranks(cx)
    verify_d_squared(cx)
    assert homology_ranks(cx)


def test_failed_verification_blocks_homology():
    cx = synthetic_complex(flip_sign=True)
    verify_d_squared(cx)
    with pytest.raises(SequencingError):
        homology_ranks(cx)


# ----------------------------------------------------------------- homology


def test_one_generator_complex():
    o = RotationData("o", F(6, 5), 1, contractible=True)
    cx = build_complex([o], 1)
    verify_d_squared(cx)
    assert homology_ranks(cx) == {("0", 2): 1}


def test_synthetic_homology_ranks():
    cx = synthetic_complex()
    verify_d_squared(cx)
    ranks = homology_ranks(cx)
    # One differential of rank one in each class kills two generators.
    assert ranks.get(("0", 2)) is None
    assert ranks.get(("0", 1)) is None
    assert ranks[("0", 0)] == 1
    assert ranks.get(("t", 3)) is None
    assert ranks.get(("t", 2)) is None
    assert ranks[("t", 1)] == 1


def test_homology_invariant_under_generator_permutation_and_sign_flip():
    a = RotationData("a", F(6, 5), 2, homotopy_class="t")
    b = RotationData("b", F(6, 5), 2, homotopy_class="t")
    c = RotationData("c", F(6, 5), 2, homotopy_class="t")

    def ranks_for(order, flip):
        sign = -1 if flip else 1
        counts = ModuliCountTable(
            {
                (OrbitRef(a, 1), OrbitRef(b, 1)): (CylinderCount(sign, 1),),
                (OrbitRef(b, 1), OrbitRef(c, 1)): (
                    CylinderCount(sign, 1),
                    CylinderCount(-sign, 1),
                ),
            }
        )
        cx = build_complex(order, 1, {"a^1": 2, "b^1": 1, "c^1": 0}, counts)
        verify_d_squared(cx)
        return homology_ranks(cx)

    base = ranks_for([a, b, c], False)
    assert ranks_for([c, a, b], False) == base
    assert ranks_for([b, c, a], False) == base
    assert ranks_for([a, b, c], True) == base


def test_default_relative_grading_is_cz_minus_one():
    o = RotationData("o", F(2), 2, homotopy_class="free")
    cx = build_complex([o], 2)
    assert cx.gradings == (3, 7)
    verify_d_squared(cx)
    assert homology_ranks(cx) == {("free", 3): 1, ("free", 7): 1}


def test_contractible_grading_parity():
    # Even gradings throughout the contractible class except at positive
    # hyperbolic covers.
    orbits = [
        RotationData("e", F(233, 144), 12, contractible=True),
        RotationData("p", F(3), 12, contractible=True),
        RotationData("h", F(1, 2), 12, contractible=True),
    ]
    cx = build_complex(orbits, 12)
    for ref, g in zip(cx.generators, cx.gradings):
        if orbit_type(ref) is OrbitType.POSITIVE_HYPERBOLIC:
            assert g % 2 == 1
        else:
            assert g % 2 == 0


def test_beatty_surrogate_small():
    g1 = RotationData("g1", F(233, 144), 21, contractible=True)
    g2 = RotationData("g2", F(233, 89), 13, contractible=True)
    cx = build_complex([g1, g2], 21)
    verify_d_squared(cx)
    ranks = homology_ranks(cx)
    floors = sorted(
        [(F(233, 144) * k).__floor__() for k in range(1, 22)]
        + [(F(233, 89) * k).__floor__() for k in range(1, 14)]
    )
    assert floors == list(range(1, 35))
    assert ranks == {("0", 2 * j): 1 for j in range(1, 35)}
    lines = render_homology_report(ranks)
    assert lines[0] == "homology classes: 34"


# ------------------------------------------------------------------- gluing


def test_gluing_count_examples():
    assert gluing_count(2, 3, 6) == GluingEnds(1, 1)
    assert gluing_count(1, 1, 5) == GluingEnds(5, 1)
    assert gluing_count(2, 2, 2) == GluingEnds(1, 2)


def test_gluing_count_divisibility():
    with pytest.raises(CoverDivisibilityError):
        gluing_count(2, 3, 4)


@given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 20))
def test_gluing_count_is_positive_integer_and_recount_agrees(dp, dm, t):
    from math import gcd, lcm

    d0 = lcm(dp, dm) * t
    out = gluing_count(dp, dm, d0)
    assert out.count >= 1
    assert out.end_degree == gcd(dp, dm)
    k = out.end_degree
    assert gluing_count(dp // k, dm // k, d0 // k).count == out.count
    if dp == dm == 1:
        assert out.count == d0


def test_end_contribution_examples():
    assert end_contribution(1, -1, 1, 1, 3, True) == -3
    assert end_contribution(1, 1, 1, 1, 7, False) == 0
    assert end_contribution(1, 1, 2, 3, 6, True) == 1


def test_end_contribution_validates():
    with pytest.raises(PreconditionError):
        end_contribution(2, 1, 1, 1, 1, True)
    with pytest.raises(CoverDivisibilityError):
        end_contribution(1, 1, 2, 1, 3, True)


def test_synthetic_contributions_sum_matches_composite():
    # The double-composite entry equals the sum of broken-pair contributions.
    pairs = [(1, 1), (1, -1)]
    total = sum(
        end_contribution(ep, em, 1, 1, 1, True) for ep, em in pairs
    )
    assert total == 0
    cx = synthetic_complex()
    report = verify_d_squared(cx)
    assert report.ok


# ---------------------------------------------------- sparse kernel oracle


def _gauss_rank(rows):
    """Rank by plain Gaussian elimination over Fractions."""
    m = [[F(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        head = m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / head[col]
            m[i] = [a - factor * b for a, b in zip(m[i], head)]
        rank += 1
    return rank


def _dense_oracle(cx, counts):
    """delta kappa delta entries in row-major order, whether (delta kappa)^2
    vanishes, and homology ranks, from the count records with dense
    Fraction matrices over the generators of cx."""
    gens = cx.generators
    n = len(gens)
    pos = {ref: i for i, ref in enumerate(gens)}
    kappa = [ref.multiplicity for ref in gens]
    delta = [[F(0)] * n for _ in range(n)]
    for (alpha, beta), records in counts.entries.items():
        for rec in records:
            delta[pos[beta]][pos[alpha]] += F(rec.sign, rec.cover_degree)
    d_kappa = [[delta[i][j] * kappa[j] for j in range(n)] for i in range(n)]

    def product(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n)] for i in range(n)]

    dkd = product(d_kappa, delta)
    entries = [
        (format_orbit(gens[j]), format_orbit(gens[i]), dkd[i][j])
        for i in range(n)
        for j in range(n)
        if dkd[i][j] != 0
    ]
    square_zero = all(v == 0 for row in product(d_kappa, d_kappa) for v in row)
    blocks = {}
    for i, key in enumerate(zip(cx.classes, cx.gradings)):
        blocks.setdefault(key, []).append(i)

    def block_rank(rows, cols):
        if not rows or not cols:
            return 0
        return _gauss_rank([[d_kappa[i][j] for j in cols] for i in rows])

    ranks = {}
    for (cls, g), here in blocks.items():
        below, above = blocks.get((cls, g - 1), []), blocks.get((cls, g + 1), [])
        value = len(here) - block_rank(below, here) - block_rank(here, above)
        if value:
            ranks[(cls, g)] = value
    return entries, square_zero, ranks


def _random_complex(rng):
    """2-4 orbits in one or two classes, random gradings, and records of
    both signs with cover degrees 1-3 between generators one grading apart."""
    classes = rng.choice((["t"], ["t", "u"]))
    orbits = [
        RotationData(f"o{k}", F(6, 5), rng.randint(1, 3), homotopy_class=rng.choice(classes))
        for k in range(rng.randint(2, 4))
    ]
    refs = [OrbitRef(o, m) for o in orbits for m in range(1, o.validity_bound + 1)]
    gradings = {format_orbit(r): rng.randint(0, 2) for r in refs}
    entries = {}
    for alpha in refs:
        for beta in refs:
            if (
                alpha.base.homotopy_class != beta.base.homotopy_class
                or gradings[format_orbit(alpha)] - gradings[format_orbit(beta)] != 1
                or rng.random() < 0.4
            ):
                continue
            degrees = [
                d for d in (1, 2, 3) if alpha.multiplicity % d == 0 and beta.multiplicity % d == 0
            ]
            entries[(alpha, beta)] = tuple(
                CylinderCount(rng.choice((1, -1)), rng.choice(degrees))
                for _ in range(rng.randint(1, 2))
            )
    counts = ModuliCountTable(entries)
    return build_complex(orbits, 3, gradings, counts), counts


def test_sparse_kernel_matches_dense_oracle():
    rng = random.Random(20261018)
    seen = {"fail": 0, "pass_nonzero": 0, "fractional": 0}
    for _ in range(300):
        cx, counts = _random_complex(rng)
        entries, square_zero, ranks = _dense_oracle(cx, counts)
        report = verify_d_squared(cx)
        assert list(report.nonzero_entries) == entries
        assert report.ok == (not entries)
        assert report.boundary_squared_ok == square_zero
        if report.ok:
            assert homology_ranks(cx) == ranks
            seen["pass_nonzero"] += bool(cx.delta)
        else:
            seen["fail"] += 1
            with pytest.raises(SequencingError):
                homology_ranks(cx)
        seen["fractional"] += any(
            v.denominator != 1 for column in cx.delta.values() for v in column.values()
        )
    # The grid covers failing complexes, passing ones with a nonzero
    # differential, and differentials with fractional entries.
    assert min(seen.values()) >= 20, seen


def test_middle_multiplicity_weights_the_composite():
    # a^1 -> b^1 -> c^1 and a^1 -> b^2 -> c^1 cancel in delta^2 but not in
    # delta kappa delta, where the middle generator's multiplicity enters.
    a = RotationData("a", F(6, 5), 1, homotopy_class="t")
    b = RotationData("b", F(6, 5), 2, homotopy_class="t")
    c = RotationData("c", F(6, 5), 1, homotopy_class="t")
    counts = ModuliCountTable(
        {
            (OrbitRef(a, 1), OrbitRef(b, 1)): (CylinderCount(1, 1),),
            (OrbitRef(a, 1), OrbitRef(b, 2)): (CylinderCount(1, 1),),
            (OrbitRef(b, 1), OrbitRef(c, 1)): (CylinderCount(1, 1),),
            (OrbitRef(b, 2), OrbitRef(c, 1)): (CylinderCount(-1, 1),),
        }
    )
    cx = build_complex([a, b, c], 2, {"a^1": 2, "b^1": 1, "b^2": 1, "c^1": 0}, counts)
    report = verify_d_squared(cx)
    assert report.nonzero_entries == (("a^1", "c^1", F(-1)),)
    assert not report.ok and not report.boundary_squared_ok


def test_beatty_surrogate_ten_thousand_generators():
    started = time.monotonic()
    a, b = 10946, 6765  # consecutive Fibonacci numbers
    theta1, theta2 = F(a, b), F(a, a - b)
    bound1, bound2 = b - 1, a - b - 1
    # Oracle: the two floor sequences partition 1..a-2.
    values = [floor(theta1 * k) for k in range(1, bound1 + 1)]
    values += [floor(theta2 * k) for k in range(1, bound2 + 1)]
    assert sorted(values) == list(range(1, a - 1))

    g1 = RotationData("g1", theta1, bound1, contractible=True)
    g2 = RotationData("g2", theta2, bound2, contractible=True)
    cx = build_complex([g1, g2], bound1)
    assert len(cx.generators) == 10_944
    assert verify_d_squared(cx).ok
    assert homology_ranks(cx) == {("0", 2 * v): 1 for v in values}
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"10,944-generator complex took {elapsed:.1f}s"
