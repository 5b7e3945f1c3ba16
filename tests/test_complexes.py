import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import floor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cch.complexes import (
    ChainComplex,
    GluingEnds,
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
    format_orbit,
    orbit_type,
)

F = Fraction

GOLD1 = RotationData("g1", F(233, 144), 30, contractible=True)
GOLD2 = RotationData("g2", F(233, 89), 30, contractible=True)


def record(alpha, beta, sign=1, degree=1):
    """A count record from cover alpha to cover beta."""
    return alpha, beta, sign, degree


def as_rows(records):
    """build_complex's counts and covers for records: one row of ints per
    record, indexing the distinct covers in order of first use."""
    covers = {}
    counts = [
        (covers.setdefault(alpha, len(covers)), covers.setdefault(beta, len(covers)), sign, degree)
        for alpha, beta, sign, degree in records
    ]
    return counts, tuple(covers)


def boundary(cx):
    """delta kappa as {(i, j): entry}, nonzero entries only."""
    return {(i, j): v for j, column in cx.boundary.items() for i, v in column.items()}


def synthetic_complex(flip_sign=False):
    a = RotationData("a", F(6, 5), 4, contractible=True)
    b = RotationData("b", F(1), 4, contractible=True)
    c = RotationData("c", F(1, 2), 1, contractible=True)
    p = RotationData("p", F(6, 5), 4, homotopy_class="t")
    q = RotationData("q", F(6, 5), 4, homotopy_class="t")
    r = RotationData("r", F(6, 5), 4, homotopy_class="t")
    second = 1 if flip_sign else -1
    counts = [
        record(OrbitRef(a, 1), OrbitRef(b, 1)),
        record(OrbitRef(b, 1), OrbitRef(c, 1)),
        record(OrbitRef(b, 1), OrbitRef(c, 1), second),
        record(OrbitRef(p, 2), OrbitRef(q, 2), 1, 2),
        record(OrbitRef(q, 2), OrbitRef(r, 2), 1, 2),
        record(OrbitRef(q, 2), OrbitRef(r, 2), second, 2),
    ]
    gradings = {"p^2": 3, "q^2": 2, "r^2": 1, "p^1": 6, "q^1": 5, "r^1": 4}
    return build_complex([a, b, c, p, q, r], 2, gradings, *as_rows(counts))


# ----------------------------------------------------------------- building


def test_two_elliptic_orbits_empty_counts():
    cx = build_complex([GOLD1, GOLD2], 30)
    assert len(cx.generators) == 60
    assert cx.boundary == {}
    assert all(g % 2 == 0 for g in cx.gradings)


def test_single_positive_hyperbolic_orbit():
    o = RotationData("o", F(2), 5, contractible=True)
    cx = build_complex([o], 5)
    assert len(cx.generators) == 5
    assert boundary(cx) == {}


def test_smallest_nonzero_boundary_coefficient():
    alpha = RotationData("al", F(10, 7), 3, homotopy_class="w")
    beta = RotationData("be", F(6, 5), 3, homotopy_class="w")
    counts = [record(OrbitRef(alpha, 1), OrbitRef(beta, 1))]
    cx = build_complex([alpha, beta], 1, {"al^1": 1, "be^1": 0}, *as_rows(counts))
    i, j = cx.generators.index(OrbitRef(beta, 1)), cx.generators.index(OrbitRef(alpha, 1))
    assert boundary(cx) == {(i, j): 1}


def test_bad_orbit_generators_are_excluded():
    h = RotationData("h", F(1, 2), 6)
    cx = build_complex([h], 6)
    mults = sorted(r.multiplicity for r in cx.generators)
    assert mults == [1, 3, 5]


def test_counts_referencing_bad_orbit_rejected():
    h = RotationData("h", F(1, 2), 4)
    e = RotationData("e", F(6, 5), 4)
    counts = [record(OrbitRef(e, 1), OrbitRef(h, 2))]
    with pytest.raises(BadOrbitError):
        build_complex([h, e], 4, {"e^1": 1, "h^1": 0, "h^3": 0}, *as_rows(counts))


def test_counts_outside_the_generators_rejected():
    # A cover above the cap, and a cover of an orbit that only shares its
    # name with one of the complex, are not generators.
    e = RotationData("e", F(6, 5), 4, homotopy_class="t")
    f = RotationData("f", F(6, 5), 4, homotopy_class="t")
    impostor = RotationData("e", F(7, 5), 4, homotopy_class="t")
    gradings = {"e^1": 1, "e^2": 1, "f^1": 0, "f^2": 0}
    for alpha in (OrbitRef(e, 3), OrbitRef(impostor, 1)):
        with pytest.raises(BadOrbitError, match="e\\^[13] is not among the generators"):
            build_complex([e, f], 2, gradings, *as_rows([record(alpha, OrbitRef(f, 1))]))
    cx = build_complex([e, f], 2, gradings, *as_rows([record(OrbitRef(e, 1), OrbitRef(f, 1))]))
    assert cx.boundary == {0: {2: 1}}


def test_gradings_must_name_generators():
    # A grading of a bad cover, or of a cover outside the complex, would be
    # read by nothing.  The first such key in sorted order is named.
    h = RotationData("h", F(1, 2), 4)
    with pytest.raises(BadOrbitError, match="^h\\^2 is a bad orbit and not a generator$"):
        build_complex([h], 4, {"h^2": 7, "h^1": 3})
    for gradings, key in (({"h^1": 3, "h^5": 0}, "h^5"), ({"h^2": 7, "g^1": 0}, "g^1")):
        with pytest.raises(BadOrbitError, match=f"^{key[0]}\\^{key[2]} is not among the generators"):
            build_complex([h], 4, gradings)
    assert build_complex([h], 4, {"h^3": 5}).gradings == (0, 5)


def test_cover_degree_divisibility_enforced():
    p = RotationData("p", F(6, 5), 4, homotopy_class="t")
    q = RotationData("q", F(6, 5), 4, homotopy_class="t")
    counts = [record(OrbitRef(p, 1), OrbitRef(q, 2), 1, 2)]
    with pytest.raises(CoverDivisibilityError):
        build_complex([p, q], 2, {"p^1": 6, "q^2": 5, "p^2": 0, "q^1": 0}, *as_rows(counts))


@pytest.mark.parametrize(
    "row, message",
    [
        ((0, 1, 0, 1), "sign must be +1 or -1, got 0"),
        ((0, 1, 2, 1), "sign must be +1 or -1, got 2"),
        ((0, 1, 1, 0), "cover degree must be >= 1"),
        ((0, 3, 1, 1), "count row (0, 3, 1, 1) indexes no cover"),
        ((-1, 1, 1, 1), "count row (-1, 1, 1, 1) indexes no cover"),
    ],
)
def test_rows_with_bad_sign_degree_or_cover_index_rejected(row, message):
    # Checked before anything else: the row ahead of it joins two classes
    # and the multiplicity cap is 0, yet the bad row is the one named.
    p = RotationData("p", F(6, 5), 1, homotopy_class="t")
    q = RotationData("q", F(6, 5), 1, homotopy_class="t")
    x = RotationData("x", F(6, 5), 1, homotopy_class="x")
    covers = (OrbitRef(p, 1), OrbitRef(q, 1), OrbitRef(x, 1))
    counts = [(0, 2, 1, 1), (0, 1, 1, 1), row]
    for cap in (1, 0):
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            build_complex([p, q, x], cap, {"p^1": 1, "q^1": 0}, counts, covers)


def test_grading_must_drop_by_one():
    a = RotationData("a", F(6, 5), 2, contractible=True)
    b = RotationData("b", F(233, 144), 2, contractible=True)
    counts = [record(OrbitRef(a, 1), OrbitRef(b, 1))]
    with pytest.raises(GradingMismatchError):
        build_complex([a, b], 1, None, *as_rows(counts))


def test_cross_class_counts_rejected():
    a = RotationData("a", F(6, 5), 2, homotopy_class="x")
    b = RotationData("b", F(6, 5), 2, homotopy_class="y")
    counts = [record(OrbitRef(a, 1), OrbitRef(b, 1))]
    with pytest.raises(GradingMismatchError):
        build_complex([a, b], 1, {"a^1": 1, "b^1": 0}, *as_rows(counts))


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
    assert verify_d_squared(cx).ok


def test_synthetic_complex_passes_and_is_integral():
    cx = synthetic_complex()
    assert verify_d_squared(cx).ok
    # a^1 -> b^1 is 1, and p^2 -> q^2 is m(p^2) / 2 = 1.
    assert sorted(boundary(cx).values()) == [1, 1]
    # b^1 -> c^1 carries +1 and -1: the cancelled entry is not stored.
    keys = [format_orbit(g) for g in cx.generators]
    b, c = keys.index("b^1"), keys.index("c^1")
    assert c not in cx.boundary.get(b, {})
    assert all(v != 0 for v in boundary(cx).values())


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
        counts = [
            record(OrbitRef(a, 1), OrbitRef(b, 1), sign),
            record(OrbitRef(b, 1), OrbitRef(c, 1), sign),
            record(OrbitRef(b, 1), OrbitRef(c, 1), -sign),
        ]
        cx = build_complex(order, 1, {"a^1": 2, "b^1": 1, "c^1": 0}, *as_rows(counts))
        verify_d_squared(cx)
        return homology_ranks(cx)

    base = ranks_for([a, b, c], False)
    assert ranks_for([c, a, b], False) == base
    assert ranks_for([b, c, a], False) == base
    assert ranks_for([a, b, c], True) == base


def test_homology_rank_is_taken_over_the_rationals():
    # A hand-built boundary whose two columns, (2, 4) and (3, 6), are
    # proportional over Q though neither is an integer multiple of the
    # other, so the block has rank one.
    a = RotationData("a", F(6, 5), 2, homotopy_class="f")
    b = RotationData("b", F(6, 5), 2, homotopy_class="f")
    cx = ChainComplex(
        generators=(OrbitRef(a, 1), OrbitRef(a, 2), OrbitRef(b, 1), OrbitRef(b, 2)),
        classes=("f",) * 4,
        gradings=(1, 1, 0, 0),
        boundary={0: {2: 2, 3: 4}, 1: {2: 3, 3: 6}},
        kappa_diag=(1, 1, 1, 1),
    )
    assert verify_d_squared(cx).ok
    assert homology_ranks(cx) == {("f", 0): 1, ("f", 1): 1}


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
    vanishes, homology ranks and the nonzero entries of delta kappa as
    {(i, j): entry}, from the count records with dense Fraction matrices
    over the generators of cx."""
    gens = cx.generators
    n = len(gens)
    pos = {ref: i for i, ref in enumerate(gens)}
    kappa = [ref.multiplicity for ref in gens]
    delta = [[F(0)] * n for _ in range(n)]
    for alpha, beta, sign, degree in counts:
        delta[pos[beta]][pos[alpha]] += F(sign, degree)
    d_kappa = [[delta[i][j] * kappa[j] for j in range(n)] for i in range(n)]

    def product(a, b):
        rows = [[(t, x) for t, x in enumerate(row) if x] for row in a]
        return [[sum(x * b[t][j] for t, x in row) for j in range(n)] for row in rows]

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
    d = {(i, j): v for i, row in enumerate(d_kappa) for j, v in enumerate(row) if v}
    return entries, square_zero, ranks, d


def _random_complex(rng):
    """2-4 orbits in one or two classes, random gradings, and records of
    both signs with cover degrees 1-3 between generators one grading apart,
    some repeated."""
    classes = rng.choice((["t"], ["t", "u"]))
    orbits = [
        RotationData(f"o{k}", F(6, 5), rng.randint(1, 3), homotopy_class=rng.choice(classes))
        for k in range(rng.randint(2, 4))
    ]
    refs = [OrbitRef(o, m) for o in orbits for m in range(1, o.validity_bound + 1)]
    gradings = {format_orbit(r): rng.randint(0, 2) for r in refs}
    counts = []
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
            counts.extend(
                record(alpha, beta, rng.choice((1, -1)), rng.choice(degrees))
                for _ in range(rng.randint(1, 2))
            )
    return orbits, gradings, counts


def _width_edge_complexes():
    """Complexes on the covers x^1..x^60 of one positive hyperbolic orbit
    whose delta kappa delta entries sit at the packing's edges.

    In the first two, column x^60 has two entries and every entry of d is
    4 in size, so |entry of d^2| <= 2 * 4^2 = 32, a power of two, and the
    one entry, in a block of one row, reaches it with all products of one
    sign: +32, then -32.  In the third the top field of the column is
    negative and the one below it positive.
    """
    x = RotationData("x", F(1), 60, homotopy_class="t")

    def complex_of(gradings, records):
        counts = [
            record(OrbitRef(x, a), OrbitRef(x, b), sign, degree)
            for a, b, sign, degree, repeat in records
            for _ in range(repeat)
        ]
        gradings = {f"x^{m}": g for m, g in gradings.items()}
        return build_complex([x], 60, gradings, *as_rows(counts)), counts

    at_bound = {60: 2, 15: 1, 30: 1, 45: 0}
    for sign in (1, -1):
        yield complex_of(at_bound, [
            (60, 15, sign, 15, 1),  # 60/15 = 4
            (60, 30, sign, 15, 1),  # 4
            (15, 45, 1, 15, 4),  # 4 * 15/15 = 4
            (30, 45, 1, 15, 2),  # 2 * 30/15 = 4
        ])
    yield complex_of({60: 2, 30: 1, 45: 0, 20: 0}, [
        (60, 30, 1, 15, 1),  # 4
        (30, 45, 1, 15, 1),  # 2: the lower field of column x^60, +8
        (30, 20, -1, 10, 1),  # -3: its top field, -12
    ])


def _check_against_dense_oracle(cx, counts):
    """Whether cx passes verify_d_squared, asserting that its boundary,
    report and homology ranks equal the dense oracle's."""
    entries, square_zero, ranks, d = _dense_oracle(cx, counts)
    assert boundary(cx) == d
    report = verify_d_squared(cx)
    assert list(report.nonzero_entries) == entries
    assert report.ok == (not entries)
    assert report.ok == square_zero
    if report.ok:
        assert homology_ranks(cx) == ranks
    else:
        with pytest.raises(SequencingError):
            homology_ranks(cx)
    return report.ok


def test_sparse_kernel_matches_dense_oracle():
    rng = random.Random(20261018)
    repeat = random.Random(20261020)
    seen = {"fail": 0, "pass_nonzero": 0, "pass_scaled": 0, "fractional": 0}
    for _ in range(300):
        orbits, gradings, counts = _random_complex(rng)
        cx = build_complex(orbits, 3, gradings, *as_rows(counts))
        if _check_against_dense_oracle(cx, counts):
            seen["pass_nonzero"] += bool(cx.boundary)
            # A nonzero column of multiplicity above one: the oracle scales
            # it by kappa, so a boundary built or read without the right
            # kappa would disagree on these complexes.
            seen["pass_scaled"] += any(cx.kappa_diag[j] > 1 for j in cx.boundary)
        else:
            seen["fail"] += 1
        seen["fractional"] += any(
            v % cx.kappa_diag[j] for j, column in cx.boundary.items() for v in column.values()
        )
        # The same records with more of them repeated, in shuffled order:
        # equal rows are repeated cylinders, and the covers are indexed in a
        # new order.
        shuffled = counts + [repeat.choice(counts) for _ in counts[::2]]
        repeat.shuffle(shuffled)
        again = build_complex(orbits, 3, gradings, *as_rows(shuffled))
        _check_against_dense_oracle(again, shuffled)
    # The grid covers failing complexes, passing ones with a nonzero
    # differential (some with a nonzero column of multiplicity above one),
    # and delta with fractional entries (boundary entries kappa does not
    # divide).
    assert min(seen.values()) >= 20, seen
    # Entries of d^2 at the packing's width bound and a column whose top
    # field is negative.
    tops = []
    for cx, counts in _width_edge_complexes():
        entries, square_zero, _, _ = _dense_oracle(cx, counts)
        assert list(verify_d_squared(cx).nonzero_entries) == entries
        assert not square_zero
        tops.append([v * 60 for _, _, v in entries])  # all in column x^60
    assert tops == [[32], [-32], [-12, 8]]


def _planted_complex(maps, empty=()):
    """A complex in class t with one multiplicity-one generator per row and
    column of maps, plus len(empty) generators at each grading in empty:
    maps[g][i][j] is the coefficient of generator i of grading g - 1 in the
    boundary of generator j of grading g, written as that many records."""
    sizes = Counter(empty)
    for g, rows in maps.items():
        sizes[g - 1] = max(sizes[g - 1], len(rows))
        sizes[g] = max(sizes[g], len(rows[0]))
    gens = {
        g: [RotationData(f"g{g}n{k}", F(6, 5), 1, homotopy_class="t") for k in range(n)]
        for g, n in sizes.items()
    }
    counts = [
        record(OrbitRef(gens[g][j], 1), OrbitRef(gens[g - 1][i], 1), 1 if v > 0 else -1)
        for g, rows in maps.items()
        for i, row in enumerate(rows)
        for j, v in enumerate(row)
        for _ in range(abs(v))
    ]
    orbits = [o for g in sorted(gens) for o in gens[g]]
    gradings = {f"{o.name}^1": g for g, group in gens.items() for o in group}
    return build_complex(orbits, 1, gradings, *as_rows(counts)), counts


def _planted_cases():
    """Blocks with repeated, proportional and sign-flipped rows and
    columns, next to rows and columns that are distinct directions but
    share their absolute values, their support or their sorted entries."""
    m = [[1, 2, 0], [2, 1, 0], [1, 2, 0]]  # rows 0 and 2 repeat
    q = [[1, -1, 1], [-1, 1, 1], [2, -2, 2]]  # row 2 is twice row 0
    # Mirrored generators: delta u = (Mu, Mu), delta v = Qv, delta w = -Qw.
    yield {2: m + m, 1: [row + [-x for x in row] for row in q]}, ()
    # A row copied twice and a row scaled by 2 and by -3.
    yield {1: [[1, 2, 3], [1, 2, 3], [1, 2, 3], [2, 4, 6], [-3, -6, -9], [3, 2, 1]]}, ()
    # A column with its sign flipped, beside columns (1, 1) and (1, -1).
    yield {1: [[1, -1, 1, 1], [2, -2, 1, -1]]}, ()
    # Rows equal in absolute value, in support and in sorted entries.
    yield {1: [[1, 1], [1, -1]]}, ()
    yield {1: [[1, 2], [2, 1]]}, ()
    yield {1: [[2, 0, 1], [0, 2, 1], [1, 0, 2]]}, ()
    # Zero blocks: generators at gradings 3 and 0 that no record reaches,
    # and a zero row and a zero column inside a nonzero map.
    yield {2: [[1, 0, 2], [0, 0, 0], [2, 0, 4]]}, (3, 3, 0)


def test_reduced_ranks_match_dense_oracle_on_planted_repeats():
    for maps, empty in _planted_cases():
        cx, counts = _planted_complex(maps, empty)
        _, square_zero, ranks, _ = _dense_oracle(cx, counts)
        assert square_zero and verify_d_squared(cx).ok
        assert homology_ranks(cx) == ranks, maps
    # Seeded grid: rows drawn from a few base rows, each scaled by a random
    # nonzero factor, so blocks repeat rows up to sign and scale.
    rng = random.Random(20261020)
    for _ in range(100):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        base = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rng.randint(1, 3))]
        block = [
            [rng.choice((-3, -2, -1, 1, 2, 3)) * x for x in rng.choice(base)]
            for _ in range(rows)
        ]
        if not any(map(any, block)):
            continue
        cx, counts = _planted_complex({1: block})
        verify_d_squared(cx)
        assert homology_ranks(cx) == _dense_oracle(cx, counts)[2], block


def test_benchmark_shaped_complex_homology_is_closed_form():
    # u (grading 2), v, w (grading 1) and z (grading 0), as the covers
    # 1..k of four orbits in class f, with delta u = (Mu, Mu), delta v = Qv
    # and delta w = -Qw for M and Q whose rank falls short through
    # repeated rows.
    rng = random.Random(25)

    def rank_deficient(k, distinct):
        base = [[rng.choice((-2, -1, 1, 2)) for _ in range(k)] for _ in range(distinct)]
        rows = base + [list(rng.choice(base)) for _ in range(k - distinct)]
        rng.shuffle(rows)
        return rows

    for k in range(4, 11):
        m, q = rank_deficient(k, k - k // 4), rank_deficient(k, k - k // 2)
        orbits = [RotationData(name, F(1), k, homotopy_class="f") for name in "uvwz"]
        counts = [
            record(OrbitRef(orbits[a], j + 1), OrbitRef(orbits[b], i + 1), sign if v > 0 else -sign)
            for matrix, a, b, sign in ((m, 0, 1, 1), (m, 0, 2, 1), (q, 1, 3, 1), (q, 2, 3, -1))
            for i, row in enumerate(matrix)
            for j, v in enumerate(row)
            for _ in range(abs(v))
        ]
        gradings = {
            f"{o.name}^{c}": g for o, g in zip(orbits, (2, 1, 1, 0)) for c in range(1, k + 1)
        }
        cx = build_complex(orbits, k, gradings, *as_rows(counts))
        assert verify_d_squared(cx).ok
        rk_m, rk_q = _gauss_rank(m), _gauss_rank(q)
        closed = {0: k - rk_q, 1: 2 * k - rk_m - rk_q, 2: k - rk_m}
        assert homology_ranks(cx) == {("f", g): r for g, r in closed.items() if r}


def test_middle_multiplicity_weights_the_composite():
    # a^1 -> b^1 -> c^1 and a^1 -> b^2 -> c^1 cancel in delta^2 but not in
    # delta kappa delta, where the middle generator's multiplicity enters.
    a = RotationData("a", F(6, 5), 1, homotopy_class="t")
    b = RotationData("b", F(6, 5), 2, homotopy_class="t")
    c = RotationData("c", F(6, 5), 1, homotopy_class="t")
    counts = [
        record(OrbitRef(a, 1), OrbitRef(b, 1)),
        record(OrbitRef(a, 1), OrbitRef(b, 2)),
        record(OrbitRef(b, 1), OrbitRef(c, 1)),
        record(OrbitRef(b, 2), OrbitRef(c, 1), -1),
    ]
    cx = build_complex([a, b, c], 2, {"a^1": 2, "b^1": 1, "b^2": 1, "c^1": 0}, *as_rows(counts))
    report = verify_d_squared(cx)
    assert report.nonzero_entries == (("a^1", "c^1", F(-1)),)
    assert not report.ok


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
