import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cch.cli import run_command
from cch.errors import (
    DegenerateOrbitError,
    MultiplicityBoundError,
    OrbitDataError,
    SkeletonError,
)
from cch.orbits import (
    CurveData,
    OrbitRef,
    OrbitTable,
    OrbitType,
    RotationData,
    cz_index,
    cz_of_rotation,
    fredholm_index,
    is_good,
    orbit_type,
)

F = Fraction


def rot(theta, bound=100, **kw):
    return RotationData("g", F(theta), bound, **kw)


def oracle_cz(theta, m):
    # Independent evaluation through math.floor/ceil on the exact rational.
    x = F(theta) * m
    return math.floor(x) + math.ceil(x)


# ---------------------------------------------------------------- cz_index


def test_cz_half_integer():
    assert cz_index(OrbitRef(rot(F(3, 2)), 1)) == 3


def test_cz_integer_cover():
    assert cz_index(OrbitRef(rot(2), 3)) == 12


def test_cz_golden_like_rational():
    base = rot(F(233, 144))
    assert cz_index(OrbitRef(base, 1)) == 3
    assert cz_index(OrbitRef(base, 2)) == 7
    assert cz_index(OrbitRef(base, 2)) == oracle_cz(F(233, 144), 2)


def test_cz_bound_exceeded():
    with pytest.raises(MultiplicityBoundError):
        OrbitRef(rot(F(6, 5), bound=4), 5)


def test_cz_degenerate_rotation():
    with pytest.raises(DegenerateOrbitError):
        cz_of_rotation(F(7, 5), 5)


# ---------------------------------------------------------------- orbit_type


def test_even_cover_of_negative_hyperbolic_is_positive():
    assert orbit_type(OrbitRef(rot(F(1, 2)), 2)) is OrbitType.POSITIVE_HYPERBOLIC


def test_half_integer_is_negative_hyperbolic():
    assert orbit_type(OrbitRef(rot(F(1, 2)), 1)) is OrbitType.NEGATIVE_HYPERBOLIC


def test_elliptic_cover():
    assert orbit_type(OrbitRef(rot(F(7, 5), bound=4), 3)) is OrbitType.ELLIPTIC


# ---------------------------------------------------------------- is_good


def test_even_cover_of_negative_hyperbolic_is_bad():
    assert not is_good(OrbitRef(rot(F(1, 2)), 2))


def test_odd_cover_of_negative_hyperbolic_is_good():
    assert is_good(OrbitRef(rot(F(1, 2)), 3))


def test_elliptic_covers_are_good():
    assert is_good(OrbitRef(rot(F(7, 5), bound=4), 2))


# ---------------------------------------------------------------- fredholm_index


def test_plane_index():
    base = rot(F(6, 5), bound=4, contractible=True)
    plane = CurveData(0, (OrbitRef(base, 1),), ())
    assert fredholm_index(plane) == 2


@pytest.mark.parametrize("t", [F(-2), F(0), F(1), F(5), F(-7, 2), F(1, 2), F(9, 2)])
@pytest.mark.parametrize("d1,d2", [(1, 1), (1, 2), (3, 4), (5, 5)])
def test_pair_of_pants_over_hyperbolic_base(t, d1, d2):
    base = rot(t, bound=20)
    pants = CurveData(
        0,
        (OrbitRef(base, d1 + d2),),
        (OrbitRef(base, d1), OrbitRef(base, d2)),
    )
    assert fredholm_index(pants) == 1


def test_trivial_cylinder_index_zero():
    base = rot(F(233, 144))
    for m in (1, 2, 7):
        ref = OrbitRef(base, m)
        assert fredholm_index(CurveData(0, (ref,), (ref,))) == 0


def test_curve_needs_positive_end():
    with pytest.raises(SkeletonError):
        CurveData(0, (), (OrbitRef(rot(2), 1),))


# ---------------------------------------------------------------- grading


def test_grading_contractible():
    base = rot(F(6, 5), bound=4, contractible=True)
    assert OrbitTable([base], 1).grading == (2,)


def test_grading_golden_cover():
    base = rot(F(233, 144), contractible=True)
    assert OrbitTable([base], 2).grading[1] == 6


def test_grading_requires_contractible():
    # Only a contractible cover has an absolute grading; cch cz prints it
    # under --contractible alone.
    report = run_command(["cz", "--theta", "6/5", "--mult", "1"])[1].splitlines()
    assert report[-1] == "grading: unavailable (orbit not marked contractible)"
    report = run_command(["cz", "--theta", "6/5", "--mult", "1", "--contractible"])[1].splitlines()
    assert report[-1] == "grading: 2"


# ------------------------------------------------- supermultiplicativity


def cz_supermultiplicativity_check(rotation, d):
    """Whether cz of the d-fold cover is >= d*cz - d + 1."""
    return OrbitRef(rotation, d).cz >= d * OrbitRef(rotation, 1).cz - d + 1


def test_supermultiplicativity_examples():
    assert cz_supermultiplicativity_check(rot(F(6, 5), bound=4), 3)
    assert cz_supermultiplicativity_check(rot(F(1, 2)), 2)
    assert cz_supermultiplicativity_check(rot(2), 5)


# ---------------------------------------------------------------- validation


def test_nondegeneracy_guard_rejects_small_denominator():
    with pytest.raises(OrbitDataError):
        RotationData("g", F(7, 5), 5)


def test_action_must_be_positive():
    with pytest.raises(OrbitDataError):
        RotationData("g", F(6, 5), 3, action=F(-1))


def test_validity_bound_at_least_one():
    with pytest.raises(OrbitDataError):
        RotationData("g", F(6, 5), 0)


# ---------------------------------------------------------------- properties

thetas = st.one_of(
    st.integers(min_value=-12, max_value=12).map(F),
    st.integers(min_value=-12, max_value=12).map(lambda t: t + F(1, 2)),
    st.tuples(
        st.integers(min_value=-360, max_value=360),
        st.integers(min_value=3, max_value=37),
    )
    .map(lambda pq: F(pq[0], pq[1]))
    .filter(lambda x: x.denominator > 2),
)


def make_orbit(theta, max_mult):
    bound = max_mult if theta.denominator <= 2 else min(max_mult, theta.denominator - 1)
    return RotationData("g", theta, bound)


@given(thetas, st.integers(min_value=1, max_value=30))
def test_parity_matches_type(theta, m):
    base = make_orbit(theta, 30)
    m = min(m, base.validity_bound)
    ref = OrbitRef(base, m)
    even = cz_index(ref) % 2 == 0
    assert even == (orbit_type(ref) is OrbitType.POSITIVE_HYPERBOLIC)


@given(thetas, st.integers(min_value=1, max_value=15), st.integers(min_value=1, max_value=15))
def test_quasi_additivity(theta, m1, m2):
    base = make_orbit(theta, 30)
    if m1 + m2 > base.validity_bound:
        m1 = m2 = max(1, base.validity_bound // 2)
    if m1 + m2 > base.validity_bound:
        return
    c = lambda m: cz_index(OrbitRef(base, m))
    assert abs(c(m1 + m2) - c(m1) - c(m2)) <= 1


@given(st.integers(min_value=-10, max_value=10), st.booleans())
def test_hyperbolic_linearity(t, half):
    theta = t + F(1, 2) if half else F(t)
    base = RotationData("g", theta, 100)
    for m in range(1, 101):
        assert cz_index(OrbitRef(base, m)) == m * (2 * theta)


@given(thetas, st.integers(min_value=1, max_value=30))
def test_supermultiplicativity_always_holds(theta, d):
    base = make_orbit(theta, 30)
    d = min(d, base.validity_bound)
    assert cz_supermultiplicativity_check(base, d)


@given(thetas, st.integers(min_value=1, max_value=25))
def test_trivial_cylinder_has_index_zero(theta, m):
    base = make_orbit(theta, 25)
    m = min(m, base.validity_bound)
    ref = OrbitRef(base, m)
    assert fredholm_index(CurveData(0, (ref,), (ref,))) == 0


@given(thetas, st.integers(min_value=1, max_value=25))
def test_cz_matches_floor_ceil_oracle(theta, m):
    base = make_orbit(theta, 25)
    m = min(m, base.validity_bound)
    assert cz_index(OrbitRef(base, m)) == oracle_cz(theta, m)


def test_orbit_table_ids_and_indices():
    a, b = RotationData("a", F(6, 5), 4), RotationData("b", F(1, 2), 30)
    table = OrbitTable([a, b], 3)
    assert [(r.base.name, r.multiplicity) for r in table.refs] == [
        ("a", 1), ("a", 2), ("a", 3), ("b", 1), ("b", 2), ("b", 3),
    ]
    for i, r in enumerate(table.refs):
        assert table.id_of(OrbitRef(r.base, r.multiplicity)) == i
        assert table.grading[i] + 1 == r.cz == cz_index(r) == oracle_cz(r.base.theta, r.multiplicity)
    pos, neg = (table.refs[2],), (table.refs[3], table.refs[4])
    # -chi + 2 c_tau + sum cz(+) - sum cz(-), with the oracle's cz.
    top = oracle_cz(F(6, 5), 3)
    index = 1 + top - oracle_cz(F(1, 2), 1) - oracle_cz(F(1, 2), 2)
    assert fredholm_index(CurveData(0, pos, neg)) == index == 5
    assert fredholm_index(CurveData(1, pos, (), c_tau=1)) == 1 + 2 + top == 10


def test_orbit_table_caps_at_validity_bound_and_rejects_shared_names():
    table = OrbitTable([RotationData("a", F(6, 5), 4)], 10)
    assert len(table.refs) == 4
    with pytest.raises(OrbitDataError):
        OrbitTable([RotationData("a", F(6, 5), 4), RotationData("a", F(1, 2), 4)], 2)
