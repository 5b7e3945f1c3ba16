import copy
import dataclasses
import hashlib
import math
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from cch import buildings
from cch.buildings import (
    BTC,
    CHECK_NAMES,
    COV,
    SI,
    BuildingNode,
    BuildingSkeleton,
    ComponentKind,
    ComponentSkeleton,
    EnumerationBounds,
    EstimateSweepReport,
    GenericityProfile,
    building_key,
    check_cover_index_bound,
    check_cylinder_cover_index,
    check_multi_end_cover_combination,
    check_nontrivial_cover_bounds,
    check_trivial_cover_nonnegative,
    classify_building,
    classify_buildings,
    enumerate_buildings,
    enumerate_components,
    run_estimate_sweep,
    _Enumerator,
    _cover_shapes,
    _cover_ways,
    _is_split_plane_shape,
    _partitions,
    verify_propositions,
)
from cch.errors import (
    DynamicalConvexityError,
    EnumerationLimitError,
    PreconditionError,
    SkeletonError,
)
from cch.orbits import OrbitRef, OrbitTable, OrbitType, RotationData, is_good, orbit_type
from cch.scenario import parse_scenario

F = Fraction

GENERIC = GenericityProfile(generic_J=True, dynamically_convex=False)
CONVEX = GenericityProfile(generic_J=True, dynamically_convex=True, condition_star=True)

ELL = RotationData("e", F(6, 5), 4, contractible=True)
POSH = RotationData("p", F(2), 30, contractible=True)
NEGH = RotationData("h", F(1, 2), 30)
FLAT = RotationData("z", F(0), 30)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def ref(orbit, m):
    return OrbitRef(orbit, m)


def trivial_cylinder(orbit, m):
    r, base = ref(orbit, m), ref(orbit, 1)
    return ComponentSkeleton(
        ComponentKind.BRANCHED_COVER_OF_TRIVIAL_CYLINDER,
        m, 0, r, (r,), base, (base,),
    )


def branched_cover(orbit, parts):
    d = sum(parts)
    base = ref(orbit, 1)
    return ComponentSkeleton(
        ComponentKind.BRANCHED_COVER_OF_TRIVIAL_CYLINDER,
        d, len(parts) - 1,
        ref(orbit, d),
        tuple(sorted((ref(orbit, p) for p in parts), key=lambda r: r.multiplicity)),
        base, (base,),
    )


def si(pos, negs):
    return ComponentSkeleton(
        ComponentKind.SOMEWHERE_INJECTIVE, 1, 0, pos, tuple(negs), pos, tuple(negs)
    )


# ------------------------------------------------------------ component index


def test_index_zero_pair_of_pants():
    pants = branched_cover(ELL, (1, 2))
    assert pants.index == 0
    assert pants.branch_count == 1


def test_somewhere_injective_cylinder_index():
    cyl = si(ref(ELL, 2), (ref(ELL, 1),))
    assert cyl.index == 2


def test_unbranched_cover_has_index_zero():
    for m in (1, 2, 4):
        assert trivial_cylinder(ELL, m).index == 0


def test_riemann_hurwitz_violation_rejected():
    r, base = ref(ELL, 3), ref(ELL, 1)
    with pytest.raises(SkeletonError):
        ComponentSkeleton(
            ComponentKind.BRANCHED_COVER_OF_TRIVIAL_CYLINDER,
            3, 5, r, (ref(ELL, 1), ref(ELL, 2)), base, (base,),
        )


def test_cover_partition_mismatch_rejected():
    pos = ref(POSH, 4)
    with pytest.raises(SkeletonError):
        ComponentSkeleton(
            ComponentKind.COVER_OF_NONTRIVIAL_CURVE,
            2, 1, pos, (ref(NEGH, 3),), ref(POSH, 2), (ref(NEGH, 1),),
        )


@pytest.mark.parametrize(
    "kind, d, b, pos, neg, upos, uneg, message",
    [
        (SI, 0, 0, "e1", "", "e1", "", "cover degree or branch count out of range"),
        (SI, 1, -1, "e1", "", "e1", "", "cover degree or branch count out of range"),
        (SI, 2, 0, "e2", "e1", "e2", "e1", "somewhere-injective components have d=1, b=0"),
        (SI, 1, 0, "e2", "e1", "e2", "", "somewhere-injective ends must equal underlying"),
        (SI, 1, 0, "e2", "e2", "e2", "e2", "trivial cylinders must use the dedicated kind"),
        (BTC, 2, 0, "e2", "e2", "e2", "e2", "the underlying trivial cylinder must sit over"),
        (BTC, 2, 1, "e2", "e1 h1", "e1", "e1", "all ends must cover the cylinder's orbit"),
        (BTC, 3, 0, "e2", "e3", "e1", "e1", "the positive end's multiplicity must equal the"),
        (BTC, 2, 0, "e2", "e1", "e1", "e1", "negative end multiplicities must partition"),
        (BTC, 3, 5, "e3", "e1 e2", "e1", "e1", "branch count violates Riemann-Hurwitz"),
        (COV, 1, 0, "p2", "h1", "p2", "h1", "covers of nontrivial curves need degree >= 2"),
        (COV, 2, 0, "p2", "p2", "p1", "p1", "covers of trivial cylinders must use the"),
        (COV, 2, 1, "p4", "h2", "p2", "h1", "branch count violates Riemann-Hurwitz"),
        (COV, 2, 0, "p3", "h2", "p2", "h1", "the positive end does not cover the underlying"),
        (COV, 2, 0, "p4", "h3", "p2", "h1", "negative ends do not cover the underlying"),
    ],
)
def test_constructor_rejects_each_invalid_shape(kind, d, b, pos, neg, upos, uneg, message):
    # One case per SkeletonError branch of ComponentSkeleton._check, through
    # the public constructor; ends are written "e1 h1" for e^1, h^1.
    orbits = {o.name: o for o in (ELL, NEGH, POSH)}

    def ends(text):
        return [ref(orbits[t[0]], int(t[1:])) for t in text.split()]

    with pytest.raises(SkeletonError, match="^" + re.escape(message)):
        ComponentSkeleton(kind, d, b, *ends(pos), ends(neg), *ends(upos), ends(uneg))


def test_constructor_stores_list_ends_as_tuples_and_is_frozen():
    p2, h1 = ref(POSH, 2), ref(NEGH, 1)
    c = ComponentSkeleton(SI, 1, 0, p2, [h1], p2, [h1])
    for name in ("negative_ends", "underlying_negative_ends"):
        assert type(getattr(c, name)) is tuple
    assert c == si(p2, (h1,)) and hash(c) == hash(si(p2, (h1,)))
    assert c.index == c.underlying_index == oracle_index(0, (p2,), (h1,)) == 7
    for f in dataclasses.fields(c):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(c, f.name, getattr(c, f.name))


def test_components_copy_and_pickle_by_value():
    # Slotted components have no instance dict, so copy and pickle go
    # through the dataclass's slot state; the stored indices and key travel
    # with it.
    firsts = {}
    for c in enumerate_components([ELL, NEGH, POSH], GENERIC, EnumerationBounds()):
        firsts.setdefault(c.kind, c)
    assert set(firsts) == {BTC, COV, SI}
    for c in firsts.values():
        assert not hasattr(c, "__dict__")
        for twin in [copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))]:
            assert type(twin) is ComponentSkeleton
            assert twin == c and hash(twin) == hash(c)
            assert twin.key == c.key
            assert (twin.index, twin.underlying_index) == (c.index, c.underlying_index)
            with pytest.raises(dataclasses.FrozenInstanceError):
                twin.index = 0
        with pytest.raises(SkeletonError, match="cover degree"):
            dataclasses.replace(c, cover_degree=0)


# ------------------------------------------------------------ index estimates


def cylinder_flag(c):
    """Whether both underlying ends of a cylinder are hyperbolic, the flag
    check_cylinder_cover_index reads; False for any other component."""
    if len(c.negative_ends) != 1 or len(c.underlying_negative_ends) != 1:
        return False
    under = (c.underlying_positive_end, *c.underlying_negative_ends)
    return all(orbit_type(r) is not OrbitType.ELLIPTIC for r in under)


# What each estimate reads from a component, as the arguments it takes
# (generic profile); CHECKS applies it to the component.
ARGS = dict(zip(CHECK_NAMES, (
    lambda c: (c.kind, c.index),
    lambda c: (c.cover_degree, c.branch_count, c.index, c.underlying_index),
    lambda c: (
        True, c.kind, len(c.negative_ends), len(c.underlying_negative_ends), c.index,
        c.underlying_index,
    ),
    lambda c: (
        True, c.kind, len(c.negative_ends), c.cover_degree, c.index, c.underlying_index,
        cylinder_flag(c),
    ),
    lambda c: (
        c.kind, c.cover_degree, c.branch_count, len(c.negative_ends),
        len(c.underlying_negative_ends), c.index,
    ),
)))
ESTIMATES = dict(zip(CHECK_NAMES, (
    check_trivial_cover_nonnegative,
    check_cover_index_bound,
    check_nontrivial_cover_bounds,
    check_cylinder_cover_index,
    check_multi_end_cover_combination,
)))
CHECKS = {name: (lambda c, name=name: ESTIMATES[name](*ARGS[name](c))) for name in CHECK_NAMES}


def test_trivial_cover_check_examples():
    check = CHECKS["trivial_cover_nonnegative"]
    assert check(branched_cover(ELL, (1, 2)))
    assert check(trivial_cylinder(ELL, 3))
    assert check(branched_cover(NEGH, (1, 1)))
    assert branched_cover(NEGH, (1, 1)).index == 1


def test_trivial_cover_check_wrong_kind():
    with pytest.raises(PreconditionError):
        CHECKS["trivial_cover_nonnegative"](si(ref(ELL, 1), ()))


def test_cover_index_bound_identity_cover():
    cyl = si(ref(ELL, 2), (ref(ELL, 1),))
    assert CHECKS["cover_index_bound"](cyl)


def test_cover_index_bound_on_pants():
    pants = branched_cover(ELL, (1, 2))
    d, b = pants.cover_degree, pants.branch_count
    assert pants.index >= d * pants.underlying_index + 2 * (1 - d + b)
    assert CHECKS["cover_index_bound"](pants)


def test_cover_index_bound_degree_two_cylinder_cover():
    # Cover of an index-one cylinder, d=2, b=1, split negative end: ind >= 2.
    one = RotationData("q", F(1), 30)
    cover = ComponentSkeleton(
        ComponentKind.COVER_OF_NONTRIVIAL_CURVE,
        2, 1,
        ref(ELL, 2), (ref(one, 1), ref(one, 1)),
        ref(ELL, 1), (ref(one, 1),),
    )
    assert cover.underlying_index == 1
    assert cover.index == 2
    assert CHECKS["cover_index_bound"](cover)
    assert CHECKS["nontrivial_cover_bounds"](cover)


def test_nontrivial_cover_bounds_cylinder_case():
    under_pos, under_neg = ref(ELL, 2), ref(ELL, 1)
    cover = ComponentSkeleton(
        ComponentKind.COVER_OF_NONTRIVIAL_CURVE,
        2, 1,
        ref(ELL, 4), (ref(ELL, 1), ref(ELL, 1)),
        under_pos, (under_neg,),
    )
    assert cover.index >= 2
    assert CHECKS["nontrivial_cover_bounds"](cover)


def test_nontrivial_cover_bounds_vacuous_on_plane():
    plane = si(ref(ELL, 1), ())
    assert CHECKS["nontrivial_cover_bounds"](plane)


def test_nontrivial_cover_bounds_hyperbolic_bottom_equality_case():
    # Index-one underlying cylinder with a positive hyperbolic bottom end:
    # the cover index meets the n-end bound exactly.
    one = RotationData("q", F(1), 30)
    cover = ComponentSkeleton(
        ComponentKind.COVER_OF_NONTRIVIAL_CURVE,
        3, 2,
        ref(ELL, 3), (ref(one, 1),) * 3,
        ref(ELL, 1), (ref(one, 1),),
    )
    assert cover.underlying_index == 1
    assert cover.index == 3 == len(cover.negative_ends)
    assert CHECKS["nontrivial_cover_bounds"](cover)


def test_cylinder_cover_index_examples():
    check = CHECKS["cylinder_cover_index"]
    cyl = si(ref(ELL, 2), (ref(POSH, 1),))
    assert cyl.index == 1
    assert check(cyl)
    # Hyperbolic-to-hyperbolic underlying cylinder: the cover index is
    # d times the underlying index, so index one forces degree one.
    mixed = si(ref(NEGH, 1), (ref(FLAT, 1),))
    assert mixed.index == 1
    assert check(mixed)
    cover = ComponentSkeleton(
        ComponentKind.COVER_OF_NONTRIVIAL_CURVE,
        2, 0,
        ref(NEGH, 2), (ref(FLAT, 2),),
        ref(NEGH, 1), (ref(FLAT, 1),),
    )
    assert cover.index == 2 * cover.underlying_index
    assert check(cover)


def test_cylinder_cover_index_reads_underlying_orbit_types(monkeypatch):
    # theta = k/4 with validity bound 3: the underlying ends are elliptic,
    # but their double covers sit at half-integers, so the cover's ends
    # classify as hyperbolic.  Multiplicativity is asserted only from the
    # underlying ends, and here it fails: 6 != 2 * 2.  The sweep reads the
    # flag from the underlying ends too: it finds no violation.
    top, bottom = RotationData("t", F(7, 4), 3), RotationData("u", F(1, 4), 3)
    cover = ComponentSkeleton(
        ComponentKind.COVER_OF_NONTRIVIAL_CURVE,
        2, 0,
        ref(top, 2), (ref(bottom, 2),),
        ref(top, 1), (ref(bottom, 1),),
    )
    assert orbit_type(cover.positive_end) is OrbitType.NEGATIVE_HYPERBOLIC
    assert orbit_type(cover.negative_ends[0]) is OrbitType.NEGATIVE_HYPERBOLIC
    assert (cover.index, cover.underlying_index) == (6, 2)
    assert cylinder_flag(cover) is False
    assert CHECKS["cylinder_cover_index"](cover)
    assert not check_cylinder_cover_index(True, COV, 1, 2, 6, 2, True)
    report = sweep_rows([top, bottom], [cover], monkeypatch)
    assert "check cylinder_cover_index: checked=1 violations=0" in report.lines()


def test_cylinder_cover_index_rejects_trivial():
    with pytest.raises(PreconditionError):
        CHECKS["cylinder_cover_index"](trivial_cylinder(ELL, 2))


@pytest.mark.parametrize(
    "check, args, message",
    [
        (check_trivial_cover_nonnegative, (SI, 2), "component is not a cover of a trivial"),
        (check_nontrivial_cover_bounds, (False, SI, 1, 1, 2, 2),
         "the estimates assume a generic profile"),
        (check_nontrivial_cover_bounds, (True, COV, 1, 1, 2, 0),
         "underlying curve violates the generic index bound"),
        (check_cylinder_cover_index, (False, SI, 1, 1, 2, 2, False),
         "the estimate assumes a generic profile"),
        (check_cylinder_cover_index, (True, SI, 2, 1, 2, 2, False),
         "component is not a cylinder"),
        (check_cylinder_cover_index, (True, BTC, 1, 2, 0, 0, False),
         "component is a cover of a trivial cylinder"),
        (check_multi_end_cover_combination, (SI, 1, 0, 2, 2, 3), "needs a cover of a nontrivial"),
        (check_multi_end_cover_combination, (COV, 2, 0, 2, 1, 3), "needs more than one underlying"),
    ],
)
def test_each_estimate_names_its_precondition(check, args, message):
    # The estimates take integers and flags; each PreconditionError branch.
    with pytest.raises(PreconditionError, match="^" + re.escape(message)):
        check(*args)


def _with_index(c, index):
    """A copy of c with its stored index replaced; the key stays c's."""
    low = copy.copy(c)
    object.__setattr__(low, "index", index)
    return low


def _cover(d, b, pos, negs, under):
    return ComponentSkeleton(COV, d, b, pos, negs, under.positive_end, under.negative_ends)


def _one_below_a_bound(case):
    """(a real component, its index one below one estimate's bound, the
    estimate, every estimate that index fails)."""
    e1, e2, h1, h2, z1, z2 = (ref(o, m) for o in (ELL, NEGH, FLAT) for m in (1, 2))
    fork = _cover(2, 0, ref(NEGH, 4), (z1, z1, z2), si(h2, (z1, z1)))  # u = 3, n = 3, k = 2
    cases = {
        # A BTC's index is >= 0.
        "pants": (branched_cover(ELL, (1, 2)), -1, "trivial_cover_nonnegative", ()),
        # d * u + 2(1 - d + b) = 2 * 3 - 2 = 4, over an elliptic end.
        "cover": (_cover(2, 0, e2, (z2,), si(e1, (z1,))), 3, "cover_index_bound", ()),
        # Over a cylinder the index is >= n = 2.
        "fan": (_cover(3, 1, ref(NEGH, 6), (h1, h2), si(h2, (h1,))), 1,
                "nontrivial_cover_bounds", ()),
        # 5 - 2n = -1; the other bounds are 4 and 6 - 2n = 0.
        "fork": (fork, -2, "nontrivial_cover_bounds",
                 ("cover_index_bound", "multi_end_cover_combination")),
        # Over two hyperbolic ends the index is d * u = 2.
        "hyperbolic": (_cover(2, 0, h2, (z2,), si(h1, (z1,))), 1, "cylinder_cover_index", ()),
        # d(2k - 3) + 4(b + 1) - 2n = 0; the cover bound is 4.
        "multi": (fork, -1, "multi_end_cover_combination", ("cover_index_bound",)),
    }
    return cases[case]


CASES = ["pants", "cover", "fan", "fork", "hyperbolic", "multi"]
# Every orbit an injected row ends on, all within the default multiplicity 6.
P1 = RotationData("q", F(1), 30, contractible=True)
K32 = RotationData("k", F(3, 2), 30)
W13 = RotationData("w", F(1, 3), 2)
INJECTED_ORBITS = [ELL, NEGH, FLAT, POSH, P1, K32, W13]


def row_of(table, c):
    """c as a row of the inventory over table: its ends as ids, the negative
    ones in the order c stores them."""
    p, u = table.id_of(c.positive_end), table.id_of(c.underlying_positive_end)
    neg = tuple(map(table.id_of, c.negative_ends))
    uneg = tuple(map(table.id_of, c.underlying_negative_ends))
    return c.kind, c.cover_degree, c.branch_count, p, neg, u, uneg, c.index, c.underlying_index


def inject_rows(monkeypatch, rows):
    """Make rows the inventory on each path that reads it: _rows, which the
    search reads and the estimate sweep lists for violation keys, and
    _tally, which counts the sweep's argument tuples over _rows.  Return
    {path: the rows it read, in order}."""
    read = {"_rows": [], "_tally": []}

    def listed(*args):
        for row in rows:
            read["_rows"].append(row)
            yield row

    def tallied(table, profile, bounds, hyperbolic):
        tally = {}
        for row in rows:
            read["_tally"].append(row)
            args = buildings._arguments(hyperbolic, *row)
            tally[args] = tally.get(args, 0) + 1
        return tally

    monkeypatch.setattr(buildings, "_rows", listed)
    monkeypatch.setattr(buildings, "_tally", tallied)
    return read


def sweep_rows(orbits, components, monkeypatch):
    """run_estimate_sweep over orbits with the inventory replaced by the rows
    of components, asserting that the tally read those rows, each once, and
    that the sweep listed them, each once, exactly when some row failed."""
    table = OrbitTable(orbits, EnumerationBounds().max_total_multiplicity)
    rows = [row_of(table, c) for c in components]
    read = inject_rows(monkeypatch, rows)
    report = run_estimate_sweep(orbits, GENERIC, EnumerationBounds())
    assert read == {"_tally": rows, "_rows": [] if report.ok else rows}
    assert report.components == len(rows)
    return report


def _applies(check, c):
    try:
        check(c)
    except PreconditionError:
        return False
    return True


@pytest.mark.parametrize("case", CASES)
def test_each_estimate_fails_one_below_its_bound(case, monkeypatch):
    real, index, name, also = _one_below_a_bound(case)
    assert all(check(real) for check in CHECKS.values() if _applies(check, real))
    low = _with_index(real, index)
    assert CHECKS[name](low) is False
    # The sweep applies the estimate to the injected row and counts the
    # violation, under the component's key, under its name.
    report = sweep_rows(INJECTED_ORBITS, [low], monkeypatch)
    assert f"check {name}: checked=1 violations=1" in report.lines()
    assert {n: keys for n, keys in report.violations.items() if keys} == dict.fromkeys(
        (name, *also), [low.key]
    )
    assert not report.ok


# ------------------------------------------------------------ component sweep
# A per-component reference for the estimate sweep: each estimate as it
# was written on a ComponentSkeleton, applied to every component where its
# preconditions hold.


def old_trivial_cover_nonnegative(c, profile):
    if c.kind is not BTC:
        raise PreconditionError("component is not a cover of a trivial cylinder")
    return c.index >= 0


def old_cover_index_bound(c, profile):
    d, b = c.cover_degree, c.branch_count
    return c.index >= d * c.underlying_index + 2 * (1 - d + b)


def old_nontrivial_cover_bounds(c, profile):
    if not profile.generic_J:
        raise PreconditionError("the estimates assume a generic profile")
    if c.kind is BTC:
        return True
    if c.underlying_index < 1:
        raise PreconditionError("underlying curve violates the generic index bound")
    n = len(c.negative_ends)
    if len(c.underlying_negative_ends) == 1 and c.index < n:
        return False
    return n < 2 or c.index >= 5 - 2 * n


def old_cylinder_cover_index(c, profile):
    if not profile.generic_J:
        raise PreconditionError("the estimate assumes a generic profile")
    if len(c.negative_ends) != 1:
        raise PreconditionError("component is not a cylinder")
    if c.kind is BTC:
        raise PreconditionError("component is a cover of a trivial cylinder")
    ind, under = c.index, c.underlying_index
    ok = 1 <= under <= ind
    if (
        orbit_type(c.underlying_positive_end) is not OrbitType.ELLIPTIC
        and orbit_type(c.underlying_negative_ends[0]) is not OrbitType.ELLIPTIC
    ):
        ok = ok and ind == c.cover_degree * under
        if ind == 1 and (not is_good(c.positive_end) or not is_good(c.negative_ends[0])):
            ok = ok and c.cover_degree == 1
    return ok


def old_multi_end_cover_combination(c, profile):
    if c.kind is not COV:
        raise PreconditionError("needs a cover of a nontrivial curve")
    k = len(c.underlying_negative_ends)
    if k <= 1:
        raise PreconditionError("needs more than one underlying negative end")
    n = len(c.negative_ends)
    d, b = c.cover_degree, c.branch_count
    return c.index + 2 * n >= d * (2 * k - 3) + 4 * (b + 1)


OLD_CHECKS = dict(zip(CHECK_NAMES, (
    old_trivial_cover_nonnegative,
    old_cover_index_bound,
    old_nontrivial_cover_bounds,
    old_cylinder_cover_index,
    old_multi_end_cover_combination,
)))
# Estimates every component must meet the preconditions of: their
# PreconditionError is an error of the sweep, not a component they skip.
ALWAYS = {"cover_index_bound", "nontrivial_cover_bounds"}


def reference_sweep(components, profile):
    checked = dict.fromkeys(CHECK_NAMES, 0)
    violations = {name: [] for name in CHECK_NAMES}
    count = 0
    for count, c in enumerate(components, 1):
        for name, check in OLD_CHECKS.items():
            try:
                ok = check(c, profile)
            except PreconditionError:
                if name in ALWAYS:
                    raise
                continue
            checked[name] += 1
            if not ok:
                violations[name].append(c.key)
    return EstimateSweepReport(count, checked, violations)


def assert_sweep_matches_reference(orbits, profile, bounds, components=None):
    """run_estimate_sweep and reference_sweep agree: the same lines and the
    same violation keys in the same order, or the same PreconditionError."""
    if components is None:
        components = enumerate_components(orbits, profile, bounds)
    try:
        want = reference_sweep(components, profile)
    except PreconditionError as err:
        with pytest.raises(PreconditionError, match="^" + re.escape(str(err)) + "$"):
            run_estimate_sweep(orbits, profile, bounds)
        return None
    got = run_estimate_sweep(orbits, profile, bounds)
    assert got.lines() == want.lines()
    assert got.violations == want.violations
    return got


@pytest.fixture(scope="module")
def suite_inventory():
    """estimate_suite.json, its OrbitTable and its 79,568 components, built
    once for the tests that read the whole inventory."""
    suite = parse_scenario(SCENARIOS / "estimate_suite.json")
    table = OrbitTable(suite.orbits, suite.bounds.max_total_multiplicity)
    return suite, table, list(enumerate_components(suite.orbits, suite.profile, suite.bounds))


def test_sweep_matches_the_per_component_reference_on_the_estimate_suite(suite_inventory):
    suite, _, components = suite_inventory
    report = assert_sweep_matches_reference(suite.orbits, suite.profile, suite.bounds, components)
    assert report.components == 79568 and report.ok


def _twins():
    """Three pairs of components, each pair with estimate arguments that
    differ at most in the flag of the cylinder estimate:
    - "hyperbolic": covers of index 3, below d * u = 4, over two positive
      hyperbolic ends and over two elliptic ones; only the first fails, on
      the hyperbolic flag alone;
    - "good": covers of index 4 = d * u over two negative hyperbolic ends
      (so both ends of the cover are even covers, bad) and over two positive
      hyperbolic ones (good ends); goodness is no argument, so their
      arguments are equal, and both pass;
    - "same": a pants of index -1 over e and one over h, equal arguments,
      both failing."""
    p1, p2, q1, q2, e1, e2, w1, w2, h1, h2, k1, k2 = (
        ref(o, m) for o in (POSH, P1, ELL, W13, NEGH, K32) for m in (1, 2)
    )
    over_ph = _cover(2, 0, p2, (q2,), si(p1, (q1,)))
    over_ell = _cover(2, 0, e2, (w2,), si(e1, (w1,)))
    over_nh = _cover(2, 0, k2, (h2,), si(k1, (h1,)))
    assert over_ph.underlying_index == over_ell.underlying_index == over_nh.underlying_index == 2
    assert over_ph.index == over_nh.index == 4
    return {
        "hyperbolic": [_with_index(over_ph, 3), _with_index(over_ell, 3)],
        "good": [over_nh, over_ph],
        "same": [_with_index(branched_cover(o, (1, 2)), -1) for o in (ELL, NEGH)],
    }


def estimate_arguments(c):
    """The argument tuple of every estimate that applies to c: what the
    sweep decides once for every component that shares it."""
    return tuple(ARGS[name](c) for name in CHECK_NAMES if _applies(CHECKS[name], c))


def test_twins_differ_in_one_flag_at_most():
    twins = _twins()
    cylinder = ARGS["cylinder_cover_index"]
    a, b = map(cylinder, twins["hyperbolic"])
    assert a[:-1] == b[:-1] and (a[-1], b[-1]) == (True, False)
    for pair in twins.values():
        first, second = map(estimate_arguments, pair)
        assert sum(x != y for x, y in zip(first, second)) <= 1
    for pair in ("good", "same"):
        assert len(set(map(estimate_arguments, twins[pair]))) == 1


def test_sweep_matches_the_per_component_reference_on_injected_rows(monkeypatch):
    lows = [_with_index(real, index) for real, index, _, _ in map(_one_below_a_bound, CASES)]
    twins = _twins()
    injected = lows + [c for pair in twins.values() for c in pair]
    report = sweep_rows(INJECTED_ORBITS, injected, monkeypatch)
    want = reference_sweep(injected, GENERIC)
    assert report.lines() == want.lines()
    assert report.violations == want.violations
    # Of each failing pair, the hyperbolic cover alone, and both pants.
    assert want.violations["cylinder_cover_index"][-1] == twins["hyperbolic"][0].key
    assert want.violations["trivial_cover_nonnegative"][-2:] == [c.key for c in twins["same"]]


# Distinct estimate_arguments of the estimate_suite.json inventory.
DECISIONS = 675


def _spy_on_estimates(monkeypatch):
    """Replace each estimate in the sweep with one that records its
    arguments; return {name: [argument tuples, in call order]}."""
    calls = {name: [] for name in CHECK_NAMES}
    for name, check in ESTIMATES.items():
        def spy(*args, name=name, check=check):
            calls[name].append(args)
            return check(*args)

        monkeypatch.setattr(buildings, check.__name__, spy)
    return calls


@pytest.mark.parametrize("inventory", ["estimate_suite.json", "injected rows"])
def test_sweep_decides_each_argument_tuple_once(inventory, monkeypatch, request):
    # Each estimate sees every argument tuple that a component of the
    # inventory gives it, and the sweep makes one decision, one call of the
    # estimate every component meets, per distinct estimate_arguments.
    if inventory == "injected rows":
        components = [c for pair in _twins().values() for c in pair]
        calls = _spy_on_estimates(monkeypatch)
        sweep_rows(INJECTED_ORBITS, components, monkeypatch)
    else:
        suite, _, components = request.getfixturevalue("suite_inventory")
        calls = _spy_on_estimates(monkeypatch)
        run_estimate_sweep(suite.orbits, suite.profile, suite.bounds)
    for name in CHECK_NAMES:
        want = {ARGS[name](c) for c in components if _applies(CHECKS[name], c)}
        assert set(calls[name]) == want, name
    decisions = len(set(map(estimate_arguments, components)))
    assert len(calls["cover_index_bound"]) == decisions
    if inventory == "estimate_suite.json":
        assert (decisions, len(components)) == (DECISIONS, 79568)


def test_multi_end_and_five_minus_two_n_failures_imply_a_cover_bound_failure():
    # For a cover with n = 1 + b + d(k - 1) negative ends (Riemann-Hurwitz),
    # d, k >= 2, u >= 1: check_cover_index_bound's bound d*u + 2(1 - d + b)
    # exceeds the multi-end bound d(2k - 3) + 4(b + 1) - 2n by d(u - 1) and
    # the 5 - 2n bound by d(u + 2k - 4) + 4b - 1 > 0, so whenever either of
    # those fails the cover bound fails too.
    seen = 0
    for d, k, b, u in product(range(2, 9), range(2, 6), range(8), range(1, 9)):
        n = 1 + b + d * (k - 1)
        cover = d * u + 2 * (1 - d + b)
        assert cover - (d * (2 * k - 3) + 4 * (b + 1) - 2 * n) == d * (u - 1)
        assert cover - (5 - 2 * n) == d * (u + 2 * k - 4) + 4 * b - 1 > 0
        for index in range(-40, 41):
            if (
                not check_multi_end_cover_combination(COV, d, b, n, k, index)
                or not check_nontrivial_cover_bounds(True, COV, n, k, index, u)
            ):
                seen += 1
                assert not check_cover_index_bound(d, b, index, u), (d, k, b, u, index)
    assert seen


def test_index_one_over_hyperbolic_ends_forces_degree_one():
    # With both underlying ends hyperbolic the cylinder estimate requires
    # index == d * u with u >= 1, so an index-one cylinder that passes has
    # d = u = 1: a clause asking d == 1 of index-one cylinders with a bad
    # end would change no verdict.
    passing = [
        (d, u) for d, u in product(range(1, 9), range(-2, 9))
        if check_cylinder_cover_index(True, COV, 1, d, 1, u, True)
    ]
    assert passing == [(1, 1)]


def test_enumerated_components_pass_all_checks():
    orbits = [ELL, NEGH, POSH]
    bounds = EnumerationBounds(max_total_multiplicity=4)
    report = run_estimate_sweep(orbits, GENERIC, bounds)
    assert report.components > 100
    assert report.ok, report.violations


def test_enumerated_components_are_their_rows(suite_inventory):
    # The constructor recomputes both indices from the ends with curve_index;
    # each row carries its index as a drop in grading.  Over the whole
    # inventory of estimate_suite.json every component, read back as a row,
    # is the row it was built from.
    suite, table, inventory = suite_inventory
    rows = list(buildings._rows(table, suite.profile, suite.bounds))
    assert [row_of(table, c) for c in inventory] == rows
    assert len(rows) == 79568


def test_search_rejects_an_invalid_kept_row(monkeypatch):
    # The search builds each row it keeps through the public constructor, so
    # a kept branched cover with its branch count off by one raises, where an
    # unchecked build would emit buildings that contain it.
    orbits, bounds = [ELL, POSH], EnumerationBounds()
    table = OrbitTable(orbits, bounds.max_total_multiplicity)
    rows = list(buildings._rows(table, CONVEX, bounds))
    kept = [row_of(table, c) for c in _Enumerator(orbits, CONVEX, bounds, None).components]
    kind, d, b, *rest = next(r for r in kept if r[0] is BTC and r[2] > 0)
    read = inject_rows(monkeypatch, rows + [(kind, d, b + 1, *rest)])
    with pytest.raises(SkeletonError, match="^branch count violates Riemann-Hurwitz$"):
        enumerate_buildings(orbits, CONVEX, bounds)
    assert read == {"_rows": rows + [(kind, d, b + 1, *rest)], "_tally": []}


# sha256 of "\n".join(report.lines()) of the estimate sweep.
ESTIMATE_SWEEP_DIGESTS = {
    "estimate_suite.json": "078a6fc2fc3364102dd86670c7b81eacf8f613607e210313e6e2a2064d394f30",
    "ELL, NEGH, POSH at multiplicity 4": (
        "a18eb0c4d6ae346cf233c4c7d219b1dfe3dd3e4974cc1eeb9e56c5f7a28a7615"
    ),
}


def test_estimate_sweep_report_bytes_are_pinned():
    suite = parse_scenario(SCENARIOS / "estimate_suite.json")
    runs = {
        "estimate_suite.json": (suite.orbits, suite.profile, suite.bounds),
        "ELL, NEGH, POSH at multiplicity 4": (
            [ELL, NEGH, POSH], GENERIC, EnumerationBounds(max_total_multiplicity=4)
        ),
    }
    got = {}
    for name, args in runs.items():
        report = run_estimate_sweep(*args)
        got[name] = hashlib.sha256("\n".join(report.lines()).encode()).hexdigest()
    assert got == ESTIMATE_SWEEP_DIGESTS


def oracle_cz(r):
    # Independent evaluation through math.floor/ceil on the exact rational.
    theta = r.base.theta
    return floor_plus_ceil(theta.numerator * r.multiplicity, theta.denominator)


@lru_cache(maxsize=None)
def floor_plus_ceil(p, q):
    # Cached on integers: hashing an OrbitRef would rehash its Fraction.
    return math.floor(F(p, q)) + math.ceil(F(p, q))


def oracle_index(genus, pos, neg):
    chi = 2 - 2 * genus - len(pos) - len(neg)
    return -chi + sum(map(oracle_cz, pos)) - sum(map(oracle_cz, neg))


@pytest.mark.parametrize("generic_J", [True, False])
def test_component_indices_match_oracle(generic_J):
    # Every component carries its index and its underlying curve's index,
    # and every end its cz; all three agree with the floor/ceil formula.
    orbits = [ELL, NEGH, POSH, FLAT]
    bounds = EnumerationBounds(max_total_multiplicity=4)
    kinds = set()
    for c in enumerate_components(orbits, GenericityProfile(generic_J=generic_J), bounds):
        kinds.add(c.kind)
        upos, uneg = c.underlying_positive_end, c.underlying_negative_ends
        for r in (c.positive_end, *c.negative_ends, upos, *uneg):
            assert r.cz == oracle_cz(r)
        assert c.index == oracle_index(0, (c.positive_end,), c.negative_ends)
        assert c.underlying_index == oracle_index(0, (upos,), uneg), c.key
    assert kinds == set(ComponentKind)


def test_stored_indices_stay_out_of_equality_and_hash():
    a, b = ref(ELL, 2), ref(ELL, 2)
    object.__setattr__(b, "cz", b.cz + 1)
    assert a == b and hash(a) == hash(b)
    c, d = branched_cover(ELL, (1, 2)), branched_cover(ELL, (1, 2))
    object.__setattr__(d, "index", d.index + 1)
    object.__setattr__(d, "underlying_index", d.underlying_index + 1)
    assert d.key == c.key  # set by the constructor, from the ends alone
    assert c == d and hash(c) == hash(d)


def test_component_enumeration_respects_validity_bounds():
    orbits = [ELL]  # validity bound 4 < multiplicity bound 6
    bounds = EnumerationBounds(max_total_multiplicity=6)
    for c in enumerate_components(orbits, GENERIC, bounds):
        for r in (c.positive_end, *c.negative_ends):
            assert r.multiplicity <= 4


def test_plane_components_only_over_contractible_orbits():
    orbits = [NEGH]
    bounds = EnumerationBounds(max_total_multiplicity=3)
    for c in enumerate_components(orbits, GENERIC, bounds):
        assert c.negative_ends, c.key


def test_multi_end_cover_combination_applies():
    bounds = EnumerationBounds(max_total_multiplicity=6)
    seen = 0
    for c in enumerate_components([POSH, FLAT], GENERIC, bounds):
        if (
            c.kind is ComponentKind.COVER_OF_NONTRIVIAL_CURVE
            and len(c.underlying_negative_ends) > 1
        ):
            seen += 1
            assert CHECKS["multi_end_cover_combination"](c)
    assert seen > 0


@pytest.mark.parametrize(
    "d, top", [(2, 4), (2, 3), (3, 6), (3, 5), (3, 3), (4, 8), (4, 7), (4, 5)]
)
def test_covers_of_yields_each_negative_multiset_once(d, top):
    # Degree-d covers of the curve p^1 => h^1, h^2: every multiset of
    # negative ends that Riemann-Hurwitz allows comes out exactly once, even
    # when two ways of covering h^1 and h^2 give the same multiset.  Below
    # top = 2d the multiplicity cap cuts off the largest covers of h^2.
    table = OrbitTable([POSH, NEGH], top)
    cap = {o.name: min(o.validity_bound, top) for o in (POSH, NEGH)}
    p = table.id_of(ref(POSH, d))
    ids = (table.id_of(ref(NEGH, 1)), table.id_of(ref(NEGH, 2)))
    ways = _cover_ways(table.refs, cap, d)
    shapes = list(_cover_shapes(table, p, ids, d, ways))

    ways = []
    for over_h1 in _partitions(d):
        for over_h2 in _partitions(d):
            mults = tuple(sorted(list(over_h1) + [2 * t for t in over_h2]))
            # Riemann-Hurwitz: chi(cover) = d * chi(underlying) - branch points.
            branch = d * (2 - 1 - 2) - (2 - 1 - len(mults))
            if mults[-1] <= top and branch >= 0:
                ways.append(mults)
    got = [tuple(table.refs[e].multiplicity for e in key) for key, _, _ in shapes]
    assert len(got) == len(set(got))
    assert set(got) == set(ways)
    assert 0 in [b for _, b, _ in shapes]  # unbranched covers are shapes too
    if d == 4:
        assert len(ways) > len(set(ways))  # the dedupe is exercised
    for key, b, index in shapes:
        neg = [table.refs[e] for e in key]
        assert list(key) == sorted(key)
        assert all(r.base == NEGH for r in neg)
        assert b == d * (2 - 1 - 2) - (2 - 1 - len(neg))
        assert index == oracle_index(0, [ref(POSH, d)], neg)


def oracle_covers(orbits, top):
    """Every cover the enumeration may use as an end: each orbit's covers up
    to the lesser of its validity bound and the multiplicity bound."""
    return [
        OrbitRef(o, m) for o in orbits for m in range(1, min(o.validity_bound, top) + 1)
    ]


def oracle_multisets(covers, budget):
    """Every multiset of covers with total multiplicity <= budget, as sorted
    position tuples: every choice of how many copies of each cover.  The sort
    gives the lexicographic order of position tuples that the enumerator
    walks."""
    out = []

    def walk(i, left, acc):
        if i == len(covers):
            out.append(tuple(acc))
            return
        for count in range(left // covers[i].multiplicity + 1):
            walk(i + 1, left - count * covers[i].multiplicity, acc + [i] * count)

    walk(0, budget, [])
    return sorted(out)


def oracle_kept(covers, generic_J, p, ms):
    """Is covers[p] => covers[ms] a somewhere-injective curve the enumerator
    admits?  Not the trivial cylinder, not a plane over a non-contractible
    orbit, and under generic J of index at least one."""
    if ms == (p,) or (not ms and not covers[p].base.contractible):
        return False
    return not generic_J or oracle_index(0, [covers[p]], [covers[i] for i in ms]) >= 1


def oracle_sorted(ends):
    return tuple(sorted(ends, key=lambda r: (r.base.name, r.multiplicity)))


def oracle_candidates(orbits, generic_J, top):
    """The somewhere-injective keys, and the underlying curves of covers,
    that the enumerator should emit, in emission order.

    Walks every positive cover against every multiset of negative covers
    within the cap (oracle_kept).  A degree-d cover needs the d-fold
    positive cover within its orbit's cap, and its underlying negative
    multiplicities total at most top // d.
    """
    covers = oracle_covers(orbits, top)
    names = [f"{r.base.name}^{r.multiplicity}" for r in covers]

    def text(p, ms):
        neg = sorted(ms, key=lambda i: (covers[i].base.name, covers[i].multiplicity))
        return names[p] + "=>" + ",".join(names[i] for i in neg)

    every = range(len(covers))
    out = [
        "si[g=0]" + text(p, ms)
        for p in every
        for ms in oracle_multisets(covers, top)
        if oracle_kept(covers, generic_J, p, ms)
    ]
    for d in range(2, top + 1):
        below = oracle_multisets(covers, top // d)
        for u in every:
            if covers[u].multiplicity * d <= min(covers[u].base.validity_bound, top):
                out += [
                    f"cov[d={d};" + text(u, ms)
                    for ms in below
                    if oracle_kept(covers, generic_J, u, ms)
                ]
    return out


def oracle_partitions(n, cap):
    """Partitions of n into parts of at most cap, largest part first."""
    if n == 0:
        yield ()
    for part in range(min(n, cap), 0, -1):
        for rest in oracle_partitions(n - part, part):
            yield (part,) + rest


def oracle_components(orbits, generic_J, top):
    """Every component enumerate_components should emit, once each, as the
    arguments of the public ComponentSkeleton constructor; computed once per
    orbit set, profile and bound, as several grid tests read it."""
    return _oracle_components(tuple(orbits), generic_J, top)


@lru_cache(maxsize=None)
def _oracle_components(orbits, generic_J, top):
    """oracle_components, as a tuple.

    Shares no code with the enumerator.  A branched cover of a trivial
    cylinder takes each partition of its degree as its negative ends.  A
    somewhere-injective curve is a positive cover against a multiset of
    negative covers (oracle_kept).  A degree-d cover of such a curve u =>
    ms, k = |ms|, has the d-fold cover of u as its one positive end.  Its
    negative ends are any multiset of covers with the same orbits as ms, of
    total multiplicity d times that of ms on each orbit, that satisfies
    Riemann-Hurwitz for n ends, b = n + d - d*k - 1 >= 0, and that some
    assignment of its ends to the ends of ms covers each with degree d.
    Each assignment is tried in turn.
    """
    covers = oracle_covers(orbits, top)
    at = {(r.base.name, r.multiplicity): i for i, r in enumerate(covers)}

    def weight(ids, d=1):
        # Total multiplicity on each orbit, times d.
        totals = {}
        for i in ids:
            name = covers[i].base.name
            totals[name] = totals.get(name, 0) + d * covers[i].multiplicity
        return tuple(sorted(totals.items()))

    def assignable(neg, under, d):
        for owner in product(range(len(under)), repeat=len(neg)):
            left = [d] * len(under)
            for end, j in zip(neg, owner):
                base = under[j]
                if end.base != base.base or end.multiplicity % base.multiplicity:
                    break
                left[j] -= end.multiplicity // base.multiplicity
            else:
                if not any(left):
                    return True
        return False

    out = []
    for r in covers:
        d, base = r.multiplicity, covers[at[r.base.name, 1]]
        for parts in oracle_partitions(d, d):
            neg = oracle_sorted(covers[at[r.base.name, t]] for t in parts)
            out.append((BTC, d, len(parts) - 1, r, neg, base, (base,)))
    everything = oracle_multisets(covers, top)
    by_weight = {}
    for ms in everything:
        by_weight.setdefault(weight(ms), []).append(ms)
    for p, r in enumerate(covers):
        for ms in everything:
            if oracle_kept(covers, generic_J, p, ms):
                neg = oracle_sorted(covers[i] for i in ms)
                out.append((SI, 1, 0, r, neg, r, neg))
    for d in range(2, top + 1):
        for u, r in enumerate(covers):
            pos = at.get((r.base.name, d * r.multiplicity))
            if pos is None:
                continue
            for ms in oracle_multisets(covers, top // d):
                if not oracle_kept(covers, generic_J, u, ms):
                    continue
                uneg = oracle_sorted(covers[i] for i in ms)
                for ids in by_weight.get(weight(ms, d), ()):
                    b = len(ids) + d - d * len(ms) - 1
                    neg = oracle_sorted(covers[i] for i in ids)
                    if b >= 0 and assignable(neg, uneg, d):
                        out.append((COV, d, b, covers[pos], neg, r, uneg))
    return tuple(out)


def oracle_rows(orbits, generic_J, top):
    """(key, index, underlying index) of each oracle component: the key
    written out here, the indices from oracle_index."""

    def text(ends):
        return ",".join(f"{r.base.name}^{r.multiplicity}" for r in ends)

    rows = []
    for kind, d, b, pos, neg, upos, uneg in oracle_components(orbits, generic_J, top):
        ends = f"{text((pos,))}=>{text(neg)}"
        if kind is BTC:
            key = f"btc[d={d},b={b}]{ends}"
        elif kind is SI:
            key = f"si[g=0]{ends}"
        else:
            key = f"cov[d={d},b={b};{text((upos,))}=>{text(uneg)}]{ends}"
        rows.append((key, oracle_index(0, (pos,), neg), oracle_index(0, (upos,), uneg)))
    return sorted(rows)


def enumerated_candidates(orbits, generic_J, top):
    """enumerate_components' somewhere-injective keys and, once per run of
    covers, their underlying curve, in emission order."""
    out = []
    bounds = EnumerationBounds(max_total_multiplicity=top)
    for c in enumerate_components(orbits, GenericityProfile(generic_J=generic_J), bounds):
        if c.kind is SI:
            out.append(c.key)
        elif c.kind is COV:
            d, under = re.fullmatch(r"cov\[d=(\d+),b=\d+;(.*)\].*", c.key).groups()
            if out[-1] != f"cov[d={d};{under}":
                out.append(f"cov[d={d};{under}")
    return out


E2 = RotationData("f", F(9, 7), 6, contractible=True)
P2 = RotationData("q", F(1), 30, contractible=True)
H2 = RotationData("k", F(3, 2), 30)

ORACLE_ORBITS = [[ELL, E2], [POSH, P2, FLAT], [NEGH, H2], [ELL, POSH, NEGH], [E2, FLAT, H2]]


def orbit_names(orbits):
    return "".join(o.name for o in orbits)


# Five orbit sets, which of their orbits are contractible, and generic J or not.
ORACLE_GRID = [
    pytest.mark.parametrize("orbits", ORACLE_ORBITS, ids=orbit_names),
    pytest.mark.parametrize("contractible", ["all", "none", "first"]),
    pytest.mark.parametrize("generic_J", [True, False]),
]


def on_grid(test):
    for mark in reversed(ORACLE_GRID):
        test = mark(test)
    return test


def with_contractible(orbits, contractible):
    flags = {"all": [True] * 3, "none": [False] * 3, "first": [True, False, False]}
    return [
        dataclasses.replace(o, contractible=flag)
        for o, flag in zip(orbits, flags[contractible])
    ]


@on_grid
def test_candidate_filter_matches_oracle(orbits, contractible, generic_J):
    orbits = with_contractible(orbits, contractible)
    for top in range(1, 7):
        want = oracle_candidates(orbits, generic_J, top)
        assert enumerated_candidates(orbits, generic_J, top) == want, top


@on_grid
def test_components_match_oracle(orbits, contractible, generic_J):
    # Every component with its stored indices, against the oracle's; as
    # sorted lists, so a duplicate or a lost component shows.
    orbits = with_contractible(orbits, contractible)
    profile = GenericityProfile(generic_J=generic_J)
    for top in range(1, 7):
        bounds = EnumerationBounds(max_total_multiplicity=top)
        got = sorted(
            (c.key, c.index, c.underlying_index)
            for c in enumerate_components(orbits, profile, bounds)
        )
        assert got == oracle_rows(orbits, generic_J, top), top


@on_grid
def test_sweep_matches_the_per_component_reference_on_the_grid(orbits, contractible, generic_J):
    # Without generic J both raise the same PreconditionError.
    orbits = with_contractible(orbits, contractible)
    profile = GenericityProfile(generic_J=generic_J)
    for top in range(1, 7):
        bounds = EnumerationBounds(max_total_multiplicity=top)
        assert (assert_sweep_matches_reference(orbits, profile, bounds) is None) is not generic_J


def tally_key(kind, d, b, neg, upos, uneg, index, under):
    """The argument tuple the sweep decides for a component, written out
    here: the flag says that the component is a cylinder off BTC over two
    ends with m * theta in (1/2)Z, ends that are not elliptic."""
    flag = kind is not BTC and len(neg) == 1 and all(
        (r.base.theta * r.multiplicity).denominator <= 2 for r in (upos, *uneg)
    )
    return kind, d, b, len(neg), len(uneg), index, under, flag


def component_key(c):
    return tally_key(c.kind, c.cover_degree, c.branch_count, c.negative_ends,
                     c.underlying_positive_end, c.underlying_negative_ends, c.index,
                     c.underlying_index)


def assert_tally_counts_the_rows(orbits, profile, bounds, components=None):
    """_tally, which counts SI rows by shape, equals the Counter of argument
    tuples over the listed rows of _rows, and over components if given: the
    same tuples, counts and order of first sight.  Returns it."""
    table = OrbitTable(orbits, bounds.max_total_multiplicity)
    hyperbolic = [orbit_type(r) is not OrbitType.ELLIPTIC for r in table.refs]
    got = buildings._tally(table, profile, bounds, hyperbolic)
    listed = Counter(
        buildings._arguments(hyperbolic, *row) for row in buildings._rows(table, profile, bounds)
    )
    assert list(got.items()) == list(listed.items())
    if components is not None:
        assert list(got.items()) == list(Counter(map(component_key, components)).items())
    return got


@on_grid
def test_tally_counts_every_row(orbits, contractible, generic_J):
    # And, unordered, the oracle's components: the trivial cylinder (p,) and
    # planes over non-contractible orbits are left out as the oracle leaves
    # them out, so a tally that counted either fails here even where _rows
    # shares the fault.
    orbits = with_contractible(orbits, contractible)
    profile = GenericityProfile(generic_J=generic_J)
    for top in range(1, 7):
        bounds = EnumerationBounds(max_total_multiplicity=top)
        got = assert_tally_counts_the_rows(orbits, profile, bounds)
        want = Counter(
            tally_key(kind, d, b, neg, upos, uneg, oracle_index(0, (pos,), neg),
                      oracle_index(0, (upos,), uneg))
            for kind, d, b, pos, neg, upos, uneg
            in oracle_components(orbits, generic_J, top)
        )
        assert got == want, top


def test_tally_counts_every_row_of_the_estimate_suite(suite_inventory):
    suite, _, components = suite_inventory
    got = assert_tally_counts_the_rows(suite.orbits, suite.profile, suite.bounds, components)
    assert sum(got.values()) == 79568
    # 675 tuples, DECISIONS; 75,193 SI rows share 158 of them.
    si = [n for args, n in got.items() if args[0] is SI]
    assert (len(got), sum(si), len(si)) == (DECISIONS, 75193, 158)


@pytest.mark.parametrize(
    "name", sorted(p.name for p in SCENARIOS.glob("*.json") if p.name != "estimate_suite.json")
)
def test_tally_counts_every_row_of_each_shipped_scenario(name):
    suite = parse_scenario(SCENARIOS / name)
    components = enumerate_components(suite.orbits, suite.profile, suite.bounds)
    assert_tally_counts_the_rows(suite.orbits, suite.profile, suite.bounds, components)


def test_sweep_lists_the_rows_of_a_failing_shape_in_row_order(monkeypatch):
    # A shape stands for many SI rows; if its tuple fails, the sweep lists
    # the inventory and reports each of those rows, in inventory order.
    # Here every SI row with two negative ends fails the generic bounds.
    orbits, bounds = [ELL, NEGH, POSH], EnumerationBounds(max_total_multiplicity=4)
    check = buildings.check_nontrivial_cover_bounds

    def failing(generic_J, kind, n, k, index, under):
        return check(generic_J, kind, n, k, index, under) and not (
            kind is SI and n == 2
        )

    monkeypatch.setattr(buildings, "check_nontrivial_cover_bounds", failing)
    report = run_estimate_sweep(orbits, GENERIC, bounds)
    pairs = [c for c in enumerate_components(orbits, GENERIC, bounds)
             if c.kind is SI and len(c.negative_ends) == 2]
    assert report.violations == dict.fromkeys(CHECK_NAMES, []) | {
        "nontrivial_cover_bounds": [c.key for c in pairs]
    }
    # Some positive end has several of those rows at one index: one shape.
    assert len({(c.positive_end, c.index) for c in pairs}) < len(pairs)


# ---------------------------------------------------------------- enumeration


def test_single_plane_enumeration():
    bounds = EnumerationBounds(max_index=2, max_negative_ends=0)
    out = enumerate_buildings([ELL], CONVEX, bounds)
    assert len(out) == 1
    (b,) = out
    assert len(b.levels) == 1
    assert b.total_index == 2
    assert len(b.negative_ends) == 0
    assert b.positive_end == ref(ELL, 1)
    assert b.root.component.kind is ComponentKind.SOMEWHERE_INJECTIVE


def test_index_one_enumeration_gives_one_level_cylinders():
    orbits = [ELL, POSH, RotationData("h", F(1, 2), 30)]
    bounds = EnumerationBounds(max_index=1)
    out = enumerate_buildings(orbits, CONVEX, bounds)
    assert out
    for b in out:
        assert len(b.levels) == 1
        assert len(b.negative_ends) == 1
        assert len(b.levels[0]) == 1


def test_two_level_chains_and_split_plane_shapes_appear():
    orbits = [ELL, POSH, RotationData("h", F(1, 2), 30)]
    out = enumerate_buildings(orbits, CONVEX, EnumerationBounds())
    tags = [classify_building(b)[0] for b in out]
    assert "index-two:two-cylinder-levels" in tags
    assert "index-two:split-off-plane" in tags


def test_enumeration_respects_every_bound():
    orbits = [ELL, POSH, RotationData("h", F(1, 2), 30)]
    bounds = EnumerationBounds(max_levels=3, max_components_per_level=2, max_index=2)
    out = enumerate_buildings(orbits, CONVEX, bounds)
    assert out
    for b in out:
        assert len(b.levels) <= bounds.max_levels
        assert all(len(l) <= bounds.max_components_per_level for l in b.levels)
        assert b.total_index <= bounds.max_index
        assert len(b.negative_ends) <= bounds.max_negative_ends
        assert not b.is_trivial


def test_enumeration_is_deterministic_and_duplicate_free():
    orbits = [ELL, POSH]
    a = enumerate_buildings(orbits, CONVEX, EnumerationBounds())
    b = enumerate_buildings(orbits, CONVEX, EnumerationBounds())
    keys_a = [building_key(x) for x in a]
    keys_b = [building_key(x) for x in b]
    assert keys_a == keys_b
    assert len(set(keys_a)) == len(keys_a)
    assert keys_a == sorted(keys_a)


def tree_from_levels(levels):
    # Level i + 1 lists the components at the negative ends of level i,
    # in order.
    below = [BuildingNode(c) for c in levels[-1]]
    for level in reversed(levels[:-1]):
        ends = iter(below)
        below = [
            BuildingNode(c, [next(ends) for _ in c.negative_ends]) for c in level
        ]
    (root,) = below
    return root


def brute_force_keys(orbits, profile, bounds):
    # Reference enumeration: components from oracle_components, no bound
    # tables, no canonical ordering; assemble level lists directly and
    # dedupe by canonical key.  The one pruning: a partial building is
    # emitted before it is extended, and each of the at most
    # levels-left * per-level components still to come has index at least
    # `least`, so no extension fits once the index so far exceeds
    # max_index - that many times min(0, least).
    by_pos = {}
    top = bounds.max_total_multiplicity
    for shape in oracle_components(orbits, profile.generic_J, top):
        c = ComponentSkeleton(*shape)
        by_pos.setdefault(c.positive_end, []).append(c)
    least = min([0] + [c.index for group in by_pos.values() for c in group])
    found = {}

    def emit(levels):
        b = BuildingSkeleton(tree_from_levels(levels))
        if b.total_index <= bounds.max_index and not b.is_trivial:
            found[building_key(b)] = b.total_index

    def rec(levels, frontier):
        if len(frontier) <= bounds.max_negative_ends:
            emit(levels)
        later = (bounds.max_levels - len(levels)) * bounds.max_components_per_level
        if (
            len(levels) >= bounds.max_levels
            or not frontier
            or len(frontier) > bounds.max_components_per_level
            or sum(c.index for l in levels for c in l) + later * least > bounds.max_index
        ):
            return
        pools = [by_pos.get(r, ()) for r in frontier]
        for assignment in product(*pools):
            if all(c.is_trivial_cylinder for c in assignment):
                continue
            good = all(
                c.positive_end == r for c, r in zip(assignment, frontier)
            )
            assert good
            rec(
                levels + [list(assignment)],
                [e for c in assignment for e in c.negative_ends],
            )

    for group in by_pos.values():
        for root in group:
            if root.is_trivial_cylinder:
                continue
            rec([[root]], list(root.negative_ends))
    return found


def test_enumeration_matches_brute_force_reference():
    orbits = [
        RotationData("e", F(6, 5), 2, contractible=True),
        RotationData("h", F(1, 2), 2),
    ]
    for max_index in (1, 2, 4):
        bounds = EnumerationBounds(
            max_levels=3,
            max_total_multiplicity=2,
            max_index=max_index,
            max_components_per_level=3,
            max_negative_ends=1,
        )
        expected = brute_force_keys(orbits, CONVEX, bounds)
        got = {building_key(b): b.total_index for b in enumerate_buildings(orbits, CONVEX, bounds)}
        assert got == expected


def test_enumeration_matches_brute_force_no_negative_ends():
    orbits = [RotationData("e", F(6, 5), 3, contractible=True)]
    bounds = EnumerationBounds(
        max_levels=3,
        max_total_multiplicity=3,
        max_index=6,
        max_components_per_level=3,
        max_negative_ends=0,
    )
    expected = brute_force_keys(orbits, CONVEX, bounds)
    got = {building_key(b): b.total_index for b in enumerate_buildings(orbits, CONVEX, bounds)}
    assert got == expected
    assert got


@pytest.mark.parametrize("multiplicity,levels", [(3, 3), (3, 4), (4, 3), (4, 4)])
def test_enumeration_matches_brute_force_deeper(multiplicity, levels):
    # Multiply covered ends, several components per level and up to four
    # levels, where the completion bounds prune and equal ends repeat.
    orbits = [
        RotationData("e", F(6, 5), 4, contractible=True),
        RotationData("h", F(1, 2), 4),
    ]
    bounds = EnumerationBounds(
        max_levels=levels,
        max_total_multiplicity=multiplicity,
        max_index=3,
        max_components_per_level=3,
        max_negative_ends=1,
    )
    expected = brute_force_keys(orbits, CONVEX, bounds)
    got = {building_key(b): b.total_index for b in enumerate_buildings(orbits, CONVEX, bounds)}
    assert got == expected
    assert len(got) == (21 if multiplicity == 3 else 61)


CAP_ORBITS = [
    RotationData("e", F(6, 5), 3, contractible=True),
    RotationData("h", F(1, 2), 3),
    RotationData("p", F(1), 3, contractible=True),
]


@pytest.mark.parametrize("orbits", [CAP_ORBITS] + ORACLE_ORBITS, ids=orbit_names)
@pytest.mark.parametrize("generic_J", [True, False])
def test_capped_inventory_is_the_uncapped_one_cut_at_the_cap(orbits, generic_J):
    # The search's inventory, capped at each index from -2 to 4: exactly
    # the uncapped components of index <= cap, and every unbranched trivial
    # cylinder, which is emitted whatever the cap.
    profile = GenericityProfile(generic_J=generic_J)
    for top in range(1, 5):
        bounds = EnumerationBounds(max_total_multiplicity=top)
        table = OrbitTable(orbits, top)
        rows = [
            (c.key, c.index, c.underlying_index, c.kind is BTC and c.branch_count == 0)
            for c in enumerate_components(orbits, profile, bounds)
        ]
        for cap in range(-2, 5):
            capped = (
                buildings._component(table.refs, *row)
                for row in buildings._rows(table, profile, bounds, cap)
            )
            got = sorted((c.key, c.index, c.underlying_index) for c in capped)
            want = sorted(row[:3] for row in rows if row[1] <= cap or row[3])
            assert got == want, (top, cap)


FLOOR_ORBITS = [
    RotationData("a", F(-34, 15), 8, contractible=True),
    RotationData("b", F(2, 11), 8, contractible=True),
    RotationData("c", F(3), 8, contractible=True),
]


def oracle_least_index(orbits, generic_J, top):
    """min(0, the least index of every oracle component)."""
    return min(
        [0] + [oracle_index(0, (pos,), neg)
               for _, _, _, pos, neg, _, _ in oracle_components(orbits, generic_J, top)]
    )


FLOOR_CASES = [(o, range(1, 5)) for o in ORACLE_ORBITS] + [(FLOOR_ORBITS, [6])]


@pytest.mark.parametrize("max_index", [-2, 0, 3])
@pytest.mark.parametrize("generic_J", [True, False])
@pytest.mark.parametrize("orbits, tops", FLOOR_CASES, ids=[orbit_names(o) for o, _ in FLOOR_CASES])
def test_search_caps_the_rows_by_their_least_index(orbits, tops, generic_J, max_index,
                                                   monkeypatch):
    # The search lists the rows at cap max(max_index, 0), which holds every
    # row of negative index, so their least index is L exactly under either
    # profile.  It lists them again at max_index - (K - 1) * min(0, L) only
    # if that cap differs: never under generic J with L = 0 and max_index >= 0.
    caps = []
    listed = buildings._rows

    def recorded(table, profile, bounds, cap=buildings.INF, multisets=None):
        caps.append(cap)
        return listed(table, profile, bounds, cap, multisets)

    monkeypatch.setattr(buildings, "_rows", recorded)
    profile = GenericityProfile(generic_J=generic_J)
    for top in tops:
        floor = oracle_least_index(orbits, generic_J, top)
        bounds = EnumerationBounds(max_total_multiplicity=top, max_index=max_index)
        others = bounds.max_levels * bounds.max_components_per_level - 1
        first, cap = max(max_index, 0), max_index - others * floor
        caps.clear()
        _Enumerator(orbits, profile, bounds, None)
        assert caps == ([first] if cap == first else [first, cap]), top
    if orbits is FLOOR_ORBITS and generic_J:
        assert floor == -1


CAP_GRID = [
    (generic_J, levels, per_level, max_negative_ends)
    for generic_J, levels, per_level in [
        (True, 1, 1),
        (True, 2, 1),
        (True, 1, 2),
        (True, 2, 2),
        (True, 3, 2),
        (False, 1, 1),
        (False, 2, 1),
        (False, 1, 2),
    ]
    for max_negative_ends in (0, 1)
] + [
    # Three and four levels under generic J, where equal ends of different
    # components on one level take subtrees that cannot be swapped.
    (True, levels, per_level, max_negative_ends)
    for levels, per_level, max_negative_ends in [
        (3, 2, 2), (3, 3, 1), (4, 2, 1), (3, 3, 2), (4, 3, 1)
    ]
]


@pytest.mark.parametrize("generic_J, levels, per_level, max_negative_ends", CAP_GRID)
def test_index_cap_keeps_every_building(generic_J, levels, per_level, max_negative_ends):
    # The enumerator builds only components whose index fits under the cap
    # and drops those that cannot fit with their cheapest completion; the
    # brute-force reference builds the whole inventory and prunes nothing.
    # With K = levels * per_level = 1 or 2 the cap binds even when some
    # component has negative index, as without generic J.
    profile = GenericityProfile(generic_J=generic_J)
    for max_index in range(-1, 4):
        bounds = EnumerationBounds(
            max_levels=levels,
            max_total_multiplicity=3,
            max_index=max_index,
            max_components_per_level=per_level,
            max_negative_ends=max_negative_ends,
        )
        expected = brute_force_keys(CAP_ORBITS, profile, bounds)
        got = {building_key(b): b.total_index for b in enumerate_buildings(CAP_ORBITS, profile, bounds)}
        assert got == expected, max_index


def test_index_cap_keeps_buildings_with_a_component_above_max_index():
    # Without generic J, convex_small at two levels of one component and
    # index 2: more than half of the buildings pair a component above
    # index 2 with one of negative index below it.
    scenario = parse_scenario(SCENARIOS / "convex_small.json")
    profile = GenericityProfile(generic_J=False)
    bounds = EnumerationBounds(
        max_levels=2, max_components_per_level=1, max_total_multiplicity=4, max_index=2
    )
    expected = brute_force_keys(scenario.orbits, profile, bounds)
    out = enumerate_buildings(scenario.orbits, profile, bounds)
    assert {building_key(b): b.total_index for b in out} == expected
    above = [b for b in out if any(c.index > 2 for level in b.levels for c in level)]
    assert (len(above), len(out)) == (1052, 1978)


# Without generic J, its planes have negative index.
NEG_PLANE = RotationData("n", F(-1, 7), 6, contractible=True)


@pytest.mark.parametrize(
    "levels, max_negative_ends, counts",
    [
        (2, 0, [22, 44, 44, 44]),
        (2, 1, [57, 153, 153, 188]),
        (3, 0, [370, 740, 740, 740]),
        (3, 1, [1196, 3204, 3204, 4030]),
    ],
)
def test_budget_counts_what_later_ends_give_back(levels, max_negative_ends, counts):
    # Without generic J, n = -1/7 bounds planes of negative index, so the
    # ends of a level still to be assigned can lower the total: a component
    # above max_index - total fits when they do.  Two components per level,
    # against the brute-force reference, at each max_index.  From three
    # levels the completions of the components chosen before one on its
    # level (pending) can be negative too.
    orbits = [RotationData("a", F(1, 7), 6, contractible=True), NEG_PLANE]
    profile = GenericityProfile(generic_J=False)
    got = []
    for max_index in range(-1, 3):
        bounds = EnumerationBounds(
            max_levels=levels,
            max_total_multiplicity=2,
            max_index=max_index,
            max_components_per_level=2,
            max_negative_ends=max_negative_ends,
        )
        expected = brute_force_keys(orbits, profile, bounds)
        out = enumerate_buildings(orbits, profile, bounds)
        assert {building_key(b): b.total_index for b in out} == expected, max_index
        got.append(len(out))
    assert got == counts


def random_orbit_set(seed):
    """One to four orbits with rotation numbers in [-3, 3], some of them
    negative, and validity bounds 1 to 8, each below the denominator of an
    elliptic rotation number."""
    rng = random.Random(seed)
    orbits = []
    for name in "abcd"[: rng.randint(1, 4)]:
        den = rng.choice([1, 2, 5, 7, 9, 11])
        theta = F(rng.randint(-3 * den, 3 * den), den)
        top = 8 if theta.denominator <= 2 else min(8, theta.denominator - 1)
        contractible = rng.random() < 0.5
        orbits.append(RotationData(name, theta, rng.randint(1, top), contractible=contractible))
    return orbits


SHAPE_ORBIT_SETS = ORACLE_ORBITS + [
    FLOOR_ORBITS,
    [RotationData("a", F(1, 7), 6, contractible=True), NEG_PLANE],
    [ELL, NEGH, POSH],
] + [random_orbit_set(seed) for seed in range(8)]


def listed_shapes(table, budget):
    """{(n, t): (count, first ids)} over the listed multisets of covers, in
    order of first sight: a Counter over _neg_multisets."""
    listed = buildings._neg_multisets(range(len(table.refs)), budget, table)
    counts = Counter((len(ids), t) for ids, t in listed)
    first = {}
    for ids, t in listed:
        first.setdefault((len(ids), t), ids)
    return {key: (count, first[key]) for key, count in counts.items()}


@pytest.mark.parametrize("orbits", SHAPE_ORBIT_SETS, ids=orbit_names)
def test_shapes_count_the_listed_multisets(orbits):
    # The table holds covers up to multiplicity 8 at every budget, so a
    # program that read the table's covers in place of the budget counts
    # multisets the listing leaves out.  Ranked by least id tuple, the
    # shapes come in the listing's order of first sight, which the order of
    # the sweep's errors rests on.
    table = OrbitTable(orbits, 8)
    for budget in range(9):
        got, want = buildings._shapes(table, budget), listed_shapes(table, budget)
        assert got == want, budget
        assert sorted(got, key=lambda key: got[key][1]) == list(want), budget


def test_shape_grid_holds_negative_gradings():
    # Some sets mix signs; in some every grading is negative, so the
    # largest t is that of the empty multiset, 0.
    gradings = [OrbitTable(orbits, 8).grading for orbits in SHAPE_ORBIT_SETS]
    assert sum(min(g) < 0 < max(g) for g in gradings) >= 2
    assert sum(max(g) < 0 for g in gradings) >= 1


def listed_cover_shapes(table, p, ids, d, ways):
    """The COV listing of _cover_shapes as it stood when the sweep listed
    every COV row, kept here as the oracle of the sweep's COV counts: one
    (sorted end ids, b, index) per negative-end multiset, in product order."""
    g, k = table.grading, len(ids)
    seen = set()
    for groups in product(*[ways[i] for i in ids]):
        b = sum(map(len, groups)) + d - d * k - 1
        if b < 0:
            continue
        key = tuple(sorted(e for group in groups for e in group))
        if key not in seen:
            seen.add(key)
            yield key, b, g[p] - sum(g[e] for e in key)


def listed_cover_counts(table, p, ids, d, ways):
    """[(b, n, t, count)] over the listed shapes, in order of first sight."""
    counts = Counter(
        (b, len(key), sum(table.grading[e] for e in key))
        for key, b, _ in listed_cover_shapes(table, p, ids, d, ways)
    )
    return [(*shape, count) for shape, count in counts.items()]


def cover_orbit_set(seed):
    """Two or three orbits whose covers reach multiplicity 10 more often than
    random_orbit_set's, so curves over repeated base orbits have many covers."""
    rng = random.Random(f"covers:{seed}")
    orbits = []
    for name in "abc"[: rng.randint(2, 3)]:
        den = rng.choice([1, 2, 11, 13])
        theta = F(rng.randint(-2 * den, 3 * den), den)
        top = 10 if theta.denominator <= 2 else min(10, theta.denominator - 1)
        orbits.append(RotationData(name, theta, rng.randint(3, top), contractible=rng.random() < 0.5))
    return orbits


COVER_ORBIT_SETS = [[ELL, NEGH, POSH]] + [cover_orbit_set(seed) for seed in range(8)]


@pytest.mark.parametrize("orbits", COVER_ORBIT_SETS, ids=orbit_names)
def test_cover_shapes_and_counts_match_the_listed_cover_shapes(orbits):
    # For every underlying curve of any index and every degree, the shapes
    # listed one orbit at a time are the listing's over all groupings, in
    # its order, and the counts by shape are its counts, in its order of
    # first sight.  The grid holds curves whose ends lie over two orbits or
    # repeat one, and multisets reached by several groupings.
    seen = Counter()
    for top in range(6, 11):
        table = OrbitTable(orbits, top)
        runs = {}
        for d, u, p, ids, ways, _ in buildings._cover_bases(table, -buildings.INF, top):
            listed = list(listed_cover_shapes(table, p, ids, d, ways))
            assert list(_cover_shapes(table, p, ids, d, ways)) == listed, (top, d, u, ids)
            got = buildings._cover_counts(table, d, ids, ways, runs)
            assert got == listed_cover_counts(table, p, ids, d, ways), (top, d, u, ids)
            bases = [table.refs[i].base for i in ids]
            seen["two orbits"] += len(set(bases)) > 1
            seen["repeated base orbit"] += len(set(bases)) < len(bases)
            groupings = sum(
                sum(map(len, groups)) + d - d * len(ids) - 1 >= 0
                for groups in product(*[ways[i] for i in ids])
            )
            seen["shared multiset"] += groupings > sum(c for *_, c in got)
    assert min(seen.values()) > 0 and len(seen) == 3, seen


def test_cover_counts_are_of_multisets_not_groupings():
    # Degree-4 covers of curves with ends e^1, e^2 and e^1, e^1.  Over e^1,
    # e^2 the groupings {e^4} over e^1 with {e^2 x4} over e^2, and {e^2,
    # e^2} over e^1 with {e^4, e^2, e^2} over e^2, give one multiset.  Over
    # e^1, e^1 so do {e^2, e^1, e^1} twice and {e^2, e^2} with {e^1 x4},
    # which are no swap of one another.  Each multiset is one row, so each
    # counts once: 1 of shape (b, n, t) = (0, 5, 12) and (1, 6, 4), where
    # the groupings, also up to swaps, number 2.
    e = RotationData("e", F(7, 13), 12)
    for mults, top, want in [
        ((1, 2), 12, [(0, 5, 12, 1), (0, 5, 10, 3), (1, 6, 10, 2), (1, 6, 12, 1), (2, 7, 10, 1),
                      (0, 5, 8, 1), (1, 6, 8, 2), (2, 7, 8, 1), (3, 8, 8, 1)]),
        ((1, 1), 8, [(0, 5, 4, 2), (1, 6, 2, 1), (0, 5, 6, 1), (1, 6, 4, 1), (2, 7, 2, 1),
                     (3, 8, 0, 1)]),
    ]:
        table = OrbitTable([e], top)
        ways = _cover_ways(table.refs, {"e": top}, 4)
        ids = tuple(table.id_of(ref(e, m)) for m in mults)
        got = buildings._cover_counts(table, 4, ids, ways, {})
        assert got == want
        assert got == listed_cover_counts(table, table.id_of(ref(e, 4)), ids, 4, ways)


def test_tally_keeps_each_one_end_multiset_apart():
    # Three covers of grading 0, a^1 elliptic and b^1, c^1 negative
    # hyperbolic, so the six cylinders between them have index 0 and the
    # flag holds for b^1 => c^1 and c^1 => b^1 alone.  As one (1, 0) shape
    # of three multisets, led by (a,), each would be read as a cylinder to
    # a^1: none from a^1, three from each of b^1 and c^1, and none flagged.
    orbits = [RotationData(name, F(1, q), 1) for name, q in [("a", 3), ("b", 2), ("c", 2)]]
    assert OrbitTable(orbits, 1).grading == (0, 0, 0)
    profile = GenericityProfile(generic_J=False)
    tally = assert_tally_counts_the_rows(orbits, profile, EnumerationBounds(max_total_multiplicity=1))
    assert {args[-1]: n for args, n in tally.items() if args[0] is SI} == {False: 4, True: 2}


def test_enumeration_requires_convex_data_when_flagged():
    bad = RotationData("c", F(1, 2), 10, contractible=True)
    with pytest.raises(DynamicalConvexityError):
        enumerate_buildings([bad], CONVEX, EnumerationBounds())


def test_sweep_raises_the_convexity_error_before_any_estimate():
    # Without generic J every estimate tuple raises a PreconditionError, but
    # the inventory refuses the data first, before a tuple is decided.
    bad = RotationData("c", F(1, 2), 10, contractible=True)
    profile = GenericityProfile(generic_J=False, dynamically_convex=True)
    with pytest.raises(DynamicalConvexityError):
        run_estimate_sweep([bad], profile, EnumerationBounds())


def test_enumeration_limit_carries_partial_results():
    orbits = [ELL, POSH]
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_buildings(orbits, CONVEX, EnumerationBounds(max_buildings=1))
    assert len(err.value.partial) == 1


def test_time_limit_stops_the_component_inventory(monkeypatch):
    # A deadline already past stops the enumerator at the inventory's first
    # row, a trivial cylinder: before it lists a multiset of negative ends or
    # a cover shape, and before it builds its bound tables.
    def unreachable(*args):
        raise AssertionError("listed past the deadline")

    monkeypatch.setattr(_Enumerator, "_bound_tables", unreachable)
    monkeypatch.setattr(buildings, "_neg_multisets", unreachable)
    monkeypatch.setattr(buildings, "_cover_shapes", unreachable)
    with pytest.raises(EnumerationLimitError) as err:
        enumerate_buildings([ELL, POSH], CONVEX, EnumerationBounds(), time_limit=1e-9)
    assert err.value.partial == []


def test_time_limit_of_any_size_is_exact():
    # The deadline is integer nanoseconds plus time_limit * 10**9, exact for
    # an int or a Fraction of any size.
    unlimited = enumerate_buildings([ELL, POSH], CONVEX, EnumerationBounds())
    for limit in (10**400, F(1, 3)):
        assert enumerate_buildings([ELL, POSH], CONVEX, EnumerationBounds(), limit) == unlimited


def test_time_limit_stops_the_bound_tables(monkeypatch):
    # With no rows the inventory never looks at the clock, and the search
    # has nothing to expand: only the bound tables can stop it.
    calls = []
    monkeypatch.setattr(buildings, "_rows", lambda *args: calls.append(args) or iter(()))
    assert enumerate_buildings([ELL, POSH], CONVEX, EnumerationBounds()) == []
    with pytest.raises(EnumerationLimitError):
        enumerate_buildings([ELL, POSH], CONVEX, EnumerationBounds(), time_limit=1e-9)
    assert len(calls) == 2  # both searches read the empty inventory


@pytest.mark.parametrize("thin", [1, 2, 3])
@pytest.mark.parametrize("generic_J", [True, False])
@pytest.mark.parametrize("multiplicity", [1, 2, 3, 4])
@pytest.mark.parametrize("orbits", [[ELL, NEGH, POSH], [NEG_PLANE, POSH]], ids=orbit_names)
def test_bound_tables_match_subtree_oracle(orbits, generic_J, multiplicity, thin, monkeypatch):
    # From the _Enumerator docstring: closed[r][e] is the least index of a
    # subtree at e within r levels with no negative end, open[r][e] of one
    # with at most one; a subtree may leave e itself open at index 0.  The
    # oracle combines the children of each component by a min-plus product
    # over (no open end, one open end), on covers rather than ids.  Index is
    # additive, so with every component present a deeper subtree never beats
    # a direct component; keeping every second or third one lets it.  The
    # tables are built from the whole inventory, before the enumerator drops
    # the components that cannot fit, so the oracle reads that inventory.
    # Without generic J, n^1 bounds a plane of index -2, below open's 0.
    profile = GenericityProfile(generic_J=generic_J)
    bounds = EnumerationBounds(max_levels=3, max_total_multiplicity=multiplicity)
    table = OrbitTable(orbits, multiplicity)
    rows = list(buildings._rows(table, profile, bounds))
    every = list(enumerate_components(orbits, profile, bounds))
    assert [row_of(table, c) for c in every] == rows
    kept = every[::thin]
    injected = rows[::thin]
    read = inject_rows(monkeypatch, injected)
    enumerator = _Enumerator(orbits, profile, bounds, None)
    # The search reads the rows once for their least index, and again at the
    # cap that gives if it differs: the tables come from the last read.
    assert read["_rows"] in (injected, injected + injected)
    assert read["_tally"] == []
    assert set(enumerator.components) <= set(kept)
    by_pos = {}
    for c in kept:
        by_pos.setdefault(c.positive_end, []).append(c)

    @lru_cache(maxsize=None)
    def least(r, end):
        closed, one_open = math.inf, 0
        for c in by_pos.get(end, ()) if r else ():
            acc = (c.index, math.inf)
            for e in c.negative_ends:
                z, o = least(r - 1, e)
                acc = (acc[0] + z, min(acc[0] + o, acc[1] + z))
            closed, one_open = min(closed, acc[0]), min(one_open, acc[1])
        return closed, min(closed, one_open)

    # The search reads the tables at r < max_levels levels to go, and only
    # those are built.
    assert len(enumerator._closed) == len(enumerator._open) == bounds.max_levels
    for r in range(bounds.max_levels):
        for i, end in enumerate(OrbitTable(orbits, multiplicity).refs):
            closed = enumerator._closed[r][i]
            got = (math.inf if closed == buildings.INF else closed, enumerator._open[r][i])
            assert got == least(r, end), (r, end.key)
            assert enumerator._open[r][i] <= closed, (r, end.key)


# ---------------------------------------------------------------- buildings


def test_building_validation_matched_ends():
    pants = branched_cover(ELL, (1, 1))
    plane = si(ref(ELL, 1), ())
    tcyl = trivial_cylinder(ELL, 1)
    good = BuildingSkeleton(
        BuildingNode(pants, [BuildingNode(tcyl), BuildingNode(plane)])
    )
    assert good.total_index == 2
    assert len(good.negative_ends) == 1
    # Subtrees at equal ends are ordered by their keys: "btc[..." < "si[...".
    assert good.levels == ((pants,), (tcyl, plane))
    lopsided = branched_cover(ELL, (1, 2))
    # Matched ends must reference equal orbits: e^2 cannot meet a plane at
    # e^1.  The node itself raises, before any building is made of it.
    with pytest.raises(SkeletonError, match="^a subtree's positive end must be the end"):
        BuildingNode(lopsided, [BuildingNode(tcyl), BuildingNode(plane)])


def test_building_rejects_wrong_number_of_subtrees():
    pants = branched_cover(ELL, (1, 1))
    with pytest.raises(SkeletonError, match="^a node needs one subtree per negative end"):
        BuildingNode(pants, [BuildingNode(si(ref(ELL, 1), ()))])


def test_building_rejects_branch_stopping_above_bottom_level():
    # The first end of the pants carries a two-level branch, the second
    # none: its end would sit above the bottom level with nothing below it.
    pants = branched_cover(ELL, (1, 1))
    e1, p1 = ref(ELL, 1), ref(POSH, 1)
    branch = BuildingNode(si(e1, (p1,)), [BuildingNode(si(p1, ()))])
    with pytest.raises(SkeletonError):
        BuildingSkeleton(BuildingNode(pants, [branch, BuildingNode(trivial_cylinder(ELL, 1))]))
    # With a subtree at every end above the bottom level it is a building.
    b = BuildingSkeleton(
        BuildingNode(
            pants,
            [branch, BuildingNode(trivial_cylinder(ELL, 1), [BuildingNode(si(e1, ()))])],
        )
    )
    assert len(b.levels) == 3


def test_building_rejects_all_trivial_level():
    tcyl = trivial_cylinder(ELL, 1)
    with pytest.raises(SkeletonError):
        BuildingSkeleton(BuildingNode(tcyl, [BuildingNode(tcyl)]))


def test_building_key_is_independent_of_subtree_order():
    pants = branched_cover(ELL, (1, 1))
    plane = si(ref(ELL, 1), ())
    tcyl = trivial_cylinder(ELL, 1)
    a = BuildingSkeleton(BuildingNode(pants, [BuildingNode(tcyl), BuildingNode(plane)]))
    b = BuildingSkeleton(BuildingNode(pants, [BuildingNode(plane), BuildingNode(tcyl)]))
    assert a.key == b.key == building_key(a)
    assert a == b


def test_building_key_is_independent_of_stored_end_order():
    # One building, an index-one curve e^2 => h^1, p^1 with a plane at p^1
    # and a trivial cylinder at h^1, built with its ends stored in either
    # order.  The enumerator stores them in table-id order, so on
    # convex_small (orbits e, p, h) it stores p^1 first; the key writes each
    # subtree in its end's place in the component key, which lists h^1 first.
    plane, tcyl = si(ref(POSH, 1), ()), trivial_cylinder(NEGH, 1)
    hp = si(ref(ELL, 2), [ref(NEGH, 1), ref(POSH, 1)])
    ph = si(ref(ELL, 2), [ref(POSH, 1), ref(NEGH, 1)])
    a = BuildingSkeleton(BuildingNode(hp, [BuildingNode(tcyl), BuildingNode(plane)]))
    b = BuildingSkeleton(BuildingNode(ph, [BuildingNode(plane), BuildingNode(tcyl)]))
    assert hp.key == ph.key
    assert a.key == b.key
    assert a.key.endswith("=>h^1,p^1(btc[d=1,b=0]h^1=>h^1(!),si[g=0]p^1=>())")
    assert a == b and hash(a) == hash(b)
    # Each subtree stays under its own end.
    for building in (a, b):
        node = building.root
        assert [c.component.positive_end for c in node.children] == list(
            node.component.negative_ends
        )


def test_node_orders_subtrees_of_equal_ends_by_key():
    # Swapped subtrees at the two e^1 ends of a pair of pants give one node:
    # "btc[..." sorts before "si[...", whichever was passed first.
    pants = branched_cover(ELL, (1, 1))
    tcyl, plane = BuildingNode(trivial_cylinder(ELL, 1)), BuildingNode(si(ref(ELL, 1), ()))
    a, b = BuildingNode(pants, [tcyl, plane]), BuildingNode(pants, [plane, tcyl])
    assert a.children == b.children == (tcyl, plane)
    assert a.key == b.key == pants.key + "(" + tcyl.key + "," + plane.key + ")"
    assert tcyl.key == trivial_cylinder(ELL, 1).key + "(!)"
    assert plane.key == plane.component.key + "()"


def test_building_keeps_the_root_it_is_given():
    pants = branched_cover(ELL, (1, 1))
    tcyl, plane = trivial_cylinder(ELL, 1), si(ref(ELL, 1), ())
    for children in ([tcyl, plane], [plane, tcyl]):
        node = BuildingNode(pants, [BuildingNode(c) for c in children])
        b = BuildingSkeleton(node)
        assert b.root is node
        assert b.key == node.key


def test_search_builds_one_building_per_new_key(monkeypatch):
    # convex_small at levels 4, multiplicity 7, index 4: the search emits
    # 921 assignments of 861 buildings.  An assignment that only reorders
    # subtrees at equal ends reads the same nodes from the search's table,
    # so its root is a node already built, and a BuildingSkeleton is built
    # only for a key not seen before.
    built, emits = [], []

    class Counting(BuildingSkeleton):
        def __post_init__(self):
            built.append(self.root.key)
            super().__post_init__()

    emit = buildings._Enumerator._emit

    def counting_emit(self, stack):
        emits.append(len(stack))
        emit(self, stack)

    monkeypatch.setattr(buildings, "BuildingSkeleton", Counting)
    monkeypatch.setattr(buildings._Enumerator, "_emit", counting_emit)
    bounds = EnumerationBounds(max_levels=4, max_total_multiplicity=7, max_index=4)
    found = enumerate_buildings([ELL, POSH, NEGH], CONVEX, bounds)
    assert (len(emits), len(built), len(found)) == (921, 861, 861)
    assert sorted(built) == [b.key for b in found]


SEARCH_INPUT = ([ELL, POSH, NEGH], EnumerationBounds(max_levels=4, max_total_multiplicity=7,
                                                      max_index=4))


def _subtrees(node):
    yield node
    for child in node.children:
        yield from _subtrees(child)


def test_buildings_of_one_search_share_each_subtree(monkeypatch):
    # One node per distinct subtree, counted by wrapping the constructor:
    # 979 on the search benchmark's input, which 861 buildings hold 2,762
    # times.  Two buildings that hold equal subtrees hold one object.
    built = []
    init = BuildingNode.__post_init__

    def counting_init(self):
        built.append(self)
        init(self)

    monkeypatch.setattr(BuildingNode, "__post_init__", counting_init)
    orbits, bounds = SEARCH_INPUT
    found = enumerate_buildings(orbits, CONVEX, bounds)
    held = [node for b in found for node in _subtrees(b.root)]
    first = {}
    for node in held:
        assert first.setdefault(node.key, node) is node
    assert (len(built), len(first), len(held), len(found)) == (979, 979, 2762, 861)
    assert {id(node) for node in built} == {id(node) for node in held}


def test_searches_on_other_scenarios_share_no_node():
    # Each search has its own table: component numbers of one scenario name
    # other components in another, and the same scenario searched again
    # gives the same buildings.
    orbits, bounds = SEARCH_INPUT
    keys = [b.key for b in enumerate_buildings(orbits, CONVEX, bounds)]
    other = [RotationData("e", F(6, 5), 4, contractible=True), RotationData("h", F(1, 2), 4)]
    small = EnumerationBounds(max_levels=3, max_total_multiplicity=4, max_index=3,
                              max_components_per_level=3)
    got = {b.key: b.total_index for b in enumerate_buildings(other, CONVEX, small)}
    assert got == brute_force_keys(other, CONVEX, small)
    assert [b.key for b in enumerate_buildings(orbits, CONVEX, bounds)] == keys
    assert len(keys) == 861


def test_found_buildings_copy_and_pickle_with_their_keys_and_levels():
    orbits, bounds = SEARCH_INPUT
    found = enumerate_buildings(orbits, CONVEX, bounds)
    for twin in (pickle.loads(pickle.dumps(found)), copy.deepcopy(found)):
        assert [b.key for b in twin] == [b.key for b in found]
        assert [b.levels for b in twin] == [b.levels for b in found]
        assert [b.total_index for b in twin] == [b.total_index for b in found]
    assert all(b.total_index == sum(c.index for l in b.levels for c in l) for b in found)


def test_missing_subtree_is_reported_before_an_all_trivial_level():
    # An e^2 trivial cylinder (an all-trivial level) over a pair of pants
    # whose second end stops above the bottom level.
    pants, e1, p1 = branched_cover(ELL, (1, 1)), ref(ELL, 1), ref(POSH, 1)
    branch = BuildingNode(si(e1, (p1,)), [BuildingNode(si(p1, ()))])
    node = BuildingNode(pants, [branch, BuildingNode(trivial_cylinder(ELL, 1))])
    with pytest.raises(SkeletonError, match="^an end above the bottom level needs a subtree$"):
        BuildingSkeleton(BuildingNode(trivial_cylinder(ELL, 2), [node]))
    with pytest.raises(SkeletonError, match="^an end above the bottom level needs a subtree$"):
        BuildingSkeleton(node)


@pytest.mark.parametrize("depth", [0, 1])
def test_an_all_trivial_level_above_the_bottom_is_rejected(depth):
    # A trivial cylinder at e^1 on level `depth`, above a plane: neither
    # level is the bottom's alone to check.
    e1 = ref(ELL, 1)
    node = BuildingNode(trivial_cylinder(ELL, 1), [BuildingNode(si(e1, ()))])
    if depth:
        node = BuildingNode(si(ref(ELL, 2), (e1,)), [node])
    with pytest.raises(SkeletonError, match="^every level of a multi-level building needs a"
                                            " nontrivial component$"):
        BuildingSkeleton(node)


def test_one_level_trivial_cylinder_is_a_building():
    tcyl = trivial_cylinder(ELL, 1)
    b = BuildingSkeleton(BuildingNode(tcyl))
    assert b.levels == ((tcyl,),) and b.is_trivial
    assert b.total_index == sum(c.index for l in b.levels for c in l) == 0


def test_classification_of_split_plane_building():
    pants = branched_cover(ELL, (1, 1))
    plane = si(ref(ELL, 1), ())
    tcyl = trivial_cylinder(ELL, 1)
    b = BuildingSkeleton(BuildingNode(pants, [BuildingNode(tcyl), BuildingNode(plane)]))
    assert classify_building(b) == ("index-two:split-off-plane", True)


def _chain(*components):
    """The building with one component per level, each below the last."""
    node = BuildingNode(components[-1])
    for c in reversed(components[:-1]):
        node = BuildingNode(c, [node])
    return BuildingSkeleton(node)


def _failing_buildings():
    """(building, classification) for each failing outcome; gradings
    cz - 1 are e^m: 2m, p^1: 3, h^m: m - 1, z^m: -1."""
    e1, e2, e3, p1, h1, h2, z1 = (
        ref(ELL, 1), ref(ELL, 2), ref(ELL, 3), ref(POSH, 1), ref(NEGH, 1), ref(NEGH, 2),
        ref(FLAT, 1),
    )
    # A BTC of index 1 over a trivial cylinder and a plane of index 1.
    btc = BuildingNode(branched_cover(NEGH, (1, 2)), [
        BuildingNode(trivial_cylinder(NEGH, 1)), BuildingNode(si(h2, ())),
    ])
    # An SI root over a trivial cylinder and a plane.
    si_root = BuildingNode(si(e2, (e1, p1)), [
        BuildingNode(trivial_cylinder(ELL, 1)), BuildingNode(si(p1, ())),
    ])
    return [
        (_chain(si(z1, ())), "no-negative-ends:index-below-two"),
        (_chain(si(e1, (z1,)), si(z1, ())), "index-two-plane"),
        (_chain(si(h1, (e1,))), "one-negative-end:index-below-one"),
        (_chain(si(e2, (e1,)), si(e1, (p1,))), "index-one-cylinder"),
        (_chain(si(e3, (p1,)), si(p1, (e1,)), si(e1, (e2,))), "index-two:unclassified"),
        (BuildingSkeleton(btc), "index-two:unclassified"),
        (BuildingSkeleton(si_root), "index-two:unclassified"),
    ]


def test_classification_failing_outcomes_are_counterexamples():
    cases = _failing_buildings()
    for b, tag in cases:
        assert classify_building(b) == (tag, False), b.key
    report = classify_buildings([b for b, _ in cases])
    assert not report.ok
    counterexamples = [l for l in report.lines() if l.startswith("counterexample: ")]
    assert counterexamples == [f"counterexample: index={b.total_index} {b.key}" for b, _ in cases]
    assert f"counterexamples: {len(cases)}" in report.lines()


def test_split_plane_shape_rejects_each_other_shape():
    # One return False each: 1 or 3 levels, one bottom component, an SI
    # root, a BTC root of index 1.
    _, _, _, two_level_chain, three_levels, btc, si_root = [b for b, _ in _failing_buildings()]
    for b in (_chain(trivial_cylinder(ELL, 1)), three_levels, two_level_chain, si_root, btc):
        assert not _is_split_plane_shape(b), b.key


# ---------------------------------------------------------------- propositions


def test_verify_propositions_clean_scenario():
    orbits = [ELL, POSH, RotationData("h", F(1, 2), 30)]
    report = verify_propositions(orbits, CONVEX, EnumerationBounds())
    assert report.entries
    assert report.ok, [e.building.key for e in report.counterexamples]
    tags = report.tally()
    assert tags.get("index-two:split-off-plane", 0) >= 1


def test_verify_propositions_empty_orbit_set():
    report = verify_propositions([], CONVEX, EnumerationBounds())
    assert report.entries == []
    assert report.ok


def test_verify_propositions_requires_flags():
    with pytest.raises(PreconditionError):
        verify_propositions([ELL], GENERIC, EnumerationBounds())
