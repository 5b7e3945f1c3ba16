"""Combinatorial skeletons of genus-zero holomorphic buildings.

A component is a genus-zero curve with one positive end, the only curves a
cylinder breaks into: a branched cover of a trivial cylinder, a cover of a
nontrivial somewhere-injective curve, or a somewhere-injective curve
itself.  A building is the tree of its components, each hanging from a
negative end of the one above it; each node's constructor orders its
subtrees canonically.  A search builds one node per distinct subtree, shared
by every building that holds it, and a building only for a new key.
The enumerator generates every skeleton within configured bounds, subject
to the combinatorial surrogates of a generic almost complex structure
(nontrivial somewhere-injective curves have index at least one) and of
dynamical convexity (contractible orbits have Conley-Zehnder index at
least three, and only contractible orbits bound planes).

Each object carries its indices: an OrbitRef its Conley-Zehnder index, and
a ComponentSkeleton its Fredholm index and that of its underlying curve; its
kinds are BTC, COV and SI.  Its constructor, the only one, computes both
with curve_index and runs every check.

The component inventory is rows of ids into one OrbitTable (_rows), which
holds each cover's grading cz - 1.  A genus-zero curve with one positive end
has index grading(+) less the grading sum of its negative ends, so each
row's index is computed once and the generic-J and cap filters compare it
with 1 and the cap.  A row becomes an object only where one is needed:
enumerate_components builds one per row, guarded by an independent oracle
(test_components_match_oracle) and by test_enumerated_components_are_their_rows,
as each object recomputes the indices its row carries; the building search
builds one per row it keeps, the estimate sweep, which counts SI rows by
shape with a knapsack (_shapes) and COV rows by shape with a convolution over
base orbits (_cover_counts), one per failing row.  In the search the
ends of a component are a tuple of ids and the bound tables are lists indexed
by id; the least index that can still hang below each component at each
number of levels to go is computed once, before the search.  An unreachable
bound is the integer sentinel INF, so the arithmetic here is exact integer
arithmetic throughout.

The search builds only components that fit in some building.  A building
has at most K = max_levels * max_components_per_level components, each of
index at least L, the least index of the inventory's rows, so a component of
index above the cap max_index - (K - 1) * min(0, L) fits in none; it is
never built, and the search emits the same buildings without it.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import lru_cache
from itertools import chain
from typing import Iterator

from .covers import _cover_counts, _cover_shapes
from .errors import (
    DynamicalConvexityError,
    EnumerationLimitError,
    PreconditionError,
    SkeletonError,
)
from .orbits import OrbitRef, OrbitTable, OrbitType, curve_index, orbit_type

# Marks "no subtree fits"; larger than any index a bounded search reaches.
INF = 1 << 62


class ComponentKind(Enum):
    BRANCHED_COVER_OF_TRIVIAL_CYLINDER = "branched-cover-of-trivial-cylinder"
    COVER_OF_NONTRIVIAL_CURVE = "cover-of-nontrivial-curve"
    SOMEWHERE_INJECTIVE = "somewhere-injective"


BTC = ComponentKind.BRANCHED_COVER_OF_TRIVIAL_CYLINDER
COV = ComponentKind.COVER_OF_NONTRIVIAL_CURVE
SI = ComponentKind.SOMEWHERE_INJECTIVE


def _grouping_exists(cover_ends, under_ends, degree) -> bool:
    """Can the cover ends be split among the underlying ends, each group
    covering its end with total degree `degree`?"""
    remaining = [degree] * len(under_ends)

    def assign(i):
        if i == len(cover_ends):
            return all(r == 0 for r in remaining)
        end = cover_ends[i]
        seen = set()
        for j, under in enumerate(under_ends):
            if under.base != end.base or end.multiplicity % under.multiplicity:
                continue
            t = end.multiplicity // under.multiplicity
            state = (under.base.name, under.multiplicity, remaining[j])
            if t > remaining[j] or state in seen:
                continue
            seen.add(state)
            remaining[j] -= t
            if assign(i + 1):
                remaining[j] += t
                return True
            remaining[j] += t
        return False

    return assign(0)


@dataclass(frozen=True, slots=True)
class ComponentSkeleton:
    """One curve in a building: cover data plus the ends of cover and base.

    Cover and base have genus zero and one positive end each.  index is the
    Fredholm index of the covering curve and underlying_index that of the
    underlying somewhere-injective curve; key is its canonical serialization.
    The constructor, the only way to build one, raises SkeletonError on an
    invalid shape and sets all three once, from the ends.

    A trivial cylinder has one representation, a BTC with b = 0.  A curve
    whose ends total the same multiplicity of each orbit on both sides has
    zero d(lambda)-energy; the constructor rejects one case of it, one
    negative end equal to the positive end, as an SI curve and a COV over one.
    """

    kind: ComponentKind
    cover_degree: int
    branch_count: int
    positive_end: OrbitRef
    negative_ends: tuple
    underlying_positive_end: OrbitRef
    underlying_negative_ends: tuple
    index: int = field(init=False, repr=False, compare=False)
    underlying_index: int = field(init=False, repr=False, compare=False)
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("negative_ends", "underlying_negative_ends"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        self._check()
        index = curve_index(0, (self.positive_end,), self.negative_ends)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "underlying_index", index if self.kind is SI else curve_index(
            0, (self.underlying_positive_end,), self.underlying_negative_ends))
        pos = self.positive_end.key
        neg = ",".join(r.key for r in sorted(self.negative_ends, key=_end_order))
        head = f"d={self.cover_degree},b={self.branch_count}"
        if self.kind is BTC:
            key = f"btc[{head}]{pos}=>{neg}"
        elif self.kind is SI:
            key = f"si[g=0]{pos}=>{neg}"
        else:
            uneg = ",".join(r.key for r in sorted(self.underlying_negative_ends, key=_end_order))
            key = f"cov[{head};{self.underlying_positive_end.key}=>{uneg}]{pos}=>{neg}"
        object.__setattr__(self, "key", key)

    def _check(self):
        d, b = self.cover_degree, self.branch_count
        pos, neg = self.positive_end, self.negative_ends
        up, un = self.underlying_positive_end, self.underlying_negative_ends
        if d < 1 or b < 0:
            raise SkeletonError("cover degree or branch count out of range")
        if self.kind is SI:
            if d != 1 or b != 0:
                raise SkeletonError("somewhere-injective components have d=1, b=0")
            if (up, un) != (pos, neg):
                raise SkeletonError("somewhere-injective ends must equal underlying ends")
            if neg == (pos,):
                raise SkeletonError("trivial cylinders must use the dedicated kind")
            return
        chi = 1 - len(neg)
        if self.kind is BTC:
            if un != (up,) or up.multiplicity != 1:
                raise SkeletonError(
                    "the underlying trivial cylinder must sit over one embedded orbit"
                )
            if any(r.base != up.base for r in (pos, *neg)):
                raise SkeletonError("all ends must cover the cylinder's orbit")
            if pos.multiplicity != d:
                raise SkeletonError("the positive end's multiplicity must equal the degree")
            if sum(r.multiplicity for r in neg) != d:
                raise SkeletonError("negative end multiplicities must partition the degree")
            if chi != -b:
                raise SkeletonError("branch count violates Riemann-Hurwitz")
            return
        # Cover of a nontrivial somewhere-injective curve.
        if d < 2:
            raise SkeletonError("covers of nontrivial curves need degree >= 2")
        if un == (up,):
            raise SkeletonError("covers of trivial cylinders must use the dedicated kind")
        if chi != d * (1 - len(un)) - b:
            raise SkeletonError("branch count violates Riemann-Hurwitz")
        if pos.base != up.base or pos.multiplicity != d * up.multiplicity:
            raise SkeletonError("the positive end does not cover the underlying positive end")
        if not _grouping_exists(neg, un, d):
            raise SkeletonError("negative ends do not cover the underlying negative ends")

    @property
    def is_trivial_cylinder(self) -> bool:
        # Riemann-Hurwitz gives an unbranched BTC one end on each side.
        return self.kind is BTC and self.branch_count == 0


# ------------------------------------------------------------------ checks
# Each estimate reads integers of one component, so of a genus-zero curve
# with one positive end: d and b its cover degree and branch count, n and k
# the numbers of negative ends of the cover and of its underlying curve.


def check_trivial_cover_nonnegative(kind, index) -> bool:
    """Index of a branched cover of a trivial cylinder is never negative."""
    if kind is not BTC:
        raise PreconditionError("component is not a cover of a trivial cylinder")
    return index >= 0


def check_cover_index_bound(d, b, index, underlying_index) -> bool:
    """ind(cover) >= d * ind(underlying) + 2(1 - d + b)."""
    return index >= d * underlying_index + 2 * (1 - d + b)


def check_nontrivial_cover_bounds(generic_J, kind, n, k, index, underlying_index) -> bool:
    """Two generic-profile estimates on components off covers of trivial
    cylinders, to which neither applies.

    Over an underlying cylinder (k = 1 negative end, nontrivial, as the kind
    is not BTC) the index is at least the number n of negative ends; with
    n > 1 it is at least 5 - 2n.
    """
    if not generic_J:
        raise PreconditionError("the estimates assume a generic profile")
    if kind is BTC:
        return True
    if underlying_index < 1:
        raise PreconditionError("underlying curve violates the generic index bound")
    if k == 1 and index < n:
        return False
    return n < 2 or index >= 5 - 2 * n


def check_cylinder_cover_index(generic_J, kind, n, d, index, underlying_index,
                               hyperbolic) -> bool:
    """For nontrivial cylinders: 1 <= ind(underlying) <= ind(cover).

    hyperbolic: both underlying ends are hyperbolic.  Then the index is
    exactly multiplicative, ind(cover) = d * ind(underlying), so an index-one
    cylinder, with good ends or bad, cannot be multiply covered.  (With an
    elliptic underlying end and a bad end lying over an even cover of a
    negative hyperbolic orbit, multiply covered index-one cylinders do
    occur, so no constraint is asserted there.)
    """
    if not generic_J:
        raise PreconditionError("the estimate assumes a generic profile")
    if n != 1:
        raise PreconditionError("component is not a cylinder")
    if kind is BTC:
        raise PreconditionError("component is a cover of a trivial cylinder")
    return 1 <= underlying_index <= index and (not hyperbolic or index == d * underlying_index)


def check_multi_end_cover_combination(kind, d, b, n, k, index) -> bool:
    """ind + 2n >= d(2k-3) + 4(b+1) for covers whose underlying curve has
    k > 1 negative ends."""
    if kind is not COV:
        raise PreconditionError("needs a cover of a nontrivial curve")
    if k <= 1:
        raise PreconditionError("needs more than one underlying negative end")
    return index + 2 * n >= d * (2 * k - 3) + 4 * (b + 1)


# ------------------------------------------------------------------ profiles


@dataclass(frozen=True)
class GenericityProfile:
    generic_J: bool = True
    dynamically_convex: bool = False
    condition_star: bool = False


@dataclass(frozen=True)
class EnumerationBounds:
    max_levels: int = 4
    max_total_multiplicity: int = 6
    max_index: int = 3
    max_components_per_level: int = 4
    max_negative_ends: int = 1
    max_buildings: int = 200_000

    def __post_init__(self):
        if min(
            self.max_levels,
            self.max_total_multiplicity,
            self.max_components_per_level,
            self.max_buildings,
        ) < 1 or self.max_negative_ends < 0:
            raise PreconditionError("enumeration bounds must be positive")


# ------------------------------------------------------- component inventory


@lru_cache(maxsize=None)
def _partitions(n: int):
    """Partitions of n as tuples with nonincreasing parts."""
    out = []

    def rec(rest, cap, acc):
        if rest == 0:
            out.append(tuple(acc))
            return
        for part in range(min(rest, cap), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(n, n, [])
    return tuple(out)


def _neg_multisets(ids, budget, table):
    """Every multiset of the covers `ids` with total multiplicity <= budget,
    in list order: (their ids, their grading sum)."""
    out = []

    def rec(start, left, acc, total):
        out.append((tuple(acc), total))
        for j in range(start, len(ids)):
            i = ids[j]
            m = table.refs[i].multiplicity
            if m <= left:
                acc.append(i)
                rec(j, left - m, acc, total + table.grading[i])
                acc.pop()

    rec(0, budget, [], 0)
    return out


def _shapes(table, budget):
    """{(n, t): (count, least)}: how many multisets of covers of total
    multiplicity <= budget have n ends of grading sum t, and their least id
    tuple; the coefficients of prod_i 1/(1 - x^m_i y z^g_i), by an unbounded
    knapsack from the last id to the first, listing none.  Id i comes before
    the ids it is added to, so (i,) + least is the new state's least tuple."""
    level = [{} for _ in range(budget + 1)]  # level[u]: multisets of multiplicity u
    level[0][0, 0] = 1, ()
    for i in reversed(range(len(table.refs))):
        m, g = table.refs[i].multiplicity, table.grading[i]
        for u in range(m, budget + 1):
            into = level[u]
            for (n, t), (count, least) in level[u - m].items():
                old = into.get((n + 1, t + g), (0,))
                into[n + 1, t + g] = count + old[0], (i,) + least
    shapes = {}
    for (n, t), (count, least) in chain.from_iterable(s.items() for s in level):
        old = shapes.get((n, t), (0, least))
        shapes[n, t] = count + old[0], min(least, old[1])
    return shapes


def _end_order(ref):
    return ref.base.name, ref.multiplicity


def _rows(table, profile, bounds, cap=INF, multisets=None):
    """The component inventory as rows of table ids, (kind, d, b, p, neg, u,
    uneg, index, underlying index): refs[p] => refs[neg] over refs[u] =>
    refs[uneg].  neg, the order in which the component stores its ends, and
    uneg are sorted by id.

    Components have genus zero and one positive end; negative-end
    multiplicities total at most the multiplicity bound.  Under a generic
    profile, nontrivial somewhere-injective curves must have index >= 1.
    Planes are only admitted over contractible orbits.  No candidate above
    cap is yielded, but every unbranched trivial cylinder is.
    """
    refs, g, top = table.refs, table.grading, bounds.max_total_multiplicity
    for ref in refs if profile.dynamically_convex else ():
        if ref.multiplicity == 1 and ref.base.contractible and ref.cz < 3:
            raise DynamicalConvexityError(f"orbit {ref.base.name!r} is contractible with cz < 3;"
                                          " the scenario is not dynamically convex")
    least = 1 if profile.generic_J else -INF  # the least index of a nontrivial SI curve

    # Trivial cylinders and branched covers of trivial cylinders.  Ids run by
    # multiplicity within an orbit: refs[i - m + p] is the p-fold cover of
    # the orbit of refs[i], m its multiplicity.
    for i, ref in enumerate(refs):
        d = ref.multiplicity
        u = i - d + 1
        yield BTC, d, 0, i, (i,), u, (u,), 0, 0
        for parts in _partitions(d)[1:]:  # all but (d,), the trivial cylinder
            ends = tuple(u - 1 + p for p in reversed(parts))
            ind = g[i] - sum(g[e] for e in ends)
            if ind <= cap:
                yield BTC, d, len(parts) - 1, i, ends, u, (u,), ind, 0

    # Somewhere-injective curves.
    if multisets is None:  # (ids, grading sum) pairs; _tally passes one per shape
        multisets = _neg_multisets(range(len(refs)), top, table)
    for p, pos in enumerate(refs):
        for ids, total in multisets:
            ind = g[p] - total
            # Not the trivial cylinder, yielded above, nor a plane bounding no disk.
            if least <= ind <= cap and ids != (p,) and (ids or pos.base.contractible):
                yield SI, 1, 0, p, ids, p, ids, ind, ind

    # Covers of nontrivial somewhere-injective curves.
    for d, u, p, ids, ways, under in _cover_bases(table, least, top):
        for key, b, ind in _cover_shapes(table, p, ids, d, ways):
            if ind <= cap:
                yield COV, d, b, p, key, u, ids, ind, under


def _component(refs, kind, d, b, p, neg, u, uneg, *indices):
    """The ComponentSkeleton of a row of _rows; its constructor recomputes the indices."""
    return ComponentSkeleton(kind, d, b, refs[p], [refs[i] for i in neg], refs[u],
                             [refs[i] for i in uneg])


def enumerate_components(orbits, profile, bounds) -> Iterator[ComponentSkeleton]:
    """Yield every admissible component skeleton within the bounds: one per
    row of _rows, in its order, built by the public constructor, each end a
    cover from the enumeration's OrbitTable.  Nothing in the library iterates
    it: the estimate sweep and the building search read the rows and build
    objects only for the rows that fail an estimate or that the search keeps."""
    table = OrbitTable(orbits, bounds.max_total_multiplicity)
    for row in _rows(table, profile, bounds):
        yield _component(table.refs, *row)


def _cover_bases(table, least, top):
    """(d, u, p, ids, ways, index) for the underlying curve refs[u] =>
    refs[ids] of each run of degree-d covers _rows yields, its index at
    least `least`; refs[p] is the d-fold cover of refs[u], the covers'
    positive end, and ways is _cover_ways."""
    refs, g = table.refs, table.grading
    cap = {r.base.name: r.multiplicity for r in refs}  # ids ascend by multiplicity
    for d in range(2, top + 1):
        ways = _cover_ways(refs, cap, d)
        small = _neg_multisets(
            [i for i, r in enumerate(refs) if r.multiplicity * d <= top], top // d, table
        )
        for u, upos in enumerate(refs):
            if upos.multiplicity * d > cap[upos.base.name]:
                continue
            for ids, total in small:
                ind = g[u] - total
                # Neither the trivial cylinder nor a plane bounding no disk.
                if ind >= least and ids != (u,) and (ids or upos.base.contractible):
                    yield d, u, u + (d - 1) * upos.multiplicity, ids, ways, ind


def _cover_ways(refs, cap, d):
    """ways[i]: each way a degree-d cover can cover refs[i] within the caps,
    as the table ids of its ends, one tuple per partition of d."""
    ways = []
    for i, ref in enumerate(refs):
        m, limit = ref.multiplicity, cap[ref.base.name]
        # parts[0] is the largest part; refs[i - m + t*m] is a t-fold cover.
        parts_ok = [parts for parts in _partitions(d) if parts[0] * m <= limit]
        ways.append([tuple(i - m + t * m for t in parts) for parts in parts_ok])
    return ways


# ------------------------------------------------------------------ buildings


@dataclass(frozen=True)
class BuildingNode:
    """A component of a building and the subtrees at its negative ends.

    children holds one subtree per negative end; a node on the bottom level
    has none.  The constructor orders them canonically: by end, subtrees of
    equal ends by key, each end's subtrees, in that order, filling its own
    slots in stored end order.  key, written from the children's keys, is
    then equal exactly for isomorphic subtrees.  A search builds one node per
    distinct subtree, which serves every building that holds it (_Enumerator).
    """

    component: ComponentSkeleton
    children: tuple = ()
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comp, children = self.component, tuple(self.children)
        ends = comp.negative_ends
        texts = ["!"] * len(ends)
        if children:
            if len(children) != len(ends):
                raise SkeletonError("a node needs one subtree per negative end, or none")
            if any(c.component.positive_end != e for e, c in zip(ends, children)):
                raise SkeletonError("a subtree's positive end must be the end it hangs from")
            if len(ends) == 1:  # nothing to order
                texts = [children[0].key]
            else:
                end_key = [_end_order(r) for r in ends]
                order = sorted(range(len(ends)), key=lambda i: (end_key[i], children[i].key))
                slots = dict(zip(sorted(range(len(ends)), key=end_key.__getitem__), order))
                texts = [children[i].key for i in order]
                children = tuple(children[slots[j]] for j in range(len(ends)))
        object.__setattr__(self, "children", children)
        object.__setattr__(self, "key", comp.key + "(" + ",".join(texts) + ")")


@dataclass(frozen=True)
class BuildingSkeleton:
    """A genus-zero building with one positive end, as its tree of components.

    The root is the top level's one component.  Genus zero and
    connectedness make the component graph a tree, so the tree is the whole
    building: level i holds the components at depth i.  Every node orders
    its own subtrees canonically, so key, the root's key, is equal exactly
    for isomorphic buildings, and equality and hash read key alone.
    """

    root: BuildingNode = field(compare=False)
    levels: tuple = field(init=False, repr=False, compare=False)
    key: str = field(init=False)
    total_index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # A missing subtree raises at once, an all-trivial level after all levels.
        nodes, levels, total, flat = [self.root], [], 0, False
        while nodes:
            level, below, gap, trivial = [], [], False, True
            for node in nodes:
                c = node.component
                level.append(c)
                total += c.index
                trivial = trivial and c.is_trivial_cylinder
                if node.children:
                    below += node.children
                elif c.negative_ends:
                    gap = True
            if gap and below:
                raise SkeletonError("an end above the bottom level needs a subtree")
            levels.append(tuple(level))
            flat, nodes = flat or trivial, below
        if flat and len(levels) > 1:
            raise SkeletonError(
                "every level of a multi-level building needs a nontrivial component"
            )
        object.__setattr__(self, "levels", tuple(levels))
        object.__setattr__(self, "key", self.root.key)
        object.__setattr__(self, "total_index", total)

    @property
    def positive_end(self):
        return self.root.component.positive_end

    @property
    def negative_ends(self):
        return tuple(e for c in self.levels[-1] for e in c.negative_ends)

    @property
    def is_trivial(self) -> bool:
        return len(self.levels) == 1 and self.root.component.is_trivial_cylinder


def building_key(building: BuildingSkeleton) -> str:
    """Canonical serialization, equal exactly for isomorphic buildings; kept
    only because the benchmark's tracer, perfbench/tracing.py, times it by name."""
    return building.key


class _Enumerator:
    """Depth-first search over buildings, one level of components at a time.

    Orbit covers are ids into the scenario's OrbitTable, as in the rows of
    the inventory the search reads, and components are numbers into
    parallel lists, so it indexes lists instead of hashing covers.  Two
    tables bound what can still hang below an end with r levels to go:
    closed[r][e] is the least index of a subtree at e with no negative end
    (INF when there is none), open[r][e] that of one with at most one, e
    itself left open included, so open[r][e] <= min(0, closed[r][e]).

    The tables come from the inventory capped as in the module docstring,
    so they bound every subtree of the capped components that emitted
    buildings are made of.  L is read off the rows: listed at the cap
    max(max_index, 0), they hold every row of negative index, so their least
    index, or 0, is min(0, L) exactly under any profile, and they are listed
    again only if the cap differs (L < 0 or max_index < 0).  The tables never
    increase with r (each row starts from the last), and no component has
    more than max_levels - 1 levels below it, so a row whose index plus the
    completion of its ends at max_levels - 1 exceeds the cap is dropped
    before any object, key or group is made.
    Only branches that emit nothing go: the buildings and their order stay
    those of the whole inventory.

    A component's budget on a level also counts rest, the open entries of
    the frontier ends after it, and pending, the negative part of the
    completions of the components before it: both are zero, and change
    nothing, unless some index is negative.

    _emit builds one node per distinct subtree (hash-consing): a table that
    lives for one search keys a leaf on its component number, an inner node
    on that and its children's sorted id()s.  Nodes are frozen, a node
    depends only on its component and the multiset of its children, each at
    the end equal to its positive end, and each child is the table's one
    node for its subtree; the table holds every node it keys, so those id()s
    stay valid while it lives.  The search builds 979 nodes on the input below.

    The search has no symmetry rule: it emits every assignment of components
    to the frontier ends, and _emit builds a BuildingSkeleton only for a key
    it has not seen.  That is exact, as every building is some assignment
    and the key is equal exactly for isomorphic buildings.  It costs the
    assignments that differ only in the order of subtrees at equal ends: 921
    emits for 861 buildings on the search benchmark's seed-1 input.  Ordering
    equal ends across the whole frontier emitted 849 for 849 there, and
    missed 12: swapping subtrees of equal ends of different components gives
    a different building.
    """

    def __init__(self, orbits, profile, bounds, time_limit):
        self.bounds, self.results, self._nodes = bounds, {}, {}
        # Exact nanoseconds for an int or a Fraction of seconds; None: no limit.
        self.deadline = None if time_limit is None else time.monotonic_ns() + time_limit * 10**9
        table = OrbitTable(orbits, bounds.max_total_multiplicity)
        others = bounds.max_levels * bounds.max_components_per_level - 1  # K - 1
        listed = max(bounds.max_index, 0)
        rows = self._listed(table, profile, bounds, listed)
        cap = bounds.max_index - others * min([0] + [r[7] for r in rows])
        if cap != listed:
            rows = self._listed(table, profile, bounds, cap)
        self._closed, self._open = self._bound_tables(len(table.refs), rows)
        rem = bounds.max_levels - 1  # the most levels any component has below it
        rows = [r for r in rows if r[7] + self._completion(r[4], rem) <= cap]
        self.components = [_component(table.refs, *r) for r in rows]
        _, _, _, tops, self.ends, _, _, self.ind, _ = zip(*rows) if rows else [()] * 9
        self.trivial = [c.is_trivial_cylinder for c in self.components]
        self.by_pos = [[] for _ in table.refs]
        for n, ref in enumerate(tops):
            self.by_pos[ref].append(n)
        for group in self.by_pos:
            group.sort(key=lambda n: (self.ind[n], self.components[n].key))
        # What the search reads at each number of levels to go: the least
        # index below each component, and below each end on its own.
        self._down = [[self._completion(e, r) for e in self.ends] for r in range(rem + 1)]

    def _listed(self, table, profile, bounds, cap):
        # The setup can outlast the search, so the deadline bounds it too.
        rows = []
        for row in _rows(table, profile, bounds, cap):
            self._check_deadline()
            rows.append(row)
        return rows

    def _bound_tables(self, size, rows):
        closed = [[INF] * size]
        # Leaving an end open costs nothing, so no open entry is positive.
        opened = [[0] * size]
        for _ in range(self.bounds.max_levels - 1):
            self._check_deadline()
            prev_closed, prev_open = closed[-1], opened[-1]
            row_closed, row_open = list(prev_closed), list(prev_open)
            for _, _, _, p, below, _, _, total, _ in rows:
                # One scan: the finite capped costs summed, the rest listed.
                uncapped = []
                for e in below:
                    if prev_closed[e] == INF:
                        uncapped.append(e)
                    else:
                        total += prev_closed[e]
                if not uncapped:
                    row_closed[p] = min(row_closed[p], total)
                    for e in below:
                        row_open[p] = min(row_open[p], total - prev_closed[e] + prev_open[e])
                elif len(uncapped) == 1:
                    # Only the end that cannot be capped may stay open.
                    row_open[p] = min(row_open[p], total + prev_open[uncapped[0]])
            closed.append(row_closed)
            opened.append(list(map(min, row_open, row_closed)))  # open <= closed
        return closed, opened

    def _completion(self, frontier, rem):
        """Least index that can hang below the frontier ends within rem
        levels, leaving at most max_negative_ends of them open (INF if the
        ends cannot all be capped)."""
        closed, opened = self._closed[rem], self._open[rem]
        opens = self.bounds.max_negative_ends
        total = 0
        savings = []
        for e in frontier:
            if closed[e] == INF:
                opens -= 1
                if opens < 0:
                    return INF
                total += opened[e]
            else:
                total += closed[e]
                if closed[e] > opened[e]:
                    savings.append(closed[e] - opened[e])
        if opens > 0 and savings:
            savings.sort(reverse=True)
            total -= sum(savings[:opens])
        return total

    def _check_deadline(self):
        if self.deadline is not None and time.monotonic_ns() > self.deadline:
            raise EnumerationLimitError(
                "enumeration wall-clock limit exceeded", self._partial()
            )

    def _emit(self, stack):
        self._check_deadline()
        # The stack holds each level's components in the order of the ends
        # above them, so the tree is read from the table from the bottom up.
        nodes, comps, ends, below = self._nodes, self.components, self.ends, []
        for level in reversed(stack):
            above, i = [], 0
            for n in level:
                j = i + len(ends[n]) if below else i  # the bottom level's ends stay open
                kids = below[i:j]
                key = (n, *sorted(map(id, kids))) if kids else n
                node = nodes.get(key)
                if node is None:
                    node = nodes[key] = BuildingNode(comps[n], kids)
                above.append(node)
                i = j
            below = above
        (root,) = below
        if root.key in self.results:
            return
        if len(self.results) >= self.bounds.max_buildings:
            raise EnumerationLimitError("enumeration building limit exceeded", self._partial())
        self.results[root.key] = BuildingSkeleton(root)

    def _partial(self):
        return [self.results[k] for k in sorted(self.results)]

    def run(self):
        roots = sorted(
            (n for group in self.by_pos for n in group if not self.trivial[n]),
            key=lambda n: self.components[n].key,
        )
        for n in roots:
            self._recurse([[n]], list(self.ends[n]), 1, self.ind[n])
        return self._partial()

    def _recurse(self, stack, frontier, depth, total):
        """stack: the components chosen so far, one list per level."""
        b = self.bounds
        self._check_deadline()
        if len(frontier) <= b.max_negative_ends and total <= b.max_index:
            self._emit(stack)
        if depth >= b.max_levels or not frontier:
            return
        if len(frontier) > b.max_components_per_level:
            return
        rem = b.max_levels - depth
        if total + self._completion(frontier, rem) > b.max_index:
            return
        # rest[pos]: least index below the frontier ends after position pos.
        opened = self._open[rem]
        rest = [0] * len(frontier)
        for pos in range(len(frontier) - 1, 0, -1):
            rest[pos - 1] = rest[pos] + opened[frontier[pos]]
        self._assign(stack, frontier, rest, 0, [], depth, total, 0, False)

    def _assign(self, stack, frontier, rest, pos, chosen, depth, total, pending, nontrivial):
        """nontrivial: some component in chosen is not a trivial cylinder."""
        b = self.bounds
        if pos == len(frontier):
            if not nontrivial:
                return
            new_frontier = [e for n in chosen for e in self.ends[n]]
            stack.append(chosen)
            self._recurse(stack, new_frontier, depth + 1, total)
            stack.pop()
            return
        down = self._down[b.max_levels - depth - 1]
        budget = b.max_index - total - pending - rest[pos]
        trivial = self.trivial
        for n in self.by_pos[frontier[pos]]:
            ind = self.ind[n]
            below = down[n]
            if below == INF or ind + below > budget:
                continue
            chosen.append(n)
            self._assign(stack, frontier, rest, pos + 1, chosen, depth,
                         total + ind, pending + min(below, 0), nontrivial or not trivial[n])
            chosen.pop()


def enumerate_buildings(orbits, profile, bounds, time_limit=None):
    """Every genus-zero building skeleton within the bounds, canonically
    sorted and duplicate free.

    Buildings have one positive end, at most max_negative_ends negative
    ends, total index at most max_index, at most max_levels levels with at
    most max_components_per_level components each.  Raises an enumeration
    limit error carrying partial results when a configured limit is hit.
    """
    return _Enumerator(orbits, profile, bounds, time_limit).run()


# ------------------------------------------------------------------ sweeps


CHECK_NAMES = (
    "trivial_cover_nonnegative",
    "cover_index_bound",
    "nontrivial_cover_bounds",
    "cylinder_cover_index",
    "multi_end_cover_combination",
)


@dataclass
class EstimateSweepReport:
    components: int = 0
    checked: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not any(self.violations.values())

    def lines(self):
        return [f"components: {self.components}"] + [
            f"check {name}: checked={self.checked.get(name, 0)} "
            f"violations={len(self.violations.get(name, ()))}" for name in CHECK_NAMES
        ]


def _estimates(generic_J, kind, d, b, n, k, index, under, hyperbolic):
    """Each estimate's verdict, in CHECK_NAMES order, on the argument tuple of
    an inventory row; None where it does not apply."""
    return (
        check_trivial_cover_nonnegative(kind, index) if kind is BTC else None,
        check_cover_index_bound(d, b, index, under),
        check_nontrivial_cover_bounds(generic_J, kind, n, k, index, under),
        check_cylinder_cover_index(generic_J, kind, n, d, index, under, hyperbolic)
        if kind is not BTC and n == 1 else None,
        check_multi_end_cover_combination(kind, d, b, n, k, index)
        if kind is COV and k > 1 else None,
    )


def _arguments(hyperbolic, kind, d, b, p, neg, u, uneg, index, under):
    """_estimates' arguments for a row of _rows; hyperbolic[i]: refs[i] is not elliptic."""
    return (kind, d, b, len(neg), len(uneg), index, under,
            len(neg) == 1 and kind is not BTC and hyperbolic[u] and hyperbolic[uneg[0]])


def _tally(table, profile, bounds, hyperbolic):
    """{argument tuple: its number of rows in _rows(...)} in order of first
    sight; SI rows run over shapes, ranked by least id tuple, and COV rows,
    which _rows yields last, are counted by shape (run_estimate_sweep)."""
    top, g = bounds.max_total_multiplicity, table.grading
    shapes = [(least, t, count) for (n, t), (count, least) in _shapes(table, top).items() if n != 1]
    shapes += [((i,), t, 1) for i, t in enumerate(g)]  # one end of any cover
    shapes.sort()
    size = {ids: count for ids, _, count in shapes}
    tally = {}
    for row in _rows(table, profile, bounds, multisets=[s[:2] for s in shapes]):
        if row[0] is COV:
            break
        args = _arguments(hyperbolic, *row)
        tally[args] = tally.get(args, 0) + (size[row[4]] if row[0] is SI else 1)
    runs, curves, covers = {}, {}, {}  # covers: COV tuples but the kind, an Enum slow to hash
    for d, u, p, ids, ways, under in _cover_bases(table, 1 if profile.generic_J else -INF, top):
        k = len(ids)
        if (d, ids) not in curves:
            curves[d, ids] = _cover_counts(table, d, ids, ways, runs)
        flag = k == 1 and hyperbolic[u] and hyperbolic[ids[0]]
        for b, n, t, count in curves[d, ids]:
            args = d, b, n, k, g[p] - t, under, n == 1 and flag
            covers[args] = covers.get(args, 0) + count
    tally.update(((COV, *args), count) for args, count in covers.items())
    return tally


def run_estimate_sweep(orbits, profile, bounds) -> EstimateSweepReport:
    """Apply every index estimate to every row of the component inventory.

    Each estimate reads only its arguments, integers and flags of the row,
    so the sweep decides each distinct argument tuple once, weighed by its
    rows (_tally).  An SI row p => ids with n ends of grading sum t has the
    tuple (SI, 1, 0, n, n, g[p] - t, g[p] - t, flag), and _rows admits it by
    that index, n == 0 and ids == (p,).  For n != 1 the flag is False and
    ids is not (p,), so the multisets of one shape (n, t) share tuple and
    admission: the SI rows run over the least of each shape (_shapes' n, t),
    weighed by its count.  A one-end multiset is its own shape, as the flag
    reads its end and (p,) is the trivial cylinder.  The counts are exact:
    _shapes adds each cover k >= 0 times, one cover at a time, so it builds
    each multiset once, from its own number of each cover, within the
    budget.  So is the order: the listing runs through the multisets in
    lexicographic order of id tuples, so a shape is first seen at its least
    tuple, and ranked by it the shapes keep the rows' order of first sight;
    errors come in the same order.

    A COV row of degree d over the curve u => ids (k ends) with n negative
    ends of grading sum t has the tuple (COV, d, n + d - d*k - 1, n, k,
    g[p] - t, g[u] less the grading sum of ids, flag), the flag read off n,
    u and ids, and Riemann-Hurwitz b >= 0 admits it by n.  So for one curve
    and d the rows of one shape (n, t) share tuple and admission, and only
    their number counts: that of the distinct negative-end multisets, not
    of the groupings (covers.py), a convolution over base orbits tested by
    b >= 0 after it (_cover_counts).  Each shape is weighed as an SI shape,
    in the listing's order of first sight, and COV tuples come after all
    others as the rows do.  Rows are listed, for keys, only if some tuple
    fails."""
    table = OrbitTable(orbits, bounds.max_total_multiplicity)
    hyperbolic = [orbit_type(r) is not OrbitType.ELLIPTIC for r in table.refs]
    tally = _tally(table, profile, bounds, hyperbolic)
    verdicts = {args: _estimates(profile.generic_J, *args) for args in tally}
    violations = {name: [] for name in CHECK_NAMES}
    if any(False in v for v in verdicts.values()):
        for row in _rows(table, profile, bounds):
            for name, v in zip(CHECK_NAMES, verdicts[_arguments(hyperbolic, *row)]):
                if v is False:
                    violations[name].append(_component(table.refs, *row).key)
    checked = [sum(n for a, n in tally.items() if verdicts[a][i] is not None) for i in range(5)]
    return EstimateSweepReport(sum(tally.values()), dict(zip(CHECK_NAMES, checked)), violations)


# --------------------------------------------------------- proposition check


CASE_ONE_LEVEL = "index-two:one-level"
CASE_TWO_CYLINDERS = "index-two:two-cylinder-levels"
CASE_SPLIT_PLANE = "index-two:split-off-plane"


def _is_split_plane_shape(b: BuildingSkeleton) -> bool:
    if len(b.levels) != 2 or len(b.levels[1]) != 2:
        return False
    cover = b.root.component  # two negative ends: the bottom level is its subtrees
    if cover.kind is not BTC or cover.index != 0:
        return False
    trivials = [c for c in b.levels[1] if c.is_trivial_cylinder]
    planes = [c for c in b.levels[1] if not c.negative_ends]
    return len(trivials) == 1 and len(planes) == 1 and planes[0].index == 2


@dataclass
class PropositionEntry:
    building: BuildingSkeleton
    classification: str
    ok: bool


@dataclass
class PropositionReport:
    entries: list = field(default_factory=list)

    @property
    def counterexamples(self):
        return [e for e in self.entries if not e.ok]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def tally(self):
        counts = {}
        for e in self.entries:
            counts[e.classification] = counts.get(e.classification, 0) + 1
        return counts

    def lines(self):
        out = [f"buildings: {len(self.entries)}"]
        tally = self.tally()
        for tag in sorted(tally):
            out.append(f"class {tag}: {tally[tag]}")
        out.append(f"counterexamples: {len(self.counterexamples)}")
        for e in self.counterexamples:
            out.append(f"counterexample: index={e.building.total_index} {e.building.key}")
        return out


def classify_building(b: BuildingSkeleton):
    """Match a building against the low-index classification claims."""
    ind = b.total_index
    nneg = len(b.negative_ends)
    nlev = len(b.levels)
    if nneg == 0:
        if ind < 2:
            return ("no-negative-ends:index-below-two", False)
        if ind == 2:
            return ("index-two-plane", nlev == 1)
        return ("no-negative-ends:index-above-two", True)
    if ind < 1:
        return ("one-negative-end:index-below-one", False)
    if ind == 1:
        return ("index-one-cylinder", nlev == 1)
    if ind == 2:
        if nlev == 1:
            return (CASE_ONE_LEVEL, True)
        if nlev == 2:
            if all(len(l) == 1 and len(l[0].negative_ends) == 1 for l in b.levels):
                return (CASE_TWO_CYLINDERS, True)
            if _is_split_plane_shape(b):
                return (CASE_SPLIT_PLANE, True)
        return ("index-two:unclassified", False)
    return ("one-negative-end:index-above-two", True)


def verify_propositions(orbits, profile, bounds, time_limit=None) -> PropositionReport:
    """Check every enumerated building against the low-index claims.

    Needs a generic, dynamically convex profile.  Trivial buildings are
    excluded; buildings with no negative ends must have index >= 2 with
    equality only for one-level planes; nontrivial buildings with one
    negative end must have index >= 1, with index one only in one level and
    index two only in the three admissible shapes.
    """
    if not (profile.generic_J and profile.dynamically_convex):
        raise PreconditionError(
            "proposition verification assumes a generic, dynamically convex profile"
        )
    if not orbits:
        return PropositionReport()
    bounds = replace(bounds, max_negative_ends=min(bounds.max_negative_ends, 1))
    return classify_buildings(
        enumerate_buildings(orbits, profile, bounds, time_limit=time_limit)
    )


def classify_buildings(buildings) -> PropositionReport:
    """Classify each building, in order; verify_propositions on a list of
    buildings, such as the partial results of an enumeration limit error."""
    return PropositionReport(
        [PropositionEntry(b, *classify_building(b)) for b in buildings]
    )
