"""Rational chain complexes on good orbit covers.

Cylinder counts are inputs, never computed: rows (alpha, beta, sign,
cover_degree) of ints, each one signed index-one cylinder between two
covers, alpha and beta indexing a tuple of distinct covers.  Equal rows
are repeated cylinders.  This module weighs each distinct row by how
often it occurs, groups the rows by the generators at their ends,
validates every algebraic constraint such counts must satisfy, assembles
the boundary d = delta kappa, verifies that delta kappa delta vanishes,
and computes homology ranks by exact elimination.

delta weighs each cylinder by sign / cover_degree and kappa multiplies a
generator by its multiplicity, so each entry of d is a sum of
sign * m(alpha) / cover_degree: an integer, since each cover degree
divides m(alpha).  d is stored once, as sparse integer columns.  Every
row joins generators of one homotopy class whose gradings differ by
one, so homology ranks are taken per (class, grading) block of d, each
cut down first to one row, then one column, per direction: exact, as a
multiple of a kept vector adds nothing to the span that the rank counts.

For the same reason column j of d lies in the block below j, so it packs
into one integer with a w-bit field per row of that block (Kronecker
substitution), and column k of d^2 is the sum of b_jk times packed column
j: balanced w-bit digits, w one more than the bit length of (longest
column) * (largest |entry|)^2, which bounds every entry of d^2.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Mapping, Optional

from . import linalg
from .errors import (
    BadOrbitError,
    CoverDivisibilityError,
    GradingMismatchError,
    PreconditionError,
    SequencingError,
)
from .orbits import OrbitRef, OrbitTable, format_orbit, is_good


@dataclass
class DSquaredReport:
    """The nonzero entries of delta kappa delta, and whether there are none.

    (delta kappa)^2 = (delta kappa delta) kappa and every kappa_k >= 1, so
    the boundary squares to zero exactly when delta kappa delta is zero.
    """

    ok: bool
    nonzero_entries: tuple

    def lines(self):
        verdict = "pass" if self.ok else "fail"
        out = [f"delta-kappa-delta zero: {verdict}"]
        for alpha, beta, value in self.nonzero_entries:
            out.append(f"nonzero entry: {alpha} -> {beta}: {value}")
        out.append(f"boundary squared zero: {verdict}")
        return out


@dataclass
class ChainComplex:
    """Generators with gradings, the boundary and the multiplicities.

    boundary[j][i] is the integer coefficient of generator i in the
    boundary of generator j; only nonzero entries are stored, and i lies
    in the class of j one grading below it, as build_complex checks.
    kappa_diag holds the multiplicities.  verify_d_squared caches its
    report in d_squared so that homology_ranks can insist on a passing one.
    """

    generators: tuple
    classes: tuple
    gradings: tuple
    boundary: dict
    kappa_diag: tuple
    d_squared: Optional[DSquaredReport] = field(default=None, compare=False)


def _generator_grading(ref: OrbitRef, grading: int, relative_gradings) -> int:
    key = format_orbit(ref)
    if ref.base.contractible:
        if key in relative_gradings and relative_gradings[key] != grading:
            raise GradingMismatchError(
                f"{key}: contractible generators carry the absolute grading "
                f"{grading}, cannot override with {relative_gradings[key]}"
            )
        return grading
    if key in relative_gradings:
        return relative_gradings[key]
    # Default representative of the relative grading in the fixed
    # trivialization; classes may be shifted wholesale by user input.
    return grading


def _not_a_generator(name: str, bad: bool) -> str:
    if bad:
        return name + " is a bad orbit and not a generator"
    return name + " is not among the generators of this complex"


def build_complex(
    orbits,
    max_multiplicity: int,
    relative_gradings: Optional[Mapping] = None,
    counts=(),
    covers=(),
) -> ChainComplex:
    """Assemble the complex on all good covers up to the multiplicity cap.

    Each orbit contributes covers up to min(validity bound, cap); orbit
    names must be distinct.  counts is a sequence of rows (alpha, beta,
    sign, cover_degree) of ints, one per signed index-one cylinder, and
    alpha and beta index covers, a sequence of OrbitRefs.  Each row's
    alpha and beta must index a cover, its sign must be +1 or -1 and its
    cover degree at least 1; rows are checked in order of first use,
    before anything else.  The rows of each ordered
    pair of generators must connect good generators of the same homotopy
    class with grading difference one, and each cover degree must divide
    both end multiplicities; pairs are checked in the order of their first
    row, and a pair's rows in order.  That makes every boundary entry an
    integer: it is a sum of sign * m(alpha) / cover_degree, and each cover
    degree divides m(alpha).
    """
    rows = Counter(counts)  # each distinct row, weighed by how often it occurs
    for alpha, beta, sign, degree in rows:
        if not (0 <= alpha < len(covers) and 0 <= beta < len(covers)):
            raise PreconditionError(f"count row {alpha, beta, sign, degree} indexes no cover")
        if sign not in (1, -1):
            raise PreconditionError(f"sign must be +1 or -1, got {sign}")
        if degree < 1:
            raise PreconditionError("cover degree must be >= 1")
    if max_multiplicity < 1:
        raise PreconditionError("max multiplicity must be >= 1")
    relative_gradings = dict(relative_gradings or {})
    table = OrbitTable(orbits, max_multiplicity)
    ids = sorted(
        (i for i, ref in enumerate(table.refs) if is_good(ref)),
        key=lambda i: table.refs[i].base.homotopy_class,
    )
    generators = tuple(table.refs[i] for i in ids)
    position = [None] * len(table.refs)
    for p, i in enumerate(ids):
        position[i] = p
    if relative_gradings:  # each grading must name a generator
        good = {format_orbit(r): is_good(r) for r in table.refs}
        for key in sorted(relative_gradings):
            if not good.get(key):
                raise BadOrbitError(_not_a_generator(key, key in good))
    classes = tuple(r.base.homotopy_class for r in generators)
    gradings = tuple(
        _generator_grading(table.refs[i], table.grading[i], relative_gradings) for i in ids
    )
    kappa_diag = tuple(r.multiplicity for r in generators)

    def locate(ref):
        """The generator position of ref, or ref itself if it is none."""
        try:
            p = position[table.id_of(ref)]
        except KeyError:
            return ref
        return p if p is not None and generators[p] == ref else ref

    # Group the rows by the generators at their ends, each cover located
    # once; two spellings of one cover (a^1, a^01) share a group.
    where = [locate(ref) for ref in covers]
    groups = {}
    for row in rows:
        groups.setdefault((where[row[0]], where[row[1]]), []).append(row)

    boundary = {}
    for (j, i), group in groups.items():
        alpha, beta = covers[group[0][0]], covers[group[0][1]]
        for end, ref in ((j, alpha), (i, beta)):
            if isinstance(end, OrbitRef):
                raise BadOrbitError(_not_a_generator(format_orbit(ref), not is_good(ref)))
        if classes[j] != classes[i]:
            raise GradingMismatchError(
                f"{format_orbit(alpha)} -> {format_orbit(beta)}: generators lie "
                "in different homotopy classes"
            )
        if gradings[j] - gradings[i] != 1:
            raise GradingMismatchError(
                f"{format_orbit(alpha)} -> {format_orbit(beta)}: grading must drop "
                f"by one, got {gradings[j]} -> {gradings[i]}"
            )
        total = 0
        for row in group:
            degree = row[3]
            if kappa_diag[j] % degree or kappa_diag[i] % degree:
                raise CoverDivisibilityError(
                    f"{format_orbit(alpha)} -> {format_orbit(beta)}: cover degree "
                    f"{degree} does not divide both end multiplicities"
                )
            total += rows[row] * row[2] * (kappa_diag[j] // degree)
        if total:
            boundary.setdefault(j, {})[i] = total

    return ChainComplex(generators, classes, gradings, boundary, kappa_diag)


def verify_d_squared(c: ChainComplex) -> DSquaredReport:
    """Compute delta kappa delta exactly and report any nonzero entry.

    Column k of d^2 = (delta kappa delta) kappa is column k of delta kappa
    delta times kappa_k, so each nonzero entry of d^2 is reported divided
    by it, in row-major (row, column) order.

    Column k of d^2 is the sum of b_jk * (column j of d) over the stored
    entries b_jk of column k, and every such column j lies in the block
    below j.  So column j is packed into one integer, the sum of
    a_ij * 2^(w * field(i)) with one w-bit field per row of that block that
    holds an entry (Kronecker substitution), and column k of d^2 is one
    big-integer multiply-add per stored entry of column k.  The sum's
    nonzero fields are read off, lowest first (each from the lowest set
    bit), as balanced digits in [-2^(w-1), 2^(w-1)), which
    is exact when every entry of d^2 fits: an entry is a sum of at most
    (longest column of d) products of two entries of d, so its size is at
    most (longest column) * (largest |entry|)^2, and w, one more than that
    bound's bit length, is the least width whose balanced digits hold
    every integer of that size.  The sum is zero exactly when all its
    fields are, so a passing complex decodes nothing, and a column that no
    column of d reaches is never packed.
    """
    kappa = c.kappa_diag
    d = c.boundary
    entries = []
    if d:
        top = max(max(map(abs, column.values()), default=0) for column in d.values())
        w = (max(map(len, d.values())) * top * top).bit_length() + 1
        mask, half = (1 << w) - 1, 1 << (w - 1)
        # layout[(class, g)] maps each row that a column of block (class, g)
        # holds to the shift of its field, and lists those rows in field
        # order; fields are numbered in order of first use.
        layout = {}
        packed = {}

        def pack(j):
            column = d.get(j)
            if not column:
                return 0
            shifts, rows = layout.setdefault((c.classes[j], c.gradings[j]), ({}, []))
            p = 0
            for i, a in column.items():
                shift = shifts.get(i)
                if shift is None:
                    shift = shifts[i] = w * len(rows)
                    rows.append(i)
                p += a << shift
            return p

        for k, column in d.items():
            total = 0
            for j, b in column.items():
                p = packed.get(j)
                if p is None:
                    p = packed[j] = pack(j)
                total += b * p
            if total:
                rows = layout[c.classes[k], c.gradings[k] - 1][1]
                while total:
                    shift = (total & -total).bit_length() - 1
                    shift -= shift % w
                    v = (total >> shift) & mask
                    if v >= half:
                        v -= mask + 1
                    entries.append((rows[shift // w], k, v))
                    total -= v << shift
    entries.sort()
    nonzero = tuple(
        (format_orbit(c.generators[k]), format_orbit(c.generators[i]), Fraction(v, kappa[k]))
        for i, k, v in entries
    )
    c.d_squared = DSquaredReport(ok=not nonzero, nonzero_entries=nonzero)
    return c.d_squared


def _directions(vectors):
    """Each nonzero vector over its content (the gcd of its entries), signed
    so that its first nonzero entry is positive, kept once in seen order."""
    kept = {}
    for v in vectors:
        content = gcd(*v) if next(filter(None, v)) > 0 else -gcd(*v)
        kept[tuple(x // content for x in v)] = None
    return list(kept)


def homology_ranks(c: ChainComplex):
    """Rank of homology per (homotopy class, grading), zero ranks omitted."""
    if c.d_squared is None or not c.d_squared.ok:
        raise SequencingError(
            "homology requires a passing verify_d_squared report for this complex"
        )
    sizes = Counter(zip(c.classes, c.gradings))
    blocks = {}
    for j, column in c.boundary.items():
        blocks.setdefault((c.classes[j], c.gradings[j]), {})[j] = column
    # Zero rows and columns do not change a rank, so each block is cut down
    # to the rows and columns that hold an entry (the boundary stores no
    # zero), then to one row per direction and, of what is left, one column
    # per direction (_directions; every column keeps an entry).  That is
    # exact: scaling a row or column by a nonzero integer changes no rank,
    # and a row that is a nonzero multiple of a kept row adds nothing to the
    # row space, nor a column that is one of a kept column to the columns'.
    map_rank = {}
    for key, columns in blocks.items():
        rows = {i: r for r, i in enumerate(sorted({i for col in columns.values() for i in col}))}
        matrix = [[0] * len(columns) for _ in rows]
        for k, j in enumerate(sorted(columns)):
            for i, value in columns[j].items():
                matrix[rows[i]][k] = value
        map_rank[key] = linalg.rank(list(zip(*_directions(zip(*_directions(matrix))))))
    ranks = {}
    for (cls, g), size in sorted(sizes.items()):
        value = size - map_rank.get((cls, g), 0) - map_rank.get((cls, g + 1), 0)
        if value:
            ranks[(cls, g)] = value
    return ranks


def render_homology_report(ranks) -> list:
    lines = [f"homology classes: {len(ranks)}"]
    for (cls, g), value in sorted(ranks.items()):
        lines.append(f"class {cls} grading {g}: rank {value}")
    return lines


@dataclass(frozen=True)
class GluingEnds:
    count: int
    end_degree: int


def gluing_count(d_plus: int, d_minus: int, d_gamma0: int) -> GluingEnds:
    """Number of index-two ends converging to a two-level cylinder pair,
    together with the covering degree of the cylinders in each end."""
    for d in (d_plus, d_minus, d_gamma0):
        if d < 1:
            raise PreconditionError("cover degrees must be positive")
    if d_gamma0 % d_plus or d_gamma0 % d_minus:
        raise CoverDivisibilityError(
            "the middle orbit multiplicity must be divisible by both cover degrees"
        )
    k = gcd(d_plus, d_minus)
    count = k * d_gamma0 // (d_plus * d_minus)
    return GluingEnds(count=count, end_degree=k)


def end_contribution(
    eps_plus: int,
    eps_minus: int,
    d_plus: int,
    d_minus: int,
    d_gamma0: int,
    gamma0_good: bool,
) -> Fraction:
    """Signed contribution of a broken pair to the double composite."""
    if eps_plus not in (1, -1) or eps_minus not in (1, -1):
        raise PreconditionError("signs must be +1 or -1")
    gluing_count(d_plus, d_minus, d_gamma0)  # validates divisibility
    if not gamma0_good:
        return Fraction(0)
    return Fraction(eps_plus * eps_minus * d_gamma0, d_plus * d_minus)
