"""Rational chain complexes on good orbit covers.

Cylinder counts are inputs, never computed: the table supplies signed
index-one cylinder records keyed by ordered generator pairs, and this
module validates every algebraic constraint such counts must satisfy,
assembles the count operator delta and the multiplicity operator kappa,
verifies that delta kappa delta vanishes, and computes homology ranks by
exact elimination.

delta is stored once, as sparse columns holding only nonzero entries.
Every count record joins two generators of one homotopy class whose
gradings differ by one, so each entry lies in a block from (class, g) to
(class, g - 1); homology ranks are taken per block, and only blocks with a
nonzero entry are eliminated.  The double composite is computed in
integers: with L the lcm of the denominators of delta, (L delta) kappa
(L delta) is formed column by column over the stored entries, and each
nonzero entry v is reported as v / L^2, in row-major (row, column) order.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Optional

from . import linalg
from .errors import (
    BadOrbitError,
    CoverDivisibilityError,
    GradingMismatchError,
    PreconditionError,
    SequencingError,
)
from .orbits import OrbitRef, cz_index, format_orbit, grading, is_good


@dataclass(frozen=True)
class CylinderCount:
    sign: int
    cover_degree: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise PreconditionError(f"sign must be +1 or -1, got {self.sign}")
        if self.cover_degree < 1:
            raise PreconditionError("cover degree must be >= 1")


@dataclass(frozen=True)
class ModuliCountTable:
    """Signed index-one cylinder records keyed by ordered (source, target)."""

    entries: Mapping

    def __post_init__(self):
        normalized = {}
        for (alpha, beta), records in self.entries.items():
            normalized[(alpha, beta)] = tuple(records)
        object.__setattr__(self, "entries", normalized)

    def records(self, alpha: OrbitRef, beta: OrbitRef):
        return self.entries.get((alpha, beta), ())


EMPTY_COUNTS = ModuliCountTable({})


@dataclass
class DSquaredReport:
    ok: bool
    nonzero_entries: tuple
    boundary_squared_ok: bool

    def lines(self):
        out = [f"delta-kappa-delta zero: {'pass' if self.ok else 'fail'}"]
        for alpha, beta, value in self.nonzero_entries:
            out.append(f"nonzero entry: {alpha} -> {beta}: {value}")
        out.append(
            f"boundary squared zero: {'pass' if self.boundary_squared_ok else 'fail'}"
        )
        return out


@dataclass
class ChainComplex:
    """Generators with gradings and the count/multiplicity operators.

    delta holds sparse columns: delta[j][i] is the coefficient of generator
    i in the image of generator j, and only nonzero entries are stored (a
    column with none is absent).  kappa is the diagonal kappa_diag of
    multiplicities.  The boundary operator is delta followed by kappa;
    build_complex checks that its entries are integers.  The d-squared
    report is cached by verify_d_squared so later operations can insist
    on it.
    """

    generators: tuple
    classes: tuple
    gradings: tuple
    delta: dict
    kappa_diag: tuple
    d_squared: Optional[DSquaredReport] = field(default=None, compare=False)

    @property
    def boundary(self):
        """delta kappa as {(i, j): entry}, nonzero entries only."""
        kappa = self.kappa_diag
        return {
            (i, j): value * kappa[j]
            for j, column in self.delta.items()
            for i, value in column.items()
        }

    def index_of(self, ref: OrbitRef) -> int:
        return self.generators.index(ref)

    def generator_keys(self):
        return tuple(format_orbit(g) for g in self.generators)


def _generator_grading(ref: OrbitRef, relative_gradings) -> int:
    key = format_orbit(ref)
    if ref.base.contractible:
        value = grading(ref)
        if key in relative_gradings and relative_gradings[key] != value:
            raise GradingMismatchError(
                f"{key}: contractible generators carry the absolute grading "
                f"{value}, cannot override with {relative_gradings[key]}"
            )
        return value
    if key in relative_gradings:
        return relative_gradings[key]
    # Default representative of the relative grading in the fixed
    # trivialization; classes may be shifted wholesale by user input.
    return cz_index(ref) - 1


def build_complex(
    orbits,
    max_multiplicity: int,
    relative_gradings: Optional[Mapping] = None,
    counts: ModuliCountTable = EMPTY_COUNTS,
) -> ChainComplex:
    """Assemble the complex on all good covers up to the multiplicity cap.

    Each orbit contributes covers up to min(validity bound, cap).  Count
    records must connect good generators of the same homotopy class with
    grading difference one, and each record's cover degree must divide
    both end multiplicities.
    """
    if max_multiplicity < 1:
        raise PreconditionError("max multiplicity must be >= 1")
    relative_gradings = dict(relative_gradings or {})
    generators = []
    for orbit in orbits:
        cap = min(orbit.validity_bound, max_multiplicity)
        for m in range(1, cap + 1):
            ref = OrbitRef(orbit, m)
            if is_good(ref):
                generators.append(ref)
    generators.sort(key=lambda r: (r.base.homotopy_class,))
    generators = tuple(generators)
    index = {ref: i for i, ref in enumerate(generators)}
    classes = tuple(r.base.homotopy_class for r in generators)
    gradings = tuple(_generator_grading(r, relative_gradings) for r in generators)

    delta = {}
    for (alpha, beta), records in counts.entries.items():
        if not records:
            continue
        for ref in (alpha, beta):
            if not is_good(ref):
                raise BadOrbitError(
                    f"{format_orbit(ref)} is a bad orbit and not a generator"
                )
            if ref not in index:
                raise BadOrbitError(
                    f"{format_orbit(ref)} is not among the generators of this complex"
                )
        i, j = index[beta], index[alpha]
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
        total = Fraction(0)
        for rec in records:
            if alpha.multiplicity % rec.cover_degree or beta.multiplicity % rec.cover_degree:
                raise CoverDivisibilityError(
                    f"{format_orbit(alpha)} -> {format_orbit(beta)}: cover degree "
                    f"{rec.cover_degree} does not divide both end multiplicities"
                )
            total += Fraction(rec.sign, rec.cover_degree)
        if total:
            delta.setdefault(j, {})[i] = total

    kappa_diag = tuple(r.multiplicity for r in generators)
    complex_ = ChainComplex(generators, classes, gradings, delta, kappa_diag)
    boundary = complex_.boundary
    fractional = [key for key, value in boundary.items() if value.denominator != 1]
    if fractional:
        i, j = min(fractional)
        raise CoverDivisibilityError(
            f"boundary entry {format_orbit(generators[j])} -> "
            f"{format_orbit(generators[i])} is not an integer: {boundary[i, j]}"
        )
    return complex_


def verify_d_squared(c: ChainComplex) -> DSquaredReport:
    """Compute delta kappa delta exactly and report any nonzero entry.

    (delta kappa)^2 is the same product with column k scaled by kappa[k].
    """
    kappa = c.kappa_diag
    scale = lcm(*(v.denominator for column in c.delta.values() for v in column.values()))
    ints = {
        j: {i: v.numerator * (scale // v.denominator) for i, v in column.items()}
        for j, column in c.delta.items()
    }
    entries = []
    for k, column in ints.items():
        acc = {}
        for j, b in column.items():
            inner = ints.get(j)
            if inner:
                b *= kappa[j]
                for i, a in inner.items():
                    acc[i] = acc.get(i, 0) + a * b
        entries.extend((i, k, v) for i, v in acc.items() if v)
    entries.sort()
    square = scale * scale
    nonzero = tuple(
        (format_orbit(c.generators[k]), format_orbit(c.generators[i]), Fraction(v, square))
        for i, k, v in entries
    )
    report = DSquaredReport(
        ok=not nonzero,
        nonzero_entries=nonzero,
        boundary_squared_ok=not any(v * kappa[k] for _, k, v in entries),
    )
    c.d_squared = report
    return report


def homology_ranks(c: ChainComplex):
    """Rank of homology per (homotopy class, grading), zero ranks omitted."""
    if c.d_squared is None or not c.d_squared.ok:
        raise SequencingError(
            "homology requires a passing verify_d_squared report for this complex"
        )
    sizes = Counter(zip(c.classes, c.gradings))
    # Boundary entries by the block of their column; build_complex checked
    # that every entry is an integer.
    maps = {}
    for (i, j), value in c.boundary.items():
        maps.setdefault((c.classes[j], c.gradings[j]), {})[i, j] = value.numerator
    # Zero rows and columns do not change a rank, so each block is cut
    # down to the rows and columns that hold an entry.
    map_rank = {}
    for key, entries in maps.items():
        rows = {i: r for r, i in enumerate(sorted({i for i, _ in entries}))}
        cols = {j: r for r, j in enumerate(sorted({j for _, j in entries}))}
        matrix = [[0] * len(cols) for _ in rows]
        for (i, j), value in entries.items():
            matrix[rows[i]][cols[j]] = value
        map_rank[key] = linalg.rank(matrix)
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
