"""Exact rotation-number arithmetic for Reeb orbit data.

An embedded orbit is described by an exact rational rotation number together
with a validity bound: the range of multiplicities on which the rational
model is guaranteed nondegenerate.  Integer and half-integer rotation numbers
encode positive and negative hyperbolic orbits; any other rational encodes an
elliptic orbit up to its bound.  Every index computation below is exact
integer arithmetic; no floating point appears anywhere in this module.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Optional

from .errors import (
    DegenerateOrbitError,
    MultiplicityBoundError,
    OrbitDataError,
    SkeletonError,
)


class OrbitType(Enum):
    ELLIPTIC = "elliptic"
    POSITIVE_HYPERBOLIC = "positive-hyperbolic"
    NEGATIVE_HYPERBOLIC = "negative-hyperbolic"


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise OrbitDataError(f"expected an exact rational, got {value!r}")


@dataclass(frozen=True)
class RotationData:
    """An embedded orbit: name, rotation number, and validity bound.

    For non-hyperbolic (elliptic-modeled) rotation numbers the reduced
    denominator must exceed the validity bound, so that no multiple within
    range lands on an integer.
    """

    name: str
    theta: Fraction
    validity_bound: int
    homotopy_class: str = "0"
    contractible: bool = False
    action: Optional[Fraction] = None

    def __post_init__(self):
        object.__setattr__(self, "theta", _as_fraction(self.theta))
        if not self.name:
            raise OrbitDataError("orbit name must be nonempty")
        if self.validity_bound < 1:
            raise OrbitDataError(
                f"orbit {self.name!r}: validity bound must be >= 1, got {self.validity_bound}"
            )
        den = self.theta.denominator
        if den > 2 and den <= self.validity_bound:
            # m*theta is an integer exactly when den divides m.
            raise OrbitDataError(
                f"orbit {self.name!r}: theta={self.theta} degenerates at multiplicity "
                f"{den} <= validity bound {self.validity_bound}"
            )
        if self.action is not None:
            object.__setattr__(self, "action", _as_fraction(self.action))
            if self.action <= 0:
                raise OrbitDataError(f"orbit {self.name!r}: action must be positive")


@dataclass(frozen=True)
class OrbitRef:
    """The multiplicity-m cover of an embedded orbit, with its Conley-Zehnder
    index cz computed once, at construction."""

    base: RotationData
    multiplicity: int
    cz: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.multiplicity < 1:
            raise OrbitDataError(f"multiplicity must be >= 1, got {self.multiplicity}")
        if self.multiplicity > self.base.validity_bound:
            raise MultiplicityBoundError(
                f"orbit {self.base.name!r}: multiplicity {self.multiplicity} exceeds "
                f"validity bound {self.base.validity_bound}"
            )
        object.__setattr__(self, "cz", cz_of_rotation(self.base.theta, self.multiplicity))

    @property
    def key(self) -> str:
        return format_orbit(self)


def format_orbit(ref: OrbitRef) -> str:
    return f"{ref.base.name}^{ref.multiplicity}"


def floor_multiple(theta: Fraction, m: int) -> int:
    """Floor of m*theta, exactly."""
    return (m * theta.numerator) // theta.denominator


def cz_of_rotation(theta: Fraction, m: int) -> int:
    """floor(m*theta) + ceil(m*theta) for an exact rational theta.

    Raises if an elliptic-modeled rotation number hits an integer multiple,
    which would mean the cover is degenerate.
    """
    num = m * theta.numerator
    den = theta.denominator
    fl, rem = divmod(num, den)
    if rem == 0:
        if den > 2:
            raise DegenerateOrbitError(
                f"rotation {theta} is degenerate at multiplicity {m}"
            )
        return 2 * fl
    return 2 * fl + 1


def cz_index(orbit: OrbitRef) -> int:
    """Conley-Zehnder index of the cover, relative to the fixed trivialization;
    kept only because perfbench/tracing.py counts its calls by name."""
    return orbit.cz


def orbit_type(orbit: OrbitRef) -> OrbitType:
    return cover_type(orbit.base.theta, orbit.multiplicity)


def cover_type(theta: Fraction, m: int) -> OrbitType:
    """Classify the m-fold cover by where m*theta sits relative to (1/2)Z."""
    total = theta * m
    if total.denominator == 1:
        return OrbitType.POSITIVE_HYPERBOLIC
    if total.denominator == 2:
        return OrbitType.NEGATIVE_HYPERBOLIC
    return OrbitType.ELLIPTIC


class OrbitTable:
    """Every cover of a set of embedded orbits up to a multiplicity cap.

    Cover i is refs[i], with grading[i] = cz - 1: the grading of a
    contractible cover, and the default relative grading of any other.  A
    genus-zero curve with one positive end has index grading(+) less the sum
    of grading(-) over its negative ends.  Ids run through the orbits in the
    order given and, within an orbit, by multiplicity, so the ids can stand
    in for the covers in tight loops.  Orbit names must be distinct.
    """

    def __init__(self, orbits, max_multiplicity: int):
        self.refs = tuple(
            OrbitRef(orbit, m)
            for orbit in orbits
            for m in range(1, min(orbit.validity_bound, max_multiplicity) + 1)
        )
        self.grading = tuple(ref.cz - 1 for ref in self.refs)
        self._ids = {(r.base.name, r.multiplicity): i for i, r in enumerate(self.refs)}
        if len(self._ids) != len(self.refs):
            raise OrbitDataError("orbit names in one table must be distinct")

    def id_of(self, ref: OrbitRef) -> int:
        return self._ids[ref.base.name, ref.multiplicity]


def is_good(orbit: OrbitRef) -> bool:
    return cover_is_good(orbit.base.theta, orbit.multiplicity)


def cover_is_good(theta: Fraction, m: int) -> bool:
    """False exactly for even covers of a negative hyperbolic orbit."""
    return not (theta.denominator == 2 and m % 2 == 0)


@dataclass(frozen=True)
class CurveData:
    """Topological data of a single curve: genus, asymptotic ends, Chern term."""

    genus: int
    positive_ends: tuple
    negative_ends: tuple
    c_tau: int = 0

    def __post_init__(self):
        object.__setattr__(self, "positive_ends", tuple(self.positive_ends))
        object.__setattr__(self, "negative_ends", tuple(self.negative_ends))
        if self.genus < 0:
            raise SkeletonError("genus must be nonnegative")
        if len(self.positive_ends) < 1:
            raise SkeletonError("a curve must have at least one positive end")

    @property
    def euler_characteristic(self) -> int:
        # Always recomputed from genus and end counts, never stored.
        return 2 - 2 * self.genus - len(self.positive_ends) - len(self.negative_ends)


def curve_index(genus: int, positive_ends, negative_ends) -> int:
    """Fredholm index with c_tau = 0: -chi + sum cz(positive ends) - sum
    cz(negative ends), for a curve of the given genus and ends."""
    total = 2 * genus - 2 + len(positive_ends) + len(negative_ends)
    for ref in positive_ends:
        total += ref.cz
    for ref in negative_ends:
        total -= ref.cz
    return total


def fredholm_index(curve: CurveData) -> int:
    """-chi + 2*c_tau + sum cz(positive ends) - sum cz(negative ends)."""
    return (
        curve_index(curve.genus, curve.positive_ends, curve.negative_ends)
        + 2 * curve.c_tau
    )
