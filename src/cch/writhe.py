"""Winding and writhe bound arithmetic for braided curve ends.

Bounds are plain integer functions of an end's Conley-Zehnder index and
degree: the package has no analytic curves, only the integer consequences
their ends would have to satisfy.  The breaking-exclusion certificate
builds its writhe slack from those bounds at the three ends of a
degenerate two-level limit, and records why that slack and the limit's
index identity can never hold together.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd

from .errors import PreconditionError
from .orbits import floor_multiple


class EndSide(Enum):
    POSITIVE = "positive"
    NEGATIVE = "negative"


def wind_bound(cz: int, side: EndSide) -> int:
    """Extremal winding number of a braided end at an orbit with index cz.

    Positive ends are bounded above by floor(cz/2); negative ends are
    bounded below by ceil(cz/2).
    """
    if side is EndSide.POSITIVE:
        return cz // 2
    return -((-cz) // 2)


def writhe_bound(cz: int, degree: int, side: EndSide) -> int:
    """Extremal writhe of a braided end of this degree: (degree-1) * extremal
    winding."""
    return (degree - 1) * wind_bound(cz, side)


def improved_writhe_bound(cz: int, degree: int) -> int:
    """Sharper upper bound on the writhe of a positive end: the basic bound
    minus gcd(degree, floor(cz/2)) - 1."""
    half = cz // 2
    return (degree - 1) * half - gcd(degree, half) + 1


class BreakingVerdict(Enum):
    BREAKING_EXCLUDED = "breaking-excluded"
    INDEX_HYPOTHESIS_NOT_MET = "index-hypothesis-not-met"
    COUNTEREXAMPLE = "counterexample"


@dataclass(frozen=True)
class BreakingCertificate:
    """Record of the two incompatible conditions for a bad two-level limit.

    Condition A is the floor identity equivalent to the top branched cover
    having index zero; condition B is the combined winding/writhe slack
    being nonnegative.  The witness line records the strict inequality
    floor(d*theta) < d*(floor(theta)+1) that makes A and B jointly
    unsatisfiable.
    """

    theta: Fraction
    degree: int
    floor_theta: int
    floor_d_theta: int
    floor_d1_theta: int
    index_zero_identity: bool
    writhe_slack: int

    @property
    def writhe_chain_holds(self) -> bool:
        return self.writhe_slack >= 0

    @property
    def verdict(self) -> BreakingVerdict:
        if not self.index_zero_identity:
            return BreakingVerdict.INDEX_HYPOTHESIS_NOT_MET
        if self.writhe_chain_holds:
            return BreakingVerdict.COUNTEREXAMPLE
        return BreakingVerdict.BREAKING_EXCLUDED

    def lines(self):
        d = self.degree
        a_state = "holds" if self.index_zero_identity else "fails"
        b_state = "holds" if self.writhe_chain_holds else "fails"
        return [
            "certificate: no-bad-break",
            f"theta: {self.theta}",
            f"degree: {d}",
            f"floor(theta) = {self.floor_theta}",
            f"floor(d*theta) = {self.floor_d_theta}",
            f"floor((d+1)*theta) = {self.floor_d1_theta}",
            f"A (index-zero identity): floor((d+1)*theta) == floor(d*theta) + floor(theta):"
            f" {self.floor_d1_theta} vs {self.floor_d_theta + self.floor_theta}: {a_state}",
            f"B (writhe slack >= 0): d*(floor((d+1)*theta) - 2*floor(theta) - 1)"
            f" - (d-1)*floor(d*theta) = {self.writhe_slack}: {b_state}",
            f"witness: floor(d*theta) = {self.floor_d_theta} <= d*theta = {self.theta * d}"
            f" < d*(floor(theta)+1) = {d * (self.floor_theta + 1)}",
            f"verdict: {self.verdict.value}",
        ]


def no_bad_break_certificate(theta: Fraction, d: int) -> BreakingCertificate:
    """Certify that an index-zero splitting off a degree-1 plane is impossible.

    theta must model an elliptic orbit (not an integer or half-integer).
    The writhe slack is chi + writhe(top) - 2d*wind(plane) - writhe(bottom)
    with chi = -1, each term the extremal bound of its end: the top cover
    gamma^(d+1) and the plane's end gamma^1 are positive ends, the bottom
    cover gamma^d is negative.  Each end takes cz = 2*floor(m*theta) + 1,
    the Conley-Zehnder index of the rotation theta + epsilon for every
    small enough epsilon > 0: for m*theta not an integer it is
    cz_of_rotation(theta, m), and it stays defined at the degrees where q
    divides d or d + 1, at which theta itself degenerates.
    """
    theta = Fraction(theta)
    if theta.denominator <= 2:
        raise PreconditionError(
            f"theta={theta} is hyperbolic; the certificate needs an elliptic rotation"
        )
    if d < 1:
        raise PreconditionError("degree must be >= 1")
    ft = floor_multiple(theta, 1)
    fdt = floor_multiple(theta, d)
    fd1t = floor_multiple(theta, d + 1)
    slack = (
        -1
        + writhe_bound(2 * fd1t + 1, d + 1, EndSide.POSITIVE)
        - 2 * d * wind_bound(2 * ft + 1, EndSide.POSITIVE)
        - writhe_bound(2 * fdt + 1, d, EndSide.NEGATIVE)
    )
    return BreakingCertificate(
        theta=theta,
        degree=d,
        floor_theta=ft,
        floor_d_theta=fdt,
        floor_d1_theta=fd1t,
        index_zero_identity=(fd1t == fdt + ft),
        writhe_slack=slack,
    )


@dataclass(frozen=True)
class BreakingSweepResult:
    certificates_checked: int
    counterexamples: tuple

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def _index_zero_residues(p: int, q: int, count: int):
    """(j, s_j, c_j) for each residue j < count of d mod q where A holds.

    With d = k*q + j, floor(d*p/q) = k*p + floor(j*p/q), so condition A
    depends on j alone and the writhe slack at d is s_j + k*c_j: s_j is the
    slack formula at d = j, c_j = q*(floor((j+1)p/q) - floor(j*p/q) -
    2*floor(p/q) - 1) + p.  With p0 = p mod q and r = j*p mod q,
    floor((j+1)p/q) - floor(j*p/q) = floor(p/q) + [r + p0 >= q], so A holds
    at j exactly when r < q - p0.  As gcd(p, q) = 1, j -> r is a bijection
    of Z/q, so the walk runs over those r alone, with j = r*u mod q for u
    the inverse of p mod q, and keeps j < count.  There c_j is the one
    constant c = p - q*(floor(p/q) + 1) = p0 - q, and s_j = (j*c - r)/q
    exactly, since floor(j*p/q) = (j*p - r)/q.  The triples come in order
    of r and depend on p only through p0.
    """
    p0 = p % q
    u = pow(p, -1, q)
    c = p0 - q
    return [(j, (j * c - r) // q, c) for r in range(q - p0) if (j := r * u % q) < count]


def sweep_no_bad_break(
    max_degree: int, max_denominator: int, theta_upper: int
) -> BreakingSweepResult:
    """Run the certificate over all reduced elliptic rationals in range.

    Covers every theta = p/q with q <= max_denominator, 0 < theta <
    theta_upper, theta not an integer or half-integer, and every degree up
    to max_degree.  Each theta is decided per residue class j of d mod q
    (`_index_zero_residues`, which lists only the residues where A holds):
    at each, s_j + k*c_j >= 0 is solved exactly over the admissible k
    (k >= 1 when j = 0, k*q + j <= max_degree).  It is linear in k, so it
    holds somewhere in that range iff it holds at an end; the sign of c_j
    is not assumed.  That data, the k ranges and gcd(p, q) depend on p only
    through p0 = p mod q, so each theta is decided once per theta mod 1 and
    replicated over the theta_upper shifts p0 + n*q.  The certificate count
    is the number of degrees those ranges cover.
    Counterexamples come sorted by (theta, degree).  Integer arithmetic
    throughout.
    """
    if max_degree < 1:
        raise PreconditionError("max_degree must be >= 1")
    if max_denominator < 3:
        raise PreconditionError("max_denominator must be >= 3")
    if theta_upper < 1:
        raise PreconditionError("theta_upper must be >= 1")
    checked = 0
    bad = []
    for q in range(3, max_denominator + 1):
        # Admissible k per residue j: 1 <= k*q + j <= max_degree.
        k_bounds = [
            (0 if j else 1, (max_degree - j) // q) for j in range(min(q, max_degree + 1))
        ]
        degrees = sum(max(0, last - first + 1) for first, last in k_bounds)
        for p0 in range(1, q):
            if gcd(p0, q) != 1:
                continue
            checked += theta_upper * degrees
            for j, s, c in _index_zero_residues(p0, q, len(k_bounds)):
                first, last = k_bounds[j]
                if s + first * c >= 0 or s + last * c >= 0:
                    bad.extend(
                        (Fraction(p0 + n * q, q), k * q + j)
                        for n in range(theta_upper)
                        for k in range(first, last + 1)
                        if s + k * c >= 0
                    )
    return BreakingSweepResult(checked, tuple(sorted(bad)))
