from fractions import Fraction
from math import floor, gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cch import writhe
from cch.errors import PreconditionError
from cch.orbits import cz_of_rotation, floor_multiple
from cch.writhe import (
    BreakingVerdict,
    EndSide,
    _index_zero_residues,
    improved_writhe_bound,
    no_bad_break_certificate,
    sweep_no_bad_break,
    wind_bound,
    writhe_bound,
)

F = Fraction


# ---------------------------------------------------------------- wind_bound


def test_wind_bound_positive_end():
    assert wind_bound(cz_of_rotation(F(6, 5), 1), EndSide.POSITIVE) == 1


def test_wind_bound_negative_end():
    assert wind_bound(cz_of_rotation(F(6, 5), 1), EndSide.NEGATIVE) == 2


def test_wind_bound_even_cz_agrees_on_both_sides():
    cz = cz_of_rotation(F(2), 1)
    assert wind_bound(cz, EndSide.POSITIVE) == 2
    assert wind_bound(cz, EndSide.NEGATIVE) == 2


# ---------------------------------------------------------------- writhe_bound


def test_writhe_bound_basic():
    assert writhe_bound(cz_of_rotation(F(6, 5), 3), 3, EndSide.POSITIVE) == 6


def test_writhe_bound_improved():
    assert improved_writhe_bound(cz_of_rotation(F(6, 5), 3), 3) == 4


def test_writhe_bound_degree_one_is_zero():
    cz = cz_of_rotation(F(6, 5), 1)
    for side in EndSide:
        assert writhe_bound(cz, 1, side) == 0
    assert improved_writhe_bound(cz, 1) == 0


@given(st.integers(-50, 400), st.integers(1, 40))
def test_improved_never_exceeds_basic(cz, d):
    assert improved_writhe_bound(cz, d) <= writhe_bound(cz, d, EndSide.POSITIVE)


# ------------------------------------------------- automatic transversality


def automatic_transversality(genus, h_plus, index):
    """The automatic-transversality test: 2*genus - 2 + h_plus < index."""
    return 2 * genus - 2 + h_plus < index


def test_transversality_index_one_cylinder():
    assert automatic_transversality(0, 2, 1)


def test_transversality_fails_for_index_zero():
    assert not automatic_transversality(0, 2, 0)


def test_transversality_genus_one():
    assert automatic_transversality(1, 0, 1)


def test_transversality_monotone():
    for g in range(0, 4):
        for h in range(0, 7):
            for ind in range(-3, 7):
                here = automatic_transversality(g, h, ind)
                up = automatic_transversality(g, h, ind + 1)
                more_h = automatic_transversality(g, h + 1, ind)
                assert up or not here
                assert here or not more_h


# ---------------------------------------------------------------- adjunction


def test_step_chain_specializes_to_certificate_slack():
    # The slack the certificate builds from the end bounds equals the
    # closed form that line B prints, here from floors alone.  The grid
    # includes the degrees where q divides d or d + 1, at which theta is
    # degenerate.
    degenerate = 0
    for q in range(3, 16):
        for p in range(1, 4 * q):
            if gcd(p, q) != 1:
                continue
            theta = F(p, q)
            ft = floor(theta)
            for d in range(1, 3 * q + 2):
                fdt, fd1t = floor(d * theta), floor((d + 1) * theta)
                cert = no_bad_break_certificate(theta, d)
                assert cert.writhe_slack == d * (fd1t - 2 * ft - 1) - (d - 1) * fdt
                degenerate += d % q == 0 or (d + 1) % q == 0
    assert degenerate > 0


def test_end_cz_is_cz_of_rotation_off_integers():
    # The certificate's cz = 2*floor(m*theta) + 1 at each end is the
    # Conley-Zehnder index wherever m*theta is not an integer.
    checked = 0
    for q in range(1, 16):
        for p in range(-3 * q, 4 * q):
            if gcd(p, q) != 1:
                continue
            theta = F(p, q)
            for m in range(1, 3 * q + 2):
                if (m * theta).denominator == 1:
                    continue
                assert 2 * floor_multiple(theta, m) + 1 == cz_of_rotation(theta, m)
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------- certificate


def test_certificate_breaking_excluded():
    cert = no_bad_break_certificate(F(3, 10), 2)
    assert cert.index_zero_identity
    assert cert.writhe_slack == -2
    assert cert.verdict is BreakingVerdict.BREAKING_EXCLUDED


def test_certificate_hypothesis_not_met():
    cert = no_bad_break_certificate(F(5, 7), 2)
    assert not cert.index_zero_identity
    assert cert.verdict is BreakingVerdict.INDEX_HYPOTHESIS_NOT_MET


@given(
    st.tuples(st.integers(1, 100), st.integers(3, 25)).filter(
        lambda pq: F(pq[0], pq[1]).denominator > 2
    )
)
def test_certificate_degree_one_never_counterexample(pq):
    cert = no_bad_break_certificate(F(pq[0], pq[1]), 1)
    assert cert.verdict is not BreakingVerdict.COUNTEREXAMPLE
    if cert.index_zero_identity:
        assert not cert.writhe_chain_holds


def test_certificate_rejects_hyperbolic_theta():
    with pytest.raises(PreconditionError):
        no_bad_break_certificate(F(3, 2), 2)


def test_certificate_lines_are_deterministic():
    a = no_bad_break_certificate(F(3, 10), 2).lines()
    b = no_bad_break_certificate(F(3, 10), 2).lines()
    assert a == b
    assert a[-1] == "verdict: breaking-excluded"


def test_small_sweep_is_clean():
    result = sweep_no_bad_break(max_degree=25, max_denominator=12, theta_upper=4)
    assert result.ok
    assert result.certificates_checked > 1000


def _brute_force_sweep(max_degree, max_denominator, theta_upper):
    """Every (theta, d) pair decided by the certificate formula, one by one."""
    checked, bad = 0, []
    for q in range(3, max_denominator + 1):
        for p in range(1, theta_upper * q):
            if gcd(p, q) != 1:
                continue
            ft = p // q
            for d in range(1, max_degree + 1):
                fdt, fd1t = d * p // q, (d + 1) * p // q
                checked += 1
                if fd1t == fdt + ft and d * (fd1t - 2 * ft - 1) - (d - 1) * fdt >= 0:
                    bad.append((F(p, q), d))
    return checked, sorted(bad)


def test_residue_sweep_matches_brute_force():
    # Degree caps below, at and at multiples of the denominators.
    for max_degree in range(1, 41):
        for max_denominator in range(3, 17):
            for theta_upper in (1, 2, 3):
                result = sweep_no_bad_break(max_degree, max_denominator, theta_upper)
                checked, bad = _brute_force_sweep(max_degree, max_denominator, theta_upper)
                assert result.certificates_checked == checked
                assert list(result.counterexamples) == bad


def test_residue_data_matches_certificates():
    # For d = k*q + j: condition A is decided by j alone, and where it
    # holds the writhe slack is s_j + k*c_j.
    for q in range(3, 12):
        for p in range(1, 3 * q):
            if gcd(p, q) != 1:
                continue
            residues = {j: (s, c) for j, s, c in _index_zero_residues(p, q, q)}
            for d in range(1, 4 * q + 2):
                k, j = divmod(d, q)
                cert = no_bad_break_certificate(F(p, q), d)
                assert (j in residues) == cert.index_zero_identity
                if j in residues:
                    s, c = residues[j]
                    assert s + k * c == cert.writhe_slack


def test_sweep_solves_each_residue_class_exactly(monkeypatch):
    # The real residue data never yields a counterexample, so the solve over
    # k runs here on synthetic data where c_j takes every sign.  Like the
    # real data, it depends on p only through p mod q.
    def residues(p, q, count):
        return [(j, (p % q + j) % 5 - 2, j % 3 - 1) for j in range(count)]

    monkeypatch.setattr(writhe, "_index_zero_residues", residues)
    for max_degree in range(1, 31):
        for max_denominator in (3, 5, 8, 10):
            result = sweep_no_bad_break(max_degree, max_denominator, 2)
            expected = []
            for q in range(3, max_denominator + 1):
                for p in range(1, 2 * q):
                    if gcd(p, q) != 1:
                        continue
                    data = {j: (s, c) for j, s, c in residues(p, q, q)}
                    for d in range(1, max_degree + 1):
                        s, c = data[d % q]
                        if s + (d // q) * c >= 0:
                            expected.append((F(p, q), d))
            assert result.counterexamples == tuple(sorted(expected))
            assert not result.ok


def test_residue_data_depends_on_theta_mod_one():
    for q in range(3, 16):
        for p in range(1, 4 * q):
            if gcd(p, q) == 1:
                assert _index_zero_residues(p, q, q) == _index_zero_residues(p % q, q, q)


def _floors_index_zero_residues(p, q, count):
    """The residue data by way of every floor(j*p/q), j <= count: A is tested
    at each residue j < count, and s_j, c_j read off the two floors."""
    ft = p // q
    t = 2 * ft + 1
    floors = [x // q for x in range(0, (count + 1) * p, p)]
    return [
        (j, j * (b - a - t) + a, q * (b - a - t) + p)
        for j, a, b in zip(range(count), floors, floors[1:])
        if b - a == ft
    ]


def test_residue_walk_matches_the_floors():
    # The walk visits only the r = j*p mod q below q - p mod q; the floors
    # test A at every j.  Counts below q cut residues off at both sides.
    for q in range(3, 41):
        for p in range(1, 4 * q):
            if gcd(p, q) != 1:
                continue
            for count in sorted({1, q // 2, q}):
                got = _index_zero_residues(p, q, count)
                want = _floors_index_zero_residues(p, q, count)
                assert len(got) == len(set(got))
                assert set(got) == set(want), (p, q, count)


def test_sweep_decides_each_theta_mod_one_once(monkeypatch):
    calls = []

    def counting(p, q, count):
        calls.append((p, q))
        return _index_zero_residues(p, q, count)

    monkeypatch.setattr(writhe, "_index_zero_residues", counting)
    sweep_no_bad_break(40, 16, 5)
    assert all(p < q for p, q in calls)
    totient = sum(sum(gcd(p, q) == 1 for p in range(1, q)) for q in range(3, 17))
    assert len(calls) == totient


def test_certificate_count_scales_with_theta_upper():
    one = sweep_no_bad_break(30, 12, 1).certificates_checked
    assert sweep_no_bad_break(30, 12, 1000).certificates_checked == 1000 * one


def test_writhe_slack_under_index_zero_identity():
    # Under A, the slack is floor(d*theta) - d*(floor(theta)+1), which the
    # witness line shows is negative.
    held = 0
    for q in range(3, 13):
        for p in range(1, 3 * q):
            if gcd(p, q) != 1:
                continue
            for d in range(1, 4 * q + 2):
                cert = no_bad_break_certificate(F(p, q), d)
                if cert.index_zero_identity:
                    held += 1
                    expected = cert.floor_d_theta - d * (cert.floor_theta + 1)
                    assert cert.writhe_slack == expected
                    assert cert.writhe_slack < 0
    assert held > 0


@pytest.mark.parametrize(
    "bounds", [(0, 12, 2), (-5, 12, 2), (10, 2, 2), (10, 12, 0)]
)
def test_sweep_rejects_empty_grids(bounds):
    with pytest.raises(PreconditionError):
        sweep_no_bad_break(*bounds)
