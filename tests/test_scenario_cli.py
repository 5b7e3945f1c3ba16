import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cch.buildings import EnumerationBounds, GenericityProfile
from cch.cli import run_command
from cch.errors import ScenarioError
from cch.scenario import (
    CountRecord,
    Scenario,
    emit_scenario,
    format_rational,
    parse_rational,
    parse_scenario,
    parse_scenario_text,
)
from cch.orbits import OrbitRef, RotationData

F = Fraction

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

MINIMAL = """
{
  "orbits": [
    {"name": "a", "theta": "6/5", "validity_bound": 4,
     "homotopy_class": "0", "contractible": true}
  ],
  "profile": {"generic_J": true, "dynamically_convex": true, "condition_star": true},
  "bounds": {}
}
"""


# ------------------------------------------------------------------ parsing


def test_minimal_scenario_parses():
    s = parse_scenario_text(MINIMAL)
    assert s.orbits[0].name == "a"
    assert s.orbits[0].theta == F(6, 5)
    assert s.bounds == EnumerationBounds()
    assert s.profile.dynamically_convex


def test_zero_denominator_rejected():
    text = MINIMAL.replace("6/5", "5/0")
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(text)
    assert "theta" in str(err.value)


def test_counts_must_reference_declared_orbits():
    doc = json.loads(MINIMAL)
    doc["counts"] = [{"alpha": "zz^1", "beta": "a^1", "sign": 1, "cover_degree": 1}]
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    assert "zz" in str(err.value)


def test_counts_multiplicity_within_validity():
    doc = json.loads(MINIMAL)
    doc["counts"] = [{"alpha": "a^9", "beta": "a^1", "sign": 1, "cover_degree": 1}]
    with pytest.raises(ScenarioError):
        parse_scenario_text(json.dumps(doc))


def test_duplicate_orbit_names_rejected():
    doc = json.loads(MINIMAL)
    doc["orbits"].append(dict(doc["orbits"][0]))
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    assert "duplicate" in str(err.value)


def test_json_syntax_error_carries_position():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("{ nope }")
    assert ":1:" in str(err.value)


def test_rational_formatting():
    assert format_rational(F(7)) == "7"
    assert format_rational(F(-3, 2)) == "-3/2"
    assert parse_rational("-3/2") == F(-3, 2)
    assert parse_rational("4") == F(4)


# ---------------------------------------------------------------- round trip

names = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def scenarios(draw):
    count = draw(st.integers(1, 3))
    chosen = draw(st.permutations(["a", "b", "c", "d", "e"]))[:count]
    orbits = []
    for name in chosen:
        hyp = draw(st.booleans())
        if hyp:
            t = draw(st.integers(-5, 5))
            theta = F(t) if draw(st.booleans()) else t + F(1, 2)
            bound = draw(st.integers(1, 40))
        else:
            q = draw(st.integers(3, 30))
            p = draw(st.integers(1, 90))
            theta = F(p, q)
            if theta.denominator <= 2:
                theta = F(p * q + 1, q) if q > 2 else F(1, 3)
            bound = draw(st.integers(1, theta.denominator - 1))
        orbits.append(
            RotationData(
                name,
                theta,
                bound,
                homotopy_class=draw(st.sampled_from(["0", "t"])),
                contractible=draw(st.booleans()),
                action=F(draw(st.integers(1, 9)), draw(st.integers(1, 4)))
                if draw(st.booleans())
                else None,
            )
        )
    profile = GenericityProfile(
        draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    )
    bounds = EnumerationBounds(
        max_levels=draw(st.integers(1, 6)),
        max_total_multiplicity=draw(st.integers(1, 8)),
        max_index=draw(st.integers(0, 5)),
        max_components_per_level=draw(st.integers(1, 5)),
        max_negative_ends=draw(st.integers(0, 2)),
    )
    gradings = {}
    counts = []
    first = orbits[0]
    if draw(st.booleans()):
        gradings[f"{first.name}^1"] = draw(st.integers(-5, 5))
    if draw(st.booleans()) and len(orbits) > 1:
        counts.append(
            CountRecord(
                f"{orbits[0].name}^1",
                f"{orbits[1].name}^1",
                1,
                1,
                OrbitRef(orbits[0], 1),
                OrbitRef(orbits[1], 1),
            )
        )
    return Scenario(tuple(orbits), profile, bounds, gradings, tuple(counts))


@given(scenarios())
@settings(max_examples=60)
def test_emit_parse_round_trip(scenario):
    text = emit_scenario(scenario)
    again = parse_scenario_text(text)
    assert again == scenario
    assert emit_scenario(again) == text


def test_shipped_scenarios_parse_and_round_trip():
    for path in sorted(SCENARIOS.glob("*.json")):
        s = parse_scenario(path)
        assert parse_scenario_text(emit_scenario(s)) == s


# ------------------------------------------------------------------ commands


def test_cz_command():
    code, text = run_command(["cz", "--theta", "3/2", "--mult", "2"])
    assert code == 0
    assert text.startswith("schema: cch-report/1\n")
    assert "cz: 6" in text
    assert "type: positive-hyperbolic" in text
    assert "good: false" in text


def test_cz_command_grading():
    code, text = run_command(["cz", "--theta", "6/5", "--mult", "1", "--contractible"])
    assert code == 0
    assert "cz: 3" in text
    assert "grading: 2" in text


def test_cz_degenerate_theta_is_an_input_error():
    code, text = run_command(["cz", "--theta", "7/5", "--mult", "5"])
    assert code == 2
    assert "error" in text


def test_index_command():
    code, text = run_command(
        [
            "index",
            "--orbit", "a=6/5:4",
            "--positive", "a^3",
            "--negative", "a^1",
            "--negative", "a^2",
        ]
    )
    assert code == 0
    assert "index: 0" in text
    assert "euler-characteristic: -1" in text


def test_gluing_command():
    code, text = run_command(["gluing", "2", "3", "6"])
    assert code == 0
    assert "ends=1 degree=1" in text


def test_gluing_command_divisibility_error():
    code, text = run_command(["gluing", "2", "3", "4"])
    assert code == 2


def test_no_bad_break_single():
    code, text = run_command(["no-bad-break", "--theta", "3/10", "--d", "2"])
    assert code == 0
    assert "verdict: breaking-excluded" in text


def test_no_bad_break_hypothesis_not_met():
    code, text = run_command(["no-bad-break", "--theta", "5/7", "--d", "2"])
    assert code == 0
    assert "verdict: index-hypothesis-not-met" in text


def test_no_bad_break_grid_seed_does_not_change_output():
    args = [
        "no-bad-break", "--grid",
        "--max-degree", "12",
        "--max-denominator", "8",
        "--theta-upper", "3",
    ]
    code0, text0 = run_command(args)
    code1, text1 = run_command(args + ["--seed", "7"])
    code2, text2 = run_command(args + ["--seed", "99"])
    assert code0 == code1 == code2 == 0
    assert text0 == text1 == text2
    assert "verdict: A-and-B-unsatisfiable" in text0


def test_bounds_command():
    code, text = run_command(
        ["bounds", "--theta", "6/5", "--mult", "3", "--side", "positive", "--improved"]
    )
    assert code == 0
    assert "wind-bound: 3" in text
    assert "writhe-bound: 6" in text
    assert "improved-writhe-bound: 4" in text


def test_bounds_command_improved_negative_side_fails():
    code, text = run_command(
        ["bounds", "--theta", "6/5", "--mult", "3", "--side", "negative", "--improved"]
    )
    assert code == 2


def test_unknown_subcommand_usage():
    code, text = run_command(["frobnicate"])
    assert code == 2
    assert "usage" in text.lower()


def test_enumerate_command_deterministic():
    path = str(SCENARIOS / "convex_small.json")
    code1, text1 = run_command(["enumerate", "--scenario", path])
    code2, text2 = run_command(["enumerate", "--scenario", path])
    assert code1 == code2 == 0
    assert text1 == text2
    assert "buildings:" in text1


def test_verify_props_command():
    path = str(SCENARIOS / "convex_small.json")
    code, text = run_command(["verify-props", "--scenario", path])
    assert code == 0
    assert "counterexamples: 0" in text


def test_complex_command_passes_on_shipped_scenarios():
    for name in ("ellipsoid_like.json", "split_cancel.json"):
        code, text = run_command(["complex", "--scenario", str(SCENARIOS / name)])
        assert code == 0, text
        assert "delta-kappa-delta zero: pass" in text


def test_complex_command_reports_failure(tmp_path):
    doc = json.loads((SCENARIOS / "split_cancel.json").read_text())
    for entry in doc["counts"]:
        if entry["alpha"] == "b^1" and entry["sign"] == -1:
            entry["sign"] = 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, text = run_command(["complex", "--scenario", str(bad)])
    assert code == 1
    assert "delta-kappa-delta zero: fail" in text
    assert "nonzero entry" in text


def test_scenario_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, text = run_command(["enumerate", "--scenario", str(bad)])
    assert code == 2


def test_time_limit_env_truncates(monkeypatch):
    monkeypatch.setenv("CCH_TIME_LIMIT", "1e-9")
    path = str(SCENARIOS / "convex_small.json")
    code, text = run_command(["enumerate", "--scenario", path])
    assert code == 2
    assert "partial: true" in text or "error" in text


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_time_limit_env_must_be_finite_and_positive(monkeypatch, value):
    monkeypatch.setenv("CCH_TIME_LIMIT", value)
    path = str(SCENARIOS / "convex_small.json")
    code, text = run_command(["enumerate", "--scenario", path])
    assert code == 2
    assert "error: CCH_TIME_LIMIT" in text
    assert "partial" not in text


# SHA-256 of every enumerate and verify-props report on the shipped
# scenarios (verify-props exits 2 where the profile is not generic and
# dynamically convex).  A change to the enumerator must keep them.
REPORT_DIGESTS = {
    ("convex_small.json", "enumerate"): (0, "f484842e229a0968f77593794b6a369120c508d5a3d42d242785ca0236925687"),
    ("convex_small.json", "verify-props"): (0, "16da7a1272fe581f86f975c389b28f6adc3d39e4e178f34d1f9ad16d6859f051"),
    ("ellipsoid_like.json", "enumerate"): (0, "72cd0493b4714130c4620cf9a80cf77d0baa5ebddfefe6034de8ccedc871a2c8"),
    ("ellipsoid_like.json", "verify-props"): (0, "8fe0c1b8169650acfd58c83fe7ddd3c78edf6454fc1b915852526bb5abe4dd23"),
    ("estimate_suite.json", "enumerate"): (0, "2fd059ffa869a261cd3123d6fe475814d5a9ca82f77ad1933d581d1d550dff43"),
    ("estimate_suite.json", "verify-props"): (2, "c8f9d5ad387c4621f9eaef9d4ab516b3b541189898f12a54ca81139e3b508c81"),
    ("split_cancel.json", "enumerate"): (0, "0290266e3963a421d1bf6242decd496762e6bd8490598d1a64378a55b11d1bde"),
    ("split_cancel.json", "verify-props"): (2, "c8f9d5ad387c4621f9eaef9d4ab516b3b541189898f12a54ca81139e3b508c81"),
}


def test_shipped_scenario_reports_match_pinned_digests():
    got = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        for command in ("enumerate", "verify-props"):
            code, text = run_command([command, "--scenario", str(path)])
            got[path.name, command] = (code, hashlib.sha256(text.encode()).hexdigest())
    assert got == REPORT_DIGESTS


def test_reports_contain_no_decimal_points():
    for args in (
        ["cz", "--theta", "3/2", "--mult", "2"],
        ["gluing", "2", "3", "6"],
        ["no-bad-break", "--theta", "3/10", "--d", "2"],
        ["bounds", "--theta", "233/144", "--mult", "2", "--side", "positive"],
    ):
        _, text = run_command(args)
        assert "." not in text.replace("A-and-B-unsatisfiable", "")
