import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cch import cli
from cch.buildings import EnumerationBounds, GenericityProfile
from cch.cli import run_command
from cch.complexes import build_complex
from cch.errors import ScenarioError
from cch.scenario import (
    Scenario,
    emit_scenario,
    format_rational,
    parse_orbit_key,
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


def _count(alpha, beta="a^1", sign=1):
    return {"alpha": alpha, "beta": beta, "sign": sign, "cover_degree": 1}


def test_repeated_bad_count_key_reports_its_first_occurrence():
    doc = json.loads(MINIMAL)
    doc["counts"] = [_count("a^2"), _count("a^2", "a^9"), _count("a^9"), _count("a^9")]
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    assert err.value.location == "scenario.counts[1].beta"
    assert str(err.value) == (
        "scenario.counts[1].beta: multiplicity 9 outside validity bound 4"
    )


def test_list_valued_count_key_is_a_scenario_error():
    doc = json.loads(MINIMAL)
    doc["counts"] = [_count("a^2"), _count(["a^2"])]
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    assert str(err.value) == (
        "scenario.counts[1].alpha: expected 'name^multiplicity', got ['a^2']"
    )


GOOD = _count("a^2")


def _with(**changes):
    return {**GOOD, **changes}


def _without(key):
    return {k: v for k, v in GOOD.items() if k != key}


# Each malformed record follows a good one, so its index is not 0.  The
# (message, location) pairs were taken from the record-by-record parser
# that preceded the one-pass count loop.
@pytest.mark.parametrize(
    "counts, message, location",
    [
        ([GOOD, ["a^2", "a^1", 1, 1]], "count entry must be an object", ""),
        ([GOOD, _without("alpha")], "missing required field 'alpha'", ""),
        ([GOOD, _without("beta")], "missing required field 'beta'", ""),
        ([GOOD, _without("sign")], "missing required field 'sign'", ""),
        ([GOOD, _without("cover_degree")], "missing required field 'cover_degree'", ""),
        ([GOOD, _with(sign=True)], "expected an integer, got True", ".sign"),
        ([GOOD, _with(sign="1")], "expected an integer, got '1'", ".sign"),
        ([GOOD, _with(sign=0)], "sign must be 1 or -1, got 0", ".sign"),
        ([GOOD, _with(sign=2)], "sign must be 1 or -1, got 2", ".sign"),
        ([GOOD, _with(cover_degree=0)], "cover_degree must be >= 1", ".cover_degree"),
        ([GOOD, _with(cover_degree=1.0)], "expected an integer, got 1.0", ".cover_degree"),
        ([GOOD, _with(cover_degree="2")], "expected an integer, got '2'", ".cover_degree"),
        ([GOOD, _with(alpha="zz^1")], "orbit 'zz' is not declared", ".alpha"),
        ([GOOD, _with(beta="a^5")], "multiplicity 5 outside validity bound 4", ".beta"),
        (
            [GOOD, _with(alpha="a^02"), _with(alpha="a^02", beta="a^x")],
            "bad multiplicity in 'a^x'",
            ".beta",
        ),
        # Check order within a record: ends before sign before degree.
        (
            [GOOD, {"alpha": "a^7", "beta": "a^1"}],
            "multiplicity 7 outside validity bound 4",
            ".alpha",
        ),
        ([GOOD, {**_without("cover_degree"), "sign": -2}], "sign must be 1 or -1, got -2", ".sign"),
        (
            [GOOD, {"beta": "zz^1", "sign": 1, "cover_degree": 1}],
            "missing required field 'alpha'",
            "",
        ),
    ],
)
def test_malformed_count_record_error_bytes(counts, message, location):
    doc = json.loads(MINIMAL)
    doc["counts"] = counts
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    expected = f"scenario.counts[{len(counts) - 1}]{location}"
    assert (str(err.value), err.value.location) == (f"{expected}: {message}", expected)


def test_count_keys_spelled_two_ways_sum_into_one_entry():
    doc = _graded_pair({"a^1": 1, "b^1": 0})
    doc["counts"] = [_count("a^01", "b^1"), _count("a^1", "b^01")]
    s = parse_scenario_text(json.dumps(doc))
    assert [key for key, _ in s.covers] == ["a^01", "b^1", "a^1", "b^01"]
    cx = build_complex(s.orbits, 4, s.relative_gradings, *s.count_table())
    a, b = (cx.generators.index(OrbitRef(o, 1)) for o in s.orbits)
    assert cx.boundary == {a: {b: 2}}
    emitted = json.loads(emit_scenario(s))["counts"]
    assert [(c["alpha"], c["beta"]) for c in emitted] == [("a^01", "b^1"), ("a^1", "b^01")]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"validity_bound": 5}, "theta=6/5 degenerates at multiplicity 5 <= validity bound 5"),
        ({"validity_bound": 0}, "validity bound must be >= 1, got 0"),
        ({"action": "0"}, "action must be positive"),
    ],
)
def test_invalid_orbit_data_exits_2_naming_the_orbit_entry(tmp_path, change, message):
    doc = json.loads(MINIMAL)
    doc["orbits"][0].update(name="e", **change)
    path = tmp_path / "orbit.json"
    path.write_text(json.dumps(doc))
    code, text = run_command(["enumerate", "--scenario", str(path)])
    assert code == 2
    assert f"error: {path}.orbits[0]: orbit 'e': {message}\n" in text


def test_duplicate_orbit_names_rejected():
    doc = json.loads(MINIMAL)
    doc["orbits"].append(dict(doc["orbits"][0]))
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    assert "duplicate" in str(err.value)


def _graded_pair(gradings):
    doc = json.loads(MINIMAL)
    doc["orbits"] = [
        {"name": n, "theta": t, "validity_bound": 4, "homotopy_class": "f",
         "contractible": False}
        for n, t in (("a", "6/5"), ("b", "7/5"))
    ]
    doc["relative_gradings"] = gradings
    doc["counts"] = [{"alpha": "a^1", "beta": "b^1", "sign": 1, "cover_degree": 1}]
    return doc


def test_relative_grading_keys_are_read_by_their_canonical_spelling(tmp_path):
    reports = []
    for key in ("a^1", "a^01"):
        doc = _graded_pair({key: 7})
        assert parse_scenario_text(json.dumps(doc)).relative_gradings == {"a^1": 7}
        path = tmp_path / "graded.json"
        path.write_text(json.dumps(doc))
        reports.append(run_command(["complex", "--scenario", str(path)]))
    assert reports[0] == reports[1]
    assert reports[0][0] == 2
    assert "grading must drop by one, got 7 -> 2" in reports[0][1]


def test_relative_grading_cover_spelled_twice_rejected():
    doc = _graded_pair({"a^1": 7, "a^01": 7})
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    assert err.value.location == "scenario.relative_gradings['a^1']"
    assert "'a^1' names a^1, which already has a grading" in str(err.value)


def test_grading_of_a_bad_orbit_exits_2_naming_it(tmp_path):
    doc = json.loads(MINIMAL)
    doc["orbits"] = [{"name": "h", "theta": "1/2", "validity_bound": 4,
                      "homotopy_class": "f", "contractible": False}]
    doc["relative_gradings"] = {"h^2": 7, "h^1": 3}
    path = tmp_path / "bad_grading.json"
    path.write_text(json.dumps(doc))
    code, text = run_command(["complex", "--scenario", str(path)])
    assert code == 2
    assert "error: h^2 is a bad orbit and not a generator" in text


@pytest.mark.parametrize(
    "profile", ["generic_J", 5, ["generic_J", "dynamically_convex", "condition_star"]]
)
def test_profile_that_is_not_an_object_is_a_scenario_error(tmp_path, profile):
    doc = json.loads(MINIMAL)
    doc["profile"] = profile
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    code, text = run_command(["enumerate", "--scenario", str(path)])
    assert code == 2
    assert f"error: {path}.profile: profile must be an object\n" in text


@pytest.mark.parametrize("name, value", [("max_levels", 0), ("max_negative_ends", -1)])
def test_out_of_range_bounds_name_their_location(tmp_path, name, value):
    doc = json.loads(MINIMAL)
    doc["bounds"][name] = value
    path = tmp_path / "bounds.json"
    path.write_text(json.dumps(doc))
    code, text = run_command(["enumerate", "--scenario", str(path)])
    assert code == 2
    assert f"error: {path}.bounds: enumeration bounds must be positive\n" in text


@pytest.mark.parametrize("name, value", [("theta", False), ("theta", True), ("action", True)])
def test_rational_fields_reject_json_booleans(name, value):
    doc = json.loads(MINIMAL)
    doc["orbits"][0][name] = value
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    assert err.value.location == f"scenario.orbits[0].{name}"
    assert f"expected a rational string, got {value!r}" in str(err.value)


def _misspell(doc, path, key, wrong):
    """doc with the key at path (a list of keys and indices) renamed."""
    parent = doc
    for step in path:
        parent = parent[step]
    parent[wrong] = parent.pop(key)
    return doc


@pytest.mark.parametrize(
    "path, key, wrong, message, location",
    [
        ([], "counts", "count", "unknown scenario field 'count'", "scenario"),
        (["orbits", 0], "action", "acton", "unknown orbit field 'acton'", "scenario.orbits[0]"),
        (
            ["profile"],
            "condition_star",
            "condition_start",
            "missing required field 'condition_star'",
            "scenario.profile",
        ),
        (["bounds"], "max_levels", "max_level", "unknown bounds field 'max_level'", "scenario.bounds"),
        (["counts", 1], "sign", "sgn", "missing required field 'sign'", "scenario.counts[1]"),
    ],
)
def test_misspelled_keys_are_scenario_errors(path, key, wrong, message, location):
    doc = json.loads(MINIMAL)
    doc["orbits"][0]["action"] = "1"
    doc["bounds"]["max_levels"] = 3
    doc["counts"] = [dict(GOOD), dict(GOOD)]
    parse_scenario_text(json.dumps(doc))
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(_misspell(doc, path, key, wrong)))
    assert (str(err.value), err.value.location) == (f"{location}: {message}", location)


@pytest.mark.parametrize(
    "path, location, what",
    [
        ([], "scenario", "scenario"),
        (["orbits", 0], "scenario.orbits[0]", "orbit"),
        (["profile"], "scenario.profile", "profile"),
        (["counts", 1], "scenario.counts[1]", "count"),
    ],
)
def test_unknown_keys_are_scenario_errors(path, location, what):
    doc = json.loads(MINIMAL)
    doc["counts"] = [dict(GOOD), dict(GOOD)]
    parent = doc
    for step in path:
        parent = parent[step]
    parent["zz"] = parent["extra"] = 1
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    # The least unknown key is named.
    assert (str(err.value), err.value.location) == (
        f"{location}: unknown {what} field 'extra'", location
    )


def test_internal_covers_field_is_not_a_scenario_key(tmp_path):
    # Scenario.covers is filled from the count keys; as a top-level key it
    # is unknown, like any other.
    doc = json.loads((SCENARIOS / "split_cancel.json").read_text())
    doc["covers"] = []
    path = tmp_path / "covers.json"
    path.write_text(json.dumps(doc))
    code, text = run_command(["complex", "--scenario", str(path)])
    assert code == 2
    assert f"error: {path}: unknown scenario field 'covers'\n" in text


def test_split_cancel_stores_no_entry_for_its_cancelling_pair():
    # b^1 -> c^1 and q^2 -> r^2 each carry a +1 and a -1 record.
    s = parse_scenario(SCENARIOS / "split_cancel.json")
    cx = build_complex(s.orbits, 2, s.relative_gradings, *s.count_table())
    keys = [f"{g.base.name}^{g.multiplicity}" for g in cx.generators]
    stored = {
        (keys[j], keys[i]): v for j, column in cx.boundary.items() for i, v in column.items()
    }
    assert stored == {("a^1", "b^1"): 1, ("p^2", "q^2"): 1}


def test_misspelled_counts_key_exits_2_naming_it(tmp_path):
    doc = json.loads((SCENARIOS / "split_cancel.json").read_text())
    path = tmp_path / "count.json"
    path.write_text(json.dumps(_misspell(doc, [], "counts", "count")))
    code, text = run_command(["complex", "--scenario", str(path)])
    assert code == 2
    assert f"error: {path}: unknown scenario field 'count'\n" in text


# "_", an inner space, "+" and a non-ASCII digit all pass int().
@pytest.mark.parametrize("text", ["1_0/3", "1 0/3", "1/ 3", "+1/3", "1/+3", "\u0661/3", "1/\u0663"])
def test_rational_numbers_are_ascii_digits(text):
    with pytest.raises(ScenarioError) as err:
        parse_rational(text, "here")
    assert str(err.value) == f"here: cannot parse rational {text!r}"


@pytest.mark.parametrize("text", ["a^1_0", "a^1 0", "a^ 1", "a^+1", "a^-1", "a^\u0661"])
def test_orbit_key_multiplicities_are_ascii_digits(text):
    orbit = RotationData("a", F(6, 5), 4)
    with pytest.raises(ScenarioError) as err:
        parse_orbit_key(text, {"a": orbit}, "here")
    assert str(err.value) == f"here: bad multiplicity in {text!r}"


def test_strict_numbers_keep_the_accepted_forms():
    orbit = RotationData("a", F(6, 5), 4)
    assert parse_rational(" -3/2 ") == F(-3, 2)
    assert parse_rational("-0") == 0
    assert parse_orbit_key("a^04", {"a": orbit}) == OrbitRef(orbit, 4)
    with pytest.raises(ScenarioError, match="denominator must be positive"):
        parse_rational("1/-2")


# Each integer flag, its value written as V; every one of these runs exits 0
# with V = 4.
INTEGER_FLAGS = {
    "--mult": ["cz", "--theta", "6/5", "--mult", "V"],
    "--genus": ["index", "--genus", "V", "--orbit", "a=6/5:4", "--positive", "a^3"],
    "--c-tau": ["index", "--c-tau", "V", "--orbit", "a=6/5:4", "--positive", "a^3"],
    "--d": ["no-bad-break", "--theta", "3/10", "--d", "V"],
    "--max-degree": ["no-bad-break", "--grid", "--max-degree", "V"],
    "--max-denominator": ["no-bad-break", "--grid", "--max-denominator", "V"],
    "--theta-upper": ["no-bad-break", "--grid", "--theta-upper", "V"],
    "bounds --mult": ["bounds", "--theta", "6/5", "--mult", "V", "--side", "positive"],
    "d_plus": ["gluing", "V", "2", "4"],
    "d_minus": ["gluing", "2", "V", "4"],
    "d_middle": ["gluing", "2", "4", "V"],
    "--orbit": ["index", "--orbit", "a=6/5:V", "--positive", "a^3", "--negative", "a^1"],
}


@pytest.mark.parametrize("value", ["0_4", "+4", " 4", "\u0664"])
@pytest.mark.parametrize("flag", INTEGER_FLAGS)
def test_integer_flags_are_ascii_digits(flag, value):
    # As in scenario files, "_", "+", a space and a non-ASCII digit, all of
    # which int() takes, are a usage error naming the flag.
    def argv(v):
        return [a.replace("V", v) for a in INTEGER_FLAGS[flag]]

    assert run_command(argv("4"))[0] == 0
    code, text = run_command(argv(value))
    assert code == 2
    assert text.startswith("usage:")
    if flag == "--orbit":
        assert text.endswith(f"error: --orbit bound must be an integer, got {value!r}\n")
    else:
        name = flag.split()[-1]
        assert text.endswith(f"error: argument {name}: invalid int value: {value!r}\n")


def test_json_syntax_error_carries_position():
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text("{ nope }")
    assert ":1:" in str(err.value)


# More digits than int() converts from a string (4,300 by default): each
# such number is a ScenarioError at its location, exit 2, not a ValueError.
LONG = "1" * 5000


def test_over_long_theta_flag_exits_2_naming_it():
    code, text = run_command(["cz", "--theta", f"{LONG}/7", "--mult", "1"])
    assert code == 2
    assert "\nerror: --theta: cannot parse rational: " in text and "digits" in text
    assert LONG not in text


def test_over_long_scenario_theta_names_its_location():
    doc = json.loads(MINIMAL)
    doc["orbits"][0]["theta"] = f"{LONG}/7"
    with pytest.raises(ScenarioError) as err:
        parse_scenario_text(json.dumps(doc))
    assert err.value.location == "scenario.orbits[0].theta"
    assert "cannot parse rational: " in str(err.value)


def test_over_long_orbit_key_multiplicity_names_its_location():
    orbit = RotationData("a", F(6, 5), 4)
    with pytest.raises(ScenarioError) as err:
        parse_orbit_key(f"a^{LONG}", {"a": orbit}, "here")
    assert str(err.value).startswith("here: bad multiplicity: ")


def test_over_long_json_integer_exits_2_naming_the_file(tmp_path):
    path = tmp_path / "levels.json"
    path.write_text(MINIMAL.replace('"bounds": {}', f'"bounds": {{"max_levels": {LONG}}}'))
    with pytest.raises(ScenarioError) as err:
        parse_scenario(path)
    assert err.value.location == str(path)
    code, text = run_command(["enumerate", "--scenario", str(path)])
    assert code == 2
    assert f"\nerror: {path}: invalid JSON: " in text and "digits" in text


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
    covers = ()
    if draw(st.booleans()) and len(orbits) > 1:
        counts.append((0, 1, 1, 1))
        covers = tuple((f"{o.name}^1", OrbitRef(o, 1)) for o in orbits[:2])
    return Scenario(tuple(orbits), profile, bounds, gradings, tuple(counts), covers)


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


# SHA-256 of emit_scenario on each shipped scenario: the emitted bytes, not
# only the parse of them, are canonical.
EMIT_DIGESTS = {
    "convex_small.json": "b197d73c13a1124fed734a470426306a78963232f50f4b54ac50a316e7961cc1",
    "ellipsoid_like.json": "1af65f21d29b0f9fffda0021a912ef3689717f35ea45f6d5c3c9a35f19728ee3",
    "estimate_suite.json": "5d830d258801a48f2700b754921697dd2d288ebc8a251f1aa669230222d6f366",
    "split_cancel.json": "4994c50e117b76aaf61eed58de6104c47e324181323830a85127ab36fb374fd2",
}


def test_shipped_scenarios_emit_pinned_bytes():
    got = {
        path.name: hashlib.sha256(emit_scenario(parse_scenario(path)).encode()).hexdigest()
        for path in sorted(SCENARIOS.glob("*.json"))
    }
    assert got == EMIT_DIGESTS


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


def test_successive_index_calls_share_no_append_lists():
    # The parser is built once and reused.  Each call still starts from empty
    # --orbit, --positive and --negative lists: had the first call's values
    # stayed, the second would see orbit a twice and fail.
    first = ["index", "--orbit", "a=6/5:4", "--positive", "a^3", "--negative", "a^1"]
    second = ["index", "--orbit", "a=6/5:4", "--positive", "a^2"]
    assert run_command(first)[0] == 0
    code, text = run_command(second)
    assert code == 0
    assert "curve: genus=0 c_tau=0 positive=a^2 negative=-\n" in text
    assert run_command(second) == (code, text)


def test_parser_is_built_on_first_use_not_at_import():
    probe = "import cch.cli as c; print(c._build_parser.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert out.stdout == "0\n", out.stderr
    run_command(["gluing", "2", "3", "6"])
    assert cli._build_parser() is cli._build_parser()


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


# SHA-256 of `cch no-bad-break --grid` reports: the default grid, one
# where some denominators exceed the degree cap, and a small one.
GRID_DIGESTS = {
    (): "259ab7c551bc5b968dea0b142ca55b7cde1c3a5a8a79aae2ff38dc7646a10119",
    ("--max-degree", "37", "--max-denominator", "23", "--theta-upper", "3"):
        "60ba0b97ca5491b7997e65e504d3063e86777200f64582f22b2016c5a207363f",
    ("--max-degree", "12", "--max-denominator", "8", "--theta-upper", "3"):
        "37e6c55a5c639162eb31b9cdaff4a785c990879647e2124f7755c1bc088cb47e",
}


def test_no_bad_break_grid_reports_match_pinned_digests():
    got = {}
    for extra in GRID_DIGESTS:
        code, text = run_command(["no-bad-break", "--grid", *extra])
        assert code == 0
        assert "verdict: A-and-B-unsatisfiable" in text
        got[extra] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GRID_DIGESTS


def _reports_digest(argvs):
    """SHA-256 over f"{code}\n{text}" of each invocation, in order."""
    digest = hashlib.sha256()
    count = 0
    for argv in argvs:
        code, text = run_command(argv)
        digest.update(f"{code}\n{text}".encode())
        count += 1
    return count, digest.hexdigest()


def test_single_certificate_reports_match_pinned_digest():
    # Every reduced p/q with 3 <= q <= 15 and 0 < p/q < 4, at every degree
    # up to 3q + 1: degrees with q | d and q | d + 1 included.
    argvs = (
        ["no-bad-break", "--theta", f"{p}/{q}", "--d", str(d)]
        for q in range(3, 16)
        for p in range(1, 4 * q)
        if gcd(p, q) == 1
        for d in range(1, 3 * q + 2)
    )
    assert _reports_digest(argvs) == (
        9064,
        "ea1b2233458bb97ba084bd291d2b194b098bc6bef664f039003bf14adca8928e",
    )


def test_bounds_reports_match_pinned_digest():
    # Elliptic, hyperbolic and degenerate covers; the degenerate ones are
    # usage errors, and a cover above a degenerate one is reported.
    argvs = (
        ["bounds", "--theta", theta, "--mult", str(m), *side]
        for theta in ("6/5", "2", "3/2", "233/144", "1/3", "7/5", "5")
        for m in range(1, 9)
        for side in (
            ["--side", "positive"],
            ["--side", "positive", "--improved"],
            ["--side", "negative"],
        )
    )
    assert _reports_digest(argvs) == (
        168,
        "6877c2d30280d09e99ad9bdda917305497335aa0a3c7bc4f769b28921fc93dcf",
    )


@pytest.mark.parametrize(
    "flag, value, least",
    [
        ("--max-degree", "-5", 1),
        ("--max-degree", "0", 1),
        ("--max-denominator", "2", 3),
        ("--theta-upper", "0", 1),
    ],
)
def test_no_bad_break_grid_rejects_empty_grids(flag, value, least):
    code, text = run_command(["no-bad-break", "--grid", flag, value])
    assert code == 2
    assert f"error: {flag} must be >= {least}, got {value}" in text
    assert "certificates" not in text


@pytest.mark.parametrize("extra", [["--theta", "3/10"], ["--d", "2"]])
def test_no_bad_break_grid_rejects_single_flags(extra):
    code, text = run_command(["no-bad-break", "--grid", *extra])
    assert code == 2
    assert f"error: {extra[0]} cannot be used with --grid" in text
    assert "certificates" not in text


@pytest.mark.parametrize(
    "flag, value",
    [("--max-degree", "0"), ("--max-denominator", "50"), ("--theta-upper", "3")],
)
def test_no_bad_break_single_rejects_grid_flags(flag, value):
    code, text = run_command(["no-bad-break", "--theta", "3/10", "--d", "2", flag, value])
    assert code == 2
    assert f"error: {flag} cannot be used without --grid" in text
    assert "verdict" not in text


@pytest.mark.parametrize("value", ["0", "-3"])
def test_no_bad_break_rejects_degree_below_one_naming_the_flag(value):
    code, text = run_command(["no-bad-break", "--theta", "1/3", "--d", value])
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith(f"error: --d must be >= 1, got {value}\n")


@pytest.mark.parametrize("command", ["cz", "bounds"])
def test_mult_below_one_is_a_usage_error_naming_the_flag(command):
    # bounds checks --mult the way cz does, before any orbit is built.
    extra = ["--side", "positive"] if command == "bounds" else []
    code, text = run_command([command, "--theta", "1/3", "--mult", "0", *extra])
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith("error: --mult must be >= 1\n")
    assert "validity bound" not in text


@pytest.mark.parametrize("command", ["cz", "bounds"])
@pytest.mark.parametrize("mult", ["5", "10"])
def test_degenerate_cover_is_a_usage_error_naming_theta_and_mult(command, mult):
    # 5 * 6/5 and 10 * 6/5 are integers: those covers are degenerate.
    extra = ["--side", "positive"] if command == "bounds" else []
    code, text = run_command([command, "--theta", "6/5", "--mult", mult, *extra])
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith(f"error: --theta 6/5 degenerates at --mult {mult}\n")
    assert "validity bound" not in text


@pytest.mark.parametrize("mult", [6, 7, 9, 11])
def test_cover_above_a_degenerate_one_is_reported(mult):
    # Only the cover asked for must be nondegenerate: m * 6/5 is no integer
    # for these m, though the fifth cover is degenerate.
    floor = mult * 6 // 5
    code, text = run_command(["cz", "--theta", "6/5", "--mult", str(mult), "--contractible"])
    assert code == 0
    assert f"\ncz: {2 * floor + 1}\ntype: elliptic\ngood: true\ngrading: {2 * floor}\n" in text
    code, text = run_command(["bounds", "--theta", "6/5", "--mult", str(mult), "--side", "positive"])
    assert code == 0
    assert f"\ncz: {2 * floor + 1}\n" in text
    assert f"\nwrithe-bound: {(mult - 1) * floor}\n" in text


# The largest numerator int() reads by default: its covers' indices have
# more digits than str() writes.
NINES = "9" * 4300


@pytest.mark.parametrize("command", ["cz", "bounds"])
def test_report_integer_longer_than_str_writes_exits_2_naming_the_flags(command):
    extra = ["--side", "positive"] if command == "bounds" else []
    code, text = run_command([command, "--theta", NINES, "--mult", "30", *extra])
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith("error: --theta and --mult give an integer too long to print\n")
    # A rotation number as long whose cover's integers str() still writes.
    code, text = run_command([command, "--theta", "4" * 4300, "--mult", "1", *extra])
    assert code == 0 and f"\ncz: {'8' * 4300}\n" in text


def test_certificate_longer_than_str_writes_exits_2_naming_the_flags():
    code, text = run_command(["no-bad-break", "--theta", f"{NINES}/7", "--d", NINES])
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith("error: --theta and --d give an integer too long to print\n")


@pytest.mark.parametrize(
    "extra", [["--orbit", f"a={NINES}:1"], ["--orbit", "a=1/2:1", "--c-tau", NINES]]
)
def test_index_longer_than_str_writes_exits_2_naming_the_flags(extra):
    code, text = run_command(["index", *extra, "--positive", "a^1"])
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith(
        "error: --orbit, --genus, --c-tau, --positive and --negative give an integer"
        " too long to print\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["index", "--orbit", "a=6/5:4"],
        ["index", "--orbit", "a=6/5:4", "--negative", "a^1"],
    ],
)
def test_index_without_positive_end_is_a_usage_error_naming_the_flag(argv):
    code, text = run_command(argv)
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith(
        "error: --positive is required: a curve has at least one positive end\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["index", "--genus", "-1"], "--genus must be >= 0, got -1"),
        (
            ["index", "--orbit", "a=6/5:4", "--positive", "a^3", "--negative", "a^1",
             "--genus", "-1"],
            "--genus must be >= 0, got -1",
        ),
        (
            ["index", "--orbit", "a=6/5:0", "--positive", "a^1"],
            "--orbit bound must be >= 1, got 0",
        ),
        (["gluing", "0", "1", "1"], "d_plus must be >= 1, got 0"),
        (["gluing", "1", "0", "1"], "d_minus must be >= 1, got 0"),
        (["gluing", "1", "1", "-2"], "d_middle must be >= 1, got -2"),
    ],
)
def test_out_of_range_index_and_gluing_input_is_a_usage_error_naming_it(argv, message):
    # Checked before CurveData, RotationData or gluing_count sees the value.
    code, text = run_command(argv)
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith(f"error: {message}\n")


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
    assert text.startswith("usage:")
    assert text.endswith("error: --improved applies to --side positive only\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["index", "--orbit", "a6/5:4", "--positive", "a^1"],
         "--orbit expects name=p/q:bound, got 'a6/5:4'"),
        (["index", "--orbit", "a=6/5:x", "--positive", "a^1"],
         "--orbit bound must be an integer, got 'x'"),
        (["index", "--orbit", "a=6/5:4", "--orbit", "a=7/5:4", "--positive", "a^1"],
         "duplicate orbit name 'a'"),
        (["no-bad-break"], "provide --theta and --d, or --grid"),
        (["no-bad-break", "--theta", "1/3"], "provide --theta and --d, or --grid"),
        ([], "missing subcommand"),
    ],
)
def test_malformed_command_line_is_a_usage_error_naming_it(argv, message):
    code, text = run_command(argv)
    assert code == 2
    assert text.startswith("usage:")
    assert text.endswith(f"error: {message}\n")


@pytest.mark.parametrize("d_middle", ["6", "4"])
def test_module_entry_point_prints_the_report_and_exits_with_its_code(d_middle):
    argv = ["gluing", "2", "3", d_middle]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-m", "cch", *argv], capture_output=True, text=True, env=env
    )
    assert (out.returncode, out.stdout) == run_command(argv), out.stderr
    assert out.returncode == (0 if d_middle == "6" else 2)


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
    for command in ("enumerate", "verify-props"):
        code, text = run_command([command, "--scenario", path])
        assert code == 2
        assert f"command: {command}\n" in text
        assert "partial: true\n" in text
        assert "error" not in text


def test_time_limit_env_above_any_run_is_no_limit(monkeypatch):
    # 400 nines parse exactly, and the deadline is exact integer nanoseconds.
    path = str(SCENARIOS / "convex_small.json")
    code, unlimited = run_command(["enumerate", "--scenario", path])
    monkeypatch.setenv("CCH_TIME_LIMIT", "9" * 400)
    assert run_command(["enumerate", "--scenario", path]) == (code, unlimited)
    assert code == 0


def test_building_limit_keeps_partial_results(tmp_path):
    # Both commands report the buildings found before the limit, the same
    # ones, and verify-props classifies them.
    doc = json.loads((SCENARIOS / "convex_small.json").read_text())
    doc["bounds"]["max_buildings"] = 7
    path = tmp_path / "limited.json"
    path.write_text(json.dumps(doc))
    keys = {}
    for command in ("enumerate", "verify-props"):
        code, text = run_command([command, "--scenario", str(path)])
        assert code == 2
        assert "partial: true\n" in text
        assert "buildings: 7\n" in text
        lines = [l for l in text.splitlines() if l.startswith("building: ")]
        keys[command] = [l.split(" key=", 1)[1] for l in lines]
    assert len(keys["enumerate"]) == 7
    assert keys["verify-props"] == keys["enumerate"]
    assert "counterexamples: 0\n" in text
    assert all(" class=" in l for l in lines)


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "1/0", "1e400", "1e999999999"])
def test_time_limit_env_must_be_finite_and_positive(monkeypatch, value):
    monkeypatch.setenv("CCH_TIME_LIMIT", value)
    path = str(SCENARIOS / "convex_small.json")
    code, text = run_command(["enumerate", "--scenario", path])
    assert code == 2
    assert "error: CCH_TIME_LIMIT" in text
    assert "partial" not in text


# SHA-256 of every enumerate, verify-props and complex report on the
# shipped scenarios (verify-props exits 2 where the profile is not generic
# and dynamically convex).  A change to the enumerator or the chain complex
# must keep them.
REPORT_DIGESTS = {
    ("convex_small.json", "enumerate"): (0, "f484842e229a0968f77593794b6a369120c508d5a3d42d242785ca0236925687"),
    ("convex_small.json", "verify-props"): (0, "16da7a1272fe581f86f975c389b28f6adc3d39e4e178f34d1f9ad16d6859f051"),
    ("convex_small.json", "complex"): (0, "6d3879b883cd9f49d17f72bbc945093f9ed189631fc41a9763953fd6ecc86610"),
    ("ellipsoid_like.json", "enumerate"): (0, "72cd0493b4714130c4620cf9a80cf77d0baa5ebddfefe6034de8ccedc871a2c8"),
    ("ellipsoid_like.json", "verify-props"): (0, "8fe0c1b8169650acfd58c83fe7ddd3c78edf6454fc1b915852526bb5abe4dd23"),
    ("ellipsoid_like.json", "complex"): (0, "4efa79f18dece0a616481253d27a10a4c6f7736b1f90fcc44fb0392443acf73f"),
    ("estimate_suite.json", "enumerate"): (0, "2fd059ffa869a261cd3123d6fe475814d5a9ca82f77ad1933d581d1d550dff43"),
    ("estimate_suite.json", "verify-props"): (2, "c8f9d5ad387c4621f9eaef9d4ab516b3b541189898f12a54ca81139e3b508c81"),
    ("estimate_suite.json", "complex"): (0, "f0b685493cccd5f692a1c2b1b4159cdf2df296082f0846fb94a61767fe7def4e"),
    ("split_cancel.json", "enumerate"): (0, "0c5e6f4d9cadcda55db5536bfd110511f78b6adf4cbecd6642b19fed542082de"),
    ("split_cancel.json", "verify-props"): (2, "c8f9d5ad387c4621f9eaef9d4ab516b3b541189898f12a54ca81139e3b508c81"),
    ("split_cancel.json", "complex"): (0, "8e4b5865e3339877b7041589720d4c40a4ddde633cecfea9fcfc0edbc78e79ed"),
}

# split_cancel with its two -1 records (counts[2] and counts[5]) flipped
# to +1: delta kappa delta has the nonzero entries a^1 -> c^1: 2 and
# p^2 -> r^2: 1, the second reported as d^2 divided by kappa(p^2) = 2.
FLIPPED_COMPLEX_DIGEST = (1, "c645ac8b99bb16500f56d060d14138f1bbc3308af61b7843c6999e0135f189c7")


# The same at levels 5, multiplicity 8, index 4 on convex_small, where
# buildings reach five levels; the shipped scenarios never do.
DEEP_DIGESTS = {
    "enumerate": "1b0b1a26cecf08a79926a9d42437d5d13aed18972b8b0ccd09b95d1e86a338de",
    "verify-props": "f9f207984041e7eebc56655793e4fb14acc21f7a42fccc99371a5e8f3969a0f1",
}


def test_five_level_reports_match_pinned_digests(tmp_path):
    doc = json.loads((SCENARIOS / "convex_small.json").read_text())
    doc["bounds"].update(max_levels=5, max_total_multiplicity=8, max_index=4)
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    got = {}
    for command in DEEP_DIGESTS:
        code, text = run_command([command, "--scenario", str(path)])
        assert code == 0
        assert "levels=5 " in text
        got[command] = hashlib.sha256(text.encode()).hexdigest()
    assert got == DEEP_DIGESTS


# convex_small at levels 4, index 4 and multiplicity 10 or 12, where most
# enumerated components cannot fit in any building under index 4.
WIDE_DIGESTS = {
    (10, "enumerate"): "37dde25d7a495fcab6acd0c29732ada9c5afe597ce8ea5c608ac2cdfb39756eb",
    (10, "verify-props"): "afeec55f37dff5e2ec3f5cecb7855e6b650c5e24232a318826a24ec51a55b031",
    (12, "enumerate"): "88d6c6dc6efbed0eec8d4cc2de2be9b395d029abd45757d091eafc765da11e3d",
    (12, "verify-props"): "06959976ff6d9601624c2009f4ece0281536aaf9fc52928207ea9ed78d727de1",
}


@pytest.mark.parametrize("multiplicity, command", sorted(WIDE_DIGESTS))
def test_wide_multiplicity_reports_match_pinned_digests(tmp_path, multiplicity, command):
    doc = json.loads((SCENARIOS / "convex_small.json").read_text())
    doc["bounds"].update(max_levels=4, max_total_multiplicity=multiplicity, max_index=4)
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, text = run_command([command, "--scenario", str(path)])
    assert code == 0
    assert hashlib.sha256(text.encode()).hexdigest() == WIDE_DIGESTS[multiplicity, command]


def test_shipped_scenario_reports_match_pinned_digests():
    got = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        for command in ("enumerate", "verify-props", "complex"):
            code, text = run_command([command, "--scenario", str(path)])
            got[path.name, command] = (code, hashlib.sha256(text.encode()).hexdigest())
    assert got == REPORT_DIGESTS


def test_failing_complex_report_matches_pinned_digest(tmp_path):
    doc = json.loads((SCENARIOS / "split_cancel.json").read_text())
    for k in (2, 5):
        assert doc["counts"][k]["sign"] == -1
        doc["counts"][k]["sign"] = 1
    path = tmp_path / "flipped.json"
    path.write_text(json.dumps(doc))
    code, text = run_command(["complex", "--scenario", str(path)])
    assert "nonzero entry: a^1 -> c^1: 2\nnonzero entry: p^2 -> r^2: 1\n" in text
    assert (code, hashlib.sha256(text.encode()).hexdigest()) == FLIPPED_COMPLEX_DIGEST


def test_reports_contain_no_decimal_points():
    for args in (
        ["cz", "--theta", "3/2", "--mult", "2"],
        ["gluing", "2", "3", "6"],
        ["no-bad-break", "--theta", "3/10", "--d", "2"],
        ["bounds", "--theta", "233/144", "--mult", "2", "--side", "positive"],
    ):
        _, text = run_command(args)
        assert "." not in text.replace("A-and-B-unsatisfiable", "")
