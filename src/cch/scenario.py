"""Scenario files: parsing, validation, canonical emission.

A scenario is a JSON document with orbit data, a genericity profile,
enumeration bounds, and optionally relative gradings and cylinder counts.
Rationals travel as "p/q" strings (integers as "p") so no value ever
round-trips through floating point.  Emission is canonical: parsing the
emitted text reproduces the scenario exactly.
Profile and bounds are read and written by their dataclass fields; a
malformed profile or bounds is a ScenarioError naming its location (exit 2).
So is a key that no field reads, at any level, and a number that is not
ASCII digits (a numerator may carry a leading "-").
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .buildings import EnumerationBounds, GenericityProfile
from .errors import OrbitDataError, PreconditionError, ScenarioError
from .orbits import OrbitRef, RotationData, format_orbit


def _is_digits(text) -> bool:
    """ASCII digits only: int() would also take "_", spaces, "+" and
    non-ASCII digits."""
    return text.isascii() and text.isdigit()


def parse_rational(text, location="rational") -> Fraction:
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if not isinstance(text, str):
        raise ScenarioError(f"expected a rational string, got {text!r}", location)
    parts = text.strip().split("/")
    if len(parts) <= 2 and all(_is_digits(p.removeprefix("-")) for p in parts):
        try:
            num, den = int(parts[0]), int(parts[-1]) if len(parts) == 2 else 1
        except ValueError as err:  # more digits than int() converts
            raise ScenarioError(f"cannot parse rational: {err}", location) from None
        if den <= 0:
            raise ScenarioError(f"denominator must be positive in {text!r}", location)
        return Fraction(num, den)
    raise ScenarioError(f"cannot parse rational {text!r}", location)


def format_rational(value: Fraction) -> str:
    return str(Fraction(value))


def parse_orbit_key(text, orbits_by_name, location="orbit reference") -> OrbitRef:
    if not isinstance(text, str) or "^" not in text:
        raise ScenarioError(f"expected 'name^multiplicity', got {text!r}", location)
    name, _, mult = text.rpartition("^")
    if name not in orbits_by_name:
        raise ScenarioError(f"orbit {name!r} is not declared", location)
    if not _is_digits(mult):
        raise ScenarioError(f"bad multiplicity in {text!r}", location)
    try:
        m = int(mult)
    except ValueError as err:  # more digits than int() converts
        raise ScenarioError(f"bad multiplicity: {err}", location) from None
    orbit = orbits_by_name[name]
    if not 1 <= m <= orbit.validity_bound:
        raise ScenarioError(
            f"multiplicity {m} outside validity bound {orbit.validity_bound}",
            location,
        )
    return OrbitRef(orbit, m)


@dataclass(frozen=True)
class Scenario:
    """Parsed scenario data.  counts holds rows (alpha, beta, sign,
    cover_degree) of ints in file order, alpha and beta indexing covers:
    one (key as written, cover) pair per distinct spelling, in order of
    first use, so that emission writes every key back as written."""

    orbits: tuple
    profile: GenericityProfile
    bounds: EnumerationBounds
    relative_gradings: Mapping = field(default_factory=dict)
    counts: tuple = ()
    covers: tuple = ()

    def count_table(self) -> tuple:
        """(counts, covers) as build_complex takes them: the count rows
        (alpha, beta, sign, cover_degree) in file order, and the cover that
        each alpha and beta indexes.  The CLI could read both fields; kept
        only because perfbench/tracing.py times it by name."""
        return self.counts, tuple(ref for _, ref in self.covers)


def _require(mapping, key, location):
    if key not in mapping:
        raise ScenarioError(f"missing required field {key!r}", location)
    return mapping[key]


def _as_bool(value, location):
    if not isinstance(value, bool):
        raise ScenarioError(f"expected true/false, got {value!r}", location)
    return value


def _as_int(value, location):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"expected an integer, got {value!r}", location)
    return value


def _reject_unknown(mapping, known, what, location):
    unknown = mapping.keys() - known
    if unknown:
        raise ScenarioError(f"unknown {what} field {min(unknown)!r}", location)


# Spelled out: covers is filled from the count keys, never read as a key.
_SCENARIO_FIELDS = frozenset(("orbits", "profile", "bounds", "relative_gradings", "counts"))
_ORBIT_FIELDS = frozenset(f.name for f in fields(RotationData))
_PROFILE_FIELDS = frozenset(f.name for f in fields(GenericityProfile))
_BOUNDS_FIELDS = frozenset(f.name for f in fields(EnumerationBounds))
_COUNT_FIELDS = frozenset(("alpha", "beta", "sign", "cover_degree"))


def _parse_orbit(entry, location) -> RotationData:
    if not isinstance(entry, dict):
        raise ScenarioError("orbit entry must be an object", location)
    name = _require(entry, "name", location)
    if not isinstance(name, str) or not name:
        raise ScenarioError("orbit name must be a nonempty string", location)
    theta = parse_rational(_require(entry, "theta", location), f"{location}.theta")
    bound = _as_int(
        _require(entry, "validity_bound", location), f"{location}.validity_bound"
    )
    cls = _require(entry, "homotopy_class", location)
    if not isinstance(cls, str):
        raise ScenarioError("homotopy_class must be a string", f"{location}.homotopy_class")
    contractible = _as_bool(
        _require(entry, "contractible", location), f"{location}.contractible"
    )
    action = None
    if entry.get("action") is not None:
        action = parse_rational(entry["action"], f"{location}.action")
    _reject_unknown(entry, _ORBIT_FIELDS, "orbit", location)
    try:
        return RotationData(name, theta, bound, cls, contractible, action)
    except OrbitDataError as err:
        raise ScenarioError(str(err), location) from err


def parse_scenario_text(text: str, source="scenario") -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"invalid JSON: {err.msg}", f"{source}:{err.lineno}:{err.colno}"
        ) from err
    except ValueError as err:  # an integer with more digits than int() converts
        raise ScenarioError(f"invalid JSON: {err}", source) from None
    if not isinstance(data, dict):
        raise ScenarioError("scenario must be a JSON object", source)

    raw_orbits = _require(data, "orbits", source)
    if not isinstance(raw_orbits, list):
        raise ScenarioError("orbits must be an array", f"{source}.orbits")
    orbits = []
    seen = set()
    for i, entry in enumerate(raw_orbits):
        orbit = _parse_orbit(entry, f"{source}.orbits[{i}]")
        if orbit.name in seen:
            raise ScenarioError(
                f"duplicate orbit name {orbit.name!r}", f"{source}.orbits[{i}].name"
            )
        seen.add(orbit.name)
        orbits.append(orbit)

    loc = f"{source}.profile"
    raw_profile = _require(data, "profile", source)
    if not isinstance(raw_profile, dict):
        raise ScenarioError("profile must be an object", loc)
    profile = GenericityProfile(
        **{
            f.name: _as_bool(_require(raw_profile, f.name, loc), f"{loc}.{f.name}")
            for f in fields(GenericityProfile)
        }
    )
    _reject_unknown(raw_profile, _PROFILE_FIELDS, "profile", loc)

    loc = f"{source}.bounds"
    raw_bounds = _require(data, "bounds", source)
    if not isinstance(raw_bounds, dict):
        raise ScenarioError("bounds must be an object", loc)
    kwargs = {
        f.name: _as_int(raw_bounds[f.name], f"{loc}.{f.name}")
        for f in fields(EnumerationBounds)
        if f.name in raw_bounds
    }
    _reject_unknown(raw_bounds, _BOUNDS_FIELDS, "bounds", loc)
    try:
        bounds = EnumerationBounds(**kwargs)
    except PreconditionError as err:
        raise ScenarioError(str(err), loc) from err

    by_name = {o.name: o for o in orbits}
    gradings = {}
    raw_gradings = data.get("relative_gradings", {})
    if not isinstance(raw_gradings, dict):
        raise ScenarioError(
            "relative_gradings must be an object", f"{source}.relative_gradings"
        )
    for key in sorted(raw_gradings):
        loc = f"{source}.relative_gradings[{key!r}]"
        canonical = format_orbit(parse_orbit_key(key, by_name, loc))
        if canonical in gradings:
            raise ScenarioError(
                f"{key!r} names {canonical}, which already has a grading", loc
            )
        gradings[canonical] = _as_int(raw_gradings[key], loc)

    counts = []
    raw_counts = data.get("counts", [])
    if not isinstance(raw_counts, list):
        raise ScenarioError("counts must be an array", f"{source}.counts")
    # Each spelling of a key is resolved once, to its index in covers, and
    # records spelled alike share it.  Only resolutions that succeed are
    # kept, so a bad key raises where it first occurs.  A record's location
    # is formatted only where one of its checks fails.
    index = {}
    covers = []

    def at(i, field=""):
        return f"{source}.counts[{i}]{field}"

    def resolve(key, location):
        covers.append((key, parse_orbit_key(key, by_name, location)))
        return len(covers) - 1

    for i, entry in enumerate(raw_counts):
        if not isinstance(entry, dict):
            raise ScenarioError("count entry must be an object", at(i))
        try:
            alpha = entry["alpha"]
            beta = entry["beta"]
        except KeyError as err:
            raise ScenarioError(f"missing required field {err.args[0]!r}", at(i)) from None
        try:
            a = index[alpha]
        except (KeyError, TypeError):  # a new spelling, or not a string
            a = index[alpha] = resolve(alpha, at(i, ".alpha"))
        try:
            b = index[beta]
        except (KeyError, TypeError):
            b = index[beta] = resolve(beta, at(i, ".beta"))
        try:
            sign = entry["sign"]
        except KeyError:
            raise ScenarioError("missing required field 'sign'", at(i)) from None
        if type(sign) is not int or sign not in (1, -1):
            _as_int(sign, at(i, ".sign"))
            raise ScenarioError(f"sign must be 1 or -1, got {sign}", at(i, ".sign"))
        try:
            degree = entry["cover_degree"]
        except KeyError:
            raise ScenarioError("missing required field 'cover_degree'", at(i)) from None
        if type(degree) is not int or degree < 1:
            _as_int(degree, at(i, ".cover_degree"))
            raise ScenarioError("cover_degree must be >= 1", at(i, ".cover_degree"))
        # All four fields are present, so any other key makes five.
        if len(entry) != 4:
            _reject_unknown(entry, _COUNT_FIELDS, "count", at(i))
        counts.append((a, b, sign, degree))

    _reject_unknown(data, _SCENARIO_FIELDS, "scenario", source)
    return Scenario(tuple(orbits), profile, bounds, gradings, tuple(counts), tuple(covers))


def parse_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError(f"cannot read scenario: {err}", str(path)) from err
    return parse_scenario_text(text, source=str(path))


def _fields_doc(obj) -> dict:
    """The fields of a dataclass instance in declaration order, fractions
    as "p/q" strings and unset (None) fields left out."""
    doc = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if value is not None:
            doc[f.name] = format_rational(value) if isinstance(value, Fraction) else value
    return doc


def emit_scenario(s: Scenario) -> str:
    doc = {
        "orbits": [_fields_doc(o) for o in s.orbits],
        "profile": _fields_doc(s.profile),
        "bounds": _fields_doc(s.bounds),
    }
    if s.relative_gradings:
        doc["relative_gradings"] = {k: s.relative_gradings[k] for k in sorted(s.relative_gradings)}
    if s.counts:
        keys = [key for key, _ in s.covers]
        doc["counts"] = [
            {"alpha": keys[a], "beta": keys[b], "sign": sign, "cover_degree": degree}
            for a, b, sign, degree in s.counts
        ]
    return json.dumps(doc, indent=2) + "\n"
