"""Scenario files: parsing, validation, canonical emission.

A scenario is a JSON document with orbit data, a genericity profile,
enumeration bounds, and optionally relative gradings and cylinder counts.
Rationals travel as "p/q" strings (integers as "p") so no value ever
round-trips through floating point.  Emission is canonical: parsing the
emitted text reproduces the scenario exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Mapping

from .buildings import EnumerationBounds, GenericityProfile
from .complexes import CylinderCount, ModuliCountTable
from .errors import ScenarioError
from .orbits import OrbitRef, RotationData


def parse_rational(text, location="rational") -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ScenarioError(f"expected a rational string, got {text!r}", location)
    parts = text.strip().split("/")
    try:
        if len(parts) == 1:
            return Fraction(int(parts[0]))
        if len(parts) == 2:
            num, den = int(parts[0]), int(parts[1])
            if den <= 0:
                raise ScenarioError(f"denominator must be positive in {text!r}", location)
            return Fraction(num, den)
    except ValueError:
        pass
    raise ScenarioError(f"cannot parse rational {text!r}", location)


def format_rational(value: Fraction) -> str:
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def parse_orbit_key(text, orbits_by_name, location="orbit reference") -> OrbitRef:
    if not isinstance(text, str) or "^" not in text:
        raise ScenarioError(f"expected 'name^multiplicity', got {text!r}", location)
    name, _, mult = text.rpartition("^")
    if name not in orbits_by_name:
        raise ScenarioError(f"orbit {name!r} is not declared", location)
    try:
        m = int(mult)
    except ValueError:
        raise ScenarioError(f"bad multiplicity in {text!r}", location) from None
    orbit = orbits_by_name[name]
    if not 1 <= m <= orbit.validity_bound:
        raise ScenarioError(
            f"multiplicity {m} outside validity bound {orbit.validity_bound}",
            location,
        )
    return OrbitRef(orbit, m)


@dataclass(frozen=True, slots=True)
class CountRecord:
    """A count entry: the cover keys as written, which emission writes back,
    and the covers they name, resolved once when the entry is parsed."""

    alpha: str
    beta: str
    sign: int
    cover_degree: int
    alpha_ref: OrbitRef
    beta_ref: OrbitRef


@dataclass(frozen=True)
class Scenario:
    orbits: tuple
    profile: GenericityProfile
    bounds: EnumerationBounds
    relative_gradings: Mapping = field(default_factory=dict)
    counts: tuple = ()

    def count_table(self) -> ModuliCountTable:
        entries = {}
        for rec in self.counts:
            entries.setdefault((rec.alpha_ref, rec.beta_ref), []).append(
                CylinderCount(rec.sign, rec.cover_degree)
            )
        return ModuliCountTable(entries)


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
    try:
        return RotationData(name, theta, bound, cls, contractible, action)
    except Exception as err:
        raise ScenarioError(str(err), location) from err


def parse_scenario_text(text: str, source="scenario") -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ScenarioError(
            f"invalid JSON: {err.msg}", f"{source}:{err.lineno}:{err.colno}"
        ) from err
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

    raw_profile = _require(data, "profile", source)
    loc = f"{source}.profile"
    profile = GenericityProfile(
        generic_J=_as_bool(_require(raw_profile, "generic_J", loc), loc + ".generic_J"),
        dynamically_convex=_as_bool(
            _require(raw_profile, "dynamically_convex", loc), loc + ".dynamically_convex"
        ),
        condition_star=_as_bool(
            _require(raw_profile, "condition_star", loc), loc + ".condition_star"
        ),
    )

    raw_bounds = _require(data, "bounds", source)
    if not isinstance(raw_bounds, dict):
        raise ScenarioError("bounds must be an object", f"{source}.bounds")
    defaults = EnumerationBounds()
    kwargs = {}
    for name in (
        "max_levels",
        "max_total_multiplicity",
        "max_index",
        "max_components_per_level",
        "max_negative_ends",
        "max_buildings",
    ):
        if name in raw_bounds:
            kwargs[name] = _as_int(raw_bounds[name], f"{source}.bounds.{name}")
        else:
            kwargs[name] = getattr(defaults, name)
    unknown = set(raw_bounds) - set(kwargs)
    if unknown:
        raise ScenarioError(
            f"unknown bounds field {sorted(unknown)[0]!r}", f"{source}.bounds"
        )
    bounds = EnumerationBounds(**kwargs)

    by_name = {o.name: o for o in orbits}
    gradings = {}
    raw_gradings = data.get("relative_gradings", {})
    if not isinstance(raw_gradings, dict):
        raise ScenarioError(
            "relative_gradings must be an object", f"{source}.relative_gradings"
        )
    for key in sorted(raw_gradings):
        loc = f"{source}.relative_gradings[{key!r}]"
        parse_orbit_key(key, by_name, loc)
        gradings[key] = _as_int(raw_gradings[key], loc)

    counts = []
    raw_counts = data.get("counts", [])
    if not isinstance(raw_counts, list):
        raise ScenarioError("counts must be an array", f"{source}.counts")
    for i, entry in enumerate(raw_counts):
        loc = f"{source}.counts[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError("count entry must be an object", loc)
        alpha = _require(entry, "alpha", loc)
        beta = _require(entry, "beta", loc)
        alpha_ref = parse_orbit_key(alpha, by_name, loc + ".alpha")
        beta_ref = parse_orbit_key(beta, by_name, loc + ".beta")
        sign = _as_int(_require(entry, "sign", loc), loc + ".sign")
        if sign not in (1, -1):
            raise ScenarioError(f"sign must be 1 or -1, got {sign}", loc + ".sign")
        degree = _as_int(_require(entry, "cover_degree", loc), loc + ".cover_degree")
        if degree < 1:
            raise ScenarioError("cover_degree must be >= 1", loc + ".cover_degree")
        counts.append(CountRecord(alpha, beta, sign, degree, alpha_ref, beta_ref))

    return Scenario(tuple(orbits), profile, bounds, gradings, tuple(counts))


def parse_scenario(path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as err:
        raise ScenarioError(f"cannot read scenario: {err}", str(path)) from err
    return parse_scenario_text(text, source=str(path))


def emit_scenario(s: Scenario) -> str:
    doc = {
        "orbits": [
            {
                "name": o.name,
                "theta": format_rational(o.theta),
                "validity_bound": o.validity_bound,
                "homotopy_class": o.homotopy_class,
                "contractible": o.contractible,
                **({"action": format_rational(o.action)} if o.action is not None else {}),
            }
            for o in s.orbits
        ],
        "profile": {
            "generic_J": s.profile.generic_J,
            "dynamically_convex": s.profile.dynamically_convex,
            "condition_star": s.profile.condition_star,
        },
        "bounds": {
            "max_levels": s.bounds.max_levels,
            "max_total_multiplicity": s.bounds.max_total_multiplicity,
            "max_index": s.bounds.max_index,
            "max_components_per_level": s.bounds.max_components_per_level,
            "max_negative_ends": s.bounds.max_negative_ends,
            "max_buildings": s.bounds.max_buildings,
        },
    }
    if s.relative_gradings:
        doc["relative_gradings"] = {k: s.relative_gradings[k] for k in sorted(s.relative_gradings)}
    if s.counts:
        doc["counts"] = [
            {
                "alpha": r.alpha,
                "beta": r.beta,
                "sign": r.sign,
                "cover_degree": r.cover_degree,
            }
            for r in s.counts
        ]
    return json.dumps(doc, indent=2) + "\n"
