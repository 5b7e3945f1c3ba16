"""Command-line surface with deterministic report emission.

Every report starts with a schema line and contains only exact rationals
and integers; identical invocations produce byte-identical report bodies.
Exit codes: 0 success or all checks passed, 1 a verification reported a
failure, 2 usage or input errors.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import fields
from fractions import Fraction
from functools import lru_cache

from .buildings import (
    classify_buildings,
    enumerate_buildings,
    verify_propositions,
)
from .complexes import (
    build_complex,
    gluing_count,
    homology_ranks,
    render_homology_report,
    verify_d_squared,
)
from .errors import CCHError, DegenerateOrbitError, EnumerationLimitError, UsageError
from .orbits import (
    CurveData,
    RotationData,
    cover_is_good,
    cover_type,
    cz_of_rotation,
    fredholm_index,
)
from .scenario import (
    _is_digits,
    format_rational,
    parse_orbit_key,
    parse_rational,
    parse_scenario,
)
from .writhe import (
    BreakingVerdict,
    EndSide,
    improved_writhe_bound,
    no_bad_break_certificate,
    sweep_no_bad_break,
    wind_bound,
    writhe_bound,
)

SCHEMA_LINE = "schema: cch-report/1"
TIME_LIMIT_ENV = "CCH_TIME_LIMIT"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message, self.format_usage())


def _integer(text):
    """An integer flag: ASCII digits after at most one "-", as scenario files read them."""
    if _is_digits(text.removeprefix("-")):
        with suppress(ValueError):  # more digits than int() converts
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _time_limit():
    raw = os.environ.get(TIME_LIMIT_ENV)
    if raw is None:
        return None
    # Fraction builds 10**exponent, so "1e999999999" would run for hours.
    if len(raw.lower().partition("e")[2].strip().lstrip("+-")) > 2:
        raise UsageError(f"{TIME_LIMIT_ENV} needs an exponent of at most two digits, got {raw!r}")
    try:
        limit = Fraction(raw)  # exact; refuses inf and nan
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"{TIME_LIMIT_ENV} must be a number, got {raw!r}")
    if limit <= 0:
        raise UsageError(f"{TIME_LIMIT_ENV} must be a positive number of seconds, got {raw!r}")
    return limit


def _report(command, lines):
    return "\n".join([SCHEMA_LINE, f"command: {command}"] + lines) + "\n"


def _scenario_echo(scenario):
    lines = []
    for o in scenario.orbits:
        lines.append(
            f"orbit {o.name}: theta={format_rational(o.theta)} "
            f"bound={o.validity_bound} class={o.homotopy_class} "
            f"contractible={str(o.contractible).lower()}"
        )
    p = scenario.profile
    lines.append(
        "profile: "
        + " ".join(f"{f.name}={str(getattr(p, f.name)).lower()}" for f in fields(p))
    )
    b = scenario.bounds
    lines.append(
        f"bounds: levels={b.max_levels} multiplicity={b.max_total_multiplicity} "
        f"index={b.max_index} components={b.max_components_per_level} "
        f"negative_ends={b.max_negative_ends}"
    )
    return lines


def _cover(args):
    """--theta and the cz of its --mult cover, the one cover that must be nondegenerate."""
    theta = parse_rational(args.theta, "--theta")
    if args.mult < 1:
        raise UsageError("--mult must be >= 1")
    try:
        return theta, cz_of_rotation(theta, args.mult)
    except DegenerateOrbitError:
        raise UsageError(f"--theta {format_rational(theta)} degenerates at --mult {args.mult}")


@contextmanager
def _printable(flags="--theta and --mult"):
    """A usage error for str()'s ValueError past sys.get_int_max_str_digits()."""
    try:
        yield
    except ValueError:
        raise UsageError(f"{flags} give an integer too long to print")


def _cmd_cz(args):
    theta, cz = _cover(args)
    with _printable():
        lines = [
            f"theta: {format_rational(theta)}",
            f"multiplicity: {args.mult}",
            f"cz: {cz}",
            f"type: {cover_type(theta, args.mult).value}",
            f"good: {str(cover_is_good(theta, args.mult)).lower()}",
            f"grading: {cz - 1}" if args.contractible
            else "grading: unavailable (orbit not marked contractible)",
        ]
    return 0, _report("cz", lines)


def _parse_orbit_flag(text):
    if "=" not in text or ":" not in text:
        raise UsageError(f"--orbit expects name=p/q:bound, got {text!r}")
    name, _, rest = text.partition("=")
    theta_text, _, bound_text = rest.rpartition(":")
    theta = parse_rational(theta_text, f"--orbit {name}")
    try:
        bound = _integer(bound_text)
    except argparse.ArgumentTypeError:
        raise UsageError(f"--orbit bound must be an integer, got {bound_text!r}")
    if bound < 1:
        raise UsageError(f"--orbit bound must be >= 1, got {bound}")
    return RotationData(name, theta, bound)


def _cmd_index(args):
    if args.genus < 0:
        raise UsageError(f"--genus must be >= 0, got {args.genus}")
    if not args.positive:
        raise UsageError("--positive is required: a curve has at least one positive end")
    orbits = {}
    for text in args.orbit:
        orbit = _parse_orbit_flag(text)
        if orbit.name in orbits:
            raise UsageError(f"duplicate orbit name {orbit.name!r}")
        orbits[orbit.name] = orbit
    positive = tuple(parse_orbit_key(t, orbits, "--positive") for t in args.positive)
    negative = tuple(parse_orbit_key(t, orbits, "--negative") for t in args.negative)
    curve = CurveData(args.genus, positive, negative, args.c_tau)
    with _printable("--orbit, --genus, --c-tau, --positive and --negative"):
        lines = [
            "curve: genus={} c_tau={} positive={} negative={}".format(
                args.genus,
                args.c_tau,
                ",".join(args.positive) or "-",
                ",".join(args.negative) or "-",
            ),
            f"euler-characteristic: {curve.euler_characteristic}",
            f"index: {fredholm_index(curve)}",
        ]
    return 0, _report("index", lines)


def _building_line(b, classification=None):
    tag = "" if classification is None else f"class={classification} "
    return (
        f"building: index={b.total_index} levels={len(b.levels)} "
        f"negative-ends={len(b.negative_ends)} {tag}key={b.key}"
    )


# A search stopped by a limit reports what it found under "partial: true"
# and exits 2.


def _cmd_enumerate(args):
    scenario = parse_scenario(args.scenario)
    lines = _scenario_echo(scenario)
    code = 0
    try:
        buildings = enumerate_buildings(
            scenario.orbits, scenario.profile, scenario.bounds, time_limit=_time_limit()
        )
    except EnumerationLimitError as err:
        lines.append("partial: true")
        buildings, code = err.partial, 2
    lines.append(f"buildings: {len(buildings)}")
    lines.extend(_building_line(b) for b in buildings)
    return code, _report("enumerate", lines)


def _cmd_verify_props(args):
    scenario = parse_scenario(args.scenario)
    lines = _scenario_echo(scenario)
    try:
        report = verify_propositions(
            scenario.orbits, scenario.profile, scenario.bounds, time_limit=_time_limit()
        )
        code = 0 if report.ok else 1
    except EnumerationLimitError as err:
        lines.append("partial: true")
        report, code = classify_buildings(err.partial), 2
    lines.extend(_building_line(e.building, e.classification) for e in report.entries)
    lines.extend(report.lines())
    return code, _report("verify-props", lines)


def _cmd_no_bad_break(args):
    grid_flags = (
        ("--max-degree", "max_degree", 200, 1),
        ("--max-denominator", "max_denominator", 50, 3),
        ("--theta-upper", "theta_upper", 10, 1),
    )
    other_mode = (("--theta", "theta"), ("--d", "degree")) if args.grid else grid_flags
    for flag, name, *_ in other_mode:
        if getattr(args, name) is not None:
            mode = "with" if args.grid else "without"
            raise UsageError(f"{flag} cannot be used {mode} --grid")
    if args.grid:
        for flag, name, default, least in grid_flags:
            if getattr(args, name) is None:
                setattr(args, name, default)
            value = getattr(args, name)
            if value < least:
                raise UsageError(f"{flag} must be >= {least}, got {value}")
        result = sweep_no_bad_break(args.max_degree, args.max_denominator, args.theta_upper)
        lines = [
            "mode: grid",
            f"max-degree: {args.max_degree}",
            f"max-denominator: {args.max_denominator}",
            f"theta-upper: {args.theta_upper}",
            f"certificates: {result.certificates_checked}",
            f"counterexamples: {len(result.counterexamples)}",
        ]
        for theta, d in result.counterexamples:
            lines.append(f"counterexample: theta={format_rational(theta)} degree={d}")
        lines.append(
            "verdict: " + ("A-and-B-unsatisfiable" if result.ok else "counterexample-found")
        )
        return (0 if result.ok else 1), _report("no-bad-break", lines)
    if args.theta is None or args.degree is None:
        raise UsageError("provide --theta and --d, or --grid")
    theta = parse_rational(args.theta, "--theta")
    if args.degree < 1:
        raise UsageError(f"--d must be >= 1, got {args.degree}")
    cert = no_bad_break_certificate(theta, args.degree)
    code = 0 if cert.verdict is not BreakingVerdict.COUNTEREXAMPLE else 1
    with _printable("--theta and --d"):
        return code, _report("no-bad-break", cert.lines())


def _cmd_bounds(args):
    if args.improved and args.side != "positive":
        raise UsageError("--improved applies to --side positive only")
    theta, cz = _cover(args)
    side = EndSide(args.side)
    with _printable():
        lines = [
            f"orbit: theta={format_rational(theta)} multiplicity={args.mult}",
            f"cz: {cz}",
            f"side: {args.side}",
            f"wind-bound: {wind_bound(cz, side)}",
            f"writhe-bound: {writhe_bound(cz, args.mult, side)}",
        ]
        if args.improved:
            lines.append(f"improved-writhe-bound: {improved_writhe_bound(cz, args.mult)}")
    return 0, _report("bounds", lines)


def _cmd_gluing(args):
    for name in ("d_plus", "d_minus", "d_middle"):
        if getattr(args, name) < 1:
            raise UsageError(f"{name} must be >= 1, got {getattr(args, name)}")
    out = gluing_count(args.d_plus, args.d_minus, args.d_middle)
    return 0, _report("gluing", [f"ends={out.count} degree={out.end_degree}"])


def _cmd_complex(args):
    scenario = parse_scenario(args.scenario)
    lines = _scenario_echo(scenario)
    max_mult = max((o.validity_bound for o in scenario.orbits), default=1)
    cx = build_complex(
        scenario.orbits,
        max_mult,
        scenario.relative_gradings,
        *scenario.count_table(),
    )
    lines.append(f"generators: {len(cx.generators)}")
    report = verify_d_squared(cx)
    lines.extend(report.lines())
    if report.ok:
        ranks = homology_ranks(cx)
        lines.extend(render_homology_report(ranks))
    return (0 if report.ok else 1), _report("complex", lines)


@lru_cache(maxsize=None)
def _build_parser():
    """The argparse tree, built on first use (not at import) and reused."""
    parser = _Parser(prog="cch", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("cz", help="Conley-Zehnder data of an orbit cover")
    p.set_defaults(run=_cmd_cz)
    p.add_argument("--theta", required=True)
    p.add_argument("--mult", type=_integer, required=True)
    p.add_argument("--contractible", action="store_true")

    p = sub.add_parser("index", help="Fredholm index of a curve")
    p.set_defaults(run=_cmd_index)
    p.add_argument("--orbit", action="append", default=[], metavar="name=p/q:bound")
    p.add_argument("--genus", type=_integer, default=0)
    p.add_argument("--c-tau", dest="c_tau", type=_integer, default=0)
    p.add_argument("--positive", action="append", default=[], metavar="name^m")
    p.add_argument("--negative", action="append", default=[], metavar="name^m")

    p = sub.add_parser("enumerate", help="list building skeletons for a scenario")
    p.set_defaults(run=_cmd_enumerate)
    p.add_argument("--scenario", required=True)

    p = sub.add_parser("verify-props", help="check low-index building claims")
    p.set_defaults(run=_cmd_verify_props)
    p.add_argument("--scenario", required=True)

    p = sub.add_parser("no-bad-break", help="breaking-exclusion certificates")
    p.set_defaults(run=_cmd_no_bad_break)
    p.add_argument("--theta")
    p.add_argument("--d", dest="degree", type=_integer)
    p.add_argument("--grid", action="store_true")
    p.add_argument("--max-degree", type=_integer)
    p.add_argument("--max-denominator", type=_integer)
    p.add_argument("--theta-upper", type=_integer)

    p = sub.add_parser("bounds", help="winding and writhe bounds of a braided end")
    p.set_defaults(run=_cmd_bounds)
    p.add_argument("--theta", required=True)
    p.add_argument("--mult", type=_integer, required=True)
    p.add_argument("--side", choices=("positive", "negative"), required=True)
    p.add_argument("--improved", action="store_true")

    p = sub.add_parser("gluing", help="index-two gluing end count")
    p.set_defaults(run=_cmd_gluing)
    p.add_argument("d_plus", type=_integer)
    p.add_argument("d_minus", type=_integer)
    p.add_argument("d_middle", type=_integer)

    p = sub.add_parser("complex", help="build and verify a chain complex")
    p.set_defaults(run=_cmd_complex)
    p.add_argument("--scenario", required=True)

    return parser


def run_command(argv):
    """Execute one CLI invocation; returns (exit code, report text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.command is None:
            raise UsageError("missing subcommand", parser.format_usage())
        return args.run(args)
    except UsageError as err:
        usage = err.usage or parser.format_usage()
        return 2, usage + f"error: {err}\n"
    except CCHError as err:
        return 2, _report("error", [f"error: {err}"])


def main(argv=None):
    code, text = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
