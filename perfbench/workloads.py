"""Seeded inputs, jobs and correctness oracles for the four workloads.

Each workload writes its inputs into one directory: the scenario file the
program reads, and `spec.json`, which holds the sizes, the argument lists
and the oracle's expectations.  Only the scenario files reach the program.

Why not the shipped scenarios: each shipped scenario runs in under a
second, too short to time steadily against process start and machine
noise.  Every workload here keeps the shape of a shipped scenario (or of
an acceptance test) and grows its bounds until one job takes seconds.

The seed varies only rotation numbers or matrix entries, never the shape.
Rotation numbers are drawn from the same index class as the shipped ones,
that is with the same floor(m * theta) for every multiplicity the program
looks at, so every Conley-Zehnder index and therefore the amount of work
is the same for every seed.  Item counts are still recorded per run, so
any drift in work size from one seed to another shows.

This module must not import cch: the job process times that import.
"""
from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import floor, gcd
from pathlib import Path

WORKLOADS = ("search", "sweep", "complex_zero", "complex_dense")

FULL = {
    # convex_small shape at levels 4, multiplicity 7, index 4: 849 buildings.
    "search": {"levels": 4, "multiplicity": 7, "index": 4},
    # estimate_suite shape at its default bounds, then a 12.2M-certificate grid.
    "sweep": {"multiplicity": 6, "max_degree": 400, "max_denominator": 100},
    # Two-orbit Beatty surrogate with 609 + 376 = 985 generators and zero
    # differential, the 985-generator point of the roadmap's table.
    "complex_zero": {"bounds": (609, 376)},
    # Four blocks of k generators with dense rank-deficient M and Q.
    "complex_dense": {"k": 60},
}

TINY = {
    "search": {"levels": 2, "multiplicity": 3, "index": 3},
    "sweep": {"multiplicity": 4, "max_degree": 12, "max_denominator": 9},
    "complex_zero": {"bounds": (20, 12)},
    "complex_dense": {"k": 4},
}

SCENARIO = "scenario.json"
SPEC = "spec.json"

_PROFILE_CONVEX = {"generic_J": True, "dynamically_convex": True, "condition_star": True}
_PROFILE_GENERIC = {"generic_J": True, "dynamically_convex": False, "condition_star": False}


def _fmt(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def _orbit(name, theta, bound, cls, contractible):
    return {
        "name": name,
        "theta": theta if isinstance(theta, str) else _fmt(theta),
        "validity_bound": bound,
        "homotopy_class": cls,
        "contractible": contractible,
    }


def same_index_theta(rng, theta: Fraction, cap: int, min_den: int) -> Fraction:
    """A random rational with floor(m*x) == floor(m*theta) for m = 1..cap.

    Such an x gives every cover up to multiplicity cap the same
    Conley-Zehnder index as theta.  Its denominator is at least min_den,
    which callers choose above the validity bound and above 2*cap, so no
    cover in range is degenerate or changes type.
    """
    target = [floor(theta * m) for m in range(1, cap + 1)]
    base = floor(theta)
    while True:
        den = rng.randrange(min_den, 4 * min_den)
        nums = [
            p
            for p in range(base * den + 1, (base + 1) * den)
            if gcd(p, den) == 1
            and all((m * p) // den == t for m, t in zip(range(1, cap + 1), target))
        ]
        if nums:
            return Fraction(rng.choice(nums), den)


def exact_rank(rows) -> int:
    """Rank over the rationals by plain Gaussian elimination on Fractions.

    Independent of cch.linalg, which uses fraction-free elimination.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        head = m[rank]
        for i in range(rank + 1, len(m)):
            factor = m[i][col] / head[col]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], head)]
        rank += 1
    return rank


def certificate_count(max_degree, max_denominator, theta_upper=10) -> int:
    """Closed form of the grid size, as in acceptance criterion 4."""
    return max_degree * sum(
        1
        for q in range(3, max_denominator + 1)
        for p in range(1, theta_upper * q)
        if gcd(p, q) == 1
    )


# ------------------------------------------------------------------ inputs


def _search(rng, size):
    # convex_small: elliptic e (6/5, bound 4), hyperbolic p, non-contractible h.
    cap = min(4, size["multiplicity"])
    e = same_index_theta(rng, Fraction(6, 5), cap, 2 * cap + 1)
    scenario = {
        "orbits": [
            _orbit("e", e, 4, "0", True),
            _orbit("p", "2", 30, "0", True),
            _orbit("h", "1/2", 30, "f", False),
        ],
        "profile": _PROFILE_CONVEX,
        "bounds": {
            "max_levels": size["levels"],
            "max_total_multiplicity": size["multiplicity"],
            "max_index": size["index"],
        },
    }
    return scenario, {"bounds": scenario["bounds"]}


def _sweep(rng, size):
    # estimate_suite: seven orbits in one non-contractible class.  The
    # elliptic ones are redrawn within their index class; the hyperbolic
    # ones (c, d, e) have no freedom that keeps their indices.
    top = size["multiplicity"]
    orbits = []
    for name, theta, bound in (
        ("a", "6/5", 4),
        ("b", "233/144", 100),
        ("c", "1/2", 100),
        ("d", "3/2", 100),
        ("e", "2", 100),
        ("f", "3/10", 9),
        ("g", "7/5", 4),
    ):
        value = Fraction(theta)
        if value.denominator > 2:
            cap = min(bound, top)
            value = same_index_theta(rng, value, cap, max(bound, 2 * cap) + 1)
        orbits.append(_orbit(name, value, bound, "f", False))
    scenario = {
        "orbits": orbits,
        "profile": _PROFILE_GENERIC,
        "bounds": {"max_total_multiplicity": top},
    }
    grid = [
        "no-bad-break",
        "--grid",
        "--max-degree",
        str(size["max_degree"]),
        "--max-denominator",
        str(size["max_denominator"]),
    ]
    spec = {
        "grid_argv": grid,
        "certificates": certificate_count(size["max_degree"], size["max_denominator"]),
    }
    return scenario, spec


def _complex_zero(rng, size):
    # theta1 = a/b and theta2 = a/(a-b) satisfy 1/theta1 + 1/theta2 = 1, so
    # their floor sequences are disjoint (Beatty) while multiples stay below
    # the denominators; the bounds sit just below them.
    b1, b2 = size["bounds"]
    while True:
        b = rng.randrange(b1 + 1, b1 + 1 + max(2, b1 // 8))
        lo, hi = b + b2 + 1, 2 * b
        if lo >= hi:
            continue
        a = rng.randrange(lo, hi)
        if gcd(a, b) == 1:
            break
    theta1, theta2 = Fraction(a, b), Fraction(a, a - b)
    scenario = {
        "orbits": [
            _orbit("g1", theta1, b1, "0", True),
            _orbit("g2", theta2, b2, "0", True),
        ],
        "profile": _PROFILE_CONVEX,
        "bounds": {},
    }
    return scenario, {"generators": b1 + b2, "homology": beatty_homology(scenario)}


def beatty_homology(scenario):
    """Floor-sequence oracle of scripts/beatty_homology.py: with zero
    differential, one class per floor value v, in grading 2v."""
    values = set()
    cls = scenario["orbits"][0]["homotopy_class"]
    for orbit in scenario["orbits"]:
        theta = Fraction(orbit["theta"])
        for m in range(1, orbit["validity_bound"] + 1):
            v = floor(theta * m)
            if v in values:
                raise ValueError(f"floor collision at {v}: not a Beatty pair")
            values.add(v)
    return [[cls, 2 * v, 1] for v in sorted(values)]


def _rank_deficient(rng, k, rank):
    """k x k entries in {-2,-1,1,2}: `rank` random rows, the rest repeats."""
    base = [[rng.choice((-2, -1, 1, 2)) for _ in range(k)] for _ in range(rank)]
    rows = base + [list(rng.choice(base)) for _ in range(k - rank)]
    rng.shuffle(rows)
    return rows


def _complex_dense(rng, size):
    # Generators u (grading 2), v, w (grading 1), z (grading 0), k each, as
    # the covers 1..k of four orbits in class f.  delta u = (Mu, Mu),
    # delta v = Qv, delta w = -Qw; v^m and w^m share multiplicity m, so
    # delta kappa delta = Q kappa M - Q kappa M = 0 exactly.
    k = size["k"]
    m_rows = _rank_deficient(rng, k, k - k // 4)
    q_rows = _rank_deficient(rng, k, k - k // 2)
    counts = []

    def add(matrix, src, dst, sign):
        for i, row in enumerate(matrix):
            for j, value in enumerate(row):
                s = sign if value > 0 else -sign
                rec = {"alpha": f"{src}^{j + 1}", "beta": f"{dst}^{i + 1}", "sign": s, "cover_degree": 1}
                counts.extend([rec] * abs(value))

    add(m_rows, "u", "v", 1)
    add(m_rows, "u", "w", 1)
    add(q_rows, "v", "z", 1)
    add(q_rows, "w", "z", -1)
    grades = {"u": 2, "v": 1, "w": 1, "z": 0}
    scenario = {
        "orbits": [_orbit(name, "1", k, "f", False) for name in grades],
        "profile": _PROFILE_GENERIC,
        "bounds": {},
        "relative_gradings": {
            f"{name}^{m}": g for name, g in grades.items() for m in range(1, k + 1)
        },
        "counts": counts,
    }
    rk_m, rk_q = exact_rank(m_rows), exact_rank(q_rows)
    homology = [["f", g, r] for g, r in ((0, k - rk_q), (1, 2 * k - rk_m - rk_q), (2, k - rk_m)) if r]
    spec = {"generators": 4 * k, "rank_M": rk_m, "rank_Q": rk_q, "homology": homology}
    return scenario, spec


_GENERATORS = {
    "search": _search,
    "sweep": _sweep,
    "complex_zero": _complex_zero,
    "complex_dense": _complex_dense,
}


def generate(workload, seed, out_dir, size):
    """Write the scenario and spec for (workload, seed) into out_dir."""
    rng = random.Random(f"{workload}:{seed}")
    scenario, spec = _GENERATORS[workload](rng, size)
    spec.update({"workload": workload, "seed": seed, "size": size})
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / SCENARIO).write_text(json.dumps(scenario) + "\n", encoding="utf-8")
    (out / SPEC).write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return spec


def load_spec(in_dir):
    return json.loads((Path(in_dir) / SPEC).read_text(encoding="utf-8"))


# -------------------------------------------------------------------- jobs


def run_job(spec, in_dir):
    """The timed work: returns [(label, exit code, report text), ...]."""
    from cch import run_estimate_sweep
    from cch.cli import run_command
    from cch.scenario import parse_scenario

    path = str(Path(in_dir) / SCENARIO)
    workload = spec["workload"]
    if workload == "search":
        return [("verify-props", *run_command(["verify-props", "--scenario", path]))]
    if workload == "sweep":
        # The estimate sweep has no subcommand; it goes through the library.
        s = parse_scenario(path)
        report = run_estimate_sweep(s.orbits, s.profile, s.bounds)
        text = "\n".join(report.lines()) + "\n"
        return [
            ("estimate-sweep", 0 if report.ok else 1, text),
            ("no-bad-break", *run_command(spec["grid_argv"])),
        ]
    return [("complex", *run_command(["complex", "--scenario", path]))]


def digest(reports) -> str:
    """SHA-256 over every report body of one job, in order."""
    h = hashlib.sha256()
    for label, _, text in reports:
        h.update(f"{label}\n".encode())
        h.update(text.encode())
    return h.hexdigest()


# ------------------------------------------------------------------ oracles


def _fields(text):
    """`key: value` lines of a report, first occurrence per key."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in out:
            out[key] = value
    return out


def _check_search(spec, reports, problems, items):
    (_, code, text) = reports[0]
    bounds = spec["bounds"]
    fields = _fields(text)
    keys = []
    for line in text.splitlines():
        if not line.startswith("building: "):
            continue
        attrs = dict(part.split("=", 1) for part in line[len("building: "):].split(" "))
        keys.append(attrs["key"])
        if not (
            int(attrs["index"]) <= bounds["max_index"]
            and 1 <= int(attrs["levels"]) <= bounds["max_levels"]
            and int(attrs["negative-ends"]) <= 1
        ):
            problems.append(f"building outside bounds: {line}")
    items["buildings"] = len(keys)
    if code != 0:
        problems.append(f"verify-props exited {code}")
    if fields.get("counterexamples") != "0":
        problems.append(f"counterexamples: {fields.get('counterexamples')}")
    if fields.get("buildings") != str(len(keys)):
        problems.append(f"buildings line {fields.get('buildings')} vs {len(keys)} listed")
    if len(set(keys)) != len(keys):
        problems.append("duplicate building keys")
    if not keys:
        problems.append("no buildings")


def _check_sweep(spec, reports, problems, items):
    (_, _, estimate), (_, code, grid) = reports
    lines = estimate.splitlines()
    items["components"] = int(lines[0].split(": ")[1])
    checks = 0
    for line in lines[1:]:
        name, _, rest = line[len("check "):].partition(": ")
        attrs = dict(part.split("=") for part in rest.split(" "))
        checks += int(attrs["checked"])
        if int(attrs["checked"]) <= 0 or attrs["violations"] != "0":
            problems.append(f"estimate check {name}: {rest}")
    if len(lines) != 6:
        problems.append(f"estimate sweep report has {len(lines) - 1} checks, expected 5")
    items["estimate_checks"] = checks
    fields = _fields(grid)
    items["certificates"] = int(fields.get("certificates", -1))
    if code != 0:
        problems.append(f"no-bad-break exited {code}")
    if items["certificates"] != spec["certificates"]:
        problems.append(f"certificates {items['certificates']} != {spec['certificates']}")
    if fields.get("counterexamples") != "0":
        problems.append(f"counterexamples: {fields.get('counterexamples')}")


def _check_complex(spec, reports, problems, items):
    (_, code, text) = reports[0]
    fields = _fields(text)
    items["generators"] = int(fields.get("generators", -1))
    if code != 0:
        problems.append(f"complex exited {code}")
    if fields.get("delta-kappa-delta zero") != "pass":
        problems.append("delta-kappa-delta is not zero")
    if items["generators"] != spec["generators"]:
        problems.append(f"generators {items['generators']} != {spec['generators']}")
    got = []
    for line in text.splitlines():
        if line.startswith("class "):
            cls, _, rest = line[len("class "):].partition(" grading ")
            grading, _, rank = rest.partition(": rank ")
            got.append([cls, int(grading), int(rank)])
    if sorted(got) != sorted(spec["homology"]):
        problems.append(f"homology {sorted(got)[:4]}... != oracle {sorted(spec['homology'])[:4]}...")
    if fields.get("homology classes") != str(len(spec["homology"])):
        problems.append(f"homology classes: {fields.get('homology classes')}")


_CHECKS = {
    "search": _check_search,
    "sweep": _check_sweep,
    "complex_zero": _check_complex,
    "complex_dense": _check_complex,
}


def check(spec, reports):
    """Problems found by the workload's oracle, and the item counts."""
    problems, items = [], {}
    try:
        _CHECKS[spec["workload"]](spec, reports, problems, items)
    except (ValueError, KeyError, IndexError) as err:
        problems.append(f"unreadable report: {err!r}")
    return problems, items
