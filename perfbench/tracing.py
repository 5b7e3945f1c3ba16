"""Per-layer spans and counts, recorded from outside the program.

`Tracer` wraps public functions of the cch modules.  A wrapper replaces
every attribute of every loaded cch module (and the owning class, for a
method) that refers to the wrapped function, because the layers call each
other through names they imported: `cch.cli.verify_propositions` and
`cch.buildings.enumerate_buildings` are wrapped along with their defining
modules.  Leaving the `with` block puts every original back.

A timed function records its inclusive time and its self time, which is
the inclusive time minus the part covered by timed children.  The two
orbit functions are only counted: timing 1.66M tiny calls would swamp the
trace, so their time stays in their callers' self time.
"""
from __future__ import annotations

import functools
import os
import sys
from collections import Counter
from time import perf_counter

# (module, attribute) of every timed function.
TIMED = (
    ("cli", "run_command"),
    ("scenario", "parse_scenario"),
    ("scenario", "Scenario.count_table"),
    ("buildings", "verify_propositions"),
    ("buildings", "enumerate_buildings"),
    ("buildings", "building_key"),
    ("buildings", "classify_building"),
    ("buildings", "run_estimate_sweep"),
    ("writhe", "sweep_no_bad_break"),
    ("complexes", "build_complex"),
    ("complexes", "verify_d_squared"),
    ("complexes", "homology_ranks"),
    ("linalg", "zeros"),
    ("linalg", "mat_mul"),
    ("linalg", "scale_columns"),
    ("linalg", "scale_rows"),
    ("linalg", "is_zero"),
    ("linalg", "nonzero_entries"),
    ("linalg", "rank"),
)
# Generators: time is spent while the consumer pulls items.
TIMED_GENERATORS = (("buildings", "enumerate_components"),)
COUNTED = (("orbits", "cz_index"), ("orbits", "fredholm_index"))

# Per-layer metrics in report order: name -> unit.  Names ending in _self_s
# are self times, other _s names inclusive times.
LAYER_METRICS = {
    "cli.self_s": "s",
    "scenario.parse_s": "s",
    "scenario.count_table_s": "s",
    "scenario.input_bytes": "bytes",
    "orbits.cz_index_calls": "count",
    "orbits.fredholm_index_calls": "count",
    "buildings.verify_propositions_self_s": "s",
    "buildings.enumerate_buildings_s": "s",
    "buildings.building_key_s": "s",
    "buildings.classify_building_s": "s",
    "buildings.buildings": "count",
    "buildings.enumerate_components_s": "s",
    "buildings.components": "count",
    "buildings.run_estimate_sweep_self_s": "s",
    "buildings.estimate_checks": "count",
    "writhe.sweep_no_bad_break_s": "s",
    "writhe.certificates": "count",
    "complexes.build_complex_self_s": "s",
    "complexes.verify_d_squared_self_s": "s",
    "complexes.homology_ranks_self_s": "s",
    "complexes.generators": "count",
    "linalg.scale_s": "s",
    "linalg.mat_mul_s": "s",
    "linalg.mat_mul_calls": "count",
    "linalg.rank_s": "s",
    "linalg.rank_calls": "count",
    "linalg.other_s": "s",
    "linalg.dense_entries": "count",
}


def _matrix_entries(value):
    """rows x cols if value is a list-of-rows matrix, else 0."""
    if isinstance(value, list) and value and isinstance(value[0], list):
        return len(value) * len(value[0])
    return 0


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    def __init__(self):
        self.inclusive = Counter()
        self.self_time = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self._children = [0.0]
        self._patches = []

    # -------------------------------------------------------------- spans

    def _enter(self):
        self._children.append(0.0)
        return perf_counter()

    def _leave(self, name, started):
        elapsed = perf_counter() - started
        child = self._children.pop()
        self._children[-1] += elapsed
        self.inclusive[name] += elapsed
        self.self_time[name] += elapsed - child

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._before(name, args)
            started = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, started)
            self.calls[name] += 1
            self._after(name, result)
            return result

        return wrapper

    def _timed_generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            self.calls[name] += 1
            while True:
                started = self._enter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(name, started)
                self.counts[name] += 1
                yield item

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _before(self, name, args):
        if name == "scenario.parse_scenario":
            self.counts["scenario.input_bytes"] += os.path.getsize(args[0])
        elif name.startswith("linalg."):
            self.counts["linalg.dense_entries"] += sum(map(_matrix_entries, args))

    def _after(self, name, result):
        if name == "buildings.enumerate_buildings":
            self.counts[name] += len(result)
        elif name == "buildings.run_estimate_sweep":
            self.counts[name] += sum(result.checked.values())
        elif name == "cli.run_command":
            # From the report, not from whichever function checked them, so
            # the count stays the same when the CLI's grid loop moves into
            # writhe.sweep_no_bad_break.
            for line in result[1].splitlines():
                if line.startswith("certificates: "):
                    self.counts["writhe.certificates"] += int(line.split(": ", 1)[1])
        elif name == "complexes.build_complex":
            self.counts[name] += len(result.generators)

    # ----------------------------------------------------------- patching

    def __enter__(self):
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cch" or n.startswith("cch.")]
        plan = [(spec, self._timed) for spec in TIMED]
        plan += [(spec, self._timed_generator) for spec in TIMED_GENERATORS]
        plan += [(spec, self._counted) for spec in COUNTED]
        try:
            for (module_name, path), make in plan:
                owner, attr = _resolve(sys.modules[f"cch.{module_name}"], path)
                original = getattr(owner, attr)
                wrapper = make(f"{module_name}.{path}", original)
                sites = {(id(owner), attr): (owner, attr)}
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            sites[(id(module), name)] = (module, name)
                for target, name in sites.values():
                    self._patches.append((target, name, original))
                    setattr(target, name, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    # ------------------------------------------------------------ metrics

    def layer_metrics(self):
        """Values of LAYER_METRICS from the recorded spans and counts."""
        t, s, c, n = self.inclusive, self.self_time, self.counts, self.calls
        values = {
            "cli.self_s": s["cli.run_command"],
            "scenario.parse_s": t["scenario.parse_scenario"],
            "scenario.count_table_s": t["scenario.Scenario.count_table"],
            "scenario.input_bytes": c["scenario.input_bytes"],
            "orbits.cz_index_calls": c["orbits.cz_index"],
            "orbits.fredholm_index_calls": c["orbits.fredholm_index"],
            "buildings.verify_propositions_self_s": s["buildings.verify_propositions"],
            "buildings.enumerate_buildings_s": t["buildings.enumerate_buildings"],
            "buildings.building_key_s": t["buildings.building_key"],
            "buildings.classify_building_s": t["buildings.classify_building"],
            "buildings.buildings": c["buildings.enumerate_buildings"],
            "buildings.enumerate_components_s": t["buildings.enumerate_components"],
            "buildings.components": c["buildings.enumerate_components"],
            "buildings.run_estimate_sweep_self_s": s["buildings.run_estimate_sweep"],
            "buildings.estimate_checks": c["buildings.run_estimate_sweep"],
            "writhe.sweep_no_bad_break_s": t["writhe.sweep_no_bad_break"],
            "writhe.certificates": c["writhe.certificates"],
            "complexes.build_complex_self_s": s["complexes.build_complex"],
            "complexes.verify_d_squared_self_s": s["complexes.verify_d_squared"],
            "complexes.homology_ranks_self_s": s["complexes.homology_ranks"],
            "complexes.generators": c["complexes.build_complex"],
            "linalg.scale_s": t["linalg.scale_columns"] + t["linalg.scale_rows"],
            "linalg.mat_mul_s": t["linalg.mat_mul"],
            "linalg.mat_mul_calls": n["linalg.mat_mul"],
            "linalg.rank_s": t["linalg.rank"],
            "linalg.rank_calls": n["linalg.rank"],
            "linalg.other_s": t["linalg.zeros"] + t["linalg.is_zero"] + t["linalg.nonzero_entries"],
            "linalg.dense_entries": c["linalg.dense_entries"],
        }
        assert list(values) == list(LAYER_METRICS)
        return values
