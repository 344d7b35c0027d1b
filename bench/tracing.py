"""Span tracing for the benchmark's traced run, installed from outside the
library: no file under `src/` knows about it.

`Tracer.install()` wraps each function named in `TARGETS` and rebinds every
reference to it inside the `cigrid` package: the defining module attribute,
every `from .x import f` alias, entries of module-level dicts (such as the
campaign table), and class attributes (so `__radd__ = __add__` is covered).
`uninstall()` puts every original back.

Spans are kept in memory as parallel arrays (name, start, end, parent,
round) and written out when the run ends.  A layer's self time is its span
duration minus the time its direct child spans cover; the process is
single-threaded, so child spans never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (span name, module, attribute path inside the module)
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("poly.evaluate", "cigrid.poly", "Polynomial.evaluate"),
    ("poly.leading", "cigrid.poly", "Polynomial.leading"),
    ("poly.arith", "cigrid.poly", "Polynomial.__add__"),
    ("poly.arith", "cigrid.poly", "Polynomial.__sub__"),
    ("poly.arith", "cigrid.poly", "Polynomial.__mul__"),
    ("poly.minor", "cigrid.poly", "minor"),
    ("poly.minor", "cigrid.poly", "all_minors"),
    ("poly.to_text", "cigrid.poly", "Polynomial.to_text"),
    ("ideals.buchberger", "cigrid.ideals", "buchberger"),
    ("ideals.reduce_poly", "cigrid.ideals", "reduce_poly"),
    ("ideals.eliminate", "cigrid.ideals", "eliminate"),
    ("ideals.intersect", "cigrid.ideals", "intersect"),
    ("ideals.normal_form", "cigrid.ideals", "normal_form"),
    ("linalg.rank", "cigrid.linalg", "rank"),
    ("linalg.rank_mod_p", "cigrid.linalg", "rank_mod_p"),
    ("linalg.kernel_basis", "cigrid.linalg", "kernel_basis"),
    ("linalg.det", "cigrid.linalg", "det"),
    ("cimodel.mixture_parametrization_sample", "cigrid.cimodel", "mixture_parametrization_sample"),
    ("cimodel.flatten", "cigrid.cimodel", "flatten"),
    ("cimodel.tensor_assignment", "cigrid.cimodel", "tensor_assignment"),
    ("cimodel.ci_ideal", "cigrid.cimodel", "ci_ideal"),
    ("hypergraph.in_variety", "cigrid.hypergraph", "in_variety"),
    ("hypergraph.hypergraph_ideal", "cigrid.hypergraph", "hypergraph_ideal"),
    ("matroid.circuits", "cigrid.matroid", "Matroid.circuits"),
    ("matroid.circuits", "cigrid.matroid", "CircuitMatroid.circuits"),
    ("matroid.rank_of", "cigrid.matroid", "LinearMatroid.rank_of"),
    ("matroid.rank_of", "cigrid.matroid", "CircuitMatroid.rank_of"),
    ("matroid.is_circuit_family", "cigrid.matroid", "is_circuit_family"),
    ("matroid.algebraic_matroid", "cigrid.matroid", "algebraic_matroid"),
    ("matroid.realize_grid_matroid", "cigrid.matroid", "realize_grid_matroid"),
    ("secrig.rigidity_matrix", "cigrid.secrig", "rigidity_matrix"),
    ("secrig.generic_rigidity_check", "cigrid.secrig", "generic_rigidity_check"),
    ("secrig.secant_dimension", "cigrid.secrig", "secant_dimension"),
    ("sampling.rand_matrix", "cigrid.sampling", "rand_matrix"),
    ("sampling.mixture_matrix", "cigrid.sampling", "mixture_matrix"),
    ("verify.example31", "cigrid.verify", "verify_three_lines_decomposition"),
    ("verify.example32", "cigrid.verify", "verify_rank_two_component"),
    ("verify.intersection-axiom", "cigrid.verify", "verify_intersection_axiom"),
    ("verify.theorem32", "cigrid.verify", "verify_grid_realization"),
    ("verify.rigidity", "cigrid.verify", "verify_rigidity_battery"),
    ("verify.terracini", "cigrid.verify", "verify_secant_battery"),
    ("report.to_json", "cigrid.report", "WitnessReport.to_json"),
    ("cli.main", "cigrid.cli", "main"),
)

SPAN_NAMES: tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in TARGETS))
MODULES: tuple[str, ...] = tuple(dict.fromkeys(name.split(".")[0] for name in SPAN_NAMES))

# Exceptions counted once each, at the innermost span they leave.
COUNTED_ERRORS = {"BudgetExceeded": "ideals.budget_exceeded", "GenericityError": "matroid.genericity_errors"}
# Share of a span's calls whose outcome hook (below) counted a hit.
RATIO_METRICS = ("ideals.reduce_poly.zero_frac", "linalg.rank_mod_p.certified_frac")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [(name, "ratio") for name in RATIO_METRICS]
    out += [(name, "count") for name in COUNTED_ERRORS.values()]
    out += [(f"{module}.self_share", "ratio") for module in MODULES]
    out += [(f"{module}.incl_share", "ratio") for module in MODULES]
    out += [("trace.overhead", "ratio")]
    return out


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def _namespaces():
    """Every mutable namespace inside the package that can hold a reference
    to a library function: module globals, module-level dicts, and classes."""
    for modname, module in list(sys.modules.items()):
        if modname != "cigrid" and not modname.startswith("cigrid."):
            continue
        yield module, vars(module), True
        for value in list(vars(module).values()):
            if isinstance(value, dict) and value is not vars(module) and value is not vars(module).get("__builtins__"):
                yield value, value, False
            elif isinstance(value, type) and value.__module__.startswith("cigrid"):
                yield value, vars(value), True


class Tracer:
    def __init__(self) -> None:
        self.name_ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("i")
        self.rounds = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1
        self.round = -1
        self.round_walls: dict[int, float] = {}
        self.counters: dict[tuple[int, str], int] = {}
        self._last_error: BaseException | None = None
        self._bindings: list[tuple[object, str, object, bool]] = []

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for name, module, path in TARGETS:
            original = _resolve(module, path)
            wrappers[id(original)] = (original, self._wrap(original, name))
        for owner, namespace, is_attr in list(_namespaces()):
            for key, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                self._bindings.append((owner, key, value, is_attr))
                if is_attr:
                    setattr(owner, key, hit[1])
                else:
                    namespace[key] = hit[1]

    def uninstall(self) -> None:
        for owner, key, original, is_attr in reversed(self._bindings):
            if is_attr:
                setattr(owner, key, original)
            else:
                owner[key] = original
        self._bindings.clear()

    def _wrap(self, fn, name: str):
        name_id = self.name_ids[name]
        outcome = _OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.names)
            parent = self.current
            self.names.append(name_id)
            self.parents.append(parent)
            self.rounds.append(self.round)
            self.ends.append(0.0)
            self.current = idx
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counter = COUNTED_ERRORS.get(type(exc).__name__)
                if counter is not None and exc is not self._last_error:
                    self._last_error = exc
                    self.count(counter)
                raise
            finally:
                self.ends[idx] = perf_counter()
                self.current = parent
            if outcome is not None:
                outcome(self, args, result)
            return result

        return wrapper

    def count(self, counter: str) -> None:
        key = (self.round, counter)
        self.counters[key] = self.counters.get(key, 0) + 1

    # -- results ---------------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as tab-separated lines, in the order they started."""
        with path.open("w") as fh:
            fh.write("id\tparent\tround\tname\tstart\tend\n")
            for i in range(len(self.names)):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.rounds[i]}\t{SPAN_NAMES[self.names[i]]}\t"
                    f"{self.starts[i]!r}\t{self.ends[i]!r}\n"
                )

    def metrics(self, overhead: float) -> dict[str, float]:
        """Per-layer metrics: per-round medians for calls, self seconds and
        error counts; ratios over every traced round."""
        n = len(self.names)
        rounds = sorted(self.round_walls)
        durations = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                covered[p] += durations[i]
        module_of = [SPAN_NAMES[k].split(".")[0] for k in range(len(SPAN_NAMES))]
        module_bit = {m: 1 << b for b, m in enumerate(MODULES)}
        ancestors = [0] * n
        calls: dict[tuple[int, int], int] = {}
        self_s: dict[tuple[int, int], float] = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        module_incl = dict.fromkeys(MODULES, 0.0)
        for i in range(n):
            key = (self.rounds[i], self.names[i])
            calls[key] = calls.get(key, 0) + 1
            own = durations[i] - covered[i]
            self_s[key] = self_s.get(key, 0.0) + own
            module = module_of[self.names[i]]
            module_self[module] += own
            p = self.parents[i]
            if p >= 0:
                ancestors[i] = ancestors[p] | module_bit[module_of[self.names[p]]]
            if not ancestors[i] & module_bit[module]:
                module_incl[module] += durations[i]

        out: dict[str, float] = {}
        for k, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = statistics.median(calls.get((r, k), 0) for r in rounds)
            out[f"{name}.self_s"] = statistics.median(self_s.get((r, k), 0.0) for r in rounds)
        for metric in RATIO_METRICS:
            span = metric.rpartition(".")[0]
            attempts = sum(v for (_, k), v in calls.items() if k == self.name_ids[span])
            hits = sum(v for (_, c), v in self.counters.items() if c == metric)
            out[metric] = hits / attempts if attempts else 0.0
        for counter in COUNTED_ERRORS.values():
            out[counter] = statistics.median(self.counters.get((r, counter), 0) for r in rounds)
        wall = sum(self.round_walls.values())
        for module in MODULES:
            out[f"{module}.self_share"] = module_self[module] / wall
            out[f"{module}.incl_share"] = module_incl[module] / wall
        out["trace.overhead"] = overhead
        return out


def _reduce_outcome(tracer: Tracer, args, result) -> None:
    if result.is_zero():
        tracer.count("ideals.reduce_poly.zero_frac")


def _shadow_outcome(tracer: Tracer, args, result) -> None:
    m = args[0]
    if result is not None and m and result == len(m[0]):
        tracer.count("linalg.rank_mod_p.certified_frac")


_OUTCOMES = {"ideals.reduce_poly": _reduce_outcome, "linalg.rank_mod_p": _shadow_outcome}
