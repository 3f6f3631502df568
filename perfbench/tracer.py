"""Outside-in tracing of reslat's layers for the benchmark's traced run.

The tracer wraps public functions of each reslat module from outside the
program.  Modules such as ``harness`` and ``cli`` bind library functions
with ``from .x import f``, so a wrapper is rebound under every name in every
``reslat.*`` module that holds the original, and ``restore`` puts all of
them back.

A *span* wrapper records start, end and the enclosing span (a stack gives
the parent link).  A function's self time is its span's duration minus the
time covered by its child spans; memoised builds run inside whichever
function first asked for them, so inclusive times would charge one
function for another's work.  A *count* wrapper only counts calls; it is
used for functions that run millions of times per pass.  Spans are
aggregated as they close rather than stored one by one.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (metric prefix, module, attribute): the metric <prefix>_s is self time.
# Two attributes may share a prefix; their times add up.
SPANS = (
    ("core.parse", "reslat.core", "parse_lattice_text"),
    ("core.validate", "reslat.core", "validate"),
    ("core.load_lattice", "reslat.core", "load_lattice"),
    ("filters.enumerate_filters", "reslat.filters", "enumerate_filters"),
    ("filters.lattice_ideals", "reslat.filters", "lattice_ideals"),
    ("filters.quotient", "reslat.filters", "quotient"),
    ("filters.generated_filter", "reslat.filters", "generated_filter"),
    ("filters.enumerate_alpha", "reslat.filters", "enumerate_alpha"),
    ("spectra.prime_filters", "reslat.spectra", "prime_filters"),
    ("spectra.D_operator", "reslat.spectra", "D_operator"),
    ("spectra.spec_space", "reslat.spectra", "spec_space"),
    ("spectra.spectrum", "reslat.spectra", "spectrum"),
    ("purity.sigma_filter", "reslat.purity", "sigma_filter"),
    ("purity.pure_spectrum", "reslat.purity", "pure_spectrum"),
    ("purity.d_topology", "reslat.purity", "d_topology"),
    ("purity.pure_filters", "reslat.purity", "pure_filters"),
    ("purity.rho", "reslat.purity", "rho"),
    ("topology.space_build", "reslat.topology", "FiniteSpace.__init__"),
    ("topology.separation_report", "reslat.topology", "separation_report"),
    ("topology.map_analysis", "reslat.topology", "map_analysis"),
    ("classify.classify", "reslat.classify", "classify"),
    ("classify.boolean_center", "reslat.classify", "boolean_center"),
    ("classify.structure", "reslat.classify", "gelfand_structure"),
    ("classify.structure", "reslat.classify", "mp_structure"),
    ("harness.run_theorem_suite", "reslat.harness", "run_theorem_suite"),
    ("cli.main", "reslat.cli", "main"),
)
# Calls counted without a span: (metric prefix, module, attribute).
COUNTS = (
    ("filters.is_filter", "reslat.filters", "is_filter"),
    ("spectra.stability", "reslat.spectra", "stability"),
    ("purity.sigma_formulas", "reslat.purity", "sigma_formulas"),
    ("topology.is_closed", "reslat.topology", "FiniteSpace.is_closed"),
)
CALL_METRICS = ("core.validate", "filters.generated_filter")
CACHE_KINDS = ("filters_lattice", "lattice_ideals", "omega_filters", "quotient",
               "sigma", "pure_filters", "spec_space", "pure_spectrum",
               "classification", "boolean_center")
GROUPS = ("core", "purity", "spp", "gelfand", "mp")
PROPS = ("genfilprop", "omegprop", "filqou", "canonflat", "intprimfilt",
         "sigmafequiv", "sigfildef", "purefilqou", "closefalzai", "gelnor")
SIZES = ("fil", "spec", "max", "min", "spp", "opens")
# Times of layers that some workload never calls (the CLI on the suite
# workloads, the non-core groups on the CLI calls): there they read exactly
# 0 on every run, so they are printed but left out of the JSON result.
TEXT_ONLY = frozenset({
    "core.load_lattice_s", "filters.enumerate_alpha_s", "spectra.spectrum_s",
    "classify.structure_s", "cli.main_s", "cli.self_s",
    "harness.group.purity_s", "harness.group.spp_s", "harness.group.gelfand_s",
    "harness.group.mp_s", "harness.prop.sigmafequiv_s",
    "harness.prop.sigfildef_s", "harness.prop.purefilqou_s",
    "harness.prop.gelnor_s",
})


def metric_units() -> dict:
    """Every per-layer metric the traced run prints, with its unit."""
    units = {}
    for prefix, _, _ in SPANS:
        if prefix != "cli.main":
            units[f"{prefix}_s"] = "s"
    for prefix in CALL_METRICS:
        units[f"{prefix}.calls"] = "count"
    for prefix, _, _ in COUNTS:
        units[f"{prefix}.calls"] = "count"
    units.update({"filters.cached.hits": "count",
                  "filters.cached.misses": "count",
                  "filters.cached.hit_ratio": "ratio"})
    for kind in CACHE_KINDS:
        units[f"filters.cached.{kind}.build_s"] = "s"
    for group in GROUPS:
        units[f"harness.group.{group}_s"] = "s"
    for pid in PROPS:
        units[f"harness.prop.{pid}_s"] = "s"
    units.update({"cli.main_s": "s", "cli.self_s": "s"})
    for size in SIZES:
        units[f"size.{size}"] = "count"
    units["trace.overhead_s"] = "s"
    return units


def _resolve(module, attr):
    owner, _, name = attr.rpartition(".")
    obj = importlib.import_module(module)
    return (getattr(obj, owner) if owner else obj), name


class Tracer:
    """Span and count wrappers over reslat, with their running totals."""

    def __init__(self, stolen):
        # stolen[0]: seconds the benchmark's own signal handler has taken,
        # which the spans subtract.
        self._stolen = stolen
        self.self_s = defaultdict(float)   # span name -> self time
        self.incl_s = defaultdict(float)   # span name -> outermost inclusive
        self.calls = Counter()
        self.build_s = defaultdict(float)  # cache kind -> inclusive build
        self.group_of = {}                 # property span -> suite group
        self._stack = []                   # open spans: [child time]
        self._depth = Counter()
        self._on = [True]
        self._patches = []                 # (owner, name, original)

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn):
        stack, depth, on = self._stack, self._depth, self._on
        self_s, incl_s, calls = self.self_s, self.incl_s, self.calls
        clock, stolen = time.perf_counter, self._stolen

        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0, s0 = clock(), stolen[0]
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (stolen[0] - s0)
                stack.pop()
                depth[name] -= 1
                self_s[name] += dt - frame[0]
                if not depth[name]:
                    incl_s[name] += dt
                calls[name] += 1
                if stack:
                    stack[-1][0] += dt
        return wrapper

    def _count(self, name, fn):
        calls, on = self.calls, self._on

        def wrapper(*args, **kwargs):
            if on[0]:
                calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _cached(self, fn):
        # Build times are inclusive and sit beside the span tree, so the
        # function that asked for the build keeps it in its self time.
        calls, build_s, on = self.calls, self.build_s, self._on
        depth = Counter()
        clock, stolen = time.perf_counter, self._stolen

        def wrapper(lat, key, build):
            if not on[0]:
                return fn(lat, key, build)
            if key in lat._cache:
                calls["filters.cached.hits"] += 1
                return fn(lat, key, build)
            calls["filters.cached.misses"] += 1
            kind = key if isinstance(key, str) else key[0]
            depth[kind] += 1
            t0, s0 = clock(), stolen[0]
            try:
                return fn(lat, key, build)
            finally:
                depth[kind] -= 1
                if not depth[kind]:
                    build_s[kind] += clock() - t0 - (stolen[0] - s0)
        return wrapper

    # -- installing and removing --------------------------------------

    def _rebind(self, owner, name, wrapper):
        orig = getattr(owner, name)
        if isinstance(owner, type):
            targets = [(owner, name)]
        else:
            targets = [(mod, attr) for modname, mod in list(sys.modules.items())
                       if modname == "reslat" or modname.startswith("reslat.")
                       for attr, val in list(vars(mod).items()) if val is orig]
        for mod, attr in targets:
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every traced function; ``restore`` undoes all of it."""
        for prefix, module, attr in SPANS:
            owner, name = _resolve(module, attr)
            self._rebind(owner, name, self._span(prefix, getattr(owner, name)))
        for prefix, module, attr in COUNTS:
            owner, name = _resolve(module, attr)
            self._rebind(owner, name,
                         self._count(f"{prefix}.calls", getattr(owner, name)))
        filters = importlib.import_module("reslat.filters")
        self._rebind(filters, "cached", self._cached(filters.cached))
        harness = importlib.import_module("reslat.harness")
        props = harness.PROPERTIES
        for pid, (group, fn) in list(props.items()):
            span = f"harness.prop.{pid}"
            self.group_of[span] = group
            self._patches.append((props, pid, (group, fn)))
            props[pid] = (group, self._span(span, fn))

    def restore(self):
        for owner, name, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[name] = orig
            else:
                setattr(owner, name, orig)
        self._patches.clear()

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self._on[0] = False
        try:
            yield
        finally:
            self._on[0] = True

    # -- results ------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-layer values per traced pass (sizes and overhead excluded)."""
        out = {}
        for prefix, _, _ in SPANS:
            if prefix != "cli.main":
                out[f"{prefix}_s"] = self.self_s[prefix] / passes
        for prefix in CALL_METRICS:
            out[f"{prefix}.calls"] = self.calls[prefix] / passes
        for prefix, _, _ in COUNTS:
            out[f"{prefix}.calls"] = self.calls[f"{prefix}.calls"] / passes
        hits = self.calls["filters.cached.hits"]
        misses = self.calls["filters.cached.misses"]
        out["filters.cached.hits"] = hits / passes
        out["filters.cached.misses"] = misses / passes
        out["filters.cached.hit_ratio"] = hits / max(hits + misses, 1)
        for kind in CACHE_KINDS:
            out[f"filters.cached.{kind}.build_s"] = self.build_s[kind] / passes
        group_s = defaultdict(float)
        for span, group in self.group_of.items():
            group_s[group] += self.incl_s[span]
        for group in GROUPS:
            out[f"harness.group.{group}_s"] = group_s[group] / passes
        for pid in PROPS:
            out[f"harness.prop.{pid}_s"] = self.incl_s[f"harness.prop.{pid}"] / passes
        out["cli.main_s"] = self.incl_s["cli.main"] / passes
        out["cli.self_s"] = self.self_s["cli.main"] / passes
        return out


def sizes(instances) -> dict:
    """Structural sizes summed over the workload's distinct instances."""
    from reslat import core
    from reslat.filters import enumerate_filters, maximal_filters
    from reslat.purity import pure_spectrum
    from reslat.spectra import minimal_primes, prime_filters, spec_space
    total = Counter()
    for name, text in instances:
        lat = core.validate(core.parse_lattice_text(text, source=name))
        total["fil"] += len(enumerate_filters(lat))
        total["spec"] += len(prime_filters(lat))
        total["max"] += len(maximal_filters(lat))
        total["min"] += len(minimal_primes(lat))
        total["spp"] += len(pure_spectrum(lat))
        total["opens"] += len(spec_space(lat, "h").opens)
    return {f"size.{k}": total[k] for k in SIZES}
