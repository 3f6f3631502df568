"""The three reslat benchmark workloads: inputs, ops and correctness references.

Each workload is built from the reslat sources of the checkout it runs in.
Building one (``build``) is the benchmark's set-up: it imports reslat and
produces the inputs every op needs, so ``setup_s`` covers exactly this.

An op takes one input, runs it through reslat and returns its output;
``check`` compares that output with a reference that reslat does not
compute itself.  Every op starts from ``.rlat`` text (or a file, for the
CLI), so no op sees a cache filled by an earlier one.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent

FIXTURES = ("a6", "b6", "c6", "a8")
# The same filter arguments and subcommands as the CLI golden tests.
FILTER_ARG = {"a6": "c,d,1", "b6": "a,c,1", "c6": "1", "a8": "f,1"}
SUBCOMMANDS = (
    ("validate", ()), ("filters", ()), ("spectrum", ("--kind", "maximal")),
    ("alpha", ()), ("pure", ()), ("sigma", ("--filter",)),
    ("rho", ("--filter",)), ("spp", ()), ("dtop", ()), ("classify", ()),
    ("gelfand", ()), ("mp", ()), ("quotient", ("--filter",)),
    ("check", ("--suite", "core")),
)

# Generated instances at the top of the range the full suite finishes on.
# Godel14..Godel20 are left out: closefalzai's 2^|Spec| sweep alone takes
# 16 s on Godel14, and the suite does not finish in 600 s on Godel20.
LADDER = (("godel", 12), ("luk", 20), ("product", ("godel", 4), ("godel", 5)))


class ColdStateError(Exception):
    """An op found a lattice whose memo was not empty."""


def required_sources(root: Path) -> list[Path]:
    """Files of the checkout that every workload reads."""
    return [root / "src" / "reslat" / "__init__.py",
            root / "fixtures" / "a6.rlat",
            root / "tests" / "golden" / "a6__validate.json"]


def _lattice_from_text(core, name, text):
    lat = core.validate(core.parse_lattice_text(text, source=name))
    if not isinstance(lat, core.ResiduatedLattice):
        raise core.ValidationFailure(lat)
    if lat._cache:
        raise ColdStateError(f"{name}: memo not empty at op start")
    return lat


class _Suite:
    """Ops that parse one instance and run the full theorem suite on it."""

    def __init__(self, instances):
        from reslat import cli, core, harness
        self.core, self.harness = core, harness
        # (name, .rlat text); the lattice objects themselves are dropped so
        # that no op can reach the generator memos or their caches.
        self.ops = [(lat.name, cli.to_rlat_text(lat)) for lat in instances]

    def run(self, op):
        name, text = op
        lat = _lattice_from_text(self.core, name, text)
        return lat, self.harness.run_theorem_suite([lat], "all")

    def instances(self):
        """(name, .rlat text) of each distinct instance the ops read."""
        return list(self.ops)


class Acceptance(_Suite):
    """The 67-instance acceptance family, one op per instance."""

    min_samples = 100

    def __init__(self, root):
        from reslat import harness
        super().__init__(harness.acceptance_family())
        ref = json.loads((HERE / "reference" / "acceptance.json")
                         .read_text(encoding="utf-8"))
        self.expected = {name: tuple(c) for name, c in ref["instances"].items()}
        totals = [sum(c[i] for c in self.expected.values()) for i in range(3)]
        if totals != [ref["totals"][k] for k in ("pass", "fail",
                                                 "not_applicable")]:
            raise ValueError("acceptance reference totals do not add up")
        if sorted(self.expected) != sorted(name for name, _ in self.ops):
            raise ValueError("acceptance family differs from its reference")
        self.fidelity = ref["fidelity"]

    def check(self, op, out):
        lat, rep = out
        c = rep.counts()
        got = c["pass"], c["fail"], c["not_applicable"]
        if got != self.expected.get(lat.name):
            return False
        pids = self.fidelity.get(lat.name, ())
        return all(rep.verdict(lat.name, pid).status == "pass" for pid in pids)


def _closed_form(spec):
    """(|Fil|, |Spec|) of a ladder instance from its construction alone."""
    kind = spec[0]
    if kind == "product":
        (fa, sa), (fb, sb) = _closed_form(spec[1]), _closed_form(spec[2])
        return fa * fb, sa + sb
    fil = spec[1] if kind == "godel" else 2
    return fil, fil - 1


def _make(harness, core, spec):
    kind = spec[0]
    if kind == "product":
        return core.direct_product(_make(harness, core, spec[1]),
                                   _make(harness, core, spec[2]))
    maker = harness.godel_chain if kind == "godel" else harness.lukasiewicz_chain
    return maker(spec[1])


class Ladder(_Suite):
    """Large generated instances, where the 2^n sweeps dominate."""

    min_samples = 2 * len(LADDER)          # two passes: one is too noisy

    def __init__(self, root):
        from reslat import core, filters, harness, spectra
        self.filters, self.spectra = filters, spectra
        lats = [_make(harness, core, spec) for spec in LADDER]
        super().__init__(lats)
        self.expected = {lat.name: _closed_form(spec)
                         for lat, spec in zip(lats, LADDER)}

    def check(self, op, out):
        lat, rep = out
        if any(v.status not in ("pass", "not_applicable")
               for v in rep.verdicts.values()):
            return False
        got = (len(self.filters.enumerate_filters(lat)),
               len(self.spectra.prime_filters(lat)))
        return got == self.expected.get(lat.name)


class Queries:
    """The 56 golden CLI calls, in-process through ``reslat.cli.main``."""

    min_samples = 100

    def __init__(self, root):
        from reslat import cli, core
        self.cli, self.core = cli, core
        self.paths = {fx: str(root / "fixtures" / f"{fx}.rlat")
                      for fx in FIXTURES}
        golden = root / "tests" / "golden"
        self.ops = []
        for fx in FIXTURES:
            for cmd, extra in SUBCOMMANDS:
                if extra == ("--filter",):
                    extra = ("--filter", FILTER_ARG[fx])
                argv = [cmd, self.paths[fx], *extra]
                want = json.loads((golden / f"{fx}__{cmd}.json")
                                  .read_text(encoding="utf-8"))
                self.ops.append((f"{fx}__{cmd}", argv, want))

    def run(self, op):
        _, argv, _ = op
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, op, out):
        return out == op[2]

    def instances(self):
        return [(fx, Path(path).read_text(encoding="utf-8"))
                for fx, path in self.paths.items()]


WORKLOADS = {"acceptance": Acceptance, "ladder": Ladder, "queries": Queries}


def build(name: str, root: Path):
    """Import reslat from ``root/src`` and build the named workload."""
    return WORKLOADS[name](root)
