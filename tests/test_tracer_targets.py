"""The benchmark's traced run wraps reslat functions by name."""

import importlib
import importlib.util
import sys
from pathlib import Path

from reslat import harness

from conftest import fresh

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer(monkeypatch):
    # import without writing bytecode next to the benchmark's sources
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_traced_functions_resolve(monkeypatch):
    tracer = _tracer(monkeypatch)
    for _, module, attr in tracer.SPANS + tracer.COUNTS:
        owner, name = tracer._resolve(module, attr)
        assert callable(getattr(owner, name, None)), (module, attr)


def test_every_traced_cache_kind_is_a_memo_key(fixtures4, monkeypatch):
    # the tracer times builds per memo kind; a kind no key carries would
    # read 0 build time without failing anything
    lats = [fresh(lat) for lat in fixtures4]
    harness.run_theorem_suite(lats, "all")
    kinds = set()
    for lat in lats:
        quotients = [v.quotient for k, v in lat._cache.items()
                     if isinstance(k, tuple) and k[0] == "quotient"]
        for memo in [lat._cache] + [q._cache for q in quotients]:
            kinds.update(k if isinstance(k, str) else k[0] for k in memo)
    assert set(_tracer(monkeypatch).CACHE_KINDS) <= kinds
