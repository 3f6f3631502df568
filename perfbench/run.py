"""Benchmark for reslat, run from the root of a checkout.

Usage:
    python3 perfbench/run.py --workload {acceptance,ladder,queries}
        --seed N --seconds S --trace {0,1}

One closed-loop caller in one process and thread runs the workload's ops
in passes, in an order shuffled by ``--seed``, for about ``--seconds``.
Every op's output is checked against a reference that reslat does not
compute.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half traced, and reports the per-layer metrics of
``tracer.py`` per traced pass, plus the tracing overhead (traced minus
untraced ``pass_s``).  README.md says what each metric should move.

In-process times are reported at a fixed machine speed.  On a shared
virtual machine the CPU speed can drift by tens of percent from minute to
minute, so a fixed pure-Python loop is timed every ``SAMPLE_EVERY_S``
while a phase runs, and every in-process time is scaled by ``REF_S`` over
that loop's median duration in the same phase.  The set-up and cold-start
probes run in fresh interpreters, which follow that loop's speed less well;
each is scaled instead by ``REF_START_S`` over the time of a fixed
stdlib-only start-up run right beside it.  The raw wall times are printed
alongside.

numpy's OpenBLAS is held to one thread in every process the benchmark runs;
README.md says why.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"    # before anything imports numpy

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fresh interpreters per run for set-up and cold start; medians are reported.
PROBES = 11
# A phase may overrun --seconds only to reach its minimum sample count, and
# never starts a pass expected to end after this many times --seconds.
OVERRUN = 3
COLD_START_ARGV = ["-m", "reslat.cli", "validate", "fixtures/a6.rlat"]
# The reference loop takes about REF_S on an idle 2.1 GHz Xeon core.
REF_LOOP_N = 20_000
REF_S = 1.0e-3
SAMPLE_EVERY_S = 0.05
# A fresh interpreter that does only stdlib imports.  It takes about
# REF_START_S on the machine where the reference loop takes REF_S.
REF_START_ARGV = ["-c", "import argparse, dataclasses, decimal, fractions, json, typing"]
REF_START_S = 0.05

clock = time.perf_counter


def _reference_loop():
    s = 0
    for i in range(REF_LOOP_N):
        s += i * i
    return s


class Speed:
    """Machine speed, sampled at a fixed interval while a phase runs.

    A SIGALRM handler times the reference loop every ``SAMPLE_EVERY_S``, so
    the samples cover long ops as evenly as short ones.  The time spent in
    the handler is added up in ``stolen``; op and span timings subtract it.
    """

    def __init__(self):
        self.samples = []
        self.stolen = [0.0]
        self.running = False

    def _on_alarm(self, signum, frame):
        t0 = clock()
        _reference_loop()
        dt = clock() - t0
        self.samples.append(dt)
        self.stolen[0] += clock() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        self.running = True

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.running = False

    @contextmanager
    def paused(self):
        """Stop sampling for a while, e.g. while a fresh interpreter runs."""
        was_running = self.running
        self.stop()
        try:
            yield
        finally:
            if was_running:
                self.start()

    def factor(self):
        """Multiply a wall time by this to express it at the fixed speed."""
        return REF_S / statistics.median(self.samples)


def _child_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _probe(argv):
    """Run one fresh interpreter; return (wall seconds, completed process)."""
    t0 = clock()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    return clock() - t0, proc


class Probes:
    """Set-up and cold-start timings, each in a fresh interpreter.

    They are spread evenly over the measured time, between ops, so that
    their medians sample the same machine states as the passes do.
    """

    def __init__(self, name, seconds, speed):
        self.name = name
        self.speed = speed
        self.every = seconds / PROBES
        self.setup_s = []                  # scaled to the fixed speed
        self.cold_s = []
        self.setup_wall = []
        self.cold_wall = []
        self.failed = 0
        self.want = json.loads((ROOT / "tests" / "golden" / "a6__validate.json")
                               .read_text(encoding="utf-8"))

    def __call__(self, elapsed):
        if len(self.cold_s) < PROBES and elapsed >= len(self.cold_s) * self.every:
            self.run_one()

    def run_one(self):
        # The fresh interpreters run without the sampler's loop beside them.
        with self.speed.paused():
            _, setup = _probe([str(HERE / "setup_probe.py"), self.name, str(ROOT)])
            ref_s, ref = _probe(REF_START_ARGV)
            dt, proc = _probe(COLD_START_ARGV)
        for what, p in (("set-up", setup), ("reference start-up", ref)):
            if p.returncode:
                raise RuntimeError(f"{what} probe failed:\n{p.stderr}")
        setup_wall = float(setup.stdout.strip().splitlines()[-1])
        self.setup_wall.append(setup_wall)
        self.setup_s.append(setup_wall * REF_START_S / ref_s)
        self.cold_wall.append(dt)
        self.cold_s.append(dt * REF_START_S / ref_s)
        got = {"exit": proc.returncode, "stdout": proc.stdout,
               "stderr": proc.stderr}
        self.failed += got != self.want

    def finish(self):
        while len(self.cold_s) < PROBES:
            self.run_one()


class Passes:
    """Pass times, per-op latencies and failures of one measured phase."""

    def __init__(self):
        self.pass_s = []                   # summed op wall times per pass
        self.op_s = []
        self.failed = 0
        self.errors = []
        self.speed = Speed()

    def run(self, wl, rng, seconds, min_samples, trace=None, between=None):
        """Run whole passes while the next one is expected to end in time.

        ``between(elapsed)`` is called after each op.  The time it takes
        counts neither in the op's time nor against ``seconds``.
        """
        stolen = self.speed.stolen
        start = clock()
        aside = 0.0                        # spent in between()
        self.speed.start()
        try:
            while True:
                pass_start = clock() - start - aside
                order = list(wl.ops)
                rng.shuffle(order)
                total = 0.0
                for op in order:
                    t0, s0 = clock(), stolen[0]
                    try:
                        out = wl.run(op)
                    except Exception:
                        ok = False
                        self.errors.append(traceback.format_exc(limit=3))
                    else:
                        ok = None
                    dt = clock() - t0 - (stolen[0] - s0)
                    if ok is None:
                        if trace is None:
                            ok = wl.check(op, out)
                        else:
                            with trace.paused():
                                ok = wl.check(op, out)
                    total += dt
                    self.op_s.append(dt)
                    self.failed += not ok
                    if between is not None:
                        t_b = clock()
                        between(t_b - start - aside)
                        aside += clock() - t_b
                self.pass_s.append(total)
                elapsed = clock() - start - aside
                next_end = elapsed + (elapsed - pass_start)
                if len(self.op_s) >= min_samples and next_end > seconds:
                    break
                if next_end > OVERRUN * seconds:
                    break
        finally:
            self.speed.stop()
        return self

    def median_pass(self):
        return statistics.median(self.pass_s) * self.speed.factor()


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(wl, name, rng, seconds):
    ph = Passes()
    probes = Probes(name, seconds, ph.speed)
    ph.run(wl, rng, seconds, wl.min_samples, between=probes)
    probes.finish()
    f_pass = ph.speed.factor()
    n = len(ph.op_s)
    p50, p90 = percentile(ph.op_s, 50), percentile(ph.op_s, 90)
    values = {
        "setup_s": (statistics.median(probes.setup_s), "s"),
        "pass_s": (ph.median_pass(), "s"),
        "op_p50_ms": (p50 * f_pass * 1e3, "ms"),
        "op_p90_ms": (p90 * f_pass * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "cold_start_s": (statistics.median(probes.cold_s), "s"),
    }
    notes = {
        "setup_s": f"median of {PROBES} fresh interpreters, "
                   f"wall {statistics.median(probes.setup_wall):.4g} s",
        "pass_s": f"median of {len(ph.pass_s)} passes, "
                  f"wall {statistics.median(ph.pass_s):.4g} s",
        "op_p50_ms": f"n={n}, wall {p50 * 1e3:.4g} ms",
        "op_p90_ms": f"n={n}, {sum(x > p90 for x in ph.op_s)} beyond, "
                     f"wall {p90 * 1e3:.4g} ms",
        "cold_start_s": f"median of {PROBES} fresh interpreters, "
                        f"wall {statistics.median(probes.cold_wall):.4g} s",
    }
    attempted = n + PROBES
    failed = ph.failed + probes.failed
    lines = [f"{k:<14} {v:.6g} {u}" + (f"  ({notes[k]})" if k in notes else "")
             for k, (v, u) in values.items()]
    lines.append(f"{'error_rate':<14} {failed / attempted:.6g}"
                 f"  ({failed} of {attempted} ops)")
    lines.append(f"{'speed factor':<14} {f_pass:.4g} (passes)")
    return values, attempted, failed, lines, ph.errors


def per_layer(wl, rng, seconds):
    plain = Passes().run(wl, rng, seconds / 2, 1)
    traced = Passes()
    trace = tracer.Tracer(traced.speed.stolen)
    trace.install()
    try:
        traced.run(wl, rng, seconds / 2, 1, trace)
    finally:
        trace.restore()
    passes = len(traced.pass_s)
    factor = traced.speed.factor()
    metrics = trace.metrics(passes)
    units = tracer.metric_units()
    for k, unit in units.items():
        if unit == "s" and k in metrics:
            metrics[k] *= factor
    metrics.update(tracer.sizes(wl.instances()))
    metrics["trace.overhead_s"] = traced.median_pass() - plain.median_pass()
    lines = [f"untraced pass_s {plain.median_pass():.6g} s"
             f" ({len(plain.pass_s)} passes), traced pass_s"
             f" {traced.median_pass():.6g} s ({passes} passes),"
             f" speed factor {factor:.4g}"]
    lines += [f"{k:<42} {metrics[k]:.6g} {u}"
              + ("  (text only)" if k in tracer.TEXT_ONLY else "")
              for k, u in units.items()]
    values = {k: (metrics[k], u) for k, u in units.items()
              if k not in tracer.TEXT_ONLY}
    attempted = len(plain.op_s) + len(traced.op_s)
    failed = plain.failed + traced.failed
    return values, attempted, failed, lines, plain.errors + traced.errors


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p.relative_to(ROOT)) for p in workloads.required_sources(ROOT)
               if not p.is_file()]
    if missing:
        print(f"perfbench: not a reslat checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    wl = workloads.build(args.workload, ROOT)

    rng = random.Random(args.seed)
    if args.trace:
        result = per_layer(wl, rng, args.seconds)
    else:
        result = end_to_end(wl, args.workload, rng, args.seconds)
    values, attempted, failed, lines, errors = result

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print("  " + line)
    for err in errors[:3]:
        print(err, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
