"""Benchmark for segrechains: seeded workloads, answer checks, per-layer traces.

    python3 perfbench/run.py --workload codim_scaling --seed 0 --seconds 24 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory and nowhere else.  One process, no threads.

A run repeats passes for --seconds (at least MIN_PASSES): another pass
starts only when a pass of median length would still end in time.
Each pass imports segrechains afresh, builds the workload's inputs from the
seed (set-up), then takes every input to its verdict (timed, one item per
input).  The answers are checked after the timed region, every pass.

Times are host-speed corrected.  A shared or virtual host can change speed
by a third from one second or minute to the next, for every process alike,
which would swamp most changes in the program.  So while a pass runs, a
SIGALRM handler in the same thread times a fixed reference loop (exact
Fraction arithmetic on a dict-of-tuples polynomial, like the package's
inner loops, and no segrechains code) every SAMPLE_EVERY_S.  The handler's
own time is taken out of every measured time.  The set-up time and each
item's time are then scaled by REFERENCE_S / (mean reference time sampled
during it), or during the whole pass if it was too short to hold
MIN_SAMPLES samples.  A reported second is thus a second on a host that
runs the reference loop in REFERENCE_S.  The raw pass times are printed too.

--trace 0 prints the end-to-end metrics: medians over passes of the pass
time (wall_s, the items' times summed) and of the set-up time (setup_s),
the slowest input's item time (max_item_s: each input's median over
passes, then the largest), and the process's peak resident memory
(peak_rss_mb).

--trace 1 alternates untraced and traced passes.  Traced passes run with
the outside-in tracer of tracer.py installed and give the per-layer metrics
(medians over traced passes; span times are raw seconds and include the
sampler's few per cent).  trace.overhead_s is the median corrected traced
pass time minus the median corrected untraced one.  Every pass, traced or
not, must give answers identical to the first pass's.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Metric names and units come from BENCHMARK.json at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import json
import resource
import shutil
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import PACKAGE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
MIN_PASSES = 3
REFERENCE_S = 0.001  # reference-loop time that corrected seconds assume
SAMPLE_EVERY_S = 0.025
MIN_SAMPLES = 8


def _reference_loop():
    """Fixed exact work: the square of a 4 x 4 bivariate polynomial over Q."""
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(4) for j in range(4)}
    out = {}
    for (i, j), x in a.items():
        for (k, l), y in a.items():
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + x * y
    return out


class HostSpeed:
    """Times the reference loop every SAMPLE_EVERY_S of wall time, from a
    SIGALRM handler in the one thread, while the program runs.

    `mark()` notes the time, less the sampler's own, and the samples so far;
    `corrected()` turns the time between two marks into corrected seconds.
    """

    def __init__(self):
        self.durations = []
        self.spent = 0.0  # total seconds inside the handler

    def _sample(self, signum, frame):
        start = perf_counter()
        _reference_loop()
        elapsed = perf_counter() - start
        self.durations.append(elapsed)
        self.spent += elapsed

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self):
        return perf_counter() - self.spent, len(self.durations)

    def corrected(self, start, end):
        """Seconds from mark `start` to mark `end`, times REFERENCE_S over the
        mean reference time sampled between them, or over all samples taken
        when fewer than MIN_SAMPLES fell between them."""
        (t0, n0), (t1, n1) = start, end
        sampled = self.durations[n0:n1]
        if len(sampled) < MIN_SAMPLES:
            sampled = self.durations
        return (t1 - t0) * REFERENCE_S / statistics.fmean(sampled)


def fresh_import():
    """Drop every loaded segrechains module and import the package anew."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    return SimpleNamespace(
        pkg=pkg,
        cli=importlib.import_module(PACKAGE + ".cli"),
        corpus=importlib.import_module(PACKAGE + ".corpus"),
    )


def run_pass(workload, tracer=None):
    """One pass: (modules, inputs, answers, setup_s, [item seconds], raw_s).

    Set-up and item times are corrected for host speed; raw_s is the items'
    uncorrected total, less the sampler's own time.
    """
    gc.collect()
    host = HostSpeed()
    with host.running(), contextlib.ExitStack() as stack:
        marks = [host.mark()]
        sc = fresh_import()
        if tracer is not None:
            stack.enter_context(tracer.installed())
        inputs = workload.build(sc)
        marks.append(host.mark())
        answers = []
        for _, thunk in workload.items(sc, inputs):
            answers.append(thunk())
            marks.append(host.mark())
    setup, *items = (host.corrected(a, b) for a, b in zip(marks, marks[1:]))
    return sc, inputs, answers, setup, items, marks[-1][0] - marks[1][0]


class Checks:
    """Answer-check tally; known defects are kept apart from the gate."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.defects_attempted = self.defects_failed = 0
        self.failures = []

    def add(self, results, known_defect=False):
        for name, ok in results:
            if known_defect:
                self.defects_attempted += 1
                self.defects_failed += not ok
                continue
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures.append(name)

    def failed_ratio(self):
        """Failed over attempted, known-defect checks included."""
        attempted = self.attempted + self.defects_attempted
        return (self.failed + self.defects_failed) / attempted if attempted else 0.0


def measure(workload, seconds, trace):
    checks = Checks()
    passes = {"untraced": [], "traced": []}
    first = None
    deadline = perf_counter() + seconds
    durations = []
    n = 0
    # start another pass only if one of typical length still ends in time
    while n < MIN_PASSES or perf_counter() + statistics.median(durations) <= deadline:
        pass_start = perf_counter()
        traced = trace and n % 2 == 1
        tracer = Tracer() if traced else None
        sc, inputs, answers, setup, items, raw = run_pass(workload, tracer)
        checks.add(workload.check(sc, inputs, answers))
        if hasattr(workload, "known_defects"):
            checks.add(workload.known_defects(sc), known_defect=True)
        fingerprint = workload.fingerprint(answers)
        if first is None:
            first = fingerprint
        checks.add([("answers identical to the first pass's", fingerprint == first)])
        passes["traced" if traced else "untraced"].append(
            {"setup": setup, "wall": sum(items), "raw_wall": raw, "items": items,
             "layers": tracer.metrics() if traced else None}
        )
        durations.append(perf_counter() - pass_start)
        n += 1
    return passes, checks


def end_to_end(passes):
    runs = passes["untraced"]
    return {
        "wall_s": statistics.median(p["wall"] for p in runs),
        # each input's median over passes, then the slowest input
        "max_item_s": max(map(statistics.median, zip(*(p["items"] for p in runs)))),
        "setup_s": statistics.median(p["setup"] for p in runs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes, checks, names):
    traced = passes["traced"]
    out = {}
    for name in names:
        values = [p["layers"].get(name, 0) for p in traced]
        out[name] = statistics.median(values)
    out["trace.overhead_s"] = statistics.median(p["wall"] for p in traced) - \
        statistics.median(p["wall"] for p in passes["untraced"])
    out["checks.failed_ratio"] = checks.failed_ratio()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, WORKDIR)
        passes, checks = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    if args.trace:
        values = per_layer(passes, checks, [m["name"] for m in wanted])
    else:
        values = end_to_end(passes)
    n_passes = sum(len(v) for v in passes.values())
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in (SRC / PACKAGE).glob("*.py")
    )
    print(f"{args.workload} seed={args.seed}: {n_passes} passes, "
          f"{checks.attempted} checks, {checks.failed} failed, "
          f"src_lines={src_lines} (informational)")
    for kind, runs in passes.items():
        if runs:
            print(f"  {kind} pass seconds, corrected: "
                  + " ".join(f"{p['wall']:.3f}" for p in runs))
            print(f"  {kind} pass seconds, raw:       "
                  + " ".join(f"{p['raw_wall']:.3f}" for p in runs))
    for name in checks.failures[:20]:
        print(f"  FAIL {name}")
    if checks.defects_attempted:
        print(f"  known defects: {checks.defects_failed} of "
              f"{checks.defects_attempted} checks failed (see checks.failed_ratio)")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
