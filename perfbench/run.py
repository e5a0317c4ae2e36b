"""tripletree benchmark.

    python3 perfbench/run.py --workload fit --seed 0 --seconds 8 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``.  ``--trace 0`` sets the workload up several times, repeats its timed
body until ``--seconds`` have passed, and reports the end-to-end metrics,
with set-up and pass times scaled to a reference speed (see ``ScaledClock``).
``--trace 1`` runs one set-up and one body pass untraced, then a second
set-up and a body pass with the library's public functions wrapped in spans
(around the body only), and reports the per-module metrics; the spans go to
``perfbench/out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

BLAS_THREADS = "1"
CLI_START_REPEATS = 11
WORKLOAD_NAMES = ("fit", "explain", "temporal-simulate-viz", "walkthrough")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="tripletree benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_library() -> None:
    """Import tripletree from the checkout's ``src``, never from elsewhere."""
    if not (SRC / "tripletree" / "__init__.py").is_file():
        sys.exit(f"error: no tripletree sources under {SRC}; run the "
                 f"benchmark from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import tripletree
    if Path(tripletree.__file__).resolve().parent != SRC / "tripletree":
        sys.exit(f"error: imported tripletree from {tripletree.__file__}")


def environment(args) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def make_workload(name: str):
    import workloads
    if name == "walkthrough":
        return workloads.Walkthrough(SRC, OUT)
    return {"fit": workloads.Fit, "explain": workloads.Explain,
            "temporal-simulate-viz": workloads.TemporalSimulateViz}[name]()


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class Tally:
    """Operations attempted and failed; each failure is printed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, errors: list, label: str) -> None:
        self.attempted += attempted
        self.failed += len({op for op, _ in errors})
        for op, message in errors:
            print(f"FAILED {label}, operation {op}: {message}", file=sys.stderr)


def cli_start_s(tally: Tally) -> float:
    """Median wall time of a fresh interpreter importing tripletree.cli."""
    from workloads import child_env
    times = []
    for _ in range(CLI_START_REPEATS):
        proc, dt = timed(lambda: subprocess.run(
            [sys.executable, "-c", "import tripletree.cli"],
            env=child_env(SRC), stderr=subprocess.PIPE))
        times.append(dt)
        errors = [] if proc.returncode == 0 else [(0, proc.stderr.decode())]
        tally.add(1, errors, "cli start")
    return statistics.median(times)


# The host's speed switches between a fast and a slow state every few
# seconds, as other machines' work on it comes and goes.  A fixed unit of CPU
# work that never calls the library is timed just before and just after
# each set-up and pass, and every SAMPLE_S while it runs, from a timer
# signal.  The time spent in the unit is taken off the call's time, and the
# rest is scaled by REF_S over the unit's mean time: the reported times are
# seconds on a host that runs the unit in REF_S.  The unscaled times are
# printed and kept in the result file.
REF_S = 0.025
SAMPLE_S = 0.25


class ScaledClock:
    """Times calls, each scaled by the reference speed sampled during it."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._data = np.random.default_rng(0).random(300_000)
        self._samples: list = []

    def _reference_unit(self) -> None:
        total = 0
        for i in range(120_000):
            total += i * i % 7
        for _ in range(3):
            self._np.sort(self._data)

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        self._reference_unit()
        self._samples.append((start, time.perf_counter() - start))

    def time(self, fn, *args):
        """Return (result, unscaled seconds, scaled seconds)."""
        self._samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            t0 = time.perf_counter()
            result = fn(*args)
            t1 = time.perf_counter()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        # A handler runs to its end before the call resumes, so a sample
        # that starts inside [t0, t1) lies wholly inside it.
        dt = t1 - t0 - sum(d for s, d in self._samples if t0 <= s < t1)
        ref = statistics.mean(d for _, d in self._samples)
        return result, dt, dt * REF_S / ref


class PlainClock:
    """Times calls unscaled.  For work done in child processes: the unit
    timed in this process runs on the other CPU and does not track them."""

    def time(self, fn, *args):
        result, dt = timed(fn, *args)
        return result, dt, dt


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run_untraced(wl, args, tally: Tally) -> tuple:
    clock = ScaledClock() if wl.in_process else PlainClock()
    setups, raw_setups, state = [], [], None
    for _ in range(wl.setup_repeats):
        # One set-up's inputs at a time count towards peak RSS; trees hold
        # reference cycles, so collect them now, not during a later pass.
        state = None
        gc.collect()
        state, dt, scaled = clock.time(wl.setup, args.seed)
        raw_setups.append(dt)
        setups.append(scaled)
    walls, raw_walls, latencies = [], [], {}
    while not raw_walls or sum(raw_walls) < args.seconds:
        k = len(raw_walls)
        out, dt, scaled = clock.time(wl.body, state, k)
        raw_walls.append(dt)
        walls.append(scaled)
        tally.add(out.attempted, wl.check(state, out), f"pass {k}")
        for kind, values in out.latencies.items():
            latencies.setdefault(kind, []).extend(values)
        del out
        if k == 0:
            # Later passes can reuse freed memory in other patterns, and how
            # many there are depends on the host's speed: the peak is taken
            # over the set-ups and the first pass.
            rss = peak_rss_mb()
    print(f"set-up times (s): {', '.join(f'{s:.4f}' for s in raw_setups)}")
    print(f"  scaled to the reference: "
          f"{', '.join(f'{s:.4f}' for s in setups)}")
    print(f"pass wall times (s): {', '.join(f'{w:.4f}' for w in raw_walls)}")
    print(f"  scaled to the reference: "
          f"{', '.join(f'{w:.4f}' for w in walls)}")
    query_s = sum(sum(values) for values in latencies.values())
    for kind, values in latencies.items():
        print(f"  {kind}: n={len(values)} "
              f"p50={statistics.median(values) * 1e3:.3f} ms "
              f"mean={statistics.mean(values) * 1e3:.3f} ms "
              f"max={max(values) * 1e3:.3f} ms "
              f"share={sum(values) / query_s:.3f} of query time")
    raw = {"setup_s": statistics.median(raw_setups),
           "wall_s": statistics.median(raw_walls)}
    print("unscaled medians: " + json.dumps(raw))
    return {"setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": rss}, raw


def run_traced(wl, args, tally: Tally) -> dict:
    from tracer import LAYER_METRICS, Tracer
    state = wl.setup(args.seed)
    # The reference pass gets a tracer that is never installed, so it takes
    # the same code path (in-process CLI for the walkthrough) unwrapped.
    plain, plain_s = timed(wl.body, state, 0, Tracer())
    tally.add(plain.attempted, wl.check(state, plain), "untraced pass")

    # Set-up stays untraced, so the per-module totals are the body's alone.
    state = wl.setup(args.seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced, traced_s = timed(wl.body, state, 0, tracer)
    finally:
        tracer.restore()
    tally.add(traced.attempted, wl.check(state, traced), "traced pass")
    if traced.digest != plain.digest:
        tally.add(1, [(0, "traced outputs differ from untraced outputs")],
                  "trace comparison")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.json"
    tracer.write(spans_path)
    print(f"{len(tracer.spans)} spans written to {spans_path}")
    metrics = tracer.metrics(traced_s, plain_s)
    metrics["cli_start_s"] = cli_start_s(tally)
    return {name: metrics[name] for name, *_ in LAYER_METRICS}


def main(argv=None) -> int:
    args = parse_args(argv)
    # One process, at most nproc threads: pin BLAS before numpy is imported;
    # the CLI subprocesses inherit the setting.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    import_library()
    sys.path.insert(0, str(HERE))
    from tracer import LAYER_METRICS

    env = environment(args)
    print("environment: " + json.dumps(env, sort_keys=True))
    wl = make_workload(args.workload)
    tally = Tally()
    unscaled = None
    if args.trace:
        values = run_traced(wl, args, tally)
        units = {name: unit for name, unit, *_ in LAYER_METRICS}
    else:
        values, unscaled = run_untraced(wl, args, tally)
        units = E2E_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {tally.failed}/{tally.attempted} operations")

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"environment": env, "unscaled": unscaled,
                                  **result}, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
