"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Run from the root of a source checkout.  The repeat test runs every
workload's traced pass twice and takes a few minutes; select workloads with
``-k``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import E2E_UNITS, WORKLOAD_NAMES  # noqa: E402
from tracer import LAYER_METRICS, TARGETS, Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# Metrics that count work, and ratios of such counts: equal for one seed.
EXACT = [name for name, unit, *_ in LAYER_METRICS
         if unit in ("count", "bytes")
         or (unit == "ratio" and name != "trace_overhead_ratio")]


def run_bench(workload: str, seed: int, trace: int, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=600)


def test_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names), names
    units = [m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert all(UNIT.match(u) for u in units), units


def test_benchmark_file_matches_the_code():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == E2E_UNITS
    assert BENCH["per_layer"] == [{"name": n, "unit": u, "better": b}
                                  for n, u, b, *_ in LAYER_METRICS]


def import_src():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import tripletree  # noqa: F401


def test_restore_puts_back_every_wrapped_function():
    import_src()
    modules = {name: dict(vars(m)) for name, m in sys.modules.items()
               if name.startswith("tripletree")}
    tracer = Tracer()
    tracer.install()
    from tripletree import tree
    assert hasattr(tree.best_split, "__wrapped__")
    assert len(tracer._patches) >= len(TARGETS)
    tracer.restore()
    for name, before in modules.items():
        after = vars(sys.modules[name])
        assert all(after[k] is v for k, v in before.items()), name


def test_scaled_clock_takes_samples_off_and_restores_the_timer():
    import signal
    import time
    from run import REF_S, ScaledClock
    handler = signal.getsignal(signal.SIGALRM)
    clock = ScaledClock()
    _, raw, scaled = clock.time(time.sleep, 1.0)
    during = [d for _, d in clock._samples[1:-1]]  # first, last: outside
    assert len(during) >= 2
    assert abs(raw + sum(during) - 1.0) < 0.05
    ref = sum(d for _, d in clock._samples) / len(clock._samples)
    assert scaled == pytest.approx(raw * REF_S / ref)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_walkthrough_check_compares_stdout_and_files():
    import_src()
    import workloads
    expected = json.loads(workloads.DIGESTS_FILE.read_text())
    wl = workloads.Walkthrough(ROOT / "src", HERE / "out")
    files = dict(expected["files"])
    runs = [(0, "", "")] * len(workloads.WALKTHROUGH)
    out = workloads.Outputs(digest="", extra=(runs, files))
    assert [op for op, _ in wl.check(0, out)] == list(range(len(runs)))
    files["tree.json"] = "0" * 64
    ops = [op for op, _ in wl.check(0, out)]
    assert ops.count(1) == 2  # the fit command writes tree.json


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_counts_repeat_and_traced_outputs_match(workload):
    results = []
    for _ in range(2):
        proc = run_bench(workload, 3, 1)
        assert proc.returncode == 0, proc.stderr.decode()[-2000:]
        result = json.loads(proc.stdout.decode().splitlines()[-1])
        # the run fails itself when traced and untraced outputs differ
        assert result["correct"] and result["failed"] == 0, proc.stderr.decode()
        assert set(result["metrics"]) == {n for n, *_ in LAYER_METRICS}
        results.append(result["metrics"])
    for name in EXACT:
        assert results[0][name]["value"] == results[1][name]["value"], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("fit", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith(b"}")
