"""Record benchmark reference files.

    python3 perfbench/record.py digests
        Runs the README walkthrough once and writes the sha256 of every
        output file and of every command's standard output to
        perfbench/walkthrough_digests.json.

    python3 perfbench/record.py baseline --seeds 0-9 --sets 2 --out perfbench/baseline.json
        Runs every workload once per seed untraced, in two sets one after
        the other, then once traced (first seed).  It writes each set's
        values, median, quartiles and spread (interquartile range over
        median) for every metric, the relative change of each median from
        the first set to the last, and the environment facts.

Run from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def record_digests() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        wl = workloads.Walkthrough(ROOT / "src", Path(tmp))
        out = wl.body(wl.setup(0), 0)
    runs, files = out.extra
    failed = [(label, code) for (label, _), (code, _, _)
              in zip(workloads.WALKTHROUGH, runs) if code != 0]
    if failed:
        sys.exit(f"error: walkthrough commands failed: {failed}")
    doc = {"files": files,
           "stdout": [workloads.stdout_digest(stdout) for _, stdout, _ in runs]}
    workloads.DIGESTS_FILE.write_text(json.dumps(doc, indent=1,
                                                 sort_keys=True) + "\n")
    print(f"wrote {len(files)} file and {len(runs)} stdout digests to "
          f"{workloads.DIGESTS_FILE}")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, check=True)
    lines = proc.stdout.decode().splitlines()
    env = json.loads(lines[0].split(": ", 1)[1])
    return {"environment": env, **json.loads(lines[-1])}


def summary(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def record_baseline(seeds: list, out: Path, sets: int) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    doc = {"seconds": seconds, "seeds": seeds, "sets": [], "workloads": {}}
    for n in range(sets):
        doc["sets"].append({})
        for w in names:
            runs = [run_once(w, s, seconds, 0) for s in seeds]
            doc["environment"] = {k: v for k, v in runs[0]["environment"].items()
                                  if k not in ("workload", "seed", "trace")}
            doc["sets"][n][w] = {
                "correct": all(r["correct"] for r in runs),
                "end_to_end": {
                    m: summary([r["metrics"][m]["value"] for r in runs])
                    for m in runs[0]["metrics"]},
            }
            for m, s in doc["sets"][n][w]["end_to_end"].items():
                print(f"set {n} {w} {m}: median {s['median']:.6g} "
                      f"spread {s['spread']:.4f}", flush=True)
            out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for w in names:
        traced = run_once(w, seeds[0], seconds, 1)
        first, last = doc["sets"][0][w], doc["sets"][-1][w]
        doc["workloads"][w] = {
            "correct": traced["correct"],
            "per_layer": {m: v["value"] for m, v in traced["metrics"].items()},
            # relative change of each median from the first set to the last
            "median_change": {
                m: last["end_to_end"][m]["median"] / s["median"] - 1.0
                for m, s in first["end_to_end"].items()},
        }
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> None:
    p = argparse.ArgumentParser(description="record benchmark reference files")
    sub = p.add_subparsers(dest="what", required=True)
    sub.add_parser("digests")
    b = sub.add_parser("baseline")
    b.add_argument("--seeds", type=parse_seeds, default=parse_seeds("0-9"))
    b.add_argument("--sets", type=int, default=2)
    b.add_argument("--out", type=Path, required=True)
    args = p.parse_args()
    if args.what == "digests":
        record_digests()
    else:
        record_baseline(args.seeds, args.out, args.sets)


if __name__ == "__main__":
    main()
