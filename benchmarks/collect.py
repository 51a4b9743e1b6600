"""Run the benchmark twice over ten seeds and check that it is steady.

Usage (from the root of a checkout)::

    python3 benchmarks/collect.py --out benchmarks/results/baseline.json

It makes two sets of runs, one after the other. Each set runs ``run.py``
once untraced for every workload in ``BENCHMARK.json`` and every seed in
1..10. For each set and end-to-end metric it reports the ten values, their
median and quartiles, and the spread ``(q3 - q1) / median`` next to the
metric's bound; then the ratio of the second set's median to the first.
Last, it makes one traced run per workload at the default seed.
Exits 1 if a run failed, a spread exceeds its bound, or the second median
is worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEEDS = list(range(1, 11))
SETS = 2
TRACE_SEED = 7321  # run.py's default seed
RAW = ("seed", "wall_s", "frames", "run_s", "setup_s", "peak_rss_mb",
       "error_rate", "snr_sweep_sha256")


def invoke(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = json.loads(lines[-2])["record"]
    record["wall_s"] = wall
    return record, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def worse_by(metric: dict, first: float, second: float) -> float:
    """Share by which ``second`` is worse than ``first`` (negative if better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    ok = True
    sets = []
    for number in range(1, SETS + 1):
        runs = {w: [] for w in WORKLOADS}
        for workload in WORKLOADS:
            for seed in SEEDS:
                record, result = invoke(workload, seed, 0)
                ok &= result["correct"] and result["failed"] == 0
                runs[workload].append({"record": record, "result": result})
                print(f"set {number}", workload, seed, f"{record['wall_s']:.1f}s",
                      {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                      flush=True)
        sets.append(runs)
    traced = {}
    for workload in WORKLOADS:
        record, result = invoke(workload, TRACE_SEED, 1)
        ok &= result["correct"] and result["failed"] == 0
        traced[workload] = {"seed": TRACE_SEED, "wall_s": record["wall_s"],
                            "metrics": result["metrics"]}
        print(workload, TRACE_SEED, "traced", f"{record['wall_s']:.1f}s", flush=True)

    summary = {}
    for workload in WORKLOADS:
        rows = {}
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            per_set = []
            for runs in sets:
                values = [r["result"]["metrics"][name]["value"]
                          for r in runs[workload] if name in r["result"]["metrics"]]
                if len(values) < 2:
                    ok = False
                    break
                per_set.append(spread(values))
            else:
                drift = worse_by(metric, per_set[0]["median"], per_set[-1]["median"])
                ok &= all(s["spread"] <= bound for s in per_set) and drift <= bound
                rows[name] = {"bound": bound, "sets": per_set, "worse_by": drift}
                print(f"{workload:14s} {name:14s} medians "
                      + " ".join(f"{s['median']:12.4f}" for s in per_set)
                      + " spreads " + " ".join(f"{s['spread']:.4f}" for s in per_set)
                      + f" second worse by {drift:+.4f} (bound {bound},"
                      f" spread target < {bound / 3:.4f})")
        summary[workload] = {
            "metrics": rows,
            "sets": [[{key: r["record"][key] for key in RAW} for r in runs[workload]]
                     for runs in sets],
            "traced": traced[workload],
        }
    first = sets[0][WORKLOADS[0]][0]["record"]
    report = {"benchmark": SPEC, "seeds": SEEDS, "machine": first["machine"],
              "workloads": summary, "ok": ok}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print("ok" if ok else "FAILED: a run failed, a spread exceeds its bound, "
          "or the second set's median is worse than the first by more than it")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
