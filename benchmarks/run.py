"""ghostsim benchmark: full ``run_experiment`` sweeps, checked and timed.

Usage (from the root of a checkout)::

    python3 benchmarks/run.py --workload canonical-64 --seed 7321 --seconds 40 --trace 0
    python3 benchmarks/run.py --self-test

Each run starts a fresh interpreter (``worker.py``) that imports ghostsim
from ``src``, one run at a time: a closed loop with one client.  Runs repeat
while the next one is predicted to end within ``--seconds``.  Every run writes into a fresh empty directory
whose outputs are checked before it is deleted.  With ``--trace 0`` the
last line of standard output reports the end-to-end metrics; with
``--trace 1`` untraced and traced runs alternate and it reports the
per-layer metrics.  The line before it is a record of the machine, the raw
samples and the output digests.  See ``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORK = ROOT / ".bench_work"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 7321
# Extra set-up-only interpreters per untraced invocation.  The runs alone
# give two to four set-up samples, and their median spread too widely
# (see README.md).
SETUP_SAMPLES = 5
DEADLINE_S = 165  # every worker is stopped by then; an invocation may take 180 s

POST = "post-processed"
BASIS = "basis-processed"

# Config overrides per workload (the reasons are in README.md); keys not
# named keep the shipped defaults.  The flag says whether the canonical
# criterion "basis-processed beats post-processed at every time" is checked.
COMMON = {"kernel": "edge-eq3", "repeats_per_pattern": "2"}
WORKLOADS = {
    "canonical-64": ({}, True),
    "hadamard-64": ({"basis": "hadamard"}, False),
    "sweep-32": ({"grid_side": "32", "bar_groups": "2",
                  "integration_times_ms": "10 20 50 100 220 500 1000 2000",
                  "repeats": "6"}, False),
}
SELF_TEST = ({"grid_side": "16", "bar_groups": "2", "repeats": "2"}, True)

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
              "GOTO_NUM_THREADS", "OPENBLAS_CORETYPE")
# Single-threaded BLAS in the workers: a run then computes on one thread
# (every workload keeps the default ``threads = 1``), and idle BLAS threads
# that spin do not compete with it for the cores.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class RunFailed(Exception):
    """A worker crashed or its outputs failed a check."""


# ---------------------------------------------------------------- outputs

def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_pgm(path: Path, side: int) -> str | None:
    tokens = path.read_text(encoding="utf-8").split()
    if len(tokens) < 4 or tokens[0] != "P2":
        return f"{path.name}: not an ASCII graymap"
    w, h, maxval = (int(t) for t in tokens[1:4])
    if (w, h) != (side, side) or len(tokens) - 4 != side * side:
        return f"{path.name}: expected {side}x{side} pixels"
    if not all(0 <= int(t) <= maxval for t in tokens[4:]):
        return f"{path.name}: pixel outside [0, {maxval}]"
    return None


def check_outputs(out: Path, config, basis_beats_post: bool) -> list[str]:
    """Problems found in a run directory; an empty list means it passed."""
    from ghostsim.config import parse_config

    problems = []
    times = sorted(config.integration_times_ms)
    cells = {(m, t, r) for m in (POST, BASIS) for t in times
             for r in range(config.repeats)}

    pgms = sorted(out.glob("recon_*.pgm"))
    if len(pgms) != len(cells):
        problems.append(f"{len(pgms)} recon_*.pgm files for {len(cells)} cells")
    for pgm in pgms:
        if not pgm.with_suffix(".meta").is_file():
            problems.append(f"{pgm.name}: no .meta sidecar")
        bad = _check_pgm(pgm, config.grid_side)
        if bad:
            problems.append(bad)
    stray = [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
    if stray:
        problems.append(f"temp files left behind: {stray}")

    for name in ("snr_sweep.csv", "snr_summary.csv", "manifest.txt"):
        if not (out / name).is_file():
            problems.append(f"missing {name}")
    if problems:
        return problems

    sweep = _read_csv(out / "snr_sweep.csv")
    seen, by_cell = set(), {}
    for row in sweep:
        key = (row["method"], float(row["integration_time_ms"]), int(row["repeat"]))
        snr = float(row["snr"])
        if key in seen:
            problems.append(f"snr_sweep.csv: duplicate row {key}")
        seen.add(key)
        if not math.isfinite(snr):
            problems.append(f"snr_sweep.csv: SNR {snr} at {key}")
        by_cell.setdefault(key[:2], []).append(snr)
    if seen != cells:
        problems.append(f"snr_sweep.csv: {len(seen)} cells, expected {len(cells)}")

    mean = {}
    for row in _read_csv(out / "snr_summary.csv"):
        key = (row["method"], float(row["integration_time_ms"]))
        mean[key] = float(row["mean_snr"])
        rows = by_cell.get(key, [])
        if not math.isfinite(mean[key]) or not rows or not math.isclose(
                mean[key], statistics.fmean(rows), rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"snr_summary.csv: mean SNR {mean[key]} at {key} "
                            "does not match snr_sweep.csv")
    if set(mean) != {c[:2] for c in cells}:
        problems.append("snr_summary.csv: wrong set of (method, time) rows")
        return problems

    for method in (POST, BASIS):
        series = [mean[(method, t)] for t in times]
        if any(b <= a for a, b in zip(series, series[1:])):
            problems.append(f"{method}: mean SNR does not rise with time: {series}")
    if basis_beats_post:
        for t in times:
            if not mean[(BASIS, t)] > mean[(POST, t)]:
                problems.append(f"basis-processed does not beat post-processed at {t} ms")

    if parse_config((out / "manifest.txt").read_text(encoding="utf-8")) != config:
        problems.append("manifest.txt parses to a different config")
    return problems


# ---------------------------------------------------------------- workers

def _child_env() -> dict:
    env = {**os.environ, **WORKER_ENV}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def worker(mode: str, overrides: dict, out: Path | None, timeout: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--mode", mode,
           "--overrides", json.dumps(overrides)]
    if out is not None:
        cmd += ["--out", str(out)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{mode} worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RunFailed(f"{mode} worker exited {proc.returncode}: "
                        f"{proc.stderr.strip()[-2000:]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{mode} worker printed no result") from None


class Session:
    """Runs of one workload and seed, with their failure tally."""

    def __init__(self, workload: tuple[dict, bool], seed: int, work: Path):
        overrides, self.basis_beats_post = workload
        self.overrides = {**COMMON, **overrides, "seed": str(seed)}
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: list[str] = []
        self.deadline = time.monotonic() + DEADLINE_S

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def _fail(self, what: str, exc: Exception):
        self.failed += 1
        self.errors.append(f"{what}: {exc}")
        print(f"FAILED {what}: {exc}", file=sys.stderr)

    def setup(self) -> float | None:
        """Set-up time of one fresh interpreter, or None if it failed."""
        self.attempted += 1
        try:
            return worker("setup", self.overrides, None, self.remaining())["setup_s"]
        except RunFailed as exc:
            self._fail(f"setup {self.attempted}", exc)
            return None

    def config(self, out: Path):
        from ghostsim.config import load_config

        return load_config(None, environ={},
                           overrides={**self.overrides, "output_dir": str(out)})

    def run(self, mode: str = "run", inject=None) -> dict | None:
        """One checked run; returns the worker's sample, or None if it failed.

        ``inject`` may damage the outputs before they are checked.
        """
        self.attempted += 1
        out = self.work / f"run-{self.attempted}"
        out.mkdir(parents=True)
        try:
            sample = worker(mode, {**self.overrides, "output_dir": str(out)}, out,
                            self.remaining())
            if inject is not None:
                inject(out)
            try:
                problems = check_outputs(out, self.config(out), self.basis_beats_post)
            except Exception as exc:  # outputs the checker cannot read fail it
                problems = [f"unreadable outputs: {exc!r}"]
            if problems:
                raise RunFailed("; ".join(problems))
            self.digests.append(
                hashlib.sha256((out / "snr_sweep.csv").read_bytes()).hexdigest())
            return sample
        except RunFailed as exc:
            self._fail(f"{mode} {self.attempted}", exc)
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- metrics

def frame_count(session: Session) -> int:
    """Binary frames one run simulates: ``projection_count`` of the parent
    (post route) and of the filter-modified basis (basis route), per cell."""
    from ghostsim.bases import (HADAMARD, canonical_basis, hadamard_basis,
                                modify_basis, projection_count)
    from ghostsim.core import GridSpec

    cfg = session.config(session.work)
    grid = GridSpec(cfg.grid_side)
    parent = hadamard_basis(grid) if cfg.basis == HADAMARD else canonical_basis(grid)
    per_cell = (projection_count(parent, cfg.repeats_per_pattern)
                + projection_count(modify_basis(parent, cfg.kernel),
                                   cfg.repeats_per_pattern))
    return per_cell * len(cfg.integration_times_ms) * cfg.repeats


def _sum(spans: dict, key: str, *names: str):
    """A span field, or else a measured count, summed over the named
    functions; None when none of them was traced."""
    present = [spans[n] for n in names if n in spans]
    if not present:
        return None
    return sum(s[key] if key in s else s["counts"].get(key, 0) for s in present)


def _under(spans: dict, caller: str, *names: str):
    """Time of the named spans that ``caller`` made directly."""
    if caller not in spans or not any(n in spans for n in names):
        return None
    return sum(spans[n]["by_caller_s"].get(caller, 0.0) for n in names if n in spans)


def _ratio(a, b, scale=1.0):
    return None if a is None or not b else scale * a / b


def layer_metrics(spans: dict, frames: int, traced_run_s: float,
                  untraced_run_s: float) -> dict:
    """Per-layer values from one traced run; None where a name is gone."""
    post = spans.get("reconstruct.post_processed_image")
    basis = spans.get("reconstruct.basis_processed_image")
    protocols = ("bench.run_post_protocol", "bench.run_basis_protocol")
    acquire = _sum(spans, "total_s", *protocols)
    sweep = _sum(spans, "total_s", "analysis.sweep_cells")
    cells = _sum(spans, "total_s", "reconstruct.post_processed_image",
                 "reconstruct.basis_processed_image")
    modified = _sum(spans, "bytes", "bases.modify_basis")
    calls = max(1, _sum(spans, "calls", "bases.modify_basis") or 0)
    pgmio = [n for n in spans if n.startswith("pgmio.")]
    return {
        "config.load_s": _sum(spans, "total_s", "config.load_config"),
        "cli.build_scene_s": _sum(spans, "total_s", "cli.build_scene"),
        "bases.build_s": _sum(spans, "total_s", "bases.canonical_basis",
                              "bases.hadamard_basis"),
        "bases.modify_s": _sum(spans, "total_s", "bases.modify_basis"),
        "bases.modified_mb": _ratio(modified, calls * 2**20),
        "bases.parts": _sum(spans, "parts", "bases.decompose_basis"),
        "bases.decompose_s": _sum(spans, "total_s", "bases.decompose_basis"),
        "bases.decompose_calls": _sum(spans, "calls", "bases.decompose_basis"),
        "bench.acquire_s": acquire,
        # split by route: a Hadamard post cell acquires with the weighted protocol
        "bench.post_protocol_s": _under(spans, "reconstruct.post_processed_image",
                                        *protocols),
        "bench.basis_protocol_s": _under(spans, "reconstruct.basis_processed_image",
                                         *protocols),
        "bench.frames": frames,
        "bench.us_per_frame": _ratio(acquire, frames, 1e6),
        "reconstruct.reconstruct_s": _sum(spans, "total_s", "reconstruct.reconstruct"),
        "reconstruct.post_process_s": _sum(spans, "total_s", "reconstruct.post_process"),
        "core.stencil_s": _sum(spans, "total_s", "core.cyclic_convolve",
                               "core.cyclic_correlate"),
        "reconstruct.cell_s.post.median": post and post["median_s"],
        "reconstruct.cell_s.post.max": post and post["max_s"],
        "reconstruct.cell_s.post.self": post and post["self_s"],
        "reconstruct.cell_s.basis.median": basis and basis["median_s"],
        "reconstruct.cell_s.basis.max": basis and basis["max_s"],
        "reconstruct.cell_s.basis.self": basis and basis["self_s"],
        "analysis.sweep_s": sweep,
        "analysis.snr_s": _sum(spans, "total_s", "analysis.compute_snr"),
        "analysis.masks_s": _sum(spans, "total_s", "analysis.select_peak_mask",
                                 "analysis.select_background_mask",
                                 "analysis.mask_from_rect"),
        "analysis.overlap": _ratio(cells, sweep),
        "pgmio.write_s": _sum(spans, "outer_s", *pgmio),
        "pgmio.files": _sum(spans, "calls", "pgmio.atomic_write_text"),
        "pgmio.bytes": _sum(spans, "bytes", "pgmio.atomic_write_text"),
        "trace.overhead": _ratio(traced_run_s, untraced_run_s),
    }


def _reported(spec: list[dict], values: dict) -> dict:
    """The metrics of ``spec`` (a BENCHMARK.json list) that have a value."""
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec if values.get(m["name"]) is not None}


def machine_record() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # older numpy has no dict mode
        blas = {"error": repr(exc)}
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "worker_thread_env": WORKER_ENV,
        "platform": platform.platform(),
        "commit": commit,
    }


# ---------------------------------------------------------------- modes

def _remove(work: Path):
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK.rmdir()  # only once no other invocation is using it
    except OSError:
        pass


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    session = Session(WORKLOADS[name], seed, work)
    try:
        frames = frame_count(session)
        setup = [session.setup() for _ in range(0 if trace else SETUP_SAMPLES)]
        setup = [s for s in setup if s is not None]

        runs, traced = [], []
        start, rounds = time.perf_counter(), 0
        while True:
            sample = session.run("run")
            if sample is not None:
                runs.append(sample)
                setup.append(sample["setup_s"])
            if trace:
                sample = session.run("trace")
                if sample is not None:
                    traced.append(sample)
            rounds += 1
            elapsed = time.perf_counter() - start
            round_s = elapsed / rounds
            if elapsed + round_s > seconds or round_s > session.remaining():
                break
    finally:
        _remove(work)

    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    metrics = {}
    run_s = [r["run_s"] for r in runs]
    if trace and runs and traced:
        base = statistics.median(run_s)
        per_run = [layer_metrics(t["spans"], frames, t["run_s"], base) for t in traced]
        layer = {}
        for key in per_run[0]:
            values = [m[key] for m in per_run if m[key] is not None]
            layer[key] = statistics.median(values) if values else None
        metrics = _reported(spec["per_layer"], layer)
    elif not trace and runs:
        metrics = _reported(spec["end_to_end"], {
            "run_s": statistics.median(run_s),
            "setup_s": statistics.median(setup) if setup else None,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "frames_per_s": statistics.median(frames / t for t in run_s),
        })
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "frames": frames, "run_s": run_s, "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "traced_run_s": [t["run_s"] for t in traced],
        "error_rate": session.failed / max(1, session.attempted),
        "errors": session.errors,
        "snr_sweep_sha256": sorted(set(session.digests)),
        "machine": machine_record(),
    }
    print(json.dumps({"record": record}))
    return {"correct": session.failed == 0 and bool(metrics),
            "attempted": max(1, session.attempted), "failed": session.failed,
            "metrics": metrics}


def _delete_output(out: Path):
    next(out.glob("recon_*.meta")).unlink()


def _swap_labels(out: Path):
    for name in ("snr_sweep.csv", "snr_summary.csv"):
        path = out / name
        text = path.read_text(encoding="utf-8")
        text = text.replace(POST, "@").replace(BASIS, POST).replace("@", BASIS)
        path.write_text(text, encoding="utf-8")


def self_test() -> int:
    """A clean tiny run must pass; each injected fault must fail and count."""
    work = WORK / f"self-test-{os.getpid()}"
    session = Session(SELF_TEST, DEFAULT_SEED, work)
    outcome = {}
    try:
        for label, inject in (("clean", None), ("deleted output", _delete_output),
                              ("labels swapped", _swap_labels)):
            before = session.failed
            session.run("run", inject)
            outcome[label] = "failed" if session.failed > before else "passed"
    finally:
        _remove(work)
    ok = (outcome == {"clean": "passed", "deleted output": "failed",
                      "labels swapped": "failed"}
          and (session.attempted, session.failed) == (3, 2))
    print(json.dumps({"self_test": outcome, "attempted": session.attempted,
                      "failed": session.failed, "errors": session.errors,
                      "ok": ok}))
    return 0 if ok else 1


def _terminated(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and reaps the
    # running worker, and through the finally that removes the work directory.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminated)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that injected output faults are caught")
    args = parser.parse_args(argv)

    if not (SRC / "ghostsim" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no ghostsim sources under {SRC} or no {SPEC.name}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
