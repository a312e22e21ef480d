"""Benchmark of the logitweibull CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload audit --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Run from the root of a checkout; the package is imported from its ``src``.
Every run of a workload starts fresh interpreters (perfbench/worker.py), so
set-up includes interpreter start and ``import logitweibull``.  With
``--trace 0`` a run reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a separate traced run.  Each metric
is printed by name with its unit, after the seed and the machine facts; the
last line of standard output is the JSON result.  ``--workload all`` runs
every workload in turn and ends with one JSON object holding each result.
Spans and results are kept under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from spans import parse_importtime
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
PACKAGE = "logitweibull"

# Fresh interpreters timed from spawn to ready; setup_s is their median.
SETUP_SAMPLES = 5
# Fresh interpreters under -X importtime for the import layer.
IMPORT_SAMPLES = 3
# A worker that outlives its measuring time by this much is killed.
WORKER_GRACE_S = 100


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json order ("end_to_end" or "per_layer")."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def machine_facts() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, PACKAGE)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def run_worker(workload: str, seed: int, seconds: float, spans_path: str | None, setup_only: bool) -> tuple[float, dict | None]:
    """Spawn one worker; (seconds from spawn to ready, its result or None)."""
    os.makedirs(os.path.join(OUT, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(OUT, "work"))
    args = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "workdir": workdir,
        "spans_path": spans_path,
        "setup_only": setup_only,
    }
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(args)]
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate(timeout=seconds + WORKER_GRACE_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"worker for {workload} failed (exit {proc.returncode})")
        if setup_only:
            return ready, None
        with open(os.path.join(workdir, "result.json")) as fh:
            return ready, json.load(fh)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} timed out") from exc
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _quantile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation quantile of an ascending list."""
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (pos - lo) * (sorted_values[hi] - sorted_values[lo])


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Set-up samples, then one untraced closed-loop run; (metrics, outcome)."""
    setups = [run_worker(workload, seed, seconds, None, True)[0] for _ in range(SETUP_SAMPLES - 1)]
    ready, res = run_worker(workload, seed, seconds, None, False)
    setups.append(ready)
    ok_ms = sorted(res["ok_ms"])
    if len(ok_ms) < 10:
        raise BenchError(f"{workload}: only {len(ok_ms)} successful ops; raise --seconds")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(ok_ms) / res["busy_s"],
        "op_p50_ms": _quantile(ok_ms, 0.5),
        "op_p90_ms": _quantile(ok_ms, 0.9),
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "ok_frac": len(ok_ms) / res["attempted"],
    }
    raw_ms = sorted(res.pop("ok_raw_ms"))
    res["raw"] = {
        "ops_per_s": len(raw_ms) / res["busy_raw_s"],
        "op_p50_ms": _quantile(raw_ms, 0.5),
        "op_p90_ms": _quantile(raw_ms, 0.9),
    }
    res["samples"] = len(ok_ms)
    res["beyond_p90"] = sum(v > metrics["op_p90_ms"] for v in ok_ms)
    return metrics, res


def import_layer() -> dict:
    """import.total_s and import.scipy_s, medians over fresh interpreters."""
    totals, scipys = [], []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", f"import {PACKAGE}"],
            cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"import {PACKAGE} failed: {proc.stderr.strip().splitlines()[-1:]}")
        total, scipy_s = parse_importtime(proc.stderr, PACKAGE)
        totals.append(total)
        scipys.append(scipy_s)
    return {"import.total_s": statistics.median(totals), "import.scipy_s": statistics.median(scipys)}


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Import layer, then one traced run; (per-layer metrics, outcome)."""
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans_path = os.path.join(OUT, "spans", f"{workload}-seed{seed}.csv")
    metrics = import_layer()
    _, res = run_worker(workload, seed, seconds, spans_path, False)
    metrics.update(res.pop("layers"))
    res["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics, res


def run_one(workload: str, seed: int, seconds: float, trace: bool, facts: dict) -> dict:
    metrics, res = (traced if trace else end_to_end)(workload, seed, seconds)
    units = _units("per_layer" if trace else "end_to_end")
    result = {
        "correct": res["wrong_outputs"] == 0 and res.get("scan", {}).get("wrong_outputs", 0) == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), "facts": facts,
              "outcome": {k: v for k, v in res.items() if k != "ok_ms"}, **result}
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    for name, m in result["metrics"].items():
        print(f"  {name:30s} {m['value']:14.6g} {m['unit']}")
    fail_frac = res["failed"] / res["attempted"]
    print(f"  {'fail_frac':30s} {fail_frac:14.6g} fraction  ({res['failed']} of {res['attempted']} ops: {res['failures']})")
    if not trace:
        print(f"  latency samples {res['samples']}, {res['beyond_p90']} beyond p90")
        print(f"  unscaled: {json.dumps(res['raw'])}")
    if res["failed_at"]:
        print(f"  failed at: {'; '.join(res['failed_at'])}")
    if trace:
        scan = res["scan"]
        print(f"  ROADMAP-box scan: {scan['failed']} of {scan['attempted']} grid points fail: {scan['failures']}")
        if scan["failed_at"]:
            print(f"    failed at: {'; '.join(scan['failed_at'])}")
    for example in res["examples"] + res.get("scan", {}).get("examples", []):
        print(f"  {example}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, PACKAGE, "__init__.py")):
        sys.stderr.write(f"error: no {PACKAGE} source under {SRC}\n")
        return 2
    try:
        facts = machine_facts()
        print(f"seed {args.seed}  facts {json.dumps(facts, sort_keys=True)}")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace), facts) for name in names}
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if args.workload == "all":
        print(json.dumps({"seed": args.seed, "facts": facts, "results": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
