"""One benchmark process: import logitweibull from the checkout, then run a
workload's ops in a closed loop (one client, no threads) and write the samples.

Started by run.py in a fresh interpreter, so the import is part of set-up.
It prints ``ready`` once the first op can run; run.py times set-up from spawn
to that line.  Usage (run.py builds the argument):

    python3 perfbench/worker.py '{"workload": "audit", "seed": 0, "seconds": 10,
        "workdir": ".perfbench/work/x", "spans_path": null, "setup_only": false}'

A ``spans_path`` selects the traced run, whose spans are written there.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

import numpy as np

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_package():
    sys.path.insert(0, SRC)
    import logitweibull
    import logitweibull.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(logitweibull.__file__))) != SRC:
        raise ImportError(f"logitweibull imported from {logitweibull.__file__}, not from {SRC}")
    return logitweibull.cli.main


# A shared 2-core host alternates between fast and slow phases: on a 2-core
# Xeon (Python 3.11, numpy 2.4) the same work then took up to 1.8x longer,
# and raw op times differed by 6-30% between runs.  So a fixed calibration
# kernel of pure-Python float math and small numpy operations, the package's
# own mix, runs between ops, and each op's time is scaled by
# (KERNEL_NOMINAL_MS / kernel time) ** KERNEL_EXPONENT.  On that host the log
# of an op's time moved 0.67-0.78 times as much as the log of the kernel's
# time (least squares over 2,658 paired samples of flow, root-flow and
# quadrature calls), hence the exponent; the nominal time is the kernel's
# median there.  The kernel is part of the benchmark, so a change to the
# package moves scaled and raw times alike.
KERNEL_NOMINAL_MS = 2.25
KERNEL_EXPONENT = 0.75


def kernel_ms() -> float:
    """Time of one run of the calibration kernel, in ms."""
    start = time.perf_counter()
    acc = 0.0
    v = np.zeros(2)
    for i in range(600):
        x = 1.0 + i * 1e-3
        acc += math.log(x) * math.exp(-x) + x**1.5
        v = v * 0.999 + np.array([acc, 1.0])
    return (time.perf_counter() - start) * 1e3


class Tally:
    """Outcome counts of a run: attempted, failed by reason, wrong outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, int] = {}
        self.examples: list[str] = []  # output-check findings; the first few are kept
        self.failed_at: list[str] = []  # "theta: reason" of the first failed ops

    def record(self, op: workloads.Op, error: BaseException | None) -> bool:
        """Judge a performed op; True when it succeeded."""
        self.attempted += 1
        if error is not None:
            reason = f"error: {type(error).__name__}"
        else:
            problems = workloads.check(op)
            wrong = [p for p in problems if not p.startswith(workloads.INACCURATE)]
            if problems:
                reason = "wrong output" if wrong else "oracle inaccurate"
                if len(self.examples) < 5:
                    self.examples.append(f"{reason} at theta={op.theta}: {(wrong or problems)[0]}")
            elif op.aborted:
                reason = "trajectory aborted"
            else:
                return True
        self.failures[reason] = self.failures.get(reason, 0) + 1
        if len(self.failed_at) < 20:
            self.failed_at.append(f"({op.theta[0]:.4g}, {op.theta[1]:.4g}): {reason}")
        return False

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": sum(self.failures.values()),
            "failures": self.failures,
            "wrong_outputs": self.failures.get("wrong output", 0),
            "examples": self.examples,
            "failed_at": self.failed_at,
        }


def timed(op: workloads.Op, main) -> tuple[float, BaseException | None]:
    """Perform the op; (seconds, exception or None).  Only this part is timed."""
    start = time.perf_counter()
    try:
        workloads.perform(op, main)
    except (Exception, SystemExit) as exc:  # the op boundary: a failure is data
        return time.perf_counter() - start, exc
    return time.perf_counter() - start, None


def run_untraced(wl, seed: int, seconds: float, workdir: str, main) -> dict:
    """Closed loop until the ops' own time reaches ``seconds``.

    Times are kept raw and scaled by the calibration kernel timed on both
    sides of each op (see KERNEL_EXPONENT).
    """
    tally = Tally()
    ok_ms: list[float] = []
    ok_raw_ms: list[float] = []
    busy = busy_scaled = 0.0
    kernel_before = kernel_ms()
    for theta in workloads.thetas(seed):
        if busy >= seconds:
            break
        op = workloads.prepare(wl, theta, workdir)
        elapsed, error = timed(op, main)
        kernel_after = kernel_ms()
        elapsed_scaled = elapsed * (KERNEL_NOMINAL_MS / (0.5 * (kernel_before + kernel_after))) ** KERNEL_EXPONENT
        kernel_before = kernel_after
        busy += elapsed
        busy_scaled += elapsed_scaled
        if tally.record(op, error):
            ok_ms.append(elapsed_scaled * 1e3)
            ok_raw_ms.append(elapsed * 1e3)
    return {**tally.summary(), "busy_s": busy_scaled, "busy_raw_s": busy, "ok_ms": ok_ms, "ok_raw_ms": ok_raw_ms}


def run_traced(wl, seed: int, seconds: float, workdir: str, main, spans_path: str,
               scan_side: int = workloads.SCAN_SIDE) -> dict:
    """Per op: the CLI call untraced, the same call traced, then the layer probe.

    Loops until ``seconds`` of wall time have passed, then performs the op,
    traced, at each point of the ROADMAP-box grid (the scan; its ops have
    negative ids and their failures are reported apart from the run's).
    Writes the spans to ``spans_path`` and returns the per-layer metrics
    computed from them.
    """
    tr = spans.Tracer()
    tally = Tally()
    deadline = time.perf_counter() + seconds
    for op_id, theta in enumerate(workloads.thetas(seed)):
        if time.perf_counter() >= deadline:
            break
        tr.op = op_id
        op = workloads.prepare(wl, theta, workdir)
        idx = tr.open("cli.untraced")
        _, error = timed(op, main)
        tr.close(idx, error=error is not None)
        tally.record(op, error)

        op = workloads.prepare(wl, theta, workdir)
        with spans.wrap_layers(tr):
            idx = tr.open("cli")
            _, error = timed(op, main)
            tr.close(idx, error=error is not None)
        tally.record(op, error)

        idx = tr.open("probe")
        spans.probe(tr, theta, seed + op_id, with_flow=wl.x_policy is None)
        tr.close(idx)

    scan = Tally()
    for k, theta in enumerate(workloads.roadmap_grid(scan_side)):
        tr.op = -1 - k
        op = workloads.prepare(wl, theta, workdir)
        with spans.wrap_layers(tr):
            idx = tr.open("scan")
            _, error = timed(op, main)
            tr.close(idx, error=error is not None)
        scan.record(op, error)
    tr.write(spans_path)
    layers = spans.layer_metrics(tr)
    layers["roadmap_box.ok_frac"] = 1.0 - scan.summary()["failed"] / scan.attempted
    return {**tally.summary(), "scan": scan.summary(), "layers": layers}


def main(argv: list[str]) -> int:
    args = json.loads(argv[0])
    cli_main = _import_package()
    wl = workloads.WORKLOADS[args["workload"]]
    # write one op's inputs, so the work directory is known to be usable
    workloads.prepare(wl, next(workloads.thetas(args["seed"])), args["workdir"])
    print("ready", flush=True)
    if args["setup_only"]:
        return 0
    if args["spans_path"]:
        result = run_traced(wl, args["seed"], args["seconds"], args["workdir"], cli_main, args["spans_path"])
    else:
        result = run_untraced(wl, args["seed"], args["seconds"], args["workdir"], cli_main)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(os.path.join(args["workdir"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
