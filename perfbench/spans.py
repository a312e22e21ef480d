"""Tracing for the benchmark's traced run: spans, layer wrappers, the layer
probe, and the per-layer metrics computed from the spans.

Spans are recorded from the benchmark's own code only.  During a traced CLI
call, ``wrap_layers`` swaps selected public functions of the package for
wrappers that open a span around each call, so the spans nest as the layers
call each other; the package source is not touched.  The probe then calls each
layer's public functions once at the op's theta, one leaf span per call, so
every per-call cost is measured on every workload.
"""

from __future__ import annotations

import csv
import math
import statistics
import sys
from collections import defaultdict
from time import perf_counter_ns

NAME, OP, PARENT, START, END, COUNT, ERROR = range(7)


class Tracer:
    """In-memory spans: [name, op id, parent index, start ns, end ns, count, error].

    ``count`` is the work a span did where its layer reports one: integrand
    evaluations for a quadrature, callback evaluations for a root solve,
    accepted steps for a flow.  ``counts`` holds other per-op counters.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: list[tuple[int, str, float]] = []
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op, parent, 0, 0, 0, 0])
        self._stack.append(idx)
        self.spans[idx][START] = perf_counter_ns()
        return idx

    def close(self, idx: int, count: int = 0, error: bool = False) -> None:
        span = self.spans[idx]
        span[END] = perf_counter_ns()
        span[COUNT] = count
        span[ERROR] = int(error)
        self._stack.pop()

    def call(self, name: str, fn, *args):
        """fn(*args) inside a span; an exception is recorded on the span and
        swallowed (the probe must go on), and None is returned."""
        idx = self.open(name)
        try:
            result = fn(*args)
        except Exception:
            self.close(idx, error=True)
            return None
        self.close(idx)
        return result

    def count(self, name: str, value: float) -> None:
        self.counts.append((self.op, name, value))

    def write(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["kind", "name", "op", "parent", "start_ns", "end_ns", "count", "error"])
            for s in self.spans:
                out.writerow(["span", *s])
            for op, name, value in self.counts:
                out.writerow(["count", name, op, "", "", "", value, ""])


# (module, public function, span name) wrapped during a traced CLI call.
# The first group are the CLI's direct callees: cli.self_ms is the cli span
# minus these.  The rest are the deeper boundaries whose counts we need.
TREE_LAYERS = (
    ("verify", "verification_records", "verify.records"),
    ("fisher", "metric_paper", "fisher.closed_form"),
    ("fisher", "metric_numeric_hessian", "fisher.metric_hessian"),
    ("fisher", "metric_numeric_outer", "fisher.metric_outer"),
    ("flow", "integrate_flow", "flow.integrate"),
    ("flow", "lyapunov_report", "flow.lyapunov"),
    ("fisher", "compare_metrics", "fisher.compare_metrics"),
    ("oracles", "expectation_quadrature", "oracles.expectation"),
    ("oracles", "integrate_halfline", "oracles.quad"),
    ("oracles", "find_root_bracketed", "oracles.root"),
    ("logit", "solve_constraint", "logit.solve_constraint"),
    ("logit", "solve_near", "logit.solve_near"),
    ("logit", "potential_hessian_total", "logit.hessian_total"),
)
CLI_CALLEES = {name for _, _, name in TREE_LAYERS[:6]}


def _wrapper(tr: Tracer, name: str, fn):
    if name == "oracles.root":

        def wrapped(f, *args, **kwargs):
            evals = 0

            def counted(x):
                nonlocal evals
                evals += 1
                return f(x)

            idx = tr.open(name)
            try:
                result = fn(counted, *args, **kwargs)
            except BaseException:
                tr.close(idx, evals, error=True)
                raise
            tr.close(idx, evals)
            return result

        return wrapped

    def wrapped(*args, **kwargs):
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tr.close(idx, error=True)
            raise
        count = 0
        if name == "oracles.quad":
            count = result.evaluations
        elif name == "flow.integrate":
            count = result.accepted
            tr.count("flow.rejected", result.rejected)
        tr.close(idx, count)
        return result

    return wrapped


class wrap_layers:
    """Context manager: every package-module global bound to a TREE_LAYERS
    function is replaced by its span-recording wrapper, and restored on exit."""

    def __init__(self, tr: Tracer, package: str = "logitweibull"):
        self.tr = tr
        self.package = package
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(self.package + ".")]
        for mod_name, attr, span_name in TREE_LAYERS:
            original = getattr(sys.modules.get(f"{self.package}.{mod_name}"), attr, None)
            if original is None:
                continue
            wrapper = _wrapper(self.tr, span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self.saved.append((module, key, original))
                        setattr(module, key, wrapper)
        return self

    def __exit__(self, *exc):
        for module, key, original in reversed(self.saved):
            setattr(module, key, original)
        self.saved.clear()
        return False


# Sample points per op for the family layer's per-call costs.
FAMILY_SAMPLES = 8
# The audit op runs no flow; its traced run takes the flow metrics from a
# short fixed-x trajectory in the probe instead (10 RK4 steps).
PROBE_FLOW_T_END = 0.01


def probe(tr: Tracer, theta: tuple[float, float], seed: int, with_flow: bool) -> None:
    """Call each layer's public functions once at theta, one leaf span per call."""
    from logitweibull import family, fisher, flow, logit, oracles, verify

    th = family.ThetaPoint(*theta)
    for x in family.sample(th, seed, FAMILY_SAMPLES).tolist():
        tr.call("family.pdf", family.pdf, th, x)
        tr.call("family.score", family.score, th, x)
        tr.call("family.hessian", family.log_likelihood_hessian, th, x)
    tr.call("fisher.closed_form", fisher.metric_paper, th)
    tr.call("verify.records", verify.verification_records, th)
    tr.call("fisher.compare_metrics", fisher.compare_metrics, th)
    tr.call("fisher.metric_hessian", fisher.metric_numeric_hessian, th)
    tr.call("fisher.metric_outer", fisher.metric_numeric_outer, th)
    tr.call("oracles.expectation", oracles.expectation_quadrature, th, math.log)
    tr.call("logit.hessian_fixed", logit.potential_hessian_fixed, th, 1.0)
    tr.call("logit.dual_fixed", logit.dual_coordinates, th, 1.0, "fixed_x")
    tr.call("logit.information", logit.logit_information, th, 1.0, "fixed_x")
    root = tr.call("logit.solve_constraint", logit.solve_constraint, th)
    tr.call("logit.solve_near", logit.solve_near, th, th.a)
    if root is not None:
        tr.call("logit.hessian_total", logit.potential_hessian_total, th, root.x)
        tr.call("logit.dual_total", logit.dual_coordinates, th, root.x, "total_derivative")
    tr.call("flow.field_fixed", flow.vector_field, th, 1.0, "descent")
    tr.call("flow.field_root", flow.vector_field, th, "root", "descent")
    if with_flow:
        idx = tr.open("flow.integrate")
        try:
            traj = flow.integrate_flow(th, 1.0, "descent", PROBE_FLOW_T_END)
        except Exception:
            tr.close(idx, error=True)
            return
        tr.close(idx, traj.accepted)
        tr.count("flow.rejected", traj.rejected)
        tr.call("flow.lyapunov", flow.lyapunov_report, traj)


# ------------------------------------------------------------------- metrics

# Per-layer metric name -> (span name, unit scale from ns), from probe spans.
PROBE_COSTS = {
    "verify.records_ms": ("verify.records", 1e-6),
    "fisher.metric_hessian_ms": ("fisher.metric_hessian", 1e-6),
    "fisher.metric_outer_ms": ("fisher.metric_outer", 1e-6),
    "fisher.compare_metrics_ms": ("fisher.compare_metrics", 1e-6),
    "fisher.closed_form_us": ("fisher.closed_form", 1e-3),
    "oracles.expectation_ms": ("oracles.expectation", 1e-6),
    "family.pdf_us": ("family.pdf", 1e-3),
    "family.score_us": ("family.score", 1e-3),
    "family.hessian_us": ("family.hessian", 1e-3),
    "logit.solve_constraint_ms": ("logit.solve_constraint", 1e-6),
    "logit.solve_near_ms": ("logit.solve_near", 1e-6),
    "logit.hessian_total_ms": ("logit.hessian_total", 1e-6),
    "logit.dual_total_us": ("logit.dual_total", 1e-3),
    "logit.hessian_fixed_us": ("logit.hessian_fixed", 1e-3),
    "logit.dual_fixed_us": ("logit.dual_fixed", 1e-3),
    "logit.information_us": ("logit.information", 1e-3),
    "flow.field_fixed_us": ("flow.field_fixed", 1e-3),
    "flow.field_root_ms": ("flow.field_root", 1e-6),
}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every span-derived per-layer metric of a traced run.

    Per-call costs are medians over the probe's successful calls.  Counts are
    per traced op and come from the CLI call tree only, so a layer the op never
    reaches reads 0; the quadrature failure share alone comes from the
    ROADMAP-box scan, whose failing corners the timed inputs leave out.  The
    flow metrics come from the CLI tree when the op runs a flow, else from the
    probe's short trajectory.
    """
    spans = tr.spans
    dur = [s[END] - s[START] for s in spans]
    roots = []  # name of each span's top-level ancestor
    for s in spans:
        roots.append(s[NAME] if s[PARENT] < 0 else roots[s[PARENT]])
    ops = sorted({s[OP] for s in spans if s[PARENT] < 0 and s[NAME] == "cli"})

    def select(name: str, root: str) -> list[int]:
        return [i for i, s in enumerate(spans) if s[NAME] == name and roots[i] == root]

    out = {}
    for metric, (name, scale) in PROBE_COSTS.items():
        out[metric] = _median([dur[i] * scale for i in select(name, "probe") if not spans[i][ERROR]])

    cli_total = defaultdict(int)
    callee_total = defaultdict(int)
    untraced = defaultdict(int)
    for i, s in enumerate(spans):
        if s[NAME] == "cli" and s[PARENT] < 0:
            cli_total[s[OP]] += dur[i]
        elif s[NAME] == "cli.untraced" and s[PARENT] < 0:
            untraced[s[OP]] += dur[i]
        elif s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "cli" and s[NAME] in CLI_CALLEES:
            callee_total[s[OP]] += dur[i]
    out["cli.self_ms"] = _median([(cli_total[o] - callee_total[o]) * 1e-6 for o in ops])
    out["trace.overhead_ms"] = _median([(cli_total[o] - untraced[o]) * 1e-6 for o in ops])
    out["trace.overhead_frac"] = _median([cli_total[o] / untraced[o] - 1.0 for o in ops if untraced[o] > 0])

    n_ops = max(len(ops), 1)
    quads = select("oracles.quad", "cli")
    out["oracles.quad_calls_per_op"] = len(quads) / n_ops
    scan_quads = select("oracles.quad", "scan")
    out["oracles.quad_fail_frac"] = sum(spans[i][ERROR] for i in scan_quads) / len(scan_quads) if scan_quads else 0.0
    out["oracles.integrand_evals"] = sum(spans[i][COUNT] for i in quads) / n_ops
    solves = select("oracles.root", "cli")
    out["oracles.root_evals_per_solve"] = sum(spans[i][COUNT] for i in solves) / len(solves) if solves else 0.0

    source = "cli" if select("flow.integrate", "cli") else "probe"
    flows = [i for i in select("flow.integrate", source) if not spans[i][ERROR]]
    monitors = [i for i in select("flow.lyapunov", source) if not spans[i][ERROR]]
    flow_ns = sum(dur[i] for i in flows)
    monitor_ns = sum(dur[i] for i in monitors)
    out["flow.rk4_steps_per_s"] = sum(spans[i][COUNT] for i in flows) / (flow_ns * 1e-9) if flow_ns else 0.0
    rejected = [v for op, name, v in tr.counts if name == "flow.rejected" and op >= 0]
    out["flow.rejected_steps"] = _mean(rejected)
    out["flow.lyapunov_ms"] = _median([dur[i] * 1e-6 for i in monitors])
    out["flow.lyapunov_share"] = monitor_ns / (flow_ns + monitor_ns) if flow_ns + monitor_ns else 0.0
    return out


def parse_importtime(stderr: str, package: str) -> tuple[float, float]:
    """(package import seconds, scipy import seconds) from ``-X importtime`` output.

    The package time is its cumulative entry; scipy's is the sum of the self
    times of every scipy module, wherever in the tree it was imported.
    """
    total_us = scipy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:") :].split("|")
        if not fields[0].strip().isdigit():
            continue  # the header line
        self_us, cumulative_us, module = int(fields[0]), int(fields[1]), fields[2].strip()
        if module == package:
            total_us = cumulative_us
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += self_us
    return total_us * 1e-6, scipy_us * 1e-6
