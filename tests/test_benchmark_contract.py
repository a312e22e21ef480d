"""The names the benchmark in perfbench/ relies on still exist in the package.

perfbench/ is read here, never edited.  Its workload check compares each verify
report's record names with its own list, and its tracer wraps package functions
by (module, attribute) and calls others from its layer probe, reading each
attribute outside any error handler, so a renamed function would end a traced
run.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import sys

import pytest

from logitweibull.verify import AUDITED_FORMULAS

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = "logitweibull"
THETA = (1.3, 2.1)


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load("spans")


def probe_calls(spans) -> set[tuple[str, str]]:
    """Every (module, attribute) that spans.probe reads from a package module."""
    tree = ast.parse(inspect.getsource(spans.probe))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    return {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }


def test_audit_record_names_match_the_workload_check():
    assert AUDITED_FORMULAS == load("workloads").AUDIT_RECORDS


def test_wrapped_and_probed_functions_exist(spans):
    wanted = {(module, attr) for module, attr, _ in spans.TREE_LAYERS} | probe_calls(spans)
    assert ("fisher", "compare_metrics") in wanted and ("verify", "verification_records") in wanted
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(wanted)
        if not callable(getattr(importlib.import_module(f"{PACKAGE}.{module}"), attr, None))
    ]
    assert missing == []


def test_probe_runs_without_errors(spans):
    tr = spans.Tracer()
    spans.probe(tr, THETA, seed=1, with_flow=True)
    assert [s[spans.NAME] for s in tr.spans if s[spans.ERROR]] == []
    assert "fisher.compare_metrics" in {s[spans.NAME] for s in tr.spans}


def test_wrapped_verify_records_its_layers(spans):
    # the audit's package calls go through module globals, so the wrappers see them
    import logitweibull.cli  # noqa: F401  (loads every module the wrappers patch)
    from logitweibull import verify

    tr = spans.Tracer()
    with spans.wrap_layers(tr):
        verify.verification_records(THETA)
    names = [s[spans.NAME] for s in tr.spans]
    assert names.count("verify.records") == 1
    assert names.count("fisher.metric_hessian") == 1
    assert names.count("fisher.closed_form") == 1
    assert names.count("logit.solve_constraint") == 1
    assert names.count("oracles.quad") == 7
    assert verify.verification_records.__module__ == f"{PACKAGE}.verify"  # restored on exit
