"""The audit table in verify: one entry per audited formula, shared oracles
computed once per grid point, the fisher views as slices of the table, and the
rule that an oracle finding no root or a singular matrix is a NaN finding."""

import json
import math

import pytest

import logitweibull as lw
from logitweibull import oracles
from logitweibull import verify as verify_module
from logitweibull.cli import main
from logitweibull.logit import SingularInformationError
from logitweibull.oracles import BracketError

THETA = (1.3, 2.1)


def count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that counts its calls; return the counter list."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_audited_formulas_are_the_table_names_in_report_order():
    names = tuple(entry[0] for entry in verify_module.AUDIT)
    assert verify_module.AUDITED_FORMULAS == names
    assert len(set(names)) == len(names) == 13
    assert [r.name for r in lw.verification_records(THETA)] == list(names)


def test_fisher_views_are_table_slices():
    full = lw.verification_records(THETA)
    assert lw.compare_metrics(THETA) == full[:7]
    assert lw.verify_inverse(THETA) == full[7]
    assert [r.name for r in lw.compare_metrics(THETA)] == ["g11", "g12", "g22", "E[x^b]", "E[log x]", "E[x^b log x]", "E[x^b log^2 x]"]


def test_seven_quadratures_per_point(monkeypatch):
    quads = count_calls(monkeypatch, oracles, "integrate_halfline")
    lw.verification_records(THETA)
    assert len(quads) == 7
    quads.clear()
    lw.compare_metrics(THETA)
    assert len(quads) == 7
    quads.clear()
    lw.verify_inverse(THETA)
    assert quads == []


@pytest.mark.parametrize("name", ["metric_paper", "metric_numeric_hessian", "solve_constraint", "logit_information"])
def test_shared_oracles_run_once_through_module_globals(monkeypatch, name):
    # a wrapper swapped into verify's globals is the one that runs, once per point
    calls = count_calls(monkeypatch, verify_module, name)
    lw.verification_records(THETA)
    assert len(calls) == 1
    calls.clear()
    lw.verification_records((0.5, 4.0))
    assert len(calls) == 1


def raising(exc):
    def fn(*args, **kwargs):
        raise exc

    return fn


def test_singular_information_is_a_nan_finding(monkeypatch):
    monkeypatch.setattr(verify_module, "logit_information", raising(SingularInformationError("det 1e-21 too small")))
    recs = {r.name: r for r in lw.verification_records(THETA)}
    rec = recs["I_times_inverse_minus_identity"]
    assert rec.paper_value == 0.0
    assert math.isnan(rec.oracle_value) and math.isnan(rec.abs_diff) and math.isnan(rec.rel_diff)
    assert rec.note == "singular: det 1e-21 too small"
    others = [r for name, r in recs.items() if name != "I_times_inverse_minus_identity"]
    assert all(math.isfinite(r.oracle_value) for r in others)


def test_missing_root_is_a_nan_finding(monkeypatch):
    monkeypatch.setattr(verify_module, "solve_constraint", raising(BracketError("no sign change")))
    rec = lw.verification_records(THETA)[-1]
    assert rec.name == "logit_score_component_gap"
    assert math.isnan(rec.oracle_value)
    assert rec.note == "no root: no sign change"


def test_other_errors_are_not_findings(monkeypatch):
    monkeypatch.setattr(verify_module, "logit_information", raising(RuntimeError("bug")))
    with pytest.raises(RuntimeError):
        lw.verification_records(THETA)


def test_verify_report_carries_the_finding(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(verify_module, "logit_information", raising(SingularInformationError("det 0 too small")))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta_grid": [[5, 8]]}))
    assert main(["--config", str(cfg), "verify"]) == 0
    recs = {r["name"]: r for r in json.loads(capsys.readouterr().out)["records"]}
    assert math.isnan(recs["I_times_inverse_minus_identity"]["oracle_value"])
    assert recs["I_times_inverse_minus_identity"]["note"] == "singular: det 0 too small"


def test_notes_are_filled_from_the_point():
    recs = {r.name: r for r in lw.verification_records((1, 1), potential_x=0.5)}
    assert recs["Phi_closed_vs_integral"].note == "closed form vs exact double integral of the link at x=0.5"
    root = lw.solve_constraint((1, 1)).x
    assert recs["logit_score_component_gap"].note == f"score components at the constraint root x*={root:.12g}"
