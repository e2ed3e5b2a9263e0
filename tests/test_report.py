"""``VerificationReport.from_failures``: the one rule that decides a verdict."""

from tau_forge import qscalar
from tau_forge.cli import _combine, run_check
from tau_forge.report import RESIDUAL_CAP, VerificationReport


def test_no_failures_pass_with_the_given_details():
    rep = VerificationReport.from_failures([], params={"j": 1}, details=["order: x < y"])
    assert rep.verdict and rep.verdict_str == "PASS"
    assert rep.residual == ""
    assert rep.params == {"j": 1}
    assert rep.details == ["order: x < y"]
    assert VerificationReport.from_failures([]).details == []


def test_failures_fail_and_are_the_details():
    failures = ["k=1: residual nonzero", "k=2: d_u tau_k != bordered minor"]
    rep = VerificationReport.from_failures(failures)
    assert not rep.verdict
    assert rep.residual == "k=1: residual nonzero; k=2: d_u tau_k != bordered minor"
    assert rep.details == failures
    assert rep.check_id == ""


def test_residual_is_cut_at_the_cap_and_details_stay_complete():
    failures = [f"entry {i} nonzero" for i in range(100)]
    assert len("; ".join(failures)) > RESIDUAL_CAP
    rep = VerificationReport.from_failures(failures)
    assert len(rep.residual) == RESIDUAL_CAP
    assert rep.residual == "; ".join(failures)[:RESIDUAL_CAP]
    assert rep.details == failures
    # caller lines replace the failures in the details, never in the residual
    rep = VerificationReport.from_failures(failures, details=["certificate"])
    assert len(rep.residual) == RESIDUAL_CAP and rep.details == ["certificate"]


def test_text_line_prints_each_failure_once(fresh_caches, monkeypatch):
    # a wrong (n)_q fails qscalar.qnumbers with a list of failures, which
    # are both the residual and the details
    monkeypatch.setattr(qscalar, "paren", lambda n, base_power=1: qscalar.ONE)
    (rep,) = run_check("qscalar.qnumbers")
    assert not rep.verdict and len(rep.details) > 1
    assert rep.to_dict()["residual"] == "; ".join(rep.details)[:RESIDUAL_CAP]
    assert rep.to_dict()["details"] == rep.details
    lines = rep.text_line().splitlines()
    assert not any("residual:" in line for line in lines)
    for failure in rep.details:
        assert sum(failure in line for line in lines) == 1


def test_residual_is_printed_when_the_details_do_not_hold_it():
    rep = VerificationReport.from_failures(["lhs - rhs = q"], details=["certificate: degree 4"])
    assert not rep.details_hold_residual()
    assert "\n  residual: lhs - rhs = q" in rep.text_line()
    # a residual cut at the cap is still held by the details it was cut from
    rep = VerificationReport.from_failures([f"entry {i} nonzero" for i in range(100)])
    assert rep.details_hold_residual()


def test_combine_repeats_no_child_failure():
    failing = VerificationReport.from_failures(["k=1: residual nonzero", "k=2: minor"], params={"j": 1})
    passing = VerificationReport.from_failures([], params={"j": 2})
    certified = VerificationReport.from_failures(["lhs != rhs"], params={"j": 3}, details=["certificate"])
    rep = _combine([failing, passing, certified])
    assert rep.details == [
        "FAIL {'j': 1}",
        "  k=1: residual nonzero",
        "  k=2: minor",
        "PASS {'j': 2}",
        "FAIL {'j': 3}",
        "  certificate",
        "  residual: lhs != rhs",
    ]
    lines = rep.text_line().splitlines()
    for failure in ("k=1: residual nonzero", "k=2: minor", "lhs != rhs"):
        assert sum(failure in line for line in lines) == 1
