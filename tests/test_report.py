"""``VerificationReport.from_failures``: the one rule that decides a verdict."""

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
