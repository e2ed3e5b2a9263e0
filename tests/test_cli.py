import io
import json
import time
from fractions import Fraction

import pytest

from tau_forge.cli import REGISTRY, UsageError, emit_report, main, run_check, select_checks
from tau_forge.report import VerificationReport


def test_registry_ids_unique_and_documented():
    assert len(REGISTRY) == len({c.check_id for c in REGISTRY.values()})
    for desc in REGISTRY.values():
        assert desc.anchor


def test_select_exact_and_glob():
    assert [c.check_id for c in select_checks("lm")] == ["lm"]
    kp = [c.check_id for c in select_checks("kp.*")]
    assert "kp.m3" in kp and "kp.m4" in kp and "kp.h6" in kp and "kp.cauchy" in kp
    with pytest.raises(UsageError):
        select_checks("nothing.matches.this")


def test_run_check_eq_half():
    reports = run_check("qliouville.eq-half")
    assert len(reports) == 1
    assert reports[0].verdict
    assert reports[0].check_id == "qliouville.eq-half"


def test_run_check_lm_overrides():
    reports = run_check("lm", {"j": 1, "jprime": 1})
    assert reports[0].verdict
    assert reports[0].params["j"] == 1


def test_emit_text_format():
    rep = VerificationReport(check_id="demo.check", verdict=True, anchor="demo", ms=12.0)
    buf = io.StringIO()
    emit_report([rep], "text", buf)
    assert buf.getvalue() == "PASS demo.check (demo) 12ms\n"


def test_emit_text_failure_shows_residual():
    rep = VerificationReport(
        check_id="demo.check", verdict=False, residual="q-1", anchor="demo", ms=1.0
    )
    buf = io.StringIO()
    emit_report([rep], "text", buf)
    out = buf.getvalue()
    assert out.startswith("FAIL demo.check")
    assert "residual: q-1" in out


def test_emit_json_schema():
    reports = run_check("toda.worked")
    buf = io.StringIO()
    emit_report(reports, "json", buf)
    data = json.loads(buf.getvalue())
    assert isinstance(data, list) and len(data) == 1
    entry = data[0]
    for key in ("id", "verdict", "residual", "params", "anchor", "ms"):
        assert key in entry
    assert entry["verdict"] == "PASS"


def test_emit_empty_list():
    buf = io.StringIO()
    emit_report([], "json", buf)
    assert json.loads(buf.getvalue()) == []
    buf = io.StringIO()
    emit_report([], "text", buf)
    assert buf.getvalue() == ""


def test_main_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "qliouville.eq-half" in out
    assert "kp.m4" in out


def test_main_verify_pass(capsys):
    assert main(["verify", "qliouville.eq-half"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS qliouville.eq-half")


def test_main_verify_json(capsys):
    assert main(["verify", "toda.worked", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["id"] == "toda.worked"


def test_confluence_checks_take_no_length(capsys):
    assert main(["list"]) == 0
    assert "max_len" not in capsys.readouterr().out
    assert main(["verify", "ncalg.confluence.*", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [d["id"] for d in data] == ["ncalg.confluence.funq-sl2", "ncalg.confluence.gauss-param"]
    for entry in data:
        assert entry["params"] == {}
        assert entry["details"][0].startswith("order: (weight, inversions against ")
        assert entry["details"][1].startswith("ambiguities: ")


def test_main_unknown_selector(capsys):
    assert main(["verify", "does.not.exist"]) == 2
    assert "error" in capsys.readouterr().err


def test_main_spin_override(capsys):
    assert main(["verify", "lm", "--j", "1", "--jprime", "1/2"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS lm")


def test_reports_deterministic():
    a = run_check("toda.random", {"seed": 0})
    b = run_check("toda.random", {"seed": 0})
    assert a[0].verdict == b[0].verdict
    assert a[0].details == b[0].details


def test_glob_runs_in_sorted_order():
    reports = run_check("qliouville.*")
    ids = [r.check_id for r in reports]
    assert ids == sorted(ids) and len(ids) == 3
    assert all(r.verdict for r in reports)


def test_every_check_reports_its_time():
    reports = run_check("*")
    assert [r.check_id for r in reports] == sorted(REGISTRY)
    assert [r.check_id for r in reports if not r.ms > 0] == []
    assert [r.check_id for r in reports if r.anchor != REGISTRY[r.check_id].anchor] == []


def test_ms_covers_the_whole_check(fresh_caches):
    # the vertex solves this check caches count towards its time
    t0 = time.perf_counter()
    (report,) = run_check("vertex.component-relations")
    wall = (time.perf_counter() - t0) * 1000.0
    assert report.ms >= 0.9 * wall


def test_component_relations_report_does_not_depend_on_caches(fresh_caches):
    import tau_forge.qvertex as qvertex

    def report():
        (r,) = run_check("vertex.component-relations")
        d = r.to_dict()
        del d["ms"]
        return d

    cold = report()
    run_check("*")
    assert qvertex._twisted_dual_components.cache_info().currsize
    assert report() == cold


def test_boundary_guard_surfaces_as_usage_error(capsys):
    assert main(["verify", "kp.m3", "--degree", "8"]) == 2
    assert "window" in capsys.readouterr().err


def test_exit_one_on_failure(monkeypatch, capsys):
    import tau_forge.cli as cli

    def failing(params):
        return VerificationReport(check_id="", verdict=False, residual="boom")

    desc = cli.REGISTRY["qscalar.qnumbers"]
    monkeypatch.setattr(desc, "fn", failing)
    assert main(["verify", "qscalar.qnumbers"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL")


@pytest.mark.parametrize(
    "argv",
    [
        ["kp.m3", "--degree", "-1"],
        ["kp.h6", "--degree", "-2"],
        ["kp.cauchy", "--degree", "-1"],
        ["ncalg.qexp-addition", "--degree", "-1"],
        ["kp.m3", "--degree", "0"],
    ],
)
def test_nonpositive_degree_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", *argv])
    assert exc.value.code == 2
    assert "degree must be at least 1" in capsys.readouterr().err


def test_flag_no_selected_check_takes_is_usage_error(capsys):
    assert main(["verify", "hopf.matrices", "--degree", "3"]) == 2
    assert "--degree" in capsys.readouterr().err
    # kp.h6 builds its group elements without randomness, so it takes no seed
    assert "seed" not in REGISTRY["kp.h6"].params
    assert main(["verify", "kp.h6", "--seed", "1"]) == 2
    with pytest.raises(UsageError):
        run_check("lm.grid", {"j": 1})


def test_jmax_flag_reaches_the_spin_rungs(capsys):
    assert main(["verify", "hopf.matrices", "--jmax", "2"]) == 0
    assert capsys.readouterr().out.startswith("PASS hopf.matrices")
    assert main(["verify", "hopf.matrices", "--jmax", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["params"] == {"jmax": "2"}
    # _spins rejects a jmax below 1/2
    assert main(["verify", "hopf.matrices", "--jmax", "0"]) == 2
    assert "jmax must be at least 1/2" in capsys.readouterr().err
    # no selected check takes jmax
    assert main(["verify", "lm", "--jmax", "2"]) == 2
    assert "--jmax" in capsys.readouterr().err


def test_kp_degree5_window10_passes(capsys):
    # a true identity the old one-spare-weight margin failed (FAIL, 18 s)
    t0 = time.perf_counter()
    assert main(["verify", "kp.h6", "--degree", "5", "--window", "10"]) == 0
    assert time.perf_counter() - t0 < 10.0
    assert capsys.readouterr().out.startswith("PASS kp.h6")


@pytest.mark.parametrize("window", [8, 10])
def test_kp_parameter_domain_never_fails(window, capsys):
    # around the defaults every run is a PASS or a usage error, never a FAIL
    runs = [["kp.h6", "--degree", str(d)] for d in (3, 4, 5)]
    runs += [["kp.m4", "--degree", str(d), "--seed", str(s)] for d in (5, 6, 7) for s in (0, 1, 2)]
    runs += [["kp.m3", "--degree", str(d), "--seed", str(s)] for d in (5, 6, 7) for s in (0, 1, 2)]
    runs += [["kp.cauchy", "--degree", str(d)] for d in (4, 5, 6)]
    for argv in runs:
        code = main(["verify", *argv, "--window", str(window)])
        out = capsys.readouterr().out
        assert code in (0, 2), (argv, out)


def test_heisenberg_runs_on_the_window_it_reports(capsys):
    # a_-l raises modes up to l = kmax = 4 on the vacuum: window 4 reaches its edge
    assert main(["verify", "kp.heisenberg", "--window", "4"]) == 2
    assert "touches the window edge" in capsys.readouterr().err
    assert main(["verify", "kp.heisenberg", "--window", "5"]) == 0


def test_lm_parameter_domain_passes():
    spins = [Fraction(t, 2) for t in range(1, 5)]
    for j in spins:
        for jp in spins:
            (report,) = run_check("lm", {"j": j, "jprime": jp})
            assert report.verdict, (j, jp, report.residual)


@pytest.mark.parametrize("argv", [["--j", "0"], ["--jprime", "0"], ["--j=-1/2"], ["--j", "1/3"]])
def test_lm_spin_outside_the_domain_is_usage_error(argv, capsys):
    assert main(["verify", "lm", *argv]) == 2
    assert "invalid parameters" in capsys.readouterr().err


def test_toda_parameter_domain_passes():
    reports = [report for s in range(10) for report in run_check("toda.random", {"seed": s})]
    reports += run_check("toda.worked")
    assert [(r.check_id, r.params, r.residual) for r in reports if not r.verdict] == []


class _ReadRecorder(dict):
    """Params that record which keys a runner indexes; a runner that falls
    back with ``get`` keeps a second default beside the registry's."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()
        self.fallbacks = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.fallbacks.add(key)
        return super().get(key, default)


def test_every_registered_param_is_read():
    # a flag a check takes must change what the check runs
    unread, fallbacks = {}, {}
    for cid, desc in sorted(REGISTRY.items()):
        params = _ReadRecorder(desc.params)
        assert desc.fn(params).verdict, cid
        if set(desc.params) - params.read:
            unread[cid] = sorted(set(desc.params) - params.read)
        if params.fallbacks:
            fallbacks[cid] = sorted(params.fallbacks)
    assert unread == {}
    assert fallbacks == {}


@pytest.mark.parametrize("check_id", [
    "hopf.matrices", "vertex.component-relations", "vertex.normalizations", "vertex.qexp-commutation",
    "funq.dual-route", "funq.gradings",
])
@pytest.mark.parametrize("jmax", [0, -1, Fraction(5, 4)])
def test_jmax_below_half_or_off_the_half_integers_is_rejected(check_id, jmax):
    # jmax 0 and -1 used to pass with no spin checked, and 5/4 ran to 1
    with pytest.raises(ValueError):
        run_check(check_id, {"jmax": jmax})
