"""Report construction in ``src/``, found by scanning the syntax trees: a
``VerificationReport(...)`` call, a ``check_id=`` keyword or an assignment
to ``.check_id``.  A check is its list of failures, so every report is built
by ``VerificationReport.from_failures`` in ``report.py``; only the registry
names a check, which ``cli.run_check`` stamps on the report."""

import ast

from test_unused_private import src_sources

REPORT = "src/tau_forge/report.py"
CLI = "src/tau_forge/cli.py"


def report_sites(sources):
    """``sources`` maps a label to module text; returns "label:line what"
    for each report built or named outside ``report.py`` and ``run_check``."""
    found = []
    for label, text in sources.items():
        if label == REPORT:
            continue
        tree = ast.parse(text)
        exempt = set()
        if label == CLI:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "run_check":
                    exempt = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "VerificationReport":
                    found.append(f"{label}:{node.lineno} VerificationReport(")
                elif any(k.arg == "check_id" for k in node.keywords):
                    found.append(f"{label}:{node.lineno} check_id=")
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "check_id" for t in targets):
                    found.append(f"{label}:{node.lineno} .check_id =")
    return found


def test_reports_are_built_by_the_constructor_and_named_by_the_registry():
    assert report_sites(src_sources()) == []


def test_scan_finds_each_pattern():
    sources = {
        REPORT: "def f():\n    return VerificationReport(check_id='x', verdict=True)\n",
        CLI: (
            "def run_check(rep):\n    rep.check_id = 'ok'\n\n\n"
            "def runner(rep):\n    rep.check_id = 'lm'\n"
            "    return report.VerificationReport('lm', False)\n"
        ),
        "src/tau_forge/toda.py": (
            "def verify():\n    rep = make(check_id='toda.bilinear')\n"
            "    return VerificationReport.from_failures([])\n"
        ),
    }
    assert report_sites(sources) == [
        f"{CLI}:6 .check_id =",
        f"{CLI}:7 VerificationReport(",
        "src/tau_forge/toda.py:2 check_id=",
    ]
