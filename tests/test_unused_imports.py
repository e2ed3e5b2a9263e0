"""Names imported but never used, found by scanning the syntax trees of
``src/`` and ``tests/``.  An import kept on purpose (a re-export) carries
``# noqa: F401`` on its line."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOQA = "# noqa: F401"


def unused_imports(sources, honour_noqa=True):
    """``sources`` maps a label to module text; returns "label:line name"
    for each imported name the module never uses."""
    found = []
    for label, text in sources.items():
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            # names listed in __all__ are exported, hence used
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used.update(e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [(a, (a.asname or a.name).split(".")[0]) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [(a, a.asname or a.name) for a in node.names if a.name != "*"]
            else:
                continue
            for alias, name in names:
                marked = NOQA in lines[node.lineno - 1] or NOQA in lines[alias.lineno - 1]
                if name not in used and not (honour_noqa and marked):
                    found.append(f"{label}:{alias.lineno} {name}")
    return found


def test_no_unused_imports():
    paths = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/**/*.py")])
    assert unused_imports({str(path.relative_to(ROOT)): path.read_text() for path in paths}) == []


def test_scan_sees_the_marked_reexport():
    # without the marker a re-export is reported, so the scan does find an
    # import whose name is never used
    sources = {
        "a.py": "from .b import Error  # noqa: F401  (re-exported)\nfrom .b import used\n\nX = used()\n",
        "b.py": "import os\nimport sys\n\nY = sys.argv\n",
    }
    assert unused_imports(sources) == ["b.py:1 os"]
    assert unused_imports(sources, honour_noqa=False) == ["a.py:1 Error", "b.py:1 os"]
