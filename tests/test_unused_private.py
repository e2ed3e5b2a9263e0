"""Private functions (``def _name``) in ``src/``, at module level or in the
body of a module-level class, that nothing in ``src/`` references, found by
scanning the syntax trees.  A helper that only tests still call is dead code
of the program."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _refs(node):
    """Names read anywhere under ``node``, as bare names or attributes."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _functions(tree):
    """The module-level functions of a syntax tree and the methods of its
    module-level classes."""
    for node in tree.body:
        for n in node.body if isinstance(node, ast.ClassDef) else (node,):
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield n


def unused_private_functions(sources):
    """``sources`` maps a label to module text; returns "label:line name"
    for each private function or method referenced only by its own body."""
    trees = {label: ast.parse(text) for label, text in sources.items()}
    refs = Counter(name for tree in trees.values() for name in _refs(tree))
    found = []
    for label, tree in trees.items():
        for node in _functions(tree):
            name = node.name
            if not name.startswith("_") or name.startswith("__"):
                continue
            if refs[name] == sum(r == name for r in _refs(node)):
                found.append(f"{label}:{node.lineno} {name}")
    return found


def src_sources():
    return {
        str(path.relative_to(ROOT)): path.read_text()
        for path in sorted(ROOT.glob("src/**/*.py"))
    }


def test_no_unused_private_functions():
    assert unused_private_functions(src_sources()) == []


def test_scan_finds_an_unreferenced_helper():
    sources = {
        "a.py": "def _orphan(n):\n    return _orphan(n - 1) if n else 0\n\n"
        "def _used():\n    return 1\n\nX = _used()\n",
        "b.py": "from . import c\n\nY = c._attr_used()\n",
        "c.py": "def _attr_used():\n    return 2\n",
    }
    assert unused_private_functions(sources) == ["a.py:1 _orphan"]


def test_scan_finds_an_unreferenced_method():
    sources = {
        "a.py": "class Ring:\n    def _orphan(self):\n        return self._orphan()\n\n"
        "    def _used(self):\n        return 1\n\n    def __init__(self):\n        self.x = self._used()\n",
        "b.py": "from .a import Ring\n\nY = Ring()._called_from_b()\n",
        "c.py": "class Other:\n    def _called_from_b(self):\n        return 2\n",
    }
    assert unused_private_functions(sources) == ["a.py:2 _orphan"]


def test_scan_would_catch_the_old_word_sweep():
    # the length-bounded word generator the confluence check used to call
    sources = src_sources()
    label = "src/tau_forge/ncalg.py"
    sources[label] += (
        "\n\ndef _words_up_to(gens, max_len):\n"
        "    frontier = [()]\n"
        "    for _ in range(max_len):\n"
        "        frontier = [w + (g,) for w in frontier for g in gens]\n"
        "        yield from frontier\n"
    )
    found = unused_private_functions(sources)
    assert len(found) == 1 and found[0].endswith(" _words_up_to")
