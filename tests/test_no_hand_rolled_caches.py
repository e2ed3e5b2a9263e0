"""Hand-rolled module-level caches in ``src/``, found by scanning the syntax
trees: a ``global`` statement, or a module-level name bound to ``{}``,
``dict()`` or ``None`` to be filled in later.  Builds are memoized with
``functools.cache`` on normalized arguments instead, so every cache has the
same ``cache_clear()``."""

import ast

from test_unused_private import src_sources


def _is_empty_slot(value):
    if isinstance(value, ast.Constant) and value.value is None:
        return True
    if isinstance(value, ast.Dict) and not value.keys:
        return True
    return (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "dict"
        and not value.args
        and not value.keywords
    )


def hand_rolled_caches(sources):
    """``sources`` maps a label to module text; returns "label:line what"
    for each ``global`` statement and each module-level empty slot."""
    found = []
    for label, text in sources.items():
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                found.append(f"{label}:{node.lineno} global {', '.join(node.names)}")
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            if _is_empty_slot(value):
                names = ", ".join(ast.unparse(t) for t in targets)
                found.append(f"{label}:{node.lineno} {names} = {ast.unparse(value)}")
    return found


def test_no_hand_rolled_caches():
    assert hand_rolled_caches(src_sources()) == []


def test_scan_finds_each_pattern():
    sources = {
        "a.py": "_A = {}\n_B: dict = dict()\n_C = None\n_D = {1: 2}\nE = ()\n",
        "b.py": "def f():\n    global _C\n    local = {}\n    return local\n",
    }
    assert hand_rolled_caches(sources) == [
        "a.py:1 _A = {}",
        "a.py:2 _B = dict()",
        "a.py:3 _C = None",
        "b.py:2 global _C",
    ]


def test_scan_would_catch_the_old_rep_cache():
    # the dict-backed memo that make_rep used to keep
    sources = src_sources()
    label = "src/tau_forge/uqsl2.py"
    sources[label] += (
        "\n\n_REP_CACHE = {}\n\n\n"
        "def _cached_rep(two_j):\n"
        "    rep = _REP_CACHE.get(two_j)\n"
        "    if rep is None:\n"
        "        rep = _REP_CACHE[two_j] = _rep(two_j)\n"
        "    return rep\n"
    )
    found = hand_rolled_caches(sources)
    assert len(found) == 1 and found[0].startswith(label) and found[0].endswith(" _REP_CACHE = {}")
