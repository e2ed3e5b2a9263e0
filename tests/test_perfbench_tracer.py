"""The benchmark's tracer installs against the package and restores it.

``perfbench/spans.Tracer.install()`` wraps package functions and methods by
name, so a renamed or deleted one makes ``--trace`` runs fail; ``restore()``
must put every original back.  The benchmark files are only read.
"""

import importlib
import os
import pkgutil
import sys
from fractions import Fraction

import tau_forge
from tau_forge import ncalg, qhirota, qscalar

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import spans  # noqa: E402

CLASSES = (qscalar.QScalar, ncalg.TimesPoly, ncalg.NCPoly, ncalg.Presentation)


def _bindings():
    """Every attribute of every package module and of the wrapped classes."""
    for info in pkgutil.iter_modules(tau_forge.__path__):
        importlib.import_module(f"tau_forge.{info.name}")
    modules = [m for name, m in sys.modules.items() if m is not None and name.startswith("tau_forge")]
    return {id(owner): (owner, dict(vars(owner))) for owner in modules + list(CLASSES)}


def test_tracer_installs_and_restores_every_original():
    before = _bindings()
    mul = qscalar.QScalar.__dict__["__mul__"]
    tracer = spans.Tracer()
    try:
        tracer.install()
        assert qscalar.QScalar.__dict__["__mul__"] is not mul
        assert qhirota.verify_lm(Fraction(1, 2), Fraction(1, 2)).verdict
        assert tracer.calls["qhirota.verify_lm"] == 1
    finally:
        tracer.restore()
    assert qscalar.QScalar.__dict__["__mul__"] is mul
    for owner, attrs in before.values():
        now = vars(owner)
        moved = [key for key, value in attrs.items() if now.get(key) is not value]
        assert not moved, (owner, moved)
