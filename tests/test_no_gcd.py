"""No check outside ``qscalar.*`` reaches Henrici's gcd path.

Every number of U_q(sl2) is a Laurent polynomial, so a check can compare
over Z[q, q^-1], cross-multiplied, and leave Q(q) to the public views that
divide once.  Each registered check runs from cleared caches with
``qscalar.ipoly_gcd`` made to raise, and must PASS.  The checks that still
divide first are named in ``STILL_DIVIDE``, and each must still reach the
gcd, so the list can only shrink.
"""

import pytest

from tau_forge import qscalar
from tau_forge.cli import REGISTRY, run_check

# the function-algebra checks: T^(j) and its embeddings are still Q(q)
STILL_DIVIDE = ("funq.corep", "funq.dual-route", "funq.gradings")


class GcdReached(Exception):
    pass


def _raise(*args):
    raise GcdReached


@pytest.mark.parametrize("check_id", [cid for cid in sorted(REGISTRY) if not cid.startswith("qscalar.")])
def test_check_makes_no_gcd(check_id, monkeypatch, fresh_caches):
    monkeypatch.setattr(qscalar, "ipoly_gcd", _raise)
    if check_id in STILL_DIVIDE:
        with pytest.raises(GcdReached):
            run_check(check_id)
    else:
        (report,) = run_check(check_id)
        assert report.verdict, report.details


def test_the_exceptions_are_registered_checks():
    assert set(STILL_DIVIDE) <= set(REGISTRY)
