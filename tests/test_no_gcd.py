"""No check outside ``qscalar.*`` reaches Henrici's gcd path.

Every number of U_q(sl2) is a Laurent polynomial, so a check can compare
over Z[q, q^-1], cross-multiplied, and leave Q(q) to the public views that
divide once.  Each registered check runs from cleared caches with
``qscalar.ipoly_gcd`` made to raise, and must PASS.
"""

import pytest

from tau_forge import qscalar
from tau_forge.cli import REGISTRY, run_check


class GcdReached(Exception):
    pass


def _raise(*args):
    raise GcdReached


@pytest.mark.parametrize("check_id", [cid for cid in sorted(REGISTRY) if not cid.startswith("qscalar.")])
def test_check_makes_no_gcd(check_id, monkeypatch, fresh_caches):
    monkeypatch.setattr(qscalar, "ipoly_gcd", _raise)
    (report,) = run_check(check_id)
    assert report.verdict, report.details
