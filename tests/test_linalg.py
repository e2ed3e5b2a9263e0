from fractions import Fraction

import pytest

from tau_forge import linalg as la
from tau_forge.qscalar import ONE, Q, QINV, ZERO
from tau_forge.uqsl2 import coproduct, make_rep
from test_funq import EMBED_PAIRS

HALF = Fraction(1, 2)


def _dense_intertwiner(left, right):
    """Reference solve: every entry of M is an unknown, and the e, f and k
    equations are all assembled."""
    rows, cols = len(left[0]), len(right[0])
    eqs = []
    for L, R in zip(left, right):
        for i in range(rows):
            for j in range(cols):
                row = [ZERO] * (rows * cols)
                for t in range(rows):
                    row[t * cols + j] = row[t * cols + j] + L[i][t]
                for t in range(cols):
                    row[i * cols + t] = row[i * cols + t] - R[t][j]
                if any(not v.is_zero() for v in row):
                    eqs.append(row)
    basis = la.nullspace(eqs)
    assert len(basis) == 1
    return [[basis[0][i * cols + j] for j in range(cols)] for i in range(rows)]


def _assert_equal_up_to_scale(M, ref):
    i, j = next((i, j) for i, r in enumerate(ref) for j, x in enumerate(r) if not x.is_zero())
    assert not M[i][j].is_zero()
    assert la.mat_scale(M, ref[i][j] / M[i][j]) == ref


def _vertex_family(two_j, family):
    """(left, right) of one vertex-family solve V_{j-1/2} -> V_j."""
    src, tgt, aux = make_rep(Fraction(two_j - 1, 2)), make_rep(Fraction(two_j, 2)), make_rep(HALF)
    return {
        "annihilating right": (tgt.action, coproduct(src, aux)),
        "creating left": (coproduct(aux, tgt), src.action),
        "creating right": (coproduct(tgt, aux), src.action),
        "annihilating left": (tgt.action, coproduct(aux, src)),
    }[family]


@pytest.mark.parametrize("j1,j2", EMBED_PAIRS)
def test_intertwiner_matches_dense_solve_on_embeddings(j1, j2):
    left = make_rep(j1 + j2).action
    right = coproduct(make_rep(j1), make_rep(j2))
    _assert_equal_up_to_scale(la.intertwiner(left, right), _dense_intertwiner(left, right))


@pytest.mark.parametrize(
    "family", ["annihilating right", "creating left", "creating right", "annihilating left"]
)
@pytest.mark.parametrize("two_j", range(1, 6))
def test_intertwiner_matches_dense_solve_on_vertex_families(two_j, family):
    left, right = _vertex_family(two_j, family)
    _assert_equal_up_to_scale(la.intertwiner(left, right), _dense_intertwiner(left, right))


def test_intertwiner_rejects_non_diagonal_k():
    rep = make_rep(HALF)
    upper = [[Q, ONE], [ZERO, QINV]]
    with pytest.raises(ValueError):
        la.intertwiner((rep.E, rep.F, upper), rep.action)
    with pytest.raises(ValueError):
        la.intertwiner(rep.action, (rep.E, rep.F, upper))
