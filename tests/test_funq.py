from fractions import Fraction

import pytest

from tau_forge import funq, ncalg
from tau_forge import linalg as la
from tau_forge.funq import (
    _semantic_t,
    _top_block,
    counit_map,
    dual_route_residuals,
    embed_chain,
    entry_grading_ok,
    gauss_relation_residuals,
    gauss_t_matrix,
    t_matrix,
    tau_q,
    verify_corep,
    verify_gauss_relations,
)
from tau_forge.ncalg import FROZEN_GAUSS_CONVENTION, NCPoly, TimesPoly, funq_sl2, gauss_param
from tau_forge.qscalar import ONE, Q, QINV, ZERO
from tau_forge.uqsl2 import coproduct, make_rep

HALF = Fraction(1, 2)


def test_embedding_half_is_identity():
    iota, pi = embed_chain(0, HALF)
    assert iota == la.identity(2)
    assert pi == la.identity(2)


# factor pairs whose embeddings are checked: the recursion's (j-1/2, 1/2) for
# j <= 5/2, and (1, 1) and (1/2, 3/2), which it does not use
EMBED_PAIRS = [(Fraction(t, 2), HALF) for t in range(5)] + [(1, 1), (HALF, Fraction(3, 2))]


@pytest.mark.parametrize("j", [1, Fraction(3, 2), 2, Fraction(5, 2), HALF])
def test_embedding_projects_back(j):
    pairs = [(j1, j2) for j1, j2 in EMBED_PAIRS if j1 + j2 == j]
    assert pairs
    for j1, j2 in pairs:
        iota, pi = embed_chain(j1, j2)
        assert la.mat_mul(pi, iota) == la.identity(int(2 * j) + 1)
        # highest weight goes to the product of highest weights
        col0 = [iota[t][0] for t in range(len(iota))]
        assert col0[0] == ONE and all(x.is_zero() for x in col0[1:])


def test_embedding_intertwines():
    for j1, j2 in EMBED_PAIRS:
        iota, pi = embed_chain(j1, j2)
        tgt = make_rep(j1 + j2)
        for big, small in zip(coproduct(make_rep(j1), make_rep(j2)), tgt.action):
            assert la.mat_is_zero(
                la.mat_sub(la.mat_mul(big, iota), la.mat_mul(iota, small))
            )
            assert la.mat_is_zero(
                la.mat_sub(la.mat_mul(pi, big), la.mat_mul(small, pi))
            )


def test_t_matrix_half_display():
    M = t_matrix(HALF)
    names = [[str(x) for x in row] for row in M]
    assert names == [["a", "b"], ["c", "d"]]


def test_t_matrix_spin_one_frozen():
    # regression anchor: any convention drift in the embedding, ordering or
    # naming shows up immediately in these rendered entries
    M = t_matrix(1)
    assert [[str(x) for x in row] for row in M] == [
        ["a*a", "a*b", "(q/(q^2+1))*b*b"],
        ["(q^2+1)*a*c", "1 + ((q^2+1)/q)*b*c", "d*b"],
        ["((q^2+1)/q)*c*c", "((q^2+1)/q^2)*d*c", "d*d"],
    ]
    # middle entry at q = 1 with commuting entries is ad + bc = 1 + 2bc
    mid = M[1][1]
    coeff_bc = mid.coefficient_of_word(("b", "c")).constant_term()
    assert coeff_bc.eval_q1() == 2


def test_counit_gives_identity():
    eps = counit_map()
    for j in (HALF, 1, Fraction(3, 2)):
        M = t_matrix(j)
        n = len(M)
        for m in range(n):
            for r in range(n):
                val = M[m][r].apply_generator_map(eps)
                want = NCPoly.from_scalar(val.pres, ONE if m == r else ZERO)
                assert val == want


def test_tau_half_is_affine_in_each_slot():
    tau = tau_q(HALF, "u", "x", ("u", "x"))
    by_word = {w[0]: t for w, t in tau.terms.items()}
    assert str(by_word["a"]) == "1"
    assert str(by_word["b"]) == "u"
    assert str(by_word["c"]) == "x"
    assert str(by_word["d"]) == "u*x"


def test_tau_zero_spin():
    assert tau_q(0, "u", "x", ("u", "x")) == NCPoly.one(funq_sl2(), ("u", "x"))


def test_tau_constant_coefficient_is_corner_entry():
    for j in (HALF, 1, Fraction(3, 2)):
        tau = tau_q(j, "u", "x", ("u", "x"))
        const = NCPoly(
            tau.pres,
            tau.vars,
            {
                w: TimesPoly(tau.vars, {(0, 0): t.terms[(0, 0)]})
                for w, t in tau.terms.items()
                if (0, 0) in t.terms
            },
        )
        M = t_matrix(j)
        corner = NCPoly(
            tau.pres,
            tau.vars,
            {w: TimesPoly(tau.vars, {(0, 0): t.constant_term()}) for w, t in M[0][0].terms.items()},
        )
        assert const == corner


def test_gauss_entries_frozen_convention():
    (a, b), (c, d) = gauss_t_matrix(HALF)
    assert gauss_t_matrix(HALF) == gauss_t_matrix(HALF, FROZEN_GAUSS_CONVENTION)
    assert str(d) == "Qinv"
    lam = Q - QINV
    pres = gauss_param()
    # c = (q - q^-1) s Q^-1, b = -(q - q^-1) Q^-1 sbar (normal-ordered)
    assert c == NCPoly.word(pres, ("s", "Qinv")).scale(lam)
    assert b == NCPoly.word(pres, ("Qinv", "sbar")).scale(-lam)
    # a = Q - (q - q^-1)^2 s Q^-1 sbar
    want_a = NCPoly.word(pres, ("Q",)) - NCPoly.word(pres, ("s", "Qinv", "sbar")).scale(lam * lam)
    assert a == want_a


def test_gauss_relations_exactly_one_convention():
    frozen = gauss_relation_residuals(FROZEN_GAUSS_CONVENTION)
    assert all(r.is_zero() for r in frozen.values())
    other = gauss_relation_residuals("q")
    assert any(not r.is_zero() for r in other.values())
    assert verify_gauss_relations().verdict


def test_gauss_relations_fail_when_both_conventions_satisfy_them(monkeypatch):
    # negative control: a check that both conventions pass cannot tell them apart
    frozen = gauss_relation_residuals(FROZEN_GAUSS_CONVENTION)
    monkeypatch.setattr(funq, "gauss_relation_residuals", lambda convention: frozen)
    report = verify_gauss_relations()
    assert not report.verdict
    assert report.details == ["[q] unexpectedly also satisfies all relations"]


# T^(j) is built as the top block of (j-1/2, 1/2), so those pairs would hold
# by construction; these pairs are not built by the recursion
@pytest.mark.parametrize(
    "j,jp", [(HALF, Fraction(3, 2)), (1, Fraction(3, 2)), (HALF, 1), (0, 1), (1, 1)]
)
def test_corep(j, jp):
    assert verify_corep(j, jp).verdict


def test_corep_fails_on_transposed_factor():
    # negative control: the spin-1 factor in the public (transposed) index
    # convention must not reproduce T^(3/2)
    block = _top_block(_semantic_t(1), t_matrix(1))
    res = la.mat_sub(block, _semantic_t(3))
    assert any(not x.is_zero() for row in res for x in row)


@pytest.mark.parametrize("j", [HALF, 1, Fraction(3, 2), 2, Fraction(5, 2)])
def test_dual_route(j):
    res = dual_route_residuals(int(2 * j))
    assert all(x.is_zero() for row in res for x in row)


@pytest.mark.parametrize("j", [HALF, 1, Fraction(3, 2), Fraction(5, 2), 3])
def test_homogeneous_entries(j):
    M = t_matrix(j)
    for m in range(len(M)):
        for r in range(len(M)):
            assert entry_grading_ok(j, m, r, M[m][r])


def test_gauss_route_spin_one_diagonal():
    M = gauss_t_matrix(1)
    pres = gauss_param()
    assert M[2][2] == NCPoly.word(pres, ("Qinv", "Qinv"))


def test_top_block_entries_are_ncpolys():
    # mat_mul takes the zero of an empty sum from its left factor, which
    # here is the QScalar projection pi
    for two_j in range(2, 6):
        block = _top_block(_semantic_t(two_j - 1), _semantic_t(1))
        assert all(isinstance(x, NCPoly) and x.pres is funq_sl2() for row in block for x in row)


def test_cache_keys_are_normalized(fresh_caches):
    from tau_forge.qvertex import solve_vertex_components

    assert make_rep(HALF) is make_rep(Fraction(1, 2)) is make_rep(0.5)
    assert embed_chain(1, HALF) is embed_chain(Fraction(1), 0.5)
    assert solve_vertex_components(1) is solve_vertex_components(Fraction(2, 2))
    assert gauss_param() is gauss_param("q_inverse")
    # one build per spin, whatever the spelling of the spin or the default
    t_matrix(1), t_matrix(Fraction(2, 2))
    assert funq._semantic_t.cache_info().currsize == 2  # 2j = 2 and its 2j = 1 factor
    gauss_t_matrix(1), gauss_t_matrix(1.0, FROZEN_GAUSS_CONVENTION)
    assert funq._semantic_gauss.cache_info().currsize == 1


def test_unknown_gauss_convention_caches_nothing(fresh_caches):
    with pytest.raises(ValueError):
        gauss_t_matrix(1, "bogus")
    for cached in (funq._semantic_gauss, ncalg._gauss_param):
        assert cached.cache_info().currsize == 0
