import inspect
from fractions import Fraction

import pytest
from uq_oracle import identity, mat_is_zero, q_exp_nilpotent, qs_matrix

from tau_forge import cli, funq, ncalg, qhirota
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
    verify_corep,
    verify_gauss_relations,
)
from tau_forge.ncalg import FROZEN_GAUSS_CONVENTION, NCPoly, TimesPoly, funq_sl2, gauss_param
from tau_forge.qscalar import ONE, Q, QINV, ZERO, QScalar
from tau_forge.uqsl2 import coproduct, make_rep

HALF = Fraction(1, 2)


def test_embedding_half_is_identity():
    iota, pi = embed_chain(0, HALF)
    assert iota == identity(2)
    assert pi == identity(2)


# factor pairs whose embeddings are checked: (j-1/2, 1/2) for j <= 5/2, and
# (1, 1) and (1/2, 3/2)
EMBED_PAIRS = [(Fraction(t, 2), HALF) for t in range(5)] + [(1, 1), (HALF, Fraction(3, 2))]


@pytest.mark.parametrize("j", [1, Fraction(3, 2), 2, Fraction(5, 2), HALF])
def test_embedding_projects_back(j):
    pairs = [(j1, j2) for j1, j2 in EMBED_PAIRS if j1 + j2 == j]
    assert pairs
    for j1, j2 in pairs:
        iota, pi = embed_chain(j1, j2)
        assert la.mat_mul(pi, iota) == identity(int(2 * j) + 1)
        # highest weight goes to the product of highest weights
        col0 = [iota[t][0] for t in range(len(iota))]
        assert col0[0] == ONE and all(x.is_zero() for x in col0[1:])


def test_embedding_intertwines():
    for j1, j2 in EMBED_PAIRS:
        iota, pi = embed_chain(j1, j2)
        tgt = make_rep(j1 + j2)
        for big, small in zip(coproduct(make_rep(j1), make_rep(j2)), tgt.action):
            big, small = qs_matrix(big), qs_matrix(small)
            assert mat_is_zero(
                la.mat_sub(la.mat_mul(big, iota), la.mat_mul(iota, small))
            )
            assert mat_is_zero(
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


def tau_q(j, e_var, f_var, vars):
    """tau_j as an NCPoly over Q(q), the e-side flow in ``e_var`` and the
    f-side flow in ``f_var``: the view of ``funq._tau_table`` that the
    flow-contraction tests and the Q(q) oracle of the general identity read."""
    terms = {}
    for (x, n), d in funq._tau_table(int(2 * j))[0].items():
        for (m, r, i, k), c in d.items():
            mono = tuple(m if v == e_var else r if v == f_var else 0 for v in vars)
            terms.setdefault((x,) * n + ("b",) * i + ("c",) * k, {})[mono] = QScalar.from_terms(c)
    return NCPoly(funq_sl2(), vars, {w: TimesPoly(vars, t) for w, t in terms.items()})


def test_tau_half_is_affine_in_each_slot():
    tau = tau_q(HALF, "u", "x", ("u", "x"))
    by_word = {w[0]: t for w, t in tau.terms.items()}
    assert str(by_word["a"]) == "1"
    assert str(by_word["b"]) == "u"
    assert str(by_word["c"]) == "x"
    assert str(by_word["d"]) == "u*x"


def test_tau_zero_spin():
    assert tau_q(0, "u", "x", ("u", "x")) == NCPoly.one(funq_sl2(), ("u", "x"))


def _flow_contraction(j, e_var, f_var, vars):
    """tau_j by its definition: sum_{m,r} [exp_{q^2}(u E)]_{0m} T~_{mr} [exp_{q^-2}(x F)]_{r0}."""
    rep = make_rep(j)
    erow = q_exp_nilpotent(qs_matrix(rep.E), e_var, 2, vars)[0]
    fexp = q_exp_nilpotent(qs_matrix(rep.F), f_var, -2, vars)
    T = _semantic_t(rep.two_j)
    acc = NCPoly.zero(funq_sl2(), vars)
    for m in range(rep.dim):
        for r in range(rep.dim):
            flow = erow[m] * fexp[r][0]
            lifted = {w: flow.scale(t.constant_term()) for w, t in T[m][r].terms.items()}
            acc = acc + NCPoly(funq_sl2(), vars, {w: t for w, t in lifted.items() if not t.is_zero()})
    return acc


@pytest.mark.parametrize(
    "e_var,f_var,vars", [("u", "x", ("u", "x")), ("x", "u", ("u", "x")), ("v", "y", qhirota.LM_VARS)]
)
@pytest.mark.parametrize("two_j", range(7))
def test_tau_is_the_flow_contraction(two_j, e_var, f_var, vars):
    j = Fraction(two_j, 2)
    assert tau_q(j, e_var, f_var, vars) == _flow_contraction(j, e_var, f_var, vars)


def test_closed_form_builds_without_intertwiners(fresh_caches, monkeypatch):
    def refuse(*args):
        raise AssertionError("T^(j) and tau_j are built without intertwiner solves")

    monkeypatch.setattr(funq, "embed_chain", refuse)
    monkeypatch.setattr(la, "intertwiner", refuse)
    calls = []
    mul = QScalar.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(QScalar, "__mul__", counting)
    funq._tau_table(4)
    assert calls == []
    for two_j in range(5):
        t_matrix(Fraction(two_j, 2))
        funq._tau_table(two_j)


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


# T^(j) comes from the quantum plane, not from smaller T's, so every pair is a
# check of the closed form against embed_chain
@pytest.mark.parametrize(
    "j,jp", [(HALF, Fraction(3, 2)), (1, Fraction(3, 2)), (HALF, 1), (0, 1), (1, 1)]
)
def test_corep(j, jp):
    assert verify_corep(j, jp).verdict


# (j, 1/2) is the step of the spin recursion that built T^(j) before
@pytest.mark.parametrize("two_j", range(1, 7))
def test_corep_times_half(two_j):
    assert verify_corep(Fraction(two_j, 2), HALF).verdict


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
    # the projection pi is a QScalar matrix, but an empty sum in mat_mul is
    # the zero of the product's ring
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
    assert funq._semantic_t.cache_info().currsize == 1
    gauss_t_matrix(1), gauss_t_matrix(1.0, FROZEN_GAUSS_CONVENTION)
    assert funq._semantic_gauss.cache_info().currsize == 1


def test_unknown_gauss_convention_caches_nothing(fresh_caches):
    with pytest.raises(ValueError):
        gauss_t_matrix(1, "bogus")
    for cached in (funq._semantic_gauss, ncalg._gauss_param):
        assert cached.cache_info().currsize == 0


def _mutate(monkeypatch, module, name, old, new):
    """Replace ``module.name`` by a copy of its source with ``old`` changed to
    ``new``; the copy reads the module's other names."""
    src = inspect.getsource(getattr(module, name))
    assert src.count(old) == 1
    namespace = dict(vars(module))
    exec(src.replace(old, new), namespace)
    monkeypatch.setattr(module, name, namespace[name])
    return namespace[name]


def _verdicts(*check_ids):
    return [cli.run_check(check_id)[0].verdict for check_id in check_ids]


def test_mutant_d_fails_dual_route(fresh_caches, monkeypatch):
    # D_m = q^(-m(m+1)/2) (2j)_{q^2}! / (2j-m)_{q^2}!.  funq.corep cannot see
    # it: a diagonal similarity that scales each weight space commutes with
    # the weight-preserving embed_chain, so it only moves T^(j) to another
    # basis of the same corepresentation.
    _mutate(monkeypatch, funq, "_semantic_t", "QScalar.q_power(-m)", "QScalar.q_power(-m - 1)")
    assert not funq.verify_dual_route(HALF).verdict
    assert _verdicts("funq.corep") == [True]


def test_mutant_plane_relation_fails(fresh_caches, monkeypatch):
    # yx = q^-1 xy in place of yx = q xy
    _mutate(monkeypatch, funq, "_plane", "{k * (p - l): 1}", "{-k * (p - l): 1}")
    assert _verdicts("funq.corep", "funq.dual-route", "lm.grid") == [False, False, False]


@pytest.mark.parametrize(
    "old,new,check_id",
    [
        # the q-power of u^m shifted by +m: tau_j(q u, x)
        ("shift = r * (r - 1) // 2", "shift = m + r * (r - 1) // 2", "lm"),
        ("_q2_binomial(two_j, r)", "_q2_binomial(two_j, m)", "lm.grid"),
    ],
)
def test_mutant_tau_fails_lm(fresh_caches, monkeypatch, old, new, check_id):
    monkeypatch.setattr(qhirota, "_tau_table", _mutate(monkeypatch, funq, "_tau_table", old, new))
    assert _verdicts(check_id) == [False]
