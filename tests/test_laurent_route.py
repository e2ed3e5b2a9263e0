"""The Hopf and vertex identities over Z[q, q^-1] against their Q(q) oracle
(``uq_oracle``): each Laurent residual, divided by its scale, equals the
oracle's residual, unmutated and under mutants of the q-exponentials and
of the components, and both routes FAIL every mutant."""

import dataclasses
from fractions import Fraction

import pytest
import uq_oracle

from tau_forge import qvertex, uqsl2
from tau_forge.cli import run_check
from tau_forge.qscalar import ONE, Q, QScalar, paren_factorial
from tau_forge.qvertex import verify_component_relations, verify_qexp_commutation
from tau_forge.uqsl2 import make_rep, verify_hopf_matrices

HALF = Fraction(1, 2)
TWO_JS = (1, 2, 3, 4)


def _divided(M, shape, scale):
    """The Laurent matrix M as a dense QScalar matrix, divided by ``scale``."""
    inv = scale.inv()
    return [[QScalar.from_terms(M[i].get(j, {})) * inv for j in range(shape[1])] for i in range(shape[0])]


def _coefficient(M, var, m):
    """The t^m coefficient of a TimesPoly matrix, var the index of t."""
    mono = tuple(m if k == var else 0 for k in range(len(M[0][0].vars)))
    return [[x.coefficient(mono) for x in row] for row in M]


def _nonzero(M):
    return not uq_oracle.mat_is_zero(M)


# -- the q-exponential commutation relations ----------------------------------


def _assert_qexp_matches(two_j):
    """The Laurent residuals equal the oracle's; returns whether any fails."""
    new = qvertex._qexp_commutation_residuals(two_j)
    old = uq_oracle.qexp_commutation_residuals(two_j)
    phi, psi, _, _ = qvertex._normalizers(qvertex._raw_components(two_j))
    shape = (two_j + 1, two_j)
    for name, res in new.items():
        base, var = (2, 0) if name.startswith("exp") else (-2, 1)
        c_scale = phi if "phi" in name else psi
        assert len(res) == two_j + 1
        for m, R in enumerate(res):
            scale = QScalar.from_terms(c_scale) * paren_factorial(m, base)
            assert _divided(R, shape, scale) == _coefficient(old[name], var, m), (two_j, name, m)
        assert all(e[var] <= two_j for row in old[name] for x in row for e in x.terms)
    return any(_nonzero(M) for M in old.values())


@pytest.mark.parametrize("two_j", TWO_JS)
def test_qexp_commutation_equals_the_oracle(two_j):
    assert not _assert_qexp_matches(two_j)
    assert verify_qexp_commutation(Fraction(two_j, 2)).verdict


def _mutate_q_exp(monkeypatch, legs, two_js, base, var, A, mutate_new, mutate_old):
    """Mutate one q-exponential in both routes: ``_q_exp(legs, two_js)`` in
    the Laurent route, and the oracle's exponential of the matrix A in the
    variable ``var`` of base q^base."""
    q_exp, oracle = uqsl2._q_exp, uq_oracle.q_exp_nilpotent

    def new_route(summands, spins):
        out = q_exp(summands, spins)
        return mutate_new(out) if (summands, spins) == (legs, two_js) else out

    def old_route(B, v, b, vars):
        out = oracle(B, v, b, vars)
        return mutate_old(out, vars.index(v)) if (v, b) == (var, base) and B == A else out

    monkeypatch.setattr(uqsl2, "_q_exp", new_route)
    monkeypatch.setattr(qvertex, "_q_exp", new_route)
    monkeypatch.setattr(uq_oracle, "q_exp_nilpotent", old_route)


def _times_q(power):
    return [{j: {e + 1: c for e, c in p.items()} for j, p in row.items()} for row in power]


def _power_times_q(m):
    """One factorial term off: the t^m term of the exponential times q."""

    def new(powers):
        return powers[:m] + (_times_q(powers[m]),) + powers[m + 1:]

    def old(M, idx):
        return [[type(x)(x.vars, {e: c * Q if e[idx] == m else c for e, c in x.terms.items()}) for x in row] for row in M]

    return new, old


def _exp_times_q():
    """The scale of the exponential off by q: every term times q."""

    def new(powers):
        return tuple(map(_times_q, powers))

    def old(M, idx):
        return [[x.scale(Q) for x in row] for row in M]

    return new, old


MUTANTS = {"factorial term": _power_times_q(2), "scale": _exp_times_q()}


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
@pytest.mark.parametrize("two_j", (2, 4))
def test_qexp_commutation_mutants_fail_both_routes_alike(monkeypatch, fresh_caches, mutant, two_j):
    # exp_{q^2}(t e) on V_j mutated in both routes
    new, old = MUTANTS[mutant]
    E = uq_oracle.qs_matrix(make_rep(Fraction(two_j, 2)).E)
    _mutate_q_exp(monkeypatch, (("e",),), (two_j,), 2, "t", E, new, old)
    assert _assert_qexp_matches(two_j)
    assert not verify_qexp_commutation(Fraction(two_j, 2)).verdict


def _inject(monkeypatch, two_j, mutant):
    """Make the raw vertex solve return ``mutant`` at 2j = ``two_j``: the
    Laurent residuals read it, and the oracle reads it through
    ``solve_vertex_components``."""
    solve = qvertex._raw_components
    monkeypatch.setattr(qvertex, "_raw_components", lambda tj: mutant if tj == two_j else solve(tj))


@pytest.mark.parametrize("two_j", TWO_JS)
def test_phi_minus_times_q_fails_both_routes_alike(monkeypatch, fresh_caches, two_j):
    raw = qvertex._raw_components(two_j)
    _inject(monkeypatch, two_j, dataclasses.replace(raw, phi_minus=_times_q(raw.phi_minus)))
    assert _assert_qexp_matches(two_j)
    assert not verify_qexp_commutation(Fraction(two_j, 2)).verdict
    _assert_relations_match(two_j)
    assert not verify_component_relations(Fraction(two_j, 2)).verdict


# -- the component relations R1-R4 ----------------------------------------------


def _assert_relations_match(two_j):
    new = qvertex._component_relation_residuals(two_j)
    old = uq_oracle.component_relation_residuals(Fraction(two_j, 2))
    phi, psi, up, dn = qvertex._normalizers(qvertex._raw_components(two_j))
    scales = {name: QScalar.from_terms(s) for name, s in (("R1", up), ("R2", psi), ("R3", phi), ("R4", dn))}
    assert new.keys() == old.keys()
    for key, R in new.items():
        assert _divided(R, (two_j + 1, two_j), scales[key[0]]) == old[key], (two_j, key)


@pytest.mark.parametrize("two_j", TWO_JS)
def test_component_relations_equal_the_oracle(two_j):
    _assert_relations_match(two_j)
    assert verify_component_relations(Fraction(two_j, 2)).verdict


# -- the Hopf matrices ------------------------------------------------------------

PAIRS = [(0, 1), (1, 0), (1, 1), (2, 1), (1, 3), (2, 2), (4, 2), (3, 4)]


def _assert_hopf_matches(tj, tjp):
    """The Laurent residuals equal the oracle's; returns the names of the
    identities that fail."""
    new = uqsl2._hopf_residuals(tj, tjp)
    old = uq_oracle.hopf_residuals(Fraction(tj, 2), Fraction(tjp, 2))
    assert [name for name, _ in new] == [name for name, _ in old]
    failed = []
    for (name, res), (_, want) in zip(new, old):
        shape = (len(want), len(want[0]))
        if name.startswith("factorization"):
            base = 2 if "q^2" in name else -2
            for m, R in enumerate(res):
                assert _divided(R, shape, paren_factorial(m, base)) == _coefficient(want, 0, m), (tj, tjp, name, m)
            assert all(e[0] < len(res) for row in want for x in row for e in x.terms)
        else:
            scale = Q - Q.inv() if name == "delta:[e,f]" else ONE
            assert _divided(res[0], shape, scale) == want, (tj, tjp, name)
            assert len(res) == 1
        if _nonzero(want):
            failed.append(name)
    return failed


@pytest.mark.parametrize("tj,tjp", PAIRS)
def test_hopf_residuals_equal_the_oracle(tj, tjp):
    assert _assert_hopf_matches(tj, tjp) == []
    assert verify_hopf_matrices(Fraction(tj, 2), Fraction(tjp, 2)).verdict


@pytest.mark.parametrize("mutant", sorted(MUTANTS))
def test_hopf_mutants_fail_both_routes_alike(monkeypatch, fresh_caches, mutant):
    # exp_{q^2}(t D(e)) on V_1 ox V_1/2 mutated in both routes
    new, old = MUTANTS[mutant]
    delta = uq_oracle.delta("e", make_rep(1), make_rep(HALF))
    _mutate_q_exp(monkeypatch, uqsl2.COPRODUCT["e"], (2, 1), 2, "t", delta, new, old)
    assert _assert_hopf_matches(2, 1) == ["factorization of exp_{q^2}(t e)"]
    assert verify_hopf_matrices(1, HALF).details == ["failed factorization of exp_{q^2}(t e)"]


def test_reversed_coproduct_of_e_fails_only_its_factorization(monkeypatch):
    # D(e) = e ox 1 + k^-1 ox e factors in the other order: only (b) fails,
    # at every pair of spins both at least 1/2
    monkeypatch.setitem(uqsl2.COPRODUCT, "e", tuple(reversed(uqsl2.COPRODUCT["e"])))
    (report,) = run_check("hopf.matrices")
    assert not report.verdict
    assert sum(line.startswith("FAIL") for line in report.details) == 4
    for tj in (0, 1, 2):
        for tjp in (0, 1, 2):
            want = ["factorization of exp_{q^2}(t e)"] if tj and tjp else []
            assert _assert_hopf_matches(tj, tjp) == want
            details = verify_hopf_matrices(Fraction(tj, 2), Fraction(tjp, 2)).details
            assert details == [f"failed {name}" for name in want]


def test_kinv_coproduct_as_k_ox_kinv_fails_the_relations(monkeypatch):
    # D(k^-1) = k ox k^-1 breaks [e, f] and k k^-1 = 1 on the tensor
    monkeypatch.setitem(uqsl2.COPRODUCT, "kinv", (("k", "kinv"),))
    relations = {"delta:ke=q2ek", "delta:[e,f]", "delta:kk^-1"}
    failed = _assert_hopf_matches(1, 0)
    assert [name for name in failed if name in relations] == ["delta:[e,f]", "delta:kk^-1"]
    details = verify_hopf_matrices(HALF, 0).details
    assert [d for d in details if d[len("failed "):] in relations] == ["failed delta:[e,f]", "failed delta:kk^-1"]
    (report,) = run_check("hopf.matrices")
    assert not report.verdict


def test_cold_laurent_checks_make_no_qscalar_arithmetic(monkeypatch, fresh_caches):
    # the legs, tensor actions, antipode tables, intertwiner solves and
    # residuals of these checks are all over Z[q, q^-1]
    calls = []
    for name in ("__mul__", "__add__", "inv"):

        def counting(*args, _original=getattr(QScalar, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(QScalar, name, counting)
    for check_id in ("hopf.matrices", "vertex.component-relations", "vertex.qexp-commutation"):
        (report,) = run_check(check_id)
        assert report.verdict
    assert calls == []
