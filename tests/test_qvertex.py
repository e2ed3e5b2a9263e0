from fractions import Fraction

import pytest
from uq_oracle import mat_mul, mat_sub, q_exp_nilpotent, qs_matrix, qs_table, tp_lift

from tau_forge import linalg as la
from tau_forge.qscalar import ONE, Q, QINV, ZERO, bracket
from tau_forge.qvertex import (
    solve_vertex_components,
    vacuum_normalization_residuals,
    verify_component_relations,
    verify_qexp_commutation,
)
from tau_forge.uqsl2 import make_rep

HALF = Fraction(1, 2)
SPINS = [HALF, 1, Fraction(3, 2), 2, Fraction(5, 2)]


def test_components_at_half():
    c = solve_vertex_components(HALF)
    assert c.phi_plus == [[ONE], [ZERO]]
    assert c.phi_minus == [[ZERO], [ONE]]          # f|1/2> with [1]_q = 1
    assert c.psi_plus == [[ZERO], [-Q]]            # -q f|1/2>
    assert c.psi_minus == [[ONE], [ZERO]]


def test_component_at_one():
    c = solve_vertex_components(1)
    # second column entry: coefficient q^{-1}/[2]_q on f|1>
    assert c.phi_minus[1][0] == QINV * bracket(2).inv()


@pytest.mark.parametrize("j", SPINS)
def test_vacuum_normalizations(j):
    res = vacuum_normalization_residuals(j)
    assert len(res) == 8
    for name, vec in res.items():
        assert vec and not any(vec), name


def _normalization_failures():
    from tau_forge.cli import run_check

    (report,) = run_check("vertex.normalizations")
    assert not report.verdict
    return report.details


def test_normalizations_fail_with_another_psi_normalizer(monkeypatch, fresh_caches):
    # Psi^+-'s normalizing entry taken from Psi^+ f|j> in place of Psi^- |j>
    from tau_forge import qvertex

    normalizers = qvertex._normalizers

    def mutant(raw):
        phi, _psi, up, dn = normalizers(raw)
        return phi, raw.psi_plus[1][0], up, dn

    monkeypatch.setattr(qvertex, "_normalizers", mutant)
    assert _normalization_failures() == [
        f"j={j}: {name} mismatch" for j in SPINS for name in ("psi+|hw>", "psi-|hw>", "<hw|psi-")
    ]


def test_normalizations_fail_with_the_phi_minus_target_at_q_to_minus_2j(monkeypatch, fresh_caches):
    # Phi_- |j-1/2> = q^(-2j)/[2j] f|j> in place of q^(1-2j)/[2j] f|j>
    from tau_forge import qvertex
    from test_funq import _mutate

    _mutate(monkeypatch, qvertex, "vacuum_normalization_residuals", "{1 - two_j: 1}", "{-two_j: 1}")
    assert _normalization_failures() == [f"j={j}: phi-|hw> mismatch" for j in SPINS]


@pytest.mark.parametrize("j", SPINS)
def test_top_rows_vanish(j):
    c = solve_vertex_components(j)
    assert all(x.is_zero() for x in c.phi_minus[0])
    assert all(x.is_zero() for x in c.psi_plus[0])


@pytest.mark.parametrize("j", [HALF, 1, Fraction(3, 2), 2])
def test_component_relations(j):
    assert verify_component_relations(j).verdict


@pytest.mark.parametrize("j", [HALF, 1, Fraction(3, 2), 2])
def test_qexp_commutation(j):
    assert verify_qexp_commutation(j).verdict


def test_first_commutation_relation_directly():
    # exp_{q^2}(t e) Phi_+ - Phi_+ exp_{q^2}(t e) = 0 at j = 1/2
    comps = solve_vertex_components(HALF)
    src = make_rep(0)
    tgt = make_rep(HALF)
    Et = q_exp_nilpotent(qs_matrix(tgt.E), "t", 2, ("t",))
    Es = q_exp_nilpotent(qs_matrix(src.E), "t", 2, ("t",))
    Ap = tp_lift(comps.phi_plus, ("t",))
    res = mat_sub(mat_mul(Et, Ap), mat_mul(Ap, Es))
    assert all(x.is_zero() for row in res for x in row)


def test_lowering_exp_derivative_identity():
    # exp_{q^-2}(s f) f = D_s^(q^-2) exp_{q^-2}(s f) as matrices
    from tau_forge.qhirota import q_derivative

    for j in (HALF, 1, Fraction(3, 2)):
        E, F = qs_matrix(make_rep(j).E), qs_matrix(make_rep(j).F)
        M = q_exp_nilpotent(F, "s", -2, ("s",))
        lhs = mat_mul(M, tp_lift(F, ("s",)))
        rhs = [[q_derivative(x, "s", -2) for x in row] for row in M]
        assert all(a == b for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))
        Me = q_exp_nilpotent(E, "t", 2, ("t",))
        lhs = mat_mul(tp_lift(E, ("t",)), Me)
        rhs = [[q_derivative(x, "t", 2) for x in row] for row in Me]
        assert all(a == b for ra, rb in zip(lhs, rhs) for a, b in zip(ra, rb))


@pytest.mark.parametrize("j", SPINS)
def test_denominators_are_bracket_products(j):
    # clearing prod_{m<=2j} [m]_q must leave q-power denominators only
    c = solve_vertex_components(j)
    clear = ONE
    for m in range(1, int(2 * j) + 1):
        clear = clear * bracket(m)
    for M in (c.phi_plus, c.phi_minus, c.psi_plus, c.psi_minus):
        for row in M:
            for x in row:
                y = x * clear
                assert len(y.dc) == 1, f"denominator {y} not a bracket divisor"


def test_intertwining_residuals_zero():
    # rho_j(x) A - A (induced coproduct action) = 0 for the solved components
    from tau_forge.uqsl2 import coproduct as _coproduct

    for j in SPINS:
        two_j = int(2 * j)
        comps = solve_vertex_components(j)
        src = make_rep(Fraction(two_j - 1, 2))
        tgt = make_rep(j)
        W = make_rep(HALF)
        big = dict(zip("efk", map(qs_matrix, _coproduct(src, W))))
        phi = [
            [None] * (2 * src.dim) for _ in range(tgt.dim)
        ]
        for i in range(tgt.dim):
            for r in range(src.dim):
                phi[i][2 * r] = comps.phi_plus[i][r]
                phi[i][2 * r + 1] = comps.phi_minus[i][r]
        legs = qs_table(tgt.legs)
        for x, tmat in (("e", legs["e"]), ("f", legs["f"]), ("k", legs["k"])):
            lhs = mat_mul(tmat, phi)
            rhs = mat_mul(phi, big[x])
            assert all(x.is_zero() for row in mat_sub(lhs, rhs) for x in row), (j, x)


def test_intertwiner_rejects_zero_dimensional_space():
    # no nonzero map intertwines spin 1/2 into spin 1
    with pytest.raises(la.ConventionError):
        la.intertwiner(make_rep(1).action, make_rep(HALF).action)


def test_intertwiner_rejects_two_dimensional_space():
    # V_1/2 ox V_1/2 = V_1 + V_0, so its self-intertwiners form a 2-dim space
    from tau_forge.uqsl2 import coproduct

    delta = coproduct(make_rep(HALF), make_rep(HALF))
    with pytest.raises(la.ConventionError):
        la.intertwiner(delta, delta)


def test_convention_error_is_shared():
    from tau_forge import qvertex

    assert qvertex.ConventionError is la.ConventionError


def _failures(report):
    """(relation, x) of each failed component relation in the details."""
    return {(d.split()[0], d.split("x=")[1][0]) for d in report.details if " fails at x=" in d}


def test_checks_fail_with_antipode_of_e_reversed(monkeypatch):
    # S(e) = -e k in place of -k e
    from tau_forge import qvertex, uqsl2
    from tau_forge.cli import run_check

    antipode = uqsl2.antipode_matrices

    def reversed_e(rep):
        return {**antipode(rep), "e": la.lau_lin([({0: -1}, la.lau_mul(rep.E, rep.K))])}

    monkeypatch.setattr(uqsl2, "antipode_matrices", reversed_e)
    monkeypatch.setattr(qvertex, "antipode_matrices", reversed_e)
    (hopf,) = run_check("hopf.matrices")
    assert not hopf.verdict
    assert "failed antipode axiom on e" in hopf.residual
    (relations,) = run_check("vertex.component-relations")
    assert not relations.verdict
    # R4 twists the source leg, and e = 0 on the source V_0 at j = 1/2
    assert _failures(verify_component_relations(HALF)) == {("R1", "e")}
    for j in (1, Fraction(3, 2), 2):
        assert _failures(verify_component_relations(j)) == {("R1", "e"), ("R4", "e")}


def _inject(monkeypatch, j, mutate):
    """Make the raw vertex solve, which every vertex check reads, return
    ``mutate`` of its components at spin j; the caches must be fresh."""
    import dataclasses

    from tau_forge import qvertex

    solve = qvertex._raw_components
    monkeypatch.setattr(
        qvertex,
        "_raw_components",
        lambda two_j: dataclasses.replace(solve(two_j), **mutate(solve(two_j))) if two_j == 2 * j else solve(two_j),
    )


def _times_q(M):
    """The Laurent matrix M times q."""
    return la.lau_lin([({1: 1}, M)])


def test_checks_fail_with_phi_minus_scaled_by_q(monkeypatch, fresh_caches):
    # phi_- at j = 1 scaled by q
    from tau_forge.cli import run_check

    _inject(monkeypatch, 1, lambda raw: {"phi_minus": _times_q(raw.phi_minus)})
    (relations, normalizations, commutation) = run_check("vertex.*")
    assert [r.check_id for r in (relations, normalizations, commutation)] == [
        "vertex.component-relations", "vertex.normalizations", "vertex.qexp-commutation",
    ]
    assert not relations.verdict
    assert {name for name, _ in _failures(verify_component_relations(1))} == {"R3"}
    assert not normalizations.verdict
    assert "j=1: phi-|hw> mismatch" in normalizations.details
    assert not commutation.verdict
    assert verify_qexp_commutation(1).details == ["failed exp(te)phi-", "failed phi+exp(sf)"]


def test_checks_fail_with_phi_up_plus_scaled_by_q(monkeypatch, fresh_caches):
    # phi_up[0] (creating right, + component) at j = 1 scaled by q
    _inject(monkeypatch, 1, lambda raw: {"phi_up": (_times_q(raw.phi_up[0]), raw.phi_up[1])})
    report = verify_component_relations(1)
    assert not report.verdict
    assert "dual identification fails for creating-right components" in report.details
    assert "dual identification fails for annihilating-left components" not in report.details
    assert _failures(report) == {("R1", "e"), ("R1", "f")}


def test_wrong_inverse_antipode_fails_the_check_instead_of_raising(monkeypatch, fresh_caches):
    # S'(e) = -k e in place of -e k: the twisted dual of W has no intertwiner
    from tau_forge import qvertex
    from tau_forge.cli import run_check

    antipode_inv = qvertex.antipode_inv_matrices

    def k_first(rep):
        return {**antipode_inv(rep), "e": la.lau_lin([({0: -1}, la.lau_mul(rep.K, rep.E))])}

    monkeypatch.setattr(qvertex, "antipode_inv_matrices", k_first)
    (relations,) = run_check("vertex.component-relations")
    assert not relations.verdict
    for j in (HALF, 1):
        details = verify_component_relations(j).details
        for family in ("annihilating right", "creating left"):
            assert (
                f"twisted-dual {family} solve fails: "
                "intertwiner solution space has dimension 0, expected 1"
            ) in details
    # a failed solve is never stored
    assert qvertex._twisted_dual_components.cache_info().currsize == 0
