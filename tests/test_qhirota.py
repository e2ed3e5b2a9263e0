import copy
import inspect
import random
from fractions import Fraction

import pytest

from tau_forge import ncalg, qhirota, qscalar
from tau_forge._kernels import _decode, _encode, _kronecker_bits
from tau_forge.cli import run_check
from tau_forge.ncalg import NCPoly, Presentation, TimesPoly, funq_sl2
from tau_forge.qhirota import (
    commutative_sl2,
    eq_half_residual,
    expand_hierarchy,
    hierarchy_eq_residual,
    lm_residual,
    q_derivative,
    q_shift,
    q_taylor,
    spin_half_suite,
    spin_half_tau,
    verify_eq_half,
    verify_lm,
)
from tau_forge.qscalar import ONE, Q, QScalar, bracket, qs
from test_funq import _mutate, tau_q

HALF = Fraction(1, 2)


def q_taylor_reconstruct(coeffs, var, center_var, alpha, base_power, vars):
    """Re-sum q-Taylor coefficients against the node products (exact identity
    up to the expansion order): the inverse of ``q_taylor``."""
    is_nc = isinstance(coeffs[0], NCPoly)
    acc = None
    node_prod = None
    for m, c in enumerate(coeffs):
        if m == 0:
            term = c
        else:
            node_q = QScalar.q_power(alpha + base_power * (m - 1))
            node = TimesPoly.var(vars, var) - TimesPoly.var(vars, center_var, coeff=node_q)
            node_prod = node if node_prod is None else node_prod * node
            term = c.mul_times(node_prod) if is_nc else c * node_prod
        acc = term if acc is None else acc + term
    return acc


def tp(vars, name, **kw):
    return TimesPoly.var(vars, name, **kw)


def test_q_derivative_square():
    vars = ("x",)
    x = tp(vars, "x")
    assert q_derivative(x * x, "x", 1) == x.scale(ONE + Q)


def test_q_derivative_keeps_words():
    pres = funq_sl2()
    vars = ("x",)
    p = NCPoly.generator(pres, "c", vars).mul_times(tp(vars, "x"))
    d = q_derivative(p, "x", -2)
    assert d == NCPoly.generator(pres, "c", vars)


def test_q_derivative_constant():
    vars = ("x",)
    assert q_derivative(TimesPoly.const(vars, Q + ONE), "x", 3).is_zero()


def test_q_derivative_leibniz():
    # D(fg) = D(f) g(qx) + f D(g), randomized over polynomials, base q
    rng = random.Random(3)
    vars = ("x",)
    for _ in range(25):
        f = TimesPoly(vars, {(rng.randint(0, 4),): qs(rng.randint(-4, 4) or 1) for _ in range(2)})
        g = TimesPoly(vars, {(rng.randint(0, 4),): qs(rng.randint(-4, 4) or 1) for _ in range(2)})
        lhs = q_derivative(f * g, "x", 1)
        rhs = q_derivative(f, "x", 1) * q_shift(g, "x", 1) + f * q_derivative(g, "x", 1)
        assert lhs == rhs


def test_q_derivative_classical_limit():
    rng = random.Random(4)
    vars = ("x",)
    for _ in range(20):
        f = TimesPoly(vars, {(rng.randint(0, 5),): qs(rng.randint(-5, 5) or 2) for _ in range(3)})
        qd = q_derivative(f, "x", -2).map_coefficients(
            lambda c: QScalar.from_rational(c.eval_q1())
        )
        cd = f.derivative("x").map_coefficients(
            lambda c: QScalar.from_rational(c.eval_q1())
        )
        assert qd == cd


def test_q_taylor_linear():
    vars = ("x", "a")
    p = tp(vars, "x")
    c = q_taylor(p, "x", "a", 0, 1, 1)
    assert c[0] == tp(vars, "a")
    assert c[1] == TimesPoly.one(vars)


def test_q_taylor_quadratic_reconstruction():
    vars = ("x", "a")
    p = tp(vars, "x") * tp(vars, "x")
    coeffs = q_taylor(p, "x", "a", 0, 1, 2)
    assert coeffs[2] == TimesPoly.one(vars)
    assert coeffs[1] == tp(vars, "a").scale(ONE + Q)
    assert coeffs[0] == tp(vars, "a") * tp(vars, "a")
    rec = q_taylor_reconstruct(coeffs, "x", "a", 0, 1, vars)
    assert rec == p


def test_q_taylor_reconstruction_randomized_degree6():
    rng = random.Random(5)
    vars = ("x", "a")
    for _ in range(10):
        p = TimesPoly(
            vars,
            {(rng.randint(0, 6), 0): qs(rng.randint(-6, 6) or 1) for _ in range(4)},
        )
        for base in (1, -2):
            for alpha in (0, 1, -1):
                coeffs = q_taylor(p, "x", "a", alpha, base, 6)
                rec = q_taylor_reconstruct(coeffs, "x", "a", alpha, base, vars)
                assert rec == p


def test_q_taylor_on_tau_half():
    tau = spin_half_tau()
    coeffs = q_taylor(tau, "x", "u", 0, -2, 2)
    nonzero = [c for c in coeffs if not c.is_zero()]
    assert len(nonzero) == 2   # affine in x: two nonzero coefficients


def test_eq_half_residual_zero():
    assert eq_half_residual().is_zero()
    assert verify_eq_half().verdict


LM_GRID = [
    (HALF, HALF),
    (1, HALF),
    (HALF, 1),
    (1, 1),
    (Fraction(3, 2), 1),
    (Fraction(3, 2), Fraction(3, 2)),
    (2, 1),
    (2, 2),
    (Fraction(5, 2), Fraction(5, 2)),
    (3, 3),
    (Fraction(7, 2), Fraction(7, 2)),
    (4, 4),
]


@pytest.mark.parametrize("j,jp", LM_GRID)
def test_lm_grid(j, jp):
    assert verify_lm(j, jp).verdict


def _lm_sides_over_qq(j, jp):
    """Both sides of the general identity evaluated directly over Q(q):

        LHS = [2j']^-1 tau_j D_y tau_j' - q^-2j [2j]^-1 D_x tau_j tau_j'
              + ([2j][2j'])^-1 (q^(2j'-2j-1) y - q^(2j-1) x) D_x tau_j D_y tau_j',
        RHS = (v - q^-2j u) tau_{j-1/2}(u, q^-1 x) tau_{j'-1/2}(q^-1 v, y),

    all derivatives base q^-2."""
    vars = ("u", "x", "v", "y")
    two_j, two_jp = int(2 * j), int(2 * jp)
    tj = tau_q(j, "u", "x", vars)
    tjp = tau_q(jp, "v", "y", vars)
    dx_tj = q_derivative(tj, "x", -2)
    dy_tjp = q_derivative(tjp, "y", -2)
    bj, bjp = bracket(two_j), bracket(two_jp)
    cross = tp(vars, "y", coeff=QScalar.q_power(two_jp - two_j - 1)) - tp(
        vars, "x", coeff=QScalar.q_power(two_j - 1)
    )
    lhs = (
        tj.mul(dy_tjp).scale(bjp.inv())
        - dx_tj.mul(tjp).scale(QScalar.q_power(-two_j) / bj)
        + dx_tj.mul(dy_tjp).mul_times(cross.scale((bj * bjp).inv()))
    )
    tjm = q_shift(tau_q(j - HALF, "u", "x", vars), "x", -1)
    tjpm = q_shift(tau_q(jp - HALF, "v", "y", vars), "v", -1)
    rhs = tjm.mul(tjpm).mul_times(tp(vars, "v") - tp(vars, "u", coeff=QScalar.q_power(-two_j)))
    return lhs, rhs


# (2, 2) multiplies block pairs with min(n, m) up to 4 on both routes
ORACLE_PAIRS = [(HALF, HALF), (1, HALF), (Fraction(3, 2), 1), (2, 2)]


# (5/2, 2) is unequal, with block pairs of min(n, m) = 4 on the LHS and 3
# on the RHS; its Q(q) side takes about a second
@pytest.mark.parametrize("j,jp", ORACLE_PAIRS + [(Fraction(5, 2), 2)])
def test_lm_sides_match_qq_oracle(j, jp):
    # the packed evaluation, divided back by [2j][2j'], against Q(q)
    # arithmetic that shares no code with it beyond the taus
    lhs, rhs = _lm_sides_over_qq(Fraction(j), Fraction(jp))
    assert not lhs.is_zero()
    assert lm_residual(j, jp) == (lhs, rhs)
    assert lhs == rhs


@pytest.mark.parametrize("j,jp", ORACLE_PAIRS + [(Fraction(5, 2), Fraction(3, 2))])
def test_lm_field_width_holds_every_term(j, jp):
    ring = qhirota._lm_packed(int(2 * j), int(2 * jp))
    # tau_j has degree at most 2j in each of its variables (E and F are
    # nilpotent of order 2j + 1) and a prefactor at most 1, so no term of
    # either side has an exponent above max(2j, 2j') + 1; a word of tau_j
    # has length at most 2j, so no product word has more than 2j + 2j'
    # letters b or c.  A field that overflowed would add into its
    # neighbour, and a false identity could then pass
    assert max(int(2 * j), int(2 * jp)) + 1 < 1 << ring.width
    assert int(2 * j) + int(2 * jp) < 1 << ring.width
    if (j, jp) in ORACLE_PAIRS:
        for side in _lm_sides_over_qq(Fraction(j), Fraction(jp)):
            top = max(e for t in side.terms.values() for m in t.terms for e in m)
            assert top < 1 << ring.width
            top = max(w.count(g) for w in side.terms for g in "bc")
            assert top < 1 << ring.width


_BOUNDS = (1, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 2**40 - 1, 2**40, 2**40 + 1)


@pytest.mark.parametrize("bound", _BOUNDS)
def test_kronecker_round_trip_at_the_bound(bound):
    # a polynomial whose largest coefficient reaches the bound comes back
    # digit for digit, at any lowest exponent, with either sign on top
    bits = _kronecker_bits(bound)
    rng = random.Random(bound)
    polys = [
        {-3: bound, -2: -bound, 0: bound, 4: -bound},
        {0: -bound, 1: bound},
        {5: bound - 1 or bound, 6: -bound},
        {e: rng.randint(-bound, bound) or bound for e in range(-4, 12)},
    ]
    for lau in polys:
        for low in (min(lau), min(lau) - 2):
            v = _encode(lau, bits, low)
            assert v != 0
            assert _decode(v, bits, low) == lau


@pytest.mark.parametrize("bound", range(1, 8))
def test_kronecker_nonzero_never_encodes_to_zero(bound):
    # every nonzero polynomial with three coefficients in [-bound, bound]
    bits = _kronecker_bits(bound)
    span = range(-bound, bound + 1)
    for c0 in span:
        for c1 in span:
            for c2 in span:
                lau = {e: c for e, c in ((-1, c0), (0, c1), (1, c2)) if c}
                if lau:
                    assert _encode(lau, bits, -1) != 0


@pytest.mark.parametrize("j,jp", ORACLE_PAIRS)
def test_lm_digit_width_holds_every_coefficient(j, jp):
    # the l1 bound behind bits holds every coefficient of both scaled sides
    # and of the residual accumulated from them, at the shared low
    ring = qhirota._lm_packed(int(2 * j), int(2 * jp))
    residual = ring.add(ring.add({}, ring.lhs), ring.rhs, -1)
    for side in (ring.add({}, ring.lhs), ring.add({}, ring.rhs), residual):
        for d in side.values():
            for v in filter(None, d.values()):
                lau = _decode(v, ring.bits, ring.low)
                assert max(abs(c) for c in lau.values()) < 1 << (ring.bits - 1)
                assert _encode(lau, ring.bits, ring.low) == v


@pytest.mark.parametrize(
    "old,new",
    [
        ('twist = m if y == "a" else -m', 'twist = -m if y == "a" else m'),
        ('twist = m if y == "a" else -m', 'twist = m + 1 if y == "a" else -m'),
    ],
    ids=["sign", "one-off"],
)
def test_lm_fails_with_a_mutant_twist(fresh_caches, monkeypatch, old, new):
    # b^i c^k y^m = q^(twist (i+k)) y^m b^i c^k, wrong in the block products
    # only: the taus and the Q(q) oracle still multiply by rewriting
    mutant = _mutate(monkeypatch, ncalg, "funq_sl2_blocks", old, new)
    monkeypatch.setattr(qhirota, "funq_sl2_blocks", mutant)
    assert any(not verify_lm(j, jp).verdict for j, jp in LM_GRID)
    j, jp = ORACLE_PAIRS[0]
    lhs, rhs = _lm_sides_over_qq(Fraction(j), Fraction(jp))
    assert lm_residual(j, jp) != (lhs, rhs)


def test_ring_product_with_cancelling_terms(monkeypatch):
    # (b - c)(b + c) = b^2 - c^2: the two b*c terms meet under one key of
    # one block pair and cancel to a zero int, which decoding skips
    tables = {
        1: ({("a", 0): {(0, 0, 1, 0): {0: 1}, (0, 0, 0, 1): {0: -1}}}, 2),
        2: ({("a", 0): {(0, 0, 1, 0): {0: 1}, (0, 0, 0, 1): {0: 1}}}, 2),
    }
    monkeypatch.setattr(qhirota, "_tau_table", tables.__getitem__)
    one = {0: 1}, (0, 0, 0, 0)
    ring = qhirota._LaurentRing([([(*one, 1, (), ())], [(*one, 2, (), ())])], [])
    b, c = (NCPoly.generator(funq_sl2(), g, qhirota.LM_VARS) for g in "bc")
    assert ring.to_ncpoly(ring.add({}, ring.lhs), ONE) == (b - c).mul(b + c)


def test_lm_does_not_rewrite(fresh_caches):
    # the plane table and the block products are closed forms: nothing on
    # the lm path fills the rewrite memo
    memo = len(funq_sl2()._memo)
    assert verify_lm(2, 2).verdict
    lhs, rhs = lm_residual(Fraction(3, 2), 1)
    assert lhs == rhs
    assert len(funq_sl2()._memo) == memo


_LM_SIDES = qhirota.lm_sides


def _times_q(lau):
    return {e + 1: v for e, v in lau.items()}


def _scaled_by_q(summand):
    c, *rest = summand
    return (_times_q(c), *rest)


def _lm_sides_rhs_scaled_by_q(j, jp):
    # each RHS product scaled by q through its left factor
    lhs, rhs = _LM_SIDES(j, jp)
    return lhs, [([_scaled_by_q(s) for s in left], right) for left, right in rhs]


@pytest.mark.parametrize("j,jp", [(HALF, HALF), (Fraction(3, 2), 1)])
def test_lm_fails_with_rhs_prefactor_scaled_by_q(fresh_caches, monkeypatch, j, jp):
    # negative control: a canonical form that collapsed to a false zero
    # would pass this mutant
    monkeypatch.setattr(qhirota, "lm_sides", _lm_sides_rhs_scaled_by_q)
    report = verify_lm(j, jp)
    assert not report.verdict
    assert report.residual


def _lm_sides_cross_monomial_scaled_by_q(var):
    """lm_sides with only the LHS summand of monomial ``var``, the x of
    -q^(2j-1) x D_x tau or the y of q^(2j'-2j-1) y D_y tau', scaled by q."""

    def sides(j, jp):
        lhs, rhs = _LM_SIDES(j, jp)
        at = qhirota.LM_VARS.index(var)
        lhs = [tuple([_scaled_by_q(s) if s[1][at] else s for s in half] for half in p) for p in lhs]
        assert sum(s[1][at] for p in lhs for half in p for s in half) == 1
        return lhs, rhs

    return sides


@pytest.mark.parametrize("var", ["x", "y"])
def test_lm_fails_with_one_cross_monomial_scaled_by_q(fresh_caches, monkeypatch, var):
    # the x monomial folds into the left factor and the y monomial into the
    # right one, each in its own product: each is read from lm_sides and
    # reaches the build on its own
    monkeypatch.setattr(qhirota, "lm_sides", _lm_sides_cross_monomial_scaled_by_q(var))
    assert any(not verify_lm(j, jp).verdict for j, jp in LM_GRID)
    j, jp = ORACLE_PAIRS[2]
    lhs, rhs = _lm_sides_over_qq(Fraction(j), Fraction(jp))
    assert lm_residual(j, jp) != (lhs, rhs)


@pytest.mark.parametrize("j,jp", [(HALF, HALF), (Fraction(3, 2), 1), (2, 2)])
def test_lm_builds_each_side_in_two_products(fresh_caches, monkeypatch, j, jp):
    # lm_sides states each side as two products, and the ring takes one
    # product of two folded factors per stated product
    assert [len(side) for side in qhirota.lm_sides(j, jp)] == [2, 2]
    ring = qhirota._LaurentRing
    assert list(inspect.signature(ring.product).parameters) == ["self", "left", "right"]
    calls = []
    product, fold = ring.product, ring.fold
    monkeypatch.setattr(ring, "product", lambda self, *args: calls.append(len(args)) or product(self, *args))
    monkeypatch.setattr(ring, "fold", lambda self, *args: calls.append("fold") or fold(self, *args))
    packed = qhirota._lm_packed(int(2 * j), int(2 * jp))
    assert calls == ["fold", "fold", 2] * 4
    assert len(packed.lhs) == len(packed.rhs) == 2


def test_a_second_verify_lm_builds_no_ring_and_adds_both_sides(fresh_caches, monkeypatch):
    # the plan is built once per spin pair, but every call still does the
    # identity's arithmetic: the LHS into a fresh accumulator, then the RHS
    # subtracted into it, each tested for zero
    ring = qhirota._LaurentRing
    assert verify_lm(1, 1).verdict
    builds, adds = [], []
    init, add = ring.__init__, ring.add
    monkeypatch.setattr(ring, "__init__", lambda self, *args: builds.append(args) or init(self, *args))

    def counted(self, acc, products, sign=1):
        adds.append((copy.deepcopy(acc), products, sign))
        return add(self, acc, products, sign)

    monkeypatch.setattr(ring, "add", counted)
    assert verify_lm(1, 1).verdict
    assert builds == []
    plan = qhirota._lm_packed(2, 2)
    (fresh, lhs, one), (summed, rhs, minus) = adds
    assert fresh == {} and lhs is plan.lhs and one == 1
    assert summed == add(plan, {}, plan.lhs) and rhs is plan.rhs and minus == -1


_SUMMANDS = [
    (side, p, half, i)
    for side, products in enumerate(_LM_SIDES(1, 1))
    for p, product in enumerate(products)
    for half, summands in enumerate(product)
    for i in range(len(summands))
]


def _lm_sides_one_summand_scaled_by_q(at):
    side, p, half, i = at

    def sides(j, jp):
        out = _LM_SIDES(j, jp)
        summands = out[side][p][half]
        summands[i] = _scaled_by_q(summands[i])
        return out

    return sides


@pytest.mark.parametrize("at", _SUMMANDS, ids=["{}-{}-{}-{}".format(*at) for at in _SUMMANDS])
def test_lm_fails_with_any_one_summand_scaled_by_q(fresh_caches, monkeypatch, at):
    # every summand of the statement reaches the build: scaling any one
    # coefficient by q makes a false identity, which FAILs and which the
    # Q(q) oracle tells apart
    monkeypatch.setattr(qhirota, "lm_sides", _lm_sides_one_summand_scaled_by_q(at))
    assert any(not verify_lm(j, jp).verdict for j, jp in LM_GRID)
    lhs, rhs = _lm_sides_over_qq(HALF, HALF)
    assert lm_residual(HALF, HALF) != (lhs, rhs)


def test_hierarchy_check_fails_with_rhs_prefactor_scaled_by_q(fresh_caches, monkeypatch):
    # every P_k,l of the RHS is scaled by q, so exactly the nonzero ones differ
    lhs, _ = lm_residual(HALF, HALF)
    nonzero = [c for c in expand_hierarchy(lhs, 1, -1, 3, 3) if not c.value.is_zero()]
    assert 0 < len(nonzero) < 16
    monkeypatch.setattr(qhirota, "lm_sides", _lm_sides_rhs_scaled_by_q)
    qhirota._lm_packed.cache_clear()  # the plan of the true sides is cached
    (report,) = run_check("qliouville.hierarchy")
    assert not report.verdict
    assert report.details == [f"P_{c.k},{c.l} differs between the two sides" for c in nonzero]


def test_hierarchy_check_packs_the_identity_once(fresh_caches, monkeypatch):
    calls = []
    packed = qhirota._lm_packed
    monkeypatch.setattr(qhirota, "_lm_packed", lambda *two: calls.append(two) or packed(*two))
    (report,) = run_check("qliouville.hierarchy")
    assert report.verdict
    assert calls == [(1, 1)]
    assert packed.cache_info().misses == 1


def test_hierarchy_check_fails_when_the_lhs_is_zero(fresh_caches, monkeypatch):
    # non-vacuity guard: with zero taus every P_k,l of both sides is zero
    # and they agree, but nothing was checked
    monkeypatch.setattr(qhirota, "_tau_table", lambda two_j: ({}, 0))
    (report,) = run_check("qliouville.hierarchy")
    assert not report.verdict
    assert "holds vacuously" in report.residual


_SPIN_HALF_TAU = qhirota.spin_half_tau


def _spin_half_tau_d_scaled_by_q(pres=None, vars=("u", "x")):
    tau = _SPIN_HALF_TAU(pres, vars)
    terms = dict(tau.terms)
    terms[("d",)] = terms[("d",)].scale(Q)
    return NCPoly(tau.pres, tau.vars, terms)


@pytest.mark.parametrize("check_id", ["qliouville.eq-half", "qliouville.suite"])
def test_spin_half_checks_fail_with_d_term_scaled_by_q(monkeypatch, check_id):
    (report,) = run_check(check_id)
    assert report.verdict
    monkeypatch.setattr(qhirota, "spin_half_tau", _spin_half_tau_d_scaled_by_q)
    (report,) = run_check(check_id)
    assert not report.verdict
    assert report.residual


def _commutative_sl2_ad_mutant():
    # ad -> 1 + 2bc in place of 1 + bc; rules are converted when a
    # Presentation is built, so the mutant is a new one
    return Presentation(
        "commutative_sl2_ad_mutant",
        ("a", "d", "b", "c"),
        {
            ("d", "a"): {(): ONE, ("b", "c"): ONE},
            ("a", "d"): {(): ONE, ("b", "c"): qs(2)},
            ("b", "a"): {("a", "b"): ONE},
            ("c", "a"): {("a", "c"): ONE},
            ("b", "d"): {("d", "b"): ONE},
            ("c", "d"): {("d", "c"): ONE},
            ("c", "b"): {("b", "c"): ONE},
        },
    )


def test_suite_classical_limit_fails_with_mutated_ad_rule(monkeypatch):
    # negative control for the q -> 1 branch: equations 1-3 run over
    # funq_sl2 and stay zero, so only the classical limit can see it
    monkeypatch.setattr(qhirota, "commutative_sl2", _commutative_sl2_ad_mutant)
    (report,) = run_check("qliouville.suite")
    assert not report.verdict
    assert report.details == ["classical limit residual nonzero: b*c"]


def test_lm_fails_when_the_lhs_is_zero(fresh_caches, monkeypatch):
    # non-vacuity guard: with zero taus both sides vanish and the residual
    # is zero, but nothing was checked
    monkeypatch.setattr(qhirota, "_tau_table", lambda two_j: ({}, 0))
    report = verify_lm(HALF, HALF)
    assert not report.verdict
    assert "left-hand side is zero" in report.residual


def _counting(calls, name, original):
    def counted(*args):
        calls.append(name)
        return original(*args)

    return counted


# the spin workload's ladder, as (2j, 2j') pairs
LM_LADDER = [(Fraction(a, 2), Fraction(b, 2)) for a, b in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3), (4, 4))]


def test_lm_pass_path_makes_no_qq_arithmetic(fresh_caches, monkeypatch):
    # the tau tables, the Laurent prefactors and the packed products are all
    # over Z[q, q^-1]: Q(q) enters only to decode lm_residual and FAIL text
    calls = []
    for name in ("__mul__", "__add__", "inv", "as_laurent"):
        monkeypatch.setattr(QScalar, name, _counting(calls, name, getattr(QScalar, name)))
    from_terms = _counting(calls, "from_terms", QScalar.from_terms)
    monkeypatch.setattr(QScalar, "from_terms", classmethod(lambda cls, *args: from_terms(*args)))
    monkeypatch.setattr(qscalar, "ipoly_gcd", _counting(calls, "ipoly_gcd", qscalar.ipoly_gcd))
    for _ in range(2):  # every cache cleared, then warm
        for j, jp in LM_LADDER:
            assert verify_lm(j, jp).verdict
    assert calls == []


def test_lm_rejects_spin_zero():
    with pytest.raises(ValueError):
        verify_lm(0, HALF)


def test_expand_hierarchy_zero_on_residual():
    lhs, rhs = lm_residual(HALF, HALF)
    coeffs = expand_hierarchy(lhs - rhs, 1, -1, 3, 3)
    assert all(c.value.is_zero() for c in coeffs)
    assert len(coeffs) == 16


def test_expand_hierarchy_sides_match():
    L, R = (expand_hierarchy(side, 1, -1, 2, 2) for side in lm_residual(HALF, HALF))
    assert any(not a.value.is_zero() for a in L)
    for a, b in zip(L, R):
        assert (a.value - b.value).is_zero()


def test_expand_hierarchy_reconstructs_lhs():
    poly, _ = lm_residual(HALF, HALF)
    kmax = 3
    cks = q_taylor(poly, "y", "x", 1, -2, kmax)
    rec = q_taylor_reconstruct(cks, "y", "x", 1, -2, poly.vars)
    assert (rec - poly).is_zero()


def test_spin_half_equations():
    for n in (1, 2, 3):
        assert hierarchy_eq_residual(n).is_zero(), f"equation {n}"


def _random_words(rng, pres, vars):
    """A sum of up to three words of funq_sl2, each of length 0..3, with
    coefficients n q^e, n in 1..5 and e in -2..2."""
    out = NCPoly.zero(pres, vars)
    for _ in range(rng.randint(1, 3)):
        letters = [rng.choice("abcd") for _ in range(rng.randint(0, 3))]
        coeff = qs(rng.randint(1, 5)) * QScalar.q_power(rng.randint(-2, 2))
        out = out + NCPoly.word(pres, letters, vars, coeff)
    return out


def test_equation_3_vanishes_for_every_tau_affine_in_x(monkeypatch):
    """Equation 3 of qliouville.suite is zero for every tau = a + b u + c x
    + d u x, whatever the words a, b, c, d (hierarchy_eq_residual gives the
    derivation), and nonzero once tau gains an x^2 term.  No mutant of the
    spin-1/2 tau's coefficients or of the rules can reach it; only a tau of
    degree 2 in x can."""
    rng = random.Random(0)
    pres = funq_sl2()
    vars = ("u", "x")
    u, x = tp(vars, "u"), tp(vars, "x")
    for _ in range(6):
        a, b, c, d, e = (_random_words(rng, pres, vars) for _ in range(5))
        tau = a + b.mul_times(u) + c.mul_times(x) + d.mul_times(u * x)
        monkeypatch.setattr(qhirota, "spin_half_tau", lambda pres=None, tau=tau: tau)
        assert hierarchy_eq_residual(3).is_zero()
        quadratic = tau + e.mul_times(x * x)
        monkeypatch.setattr(qhirota, "spin_half_tau", lambda pres=None, tau=quadratic: tau)
        assert not hierarchy_eq_residual(3).is_zero()


def test_spin_half_eq2_rhs_is_one():
    # the bilinear combination itself equals 1 before subtracting
    pres = funq_sl2()
    res = hierarchy_eq_residual(2)
    combo = res + NCPoly.one(pres, ("u", "x"))
    assert combo == NCPoly.one(pres, ("u", "x"))


def test_classical_limit_unit_solution():
    # tau = 1 + u x (a = d = 1, b = c = 0): the classical combination is 1
    pres = commutative_sl2()
    vars = ("u", "x")
    tau = NCPoly.one(pres, vars) + NCPoly.from_times(
        pres, TimesPoly.var(vars, "u") * TimesPoly.var(vars, "x")
    )
    dx = q_derivative(tau, "x", -2)
    du_shift = q_derivative(q_shift(q_shift(tau, "u", -1), "x", 1), "u", -2)
    dxu = q_derivative(du_shift, "x", -2)
    combo = tau.mul(dxu) - dx.mul(du_shift)
    at_q1 = combo.map_coefficients(lambda c: QScalar.from_rational(c.eval_q1()))
    assert at_q1 == NCPoly.one(pres, vars)


def test_spin_half_suite_passes():
    rep = spin_half_suite()
    assert rep.verdict, rep.details
