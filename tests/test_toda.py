import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from tau_forge import toda
from tau_forge.ncalg import TimesPoly
from tau_forge.qscalar import ONE, qs
from tau_forge.toda import TodaInstance, toda_tau_all, verify_toda_bilinear


def test_worked_instance():
    theta = Fraction(3, 2)
    inst = TodaInstance.from_rows([[1, 0], [theta, 1]])
    vars = ("x", "u")
    t0, t1, t2 = toda_tau_all(inst)
    # 1 + x(theta + u), computed by hand from the 2x2 product
    want = TimesPoly(vars, {(0, 0): ONE, (1, 0): qs(theta), (1, 1): ONE})
    assert t1 == want
    assert t2 == TimesPoly.one(vars)
    assert t0 == TimesPoly.one(vars)


def test_singular_rejected():
    with pytest.raises(ValueError):
        TodaInstance.from_rows([[1, 1], [1, 1]])


def test_degree_bounds_and_top_tau():
    rng = random.Random(2)
    inst = TodaInstance.random(rng, 4)
    n = inst.size - 1
    taus = toda_tau_all(inst)
    for k, t in enumerate(taus):
        # the k x k minor of exp(x I_1) g exp(u I_-1) picks up at most
        # degree (n - i) from row/column i, so sum_{i<k} (n - i) in each time
        bound = k * (2 * n - k + 1) // 2
        for mono in t.terms:
            assert mono[0] <= bound and mono[1] <= bound
    # tau_{n+1} = det(g), constant in the times
    top = taus[-1]
    assert list(top.terms) == [(0, 0)]
    assert top.constant_term() == qs(inst.det_g())


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7])
def test_bilinear_random(size):
    rng = random.Random(size)
    inst = TodaInstance.random(rng, size)
    assert verify_toda_bilinear(inst).verdict


def test_bilinear_identity_g():
    inst = TodaInstance.from_rows(
        [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    )
    assert verify_toda_bilinear(inst).verdict


def test_empty_rows_rejected():
    with pytest.raises(ValueError):
        TodaInstance.from_rows([])


def test_random_rejects_empty_size():
    # no draw of size 0 is valid, so redrawing would never stop
    with pytest.raises(ValueError, match="size must be at least 1"):
        TodaInstance.random(random.Random(0), 0)


def test_size_one_has_no_identity_to_check():
    inst = TodaInstance.from_rows([[2]])
    with pytest.raises(ValueError):
        verify_toda_bilinear(inst)


# -- an oracle built here: numeric matrices and Fraction determinants --------


def _evaluate(t, point):
    total = Fraction(0)
    for mono, c in t.terms.items():
        term = c.as_rational()
        for value, e in zip(point, mono):
            term *= value**e
        total += term
    return total


def _mat_mul(a, b):
    return [[sum(a[i][l] * b[l][j] for l in range(len(b))) for j in range(len(b[0]))] for i in range(len(a))]


def _check_taus_on_grid(inst, point_matrix):
    """Compare every tau_k with the Fraction determinant of the leading block
    of the numeric flow matrix on the grid {0..d}^(number of times), d the
    per-variable degree bound; both sides have degree <= d in each variable,
    so agreement on the grid is equality."""
    n = inst.size - 1
    taus = toda_tau_all(inst)
    nvars = len(taus[0].vars)
    d = n * (n + 1) // 2
    for k, t in enumerate(taus):
        bound = k * (2 * n - k + 1) // 2
        assert all(e <= bound for mono in t.terms for e in mono)
    for point in itertools.product(range(d + 1), repeat=nvars):
        A = point_matrix([Fraction(v) for v in point])
        for k in range(1, inst.size + 1):
            want = toda._det_fraction([row[:k] for row in A[:k]])
            assert _evaluate(taus[k], point) == want, (k, point)


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_taus_match_numeric_determinants(size):
    inst = TodaInstance.random(random.Random(100 + size), size)
    g = [list(r) for r in inst.g]

    def flow(point):
        x, u = point
        E = [[x ** (j - i) / factorial(j - i) if j >= i else Fraction(0) for j in range(size)] for i in range(size)]
        F = [[u ** (i - j) / factorial(i - j) if i >= j else Fraction(0) for j in range(size)] for i in range(size)]
        return _mat_mul(_mat_mul(E, g), F)

    _check_taus_on_grid(inst, flow)


# -- negative controls: a wrong minor must fail the check --------------------


def _patch_table(monkeypatch, mask, change):
    """Rebind the minor-table builder so that entry ``mask`` of every table
    it returns goes through ``change`` after the table is complete."""
    real = toda._tp_det

    def perturbed(M):
        D = real(M)
        D[mask] = change(dict(D[mask]))
        return D

    monkeypatch.setattr(toda, "_tp_det", perturbed)


def _bump_lowest(p):
    p[min(p)] += 1
    return p


def test_perturbed_leading_minor_fails(monkeypatch):
    inst = TodaInstance.random(random.Random(4), 4)
    assert verify_toda_bilinear(inst).verdict
    _patch_table(monkeypatch, toda._lead(2), _bump_lowest)
    rep = verify_toda_bilinear(inst)
    assert not rep.verdict
    assert "k=2: residual nonzero" in rep.details
    assert any(d.startswith("k=1: residual nonzero") for d in rep.details)


def test_perturbed_bordered_minor_fails(monkeypatch):
    inst = TodaInstance.random(random.Random(4), 4)
    # d_u tau_2 is the row-prefix minor on columns 0 and 2
    _patch_table(monkeypatch, toda._lead(1) | 1 << 2, _bump_lowest)
    rep = verify_toda_bilinear(inst)
    assert not rep.verdict
    assert "k=2: d_u tau_k != bordered minor" in rep.details
    assert all("bordered minor" in d for d in rep.details)


def test_fitted_constant_reported(monkeypatch):
    inst = TodaInstance.random(random.Random(3), 3)
    # 2 tau_2 in place of tau_2: the identity at k=1 and k=2 holds up to the
    # constants 1/2 and 4, and the report names them
    _patch_table(monkeypatch, toda._lead(2), lambda p: {m: 2 * v for m, v in p.items()})
    rep = verify_toda_bilinear(inst)
    assert not rep.verdict
    assert "k=1: residual nonzero, fitted constant 1/2" in rep.details
    assert "k=2: residual nonzero, fitted constant 4" in rep.details


# -- the packed integer kernels against TimesPoly ----------------------------


def test_packed_kernels_match_timespoly():
    rng = random.Random(11)
    for _ in range(10_000):
        nvars = rng.randint(1, 4)
        width = rng.randint(1, 6)
        top = (1 << width) - 1  # the largest exponent a field holds
        vars = tuple(f"t{i}" for i in range(nvars))
        split = [rng.randint(0, top) for _ in range(nvars)]

        def draw(caps):
            # one term at the caps, so some product exponent reaches top
            monos = {tuple(caps)}
            monos.update(tuple(rng.randint(0, c) for c in caps) for _ in range(rng.randint(0, 2)))
            return {m: rng.choice((-1, 1)) * rng.choice((1, 2, 7, 10**20 + 3)) for m in monos}

        a = draw(split)
        b = draw([top - s for s in split])
        pa = {toda._pack(m, width): v for m, v in a.items()}
        pb = {toda._pack(m, width): v for m, v in b.items()}
        assert {toda._unpack(m, nvars, width) for m in pa} == set(a)
        ta = TimesPoly(vars, {m: qs(v) for m, v in a.items()})
        tb = TimesPoly(vars, {m: qs(v) for m, v in b.items()})
        assert toda._to_times(toda._pmul(pa, pb), vars, width, 1) == ta * tb
        idx = rng.randrange(nvars)
        assert toda._to_times(toda._pderiv(pa, idx, width), vars, width, 1) == ta.derivative(vars[idx])


@pytest.mark.parametrize("size", [2, 4, 6], ids=lambda size: f"{size}-principal_only")
def test_field_width_holds_every_product(size):
    inst = TodaInstance.random(random.Random(size), size)
    width, _c, _cA = toda._integer_flow(inst)
    # no minor has degree above n(n+1)/2 in any time (the bound of
    # test_degree_bounds_and_top_tau at its largest), so no product of two
    # minors may overflow a field of this width
    n = size - 1
    assert 2 * (n * (n + 1) // 2) < 1 << width
