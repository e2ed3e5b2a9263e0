import itertools
import random
from fractions import Fraction
from math import factorial, lcm
from operator import mul

import pytest

from tau_forge import toda
from tau_forge._kernels import _addmul, _decode, _pack, _trim, _unpack
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


def _det_fraction(m):
    """det m by Gaussian elimination over Q: the oracle of the minor tables."""
    m = [list(r) for r in m]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def test_singular_rejected():
    with pytest.raises(ValueError):
        TodaInstance.from_rows([[1, 1], [1, 1]])
    # singular only over Q: the denominators are scaled away first
    rows = [[Fraction(1, 2), Fraction(1, 3), 1], [Fraction(3, 2), 1, 0], [2, Fraction(4, 3), 1]]
    assert _det_fraction(rows) == 0
    with pytest.raises(ValueError, match="g must be invertible"):
        TodaInstance.from_rows(rows)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_invertibility_matches_the_rational_determinant(size):
    rng = random.Random(size)
    for _ in range(40):
        rows = [[Fraction(rng.randint(-1, 1), rng.randint(1, 3)) for _ in range(size)] for _ in range(size)]
        if _det_fraction(rows):
            assert TodaInstance.from_rows(rows).g == tuple(map(tuple, rows))
        else:
            with pytest.raises(ValueError, match="g must be invertible"):
                TodaInstance.from_rows(rows)


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
    assert top.constant_term() == qs(_det_fraction([list(r) for r in inst.g]))


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
            want = _det_fraction([row[:k] for row in A[:k]])
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


# -- the oracle: the row-prefix table of the polynomial flow matrix -----------
#
# The build flows only the rows and packs them as ints; this route shares
# nothing with it but the Laplace expansion: here the whole flow matrix
# A = exp(x I_1) g exp(u I_1^T) is read off g term by term, scaled to integer
# polynomials with packed monomials, and every minor is a row-prefix minor
# of it.


def _pmul(a, b):
    return _trim(_addmul({}, a, b))


def _pderiv(p, idx, width):
    """Partial derivative of a packed polynomial in variable ``idx``."""
    shift = idx * width
    mask = (1 << width) - 1
    one = 1 << shift
    return {m - one: c * e for m, c in p.items() if (e := (m >> shift) & mask)}


def _to_times(p, vars, width, scale):
    """The packed integer polynomial p / scale as a TimesPoly over Q."""
    return TimesPoly(vars, {_unpack(m, len(vars), width): qs(Fraction(v, scale)) for m, v in p.items()})


def _integer_flow(inst):
    """(width, c, cA): the flow matrix A, c the lcm of its coefficient
    denominators and cA as packed integer polynomials.

    A[i][k] = sum over a >= i, b >= k of g[a][b] x^(a-i) u^(b-k) / ((a-i)! (b-k)!),
    one monomial per (a, b).  No exponent in a product of two minors exceeds
    twice the sum over rows of the row's largest exponent."""
    n = inst.size
    A = [
        [
            {(a - i, b - k): v / (factorial(a - i) * factorial(b - k))
             for a in range(i, n) for b in range(k, n) if (v := inst.g[a][b])}
            for k in range(n)
        ]
        for i in range(n)
    ]
    c = lcm(*(f.denominator for row in A for p in row for f in p.values()))
    bound = sum(max((e for p in row for m in p for e in m), default=0) for row in A)
    width = max(1, (2 * bound).bit_length())
    cA = [[{_pack(m, width): int(f * c) for m, f in p.items()} for p in row] for row in A]
    return width, c, cA


def _expand_poly(row, mask, D):
    """Laplace expansion of the polynomial ``row`` below the (r-1)-layer of D."""
    acc = {}
    sign = 1 if mask.bit_count() % 2 else -1
    for col in range(mask.bit_length()):
        if mask >> col & 1:
            if row[col]:
                _addmul(acc, row[col], D[mask ^ (1 << col)], sign)
            sign = -sign
    return _trim(acc)


def _row_prefix_table(M):
    D = [{0: 1}] + [None] * ((1 << len(M)) - 1)
    for mask in range(1, 1 << len(M)):
        D[mask] = _expand_poly(M[mask.bit_count() - 1], mask, D)
    return D


def _lead(k):
    return (1 << k) - 1


def _rational(p, width, scale):
    return {_unpack(m, 2, width): Fraction(v, scale) for m, v in p.items()}


def _oracle_minors(inst):
    """[tau_k] and {k: (d_x minor, d_u minor, inner minor)}, as
    {(x-degree, u-degree): Fraction}, from the row-prefix table of cA."""
    width, c, cA = _integer_flow(inst)
    D = _row_prefix_table(cA)
    taus = [_rational(D[_lead(k)], width, c**k) for k in range(inst.size + 1)]
    bordered = {}
    for k in range(1, inst.size):
        rows = _lead(k - 1) | 1 << k
        minors = (_expand_poly(cA[k], _lead(k), D), D[rows], _expand_poly(cA[k], rows, D))
        bordered[k] = tuple(_rational(p, width, c**k) for p in minors)
    return taus, bordered


# -- the second oracle: Cauchy-Binet over bi-subset minors of G = L g ---------
#
# c^k tau_k is the sum over k-subsets S, T of det N[:k, S] det G[S, T]
# det N[:k, T] x^(sum S - k(k-1)/2) u^(sum T - k(k-1)/2), with every
# bi-subset minor det G[S, T] built layer by layer, a Laplace expansion along
# row max S.  It forms C(2n, n) minors of G
# where the build forms 2^n minors of the half-flowed matrix N(x) G.


def _row_sums(M, layer, right):
    """{S: {u-degree: sum over T of det G[S, T] right[T]}} for S in layer,
    with M[S][T] = det G[S, T] and ``right`` mapping a subset to (degree, int)."""
    by_degree = {}
    for T, (b, v) in right.items():
        Ts, vs = by_degree.setdefault(b, ([], []))
        Ts.append(T)
        vs.append(v)
    return {S: {b: sum(map(mul, map(M[S].__getitem__, Ts), vs)) for b, (Ts, vs) in by_degree.items()} for S in layer}


def _contract(left, rows):
    """sum over S of left[S] rows[S] as {(x-degree, u-degree): int}."""
    out = {}
    for S, (a, w) in left.items():
        for b, s in rows[S].items():
            out[a, b] = out.get((a, b), 0) + w * s
    return _trim(out)


def _cauchy_binet_minors(inst):
    """(c, taus, bordered) as ``toda._minors`` returns them, by Cauchy-Binet
    over every pair of k-subsets."""
    n = inst.size
    L = lcm(*(f.denominator for row in inst.g for f in row))
    G = [[int(f * L) for f in row] for row in inst.g]
    N = [[factorial(n - 1) // factorial(s - i) if s >= i else 0 for s in range(n)] for i in range(n)]
    table = toda._tp_det(N)
    layers = [[m for m in range(1 << n) if m.bit_count() == k] for k in range(n + 1)]
    M = {0: {0: 1}}  # M[S][T] = det G[S, T], Laplace along row max S
    for k in range(1, n + 1):
        for S in layers[k]:
            r = S.bit_length() - 1
            M[S] = {T: toda._expand(G[r], T, M[S ^ (1 << r)]) for T in layers[k]}
    taus, bordered = [{(0, 0): 1}], [None]
    for k in range(1, n + 1):
        low = k * (k - 1) // 2
        deg = {S: sum(i for i in range(n) if S >> i & 1) - low for S in layers[k]}
        lead = {S: (deg[S], table[S]) for S in layers[k]}
        rows = _row_sums(M, layers[k], lead)
        taus.append(_contract(lead, rows))
        if k < n:  # rows {0..k-2, k} of N: one x-degree less
            edge = {S: (deg[S] - 1, v) for S in layers[k] if (v := toda._expand(N[k], S, table))}
            edge_rows = _row_sums(M, layers[k], edge)
            bordered.append((_contract(edge, rows), _contract(lead, edge_rows), _contract(edge, edge_rows)))
    return factorial(n - 1) ** 2 * L, taus, bordered


def _rational_minors(minors, size):
    """(c, taus, bordered) divided out to ([tau_k], {k: bordered minors}) as
    {(x-degree, u-degree): Fraction}, the form ``_oracle_minors`` returns."""
    c, taus, bordered = minors
    scaled = [{m: Fraction(v, c**k) for m, v in p.items()} for k, p in enumerate(taus)]
    return scaled, {
        k: tuple({m: Fraction(v, c**k) for m, v in p.items()} for p in bordered[k])
        for k in range(1, size)
    }


def _built_minors(inst):
    """The same quantities from the half-flowed build."""
    return _rational_minors(toda._minors(inst), inst.size)


@pytest.mark.parametrize("size,seed", [(s, seed) for s in range(2, 8) for seed in (0, 1)] + [(8, 0)])
def test_cauchy_binet_matches_row_prefix_oracle(size, seed):
    """The build equals both oracles: the bi-subset Cauchy-Binet sum and the
    row-prefix table of the polynomial flow matrix."""
    inst = TodaInstance.random(random.Random(1000 * seed + size), size)
    want = _oracle_minors(inst)
    assert _rational_minors(_cauchy_binet_minors(inst), size) == want
    assert _built_minors(inst) == want


def _factorial_off(m):
    """2! read as 3!: one factorial off in the table of (n-1)! exp(I_1)."""
    return factorial(3) if m == 2 else factorial(m)


def _flip_one_laplace_sign(monkeypatch, inst):
    """Flip the sign of the first column's term whenever a row of the packed
    half-flowed table P = N(x) G is expanded on two columns: one Laplace sign
    of its row-prefix table and of its bordered rows.  The build expands rows
    of N and of P only, so every other row is one of P."""
    n = inst.size
    n_rows = {tuple(factorial(n - 1) // factorial(s - i) if s >= i else 0 for s in range(n)) for i in range(n)}
    real = toda._expand

    def flipped(row, mask, D):
        value = real(row, mask, D)
        if mask.bit_count() == 2 and tuple(row) not in n_rows:
            col = (mask & -mask).bit_length() - 1
            value += 2 * row[col] * D[mask ^ (1 << col)]  # its sign was -1
        return value

    monkeypatch.setattr(toda, "_expand", flipped)


@pytest.mark.parametrize("mutant", ["factorial", "laplace_sign"])
@pytest.mark.parametrize("size", [3, 4, 5])
def test_mutants_fail_the_oracle_and_the_check(monkeypatch, mutant, size):
    inst = TodaInstance.random(random.Random(size), size)
    want = _oracle_minors(inst)
    if mutant == "factorial":
        monkeypatch.setattr(toda, "factorial", _factorial_off)
    else:
        _flip_one_laplace_sign(monkeypatch, inst)
    assert _built_minors(inst) != want
    assert not verify_toda_bilinear(inst).verdict


# -- negative controls: a wrong minor must fail the check --------------------


def _patch_table(monkeypatch, change):
    """Rebind the step that assembles tau_k and the bordered minors so that
    ``change`` edits its (c, taus, bordered) after it is complete."""
    real = toda._minors

    def perturbed(inst):
        c, taus, bordered = real(inst)
        change(taus, bordered)
        return c, taus, bordered

    monkeypatch.setattr(toda, "_minors", perturbed)


def _bump_lowest(p):
    p = dict(p)
    p[min(p)] += 1
    return p


def test_perturbed_leading_minor_fails(monkeypatch):
    inst = TodaInstance.random(random.Random(4), 4)
    assert verify_toda_bilinear(inst).verdict

    def bump_tau_2(taus, _bordered):
        taus[2] = _bump_lowest(taus[2])

    _patch_table(monkeypatch, bump_tau_2)
    rep = verify_toda_bilinear(inst)
    assert not rep.verdict
    assert "k=2: residual nonzero" in rep.details
    assert any(d.startswith("k=1: residual nonzero") for d in rep.details)


def test_perturbed_bordered_minor_fails(monkeypatch):
    inst = TodaInstance.random(random.Random(4), 4)

    def bump_du_2(_taus, bordered):
        # d_u tau_2 is the minor on rows 0, 1 and columns 0, 2
        dx, du, inner = bordered[2]
        bordered[2] = (dx, _bump_lowest(du), inner)

    _patch_table(monkeypatch, bump_du_2)
    rep = verify_toda_bilinear(inst)
    assert not rep.verdict
    assert "k=2: d_u tau_k != bordered minor" in rep.details
    assert all("bordered minor" in d for d in rep.details)


def test_fitted_constant_reported(monkeypatch):
    inst = TodaInstance.random(random.Random(3), 3)
    # 2 tau_2 in place of tau_2: the identity at k=1 and k=2 holds up to the
    # constants 1/2 and 4, and the report names them

    def double_tau_2(taus, _bordered):
        taus[2] = {m: 2 * v for m, v in taus[2].items()}

    _patch_table(monkeypatch, double_tau_2)
    rep = verify_toda_bilinear(inst)
    assert not rep.verdict
    assert "k=1: residual nonzero, fitted constant 1/2" in rep.details
    assert "k=2: residual nonzero, fitted constant 4" in rep.details


# -- the packed integer kernels of the oracle against TimesPoly ---------------


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
        pa = {_pack(m, width): v for m, v in a.items()}
        pb = {_pack(m, width): v for m, v in b.items()}
        assert {_unpack(m, nvars, width) for m in pa} == set(a)
        ta = TimesPoly(vars, {m: qs(v) for m, v in a.items()})
        tb = TimesPoly(vars, {m: qs(v) for m, v in b.items()})
        assert _to_times(_pmul(pa, pb), vars, width, 1) == ta * tb
        idx = rng.randrange(nvars)
        assert _to_times(_pderiv(pa, idx, width), vars, width, 1) == ta.derivative(vars[idx])


# -- the identity as Kronecker-packed integer products ------------------------


def _identity_factors(inst):
    """{k: the three factor pairs of the identity at k}, from the build."""
    _c, taus, _bordered = toda._minors(inst)
    out = {}
    for k in range(1, inst.size):
        tk = taus[k]
        dx = {(a - 1, b): a * v for (a, b), v in tk.items() if a}
        du = {(a, b - 1): b * v for (a, b), v in tk.items() if b}
        dxu = {(a, b - 1): b * v for (a, b), v in dx.items() if b}
        out[k] = ((tk, dxu), (dx, du), (taus[k + 1], taus[k - 1]))
    return out


def _dict_product(a, b):
    """a * b by ``_addmul`` on packed monomials, as {(x-degree, u-degree): int}."""
    width = 1 + max((e for p in (a, b) for m in p for e in m), default=0).bit_length()
    pa, pb = ({_pack(m, width): v for m, v in p.items()} for p in (a, b))
    return {_unpack(m, 2, width): v for m, v in _pmul(pa, pb).items()}


@pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7])
def test_packed_products_decode_to_dict_products(size):
    inst = TodaInstance.random(random.Random(50 + size), size)
    for pairs in _identity_factors(inst).values():
        bits, X, packed = toda._packed_products(pairs)
        products = [_dict_product(a, b) for a, b in pairs]
        for v, want in zip(packed, products):
            assert {(e % X, e // X): c for e, c in _decode(v, bits, 0).items()} == want
        # the bound: every coefficient of the residual, and of each side,
        # is one balanced digit, and the l1 bound covers it
        residual = {}
        for sign, p in zip((1, -1, -1), products):
            for m, c in p.items():
                residual[m] = residual.get(m, 0) + sign * c
        bound = sum(sum(map(abs, a.values())) * sum(map(abs, b.values())) for a, b in pairs)
        assert all(abs(c) <= bound for p in (*products, residual) for c in p.values())
        assert 2 * bound < 1 << bits
        assert not _trim(residual)


@pytest.mark.parametrize("size", [2, 4, 6], ids=lambda size: f"{size}-principal_only")
def test_field_width_holds_every_product(size):
    inst = TodaInstance.random(random.Random(size), size)
    n = size
    for k, pairs in _identity_factors(inst).items():
        _bits, X, _packed = toda._packed_products(pairs)
        # no factor has x-degree above k(n-k) (the bound of
        # test_degree_bounds_and_top_tau), so every product's x-degree is at
        # most 2k(n-k), and q^(a + X b) must name x^a u^b alone
        assert max(m[0] for a, b in pairs for m in _dict_product(a, b)) < X <= 2 * k * (n - k) + 1
