import random
from fractions import Fraction

import pytest

from test_funq import EMBED_PAIRS
from uq_oracle import identity, mat_add, mat_scale, qs_matrix

from tau_forge import linalg as la
from tau_forge.ncalg import NCPoly, TimesPoly, funq_sl2, q_commuting_pair
from tau_forge.qscalar import ONE, QScalar, ZERO
from tau_forge.uqsl2 import coproduct, make_rep

HALF = Fraction(1, 2)


# -- reference: division-free Gauss-Jordan over Q(q) itself ------------------


def _complexity(x):
    if x.is_zero():
        return (1 << 30, 0)
    deg = (max(x.nc) if x.nc else 0) + (max(x.dc) if x.dc else 0)
    return (len(x.nc) + len(x.dc), deg)


def _reference_nullspace(A):
    """Nullspace basis by QScalar elimination: cross-multiplied row updates
    with pivots chosen by a complexity score, back-substitution in Q(q)."""
    if not A:
        return []
    rows = [list(r) for r in A]
    ncols = len(rows[0])
    pivot_of_col = {}
    used_rows = set()
    for _ in range(ncols):
        best = None
        for i, row in enumerate(rows):
            if i in used_rows:
                continue
            for j in range(ncols):
                if j in pivot_of_col or row[j].is_zero():
                    continue
                score = _complexity(row[j])
                if best is None or score < best[0]:
                    best = (score, i, j)
        if best is None:
            break
        _, pi, pj = best
        used_rows.add(pi)
        pivot_of_col[pj] = pi
        prow = rows[pi]
        pval = prow[pj]
        for i, row in enumerate(rows):
            if i == pi or row[pj].is_zero():
                continue
            f = row[pj]
            for j in range(ncols):
                row[j] = row[j] * pval - prow[j] * f
    basis = []
    for fc in (j for j in range(ncols) if j not in pivot_of_col):
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for pj, pi in pivot_of_col.items():
            prow = rows[pi]
            if not prow[fc].is_zero():
                vec[pj] = -prow[fc] / prow[pj]
        basis.append(vec)
    return basis


def _dense_equations(left, right):
    """The e, f and k equations of  left(x) M = M right(x)  with every entry
    of M an unknown, M[i][j] numbered i * cols + j."""
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
    return eqs


def _dense_intertwiner(left, right):
    """Reference solve over Q(q) of the Laurent actions ``left`` and
    ``right``: every entry of M is an unknown, and the e, f and k equations
    are all assembled."""
    left, right = [qs_matrix(M) for M in left], [qs_matrix(M) for M in right]
    rows, cols = len(left[0]), len(right[0])
    basis = _reference_nullspace(_dense_equations(left, right))
    assert len(basis) == 1
    return [[basis[0][i * cols + j] for j in range(cols)] for i in range(rows)]


def _assert_equal_up_to_scale(M, ref):
    """The Laurent matrix M is the QScalar matrix ``ref`` times a scalar."""
    M = qs_matrix(M, len(ref[0]))
    i, j = next((i, j) for i, r in enumerate(ref) for j, x in enumerate(r) if not x.is_zero())
    assert not M[i][j].is_zero()
    assert mat_scale(M, ref[i][j] / M[i][j]) == ref


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
    upper = [{0: {1: 1}, 1: {0: 1}}, {1: {-1: 1}}]
    with pytest.raises(ValueError):
        la.intertwiner((rep.E, rep.F, upper), rep.action)
    with pytest.raises(ValueError):
        la.intertwiner(rep.action, (rep.E, rep.F, upper))


# -- nullspace over Z[q] against the Q(q) elimination -----------------------


def _apply(A, v):
    return [sum((a * x for a, x in zip(row, v) if not a.is_zero() and not x.is_zero()), ZERO) for row in A]


def _qs_rows(A):
    """Rows of Laurent entries, one per column, as a dense QScalar matrix."""
    return qs_matrix([dict(enumerate(row)) for row in A], len(A[0]))


def _laurent_rows(A):
    """A QScalar matrix with entries in Z[q, q^-1] as rows of Laurent
    entries, one per column, {} for zero."""
    return [[{} if x.is_zero() else x.as_laurent() for x in row] for row in A]


def _assert_nullspace(A):
    """Every basis vector solves A v = 0 exactly, the basis is independent,
    and its size is the reference's nullity; A and the basis over Z[q, q^-1]
    as rows of Laurent entries."""
    basis = la.nullspace(A)
    ref_A = _qs_rows(A)
    assert len(basis) == len(_reference_nullspace(ref_A))
    for v in basis:
        assert all(x.is_zero() for x in _apply(ref_A, _qs_rows([v])[0]))
    if basis:
        assert len(_reference_nullspace(_qs_rows(basis))) == len(A[0]) - len(basis)
    return basis


# factors with roots off q = 0: [2], (2), q^2 + q + 1, q^2 + q and 7
FACTORS = [
    QScalar.from_terms({1: 1, -1: 1}),
    QScalar.from_terms({0: 1, 1: 1}),
    QScalar.from_terms({0: 1, 1: 1, 2: 1}),
    QScalar.from_terms({1: 1, 2: 1}),
    QScalar.from_terms({0: 7}),
]


def _laurent_entry(rng):
    """A sparse, constant or factored element of Z[q, q^-1]."""
    kind = rng.randrange(3)
    if kind == 0:
        return QScalar.from_terms({rng.randint(-3, 3): rng.randint(-4, 4) for _ in range(rng.randint(1, 3))})
    if kind == 1:
        return QScalar.from_terms({0: rng.randint(-9, 9)})
    return rng.choice(FACTORS) * QScalar.from_terms({rng.randint(-2, 2): rng.choice([-2, -1, 1, 5])})


def _random_system(rng, n, m, rank, zero_row=None, zero_col=None):
    """An n x m system B C over Z[q, q^-1] with B n x rank and C rank x m
    random, so its nullity is at least m - rank; row ``zero_row`` and column
    ``zero_col`` are zero."""
    B = [[_laurent_entry(rng) if rng.random() < 0.8 else ZERO for _ in range(rank)] for _ in range(n)]
    C = [[_laurent_entry(rng) if rng.random() < 0.8 else ZERO for _ in range(m)] for _ in range(rank)]
    A = la.mat_mul(B, C) if rank else la.zeros(n, m)
    A = [[ZERO if i == zero_row or j == zero_col else x for j, x in enumerate(r)] for i, r in enumerate(A)]
    return _laurent_rows(A)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize(
    "n,m,rank",
    [(3, 3, 3), (4, 3, 3), (3, 5, 2), (5, 5, 3), (4, 6, 2), (2, 4, 1), (3, 3, 0), (6, 4, 4)],
)
def test_nullspace_matches_reference_on_random_systems(seed, n, m, rank):
    rng = random.Random(seed * 1000 + n * 100 + m * 10 + rank)
    A = _random_system(rng, n, m, rank, *((rng.randrange(n), rng.randrange(m)) if seed % 3 == 0 else ()))
    _assert_nullspace(A)


def test_nullspace_edge_shapes():
    a, b, one, q = {1: 1, -1: 1}, {0: 1, 1: 1}, {0: 1}, {1: 1}
    # full rank: empty basis
    assert la.nullspace([[a, one], [one, b]]) == []
    # all zero: the unit vectors, the last pivot being 1
    assert la.nullspace([[{}, {}, {}]]) == [[one if j == i else {} for j in range(3)] for i in range(3)]
    # rank 1 with a zero column: nullity 3, and the zero column's unknown
    # is free, so a multiple of its unit vector is a basis vector
    aq, bq = {2: 1, 0: 1}, {1: 1, 2: 1}
    basis = _assert_nullspace([[a, {}, b, q], [aq, {}, bq, {2: 1}]])
    assert len(basis) == 3
    assert any(v[1] and not any(v[j] for j in (0, 2, 3)) for v in basis)


def test_nullspace_multiplies_no_qscalar_while_eliminating(monkeypatch):
    left, right = _vertex_family(5, "annihilating right")
    eqs = _laurent_rows(_dense_equations([qs_matrix(M) for M in left], [qs_matrix(M) for M in right]))
    calls = []
    mul = QScalar.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(QScalar, "__mul__", counting)
    basis = la.nullspace(eqs)
    # the rows and the basis are over Z[q, q^-1]: no Q(q) arithmetic at all
    assert calls == []
    monkeypatch.undo()
    assert len(basis) == len(_reference_nullspace(_qs_rows(eqs)))


def test_too_small_a_bound_is_caught_or_wrong(monkeypatch):
    # entries with coefficients far above 2 bits: two-bit digits overlap,
    # so the elimination must raise or return a basis that fails A v = 0
    big = QScalar.from_terms({0: 37, 1: -29, 2: 41})
    A = _laurent_rows([
        [big, QScalar.from_terms({1: 19, 0: 23}), ONE, ZERO],
        [QScalar.from_terms({0: 31, 3: 17}), big * big, QScalar.from_terms({2: -13}), ONE],
        [ONE, QScalar.from_terms({0: 11, 1: 7}), big, QScalar.from_terms({1: 43})],
    ])
    _assert_nullspace(A)
    monkeypatch.setattr(la, "_kronecker_bits", lambda bound: 2)
    try:
        basis = la.nullspace(A)
    except ArithmeticError:
        return
    assert len(basis) != 1 or any(not x.is_zero() for v in basis for x in _apply(_qs_rows(A), _qs_rows([v])[0]))


# -- the products against the dense loops they replaced ----------------------


def _dense_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            acc = None
            for t in range(k):
                term = A[i][t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def _dense_kron(A, B):
    nb, mb = len(B), len(B[0])
    out = [[None] * (len(A[0]) * mb) for _ in range(len(A) * nb)]
    for i in range(len(A)):
        for j in range(len(A[0])):
            for k in range(nb):
                for l in range(mb):
                    out[i * nb + k][j * mb + l] = A[i][j] * B[k][l]
    return out


def _dense_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def _dense_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


TVARS = ("t", "s")
PAIR = q_commuting_pair()


def _qscalar(rng):
    return QScalar.from_rational(rng.choice([-2, -1, 1, 3])) * QScalar.q_power(rng.randint(-2, 2)) + (
        ONE if rng.random() < 0.5 else ZERO
    )


def _timespoly(rng):
    return TimesPoly.var(TVARS, rng.choice(TVARS), _qscalar(rng), rng.randint(0, 2))


def _ncpoly(rng):
    word = [rng.choice(PAIR.gens) for _ in range(rng.randint(0, 2))]
    return NCPoly.word(PAIR, word, TVARS, _qscalar(rng)).mul_times(_timespoly(rng))


RINGS = {
    "qscalar": (_qscalar, ZERO),
    "timespoly": (_timespoly, TimesPoly.zero(TVARS)),
    "ncpoly": (_ncpoly, NCPoly.zero(PAIR, TVARS)),
}


def _sparse(rng, ring, n, m, zero_row=None, zero_col=None):
    """A seeded n x m matrix over ``ring``, about a third nonzero, with row
    ``zero_row`` and column ``zero_col`` all zero."""
    entry, zero = RINGS[ring]
    return [
        [
            entry(rng) if rng.random() < 0.35 and i != zero_row and j != zero_col else zero
            for j in range(m)
        ]
        for i in range(n)
    ]


def _assert_same(M, ref):
    assert M == ref
    for row, ref_row in zip(M, ref):
        for x, y in zip(row, ref_row):
            assert type(x) is type(y)
            if x.is_zero() and hasattr(y, "vars"):
                assert x.vars == y.vars
                assert getattr(x, "pres", None) is getattr(y, "pres", None)


SHAPES = [(1, 4, 3), (4, 1, 3), (3, 4, 1), (1, 1, 1), (4, 5, 4), (5, 3, 2)]


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n,k,m", SHAPES)
def test_products_match_dense_loops(ring, seed, n, k, m):
    rng = random.Random(seed * 1000 + n * 100 + k * 10 + m)
    A = _sparse(rng, ring, n, k, zero_row=n - 1 if n > 1 else None, zero_col=0 if k > 1 else None)
    B = _sparse(rng, ring, k, m, zero_row=k - 1 if k > 1 else None, zero_col=m - 1 if m > 1 else None)
    _assert_same(la.mat_mul(A, B), _dense_mul(A, B))
    _assert_same(la.kron(A, B), _dense_kron(A, B))
    C = _sparse(rng, ring, n, k)
    _assert_same(mat_add(A, C), _dense_add(A, C))
    _assert_same(la.mat_sub(A, C), _dense_sub(A, C))


def _nonzero_entry(rng, ring):
    x = RINGS[ring][0](rng)
    return x if not x.is_zero() else _nonzero_entry(rng, ring)


@pytest.mark.parametrize("ring", RINGS)
def test_dense_row_against_zero_column_keeps_the_ring(ring):
    # no zero entry in A: the empty sums take their zero from one product
    rng = random.Random(7)
    zero = RINGS[ring][1]
    A = [[_nonzero_entry(rng, ring) for _ in range(3)] for _ in range(2)]
    B = [[_nonzero_entry(rng, ring), zero], [zero, zero], [_nonzero_entry(rng, ring), zero]]
    _assert_same(la.mat_mul(A, B), _dense_mul(A, B))


def test_mixed_rings_match_dense_loops():
    # TimesPoly times QScalar scales; the product keeps the TimesPoly ring
    rng = random.Random(3)
    A = _sparse(rng, "timespoly", 3, 4, zero_row=2)
    B = _sparse(rng, "qscalar", 4, 3, zero_col=1)
    _assert_same(la.mat_mul(A, B), _dense_mul(A, B))
    _assert_same(la.kron(A, B), _dense_kron(A, B))
    dense = [[_nonzero_entry(rng, "timespoly") for _ in range(4)] for _ in range(2)]
    _assert_same(la.mat_mul(dense, B), _dense_mul(dense, B))
    P = _sparse(rng, "ncpoly", 2, 3, zero_row=1)
    _assert_same(la.mat_mul(P, A), _dense_mul(P, A))


def test_mixed_ring_empty_entry_is_the_products_zero():
    # a QScalar row times NCPoly columns: the empty entry is an NCPoly zero,
    # not the QScalar zero of the row
    pres = funq_sl2()
    a, zero = NCPoly.generator(pres, "a"), NCPoly.zero(pres)
    out = la.mat_mul([[ZERO, ONE]], [[a, zero], [a, zero]])
    assert out == [[a, zero]]
    assert isinstance(out[0][1], NCPoly)
    # kron's zero block likewise
    out = la.kron([[ZERO, ONE]], [[a]])
    assert out == [[zero, a]]
    assert isinstance(out[0][0], NCPoly)


def _nonzero_pairs(A, B):
    """Number of pairs A[i][t], B[t][j] with both entries nonzero."""
    return sum(
        sum(not A[i][t].is_zero() for i in range(len(A))) * sum(not b.is_zero() for b in B[t])
        for t in range(len(B))
    )


def test_mat_mul_multiplies_only_nonzero_pairs(monkeypatch):
    rep = make_rep(2)
    M = _sparse(random.Random(11), "qscalar", rep.dim, rep.dim)
    K, E, F = qs_matrix(rep.K), qs_matrix(rep.E), qs_matrix(rep.F)
    cases = [(identity(rep.dim), M), (K, E), (E, F)]
    expected = [_dense_mul(A, B) for A, B in cases]
    calls = []
    mul = QScalar.__mul__

    def counting(self, other):
        calls.append(None)
        return mul(self, other)

    monkeypatch.setattr(QScalar, "__mul__", counting)
    for (A, B), ref in zip(cases, expected):
        calls.clear()
        assert la.mat_mul(A, B) == ref
        assert len(calls) <= _nonzero_pairs(A, B)
