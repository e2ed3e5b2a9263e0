"""Small exact-matrix helpers over QScalar (and any ring with +, *, -).

Matrices are plain lists of lists.  The products cost in proportion to the
nonzero entries: :func:`mat_mul` forms A[i][t] B[t][j] only where both
factors are nonzero, :func:`kron` gives a zero block for a zero entry of A
without multiplying, and :func:`mat_add` / :func:`mat_sub` pass the left
entry through where the right one is zero.  Zero means the exact
``is_zero()``.  A :func:`mat_mul` entry with no nonzero term is the zero of
the product's ring, as a dense sum would give it: a TimesPoly zero keeps its
``vars`` and an NCPoly zero its presentation, also beside a QScalar factor.

Besides the entrywise helpers the module is the one home of two
constructions every other module uses:

* :func:`intertwiner` solves L_x M = M R_x for x = e, f, k by one
  nullspace; it serves the vertex operators and the tensor projections.
  An intertwiner commutes with k, so with k diagonal it only links vectors
  of equal weight: the unknowns are the entries of M indexed by equal
  weights, and only the e and f equations are assembled over them.
  :func:`nullspace` runs over Z[q]: each row is cleared of denominators
  and packed as its values at q = 2^B, and fraction-free Gauss-Jordan
  elimination works on those ints (see its docstring for the bound on B).
* :func:`nilpotent_exp` sums I + sum_m w_m A^m for a nilpotent A; it serves
  the factorized group-like element.

The ``lau_*`` helpers are the same products over Z[q, q^-1], on Laurent
matrices of {q-exponent: int} entries; :func:`lau_cleared` clears QScalar
matrices to them by one scale.  The Hopf and vertex relations run on them.
"""

from __future__ import annotations

from math import lcm, prod

from ._kernels import _addmul, _decode, _encode, _kronecker_bits, _trim, ipoly_divexact, ipoly_gcd, ipoly_mul
from .qscalar import ONE, QScalar, ZERO


class ConventionError(RuntimeError):
    """An intertwiner solution space had dimension != 1."""


class NonNilpotentError(ValueError):
    """A nilpotent exponential was handed a matrix that is not nilpotent."""


def zeros(n, m, zero=ZERO):
    return [[zero for _ in range(m)] for _ in range(n)]


def identity(n, one=ONE, zero=ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(A, B):
    return [[a if b.is_zero() else a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a if b.is_zero() else a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(A):
    return [[-a for a in r] for r in A]


def mat_scale(A, c):
    return [[a * c for a in r] for r in A]


def mat_mul(A, B):
    """A B with one product per pair of nonzero entries A[i][t], B[t][j];
    each entry sums its products in increasing t."""
    m = len(B[0])
    B_nonzero = [[(j, b) for j, b in enumerate(row) if not b.is_zero()] for row in B]
    zero = None
    out = []
    for Ai in A:
        acc = {}
        for t, a in enumerate(Ai):
            if a.is_zero():
                continue
            for j, b in B_nonzero[t]:
                term = a * b
                acc[j] = acc[j] + term if j in acc else term
        if len(acc) < m and zero is None:
            # an entry j with no nonzero term has A[i][0] or B[0][j] zero
            a, b = Ai[0], B[0][next(j for j in range(m) if j not in acc)]
            zero = (a if a.is_zero() else b) if type(a) is type(b) else a * b
        out.append([acc.get(j, zero) for j in range(m)])
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def kron(A, B):
    out = []
    for Ai in A:
        blocks = [(a, a.is_zero()) for a in Ai]
        for Bk in B:
            row = []
            for a, a_zero in blocks:
                # a zero block takes mat_mul's zero: a itself within one ring
                row.extend(a if a_zero and type(a) is type(b) else a * b for b in Bk)
            out.append(row)
    return out


def mat_is_zero(A):
    return all(x.is_zero() for r in A for x in r)


def _integral_row(row):
    """(scale, cleared): ``cleared`` is the QScalar row times ``scale`` over
    Z[q, q^-1], as {column: Laurent polynomial} on its nonzero entries ({}
    for a zero row), and ``scale`` ({q-exponent: int}, nonzero) is the lcm
    of the row's rational denominators times the lcm of its denominators'
    parts prime to q; the q^-k of each denominator goes into the entry's
    Laurent exponents."""
    entries = []
    den, L = 1, {0: 1}
    for j, x in enumerate(row):
        if x.is_zero():
            continue
        k = min(x.dc)
        d = {e - k: c for e, c in x.dc.items()} if k else x.dc
        if len(d) > 1 and d != L:
            L = ipoly_mul(L, ipoly_divexact(d, ipoly_gcd(L, d)))
        den = lcm(den, x.sd)
        entries.append((j, x, k, d))
    out = {}
    for j, x, k, d in entries:
        c = x.sn * (den // x.sd)
        p = {e - k: c * v for e, v in x.nc.items()}
        out[j] = p if d == L else ipoly_mul(p, ipoly_divexact(L, d))
    return {e: den * c for e, c in L.items()}, out


def nullspace(A):
    """Exact nullspace basis of a QScalar matrix (columns = unknowns): one
    list of QScalar per free column, with 1 there and 0 in the other free
    columns.

    Scaling a row by a nonzero element of Q(q) keeps the nullspace, so each
    row is made integral (``_integral_row``), shifted to lowest exponent 0
    and packed as its value at q = 2^B (``_kernels._encode``).
    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968;
    Nakos, Turner and Williams, SIGSAM Bull. 31, 1997), pivoting on the
    smallest |value| left, sets each entry a of every row but the pivot row
    to (a p - b f) / prev: p the pivot, f the row's entry in the pivot
    column, b the pivot row's entry in a's column, prev the previous pivot.
    By Sylvester's identity every entry is then, up to sign, a minor of the
    integral matrix, and every pivot row holds the last pivot in its pivot
    column.

    The bound: a minor is a signed sum of products of one entry per row,
    and the l1 norm (the sum of |coefficient|) is subadditive and
    submultiplicative, so its l1 norm is at most the product of its rows'
    l1 norms.  A minor has at most ncols rows and a nonzero row has l1 norm
    >= 1, so the product of the ncols largest row l1 norms bounds every
    coefficient of every minor; ``_kronecker_bits`` puts B one bit above
    it.  A polynomial in Z[q] with coefficients below 2^(B-1) in absolute
    value is zero exactly when its value at 2^B is, and its balanced base
    2^B digits are its coefficients, so the zero tests are exact and the
    pivot rows decode.  The products a p and b f need no bound: evaluation
    at 2^B is a ring homomorphism Z[q] -> Z and prev divides a p - b f in
    Z[q], so its nonzero value divides the integer; a remainder raises
    ArithmeticError.  The basis entry in pivot column j is minus the pivot
    row's entry in the free column over the last pivot.
    """
    if not A:
        return []
    ncols = len(A[0])
    rows = [r for _, r in map(_integral_row, A) if r]
    l1 = sorted((sum(abs(c) for p in r.values() for c in p.values()) for r in rows), reverse=True)
    bits = _kronecker_bits(prod(l1[:ncols]))
    rest = []
    for r in rows:
        low = min(min(p) for p in r.values())
        rest.append({j: _encode(p, bits, low) for j, p in r.items()})
    pivots = []
    prev = 1
    while rest:
        _, pi, pj = min((abs(v), i, j) for i, r in enumerate(rest) for j, v in r.items())
        prow = rest.pop(pi)
        p = prow[pj]

        def step(row):
            f = row.get(pj, 0)
            out = {}
            for j in (row.keys() | prow.keys()) if f else row:
                v, rem = divmod(p * row.get(j, 0) - f * prow.get(j, 0), prev)
                if rem:
                    raise ArithmeticError("inexact fraction-free division")
                if v:
                    out[j] = v
            return out

        # a non-pivot row left zero stays zero
        rest = [r for r in map(step, rest) if r]
        pivots = [(step(r), j) for r, j in pivots] + [(prow, pj)]
        prev = p

    def decode(v):
        return QScalar.from_terms(_decode(v, bits, 0))

    scale = -decode(prev).inv()
    pivot_cols = {j for _, j in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, j in pivots:
            if fc in r:
                vec[j] = decode(r[fc]) * scale
        basis.append(vec)
    return basis


def intertwiner(left, right):
    """The matrix M, up to scale, with  left(x) M = M right(x)  for x = e, f, k,
    each action given as its (e, f, k) matrices.

    Both k matrices must be diagonal (ValueError otherwise).  The k equation
    (k_i - k_j) M[i][j] = 0 then zeroes every entry whose two weights differ,
    so the unknowns are only the entries M[i][j] with left k[i][i] equal to
    right k[j][j], numbered in row-major order, and only the e and f
    equations are assembled over them; the k equation holds by construction.
    Every other entry of M is zero.
    Raises ConventionError unless the nullspace is exactly one-dimensional.
    """
    (Le, Lf, Lk), (Re, Rf, Rk) = left, right
    rows, cols = len(Lk), len(Rk)
    for K in (Lk, Rk):
        if any(not x.is_zero() for i, r in enumerate(K) for t, x in enumerate(r) if t != i):
            raise ValueError("intertwiner needs a diagonal k in both actions")
    unknown = {}
    for i in range(rows):
        for j in range(cols):
            if Lk[i][i] == Rk[j][j]:
                unknown[i, j] = len(unknown)
    eqs = []
    for L, R in ((Le, Re), (Lf, Rf)):
        # (L M - M R)[i][j] = sum_t L[i][t] M[t][j] - sum_t M[i][t] R[t][j]
        for i in range(rows):
            for j in range(cols):
                row = [ZERO] * len(unknown)
                for t in range(rows):
                    u = unknown.get((t, j))
                    if u is not None and not L[i][t].is_zero():
                        row[u] = row[u] + L[i][t]
                for t in range(cols):
                    u = unknown.get((i, t))
                    if u is not None and not R[t][j].is_zero():
                        row[u] = row[u] - R[t][j]
                if any(not v.is_zero() for v in row):
                    eqs.append(row)
    # two 1 x 1 trivial actions give no nonzero equation on their one unknown
    basis = nullspace(eqs or [[ZERO] * len(unknown)])
    if len(basis) != 1:
        raise ConventionError(
            f"intertwiner solution space has dimension {len(basis)}, expected 1"
        )
    vec = basis[0]
    M = zeros(rows, cols)
    for (i, j), u in unknown.items():
        M[i][j] = vec[u]
    return M


def nilpotent_exp(A, weight, one, zero):
    """I + sum_{m >= 1} weight(m) * A^m for a nilpotent square matrix A.

    ``one`` and ``zero`` are the entries of I in the ring of the result, and
    ``weight(m)`` multiplies the entries of A^m from the left.  The sum stops
    at the first vanishing power; NonNilpotentError is raised if A^dim != 0,
    because the series would not terminate.
    """
    n = len(A)
    out = identity(n, one, zero)
    power = A
    for m in range(1, n + 1):
        if mat_is_zero(power):
            return out
        if m == n:
            raise NonNilpotentError("matrix is not nilpotent; the exponential would not terminate")
        w = weight(m)
        for i, row in enumerate(power):
            for j, x in enumerate(row):
                if not x.is_zero():
                    out[i][j] = out[i][j] + w * x
        power = mat_mul(power, A)
    return out


# -- matrices over Z[q, q^-1] -------------------------------------------------
#
# A Laurent matrix is a list of rows {column: {q-exponent: int}} with zero
# entries absent.  Entries multiply by ``_kernels._addmul`` (the
# one-variable case of its packed monomials), which may leave cancelled
# terms as zero coefficients, so the zero test reads the coefficients and
# needs no bound.

LAU_ONE = {0: 1}


def lau_neg(p):
    return {e: -c for e, c in p.items()}


def lau_poly_mul(a, b):
    return _trim(_addmul({}, a, b))


def lau_matrix(A):
    """The Laurent matrix of a QScalar matrix whose entries lie in Z[q, q^-1]."""
    return [{j: x.as_laurent() for j, x in enumerate(row) if not x.is_zero()} for row in A]


def lau_cleared(mats):
    """(scale, views): the QScalar matrices ``mats`` times one nonzero
    scale, the lcm of their denominators (``_integral_row`` of all their
    entries as one row), as Laurent matrices."""
    scale, cleared = _integral_row([x for M in mats for row in M for x in row])
    views, k = [], 0
    for M in mats:
        view = []
        for row in M:
            view.append({j: cleared[k + j] for j in range(len(row)) if k + j in cleared})
            k += len(row)
        views.append(view)
    return scale, views


def lau_identity(n):
    return [{i: LAU_ONE} for i in range(n)]


def lau_mul(A, B):
    """A B, one ``_addmul`` per pair of nonzero entries A[i][t], B[t][j]."""
    out = []
    for row in A:
        acc = {}
        for t, a in row.items():
            for j, b in B[t].items():
                p = acc.get(j)
                if p is None:
                    p = acc[j] = {}
                _addmul(p, a, b)
        out.append(acc)
    return out


def lau_kron(A, B):
    """A ox B for square Laurent matrices."""
    nb = len(B)
    return [
        {i * nb + k: _addmul({}, a, b) for i, a in ra.items() for k, b in rb.items()}
        for ra in A for rb in B
    ]


def lau_lin(terms):
    """sum c M over the pairs (c, M) of ``terms`` (at least one): c a Laurent
    polynomial, M a Laurent matrix, all M of one shape."""
    out = None
    for c, M in terms:
        if out is None:
            out = [{} for _ in M]
        for acc, row in zip(out, M):
            for j, p in row.items():
                q = acc.get(j)
                if q is None:
                    q = acc[j] = {}
                _addmul(q, p, c)
    return out


def lau_is_zero(M):
    return not any(c for row in M for p in row.values() for c in p.values())
