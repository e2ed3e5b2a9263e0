"""Exact matrices over Z[q, q^-1], the one matrix form of the U_q(sl2) layer.

A Laurent matrix is a list of rows {column: {q-exponent: int}} with zero
entries absent; the representations, their tensor products, the antipode
tables, the intertwiners and the embeddings are Laurent matrices, and no
other matrix form is kept.  Entries multiply by ``_kernels._addmul`` (the
one-variable case of its packed monomials), which may leave cancelled
terms as zero coefficients, so the zero test reads the coefficients and
needs no bound.

* :func:`intertwiner` solves L_x M = M R_x for x = e, f, k by one
  nullspace; it serves the vertex operators and the tensor projections.
  An intertwiner commutes with k, so with k diagonal it only links vectors
  of equal weight: the unknowns are the entries of M indexed by equal
  weights, and only the e and f equations are assembled over them.
  :func:`nullspace` runs over Z[q]: each row is shifted to lowest exponent
  0 and packed as its values at q = 2^B, and fraction-free Gauss-Jordan
  elimination works on those ints (see its docstring for the bound on B).
  Both return their solutions undivided, over Z[q, q^-1].
* :func:`lau_divided` is where Q(q) enters: it divides a Laurent matrix by
  one nonzero entry into a QScalar matrix, for the public views.
"""

from __future__ import annotations

from math import prod

from ._kernels import _LAURENT_ONE, _addmul, _decode, _encode, _kronecker_bits
from .qscalar import QScalar, ZERO


class ConventionError(RuntimeError):
    """An intertwiner solution space had dimension != 1."""


def nullspace(A):
    """Nullspace basis over Z[q, q^-1] of a matrix of Laurent polynomials
    (columns = unknowns), given as a list of rows with one {q-exponent: int}
    entry per column ({} for zero): one list of Laurent entries per free
    column, holding the last pivot there and 0 in the other free columns.

    Scaling a row by a power of q keeps the nullspace, so each row is
    shifted to lowest exponent 0 and packed as its value at q = 2^B
    (``_kernels._encode``).  Fraction-free Gauss-Jordan elimination
    (Bareiss, Math. Comp. 22, 1968; Nakos, Turner and Williams, SIGSAM
    Bull. 31, 1997), pivoting on the smallest |value| left, sets each entry
    a of every row but the pivot row to (a p - b f) / prev: p the pivot, f
    the row's entry in the pivot column, b the pivot row's entry in a's
    column, prev the previous pivot.  By Sylvester's identity every entry
    is then, up to sign, a minor of the shifted matrix, and every pivot row
    holds the last pivot in its pivot column.

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
    ArithmeticError.  The basis vector of free column c is the last pivot
    in column c and minus the pivot row's entry in column c in each pivot
    column: the Q(q) solution with 1 in column c, times the last pivot.
    """
    if not A:
        return []
    ncols = len(A[0])
    rows = [{j: p for j, p in enumerate(r) if p} for r in A]
    rows = [r for r in rows if r]
    l1 = sorted((sum(abs(c) for p in r.values() for c in p.values()) for r in rows), reverse=True)
    bits = _kronecker_bits(prod(l1[:ncols]))
    rest = []
    for r in rows:
        low = min(min(p) for p in r.values())
        packed = {j: v for j, v in ((j, _encode(p, bits, low)) for j, p in r.items()) if v}
        if packed:
            rest.append(packed)
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

    last = _decode(prev, bits, 0)
    pivot_cols = {j for _, j in pivots}
    basis = []
    for fc in range(ncols):
        if fc in pivot_cols:
            continue
        vec = [{}] * ncols
        vec[fc] = last
        for r, j in pivots:
            if fc in r:
                vec[j] = _decode(-r[fc], bits, 0)
        basis.append(vec)
    return basis


def intertwiner(left, right):
    """The matrix M over Z[q, q^-1], up to scale, with
    left(x) M = M right(x)  for x = e, f, k, each action given as its
    (e, f, k) Laurent matrices: the undivided ``nullspace`` solution.

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
        if any(t != i for i, r in enumerate(K) for t in r):
            raise ValueError("intertwiner needs a diagonal k in both actions")
    unknown = {}
    for i in range(rows):
        for j in range(cols):
            if Lk[i][i] == Rk[j][j]:
                unknown[i, j] = len(unknown)
    n = len(unknown)
    eqs = []
    for L, R in ((Le, Re), (Lf, Rf)):
        R_T = lau_transpose(R)
        # (L M - M R)[i][j] = sum_t L[i][t] M[t][j] - sum_t M[i][t] R[t][j]
        for i in range(rows):
            for j in range(cols):
                acc = {}
                for t, p in L[i].items():
                    u = unknown.get((t, j))
                    if u is not None:
                        _addmul(acc.setdefault(u, {}), p, _LAURENT_ONE)
                for t, p in R_T[j].items():
                    u = unknown.get((i, t))
                    if u is not None:
                        _addmul(acc.setdefault(u, {}), p, _LAURENT_ONE, -1)
                if acc:
                    eqs.append([acc.get(u, {}) for u in range(n)])
    # two 1 x 1 trivial actions give no nonzero equation on their one unknown
    basis = nullspace(eqs or [[{}] * n])
    if len(basis) != 1:
        raise ConventionError(
            f"intertwiner solution space has dimension {len(basis)}, expected 1"
        )
    vec = basis[0]
    M = [{} for _ in range(rows)]
    for (i, j), u in unknown.items():
        if vec[u]:
            M[i][j] = vec[u]
    return M


def lau_divided(M, ncols, den):
    """The Laurent matrix M of ``ncols`` columns divided by the nonzero
    Laurent polynomial ``den``, as a dense QScalar matrix."""
    inv = QScalar.from_terms(den).inv()
    return [[QScalar.from_terms(row[j]) * inv if j in row else ZERO for j in range(ncols)] for row in M]


def lau_neg(p):
    return {e: -c for e, c in p.items()}


def lau_identity(n):
    return [{i: _LAURENT_ONE} for i in range(n)]


def lau_transpose(M):
    """The transpose of a square Laurent matrix."""
    out = [{} for _ in M]
    for i, row in enumerate(M):
        for j, p in row.items():
            out[j][i] = p
    return out


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
