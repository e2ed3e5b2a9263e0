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
  The elimination is division-free until solution extraction
  (cross-multiplication style), with pivots chosen by a complexity score,
  which keeps rational-function entries from swelling.
* :func:`nilpotent_exp` sums I + sum_m w_m A^m for a nilpotent A; it serves
  the q-exponentials and the factorized group-like element.
"""

from __future__ import annotations

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


def _complexity(x: QScalar):
    if x.is_zero():
        return (1 << 30, 0)
    deg = (max(x.nc) if x.nc else 0) + (max(x.dc) if x.dc else 0)
    return (len(x.nc) + len(x.dc), deg)


def nullspace(A):
    """Exact nullspace basis of a QScalar matrix (columns = unknowns).

    Division-free Gauss-Jordan elimination with complexity-scored pivoting;
    back-substitution over the field at the end.  Returns a list of basis
    vectors (lists of QScalar).
    """
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
    free_cols = [j for j in range(ncols) if j not in pivot_of_col]
    basis = []
    # rows are fully eliminated against each other, so each pivot row relates
    # its pivot column only to free columns
    for fc in free_cols:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for pj, pi in pivot_of_col.items():
            prow = rows[pi]
            if not prow[fc].is_zero():
                vec[pj] = -prow[fc] / prow[pj]
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
