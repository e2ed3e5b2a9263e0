"""Small exact-matrix helpers over QScalar (and any ring with +, *, -).

Matrices are plain lists of lists.  The elimination routines are
division-free until solution extraction (cross-multiplication style) with
pivots chosen by a complexity score, which keeps rational-function entries
from swelling on the small systems solved here (intertwiner solves,
tensor-block projections).
"""

from __future__ import annotations

from .qscalar import ONE, QScalar, ZERO


def mat(rows):
    return [list(r) for r in rows]


def zeros(n, m, zero=ZERO):
    return [[zero for _ in range(m)] for _ in range(n)]


def identity(n, one=ONE, zero=ZERO):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_neg(A):
    return [[-a for a in r] for r in A]


def mat_scale(A, c):
    return [[a * c for a in r] for r in A]


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        row = []
        Ai = A[i]
        for j in range(m):
            acc = None
            for t in range(k):
                term = Ai[t] * B[t][j]
                acc = term if acc is None else acc + term
            row.append(acc)
        out.append(row)
    return out


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def kron(A, B):
    na, ma = len(A), len(A[0])
    nb, mb = len(B), len(B[0])
    out = zeros(na * nb, ma * mb, zero=None)
    for i in range(na):
        for j in range(ma):
            for k in range(nb):
                for l in range(mb):
                    out[i * nb + k][j * mb + l] = A[i][j] * B[k][l]
    return out


def mat_is_zero(A):
    return all(x.is_zero() for r in A for x in r)


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def _complexity(x: QScalar):
    if x.is_zero():
        return (1 << 30, 0)
    deg = (max(x.nc) if x.nc else 0) + (max(x.dc) if x.dc else 0)
    return (len(x.nc) + len(x.dc), deg)


def _eliminate(rows, ncols):
    """Division-free Gauss-Jordan elimination of ``rows`` in place.

    Pivots come from the first ``ncols`` columns, chosen by complexity
    score; updates cover the whole row, so trailing (augmented) columns are
    carried along.  Returns {pivot column: pivot row}.
    """
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
            for j in range(len(row)):
                row[j] = row[j] * pval - prow[j] * f
    return pivot_of_col


def nullspace(A):
    """Exact nullspace basis of a QScalar matrix (columns = unknowns).

    Division-free forward elimination with complexity-scored pivoting;
    back-substitution over the field at the end.  Returns a list of basis
    vectors (lists of QScalar).
    """
    if not A:
        return []
    rows = [list(r) for r in A]
    ncols = len(rows[0])
    pivot_of_col = _eliminate(rows, ncols)
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


def solve_exact(A, b):
    """Solve A x = b exactly; raises ValueError if inconsistent or undetermined."""
    ncols = len(A[0])
    rows = [list(r) + [bv] for r, bv in zip(A, b)]
    aug = ncols  # augmented column index
    pivot_of_col = _eliminate(rows, ncols)
    used_rows = set(pivot_of_col.values())
    for i, row in enumerate(rows):
        if i not in used_rows and not row[aug].is_zero():
            raise ValueError("inconsistent linear system")
    if len(pivot_of_col) < ncols:
        raise ValueError("underdetermined linear system")
    x = [ZERO] * ncols
    for pj, pi in pivot_of_col.items():
        x[pj] = rows[pi][aug] / rows[pi][pj]
    return x
