"""Finite Toda lattice tau functions as principal minors.

For an invertible rational matrix g of size n+1 the tau functions in the
first times x = x_1 and u = u_1 are the leading principal minors

    tau_k(x, u) = det [ exp(x I_1) g exp(u I_1^T) ]_{k x k},

I_1 the upper shift matrix (ones on the superdiagonal); ``toda_tau_all``
returns tau_0 = 1, ..., tau_{n+1} = det g.  They satisfy the Toda-molecule
bilinear identity

    tau_k d_x d_u tau_k - d_x tau_k d_u tau_k = tau_{k+1} tau_{k-1},

which is the Desnanot-Jacobi determinant identity in disguise: the mixed
derivative of an entry shifts its row and column index down by one, so each
derivative of a minor is itself a bordered minor.  Both formulations are
computed and compared; that cross-check is the oracle for the identity.

The minors are computed over the integers.  The flow matrix A is read off g
term by term; with c the lcm of its coefficient denominators, cA has integer
polynomial entries, stored as {packed monomial: int} dicts.  A packed
monomial holds the exponent tuple in one int of fixed-width bit fields, the
width taken from the instance's degree bound, so adding two packed monomials
multiplies them.  One table holds every row-prefix minor

    D[cols] = det (cA)[:r, cols],   r = len(cols),

each a Laplace expansion of row r-1 over the (r-1)-layer.  Every quantity is
read off it: the leading minors c^k tau_k, d_u tau_k = D[0..k-2, k], and
d_x tau_k and d_x d_u tau_k as one expansion each of row k over the
(k-1)-layer.  A k x k minor of cA is c^k times the same minor of A, so each
side of the identity at k scales by c^(2k) and the integer residual is zero
exactly when the rational one is; tau_k is divided by c^k once, on return.
(Bareiss elimination would give the leading minors alone and needs exact
division of bivariate polynomials; the table gives the bordered minors too.)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from ._kernels import _addmul, _pack, _trim, _unpack
from .ncalg import TimesPoly
from .qscalar import qs
from .report import VerificationReport

# the two times: x flows the rows, u the columns
_VARS = ("x", "u")


@dataclass(frozen=True)
class TodaInstance:
    size: int
    g: tuple  # tuple of tuples of Fraction

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        size = len(rows)
        if size == 0:
            raise ValueError("g must not be empty")
        if any(len(r) != size for r in rows):
            raise ValueError("g must be square")
        inst = cls(size=size, g=rows)
        if inst.det_g() == 0:
            raise ValueError("g must be invertible")
        return inst

    @classmethod
    def random(cls, rng, size):
        """A random invertible g; singular draws are redrawn."""
        if size < 1:
            raise ValueError(f"size must be at least 1, got {size}")
        while True:
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(size)]
                for _ in range(size)
            ]
            try:
                return cls.from_rows(rows)
            except ValueError:
                continue

    def det_g(self):
        return _det_fraction([list(r) for r in self.g])


def _det_fraction(m):
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] * inv
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


# ---------------------------------------------------------------------------
# integer polynomials with packed monomials: {packed exponents: int}
# ---------------------------------------------------------------------------


def _pmul(a, b):
    return _trim(_addmul({}, a, b))


def _pderiv(p, idx, width):
    """Partial derivative in variable ``idx``."""
    shift = idx * width
    mask = (1 << width) - 1
    one = 1 << shift
    out = {}
    for m, c in p.items():
        e = (m >> shift) & mask
        if e:
            out[m - one] = c * e
    return out


def _integer_flow(inst):
    """(width, c, cA): the flow matrix A = exp(x I_1) g exp(u I_1^T), c the
    lcm of its coefficient denominators and cA as packed integer polynomials.

    A[i][k] = sum over a >= i, b >= k of g[a][b] x^(a-i) u^(b-k) / ((a-i)! (b-k)!),
    one monomial per (a, b), so A is read off g term by term."""
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
    # a minor takes one entry from each row, so no exponent in a minor of A
    # exceeds the sum over rows of the row's largest exponent, and none in a
    # product of two minors exceeds twice that
    bound = sum(max((e for p in row for m in p for e in m), default=0) for row in A)
    width = max(1, (2 * bound).bit_length())
    cA = [[{_pack(m, width): int(f * c) for m, f in p.items()} for p in row] for row in A]
    return width, c, cA


def _expand(row, mask, D):
    """Laplace expansion along ``row``, placed below the rows of D's
    (r-1)-layer, on the r columns set in ``mask``: sum over those columns of
    +-row[col] * D[mask without col]."""
    acc = {}
    sign = 1 if mask.bit_count() % 2 else -1  # (-1)^(r-1) at the first column
    col = 0
    rest = mask
    while rest:
        if rest & 1:
            entry = row[col]
            if entry:
                _addmul(acc, entry, D[mask ^ (1 << col)], sign)
            sign = -sign
        rest >>= 1
        col += 1
    return _trim(acc)


def _tp_det(M):
    """The row-prefix minor table of a square integer-polynomial matrix:
    D[mask] = det M[:r, cols], with cols the r columns set in mask.  Each
    entry expands its last row over the (r-1)-layer, n 2^(n-1) entry products
    in all.  D[0] = 1 and D[2^k - 1] is the leading k x k minor."""
    n = len(M)
    D = [None] * (1 << n)
    D[0] = {0: 1}
    for mask in range(1, 1 << n):
        D[mask] = _expand(M[mask.bit_count() - 1], mask, D)
    return D


def _lead(k):
    """Mask of the columns 0..k-1."""
    return (1 << k) - 1


def _to_times(p, vars, width, scale):
    """The packed integer polynomial p / scale as a TimesPoly over Q."""
    n = len(vars)
    return TimesPoly(vars, {_unpack(m, n, width): qs(Fraction(v, scale)) for m, v in p.items()})


def toda_tau_all(inst):
    """[tau_0, ..., tau_size]: tau_k is the leading k x k minor, tau_0 = 1."""
    width, c, cA = _integer_flow(inst)
    D = _tp_det(cA)
    return [_to_times(D[_lead(k)], _VARS, width, c**k) for k in range(inst.size + 1)]


def verify_toda_bilinear(inst):
    """tau_k d_x d_u tau_k - d_x tau_k d_u tau_k = tau_{k+1} tau_{k-1} for
    every interior k, plus the equivalent determinant (Desnanot-Jacobi)
    formulation of the derivative minors as a cross-check.  Both run on the
    minors of cA, which scale every term of the identity by c^(2k)."""
    if inst.size < 2:
        raise ValueError("the bilinear identity needs size >= 2 (no interior k below)")
    details = []
    width, _c, cA = _integer_flow(inst)
    D = _tp_det(cA)
    for k in range(1, inst.size):
        tk = D[_lead(k)]
        dx = _pderiv(tk, 0, width)
        du = _pderiv(tk, 1, width)
        dxu = _pderiv(dx, 1, width)
        bilinear = _trim(_addmul(_addmul({}, tk, dxu), dx, du, -1))
        target = _pmul(D[_lead(k + 1)], D[_lead(k - 1)])
        if bilinear != target:
            fitted = _fit_constant(bilinear, target)
            details.append(
                f"k={k}: residual nonzero"
                + (f", fitted constant {fitted}" if fitted is not None else "")
            )
        # derivative minors vs bordered determinant minors: differentiating
        # an entry shifts its row (d_x) or column (d_u) index by one, so
        # each derivative of tau_k is a single minor of the (k+1)-block:
        # rows 0..k-2 and k (d_x) or columns 0..k-2 and k (d_u)
        bordered = _lead(k - 1) | (1 << k)
        if dx != _expand(cA[k], _lead(k), D):
            details.append(f"k={k}: d_x tau_k != bordered minor")
        if du != D[bordered]:
            details.append(f"k={k}: d_u tau_k != bordered minor")
        if dxu != _expand(cA[k], bordered, D):
            details.append(f"k={k}: d_x d_u tau_k != inner minor")
    return VerificationReport.from_failures(details, params={"size": inst.size})


def _fit_constant(bilinear, target):
    """Ratio c when bilinear = c * target (packed integer polynomials); None
    otherwise.  The ratio is the same as for the minors of A."""
    if not target:
        return None
    mono = min(target)
    num = bilinear.get(mono)
    if num is None:
        return None
    c = Fraction(num, target[mono])
    fits = bilinear.keys() == target.keys() and all(
        v * c.denominator == target[m] * c.numerator for m, v in bilinear.items()
    )
    return c if fits else None
