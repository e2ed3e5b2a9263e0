"""Finite Toda lattice tau functions as matrix elements of Lambda^k g.

For an invertible rational matrix g of size n the tau functions in the
first times x = x_1 and u = u_1 are the leading principal minors

    tau_k(x, u) = det [ exp(x I_1) g exp(u I_1^T) ]_{k x k},

I_1 the upper shift matrix (ones on the superdiagonal); ``toda_tau_all``
returns tau_0 = 1, ..., tau_n = det g.  In the fundamental representations
of sl_n, tau_k = <w_k| e^(xE) Lambda^k(g) e^(uF) |w_k> (Kostant 1979).

Only the rows are flowed.  With L the lcm of the denominators of g, G = L g
and N(x) = (n-1)! exp(x I_1) (entry (i, s) is (n-1)!/(s-i)! x^(s-i)), the
half-flowed matrix P(x) = N(x) G has integer polynomial entries, and
Cauchy-Binet over the k-subsets T of the columns gives

    c^k tau_k = sum_T det P[:k, T] det N[:k, T] u^(sum T - k(k-1)/2),

c = ((n-1)!)^2 L: det exp(u I_1)[:k, T] is u^(sum T - k(k-1)/2) times
det exp(I_1)[:k, T], and a k x k minor of N = N(1) is ((n-1)!)^k times that
of exp(I_1).  The minors det P[:k, T] form one row-prefix table D of P and
the weights one of N (``_tp_det``): 2^n entries each, every entry a Laplace
expansion of its last row over the layer below.  tau_k is one sum of D
entries per u-degree; it is divided by c^k once, on return.

Each entry of P is packed as its value at x = 2^B (``_kernels._encode``), so
D is a table of ints, and each per-u-degree sum is decoded once
(``_kernels._decode``).  B comes from an l1 bound on every coefficient so
decoded.  Such a sum is sum_T w_T m_T, m_T the minor of P on some k rows R
and columns T, so its coefficients are at most sum_T |w_T| l1(m_T).  A minor
is a signed sum over the bijections s: R -> T of prod_{i in R} P[i, s(i)],
and the l1 norm of a product is at most the product of the norms, so l1(m_T)
is at most prod_{i in R} |P_i|, |P_i| = sum_j l1(P[i, j]) the l1 norm of row
i: the bijections are among the maps f from R to the columns, and the
products prod_{i in R} l1(P[i, f(i)]) over all maps sum to exactly that
product of row norms.  P is invertible, so no row is zero and every |P_i| is
at least 1: the product over R is at most the product over all n rows.
Every coefficient is therefore at most W prod_i |P_i|, W the largest
sum_T |w_T| of the sums taken, and with B from ``_kronecker_bits`` of that
bound it is one balanced base-2^B digit.

They satisfy the Toda-molecule bilinear identity

    tau_k d_x d_u tau_k - d_x tau_k d_u tau_k = tau_{k+1} tau_{k-1},

which is the Desnanot-Jacobi determinant identity in disguise:
d_x exp(x I_1) = I_1 exp(x I_1) replaces row i of the flow matrix by row
i+1, so d_x tau_k is the bordered minor on rows {0..k-2, k}, d_u tau_k the
one on columns {0..k-2, k} and d_x d_u tau_k the inner minor on both.  The
check builds these from the same two tables: row k of P expanded over the
(k-1)-layer of D gives det P[{0..k-2, k}, T], and row k of N expanded over
its table gives the weights det N[{0..k-2, k}, T], one u-degree lower.  It
compares them with the derivatives of tau_k.  Both sides of the identity at
k are products of two k-minors, scaled by c^(2k), so the integer residual is
zero exactly when the rational one is.

The identity is decided by one integer equation per k.  Each factor
p(x, u) is packed as p(q, q^X) at q = 2^B (``_kernels._encode``).  X is one
more than the largest x-degree of the three products, so q^(a + X b) names
x^a u^b alone and the substitution keeps the coefficients of every product
and of the residual.  A product's l1 norm is at most the product of its
factors' norms, so every coefficient of the residual, and of either side,
is at most the sum over the three products ab of l1(a) l1(b).  With B from
``_kronecker_bits`` of that sum each such coefficient is one balanced
base-2^B digit: the residual packs to 0 only if it is the zero polynomial,
and on a failure each side decodes exactly (``_kernels._decode``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod

from ._kernels import _decode, _encode, _kronecker_bits
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
        if not _tp_det(_integer_rows(rows)[1])[-1]:
            raise ValueError("g must be invertible")
        return cls(size=size, g=rows)

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


def _integer_rows(g):
    """(L, G): L the lcm of the denominators of the rational matrix g and
    G = L g, an integer matrix, singular exactly when g is."""
    L = lcm(*(f.denominator for row in g for f in row))
    return L, [[int(f * L) for f in row] for row in g]


def _expand(row, mask, D):
    """Laplace expansion along ``row``, placed below the rows behind the
    (r-1)-layer of D, on the r columns set in ``mask``: the sum over those
    columns of +-row[col] * D[mask without col]."""
    acc = 0
    sign = 1 if mask.bit_count() % 2 else -1  # (-1)^(r-1) at the first column
    col = 0
    rest = mask
    while rest:
        if rest & 1:
            if row[col]:
                acc += sign * row[col] * D[mask ^ (1 << col)]
            sign = -sign
        rest >>= 1
        col += 1
    return acc


def _tp_det(M):
    """The row-prefix minor table of a square integer matrix:
    D[mask] = det M[:r, cols], with cols the r columns set in mask, each
    entry its last row expanded over the (r-1)-layer.  D[0] = 1."""
    D = [1] * (1 << len(M))
    for mask in range(1, len(D)):
        D[mask] = _expand(M[mask.bit_count() - 1], mask, D)
    return D


def _by_u_degree(minors, weights, bits):
    """sum over T of minors[T] w as {(x-degree, u-degree): int}, ``weights``
    mapping T to (u-degree, w) and each minor packed at x = 2^bits: one
    decode per u-degree."""
    sums = {}
    for T, (b, w) in weights.items():
        sums[b] = sums.get(b, 0) + w * minors[T]
    return {(a, b): v for b, s in sums.items() for a, v in _decode(s, bits, 0).items()}


def _minors(inst):
    """(c, taus, bordered) as {(x-degree, u-degree): int}: taus[k] = c^k tau_k
    and, for 0 < k < size, bordered[k] the c^k-scaled minors that
    d_x tau_k, d_u tau_k and d_x d_u tau_k equal (module docstring)."""
    n = inst.size
    L, G = _integer_rows(inst.g)
    N = [[factorial(n - 1) // factorial(s - i) if s >= i else 0 for s in range(n)] for i in range(n)]
    table = _tp_det(N)
    # P = N(x) G: the coefficient of x^a in P[i][j] is N[i][i + a] G[i + a][j]
    P = [[{a: N[i][i + a] * G[i + a][j] for a in range(n - i)} for j in range(n)] for i in range(n)]
    lead, edge = [], []  # per k: {T: (u-degree, weight)} of rows :k and {0..k-2, k} of N
    for k in range(n + 1):
        layer = [T for T in range(1 << n) if T.bit_count() == k]
        deg = {T: sum(i for i in range(n) if T >> i & 1) - k * (k - 1) // 2 for T in layer}
        lead.append({T: (deg[T], v) for T in layer if (v := table[T])})
        edge.append({T: (deg[T] - 1, v) for T in layer if 0 < k < n and (v := _expand(N[k], T, table))})
    weight = max(sum(abs(v) for _b, v in w.values()) for w in lead + edge)
    bits = _kronecker_bits(weight * prod(sum(abs(v) for p in row for v in p.values()) for row in P))
    P = [[_encode(p, bits, 0) for p in row] for row in P]
    D = _tp_det(P)
    taus, bordered = [], [None]
    for k in range(n + 1):
        taus.append(_by_u_degree(D, lead[k], bits))
        if 0 < k < n:  # rows {0..k-2, k} of P
            E = {T: _expand(P[k], T, D) for T in lead[k].keys() | edge[k].keys()}
            bordered.append((_by_u_degree(E, lead[k], bits), _by_u_degree(D, edge[k], bits), _by_u_degree(E, edge[k], bits)))
    return factorial(n - 1) ** 2 * L, taus, bordered


def toda_tau_all(inst):
    """[tau_0, ..., tau_size]: tau_k is the leading k x k minor, tau_0 = 1."""
    c, taus, _bordered = _minors(inst)
    return [TimesPoly(_VARS, {m: qs(Fraction(v, c**k)) for m, v in p.items()}) for k, p in enumerate(taus)]


def _packed_products(pairs):
    """(bits, X, [a * b for a, b in pairs]), each polynomial p(x, u) packed as
    its value p(q, q^X) at q = 2^bits: X exceeds the x-degree of every
    product, and every coefficient of a signed sum of the products is at most
    the sum of l1(a) l1(b), which ``_kronecker_bits`` fits in one digit."""
    X = 1 + max(max((m[0] for m in a), default=0) + max((m[0] for m in b), default=0) for a, b in pairs)
    bits = _kronecker_bits(sum(sum(map(abs, a.values())) * sum(map(abs, b.values())) for a, b in pairs))

    def pack(p):
        return _encode({a + X * b: v for (a, b), v in p.items()}, bits, 0)

    return bits, X, [pack(a) * pack(b) for a, b in pairs]


def verify_toda_bilinear(inst):
    """tau_k d_x d_u tau_k - d_x tau_k d_u tau_k = tau_{k+1} tau_{k-1} for
    every interior k, one integer equation each, plus the bordered and inner
    (Desnanot-Jacobi) minors as a cross-check of the derivatives.  Every
    term of the identity at k is scaled by c^(2k)."""
    if inst.size < 2:
        raise ValueError("the bilinear identity needs size >= 2 (no interior k below)")
    details = []
    _c, taus, bordered = _minors(inst)
    for k in range(1, inst.size):
        tk = taus[k]
        dx = {(a - 1, b): a * v for (a, b), v in tk.items() if a}
        du = {(a, b - 1): b * v for (a, b), v in tk.items() if b}
        dxu = {(a, b - 1): b * v for (a, b), v in dx.items() if b}
        bits, _X, (left, right, target) = _packed_products(((tk, dxu), (dx, du), (taus[k + 1], taus[k - 1])))
        if left - right != target:
            fitted = _fit_constant(_decode(left - right, bits, 0), _decode(target, bits, 0))
            details.append(
                f"k={k}: residual nonzero"
                + (f", fitted constant {fitted}" if fitted is not None else "")
            )
        bx, bu, inner = bordered[k]
        if dx != bx:
            details.append(f"k={k}: d_x tau_k != bordered minor")
        if du != bu:
            details.append(f"k={k}: d_u tau_k != bordered minor")
        if dxu != inner:
            details.append(f"k={k}: d_x d_u tau_k != inner minor")
    return VerificationReport.from_failures(details, params={"size": inst.size})


def _fit_constant(bilinear, target):
    """Ratio c when bilinear = c * target (integer polynomials, one key per
    monomial); None otherwise.  The ratio is the same as for the minors of
    the flow matrix."""
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
