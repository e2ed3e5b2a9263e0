"""Finite Toda lattice tau functions as principal minors.

For an invertible rational matrix g of size n+1 the tau functions are the
leading principal minors

    tau_k(x, u) = det [ exp(H(x)) g exp(H'(u)) ]_{k x k},

H(x) = sum x_k I_k over the upper shift sums I_k, H'(u) the transposed
lowering side.  With only the first times kept (x = x_1, u = u_1) these
satisfy the Toda-molecule bilinear identity

    tau_k d_x d_u tau_k - d_x tau_k d_u tau_k = tau_{k+1} tau_{k-1},

which is the Desnanot-Jacobi determinant identity in disguise: the mixed
derivative of an entry shifts its row and column index down by one, so each
derivative of a minor is itself a bordered minor.  Both formulations are
implemented and compared; that cross-check is the oracle for the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import linalg as la
from .ncalg import TimesPoly
from .qscalar import ONE, ZERO, qs
from .report import Stopwatch, VerificationReport


@dataclass(frozen=True)
class TodaInstance:
    size: int
    g: tuple  # tuple of tuples of Fraction

    @classmethod
    def from_rows(cls, rows):
        rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        size = len(rows)
        if any(len(r) != size for r in rows):
            raise ValueError("g must be square")
        inst = cls(size=size, g=rows)
        if inst.det_g() == 0:
            raise ValueError("g must be invertible")
        return inst

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        rows = data["g"]
        if "size" in data and data["size"] != len(rows):
            raise ValueError("size field disagrees with matrix")
        return cls.from_rows(rows)

    @classmethod
    def random(cls, rng, size):
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


def _shift_matrix(size, k):
    """I_k = sum of matrix units one step k above the diagonal (k < 0 below)."""
    out = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        j = i + k
        if 0 <= j < size:
            out[i][j] = Fraction(1)
    return out


def _tp_zero_mat(n, m, vars):
    return [[TimesPoly.zero(vars) for _ in range(m)] for _ in range(n)]


def _exp_h(size, coeffs, vars):
    """exp(sum_k coeff_k I_{sign k}) as a TimesPoly matrix (nilpotent, exact)."""
    acc = [[TimesPoly.const(vars, ONE if i == j else ZERO) for j in range(size)] for i in range(size)]
    H = _tp_zero_mat(size, size, vars)
    for k, cpoly in coeffs:
        S = _shift_matrix(size, k)
        for i in range(size):
            for j in range(size):
                if S[i][j]:
                    H[i][j] = H[i][j] + cpoly
    term = [[TimesPoly.const(vars, ONE if i == j else ZERO) for j in range(size)] for i in range(size)]
    for m in range(1, size):
        term = la.mat_mul(term, H)
        if all(x.is_zero() for row in term for x in row):
            break
        inv = qs(Fraction(1, factorial(m)))
        for i in range(size):
            for j in range(size):
                acc[i][j] = acc[i][j] + term[i][j].scale(inv)
    return acc


def _tp_det(M):
    """Exact determinant of a TimesPoly matrix by column-subset recursion."""
    n = len(M)
    if n == 0:
        return None
    vars = M[0][0].vars
    memo = {}

    def rec(row, cols):
        if not cols:
            return TimesPoly.one(vars)
        key = cols
        got = memo.get((row, key))
        if got is not None:
            return got
        acc = TimesPoly.zero(vars)
        for pos, c in enumerate(cols):
            entry = M[row][c]
            if entry.is_zero():
                continue
            sub = rec(row + 1, cols[:pos] + cols[pos + 1 :])
            term = entry * sub
            acc = acc + (term if pos % 2 == 0 else -term)
        memo[(row, key)] = acc
        return acc

    return rec(0, tuple(range(n)))


def _flow_matrix(inst, times, vars):
    """exp(H(x)) g exp(H'(u)) with the requested time content."""
    size = inst.size
    if times == "principal_only":
        e_coeffs = [(1, TimesPoly.var(vars, "x"))]
        f_coeffs = [(-1, TimesPoly.var(vars, "u"))]
    elif times == "full":
        e_coeffs = [(k, TimesPoly.var(vars, f"x{k}")) for k in range(1, size)]
        f_coeffs = [(-k, TimesPoly.var(vars, f"u{k}")) for k in range(1, size)]
    else:
        raise ValueError(times)
    E = _exp_h(size, e_coeffs, vars)
    F = _exp_h(size, f_coeffs, vars)
    G = [[TimesPoly.const(vars, qs(x)) for x in row] for row in inst.g]
    return la.mat_mul(la.mat_mul(E, G), F)


def _vars_for(inst, times):
    if times == "principal_only":
        return ("x", "u")
    return tuple([f"x{k}" for k in range(1, inst.size)] + [f"u{k}" for k in range(1, inst.size)])


def toda_tau(inst, k, times="principal_only"):
    """The k-th tau function (leading principal k x k minor); tau_0 = 1."""
    if not 0 <= k <= inst.size:
        raise ValueError(f"k must be within 0..{inst.size}")
    vars = _vars_for(inst, times)
    if k == 0:
        return TimesPoly.one(vars)
    A = _flow_matrix(inst, times, vars)
    sub = [row[:k] for row in A[:k]]
    return _tp_det(sub)


def toda_tau_all(inst, times="principal_only"):
    vars = _vars_for(inst, times)
    A = _flow_matrix(inst, times, vars)
    taus = [TimesPoly.one(vars)]
    for k in range(1, inst.size + 1):
        sub = [row[:k] for row in A[:k]]
        taus.append(_tp_det(sub))
    return taus


def verify_toda_bilinear(inst):
    """tau_k d_x d_u tau_k - d_x tau_k d_u tau_k = tau_{k+1} tau_{k-1} for
    every interior k, plus the equivalent determinant (Desnanot-Jacobi)
    formulation of the derivative minors as a cross-check."""
    details = []
    ok = True
    with Stopwatch() as sw:
        vars = ("x", "u")
        A = _flow_matrix(inst, "principal_only", vars)
        taus = toda_tau_all(inst)
        for k in range(1, inst.size):
            tk = taus[k]
            dx = tk.derivative("x")
            du = tk.derivative("u")
            dxu = dx.derivative("u")
            bilinear = tk * dxu - dx * du
            target = taus[k + 1] * taus[k - 1]
            res = bilinear - target
            if not res.is_zero():
                ok = False
                fitted = _fit_constant(bilinear, target)
                details.append(
                    f"k={k}: residual nonzero"
                    + (f", fitted constant {fitted}" if fitted is not None else "")
                )
            # derivative minors vs bordered determinant minors: differentiating
            # an entry shifts its row (d_x) or column (d_u) index by one, so
            # each derivative of tau_k is a single minor of the (k+1)-block
            B = [row[: k + 1] for row in A[: k + 1]]
            dx_det = _tp_det(_delete(B, k - 1, k))
            du_det = _tp_det(_delete(B, k, k - 1))
            dxu_det = _tp_det(_delete(B, k - 1, k - 1))
            if not (dx - dx_det).is_zero():
                ok = False
                details.append(f"k={k}: d_x tau_k != bordered minor")
            if not (du - du_det).is_zero():
                ok = False
                details.append(f"k={k}: d_u tau_k != bordered minor")
            if not (dxu - dxu_det).is_zero():
                ok = False
                details.append(f"k={k}: d_x d_u tau_k != inner minor")
    return VerificationReport(
        check_id="toda.bilinear",
        verdict=ok,
        residual="" if ok else "; ".join(details),
        params={"size": inst.size},
        anchor="Toda-molecule bilinear identity for principal minors",
        ms=sw.ms,
        details=details,
    )


def _delete(B, i, j):
    """Delete row index i and column index j (0-based) from B."""
    return [
        [x for cj, x in enumerate(row) if cj != j]
        for ri, row in enumerate(B)
        if ri != i
    ]


def _fit_constant(bilinear, target):
    """Leading-coefficient ratio when bilinear = c * target; None otherwise."""
    if target.is_zero():
        return None
    mono, coeff = next(iter(sorted(target.terms.items())))
    num = bilinear.terms.get(mono)
    if num is None:
        return None
    c = num / coeff
    return c if (bilinear - target.scale(c)).is_zero() else None
