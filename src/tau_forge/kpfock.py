"""Charged free-fermion Fock space on a finite mode window, exactly.

A state is an int whose bit m + M is set when window mode m is occupied,
for the window [-M, M-1]; everything below the window is permanently
occupied and everything above permanently empty.  A state of charge n
occupies M + n window modes; the charge-n vacuum occupies n-1, n-2, ..., -M,
the low M + n bits.  A fermion flips one bit, and its sign is the parity of
the occupied modes above it, a popcount.

Every computation runs inside a :class:`FockSpace`, which doubles as a
boundary guard: any occupancy change at a mode within one step of the window
edge raises :class:`BoundaryError`, and the range of modes actually changed
is recorded, so a finished computation carries a certificate that the
window truncation was invisible at the reported degrees.

Every KP tau is Sato's expansion over one cached table per cap,

    tau_n(t, s) = <n| exp(sum t_k a_k) g exp(sum s_k a_{-k}) |n>
                = sum_{lambda, mu} S_lambda(t) <lambda, n| g |mu, n> S_mu(s),

truncated by weighted degree (t_k and s_k carry weight k) with one cap per
time set.  The table {lambda: cap! S_lambda = cap! <lambda| exp(sum t_k
a_{-k}) |0>} is flowed once per cap in its own window; S_lambda does not
depend on the charge, and a_k^T = a_{-k} on the basis states, so a row is
also <n| exp(sum t_k a_k) |lambda, n>.  No Fock vector is flowed per g or
per charge.  Rows flowed outside the check's window are still exact: a
lowering move stays between a state's holes and particles, and the check's
window still guards every placed state and every fermion of g.

The Hirota residuals need the product
tau_a(x + y, u + v) tau_b(x - y, u - v).  It is formed from the two built
taus in one capped product, with no substituted tau: the exponents a and b
of a time in the two factors expand by Krawtchouk's coefficients,
(x + y)^a (x - y)^b = sum_i K_i(a, b) x^(a+b-i) y^i.  The substitution
keeps every weighted degree, so the product is exact to the same caps.

Polynomials are {packed monomial: int} dicts (KP is q-free), and each
build carries one int scale: it holds scale times the value it stands for.
A table row of cap D is D! S_lambda, g is scaled by the product of the
denominators of its thetas, and a product by the product of the scales.
The Schur operators read the same table: both factors of a Schur pair are
rows (k,) of the table at the layout's bound, each bound! S_k, so the pair
carries (bound!)^2.  Only a residual or a tau leaving the module is
divided by its scale, once, as it becomes a TimesPoly.  A packed monomial
holds each exponent in a bit field and, in two more fields, its weighted
degree in the (x, y) and in the (u, v) times, so adding packed monomials
multiplies them and adds their weights.  The field width comes from the
largest cap, and no product is formed past a cap: capped products bucket
terms by weight.

The caps are derived from the Schur operators, not fixed: the pair
S_j(2y) S_{j+o}(-dtilde_y) lowers the (x, y) weight by o, so that set is
built to degree + max(o, 0); the (u, v) pair raises it by o, so that set is
built to degree + max(-o, 0) (:func:`schur_pair_caps`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, perm, prod
from operator import add, mul

from ._kernels import _trim, _trim_words
from .ncalg import TimesPoly
from .qscalar import qs
from .report import VerificationReport


class BoundaryError(RuntimeError):
    """An occupancy change touched the guarded margin of the mode window."""


@dataclass(frozen=True)
class BoundaryCertificate:
    window: int
    min_changed: int
    max_changed: int

    def __str__(self):
        if self.max_changed < self.min_changed:
            return f"window [-{self.window},{self.window - 1}], no mode changed"
        return f"window [-{self.window},{self.window - 1}], changes in [{self.min_changed},{self.max_changed}]"


class FockSpace:
    """Mode window plus the boundary guard for one computation."""

    def __init__(self, window):
        if window < 3:
            raise ValueError("window too small")
        self.M = window
        self.min_changed, self.max_changed = window, -window  # no mode changed yet

    def note_change(self, mode):
        if mode <= -self.M or mode >= self.M - 1:
            raise BoundaryError(f"occupancy change at mode {mode} touches the window edge")
        if mode < self.min_changed:
            self.min_changed = mode
        if mode > self.max_changed:
            self.max_changed = mode

    def in_window(self, mode):
        return -self.M <= mode <= self.M - 1

    def vacuum(self, n):
        if not -self.M <= n <= self.M:
            raise ValueError("charge out of window")
        return (1 << (self.M + n)) - 1

    def charge(self, state):
        return state.bit_count() - self.M

    def certificate(self):
        return BoundaryCertificate(self.M, self.min_changed, self.max_changed)

    def state_from_partition(self, n, partition):
        """Occupied modes n - i + lambda_i (i = 1, ..., M + n) inside the
        window; a part past the M + n window particles does not fit."""
        count = self.M + n
        parts = list(partition) + [0] * count
        modes = [n - i + parts[i - 1] for i in range(1, count + 1)]
        if count < 0 or any(partition[count:]) or any(not self.in_window(m) for m in modes):
            raise BoundaryError("partition does not fit the window")
        state = sum(1 << (m + self.M) for m in set(modes))
        if state.bit_count() != len(modes):
            raise ValueError("not a valid partition (repeated mode)")
        return state

    def partition_of_state(self, state):
        # lambda_i = m_i - (n - i), m_i the i-th highest occupied mode
        n, parts = self.charge(state), []
        while state and (part := state.bit_length() - self.M - n + len(parts)):
            parts.append(part)
            state ^= 1 << (state.bit_length() - 1)
        return n, tuple(parts)


# Fock vectors: dicts mapping int states to coefficients


def apply_fermion(space, kind, mode, vec):
    """Insertion (psi) or removal (psi*) at a mode; sign counts occupied
    modes strictly above the acted mode.  Distinct states stay distinct, so
    any coefficient type that negates will do."""
    if not space.in_window(mode):
        raise BoundaryError(f"mode {mode} outside the window")
    if kind not in ("psi", "psi_star"):
        raise ValueError(kind)
    bit = 1 << (mode + space.M)
    full = bit if kind == "psi_star" else 0
    out = {}
    for state, coeff in vec.items():
        if state & bit != full:
            continue
        space.note_change(mode)
        out[state ^ bit] = -coeff if (state >> (mode + space.M + 1)).bit_count() & 1 else coeff
    return out


def _flow_moves(space, k, state):
    """a_k |state> as (state, sign) pairs: the window part of
    a_k = sum_j psi_j psi*_{j+k} (k > 0 lowers energy, k < 0 raises), exact
    on guard-certified computations.  Removing p and then inserting t is
    signed by the occupied modes above p in the state and above t after the
    removal."""
    M = space.M
    # p moves to t = p - k only if t is empty; every mode below the window
    # is permanently occupied
    if k > 0:
        movable = state & ~(state << k) & -(1 << k)
    else:
        movable = state & ~(state >> -k)
    moves = []
    while movable:
        bit = movable & -movable
        movable ^= bit
        p = bit.bit_length() - 1 - M
        t = p - k
        if t > M - 1:
            raise BoundaryError(f"raising flow needs mode {t} outside the window")
        removed = state ^ bit
        odd = ((state >> (p + M + 1)).bit_count() + (removed >> (t + M + 1)).bit_count()) & 1
        space.note_change(p)
        space.note_change(t)
        moves.append((removed | 1 << (t + M), -1 if odd else 1))
    return moves


def apply_flow_generator(space, k, vec):
    """a_k on a vector."""
    if k == 0:
        raise ValueError("k must be nonzero")
    out = {}
    for state, coeff in vec.items():
        for nstate, sign in _flow_moves(space, k, state):
            out[nstate] = out.get(nstate, 0) + sign * coeff
    return {st: c for st, c in out.items() if c}


# ---------------------------------------------------------------------------
# packed polynomials in the time variables
# ---------------------------------------------------------------------------


class _Layout:
    """Packed monomials over named times x_k, y_k, u_k, v_k (weight k): the
    exponent of vars[i] in bit field i, the weighted degree of the (x, y)
    times in field n and of the (u, v) times in field n + 1.  No exponent or
    weight of a stored monomial may exceed ``bound``."""

    def __init__(self, vars, bound):
        self.vars = tuple(vars)
        self.bound = bound
        w = max(1, bound).bit_length()
        self.mask = (1 << w) - 1
        self.wshift = (len(self.vars) * w, (len(self.vars) + 1) * w)
        self.shift = {v: i * w for i, v in enumerate(self.vars)}
        self.group = {v: int(v[0] in "uv") for v in self.vars}
        self.unit = {v: (1 << self.shift[v]) + (int(v[1:]) << self.wshift[self.group[v]]) for v in self.vars}

    def weight(self, mono, group):
        return (mono >> self.wshift[group]) & self.mask

    def pack(self, names, exps):
        return sum(e * self.unit[v] for v, e in zip(names, exps))

    def to_times(self, poly, scale):
        """poly / scale as a TimesPoly, for an int polynomial and scale."""
        shifts = [self.shift[v] for v in self.vars]
        return TimesPoly(
            self.vars,
            {tuple((m >> s) & self.mask for s in shifts): qs(Fraction(c, scale)) for m, c in poly.items() if c},
        )


def _var_names(prefix, d):
    return [f"{prefix}{k}" for k in range(1, d + 1)]


def _capped_pairs(a, b, lay, caps):
    """The (terms of a, terms of b) pairs of weight buckets whose products
    stay within the weighted-degree caps (one per time set): terms are
    bucketed by (weight_0, weight_1), so no pair past a cap is formed."""
    buckets = []
    for p in (a, b):
        by_weight = {}
        for m, c in p.items():
            by_weight.setdefault((lay.weight(m, 0), lay.weight(m, 1)), []).append((m, c))
        buckets.append(by_weight.items())
    for (wa0, wa1), ta in buckets[0]:
        for (wb0, wb1), tb in buckets[1]:
            if wa0 + wb0 <= caps[0] and wa1 + wb1 <= caps[1]:
                yield ta, tb


def _mul_capped(a, b, lay, caps):
    """a * b without the terms past the weighted-degree caps."""
    out = {}
    get = out.get
    for ta, tb in _capped_pairs(a, b, lay, caps):
        for m1, c1 in ta:
            for m2, c2 in tb:
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
    return _trim(out)


@cache
def _krawtchouk_row(a, b):
    """(K_0, ..., K_{a+b}) with (x + y)^a (x - y)^b = sum_i K_i x^(a+b-i) y^i:
    K_i = sum_s C(a, i-s) C(b, s) (-1)^s, Krawtchouk's coefficients."""
    return tuple(
        sum(comb(a, i - s) * comb(b, s) * (-1) ** s for s in range(max(0, i - a), min(i, b) + 1))
        for i in range(a + b + 1)
    )


def _sum_diff_product(ta, tb, lay, pairs, caps):
    """ta(x + y) * tb(x - y) to the weighted-degree caps, for every (x, y)
    pair of names, in one capped product of the unsubstituted polynomials
    (which hold no y).

    x and y share a weight and a time set, so the substitution keeps every
    weighted degree and the cap test on the pairs of unsubstituted terms is
    exact.  The product of x^a (from ta) and x^b (from tb) becomes
    sum_i K_i(a, b) x^(a+b-i) y^i, one Krawtchouk row per pair of names."""
    steps = [(lay.shift[x], lay.unit[y] - lay.unit[x]) for x, y in pairs]
    mask = lay.mask
    out = {}
    get = out.get
    for ga, gb in _capped_pairs(ta, tb, lay, caps):
        for m1, c1 in ga:
            for m2, c2 in gb:
                terms = [(m1 + m2, c1 * c2)]
                for shift, step in steps:
                    a = (m1 >> shift) & mask
                    b = (m2 >> shift) & mask
                    if a or b:
                        row = _krawtchouk_row(a, b)
                        terms = [(m + i * step, c * k) for m, c in terms for i, k in enumerate(row) if k]
                for m, c in terms:
                    out[m] = get(m, 0) + c
    return _trim(out)


# ---------------------------------------------------------------------------
# the Schur table and the tau build
# ---------------------------------------------------------------------------


def _flow_weights(cap):
    """cap!/m! for m = 0..cap, the weight of term order m in a flow to cap."""
    return [perm(cap, cap - m) for m in range(cap + 1)]


def flow(space, lay, cap):
    """cap! exp(sum_k t_k a_{-k}) |0> as {state: packed int polynomial}, t_k
    the k-th time of ``lay``.  Term order m is A^m |0>, A = sum_k t_k a_{-k},
    added with the int weight cap!/m!.  Every term of a state weighs the
    state's energy, so a_{-k} acts only where that stays within ``cap``."""
    weights, units = _flow_weights(cap), [lay.unit[v] for v in lay.vars]
    term, acc = {space.vacuum(0): {0: 1}}, {space.vacuum(0): {0: weights[0]}}
    for w in weights[1:]:
        nxt = {}
        for state, poly in term.items():
            room = cap - lay.weight(next(iter(poly)), 0)
            for k, unit in enumerate(units[:room], 1):
                for nstate, sign in _flow_moves(space, -k, state):
                    tgt = nxt.setdefault(nstate, {})
                    for mono, c in poly.items():
                        tgt[mono + unit] = tgt.get(mono + unit, 0) + sign * c
        term = _trim_words(nxt)
        for state, poly in term.items():
            tgt = acc.setdefault(state, {})
            for mono, c in poly.items():
                tgt[mono] = tgt.get(mono, 0) + w * c
    return acc


@cache
def _schur_table(cap):
    """{lambda: cap! S_lambda} for |lambda| <= cap, each row a tuple of
    (exponent tuple over t_1..t_cap, int) pairs.  Cached: callers only read
    the rows."""
    space, lay = FockSpace(cap + 3), _Layout(_var_names("t", cap), cap)
    shifts = [lay.shift[v] for v in lay.vars]
    return {
        space.partition_of_state(state)[1]: tuple((tuple(m >> s & lay.mask for s in shifts), c) for m, c in p.items())
        for state, p in flow(space, lay, cap).items()
    }


def _note_moves(space, state, vacuum):
    """Notes where ``state`` differs from ``vacuum``, a range that holds every
    mode the flow between them moves."""
    if diff := state ^ vacuum:
        space.note_change((diff & -diff).bit_length() - 1 - space.M)
        space.note_change(diff.bit_length() - 1 - space.M)


def _read_rows(space, vec, vacuum, lay, prefix, cap):
    """cap! <vacuum| exp(sum_k t_k a_k) vec>, t_k = prefix<k> of ``lay``, off
    the table at ``cap``, noting each state's moves (``_note_moves``)."""
    table, units, out = _schur_table(cap), [lay.unit[v] for v in _var_names(prefix, cap)], {}
    for state, c in vec.items():
        _note_moves(space, state, vacuum)
        for e, cx in table.get(space.partition_of_state(state)[1], ()):
            m = sum(map(mul, e, units))
            out[m] = out.get(m, 0) + c * cx
    return out


def _tau(g, n, lay, caps, window):
    """tau_n with the x and u fields of ``lay`` as the times t and s, exact to
    the weighted-degree caps (D_x, D_u): ({packed: int}, scale, certificate),
    the polynomial being scale * tau_n: the sum over mu of the D_u table of
    mu's u-row times the x-rows of g|mu, n>, both placed in the check's
    window.  The u-row is read off the table by mu itself; the placed state
    is noted as ``_read_rows`` would note it."""
    space = FockSpace(window)
    _check_window_budget(space, n, caps[1], g)
    vacuum, out = space.vacuum(n), {}
    units = [lay.unit[v] for v in _var_names("u", caps[1])]
    for mu, row in _schur_table(caps[1]).items():
        placed = space.state_from_partition(n, mu)
        _note_moves(space, placed, vacuum)
        # distinct exponent tuples pack to distinct monomials
        us = {sum(map(mul, e, units)): cu for e, cu in row}
        xs = _read_rows(space, g.scaled_apply(space, {placed: 1})[0], vacuum, lay, "x", caps[0])
        for mu_mono, cu in us.items():
            for m, cx in xs.items():
                out[m + mu_mono] = out.get(m + mu_mono, 0) + cx * cu
    return _trim(out), factorial(caps[0]) * factorial(caps[1]) * g.denominator(), space.certificate()


# ---------------------------------------------------------------------------
# group elements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElementSpec:
    """Ordered product of unipotent factors exp(theta psi_i psi*_j), i != j.

    Each factor is exactly 1 + theta psi_i psi*_j because (psi_i psi*_j)^2 = 0
    whenever i != j, so the action stays polynomial and exact.
    """

    factors: tuple

    @classmethod
    def identity(cls):
        return cls(factors=())

    @classmethod
    def single(cls, theta, i, j):
        return cls(factors=((Fraction(theta), i, j),))

    @classmethod
    def random_unipotent(cls, rng):
        """Three factors, each with modes i != j in [-2, 2] and theta = a/b
        for a, b in 1..9."""
        factors = []
        for _ in range(3):
            i = rng.randint(-2, 2)
            j = rng.randint(-2, 2)
            while j == i:
                j = rng.randint(-2, 2)
            theta = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            factors.append((theta, i, j))
        return cls(factors=tuple(factors))

    def denominator(self):
        """The product of the denominators of the thetas."""
        return prod(theta.denominator for theta, _, _ in self.factors)

    def scaled_apply(self, space, vec):
        """(Q g vec, Q) with Q = :meth:`denominator`: a factor with theta =
        p/q acts as q + p psi_i psi*_j, so int coefficients stay int."""
        for theta, i, j in reversed(self.factors):
            if i == j:
                raise ValueError("factors need i != j")
            p, q = theta.numerator, theta.denominator
            moved = apply_fermion(space, "psi", i, apply_fermion(space, "psi_star", j, vec))
            out = {state: q * c for state, c in vec.items()}
            for state, c in moved.items():
                s = out.get(state, 0) + p * c
                if s:
                    out[state] = s
                else:
                    out.pop(state, None)
            vec = out
        return vec, self.denominator()

    def apply(self, space, vec):
        """g on a vector, exactly."""
        vec, scale = self.scaled_apply(space, vec)
        return {state: Fraction(c, scale) for state, c in vec.items()}

    def mode_span(self):
        return max((max(abs(i), abs(j)) for _, i, j in self.factors), default=0)


def schur_pair_caps(degree, offset):
    """(D_xy, D_uv), the weighted degrees to which the taus of a Schur-pair
    residual are built.  The y-side pair S_j(2y) S_{j+o}(-dtilde_y) lowers the
    (x, y) weight by o and the v-side pair raises the (u, v) weight by o, so a
    residual exact to ``degree`` needs that much more on the lowered side."""
    return degree + max(offset, 0), degree + max(-offset, 0)


@cache
def _pair_image(ez, a, b, sigma, bound):
    """sum_{j>=0} S_{j+a}(2 sigma z) S_{j+b}(-sigma dtilde_z) z^ez times
    (bound!)^2, z the first len(ez) times (later times frozen to zero), as a
    tuple of (exponent tuple, int) pairs.  Both factors are rows (k,) of the
    table at ``bound``, each bound! S_k, so no term needs a weight.  Slot k
    of dtilde acts as d/dt_k / k; the quotient stays an int, since bound! S_k
    is bound!/k! times k! S_k and k! over prod x_i! i^(x_i) counts the
    permutations of k things with x_i cycles of length i.  Cached: callers
    only read the tuple."""
    table, slots, acc = _schur_table(bound), len(ez), {}
    for j in range(max(0, -a, -b), sum(k * e for k, e in enumerate(ez, 1)) - b + 1):
        dpart = []
        for d, c in table[(j + b,) if j + b else ()]:
            if any(d[slots:]) or any(x > e for x, e in zip(d, ez)):
                continue
            c //= prod(k**x for k, x in enumerate(d, 1))
            for x, e in zip(d, ez):
                c *= (-sigma) ** x * perm(e, x)
            dpart.append((tuple(e - x for e, x in zip(ez, d)), c))
        for s, cs in table[(j + a,) if j + a else ()]:
            if any(s[slots:]):
                continue
            cs *= (2 * sigma) ** sum(s)
            for md, cd in dpart:
                key = tuple(map(add, s, md))
                acc[key] = acc.get(key, 0) + cs * cd
    return tuple((e, c) for e, c in acc.items() if c)


def _schur_pair(G, lay, z, a, b, sigma, degree):
    """sum_{j>=0} S_{j+a}(2 sigma z) S_{j+b}(-sigma dtilde_z) G, kept to
    ``degree`` in both time sets, times L = (bound!)^2: (integer poly, L).

    The pair acts on the z times alone and moves their weight by a - b, so
    each distinct z-monomial of G takes its cached image
    (:func:`_pair_image`), packed once per call into ``lay``, and the image
    is multiplied back onto the rest of each term."""
    group = lay.group[z[0]]
    shifts = [lay.shift[v] for v in z]
    zmask = sum(lay.mask << s for s in shifts)
    images, out = {}, {}
    for m, c in G.items():
        if lay.weight(m, group) + a - b > degree or lay.weight(m, 1 - group) > degree:
            continue
        zbits = m & zmask
        image = images.get(zbits)
        if image is None:
            ez = tuple((zbits >> s) & lay.mask for s in shifts)
            terms = [(lay.pack(z, e), v) for e, v in _pair_image(ez, a, b, sigma, lay.bound)]
            image = images[zbits] = (lay.pack(z, ez), terms)
        zmono, terms = image
        rest = m - zmono
        for mz, cz in terms:
            key = rest + mz
            out[key] = out.get(key, 0) + c * cz
    return _trim(out), factorial(lay.bound) ** 2


def _residual(lay, lhs, sl, rhs=None, sr=1):
    """lhs / sl - rhs / sr as a TimesPoly, from integer polynomials."""
    out = {m: c * sr for m, c in lhs.items()}
    for m, c in (rhs or {}).items():
        out[m] = out.get(m, 0) - c * sl
    return lay.to_times(out, sl * sr)


# ---------------------------------------------------------------------------
# tau functions and Hirota residuals
# ---------------------------------------------------------------------------


def tau_kp(g, n, deg_x, deg_u=0, *, window):
    """tau as <n| exp(sum x_k a_k) g exp(sum u_k a_{-k}) |n>, by Sato's
    expansion over the cached Schur tables.

    One-sided for deg_u = 0; otherwise the two-sided version with raising
    times u_k.  Returns (TimesPoly, BoundaryCertificate); all coefficients of
    monomials within the stated weighted degrees are exact.
    """
    lay = _Layout(_var_names("x", deg_x) + _var_names("u", deg_u), max(deg_x, deg_u))
    poly, scale, cert = _tau(g, n, lay, (deg_x, deg_u), window)
    return lay.to_times(poly, scale), cert


def _check_window_budget(space, n, deg_u, g):
    # raising by total weight deg_u lifts particles to at most n - 1 + deg_u
    # and vacates down to n - deg_u; lowering moves particles into existing
    # holes, so holes only move up; g factors act within their mode span
    span = g.mode_span()
    top, bottom = max(n - 1 + deg_u, span), min(n - deg_u, -span)
    if top > space.M - 2 or bottom < -space.M + 1:
        raise BoundaryError(
            f"degree/charge budget (top {top}, bottom {bottom}) exceeds the "
            f"guarded window [-{space.M - 1},{space.M - 2}]"
        )


def m3_residual(g, degree, window):
    """The window sum of products of charge +-1 matrix elements that the
    invariance of Omega = sum psi_j ox psi*_j forces to vanish.

    The vector sum_j psi_j g|0> ox psi*_j g|0> is already zero before the
    linear flows act, so this checks g and the fermion signs, not the flows.
    g|0> is built once, and psi_j g|0> and psi*_j g|0> read the table rows
    at charges +1 and -1.  Returns (residual, [certificate]).

    Insertion modes beyond the guarded window are omitted; their terms need
    more energy than ``degree`` supplies, which is only sound while the
    degree stays at least two modes clear of the window edge."""
    if degree > window - 2:
        raise BoundaryError(
            f"degree {degree} needs insertion modes beyond the guarded "
            f"window [-{window - 1},{window - 2}]; increase the window"
        )
    D = degree
    lay = _Layout(_var_names("x", D) + _var_names("y", D), 2 * D)
    space = FockSpace(window)
    _check_window_budget(space, 1, 0, g)
    ground = g.scaled_apply(space, {space.vacuum(0): 1})[0]
    acc = {}
    for j in range(-window + 1, window - 1):
        # each matrix element times g.denominator() * D!
        left = _read_rows(space, apply_fermion(space, "psi", j, ground), space.vacuum(1), lay, "x", D)
        right = _read_rows(space, apply_fermion(space, "psi_star", j, ground), space.vacuum(-1), lay, "y", D)
        for m, c in _mul_capped(left, right, lay, (2 * D, 0)).items():
            acc[m] = acc.get(m, 0) + c
    return lay.to_times(acc, (g.denominator() * factorial(D)) ** 2), [space.certificate()]


def m4_residual(g, degree, window):
    """Literal transcription of the one-sided Hirota sum:

        sum_{j>=0} S_j(2 y) . S_{j+1}(-dtilde_y) [tau(x+y) tau(x-y)],

    certified exact up to joint weighted degree ``degree``; the taus are
    built to the margin the offset 1 costs (:func:`schur_pair_caps`).
    Returns (residual, certificates, the (x, u) degrees the tau was built to)."""
    D = schur_pair_caps(degree, 1)[0]
    x_names, y_names = _var_names("x", D), _var_names("y", D)
    lay = _Layout(x_names + y_names, D)
    caps = (D, 0)
    tau, scale, cert = _tau(g, 0, lay, caps, window)
    G = _sum_diff_product(tau, tau, lay, list(zip(x_names, y_names)), caps)
    lhs, L = _schur_pair(G, lay, y_names, 0, 1, 1, degree)
    return _residual(lay, lhs, L * scale * scale), [cert], caps


def h6_residual(g, n, m, degree, window):
    """Two-sided Hirota residual for charges (n, m): LHS with the y-side
    Schur pair at offset o = n - m + 1 minus RHS with the v-side pair at the
    same offset and charges (n+1, m-1); certified to ``degree`` per time set,
    with each tau built once per charge to :func:`schur_pair_caps`.
    Returns (residual, certificates, those caps)."""
    offset = n - m + 1
    caps = schur_pair_caps(degree, offset)
    names = {p: _var_names(p, caps[p in "uv"]) for p in "xyuv"}
    lay = _Layout(names["x"] + names["y"] + names["u"] + names["v"], max(caps))
    pairs = list(zip(names["x"], names["y"])) + list(zip(names["u"], names["v"]))
    built, certs = {}, []

    def tau(charge):
        if charge not in built:
            poly, scale, cert = _tau(g, charge, lay, caps, window)
            built[charge] = poly, scale
            certs.append(cert)
        return built[charge]

    def side(charge_a, charge_b, z, a, b, sigma):
        # tau_a(x + y, u + v) tau_b(x - y, u - v)
        (ta, sa), (tb, sb) = tau(charge_a), tau(charge_b)
        # the pair moves the weight of z's time set by a - b
        need = [degree, degree]
        need[lay.group[z[0]]] += b - a
        G = _sum_diff_product(ta, tb, lay, pairs, [min(d, c) for d, c in zip(need, caps)])
        poly, L = _schur_pair(G, lay, z, a, b, sigma, degree)
        return poly, L * sa * sb

    lhs, sl = side(n, m, names["y"], 0, offset, 1)
    rhs, sr = side(n + 1, m - 1, names["v"], offset, 0, -1)
    return _residual(lay, lhs, sl, rhs, sr), certs, caps


def cauchy_pair(degree, window):
    """Two independent routes to the two-sided vacuum tau at g = identity:
    the Fock matrix element and the direct expansion of exp(sum k x_k u_k)."""
    tau, cert = tau_kp(GroupElementSpec.identity(), 0, degree, degree, window=window)
    lay = _Layout(tau.vars, degree)
    direct, scale = {0: 1}, 1
    for k in range(1, degree + 1):
        # exp(k x_k u_k) to x_k^top, times top!
        xu, top = lay.unit[f"x{k}"] + lay.unit[f"u{k}"], degree // k
        block = {a * xu: k**a * perm(top, top - a) for a in range(top + 1)}
        direct, scale = _mul_capped(direct, block, lay, (degree, degree)), scale * factorial(top)
    return tau, lay.to_times(direct, scale), cert


# ---------------------------------------------------------------------------
# verification entry point
# ---------------------------------------------------------------------------


def verify_hirota_kp(which, g, degree, window, charges=(0, 0)):
    if which in ("M3", "M4") and tuple(charges) != (0, 0):
        raise ValueError(f"{which} is a charge-0 relation; got charges {charges}")
    caps = None
    if which == "M3":
        res, certs = m3_residual(g, degree, window)
    elif which == "M4":
        res, certs, caps = m4_residual(g, degree, window)
    elif which == "H6":
        res, certs, caps = h6_residual(g, charges[0], charges[1], degree, window)
    else:
        raise ValueError(f"unknown check {which!r}")
    params = {"g": len(g.factors), "charges": charges, "degree": degree, "window": window}
    if caps is not None:
        params["caps"] = caps
    return VerificationReport.from_failures(
        [] if res.is_zero() else [str(res)], params, details=[str(c) for c in certs[:4]]
    )

