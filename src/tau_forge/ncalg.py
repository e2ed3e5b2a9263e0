"""Noncommutative polynomials over commutative time-variable polynomials.

Three layers:

* :class:`TimesPoly` - commutative polynomials in declared "time" variables
  (evolution parameters) with :class:`~tau_forge.qscalar.QScalar` coefficients.
* :class:`Presentation` - a confluent rewrite system on two-letter words that
  fixes a normal-form (PBW-style) basis of an algebra given by generators and
  quadratic-plus-unit relations.  Every rule coefficient is an integer
  Laurent polynomial in q, so rewriting stays in Z[q, q^-1]: rules and the
  ``reduce_word`` memo carry ``{q-exponent: int}`` coefficients, and no
  Q(q) arithmetic runs while a word is reduced.
* :class:`NCPoly` - elements of such an algebra: maps from normal words to
  TimesPoly coefficients.  Products are reduced to normal form eagerly, so
  equality is structural and "residual is zero" is decidable.  ``NCPoly.mul``
  and :func:`normal_form` convert a normal form's Laurent coefficients to
  QScalar only where they meet a TimesPoly.  Over Z[q, q^-1] alone an
  element is a {normal word: Laurent} dict, and :func:`_word_mul` is its
  product through ``reduce_word``, with no QScalar.

Built-in presentations, each built once: the quantized coordinate ring of
SL2 with generators a, b, c, d (:func:`funq_sl2`), the q-exponential
parameter algebra with two commuting nilpotent-like parameters and a
group-like Q (:func:`gauss_param`), and the q-commuting pair y x = q x y
(:func:`q_commuting_pair`).  Over the pair, the q-exponential addition
theorem e_q(x + y) = e_q(x) e_q(y) is checked degree by degree with no
division: times (n)_q!, its degree-n part is the q-binomial theorem
(x + y)^n = sum_k [n choose k]_q x^k y^(n-k), whose Gaussian binomials are
Laurent polynomials (:func:`_q2_binomial` at half the exponents).
"""

from __future__ import annotations

from functools import cache

from .qscalar import ONE, QScalar, ZERO, qs
from ._kernels import _LAURENT_ONE, _addmul, _laurent_mul, _trim_words, tup_add
from .report import VerificationReport


class PresentationError(RuntimeError):
    """Non-terminating or malformed rewrite presentation."""


def _accumulate(out, key, value):
    """out[key] += value, with a key whose sum is zero dropped."""
    s = out.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


# ---------------------------------------------------------------------------
# commutative time polynomials
# ---------------------------------------------------------------------------


class TimesPoly:
    __slots__ = ("vars", "terms")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        self.terms = terms if terms is not None else {}

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def const(cls, vars, value):
        value = qs(value)
        if value.is_zero():
            return cls(vars)
        return cls(vars, {(0,) * len(tuple(vars)): value})

    @classmethod
    def one(cls, vars):
        return cls.const(vars, ONE)

    @classmethod
    def var(cls, vars, name, coeff=ONE, power=1):
        vars = tuple(vars)
        idx = vars.index(name)
        exps = [0] * len(vars)
        exps[idx] = power
        coeff = qs(coeff)
        if coeff.is_zero():
            return cls(vars)
        return cls(vars, {tuple(exps): coeff})

    def _check(self, other):
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, TimesPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _accumulate(out, m, c)
        return TimesPoly(self.vars, out)

    def __neg__(self):
        return TimesPoly(self.vars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QScalar):
            return self.scale(other)
        self._check(other)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = c1 * c2
                if c.is_zero():
                    continue
                m = tup_add(m1, m2)
                _accumulate(out, m, c)
        return TimesPoly(self.vars, out)

    def scale(self, c):
        c = qs(c)
        if c.is_zero():
            return TimesPoly(self.vars)
        return TimesPoly(self.vars, {m: v * c for m, v in self.terms.items()})

    def scale_var(self, name, factor):
        """Substitute ``name -> factor * name`` (factor a QScalar)."""
        idx = self.vars.index(name)
        factor = qs(factor)
        out = {}
        for m, c in self.terms.items():
            e = m[idx]
            out[m] = c * factor**e if e else c
        return TimesPoly(self.vars, {m: c for m, c in out.items() if not c.is_zero()})

    def subs_var_scaled(self, src, dst, factor):
        """Substitute ``src -> factor * dst`` for time variables src != dst."""
        i = self.vars.index(src)
        j = self.vars.index(dst)
        factor = qs(factor)
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e:
                c = c * factor**e
                mm = list(m)
                mm[i] = 0
                mm[j] += e
                m = tuple(mm)
            if c.is_zero():
                continue
            _accumulate(out, m, c)
        return TimesPoly(self.vars, out)

    def derivative(self, name):
        """Classical partial derivative."""
        idx = self.vars.index(name)
        out = {}
        for m, c in self.terms.items():
            e = m[idx]
            if not e:
                continue
            mm = list(m)
            mm[idx] = e - 1
            out[tuple(mm)] = c * qs(e)
        return TimesPoly(self.vars, out)

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), ZERO)

    def constant_term(self):
        return self.terms.get((0,) * len(self.vars), ZERO)

    def map_coefficients(self, fn):
        out = {}
        for m, c in self.terms.items():
            v = fn(c)
            if not v.is_zero():
                out[m] = v
        return TimesPoly(self.vars, out)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (sum(m), m)):
            c = self.terms[m]
            mono = "*".join(
                (v if e == 1 else f"{v}^{e}") for v, e in zip(self.vars, m) if e
            )
            cs = str(c)
            if mono:
                if cs == "1":
                    cs = mono
                elif cs == "-1":
                    cs = f"-{mono}"
                else:
                    cs = f"({cs})*{mono}" if _composite(cs) else f"{cs}*{mono}"
            head = cs
            if parts and not head.startswith("-"):
                parts.append("+" + head)
            else:
                parts.append(head)
        return "".join(parts)

    def __repr__(self):
        return f"TimesPoly({self})"


# ---------------------------------------------------------------------------
# rewrite presentations
# ---------------------------------------------------------------------------

_DEFAULT_STEP_BUDGET = 10**6


class Presentation:
    """A two-letter-word rewrite system with a declared generator order.

    ``rules`` maps a pair of generator names to a linear combination of
    replacement words (word tuple -> coefficient).  A coefficient is any
    value ``qs`` takes that is an integer Laurent polynomial in q; it is
    stored as ``{q-exponent: int}``, and any other coefficient (1/2,
    1/(1+q)) is a PresentationError naming the rule.  ``reduce_word`` and
    ``one_step_reductions`` return such Laurent coefficients.  Unit pairs
    (g, ginv) add the rewrites g*ginv -> 1 and ginv*g -> 1.  Confluence is
    not assumed here: :func:`check_local_confluence` proves it with Bergman's
    diamond lemma (1978) and Newman's lemma (1942), once every rule decreases
    the order (weight, inversions against ``gens``), a letter weighing 1 if a
    rule that changes the multiset of letters has it on its left side.
    """

    def __init__(self, name, gens, rules, unit_pairs=()):
        self.name = name
        self.gens = tuple(gens)
        gset = set(self.gens)
        items = rules.items() if isinstance(rules, dict) else list(rules)
        rule_list = []
        for (x, y), rhs in items:
            if x not in gset or y not in gset:
                raise PresentationError(f"rule on unknown generators: {x}, {y}")
            laurent = {}
            for w, c in rhs.items():
                if any(g not in gset for g in w):
                    raise PresentationError(f"rule RHS uses unknown generators: {w}")
                try:
                    lau = qs(c).as_laurent()
                except ValueError:
                    raise PresentationError(
                        f"rule {x}*{y} in {name}: coefficient {c} of "
                        f"{'*'.join(w) or '1'} is not an integer Laurent polynomial"
                    ) from None
                if lau:
                    laurent[tuple(w)] = lau
            rule_list.append(((x, y), laurent))
        for g, ginv in unit_pairs:
            rule_list.append(((g, ginv), {(): _LAURENT_ONE}))
            rule_list.append(((ginv, g), {(): _LAURENT_ONE}))
        self.rule_list = rule_list
        # first-match lookup used by reduce_word; duplicate-pair rules (allowed,
        # so deliberately inconsistent presentations can be expressed and caught
        # by the confluence check) are still visited by one_step_reductions
        self.rules = {}
        for pair, rhs in rule_list:
            self.rules.setdefault(pair, rhs)
        self._memo = {}

    def __repr__(self):
        return f"Presentation({self.name})"

    def reduce_word(self, word, budget=None):
        """Normal form of a single word as {normal word: {q-exponent: int}}.

        A non-terminating rule set is reported as PresentationError, whether
        it exhausts the step budget sideways or the rewrite chain depth.
        """
        try:
            return self._reduce(tuple(word), budget if budget is not None else [_DEFAULT_STEP_BUDGET])
        except RecursionError:
            raise PresentationError(
                f"rewrite chain in {self.name} exceeds the recursion depth; "
                "presentation is likely non-terminating"
            ) from None

    def _reduce(self, word, budget):
        memo = self._memo
        cached = memo.get(word)
        if cached is not None:
            return cached
        rules = self.rules
        for i in range(len(word) - 1):
            rhs = rules.get((word[i], word[i + 1]))
            if rhs is None:
                continue
            budget[0] -= 1
            if budget[0] <= 0:
                raise PresentationError(
                    f"step budget exhausted while reducing in {self.name}; "
                    "presentation is likely non-terminating"
                )
            prefix, suffix = word[:i], word[i + 2 :]
            # only a normal word reached twice can cancel; memo values are
            # shared, so they are copied before an in-place sum
            acc = {}
            merged = False
            for w, c in rhs.items():
                for w2, c2 in self._reduce(prefix + w + suffix, budget).items():
                    a = acc.get(w2)
                    if a is None:
                        acc[w2] = c2 if c == _LAURENT_ONE else _laurent_mul(c, c2)
                    else:
                        acc[w2] = _addmul(dict(a), c, c2)
                        merged = True
            out = memo[word] = _trim_words(acc) if merged else acc
            return out
        out = memo[word] = {word: _LAURENT_ONE}
        return out

    def one_step_reductions(self, word):
        """All single rewrite applications on ``word`` (for confluence checks)."""
        word = tuple(word)
        results = []
        for i in range(len(word) - 1):
            pair = (word[i], word[i + 1])
            for rpair, rhs in self.rule_list:
                if rpair != pair:
                    continue
                combo = {word[:i] + w + word[i + 2 :]: c for w, c in rhs.items()}
                results.append((i, combo))
        return results


# ---------------------------------------------------------------------------
# noncommutative polynomials
# ---------------------------------------------------------------------------


class NCPoly:
    __slots__ = ("pres", "vars", "terms")

    def __init__(self, pres, vars, terms=None):
        self.pres = pres
        self.vars = tuple(vars)
        self.terms = terms if terms is not None else {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, pres, vars=()):
        return cls(pres, vars)

    @classmethod
    def from_scalar(cls, pres, value, vars=()):
        value = qs(value)
        if value.is_zero():
            return cls(pres, vars)
        return cls(pres, vars, {(): TimesPoly.const(vars, value)})

    @classmethod
    def one(cls, pres, vars=()):
        return cls.from_scalar(pres, ONE, vars)

    @classmethod
    def generator(cls, pres, name, vars=()):
        if name not in pres.gens:
            raise PresentationError(f"unknown generator {name!r} in {pres.name}")
        return cls(pres, vars, {(name,): TimesPoly.one(vars)})

    @classmethod
    def from_times(cls, pres, tp):
        if tp.is_zero():
            return cls(pres, tp.vars)
        return cls(pres, tp.vars, {(): tp})

    @classmethod
    def word(cls, pres, letters, vars=(), coeff=ONE):
        """Build from a raw word and reduce it to normal form."""
        p = cls(pres, vars, {tuple(letters): TimesPoly.const(vars, coeff)})
        return normal_form(p)

    # -- basics -----------------------------------------------------------

    def _check(self, other):
        if self.pres is not other.pres:
            raise ValueError("presentations differ")
        if self.vars != other.vars:
            raise ValueError(f"variable sets differ: {self.vars} vs {other.vars}")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return (
            self.pres is other.pres
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for w, t in other.terms.items():
            _accumulate(out, w, t)
        return NCPoly(self.pres, self.vars, out)

    def __neg__(self):
        return NCPoly(self.pres, self.vars, {w: -t for w, t in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, QScalar):
            return self.scale(other)
        if isinstance(other, TimesPoly):
            return self.mul_times(other)
        return self.mul(other)

    def mul(self, other):
        self._check(other)
        out = {}
        pres = self.pres
        budget = [_DEFAULT_STEP_BUDGET]
        for w1, t1 in self.terms.items():
            for w2, t2 in other.terms.items():
                t = t1 * t2
                if t.is_zero():
                    continue
                for w, c in pres.reduce_word(w1 + w2, budget).items():
                    add = _times_laurent(t, c)
                    _accumulate(out, w, add)
        return NCPoly(self.pres, self.vars, out)

    def scale(self, c):
        return _map_terms(self, lambda t: t.scale(c))

    def mul_times(self, tp):
        return _map_terms(self, lambda t: t * tp)

    def scale_var(self, name, factor):
        return _map_terms(self, lambda t: t.scale_var(name, factor))

    def map_coefficients(self, fn):
        return _map_terms(self, lambda t: t.map_coefficients(fn))

    def __str__(self):
        if not self.terms:
            return "0"
        pres = self.pres
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), tuple(map(pres.gens.index, w)))):
            t = self.terms[w]
            word = "*".join(w)
            ts = str(t)
            if len(t.terms) > 1 or (word and _composite(ts)):
                ts = f"({ts})"
            if word and ts == "1":
                parts.append(word)
            else:
                parts.append(f"{ts}*{word}" if word else ts)
        return " + ".join(parts)

    def __repr__(self):
        return f"NCPoly({self})"


def _map_terms(p, fn):
    """The NCPoly with ``fn`` applied to each TimesPoly coefficient of p, the
    words whose image is zero dropped."""
    out = {}
    for w, t in p.terms.items():
        s = fn(t)
        if not s.is_zero():
            out[w] = s
    return NCPoly(p.pres, p.vars, out)


def _composite(text):
    """True when a rendered coefficient needs wrapping next to '*'."""
    return any(ch in "+*/" for ch in text) or "-" in text[1:]


def _times_laurent(t, c):
    """The TimesPoly t times the nonzero Laurent polynomial c: where a
    normal form meets Q(q)."""
    return t if c == _LAURENT_ONE else t.scale(QScalar.from_terms(c))


def _word_lin(terms):
    """sum c X over the pairs (c, X) of ``terms``, c a Laurent polynomial
    and X a {normal word: Laurent} element, in the same form."""
    out = {}
    for c, X in terms:
        for w, x in X.items():
            _addmul(out.setdefault(w, {}), c, x)
    return _trim_words(out)


def _word_mul(pres, A, B):
    """A B for {normal word: Laurent} elements of ``pres``'s algebra,
    reduced by ``reduce_word``: ``NCPoly.mul`` over Z[q, q^-1], with no
    QScalar."""
    return _word_lin(
        (_laurent_mul(c1, c2), pres.reduce_word(w1 + w2)) for w1, c1 in A.items() for w2, c2 in B.items()
    )


def normal_form(p):
    """The NCPoly ``p`` with every word reduced to normal form in its
    presentation (an NCPoly already in normal form is returned equal)."""
    pres = p.pres
    out = {}
    budget = [_DEFAULT_STEP_BUDGET]
    for w, t in p.terms.items():
        for ww, c in pres.reduce_word(w, budget).items():
            add = _times_laurent(t, c)
            _accumulate(out, ww, add)
    return NCPoly(pres, p.vars, out)


# ---------------------------------------------------------------------------
# confluence by the diamond lemma
# ---------------------------------------------------------------------------


def check_local_confluence(pres):
    """Prove that every word has one normal form in ``pres``, at every length.

    By Bergman's diamond lemma (Bergman 1978, *The diamond lemma for ring
    theory*, Adv. Math. 29, Thm 1.2; cf. Newman's lemma, 1942), a system whose
    rules all decrease a well-founded order compatible with concatenation is
    confluent iff all its ambiguities resolve.  The order is (weight,
    inversions against ``pres.gens``), compared lexicographically in N x N; a
    letter weighs 1 if it occurs in the left side of a rule whose right side
    changes the multiset of letters.  Each right-side word must be lighter
    than its left side, or have the same letters and fewer inversions: both
    survive concatenation, so a wrong weight can only give a FAIL.  Left
    sides have two letters, so the ambiguities are the overlaps xyz (xy and
    yz both left sides) and the left sides carrying two rules; every one-step
    reduction of each is reduced to normal form, and all must agree.
    """
    rank = {g: i for i, g in enumerate(pres.gens)}
    rules = pres.rule_list
    heavy = {g for lhs, rhs in rules for g in lhs if any(sorted(w) != sorted(lhs) for w in rhs)}

    def weight(w):
        return sum(g in heavy for g in w)

    def inversions(w):
        return sum(rank[u] > rank[v] for i, u in enumerate(w) for v in w[i + 1 :])

    order = (
        f"order: (weight, inversions against {' < '.join(pres.gens)}), "
        f"weight 1 on {', '.join(g for g in pres.gens if g in heavy) or 'no letter'}"
    )
    unordered = [
        f"{'*'.join(lhs)} -> {'*'.join(w) or '1'}"
        for lhs, rhs in rules
        for w in rhs
        if not weight(w) < weight(lhs)
        and not (sorted(w) == sorted(lhs) and inversions(w) < inversions(lhs))
    ]
    if unordered:
        return VerificationReport.from_failures(
            [f"rules that do not decrease the order: {', '.join(unordered)}"], details=[order]
        )
    lefts = list(dict.fromkeys(lhs for lhs, _ in rules))
    ambiguities = [(x, y, z) for x, y in lefts for y2, z in lefts if y2 == y]
    ambiguities += [lhs for lhs in lefts if [l for l, _ in rules].count(lhs) > 1]
    divergent = []
    for word in ambiguities:
        normals = []
        for _, combo in pres.one_step_reductions(word):
            nf = {}
            for w, c in combo.items():
                for w2, c2 in pres.reduce_word(w).items():
                    _addmul(nf.setdefault(w2, {}), c, c2)
            normals.append(_trim_words(nf))
        if any(nf != normals[0] for nf in normals[1:]):
            divergent.append("*".join(word))
    return VerificationReport.from_failures(
        [f"divergent ambiguities: {', '.join(divergent)}"] if divergent else [],
        details=[order, "ambiguities: " + (", ".join("*".join(w) for w in ambiguities) or "none")],
    )


# ---------------------------------------------------------------------------
# built-in presentations
# ---------------------------------------------------------------------------

_Q = QScalar.q_power(1)
_QI = QScalar.q_power(-1)


@cache
def funq_sl2():
    """Quantized coordinate ring of SL2 on generators a, b, c, d.

    Defining relations: ab = q^-1 ba, ac = q^-1 ca, bd = q^-1 db,
    cd = q^-1 dc, bc = cb, ad - q^-1 bc = da - q bc = 1.

    The rewrite order places d directly after a so that any word containing
    both a and d exposes the reducible pair after sorting; with the textbook
    order a<b<c<d the word b*a*d has two reducts with distinct normal forms
    (the a..d pair hides behind b), so that system is not confluent.  Normal
    words here are a^i b^j c^k and d^l b^j c^k, a PBW basis, and the rules
    give their products in closed form (:func:`funq_sl2_blocks`): b and c
    pass a^m at q^m and d^m at q^-m, and d^n a^m, a^n d^m expand by the
    q-binomial theorem into a^|n-m| or d^|n-m| times a polynomial in bc.
    """
    return Presentation(
        "funq_sl2",
        ("a", "d", "b", "c"),
        {
            ("d", "a"): {(): ONE, ("b", "c"): _Q},
            ("a", "d"): {(): ONE, ("b", "c"): _QI},
            ("b", "a"): {("a", "b"): _Q},
            ("c", "a"): {("a", "c"): _Q},
            ("b", "d"): {("d", "b"): _QI},
            ("c", "d"): {("d", "c"): _QI},
            ("c", "b"): {("b", "c"): ONE},
        },
    )


@cache
def _q2_binomial(n, k):
    """The Gaussian binomial [n choose k]_{q^2} as {q-exponent: int}, by the q-Pascal rule."""
    if k in (0, n):
        return {0: 1}
    return _addmul(dict(_q2_binomial(n - 1, k - 1)), {2 * k: 1}, _q2_binomial(n - 1, k))


@cache
def funq_sl2_blocks(x, n, y, m):
    """The product of the PBW blocks x^n and y^m of funq_sl2, x, y in {a, d}:
    with z = bc,

        (x^n b^i c^k)(y^m b^i' c^k') = q^(twist (i+k)) sum_r c_r w^e b^(i+i'+r) c^(k+k'+r),

    returned as (w, e, twist, ((r, c_r), ...)) with each c_r a {q-exponent:
    int}; a block of power 0 is ("a", 0).  b and c pass a at q and d at
    q^-1 (ba = q ab, bd = q^-1 db, and c alike), so twist = m for y = a and
    -m for y = d.  For x = y, n = 0 or m = 0, w^e = x^n y^m and c_0 = 1.
    Otherwise, with p = min(n, m) and w the letter of the larger power,
    d^n a^m = w^|n-m| prod_{s<p} (1 + q^(base+2s) z) with base = 2(m-p)+1,
    and a^n d^m alike with base = -(2m-1) (Klimyk-Schmudgen 1997, 4.1); the
    q-binomial theorem prod_{s<p} (1 + q^(2s) t) = sum_r q^(r(r-1))
    [p choose r]_{q^2} t^r (Gasper-Rahman, ch. 1) then gives
    c_r = q^(r base + r(r-1)) [p choose r]_{q^2}, whose l1 norms sum to 2^p.
    """
    twist = m if y == "a" else -m
    if x == y or not n or not m:
        e = n + m
        return (x if n else y) if e else "a", e, twist, ((0, _LAURENT_ONE),)
    p = min(n, m)
    base = 2 * (m - p) + 1 if x == "d" else 1 - 2 * m
    w = "a" if n == m else x if n > m else y
    zs = tuple(
        (r, {e + r * base + r * (r - 1): v for e, v in _q2_binomial(p, r).items()}) for r in range(p + 1)
    )
    return w, abs(n - m), twist, zs


#: The q <-> q^-1 convention toggle for the Gauss parameter algebra.  The
#: setting "q_inverse" (Q s = q^-1 s Q) is the one on which the quantized-SL2
#: relations hold for the factorized group-like element; it is frozen as the
#: default after that check (see funq.verify_gauss_relations).
GAUSS_CONVENTIONS = ("q_inverse", "q")
FROZEN_GAUSS_CONVENTION = "q_inverse"


def gauss_param(convention=FROZEN_GAUSS_CONVENTION):
    """Parameter algebra for the factorized group-like element.

    Generators: commuting parameters s, sbar and an invertible Q with
    Q s = q^c s Q, Q sbar = q^c sbar Q where c = -1 for the frozen
    convention "q_inverse" and c = +1 for "q".
    """
    if convention not in GAUSS_CONVENTIONS:
        raise ValueError(f"unknown gauss convention {convention!r}")
    return _gauss_param(convention)


@cache
def _gauss_param(convention):
    qc = _QI if convention == "q_inverse" else _Q
    qci = _Q if convention == "q_inverse" else _QI
    return Presentation(
        f"gauss_param_{convention}",
        ("s", "sbar", "Q", "Qinv"),
        {
            ("sbar", "s"): {("s", "sbar"): ONE},
            ("Q", "s"): {("s", "Q"): qc},
            ("Q", "sbar"): {("sbar", "Q"): qc},
            ("Qinv", "s"): {("s", "Qinv"): qci},
            ("Qinv", "sbar"): {("sbar", "Qinv"): qci},
        },
        unit_pairs=(("Q", "Qinv"),),
    )


@cache
def q_commuting_pair():
    """Two generators with y x = q x y (the q-exponential addition-theorem
    algebra)."""
    return Presentation(
        "q_pair",
        ("x", "y"),
        {("y", "x"): {("x", "y"): _Q}},
    )
