"""Integer-polynomial kernels.

These are the innermost loops of every exact computation in the package:

* ordinary polynomials in q with arbitrary-precision integer coefficients,
  represented as ``{exponent: coefficient}`` dicts with nonnegative
  exponents and no zero values;
* integer polynomials in several variables with packed monomials,
  ``{packed exponents: coefficient}``: one int holds the exponent tuple in
  fixed-width bit fields, so adding two keys multiplies the monomials as
  long as no field overflows.  Callers take the width from a degree bound.
  A Laurent polynomial ``{q-exponent: int}`` is the one-variable case
  with exponents of either sign, so ``_addmul`` multiplies those too;
* Laurent polynomials Kronecker-packed in q (Kronecker 1882): one int, the
  polynomial's value at q = 2^B.  Evaluation at 2^B is a ring homomorphism,
  so sums, products and exact quotients of the ints are exact at any size;
  a bound on the coefficients is needed only to test for zero and decode.
"""

from math import gcd

# recorded with benchmark results, which are only compared within one backend
BACKEND = "pure"


def ipoly_lin(a, ka, b, kb):
    """ka*a + kb*b."""
    out = {}
    if ka:
        for e, c in a.items():
            out[e] = ka * c
    if kb:
        for e, c in b.items():
            s = out.get(e, 0) + kb * c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def ipoly_mul(a, b):
    if not a or not b:
        return {}
    # dense convolution over the occupied exponent span; polys in q are
    # near-dense in practice, so this beats dict-of-dict accumulation
    amin = min(a)
    amax = max(a)
    bmin = min(b)
    bmax = max(b)
    da = amax - amin
    db = bmax - bmin
    va = [0] * (da + 1)
    for e, c in a.items():
        va[e - amin] = c
    vb = [0] * (db + 1)
    for e, c in b.items():
        vb[e - bmin] = c
    vo = [0] * (da + db + 1)
    for i, ca in enumerate(va):
        if ca:
            for j, cb in enumerate(vb):
                if cb:
                    vo[i + j] += ca * cb
    base = amin + bmin
    return {base + i: c for i, c in enumerate(vo) if c}


def ipoly_signed_content(a):
    """The content of a nonzero polynomial (the gcd of its coefficients),
    negated when the leading coefficient is negative: a divided by it is
    primitive with a positive leading coefficient."""
    g = 0
    for c in a.values():
        g = gcd(g, c)
        if g == 1:
            break
    return -g if a[max(a)] < 0 else g


def ipoly_divexact(a, b):
    """Exact division a // b; raises ValueError if the division has a remainder."""
    if not b:
        raise ValueError("division by zero polynomial")
    if not a:
        return {}
    r = dict(a)
    db = max(b)
    lb = b[db]
    out = {}
    while r:
        dr = max(r)
        if dr < db:
            raise ValueError("inexact polynomial division")
        lr = r[dr]
        q, rem = divmod(lr, lb)
        if rem:
            raise ValueError("inexact polynomial division")
        out[dr - db] = q
        for e, c in b.items():
            ee = e + dr - db
            s = r.get(ee, 0) - q * c
            if s:
                r[ee] = s
            else:
                r.pop(ee, None)
    return out


def _primitive(a):
    c = ipoly_signed_content(a)
    if c != 1:
        a = {e: v // c for e, v in a.items()}
    return a


def ipoly_gcd(a, b):
    """Primitive gcd in Z[q] with positive leading coefficient.

    Primitive pseudo-remainder sequence; inputs need not be primitive.  When
    one argument is a single term c*q^k (every denominator of a q-shifted
    Laurent polynomial is one), the primitive gcd is q^min(k, ord_q(other))
    and is returned without a remainder sequence.
    """
    if not a:
        return _primitive(dict(b)) if b else {}
    if not b:
        return _primitive(dict(a))
    if len(a) == 1 or len(b) == 1:
        return {min(min(a), min(b)): 1}
    a = _primitive(dict(a))
    b = _primitive(dict(b))
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = ipoly_prem(a, b)
        a, b = b, (_primitive(r) if r else {})
    return a


def ipoly_prem(a, b):
    """Pseudo-remainder of a by b (b nonzero, deg a >= deg b not required)."""
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        shift = dr - db
        # r <- lb*r - lr*q^shift*b
        nr = {}
        for e, c in r.items():
            nr[e] = lb * c
        for e, c in b.items():
            ee = e + shift
            s = nr.get(ee, 0) - lr * c
            if s:
                nr[ee] = s
            else:
                nr.pop(ee, None)
        r = nr
    return r


def tup_add(e1, e2):
    return tuple(x + y for x, y in zip(e1, e2))


# ---------------------------------------------------------------------------
# integer polynomials with packed monomials: {packed exponents: int}
# ---------------------------------------------------------------------------


def _pack(mono, width):
    """Exponent tuple -> one int of ``width``-bit fields, variable i in
    field i counted from the low end."""
    return sum(e << (i * width) for i, e in enumerate(mono))


def _unpack(key, nvars, width):
    mask = (1 << width) - 1
    return tuple((key >> (i * width)) & mask for i in range(nvars))


def _addmul(acc, a, b, sign=1):
    """acc += sign * a * b; the sum of two packed monomials is their product
    as long as no field overflows.  Cancelled terms stay in acc as zeros."""
    get = acc.get
    for m1, c1 in a.items():
        c1 *= sign
        for m2, c2 in b.items():
            m = m1 + m2
            acc[m] = get(m, 0) + c1 * c2
    return acc


def _trim(p):
    return {m: c for m, c in p.items() if c}


# the Laurent polynomial 1, shared: no caller writes to it
_LAURENT_ONE = {0: 1}


def _laurent_mul(a, b):
    """a * b for nonzero Laurent polynomials {q-exponent: int} with no zero
    coefficients."""
    if len(a) == 1:
        ((k, m),) = a.items()
        return {e + k: m * v for e, v in b.items()}
    return _trim(_addmul({}, a, b))


def _trim_words(p):
    """{word: packed polynomial} with zero terms and then empty words dropped."""
    return {w: d for w, d in ((w, _trim(d)) for w, d in p.items()) if d}


# ---------------------------------------------------------------------------
# Laurent polynomials packed as their value at q = 2^bits
# ---------------------------------------------------------------------------


def _kronecker_bits(bound):
    """The digit width B of q = 2^B for polynomials whose coefficients are
    at most ``bound`` in absolute value: |c| <= bound < 2^(B-1), so each
    coefficient is one balanced base-2^B digit."""
    return bound.bit_length() + 1


# above this many terms a sum of shifted terms, quadratic in the output
# size, is slower than summing a dense digit list pairwise by halves
_ENCODE_PLAIN_TERMS = 32


def _encode(lau, bits, low):
    """q^-low times the Laurent polynomial ``lau`` ({q-exponent: int}, no
    exponent below ``low``), evaluated at q = 2^bits."""
    if len(lau) <= _ENCODE_PLAIN_TERMS:
        return sum(c << (bits * (e - low)) for e, c in lau.items())
    digits = [0] * (max(lau) - low + 1)
    for e, c in lau.items():
        digits[e - low] = c
    while len(digits) > 1:  # digits 2i and 2i + 1 join into one of twice the width
        if len(digits) & 1:
            digits.append(0)
        digits = [lo + (hi << bits) for lo, hi in zip(digits[::2], digits[1::2])]
        bits *= 2
    return digits[0]


def _decode(v, bits, low):
    """The Laurent polynomial that ``_encode(., bits, low)`` maps to ``v``:
    the balanced base-2^bits digits of v, lowest first.  Exact when every
    coefficient is below 2^(bits-1) in absolute value.

    Above ``_ENCODE_PLAIN_TERMS`` digits v splits by halves.  Each balanced
    digit d lies in [-2^(bits-1), 2^(bits-1)), so the low h digits plus
    off = sum_{i<h} 2^(bits-1) 2^(bits i) have the plain base-2^bits digits
    d + 2^(bits-1): the low part is ((v + off) mod 2^(bits h)) - off, and
    the high digits are those of (v - low part) >> (bits h).  Each level
    copies v a bounded number of times, where peeling one digit at a time
    copies it once per digit."""
    ndigits = abs(v).bit_length() // bits + 1
    if ndigits > _ENCODE_PLAIN_TERMS:
        h = ndigits // 2
        mask = (1 << (bits * h)) - 1
        off = mask // ((1 << bits) - 1) << (bits - 1)
        lo = ((v + off) & mask) - off
        out = _decode(lo, bits, low)
        out.update(_decode((v - lo) >> (bits * h), bits, low + h))
        return out
    base = 1 << bits
    half = base >> 1
    out = {}
    e = low
    while v:
        d = v & (base - 1)
        if d >= half:
            d -= base
        if d:
            out[e] = d
        v = (v - d) >> bits
        e += 1
    return out
