import random
from collections import Counter
from math import gcd

from tau_forge import _kernels
from tau_forge._kernels import _decode, _encode, ipoly_gcd, ipoly_signed_content


# -- reference: the plain primitive pseudo-remainder sequence, no shortcuts --


def _ref_primitive(a):
    g = 0
    for c in a.values():
        g = gcd(g, c)
    if a[max(a)] < 0:
        g = -g
    return {e: c // g for e, c in a.items()}


def _ref_prem(a, b):
    db = max(b)
    lb = b[db]
    r = dict(a)
    while r and max(r) >= db:
        dr = max(r)
        lr = r[dr]
        nr = {e: lb * c for e, c in r.items()}
        for e, c in b.items():
            ee = e + dr - db
            nr[ee] = nr.get(ee, 0) - lr * c
        r = {e: c for e, c in nr.items() if c}
    return r


def _ref_gcd(a, b):
    if not a:
        return _ref_primitive(b) if b else {}
    if not b:
        return _ref_primitive(a)
    a, b = _ref_primitive(a), _ref_primitive(b)
    if max(a) < max(b):
        a, b = b, a
    while b:
        r = _ref_prem(a, b)
        a, b = b, (_ref_primitive(r) if r else {})
    return a


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


# -- generated pairs -----------------------------------------------------------

_KINDS = ("zero", "monomial", "poly")


def _random_poly(rng, kind):
    if kind == "zero":
        return {}
    sign = rng.choice((1, -1))
    content = rng.choice((1, 1, 2, 3, 6, 10))
    shift = rng.randrange(5)
    if kind == "monomial":
        return {shift: sign * content * rng.randrange(1, 5)}
    out = {}
    while len(out) < 2:
        out = {shift + rng.randrange(7): rng.randrange(-4, 5) for _ in range(rng.randrange(2, 6))}
        out = {e: c for e, c in out.items() if c}
    return {e: sign * content * c for e, c in out.items()}


def _cases(n, seed):
    rng = random.Random(seed)
    for _ in range(n):
        ka, kb = rng.choice(_KINDS), rng.choice(_KINDS)
        a, b = _random_poly(rng, ka), _random_poly(rng, kb)
        if a and b and rng.random() < 0.4:
            # a common factor, often a bare q-power, shared by both sides
            common = _random_poly(rng, rng.choice(("monomial", "poly")))
            a, b = _ref_mul(a, common), _ref_mul(b, common)
        yield a, b


def _features(a, b, g):
    feats = set()
    for p in (a, b):
        if not p:
            feats.add("zero")
        elif len(p) == 1:
            feats.add("monomial")
        if p and p[max(p)] < 0:
            feats.add("negative leading")
        if p and abs(p[max(p)] // _ref_primitive(p)[max(p)]) > 1:
            feats.add("content")
    if a and b and len(a) == 1 and len(b) == 1:
        feats.add("both monomial")
    if a and b and min(a) and min(b):
        feats.add("shared q-power")
    if a and b and len(g) > 1:
        feats.add("nontrivial gcd")
    return feats


def test_ipoly_gcd_matches_prs_reference():
    seen = Counter()
    n = 0
    for a, b in _cases(12000, seed=20261018):
        a_in, b_in = dict(a), dict(b)
        expect = _ref_gcd(a, b)
        assert ipoly_gcd(a, b) == expect, (a, b)
        assert ipoly_gcd(b, a) == expect, (b, a)
        assert (a, b) == (a_in, b_in), "ipoly_gcd mutated its arguments"
        seen.update(_features(a, b, expect))
        n += 1
    assert n >= 10000
    for feat in ("zero", "monomial", "both monomial", "shared q-power",
                 "negative leading", "content", "nontrivial gcd"):
        assert seen[feat] >= 100, (feat, seen)


def test_ipoly_gcd_monomial_cases():
    assert ipoly_gcd({3: -6}, {1: 4, 5: 2}) == {1: 1}
    assert ipoly_gcd({0: 5}, {2: 3, 4: 1}) == {0: 1}
    assert ipoly_gcd({2: 3, 4: -1}, {7: -2}) == {2: 1}
    assert ipoly_gcd({4: 2}, {6: -9}) == {4: 1}
    assert ipoly_gcd({}, {3: -4}) == {3: 1}
    assert ipoly_gcd({}, {}) == {}


def test_signed_content_leaves_the_reference_primitive_part():
    # QScalar._make and the gcd both normalise through this one routine
    for a, b in _cases(2000, seed=7):
        for p in (a, b):
            if p:
                c = ipoly_signed_content(p)
                assert {e: v // c for e, v in p.items()} == _ref_primitive(p), p


# -- Kronecker packing: the pairwise sum against the plain shifted sum ----------


def _plain_encode(lau, bits, low):
    return sum(c << (bits * (e - low)) for e, c in lau.items())


def _encode_cases():
    """(lau, bits, low): seeded signed inputs below, at and above the term
    count where ``_encode`` leaves the plain sum, plus sparse, one-term and
    empty ones."""
    rng = random.Random(27)
    top = _kernels._ENCODE_PLAIN_TERMS
    for terms in (2, top - 1, top, top + 1, 2 * top + 1, 100, 1000):
        for bits in (3, 64, 250):
            low = rng.randint(-5, 5)
            lau = {low + e: rng.randint(-(1 << (bits - 1)) + 1, (1 << (bits - 1)) - 1) for e in range(terms)}
            yield lau, bits, low
            yield {e: c for e, c in lau.items() if c}, bits, low - rng.randint(0, 3)
    for terms in (top + 1, 3 * top):  # sparse: long zero runs between terms
        spots = rng.sample(range(20 * terms), terms)
        yield {e: rng.choice((-1, 1)) * rng.randint(1, 1 << 40) for e in spots}, 42, 0
    yield {7: -5}, 4, 2
    yield {}, 10, 0


def test_encode_equals_the_plain_shifted_sum():
    longs = 0
    for lau, bits, low in _encode_cases():
        v = _encode(lau, bits, low)
        assert v == _plain_encode(lau, bits, low), (len(lau), bits, low)
        if all(abs(c) < 1 << (bits - 1) for c in lau.values()):
            assert _decode(v, bits, low) == {e: c for e, c in lau.items() if c}
        longs += len(lau) > _kernels._ENCODE_PLAIN_TERMS
    assert longs >= 20


def _plain_decode(v, bits, low):
    """The balanced digits of v peeled one at a time."""
    base, half, out, e = 1 << bits, 1 << (bits - 1), {}, low
    while v:
        d = v & (base - 1)
        if d >= half:
            d -= base
        if d:
            out[e] = d
        v = (v - d) >> bits
        e += 1
    return out


def test_decode_by_halves_equals_the_plain_loop():
    # the extreme digits -2^(bits-1) and 2^(bits-1) - 1 are where a split
    # point taken as a symmetric balanced residue goes wrong
    rng = random.Random(29)
    top = _kernels._ENCODE_PLAIN_TERMS
    splits = 0
    for terms in (1, 2, top - 1, top, top + 1, 2 * top + 3, 300):
        for bits in (2, 3, 8, 61):
            half = 1 << (bits - 1)
            for _ in range(4):
                digits = [rng.choice((-half, half - 1, -half + 1, 0, 0, rng.randint(-half, half - 1))) for _ in range(terms)]
                if rng.random() < 0.3:  # a zero run
                    a = rng.randrange(terms)
                    digits[a:a + terms // 3] = [0] * len(digits[a:a + terms // 3])
                low = rng.randint(-6, 6)
                lau = {low + e: c for e, c in enumerate(digits) if c}
                v = _encode(lau, bits, low)
                assert _decode(v, bits, low) == _plain_decode(v, bits, low) == lau, (terms, bits, low)
                splits += abs(v).bit_length() // bits >= top
    assert splits >= 20
    for v in (0, 1, -1, 1 << 700, -(1 << 700)):
        assert _decode(v, 7, 3) == _plain_decode(v, 7, 3)
