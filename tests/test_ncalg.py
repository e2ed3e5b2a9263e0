import math
import random
from fractions import Fraction

import pytest

from tau_forge import funq, ncalg, qhirota
from tau_forge.cli import run_check
from tau_forge.ncalg import (
    NCPoly,
    Presentation,
    PresentationError,
    TimesPoly,
    check_local_confluence,
    funq_sl2,
    funq_sl2_blocks,
    gauss_param,
    normal_form,
    q_commuting_pair,
)
from tau_forge.qscalar import ONE, Q, QINV, QScalar, paren_factorial, qs
from test_funq import _mutate
from test_qhirota import LM_GRID

PRES = funq_sl2()


def word(letters, coeff=ONE):
    return NCPoly.word(PRES, letters, coeff=coeff)


def test_normal_form_examples():
    assert word("ba") == word("ab", coeff=Q)
    assert word("da") == NCPoly.one(PRES) + word("bc", coeff=Q)
    assert word("ad") == NCPoly.one(PRES) + word("bc", coeff=QINV)
    # unit law: a times the empty word
    a = NCPoly.generator(PRES, "a")
    assert a.mul(NCPoly.one(PRES)) == a


def test_normal_form_idempotent():
    p = word("dcba")
    assert normal_form(p) == p


def test_defining_relations_normal_to_zero():
    a, b, c, d = (NCPoly.generator(PRES, g) for g in "abcd")
    relations = [
        a.mul(b) - b.mul(a).scale(QINV),
        a.mul(c) - c.mul(a).scale(QINV),
        b.mul(d) - d.mul(b).scale(QINV),
        c.mul(d) - d.mul(c).scale(QINV),
        b.mul(c) - c.mul(b),
        a.mul(d) - b.mul(c).scale(QINV) - NCPoly.one(PRES),
        d.mul(a) - b.mul(c).scale(Q) - NCPoly.one(PRES),
    ]
    for rel in relations:
        assert rel.is_zero()


def test_single_relation_application_invariant():
    # rewriting da inside a longer word must not change the normal form
    lhs = word("bdac")
    rhs = word("bc") + word("bbcc", coeff=Q)
    assert lhs == rhs


def test_confluence_builtins():
    from tau_forge.qhirota import commutative_sl2

    for pres in (funq_sl2(), gauss_param(), gauss_param("q"), commutative_sl2()):
        report = check_local_confluence(pres)
        assert report.verdict, (pres.name, report.residual)
        assert len(report.details[1].split(", ")) == 8
    # y x -> q x y has no overlap: confluent with nothing to resolve
    report = check_local_confluence(q_commuting_pair())
    assert report.verdict
    assert report.details == [
        "order: (weight, inversions against x < y), weight 1 on no letter",
        "ambiguities: none",
    ]


def test_confluence_report_names_order_and_ambiguities():
    report = check_local_confluence(funq_sl2())
    assert report.details == [
        "order: (weight, inversions against a < d < b < c), weight 1 on a, d",
        "ambiguities: d*a*d, a*d*a, b*a*d, c*a*d, b*d*a, c*d*a, c*b*a, c*b*d",
    ]
    assert check_local_confluence(gauss_param()).details[0] == (
        "order: (weight, inversions against s < sbar < Q < Qinv), weight 1 on Q, Qinv"
    )


def _funq_variant(change):
    """funq_sl2 with ``change`` applied to its {left side: {word: Laurent}} rules."""
    rules = {lhs: dict(rhs) for lhs, rhs in PRES.rule_list}
    change(rules)
    return Presentation(
        "funq_sl2_mutant",
        PRES.gens,
        {lhs: {w: QScalar.from_terms(c) for w, c in rhs.items()} for lhs, rhs in rules.items()},
    )


@pytest.mark.parametrize(
    "lhs, divergent",
    [
        (("d", "a"), "d*a*d, a*d*a"),
        (("a", "d"), "d*a*d, a*d*a"),
        (("b", "a"), "a*d*a, b*a*d, b*d*a"),
        (("c", "a"), "a*d*a, c*a*d, c*d*a"),
        (("b", "d"), "d*a*d, b*a*d, b*d*a"),
        (("c", "d"), "d*a*d, c*a*d, c*d*a"),
    ],
)
def test_confluence_catches_each_flipped_q_power(lhs, divergent):
    # ba -> q^-1 ab and cd -> q dc among these pass all of qliouville.suite
    def flip(rules):
        rules[lhs] = {w: {-e: v for e, v in c.items()} if w else c for w, c in rules[lhs].items()}

    report = check_local_confluence(_funq_variant(flip))
    assert not report.verdict
    assert report.residual == f"divergent ambiguities: {divergent}"


def test_confluence_fails_a_rule_against_the_order():
    # ba -> q ab turned round into ab -> q^-1 ba raises the inversion count
    def reverse(rules):
        del rules[("b", "a")]
        rules[("a", "b")] = {("b", "a"): {-1: 1}}

    report = check_local_confluence(_funq_variant(reverse))
    assert not report.verdict
    assert report.residual == "rules that do not decrease the order: a*b -> b*a"


def test_confluence_fails_a_growing_rule():
    # cb -> bbc adds a letter: b and c become heavy, and the right side is heavier
    def grow(rules):
        rules[("c", "b")] = {("b", "b", "c"): {0: 1}}

    report = check_local_confluence(_funq_variant(grow))
    assert not report.verdict
    assert "c*b -> b*b*c" in report.residual


def test_confluence_contradictory_rules():
    bad = Presentation(
        "bad",
        ("x", "y"),
        [
            (("y", "x"), {("x", "y"): ONE}),
            (("y", "x"), {("x", "y"): qs(2)}),
        ],
    )
    report = check_local_confluence(bad)
    assert not report.verdict
    assert report.residual == "divergent ambiguities: y*x"


def test_multiplicative_consistency_randomized():
    # reducing the raw concatenated word equals multiplying the two
    # already-reduced factors
    rng = random.Random(0)
    gens = PRES.gens
    for _ in range(60):
        w1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
        staged = NCPoly.word(PRES, w1).mul(NCPoly.word(PRES, w2))
        at_once = NCPoly.word(PRES, w1 + w2)
        assert staged == at_once


def test_single_step_preserves_normal_form():
    # any one application of a defining relation inside a word leaves the
    # normal form unchanged (the rewriting respects the ideal)
    rng = random.Random(7)
    for _ in range(40):
        w = tuple(rng.choice(PRES.gens) for _ in range(rng.randint(2, 6)))
        base = NCPoly.word(PRES, w)
        for _, combo in PRES.one_step_reductions(w):
            alt = sum(
                (NCPoly.word(PRES, w2, coeff=QScalar.from_terms(c)) for w2, c in combo.items()),
                NCPoly.zero(PRES),
            )
            assert alt == base


def test_counit_is_ring_map():
    from tau_forge.funq import counit_map

    rng = random.Random(1)
    eps = counit_map()
    gens = PRES.gens
    for _ in range(30):
        w1 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(gens) for _ in range(rng.randint(0, 4)))
        p = NCPoly.word(PRES, w1)
        r = NCPoly.word(PRES, w2)
        lhs = p.mul(r).apply_generator_map(eps)
        rhs = p.apply_generator_map(eps).mul(r.apply_generator_map(eps))
        assert lhs == rhs


def truncated(p, max_len):
    """The NCPoly p with its words longer than ``max_len`` dropped."""
    return NCPoly(p.pres, p.vars, {w: t for w, t in p.terms.items() if len(w) <= max_len})


def nc_exp_q(p, base_power, max_degree):
    """The q-exponential sum_n p^n / (n)_{q^base}! over Q(q), truncated at
    word length max_degree: the oracle of ``ncalg.qexp-addition``."""
    acc = pw = NCPoly.one(p.pres, p.vars)
    for n in range(1, max_degree + 1):
        pw = truncated(pw.mul(p), max_degree)
        acc = acc + pw.scale(paren_factorial(n, base_power).inv())
    return acc


def _q_pair_generators():
    pres = q_commuting_pair()
    return NCPoly.generator(pres, "x"), NCPoly.generator(pres, "y")


def test_qexp_addition_theorem():
    x, y = _q_pair_generators()
    deg = 8
    lhs = nc_exp_q(x + y, 1, deg)
    rhs = truncated(nc_exp_q(x, 1, deg).mul(nc_exp_q(y, 1, deg)), deg)
    assert (lhs - rhs).is_zero()


def test_qexp_addition_degree_parts_are_the_q_binomial_sums():
    # the check's route: the oracle's degree-n part times (n)_q! is both
    # (x + y)^n and sum_k [n choose k]_q x^k y^(n-k), [n choose k]_q being
    # _q2_binomial at half the exponents
    x, y = _q_pair_generators()
    pres, deg = x.pres, 8
    exp_sum = nc_exp_q(x + y, 1, deg)
    power = NCPoly.one(pres)
    for n in range(1, deg + 1):
        power = power.mul(x + y)
        part = NCPoly(pres, (), {w: t for w, t in exp_sum.terms.items() if len(w) == n})
        binomials = [QScalar.from_terms({e // 2: v for e, v in ncalg._q2_binomial(n, k).items()}) for k in range(n + 1)]
        expansion = NCPoly.zero(pres)
        for k, c in enumerate(binomials):
            expansion = expansion + NCPoly.word(pres, ("x",) * k + ("y",) * (n - k), coeff=c)
        assert part.scale(paren_factorial(n, 1)) == power == expansion, n
        assert [c.eval_q1() for c in binomials] == [math.comb(n, k) for k in range(n + 1)]
    (report,) = run_check("ncalg.qexp-addition")
    assert report.verdict and report.details == []


def _qexp_failing_degrees(report):
    assert not report.verdict
    return [int(d.split(":")[0].removeprefix("degree ")) for d in report.details]


def test_qexp_addition_fails_with_one_binomial_in_base_q2(monkeypatch, fresh_caches):
    # [3 choose 1] = 1 + q + q^2 replaced by 1 + q^2 + q^4
    binomial = ncalg._q2_binomial

    def mutant(n, k):
        b = binomial(n, k)
        return {2 * e: v for e, v in b.items()} if (n, k) == (3, 1) else b

    monkeypatch.setattr(ncalg, "_q2_binomial", mutant)
    (report,) = run_check("ncalg.qexp-addition", {"degree": 3})
    assert _qexp_failing_degrees(report) == [3]
    assert report.details[0].startswith("degree 3: (x+y)^3 - sum_k [3 choose k]_q x^k y^(3-k) = ")


def test_qexp_addition_fails_with_every_binomial_in_base_q2(monkeypatch, fresh_caches):
    from tau_forge import cli

    run = _mutate(monkeypatch, cli, "run_qexp_addition", "{e // 2: v", "{e: v")
    assert _qexp_failing_degrees(run({"degree": 8})) == [2, 3, 4, 5, 6, 7, 8]


def test_qexp_addition_fails_with_the_pair_rule_at_q_inverse(monkeypatch, fresh_caches):
    # y x = q^-1 x y in place of y x = q x y
    _mutate(monkeypatch, ncalg, "q_commuting_pair", ": _Q}", ": _QI}")
    assert ncalg.q_commuting_pair().rules[("y", "x")] == {("x", "y"): {-1: 1}}
    (report,) = run_check("ncalg.qexp-addition")
    assert _qexp_failing_degrees(report) == [2, 3, 4, 5, 6, 7, 8]


def test_q_commuting_pair_is_built_once(fresh_caches):
    pres = q_commuting_pair()
    assert q_commuting_pair() is pres
    run_check("ncalg.qexp-addition")
    # the warm check reduces no word again
    memo = dict(pres._memo)
    run_check("ncalg.qexp-addition")
    assert pres._memo == memo and memo


def test_step_budget_guards_nontermination():
    # x y -> q y x together with y x -> q x y ping-pongs forever
    loop = Presentation(
        "loop",
        ("x", "y"),
        {
            ("x", "y"): {("y", "x"): Q},
            ("y", "x"): {("x", "y"): Q},
        },
    )
    with pytest.raises(PresentationError):
        NCPoly.word(loop, ("x", "y"))


def test_unknown_generator():
    with pytest.raises(PresentationError):
        NCPoly.generator(PRES, "z")
    with pytest.raises(PresentationError):
        Presentation("oops", ("x",), {("x", "w"): {(): ONE}})


def test_times_variables_commute_through_words():
    vars = ("t",)
    a = NCPoly.generator(PRES, "a", vars)
    t = TimesPoly.var(vars, "t")
    left = a.mul_times(t).mul(a)
    right = a.mul(a.mul_times(t))
    assert left == right


def test_render_sample():
    # the text a FAIL residual prints
    vars = ("u",)
    p = (
        NCPoly.word(PRES, ("d", "a"), vars)
        .mul(NCPoly.generator(PRES, "b", vars))
        .mul_times(TimesPoly.var(vars, "u"))
        + NCPoly.from_scalar(PRES, Q + QINV, vars)
    )
    assert str(p) == "(q^2+1)/q + u*b + (q*u)*b*b*c"


def test_rendering_deterministic_order():
    p = word("da")
    assert str(p) == "1 + q*b*c"


def test_timespoly_ops():
    vars = ("u", "x")
    u = TimesPoly.var(vars, "u")
    x = TimesPoly.var(vars, "x")
    p = (u + x) * (u - x)
    assert p == u * u - x * x
    assert p.derivative("u") == u + u
    assert p.scale_var("u", Q).coefficient((2, 0)) == Q * Q
    q = p.subs_var_scaled("x", "u", Q)
    assert q == u * u - (u * u).scale(Q * Q)


@pytest.mark.parametrize("coeff", [Fraction(1, 2), (ONE + Q).inv()])
def test_rule_coefficient_must_be_an_integer_laurent_polynomial(coeff):
    with pytest.raises(PresentationError, match=r"rule b\*a .*not an integer Laurent"):
        Presentation("half", ("a", "b"), {("b", "a"): {("a", "b"): coeff}})


def _raise(*args):
    raise AssertionError("QScalar arithmetic while rewriting")


def test_cold_reduction_does_no_qscalar_arithmetic(monkeypatch):
    fresh = Presentation(
        "funq_sl2_fresh",
        PRES.gens,
        {pair: {w: QScalar.from_terms(c) for w, c in rhs.items()} for pair, rhs in PRES.rules.items()},
    )
    rng = random.Random(11)
    words = [tuple(rng.choice(PRES.gens) for _ in range(rng.randint(2, 9))) for _ in range(40)]
    monkeypatch.setattr(QScalar, "__mul__", _raise)
    monkeypatch.setattr(QScalar, "__add__", _raise)
    for w in words:
        assert fresh.reduce_word(w) == PRES.reduce_word(w)
    assert len(fresh._memo) > len(words)


def _pbw(x, n, i, k):
    return (x,) * n + ("b",) * i + ("c",) * k


# every normal word x^n b^i c^k of funq_sl2 of length at most 6
PBW_WORDS = [
    (x, n, i, k)
    for n in range(7)
    for x in (("a", "d") if n else ("a",))
    for i in range(7 - n)
    for k in range(7 - n - i)
]


def _block_mismatches(blocks):
    """Pairs of PBW_WORDS whose product by the closed form ``blocks``
    differs from their concatenation rewritten by ``reduce_word``."""
    bad = 0
    for x, n, i, k in PBW_WORDS:
        for y, m, i2, k2 in PBW_WORDS:
            w, e, twist, zs = blocks(x, n, y, m)
            closed = {
                _pbw(w, e, i + i2 + r, k + k2 + r): {s + twist * (i + k): v for s, v in c.items()}
                for r, c in zs
            }
            bad += closed != PRES.reduce_word(_pbw(x, n, i, k) + _pbw(y, m, i2, k2))
    return bad


def test_block_products_match_rewriting():
    assert len(PBW_WORDS) ** 2 == 19_600
    assert _block_mismatches(funq_sl2_blocks) == 0


def test_block_product_mutant_fails_rewriting_and_lm(fresh_caches, monkeypatch):
    # base of a^n d^m moved by one: -(2m-3) in place of -(2m-1)
    mutant = _mutate(monkeypatch, ncalg, "funq_sl2_blocks", "1 - 2 * m", "3 - 2 * m")
    assert _block_mismatches(mutant) > 0
    monkeypatch.setattr(funq, "funq_sl2_blocks", mutant)
    monkeypatch.setattr(qhirota, "funq_sl2_blocks", mutant)
    assert any(not qhirota.verify_lm(j, jp).verdict for j, jp in LM_GRID)
