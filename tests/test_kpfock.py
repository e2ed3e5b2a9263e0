import copy
import random
from fractions import Fraction
from functools import cache
from math import comb, factorial, perm, prod

import pytest

from tau_forge.cli import run_check
from tau_forge.kpfock import (
    BoundaryError,
    FockSpace,
    GroupElementSpec,
    _Layout,
    _krawtchouk_row,
    _mul_capped,
    _pair_image,
    _schur_table,
    _sum_diff_product,
    _tau,
    _var_names,
    apply_fermion,
    apply_flow_generator,
    cauchy_pair,
    h6_residual,
    m3_residual,
    m4_residual,
    schur_pair_caps,
    tau_kp,
    verify_hirota_kp,
)
from tau_forge.ncalg import TimesPoly
from tau_forge.qscalar import ONE, qs


def unit_vec(space, state):
    return {state: 1}


def test_vacuum_and_partitions():
    sp = FockSpace(8)
    assert sp.vacuum(0) == sum(1 << (m + 8) for m in range(-8, 0))
    assert sp.charge(sp.vacuum(2)) == 2
    st = sp.state_from_partition(0, (3, 1))
    assert sp.partition_of_state(st) == (0, (3, 1))


def test_partition_with_more_parts_than_particles_does_not_fit():
    # the charge-n window holds M + n particles; a part past them would
    # empty a mode below the window, so it cannot be dropped silently
    sp = FockSpace(3)
    assert sp.partition_of_state(sp.state_from_partition(0, (1, 1, 1))) == (0, (1, 1, 1))
    assert sp.partition_of_state(sp.state_from_partition(0, (2, 1, 0, 0))) == (0, (2, 1))
    for n, partition in ((0, (1, 1, 1, 1)), (-3, (1,)), (-2, (2, 1)), (-4, ())):
        with pytest.raises(BoundaryError, match="does not fit the window"):
            sp.state_from_partition(n, partition)


def test_vacuum_charge_bounds():
    # the window [-M, M-1] holds M + n modes of the charge-n vacuum, so
    # -M <= n <= M; above M the modes would leave the window
    sp = FockSpace(4)
    assert sp.vacuum(-4) == 0
    assert sp.vacuum(4) == sum(1 << (m + 4) for m in range(-4, 4))
    for n in (-5, 5, 6):
        with pytest.raises(ValueError):
            sp.vacuum(n)


def test_hole_creation_sign():
    sp = FockSpace(8)
    vec = apply_fermion(sp, "psi_star", -1, unit_vec(sp, sp.vacuum(0)))
    (state, coeff), = vec.items()
    assert sp.charge(state) == -1
    assert coeff == 1  # no occupied modes above -1


def test_particle_move_gives_partition_one():
    sp = FockSpace(8)
    vec = apply_fermion(sp, "psi_star", -1, unit_vec(sp, sp.vacuum(0)))
    vec = apply_fermion(sp, "psi", 0, vec)
    (state, coeff), = vec.items()
    assert sp.partition_of_state(state) == (0, (1,))
    assert coeff == 1


def test_double_insertion_vanishes():
    sp = FockSpace(8)
    vec = apply_fermion(sp, "psi_star", -1, unit_vec(sp, sp.vacuum(0)))
    vec = apply_fermion(sp, "psi", 1, vec)
    assert apply_fermion(sp, "psi", 1, vec) == {}


def test_group_element_refuses_a_diagonal_factor():
    # (psi_i psi*_i)^2 != 0, so exp(theta psi_i psi*_i) is not 1 + theta
    # psi_i psi*_i; the spec refuses it when built, before any window is
    # derived from its mode span
    with pytest.raises(ValueError, match="i != j"):
        GroupElementSpec.single(1, 0, 0)
    with pytest.raises(ValueError, match="i != j"):
        GroupElementSpec(factors=((Fraction(1), 1, -1), (Fraction(2), 2, 2)))


def test_fermion_anticommutation_randomized():
    rng = random.Random(0)
    for _ in range(80):
        sp = FockSpace(8)
        parts = tuple(sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 3))), reverse=True))
        try:
            st = sp.state_from_partition(rng.randint(-1, 1), parts)
        except ValueError:
            continue
        vec = unit_vec(sp, st)
        i = rng.randint(-4, 4)
        j = rng.randint(-4, 4)
        x = apply_fermion(sp, "psi", i, apply_fermion(sp, "psi_star", j, vec))
        y = apply_fermion(sp, "psi_star", j, apply_fermion(sp, "psi", i, vec))
        anti = {s: x.get(s, 0) + y.get(s, 0) for s in x.keys() | y.keys()}
        anti = {s: c for s, c in anti.items() if c}
        if i == j:
            assert anti == vec
        else:
            assert anti == {}


def test_charge_conservation():
    sp = FockSpace(8)
    vec = unit_vec(sp, sp.state_from_partition(0, (2,)))
    out = apply_flow_generator(sp, 1, vec)
    assert all(sp.charge(s) == 0 for s in out)
    out = apply_flow_generator(sp, -2, vec)
    assert all(sp.charge(s) == 0 for s in out)
    up = apply_fermion(sp, "psi", 3, vec)
    assert all(sp.charge(s) == 1 for s in up)


def test_positive_flow_annihilates_vacuum():
    sp = FockSpace(8)
    vec = unit_vec(sp, sp.vacuum(0))
    for k in (1, 2, 3):
        assert apply_flow_generator(sp, k, vec) == {}


def test_negative_flow_single_hop():
    sp = FockSpace(8)
    out = apply_flow_generator(sp, -1, unit_vec(sp, sp.vacuum(0)))
    (state, coeff), = out.items()
    assert sp.partition_of_state(state) == (0, (1,))
    assert coeff == 1


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_heisenberg_commutator(k, l):
    sp = FockSpace(10)
    vec = unit_vec(sp, sp.vacuum(0))
    a = apply_flow_generator(sp, k, apply_flow_generator(sp, -l, vec))
    inner = apply_flow_generator(sp, k, vec)
    b = apply_flow_generator(sp, -l, inner) if inner else {}
    diff = {s: a.get(s, 0) - b.get(s, 0) for s in a.keys() | b.keys()}
    diff = {s: c for s, c in diff.items() if c}
    if k == l:
        assert diff == {sp.vacuum(0): k}
    else:
        assert diff == {}


def test_boundary_error_names_mode():
    sp = FockSpace(4)
    with pytest.raises(BoundaryError) as err:
        apply_fermion(sp, "psi", 3, unit_vec(sp, sp.vacuum(0)))
    assert "mode 3" in str(err.value)
    with pytest.raises(BoundaryError):
        apply_fermion(sp, "psi", 9, unit_vec(sp, sp.vacuum(0)))


# The reference route for the Schur operators, independent of the flowed
# table: S_j from the recurrence j S_j = sum_k k t_k S_{j-k}, j! S_j in ints,
# and the Schur pair term by term, term j weighted by L / ((j+a)! (j+b)!).


@cache
def _recurrence(j):
    """S_j as {exponent tuple over slots 1..j: Fraction}."""
    if j < 0:
        return {}
    table = [{(): Fraction(1)}]
    for n in range(1, j + 1):
        cur = {}
        for k in range(1, n + 1):
            for mono, c in table[n - k].items():
                ex = list(mono) + [0] * (n - len(mono))
                ex[k - 1] += 1
                ex = tuple(ex)
                cur[ex] = cur.get(ex, Fraction(0)) + Fraction(k, n) * c
        table.append({m: c for m, c in cur.items() if c})
    return table[j]


@cache
def _schur_ints(j):
    """j! S_j as {exponent tuple: int}."""
    return {mono: int(c * factorial(max(j, 0))) for mono, c in _recurrence(j).items()}


def _schur_poly(j, slots, slot_scale=1):
    """j! S_j(slot_scale * t) over the first ``slots`` times."""
    out = {}
    for mono, c in _schur_ints(j).items():
        if not any(mono[slots:]):
            out[(mono + (0,) * slots)[:slots]] = c * slot_scale ** sum(mono)
    return out


def _schur_diff_apply(j, mono, slot_scale=-1):
    """j! S_j(slot_scale * dtilde) on t^mono, slot k acting as
    (slot_scale / k) d/dt_k and slots past len(mono) as zero."""
    out = {}
    for d, c in _schur_ints(j).items():
        if any(d[len(mono):]) or any(x > e for x, e in zip(d, mono)):
            continue
        d = d[: len(mono)] + (0,) * (len(mono) - len(d))
        c //= prod(k**x for k, x in enumerate(d, 1))
        for x, e in zip(d, mono):
            c *= slot_scale**x * perm(e, x)
        out[tuple(e - x for e, x in zip(mono, d))] = c
    return out


def _reference_pair_image(ez, a, b, sigma, bound):
    """sum_j S_{j+a}(2 sigma z) S_{j+b}(-sigma dtilde_z) z^ez times
    L = (bound!)^2, from (j+a)! S_{j+a} and (j+b)! S_{j+b} with the weight
    L / ((j+a)! (j+b)!) per term, as {exponent tuple: int}."""
    L, acc = factorial(bound) ** 2, {}
    for j in range(max(0, -a, -b), sum(k * e for k, e in enumerate(ez, 1)) - b + 1):
        w, r = divmod(L, factorial(j + a) * factorial(j + b))
        assert not r
        dpart = _schur_diff_apply(j + b, ez, -sigma)
        for ms, cs in _schur_poly(j + a, len(ez), 2 * sigma).items():
            for md, cd in dpart.items():
                key = tuple(map(sum, zip(ms, md)))
                acc[key] = acc.get(key, 0) + w * cs * cd
    return {m: c for m, c in acc.items() if c}


def _exponent_tuples(slots, weight):
    """Every exponent tuple over t_1..t_slots of weighted degree <= weight."""
    if slots == 0:
        yield ()
        return
    for rest in _exponent_tuples(slots - 1, weight):
        room = weight - sum(k * e for k, e in enumerate(rest, 1))
        for e in range(room // slots + 1):
            yield rest + (e,)


def test_schur_polynomials():
    assert _recurrence(1) == {(1,): Fraction(1)}
    assert _recurrence(2) == {(0, 1): Fraction(1), (2, 0): Fraction(1, 2)}
    # row (2,) of the table at cap 2: 2! S_2 = 2 t_2 + t_1^2
    assert dict(_schur_table(2)[(2,)]) == {(0, 1): 2, (2, 0): 1}
    # row (k,) of the table at cap is cap! S_k, the empty row S_0 = 1
    for cap in range(8):
        for k in range(cap + 1):
            want = {m + (0,) * (cap - k): c * factorial(cap) for m, c in _recurrence(k).items()}
            assert dict(_schur_table(cap)[(k,) if k else ()]) == want, (cap, k)


def test_pair_images_equal_the_recurrence_route():
    # every z-exponent tuple of weight <= bound over 1..bound slots (h6's
    # v-side has fewer slots than bound), for each pair _schur_pair can
    # apply to it: its degree filter keeps weight + a - b <= bound
    cases = 0
    for bound in range(1, 8):
        for slots in range(1, bound + 1):
            for ez in _exponent_tuples(slots, bound):
                weight = sum(k * e for k, e in enumerate(ez, 1))
                for a in range(3):
                    for b in range(3):
                        if weight + a - b > bound:
                            continue
                        for sigma in (1, -1):
                            image = _pair_image(ez, a, b, sigma, bound)
                            assert isinstance(image, tuple)
                            assert dict(image) == _reference_pair_image(ez, a, b, sigma, bound), (ez, a, b, sigma)
                            cases += 1
    assert cases == 7740


def test_kp_runs_leave_schur_exponents_unchanged(monkeypatch, fresh_caches):
    # every caller shares the cached images and table rows, so one that
    # wrote to them would change the Schur pair for all later callers; the
    # KP runs reuse images across calls and charges
    import tau_forge.kpfock as kpfock

    seen = set()

    def recorded(*args):
        seen.add(args)
        return _pair_image(*args)

    monkeypatch.setattr(kpfock, "_pair_image", recorded)
    for check_id in ("kp.m3", "kp.m4", "kp.h6", "kp.cauchy"):
        assert all(r.verdict for r in run_check(check_id))
    assert _pair_image.cache_info().hits and seen
    for args in seen:
        assert _pair_image(*args) == _pair_image.__wrapped__(*args)
        assert dict(_pair_image(*args)) == _reference_pair_image(*args), args
    for j in range(-1, 10):
        assert _recurrence(j) == _recurrence.__wrapped__(j)


def test_schur_diff_example():
    # 2! S_2(-dtilde) y1^2 = d1^2 y1^2 = 2
    assert _schur_diff_apply(2, (2, 0), -1) == {(0, 0): 2}
    # 2! S_2(-dtilde) y2 = 2! (-1/2) d2 y2 = -1
    assert _schur_diff_apply(2, (0, 1), -1) == {(0, 0): -1}
    # at a = 0, b = 2 only j = 0 acts on weight 2: the image is
    # S_2(-dtilde) z^ez times (2!)^2, that is 2! times the values above
    assert _pair_image((2, 0), 0, 2, 1, 2) == (((0, 0), 2 * 2),)
    assert _pair_image((0, 1), 0, 2, 1, 2) == (((0, 0), 2 * -1),)


def test_tau_identity_is_one():
    tau, cert = tau_kp(GroupElementSpec.identity(), 0, 4)
    assert tau == TimesPoly.one(tau.vars)


def test_tau_single_factor():
    g = GroupElementSpec.single(Fraction(2, 3), 0, -1)
    tau, cert = tau_kp(g, 0, 3)
    assert tau == TimesPoly.one(tau.vars) + TimesPoly.var(tau.vars, "x1", coeff=qs(Fraction(2, 3)))


def test_two_sided_cauchy_value():
    # frozen from the independent product expansion at degrees (3, 3)
    tau, direct, cert = cauchy_pair(3)
    assert (tau - direct).is_zero()
    assert tau.coefficient((1, 0, 0, 1, 0, 0)) == ONE          # x1 u1
    assert tau.coefficient((2, 0, 0, 2, 0, 0)) == qs(Fraction(1, 2))  # x1^2 u1^2 / 2
    assert tau.coefficient((0, 1, 0, 0, 1, 0)) == qs(2)        # 2 x2 u2
    assert tau.coefficient((0, 0, 1, 0, 0, 1)) == qs(3)        # 3 x3 u3
    assert tau.coefficient((1, 1, 0, 1, 1, 0)) == qs(2)        # x1 x2 u1 u2 cross


def test_m4_trivial_tau():
    res, _, _ = m4_residual(GroupElementSpec.identity(), degree=4)
    assert res.is_zero()


def test_m4_single_factor_degree6():
    res, _, _ = m4_residual(GroupElementSpec.single(Fraction(1), 0, -1), degree=6)
    assert res.is_zero()


def test_m3_residuals():
    for g in (
        GroupElementSpec.identity(),
        GroupElementSpec.single(Fraction(1), 0, -1),
    ):
        res, _ = m3_residual(g, degree=4)
        assert res.is_zero()


def test_m3_m4_random_product_seeded():
    rng = random.Random(0)
    g = GroupElementSpec.random_unipotent(rng)
    res, _, _ = m4_residual(g, degree=5)
    assert res.is_zero()
    res, _ = m3_residual(g, degree=5)
    assert res.is_zero()


def test_h6_identity_small():
    res, _, _ = h6_residual(GroupElementSpec.identity(), 0, 0, degree=3)
    assert res.is_zero()


def test_h6_nontrivial_charges_small():
    res, _, _ = h6_residual(GroupElementSpec.single(Fraction(1), 0, -1), 1, 0, degree=3)
    assert res.is_zero()


# Each build derives its window (kpfock._window).  The entry points run over
# the seeded g suite at degrees 1-6; the h6 charge pairs put the Schur pair
# at offsets 1, 2 and -1.
_H6_CHARGES = ((0, 0), (1, 0), (0, 2))
_WINDOW_ENTRY_POINTS = ("cauchy_pair", "h6_residual", "m3_residual", "m4_residual", "tau_kp", "verify_hirota_kp")


def _cert_text(cert):
    """A certificate line without its window bounds."""
    return str(cert).split(", ", 1)[1]


def _entry_point_runs(entry, g, d):
    """[(residual text or None, value texts, certificate lines without the
    window)] for each call of an entry point."""
    if entry == "tau_kp":
        return [(None, str(t), [_cert_text(c)]) for t, c in (tau_kp(g, n, d, du) for n in (-1, 0, 1) for du in (0, 2))]
    if entry == "m3_residual":
        res, certs = m3_residual(g, d)
        return [(str(res), None, [_cert_text(c) for c in certs])]
    if entry == "m4_residual":
        res, certs, _ = m4_residual(g, d)
        return [(str(res), None, [_cert_text(c) for c in certs])]
    if entry == "h6_residual":
        runs = (h6_residual(g, n, m, d) for n, m in _H6_CHARGES)
        return [(str(res), None, [_cert_text(c) for c in certs]) for res, certs, _ in runs]
    if entry == "cauchy_pair":
        tau, direct, cert = cauchy_pair(d)
        return [(str(tau - direct), str(tau), [_cert_text(cert)])]
    reps = [verify_hirota_kp(w, g, d) for w in ("M3", "M4")] + [verify_hirota_kp("H6", g, d, charges=(1, 0))]
    return [(r.residual or "0", None, [_cert_text(line) for line in r.details]) for r in reps]


def _window_outcomes(entry, monkeypatch, delta):
    """{(g, degree): (the runs or the error raised, the derived windows)}
    with every build on its derived window plus ``delta``."""
    import tau_forge.kpfock as kpfock
    from tau_forge.cli import _g_suite

    derive, seen = kpfock._window, []

    def shifted(g, n, cap_u):
        seen.append(derive(g, n, cap_u))
        return seen[-1] + delta

    monkeypatch.setattr(kpfock, "_window", shifted)
    out = {}
    for g in _g_suite(0):
        for d in range(1, 7):
            seen.clear()
            try:
                runs = _entry_point_runs(entry, g, d)
            except (BoundaryError, ValueError) as exc:
                runs = exc
            out[g, d] = runs, tuple(seen)
    return out


@pytest.mark.parametrize("entry", _WINDOW_ENTRY_POINTS)
def test_derived_window_passes_and_is_the_least(entry, monkeypatch):
    """On its derived window every build of the entry point runs and every
    residual is zero.  One smaller, at each degree at least one build hits
    the guard, unless every derived window was 3, the least a FockSpace
    takes: the guard stays live and the derivation is the least."""
    for key, (runs, windows) in _window_outcomes(entry, monkeypatch, 0).items():
        assert windows and not isinstance(runs, Exception), (key, runs)
        assert all(res in (None, "0") for res, _, _ in runs), key
    smaller = _window_outcomes(entry, monkeypatch, -1)
    for d in range(1, 7):
        cells = [cell for (_, deg), cell in smaller.items() if deg == d]
        if all(w == 3 for _, windows in cells for w in windows):
            assert all(isinstance(runs, ValueError) for runs, _ in cells), (entry, d)
        else:
            assert any(isinstance(runs, BoundaryError) for runs, _ in cells), (entry, d)


@pytest.mark.parametrize("entry", _WINDOW_ENTRY_POINTS)
def test_larger_window_changes_nothing(entry, monkeypatch):
    """Two modes more on every window leave residuals, taus and each
    certificate's changed range as they are."""
    derived = {key: runs for key, (runs, _) in _window_outcomes(entry, monkeypatch, 0).items()}
    larger = {key: runs for key, (runs, _) in _window_outcomes(entry, monkeypatch, 2).items()}
    assert larger == derived


def test_window_budget_precondition(monkeypatch):
    # a build at charge n with (u, v) cap D_u, g of mode span s, derives
    # M = max(3, s + 2, |n| + D_u + 1): the identity's two-sided tau to
    # (9, 9) at charge -1 builds on window 11, and its placed states change
    # modes n - D_u = -10 to n - 1 + D_u = 7 ...
    import tau_forge.kpfock as kpfock

    g = GroupElementSpec.identity()
    _, cert = tau_kp(g, -1, 9, 9)
    assert str(cert) == "window [-11,10], changes in [-10,7]"
    # ... which window 10 refuses
    derive = kpfock._window
    monkeypatch.setattr(kpfock, "_window", lambda g, n, cap_u: derive(g, n, cap_u) - 1)
    with pytest.raises(BoundaryError, match="touches the window edge"):
        tau_kp(g, -1, 9, 9)


def test_certificates_reported():
    rep = verify_hirota_kp("M4", GroupElementSpec.identity(), degree=4)
    assert rep.verdict
    assert any("window" in d for d in rep.details)


def test_h6_margin_covers_the_schur_offset():
    # charges (1, 0) put the y-side pair at offset 2, two weights past the
    # certified degree; with one spare weight this g gave a nonzero residual
    g = GroupElementSpec.random_unipotent(random.Random(0))
    res, _, _ = h6_residual(g, 1, 0, degree=3)
    assert res.is_zero()


def test_h6_old_margin_mutant_fails(monkeypatch):
    import tau_forge.kpfock as kpfock

    monkeypatch.setattr(kpfock, "schur_pair_caps", lambda degree, offset: (degree + 1, degree + 1))
    g = GroupElementSpec.random_unipotent(random.Random(0))
    res, _, _ = h6_residual(g, 1, 0, degree=3)
    assert not res.is_zero()


def test_caps_on_report():
    g = GroupElementSpec.single(Fraction(1), 0, -1)
    rep = verify_hirota_kp("H6", g, charges=(1, 0), degree=4)
    assert rep.params["caps"] == (6, 4) and rep.params["degree"] == 4
    rep = verify_hirota_kp("H6", g, charges=(0, 2), degree=3)
    assert rep.params["caps"] == (3, 4)
    assert verify_hirota_kp("M4", g, degree=4).params["caps"] == (5, 0)


# Sato's expansion tau_n(x, u) = sum_{lambda, mu} s_lambda(x) <lambda, n| g |mu, n> s_mu(u)
# (Jimbo-Miwa 1983), with s_lambda from Jacobi-Trudi over S_k and the matrix
# elements read off g on partition states: no flow and no substitution.


def _padd(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _pmul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _complete(k, slots):
    """S_k over ``slots`` times as {exponent tuple: Fraction}."""
    out = {}
    for mono, c in _recurrence(k).items():
        if not any(mono[slots:]):
            out[(mono + (0,) * slots)[:slots]] = c
    return out


def _det(rows):
    if not rows:
        return {(0,) * 6: Fraction(1)}
    out = {}
    for col, entry in enumerate(rows[0]):
        if entry:
            minor = _det([r[:col] + r[col + 1:] for r in rows[1:]])
            out = _padd(out, _pmul(entry, minor), -1 if col % 2 else 1)
    return out


def _schur_function(lam, slots=6):
    """Jacobi-Trudi: s_lambda = det [S_{lambda_i - i + j}]."""
    r = len(lam)
    return _det([[_complete(lam[i] - i + j, slots) for j in range(r)] for i in range(r)])


def _partitions(n, largest=None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _sato_tau(g, n, degree):
    space = FockSpace(10)
    parts = [lam for w in range(degree + 1) for lam in _partitions(w)]
    schur = {lam: _schur_function(lam) for lam in parts}
    out = {}
    for mu in parts:
        image = g.apply(space, {space.state_from_partition(n, mu): 1})
        for state, c in image.items():
            charge, lam = space.partition_of_state(state)
            assert charge == n
            if sum(lam) > degree:
                continue
            for mx, cx in schur[lam].items():
                for mu_, cu in schur[mu].items():
                    key = mx + mu_
                    out[key] = out.get(key, 0) + c * cx * cu
    return {m: c for m, c in out.items() if c}


def test_sato_expansion_matches_the_build():
    from tau_forge.cli import _g_suite

    assert _schur_function((2, 1), 3) == {(3, 0, 0): Fraction(1, 3), (0, 0, 1): Fraction(-1)}
    for g in _g_suite(0):
        for n in (-1, 0, 1):
            tau, cert = tau_kp(g, n, 6, 6)
            assert tau.vars == tuple(f"x{k}" for k in range(1, 7)) + tuple(f"u{k}" for k in range(1, 7))
            built = {m: c.as_rational() for m, c in tau.terms.items()}
            assert built == _sato_tau(g, n, 6), (g, n)


def test_schur_table_rows_are_jacobi_trudi_and_checks_leave_them_unchanged(fresh_caches):
    # row lambda of the table of cap is cap! s_lambda over the first cap
    # times, flowed once per cap; the cache hands one table to every build,
    # so no build may write to it
    tables = {cap: _schur_table(cap) for cap in range(7)}
    for cap, table in tables.items():
        assert sorted(table) == sorted(lam for w in range(cap + 1) for lam in _partitions(w))
        for lam, row in table.items():
            assert isinstance(row, tuple)
            # _det pads the empty partition's monomial to six times
            want = {m[:cap]: c * factorial(cap) for m, c in _schur_function(lam, cap).items()}
            assert dict(row) == want, (cap, lam)
    before = copy.deepcopy(tables)
    run_check("*")
    for cap, table in tables.items():
        assert _schur_table(cap) is table
        assert table == before[cap] == _schur_table.__wrapped__(cap)


def test_kp_checks_flow_once_per_distinct_cap(monkeypatch, fresh_caches):
    """Every KP tau and Schur pair reads the cached tables, so a cold run of
    the KP checks flows once per distinct cap (m3 at 6, m4 at (7, 0), h6 at
    (5, 4) and (6, 4), cauchy at (5, 5)) and a warm run flows nothing: no
    Fock vector is flowed per g, per charge or per fermion.  The pair reads
    the table at the largest cap, which the taus already build, and a warm
    run builds no pair image."""
    import tau_forge.kpfock as kpfock

    flow, caps = kpfock.flow, []

    def counted(space, lay, cap):
        caps.append(cap)
        return flow(space, lay, cap)

    monkeypatch.setattr(kpfock, "flow", counted)
    assert all(r.verdict for r in run_check("kp.*"))
    assert sorted(caps) == [0, 4, 5, 6, 7]
    caps.clear()
    misses = _pair_image.cache_info().misses
    assert misses
    assert all(r.verdict for r in run_check("kp.*"))
    assert caps == []
    assert _pair_image.cache_info().misses == misses


def test_certificate_of_a_build_that_changed_nothing():
    # the one-sided tau of g = identity moves no mode of its window, the
    # least one (3)
    _, cert = tau_kp(GroupElementSpec.identity(), 0, 4)
    assert str(cert) == "window [-3,2], no mode changed"
    sp = FockSpace(3)
    assert str(sp.certificate()) == str(cert)
    sp.note_change(0)
    assert str(sp.certificate()) == "window [-3,2], changes in [0,0]"
    _, cert = tau_kp(GroupElementSpec.single(Fraction(1), 0, -1), 0, 4)
    assert str(cert) == "window [-3,2], changes in [-1,0]"
    # the flows to (5, 5) would move modes -5 .. 4: the build notes where
    # each placed state and each image differ from the vacuum, in the
    # window 5 + 1 that cap 5 derives
    _, _, cert = cauchy_pair(5)
    assert str(cert) == "window [-6,5], changes in [-5,4]"


def test_report_caps_are_the_caps_the_taus_were_built_to(monkeypatch):
    import tau_forge.kpfock as kpfock

    built = []
    tau = kpfock._tau

    def recording_tau(g, n, lay, caps):
        built.append(tuple(caps))
        return tau(g, n, lay, caps)

    monkeypatch.setattr(kpfock, "_tau", recording_tau)
    g = GroupElementSpec.single(Fraction(1), 0, -1)
    for which, charges, degree in (("M4", (0, 0), 4), ("H6", (1, 0), 3), ("H6", (0, 2), 3)):
        built.clear()
        rep = verify_hirota_kp(which, g, charges=charges, degree=degree)
        assert rep.verdict
        assert built and set(built) == {rep.params["caps"]}


def test_flow_weight_mutant_fails_sato_m4_and_h6(monkeypatch, fresh_caches):
    """A flow that adds term order 2 with the weight cap!/1! in place of
    cap!/2! no longer builds Sato's tau, and FAILs kp.m4 and kp.h6.  kp.m3
    is blind to every flow mutant: its residual is <1|F(x) (x) <-1|F(y)
    applied to sum_j psi_j g|0> (x) psi*_j g|0>, which is zero before the
    flows F act, so it checks g and the fermions, not the flows."""
    import tau_forge.kpfock as kpfock
    from tau_forge.cli import _g_suite

    weights = kpfock._flow_weights

    def off_by_one_factorial(cap):
        w = weights(cap)
        if cap >= 2:
            w[2] *= 2
        return w

    monkeypatch.setattr(kpfock, "_flow_weights", off_by_one_factorial)
    for g in _g_suite(0):
        for n in (-1, 0, 1):
            tau, _ = tau_kp(g, n, 6, 6)
            built = {m: c.as_rational() for m, c in tau.terms.items()}
            assert built != _sato_tau(g, n, 6), (g, n)
    for check_id in ("kp.m4", "kp.h6"):
        assert not all(r.verdict for r in run_check(check_id)), check_id


def _mutate_pair_image(monkeypatch, mutate):
    """_pair_image called with mutate(ez, a, b, sigma, bound) as arguments."""
    import tau_forge.kpfock as kpfock

    def mutant(*args):
        return _pair_image(*mutate(*args))

    monkeypatch.setattr(kpfock, "_pair_image", mutant)


def test_shifted_schur_pair_mutant_fails_m4_and_h6(monkeypatch, fresh_caches):
    """S_{j+b+1} in place of S_{j+b} on the dtilde side FAILs kp.m4 and
    kp.h6."""
    _mutate_pair_image(monkeypatch, lambda ez, a, b, sigma, bound: (ez, a, b + 1, sigma, bound))
    for check_id in ("kp.m4", "kp.h6"):
        assert not all(r.verdict for r in run_check(check_id)), check_id


def test_flipped_schur_pair_sign_fails_h6_and_m4_is_blind(monkeypatch, fresh_caches):
    """The pair with -sigma in place of sigma FAILs kp.h6 but PASSes kp.m4
    at its defaults (degree 6): tau(x + y) tau(x - y) is
    even in y, and the flipped pair on it is the right pair at -y, so its
    m4 residual is R(x, -y), zero exactly when R is.  Only kp.h6, whose two
    sides pair different charges, sees the sign."""
    _mutate_pair_image(monkeypatch, lambda ez, a, b, sigma, bound: (ez, a, b, -sigma, bound))
    assert not all(r.verdict for r in run_check("kp.h6"))
    assert all(r.verdict for r in run_check("kp.m4"))


def test_one_sided_relations_refuse_nonzero_charges():
    # M3 and M4 are charge-0 relations; a report must not name charges the
    # residual was not computed at
    g = GroupElementSpec.identity()
    for which in ("M3", "M4"):
        with pytest.raises(ValueError, match="charge"):
            verify_hirota_kp(which, g, 3, charges=(1, 0))
        rep = verify_hirota_kp(which, g, 3)
        assert rep.verdict and rep.params["charges"] == (0, 0)
    assert verify_hirota_kp("H6", g, 3, charges=(1, 0)).params["charges"] == (1, 0)


def test_wrong_scale_on_one_charge_fails_h6(monkeypatch):
    """The tau of charge 1 carried with twice its scale FAILs kp.h6, whose
    two sides multiply taus of different charges.  kp.m4 is blind to a
    uniform scale: its identity is bilinear in one tau, so a wrong scale s
    only multiplies the residual by s^2."""
    import tau_forge.kpfock as kpfock

    tau = kpfock._tau

    def doubled_scale(g, n, lay, caps):
        poly, scale, cert = tau(g, n, lay, caps)
        return poly, scale * 2 if n == 1 else scale, cert

    monkeypatch.setattr(kpfock, "_tau", doubled_scale)
    assert not all(r.verdict for r in run_check("kp.h6"))


def test_flow_sign_mutant_fails_sato_and_the_flow_checks(monkeypatch, fresh_caches):
    """A flow move p -> t signed only by the occupied modes above t after
    the removal, without the sign of removing p, no longer builds Sato's
    tau, and FAILs kp.m4, kp.h6, kp.cauchy and kp.heisenberg.  kp.m3 still
    passes under it: its residual is zero before the flows act, so it sees
    no linear flow, right or wrong."""
    import tau_forge.kpfock as kpfock
    from tau_forge.cli import _g_suite

    moves = kpfock._flow_moves

    def above_t_only(space, k, state):
        out = []
        for new, _ in moves(space, k, state):
            removed = state & new
            t_bit = new ^ removed
            out.append((new, -1 if (removed >> t_bit.bit_length()).bit_count() & 1 else 1))
        return out

    monkeypatch.setattr(kpfock, "_flow_moves", above_t_only)
    for g in _g_suite(0):
        for n in (-1, 0, 1):
            tau, _ = tau_kp(g, n, 6, 6)
            built = {m: c.as_rational() for m, c in tau.terms.items()}
            assert built != _sato_tau(g, n, 6), (g, n)
    for check_id in ("kp.m4", "kp.h6", "kp.cauchy", "kp.heisenberg"):
        assert not all(r.verdict for r in run_check(check_id)), check_id


# tau_a(x + y) tau_b(x - y) by the route the product replaced: substitute
# t -> t +- y term by term into each tau, then multiply the two expansions.


def _substitute(p, lay, pairs, sign):
    """p with t -> t + sign * y for every (t, y) pair of names."""
    for t, y in pairs:
        shift, step = lay.shift[t], lay.unit[y] - lay.unit[t]
        out = {}
        for m, c in p.items():
            a = (m >> shift) & lay.mask
            for i in range(a + 1):
                key = m + i * step
                out[key] = out.get(key, 0) + c * comb(a, i) * sign**i
        p = out
    return {m: c for m, c in p.items() if c}


def _substituted_product(ta, tb, lay, pairs, caps):
    return _mul_capped(_substitute(ta, lay, pairs, 1), _substitute(tb, lay, pairs, -1), lay, caps)


def _h6_layout(degree, offset):
    """The layout, name pairs and build caps h6_residual uses at this offset."""
    caps = schur_pair_caps(degree, offset)
    names = {p: _var_names(p, caps[p in "uv"]) for p in "xyuv"}
    lay = _Layout(names["x"] + names["y"] + names["u"] + names["v"], max(caps))
    pairs = list(zip(names["x"], names["y"])) + list(zip(names["u"], names["v"]))
    return lay, pairs, caps


def _sum_diff_cases():
    """(shape, ta, tb, lay, pairs, product caps) over the taus of
    _g_suite(0) at charges -1..2: the one-sided m4 shape and both h6 side
    shapes."""
    from tau_forge.cli import _g_suite

    for g in _g_suite(0):
        D = 5
        names = _var_names("x", D) + _var_names("y", D)
        lay = _Layout(names, D)
        tau = _tau(g, 0, lay, (D, 0))[0]
        yield "m4", tau, tau, lay, list(zip(names[:D], names[D:])), (D, 0)
        degree, offset = 3, 2
        lay, pairs, caps = _h6_layout(degree, offset)
        taus = {n: _tau(g, n, lay, caps)[0] for n in (-1, 0, 1, 2)}
        for n in (-1, 0, 1):
            # the y-side pair raises the x cap by the offset, the v-side
            # pair lowers the u cap by it
            yield "h6 y-side", taus[n], taus[n + 1], lay, pairs, caps
            yield "h6 v-side", taus[n + 1], taus[n], lay, pairs, (degree, degree - offset)
            yield "h6 v-side", taus[n], taus[n], lay, pairs, (degree, degree - offset)


def test_sum_diff_product_equals_the_substituted_product():
    cases = list(_sum_diff_cases())
    assert any(ta != tb for _, ta, tb, *_ in cases)
    cut = set()
    for shape, ta, tb, lay, pairs, caps in cases:
        fused = _sum_diff_product(ta, tb, lay, pairs, caps)
        assert fused == _substituted_product(ta, tb, lay, pairs, caps)
        wide = (2 * lay.bound, 2 * lay.bound)
        if len(_sum_diff_product(ta, tb, lay, pairs, wide)) > len(fused):
            cut.add(shape)
    # every shape has caps that cut terms the uncapped product keeps
    assert cut == {shape for shape, *_ in cases}


def _naive_row(a, b):
    """The coefficients of y^i in (x + y)^a (x - y)^b, by multiplying out."""
    row = [1]
    for sign in [1] * a + [-1] * b:
        nxt = row + [0]
        for i, c in enumerate(row):
            nxt[i + 1] += sign * c
        row = nxt
    return tuple(row)


def test_krawtchouk_rows_expand_the_sum_and_difference():
    assert _krawtchouk_row(1, 1) == (1, 0, -1)
    for a in range(9):
        assert _krawtchouk_row(a, 0) == tuple(comb(a, i) for i in range(a + 1))
        assert _krawtchouk_row(0, a) == tuple((-1) ** i * comb(a, i) for i in range(a + 1))
        for b in range(9):
            assert _krawtchouk_row(a, b) == _naive_row(a, b), (a, b)


def test_unsigned_krawtchouk_mutant_fails_the_oracle_m4_and_h6(monkeypatch):
    """Rows without (-1)^s expand tau_a(x + y) tau_b(x + y): the product
    differs from the substituted route, and kp.m4 and kp.h6 FAIL."""
    import tau_forge.kpfock as kpfock

    def unsigned(a, b):
        return tuple(
            sum(comb(a, i - s) * comb(b, s) for s in range(max(0, i - a), min(i, b) + 1))
            for i in range(a + b + 1)
        )

    monkeypatch.setattr(kpfock, "_krawtchouk_row", unsigned)
    for _, ta, tb, lay, pairs, caps in _sum_diff_cases():
        same = kpfock._sum_diff_product(ta, tb, lay, pairs, caps) == _substituted_product(ta, tb, lay, pairs, caps)
        # a constant pair has no time to expand
        assert same == (len(ta) + len(tb) == 2)
    for check_id in ("kp.m4", "kp.h6"):
        assert not all(r.verdict for r in run_check(check_id)), check_id


def _swap_sum_diff_factors(monkeypatch):
    """tau_b(x + y) tau_a(x - y) in place of tau_a(x + y) tau_b(x - y)."""
    import tau_forge.kpfock as kpfock

    product = kpfock._sum_diff_product

    def swapped(ta, tb, lay, pairs, caps):
        return product(tb, ta, lay, pairs, caps)

    monkeypatch.setattr(kpfock, "_sum_diff_product", swapped)


def test_swapped_factor_mutant_fails_the_oracle_and_h6(monkeypatch):
    """Swapped factors FAIL kp.h6 and differ from the substituted route
    wherever ta != tb."""
    import tau_forge.kpfock as kpfock

    _swap_sum_diff_factors(monkeypatch)
    for _, ta, tb, lay, pairs, caps in _sum_diff_cases():
        same = kpfock._sum_diff_product(ta, tb, lay, pairs, caps) == _substituted_product(ta, tb, lay, pairs, caps)
        assert same == (ta == tb)
    assert not all(r.verdict for r in run_check("kp.h6"))


def test_m4_is_blind_to_swapped_factors(monkeypatch):
    """kp.m4 PASSes with swapped factors at its defaults (degree 6): its
    two factors are one tau, so no m4 input can see which
    one takes x + y.  Only kp.h6 (charges (1, 0)) and the oracle catch the
    swap (the test above)."""
    _swap_sum_diff_factors(monkeypatch)
    assert all(r.verdict for r in run_check("kp.m4"))
