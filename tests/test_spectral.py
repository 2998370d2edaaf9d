"""Tests for eigenvalue systems, oldform bases, and the Kuznetsov side."""

import math
import random
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy.special import k0e

from totreal import bessel_kernels
from totreal.bessel_kernels import rj_bound, rj_kernel, wk_bound, wk_kernel
from totreal.fields import Ideal, divisors, enumerate_in_box, ideals_of_norm_up_to, make_field
from totreal.quadrature import _leggauss, equal_panels, gl_panels, graded_panels
from totreal.spectral import (
    EigenvalueSystem,
    KTestGaussian,
    OldformBasis,
    _tail_window,
    _truncation_height,
    bessel_tilde,
    bessel_transforms,
    bessel_transforms_many,
    divisor_system,
    kuznetsov_geometric_side,
    lambda_t,
    oldform_gram_schmidt,
    shifted_inner_ratio,
)

Q = make_field(1)
K5 = make_field(5)


def test_hecke_recursion_and_multiplicativity():
    for K in (Q, K5):
        for seed in (0, 5):
            sys_ = EigenvalueSystem(K, seed=seed)
            assert sys_.lambda_value(K.unit_ideal()) == 1.0
            for I in ideals_of_norm_up_to(K, 200):
                pass  # warm factor cache
            for p in (2, 3, 5, 7):
                for P in K.primes_above(p):
                    l1 = sys_.lambda_prime_power(P, 1)
                    for k in range(1, 6):
                        lhs = l1 * sys_.lambda_prime_power(P, k)
                        rhs = sys_.lambda_prime_power(P, k + 1) + sys_.lambda_prime_power(P, k - 1)
                        assert abs(lhs - rhs) < 1e-12
                    # Ramanujan-type bound
                    assert abs(l1) <= 2 * P.norm() ** sys_.theta + 1e-12
            a = sys_.lambda_value(K.ideal(6))
            b = sys_.lambda_value(K.ideal(2)) * sys_.lambda_value(K.ideal(3))
            assert abs(a - b) < 1e-12
            # lambda on nonintegral ideals vanishes
            assert sys_.lambda_value(K.ideal(2).inverse()) == 0.0


def _divisor_pair_lambda(chi, inv, m):
    """lambda_{chi,chi^{-1}}(m) by its definition, the sum over a | m of
    chi(a) chi^{-1}(m/a), each ideal evaluated through its own generator;
    with the sum of the absolute values of the terms."""
    terms = [chi.eval_on_ideal(a) * inv.eval_on_ideal(m * a.inverse()) for a in divisors(m)]
    return sum(terms), sum(abs(x) for x in terms)


def _eisenstein_characters(K, t):
    """The unramified character |.|^{it} and, for every character mod 5 and
    mod 15 that a Hecke character can carry, one with diagonal exponent t."""
    from totreal.characters import HeckeCharacter, characters_mod, unramified_character

    out = [unramified_character(K, [t] * K.d)]
    for q in (5, 15):
        for fin in characters_mod(K.ideal(q)):
            if K.d == 1:
                sign = 0 if fin.value_exponent(-K.one()) == 0 else 1
                out.append(HeckeCharacter(K, fin, [t], [sign]))
            elif fin.value_exponent(-K.one()) == 0:
                le = math.log(K.eps.embeddings()[0])
                off = -2 * math.pi * float(fin.value_exponent(K.eps)) / le
                out.append(HeckeCharacter(K, fin, [t + off / 2, t - off / 2], [0, 0]))
    return out


def test_eisenstein_system_matches_eigenvalues():
    # the Eisenstein system, eis_hecke_eigenvalue and lambda_{chi,(1)}
    # against the divisor-pair definition, to 1e-13 of the size of its
    # terms (so exactly 0 on ideals meeting the modulus, where every term
    # is 0): at small t, chi(P) is near +-1, where a closed form in chi(P)
    # loses digits; finite parts mod 5 are ramified, and those mod 15 include
    # imprimitive ones (chi(P) = 0 at a prime of the modulus outside the
    # conductor)
    from totreal.eisenstein import EisCoefficientContext, eis_hecke_eigenvalue
    from totreal.spectral import eisenstein_system

    for K, X in ((Q, 130), (K5, 50)):
        ideals = ideals_of_norm_up_to(K, X)
        for t in (1e-9, 2.2136e-9, 1e-6):
            for chi in _eisenstein_characters(K, t):
                inv = chi.inverse()
                sys_ = eisenstein_system(chi)
                assert sys_.conductor == chi.conductor() * chi.conductor()
                ctx = EisCoefficientContext(chi, K.unit_ideal())
                for I in ideals:
                    ref, size = _divisor_pair_lambda(chi, inv, I)
                    for got in (sys_.lambda_value(I), eis_hecke_eigenvalue(chi, I),
                                ctx.lambda_chi_t(I)):
                        assert abs(got - ref) <= 1e-13 * size, (K.D, t, chi.modulus, I, got, ref)


def test_exceptional_parameters():
    sys_ = EigenvalueSystem(Q, seed=1, exceptional=(5,))
    P5 = Q.primes_above(5)[0]
    lam = sys_.lambda_prime_power(P5, 1)
    assert lam == pytest.approx(5 ** (1 / 9) + 5 ** (-1 / 9))
    assert abs(lam) <= 2 * 5 ** sys_.theta + 1e-12


def test_shifted_inner_worked_value():
    dv = divisor_system(Q)
    r = shifted_inner_ratio(dv, Q.ideal(5), Q.unit_ideal())
    assert r == pytest.approx(math.sqrt(5) / 3, abs=1e-12)
    # trivial and symmetric cases
    assert shifted_inner_ratio(dv, Q.unit_ideal(), Q.unit_ideal()) == pytest.approx(1.0)
    s1 = EigenvalueSystem(Q, seed=8)
    a = shifted_inner_ratio(s1, Q.ideal(2), Q.ideal(3))
    b = shifted_inner_ratio(s1, Q.ideal(3), Q.ideal(2))
    assert a == pytest.approx(b.conjugate())
    # common factors cancel
    c = shifted_inner_ratio(s1, Q.ideal(10), Q.ideal(15))
    assert c == pytest.approx(a, abs=1e-10)


def test_theta_divergence_guard():
    sys_ = EigenvalueSystem(Q, seed=0, theta=0.6)
    with pytest.raises(ValueError):
        shifted_inner_ratio(sys_, Q.ideal(2), Q.unit_ideal())


def test_oldform_gram_schmidt():
    rng = random.Random(0)
    for K, levels in ((Q, (7, 49, 35)), (K5, (11, 4, 9))):
        for lev in levels:
            sys_ = EigenvalueSystem(K, seed=rng.randint(0, 999))
            basis = oldform_gram_schmidt(sys_, K.ideal(lev))
            assert basis.gram_residual < 1e-10
            # alpha_{t,t} > 0 normalization
            for t in basis.divisors:
                assert basis.coefficient(t, t).real > 0
                assert abs(basis.coefficient(t, t).imag) < 1e-12
            # alpha_{(1),(1)} = 1
            one = K.unit_ideal()
            assert basis.coefficient(one, one) == pytest.approx(1.0)


def test_oldform_coefficients_only_at_divisors():
    # the Gram matrix is a product over primes, so alpha_{t,s} = 0 unless
    # s | t: level 1080 = 2^3 3^3 5 keeps exactly the 10 * 10 * 3 pairs
    # s | t, and those alone still give an orthonormal basis
    sys_ = EigenvalueSystem(Q, seed=3)
    basis = oldform_gram_schmidt(sys_, Q.ideal(1080))
    divs = basis.divisors
    pairs = {(t.key(), s.key()) for t in divs for s in divs if s.divides(t)}
    assert set(basis.alpha) == pairs and len(pairs) == 300
    G = {(s.key(), u.key()): shifted_inner_ratio(sys_, s, u) for s in divs for u in divs}
    for t1 in divs:
        for t2 in divs:
            ip = sum(
                basis.coefficient(t1, s).conjugate() * basis.coefficient(t2, u) * G[s.key(), u.key()]
                for s in divisors(t1) for u in divisors(t2)
            )
            assert abs(ip - (t1 == t2)) <= 1e-10, (t1, t2, ip)


def test_oldform_alpha_decay_squarefree():
    # squarefree c/c_pi = (pq): |alpha_{t,s}| follows the decay shape
    # (N(t/s))^{theta - 1/2} with one calibrated constant
    C = 3.0
    for seed in (3, 11, 29):
        sys_ = EigenvalueSystem(Q, seed=seed)
        basis = oldform_gram_schmidt(sys_, Q.ideal(15))
        t = Q.ideal(15)
        for s in basis.divisors:
            n = float((t * s.inverse()).norm())
            assert abs(basis.coefficient(t, s)) <= C * n ** (sys_.theta - 0.5), (
                seed,
                n,
            )


def test_lambda_t():
    sys_ = EigenvalueSystem(Q, seed=12)
    basis = oldform_gram_schmidt(sys_, Q.ideal(14))
    one = Q.unit_ideal()
    for m in (Q.ideal(5), Q.ideal(14)):
        assert lambda_t(sys_, basis, one, m) == pytest.approx(sys_.lambda_value(m))
    # gcd(t, m) = 1: single-term sum
    t = Q.ideal(7)
    m = Q.ideal(5)
    assert lambda_t(sys_, basis, t, m) == pytest.approx(
        basis.coefficient(t, one) * sys_.lambda_value(m)
    )
    # t = m = (p): two-term assembly
    m = Q.ideal(7)
    expect = basis.coefficient(t, one) * sys_.lambda_value(m) + basis.coefficient(
        t, t
    ) * math.sqrt(7)
    assert lambda_t(sys_, basis, t, m) == pytest.approx(expect)


# ---------------------------------------------------------------------------
# Bessel kernels and transforms


def _rj_oracle(u, x):
    dps = int(20 + 0.46 * (math.pi * u + x))
    with mp.workdps(dps):
        J = mp.besselj(2j * mp.mpf(u), mp.mpf(x))
        return float(mp.im(J) / mp.cosh(mp.pi * u))


def _wk_oracle(u, x):
    dps = int(20 + 0.46 * (math.pi * u + x))
    with mp.workdps(dps):
        K = mp.besselk(2j * mp.mpf(u), mp.mpf(x))
        return float(mp.sinh(mp.pi * u) * mp.re(K))


def test_kernels_against_mpmath():
    for x in (0.0126, 5.0, 14.1, 125.7):
        for u in (0.5, 3.0, 17.0, 42.0):
            assert rj_kernel(np.array([u]), x)[0] == pytest.approx(
                _rj_oracle(u, x), abs=5e-12
            )
            assert wk_kernel(np.array([u]), x)[0] == pytest.approx(
                _wk_oracle(u, x), abs=5e-12
            )


def test_kernels_mixed_routes_against_mpmath():
    # one call over shuffled (u, x) pairs that take every route: the J series
    # (x <= 14) and contour, the K series (x <= 5.5), real axis and shifted
    # contour (x < pi u - 6)
    pairs = [(u, x) for x in (0.0126, 3.97, 5.0, 9.0, 14.1, 30.0, 125.7)
             for u in (0.5, 3.0, 6.0, 17.0)]
    random.Random(3).shuffle(pairs)
    u, x = (np.array(col) for col in zip(*pairs))
    rj, wk = rj_kernel(u, x), wk_kernel(u, x)
    for (ui, xi), a, b in zip(pairs, rj, wk):
        assert a == pytest.approx(_rj_oracle(ui, xi), abs=5e-12), (ui, xi)
        assert b == pytest.approx(_wk_oracle(ui, xi), abs=5e-12), (ui, xi)
    # a 2-d broadcast gives the same bits as one x at a time
    xs = np.array([0.0126, 5.0, 9.0, 30.0])[:, None]
    us = np.array([0.5, 3.0, 6.0, 17.0])
    for kernel in (rj_kernel, wk_kernel):
        grid = kernel(us, xs)
        rows = np.array([kernel(us, float(xi)) for xi in xs[:, 0]])
        assert np.array_equal(grid.view(np.int64), rows.view(np.int64))


def test_kernel_bounds_hold():
    for x in (0.013, 1.0, 30.0, 125.7):
        us = np.linspace(0.05, 45, 60)
        assert np.all(np.abs(rj_kernel(us, x)) <= rj_bound(us, x) + 1e-12)
        assert np.all(np.abs(wk_kernel(us, x)) <= wk_bound(us, x) + 1e-12)


def _wk_bound_loop(u, x):
    """The scalar loop wk_bound replaced, with an overflowing candidate
    read as +inf."""
    out = np.empty_like(u)
    for i, ui in enumerate(u):
        best = math.inf
        for eps in (math.pi / 2, math.pi / 4, 1.0 / max(ui, 0.5), 2.0 / max(ui, 0.5)):
            if eps > math.pi / 2:
                eps = math.pi / 2
            y = x * math.sin(eps)
            try:
                val = 0.5 * math.exp(2 * ui * eps - y) * float(k0e(y))
            except OverflowError:
                val = math.inf
            best = min(best, val)
        out[i] = best
    return out


def test_wk_bound_bit_identical_to_scalar_loop():
    rng = np.random.default_rng(7)
    u = np.concatenate([[0.0, 0.25, 0.5], rng.uniform(0, 220, 200), rng.uniform(0, 3, 40)])
    xs = np.concatenate([np.geomspace(1e-3, 1e4, 41), rng.uniform(1e-3, 150, 10)])
    loops = np.array([_wk_bound_loop(u, x) for x in xs])
    for x, loop in zip(xs, loops):
        got = wk_bound(u, x)
        assert np.array_equal(got.view(np.int64), loop.view(np.int64)), x
    # x as an array: a column against the u row, and (u, x) pairs
    got = wk_bound(u, xs[:, None])
    assert np.array_equal(got.view(np.int64), loops.view(np.int64))
    got = wk_bound(np.tile(u, xs.size), np.repeat(xs, u.size))
    assert np.array_equal(got.view(np.int64), loops.ravel().view(np.int64))


def test_wk_bound_past_exp_range():
    # the eps = pi/2 candidate e^{pi u - x} overflows from u ~ 226 on; the
    # smaller tilts still give a finite majorant
    u = np.array([200.0, 226.5, 300.0, 1e4])
    for x in (1e-3, 15.39, 100.0):
        got = wk_bound(u, x)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got.view(np.int64), _wk_bound_loop(u, x).view(np.int64))


def test_kernels_refuse_out_of_range_u():
    # at x ~ 15 the shifted contour needs more than 4000 panels near u ~ 113
    with pytest.raises(ValueError, match="quadrature panels"):
        wk_kernel(np.array([1.0, 150.0]), 15.39)
    with pytest.raises(ValueError, match="quadrature panels"):
        bessel_transforms(KTestGaussian(500.0), -1.5)
    # the power series (small x) overflows from u ~ 226 on
    for kernel in (rj_kernel, wk_kernel):
        with pytest.raises(ValueError, match="float range"):
            kernel(np.array([1.0, 230.0]), 3.97)
    for t in (0.1, -0.1):
        with pytest.raises(ValueError, match="float range"):
            bessel_transforms(KTestGaussian(50.0), t)


def test_series_kernels_at_range_limit():
    x = 3.97
    for u in (150.0, 225.9):
        assert rj_kernel(np.array([u]), x)[0] == pytest.approx(_rj_oracle(u, x), abs=5e-12)
        assert wk_kernel(np.array([u]), x)[0] == pytest.approx(_wk_oracle(u, x), abs=5e-12)


def test_tail_window_cache_bounded():
    _tail_window.cache_clear()
    maxsize = _tail_window.cache_info().maxsize
    assert maxsize == 256
    for i in range(300):
        _truncation_height(KTestGaussian(1.0 + i / 64), np.ones_like, 5e-9)
    info = _tail_window.cache_info()
    assert info.misses > maxsize
    assert info.currsize == maxsize
    us, wu = _tail_window(KTestGaussian(1.0), 2.0)
    assert not us.flags.writeable and not wu.flags.writeable
    _tail_window.cache_clear()


def _gl_panels_linspace(a, b, n, order):
    # one row of equal panels cut by np.linspace
    x0, w0 = _leggauss(order)
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return (mid[:, None] + half * x0[None, :]).ravel(), np.broadcast_to(half * w0, (n, order)).ravel()


def test_gl_panels_array_form_is_row_concatenation():
    rng = np.random.default_rng(11)
    a = np.concatenate([[0.0, 0.0, 1.7, -2.5], rng.uniform(-5, 5, 30)])
    b = a + np.concatenate([[1.0, math.pi / 2, 0.3, 4.0], rng.uniform(0.01, 40, 30)])
    n = np.concatenate([[1, 3, 1, 1], rng.integers(1, 12, 30)])
    for order in (8, 12, 16):
        xs, ws = gl_panels(a, b, n, order=order)
        rows = [_gl_panels_linspace(float(ai), float(bi), int(ni), order) for ai, bi, ni in zip(a, b, n)]
        assert np.array_equal(xs.view(np.int64), np.concatenate([r[0] for r in rows]).view(np.int64))
        assert np.array_equal(ws.view(np.int64), np.concatenate([r[1] for r in rows]).view(np.int64))
        for ai, bi, ni, (rx, rw) in zip(a, b, n, rows):
            xs, ws = gl_panels(float(ai), float(bi), int(ni), order=order)
            assert np.array_equal(xs.view(np.int64), rx.view(np.int64))
            assert np.array_equal(ws.view(np.int64), rw.view(np.int64))
    # a scalar end broadcasts against the rows
    xs, _ = gl_panels(0.0, math.pi / 2, np.array([2, 5]), order=12)
    ref = np.concatenate([_gl_panels_linspace(0.0, math.pi / 2, m, 12)[0] for m in (2, 5)])
    assert np.array_equal(xs.view(np.int64), ref.view(np.int64))


def test_graded_panels_fallback_is_equal_panels():
    # a slowly varying density gives fewer panels than min_panels
    mid, half = graded_panels(0.3, 2.9, lambda v: 0.01, 4)
    ref_mid, ref_half = equal_panels(0.3, 2.9, 4)
    assert mid == ref_mid.tolist() and half == ref_half.tolist()
    edges = np.linspace(0.3, 2.9, 5)
    assert mid == (0.5 * (edges[:-1] + edges[1:])).tolist()


# t reaching every route at x = 4 pi sqrt|t|: J series (t <= 1.24) and
# contour, K series (|t| <= 0.19), real axis and shifted contour
ROUTE_TS = [1e-6, 0.05, 0.9, 1.5, 3.0, 20.0, -1e-5, -0.01, -0.15, -0.25, -2.0, -12.0]


@pytest.mark.parametrize("Z", [1.0, 2.0, 8.0])
def test_transforms_many_bit_identical_to_one_t(Z):
    k = KTestGaussian(Z)
    ts = ROUTE_TS + ROUTE_TS[::3]  # duplicates
    random.Random(int(Z)).shuffle(ts)
    many = bessel_transforms_many(k, ts)
    for t, rec in zip(ts, many):
        one = bessel_transforms(k, t)
        assert rec.keys() == one.keys()
        for key, v in one.items():
            assert np.float64(rec[key]).view(np.int64) == np.float64(v).view(np.int64), (t, key)
    # every route is taken: the K side reaches u > (x + 6)/pi past x = 5.5
    xs = {t: 4 * math.pi * math.sqrt(abs(t)) for t in ts}
    assert {xs[t] <= 14 for t in ts if t > 0} == {True, False}
    assert {xs[t] <= 5.5 for t in ts if t < 0} == {True, False}
    assert any(xs[t] > 5.5 and rec["T"] > (xs[t] + 6) / math.pi
               for t, rec in zip(ts, many) if t < 0)


def test_transforms_many_refusals():
    for t in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and nonzero"):
            bessel_transforms_many(KTestGaussian(1.0), [0.5, t])
    for Z in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="Z must be finite"):
            KTestGaussian(Z)
    # a tail target of 0 is never met: ValueError naming the limit on T
    with pytest.raises(ValueError, match=r"60\*max\(1, Z\) = 120"):
        bessel_transforms(KTestGaussian(2.0), 1.5, tail_target=0.0)
    assert bessel_transforms_many(KTestGaussian(1.0), []) == []


def test_transforms_many_repeated_t_at_the_J_panel_limit(monkeypatch):
    # repeated t are one transform: at a J panel limit that one t just meets,
    # the batch accepts the repeats and gives the one-t bits
    k = KTestGaussian(2.0)
    monkeypatch.setattr(bessel_kernels, "_MAX_J_PANELS", 1)
    with pytest.raises(ValueError, match="J-kernel") as err:
        bessel_transforms(k, 3.0)
    need = int(str(err.value).split(" needs ")[1].split()[0])
    monkeypatch.setattr(bessel_kernels, "_MAX_J_PANELS", need)
    one = bessel_transforms(k, 3.0)
    many = bessel_transforms_many(k, [3.0, -3.0, 3.0, 3.0])
    for rec in (many[0], many[2], many[3]):
        assert rec == one and rec is not one
    assert many[0] is not many[2]
    monkeypatch.setattr(bessel_kernels, "_MAX_J_PANELS", need - 1)
    with pytest.raises(ValueError, match=f"needs {need} quadrature panels"):
        bessel_transforms_many(k, [3.0, 3.0])


def test_transforms_many_refuses_before_any_kernel(monkeypatch):
    # a K-side refusal comes from the node limits, before the J side runs
    def no_kernel(u, x):
        raise AssertionError("kernel evaluated")

    monkeypatch.setattr(bessel_kernels, "rj_kernel", no_kernel)
    monkeypatch.setattr(bessel_kernels, "wk_kernel", no_kernel)
    with pytest.raises(ValueError, match="K-kernel at u="):
        bessel_transforms_many(KTestGaussian(25.0), [0.5, 3.0, -0.35])
    with pytest.raises(ValueError, match="Bessel power series"):
        bessel_transforms_many(KTestGaussian(60.0), [3.0, 0.01])


def test_transforms_many_memory_at_box_20():
    # the 2864 t (1432 per place) of --field 5 kuz-geom --box 20 in one batch:
    # the flat arrays go in blocks of 2^13 points, a few MB at a time, and
    # the rest grows with the results alone
    gamma = K5.delta * K5.delta
    ts = []
    for j in range(2):
        seen = {}
        for c in enumerate_in_box(K5.unit_ideal(), [(-20.0, 20.0)] * 2):
            if not c.is_zero():
                for u in K5.units_mod_squares():
                    emb = (u / (gamma * c * c)).embeddings()[j]
                    seen.setdefault(round(emb, 18), emb)
        ts += list(seen.values())
    assert len(ts) == 2864
    k = KTestGaussian(1.0)
    bessel_transforms_many(k, ts[:8])  # imports and tail windows
    tracemalloc.start()
    try:
        out = bessel_transforms_many(k, ts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == len(ts)
    assert peak < 4 * 2**20 + 1024 * len(ts), peak


def _kcheck_oracle(Z, t):
    x = 4 * math.pi * math.sqrt(abs(t))
    kz = lambda u: mp.e ** (-((u**2) + mp.mpf(1) / 4) / Z**2)
    if t > 0:
        f = lambda u: kz(u) * u * mp.im(mp.besselj(2j * u, x)) / mp.cosh(mp.pi * u)
        cont = -2 * mp.quad(f, [0, 5 * Z + 5])
        disc = 0
        b = 2
        while (b - 1) / 2 <= max(0.5, Z):
            nu = mp.mpf(b - 1) / 2
            kv = mp.e ** ((nu**2 - mp.mpf(1) / 4) / Z**2) if nu < 2 / 3 else (
                1 if nu <= Z else 0
            )
            disc += (-1) ** (b // 2) * (b - 1) * kv * mp.besselj(b - 1, x)
            b += 2
        return float(cont + disc)
    f = lambda u: kz(u) * u * mp.sinh(mp.pi * u) * mp.re(mp.besselk(2j * u, x))
    return float(4 / mp.pi * mp.quad(f, [0, 5 * Z + 5]))


def test_transform_against_oracle():
    for Z, t in ((1, 0.5), (1, -0.5), (2, 3.0), (2, -2.0)):
        got = bessel_transforms(KTestGaussian(Z), t)["value"]
        assert got == pytest.approx(_kcheck_oracle(Z, t), abs=2e-9)


def test_transform_small_argument():
    r = bessel_transforms(KTestGaussian(1.0), 1e-8)
    assert abs(r["value"]) <= 1e-3
    assert r["tail_bound"] < 1e-8


def test_tilde_and_bound_shape():
    for Z in (1, 2, 4, 8):
        td = bessel_tilde(KTestGaussian(Z))
        assert abs(td["value"]) <= 1.2 * Z**2
        assert td["tail_bound"] < 1e-8


def test_transform_certificates():
    for Z in (1, 4):
        for t in (1e-6, 0.37, -11.0, 100.0):
            r = bessel_transforms(KTestGaussian(Z), t)
            assert r["tail_bound"] < 1e-8


# ---------------------------------------------------------------------------
# geometric side


def test_kuznetsov_real_output():
    k = [KTestGaussian(1.0)]
    rec = kuznetsov_geometric_side(Q.element(1), Q.element(1), Q.unit_ideal(), k, box=25.0)
    assert abs(rec["value"].imag) < 1e-9 * max(1, abs(rec["value"]))


def test_kuznetsov_large_level_is_diagonal():
    # with a deep level the off-diagonal majorant collapses and only the
    # delta term survives
    k = [KTestGaussian(1.0)]
    lev = Q.ideal(10**4)
    rec = kuznetsov_geometric_side(Q.element(1), Q.element(1), lev, k, box=0.5)
    assert rec["terms"] == 0
    assert rec["value"] == pytest.approx(rec["ktilde"][0], rel=1e-12)


def test_kuznetsov_partial_sums_cauchy():
    k = [KTestGaussian(1.0)]
    r1 = Q.element(1)
    rec1 = kuznetsov_geometric_side(r1, r1, Q.unit_ideal(), k, box=20.0)
    rec2 = kuznetsov_geometric_side(r1, r1, Q.unit_ideal(), k, box=40.0)
    assert abs(rec1["value"] - rec2["value"]) <= rec1["tail_majorant"]


def _term_by_term(ks, r1, r2, box):
    """The off-diagonal sum by a walk that transforms each term's embeddings
    as it meets them, one bessel_transforms call per new (place, t); returns
    (sum, terms, distinct t per place)."""
    from totreal.kloosterman import KloostermanQuery, kloosterman_sums

    gamma = K5.delta * K5.delta
    cache, total, terms = {}, 0.0 + 0j, 0
    for c in enumerate_in_box(K5.unit_ideal(), [(-box, box)] * 2):
        if c.is_zero():
            continue
        units = K5.units_mod_squares()
        sums = kloosterman_sums([KloostermanQuery(r1, u * r2, c) for u in units])
        for u, S in zip(units, sums):
            prod = 1.0
            for j, emb in enumerate(((u * r1 * r2) / (gamma * c * c)).embeddings()):
                key = (j, round(emb, 18))
                if key not in cache:
                    cache[key] = bessel_transforms(ks[j], emb)["value"]
                prod *= cache[key]
            total += S / abs(float(c.norm())) * prod
            terms += 1
    return total, terms, [sum(j == i for j, _ in cache) for i in range(2)]


def _count_transform_calls(monkeypatch):
    from totreal import spectral

    calls = {"bessel_transforms_many": 0, "bessel_tilde": 0}
    for name in calls:
        def counted(*args, _f=getattr(spectral, name), _name=name, **kw):
            calls[_name] += 1
            return _f(*args, **kw)
        monkeypatch.setattr(spectral, name, counted)
    return calls


def _check_against_term_by_term(monkeypatch, ks, batches):
    # the two-pass geometric side against the term-by-term walk, bit for
    # bit, with the number of transform batches and ktilde evaluations
    r1, r2 = K5.element(1), K5.element(2)
    calls = _count_transform_calls(monkeypatch)
    rec = kuznetsov_geometric_side(r1, r2, K5.unit_ideal(), ks, box=5.0)
    assert calls == {"bessel_transforms_many": batches, "bessel_tilde": batches}
    monkeypatch.undo()
    total, terms, transforms = _term_by_term(ks, r1, r2, 5.0)
    assert rec["terms"] == terms
    assert rec["transforms"] == transforms
    assert rec["off_diagonal"] == total
    assert rec["ktilde"] == [bessel_tilde(k)["value"] for k in ks]


def test_kuznetsov_batched_equals_term_by_term(monkeypatch):
    # two test functions: one batch and one ktilde each
    _check_against_term_by_term(monkeypatch, [KTestGaussian(1.0), KTestGaussian(2.0)], 2)


def test_kuznetsov_equal_test_functions_share_one_batch(monkeypatch):
    # equal test functions: the places share one batch and one ktilde, and
    # each place still counts its own distinct t
    _check_against_term_by_term(monkeypatch, [KTestGaussian(1.0)] * 2, 1)


def test_kuznetsov_tail_target_reaches_transforms():
    # a looser tail target moves kcheck and ktilde; the default is 5e-9
    ks = [KTestGaussian(1.0)] * 2
    one = K5.element(1)
    default = kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=3.0)
    assert kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=3.0, tail_target=5e-9) == default
    loose = kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=3.0, tail_target=5e-4)
    assert loose["ktilde"] == [bessel_tilde(ks[0], 5e-4)["value"]] * 2
    assert loose["ktilde"] != default["ktilde"]
    assert loose["value"] != default["value"]
