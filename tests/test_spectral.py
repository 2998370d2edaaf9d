"""Tests for eigenvalue systems, oldform bases, and the Kuznetsov side."""

import cmath
import gc
import math
import random
import tracemalloc
import warnings
import weakref

import mpmath as mp
import numpy as np
import pytest
from scipy.special import k0e

from totreal import bessel_kernels, spectral
from totreal.bessel_kernels import rj_bound, rj_kernel, wk_bound, wk_kernel
from totreal.fields import Ideal, divisors, enumerate_in_box, ideals_of_norm_up_to, make_field
from totreal.quadrature import _leggauss, equal_panels, gl_from_panels, gl_panels, graded_panels
from totreal.spectral import (
    EigenvalueSystem,
    KTestGaussian,
    OldformBasis,
    TRANSFORM_CACHE_SIZE,
    _RECORDS,
    _tail_window,
    _truncation_heights,
    bessel_tilde,
    bessel_transforms,
    bessel_transforms_many,
    divisor_system,
    kuznetsov_geometric_side,
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


def test_system_freed_with_its_caches():
    # alpha and lambda(P^k) are cached per system, so a system that was
    # asked for eigenvalues goes once nothing else holds it
    sys_ = EigenvalueSystem(K5, seed=7)
    sys_.lambda_value(K5.ideal(12))
    sys_.lambda_prime_power(K5.primes_above(11)[0], 3)
    assert sys_.alpha.cache_info().currsize == 3
    assert EigenvalueSystem(K5, seed=7).alpha.cache_info().currsize == 0
    ref = weakref.ref(sys_)
    del sys_
    gc.collect()
    assert ref() is None


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


def test_divisor_system_any_class_number():
    # Q(sqrt 10) has h = 2 and (2, sqrt 10) is not principal: the trivial
    # character needs no generator, and lambda(P^k) = k + 1 at every prime
    K10 = make_field(10, allow_class_number=True)
    dv = divisor_system(K10)
    for p in (2, 3, 5, 7, 13):
        for P in K10.primes_above(p):
            m = K10.unit_ideal()
            for k in range(4):
                assert dv.lambda_value(m) == k + 1
                m = m * P.ideal


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
        _truncation_heights(KTestGaussian(1.0 + i / 64), lambda us, x: np.ones_like(us), [0.0], 5e-9)
    info = _tail_window.cache_info()
    assert info.misses > maxsize
    assert info.currsize == maxsize
    us, wu = _tail_window(KTestGaussian(1.0), 2.0)
    assert not us.flags.writeable and not wu.flags.writeable
    _tail_window.cache_clear()


def _truncation_heights_by_steps(k, bound, xs, target):
    """The truncation search that sums every window: 32 x at a time, each
    open x steps T from max(2, Z) by max(0.5, Z/4) and stops at the first
    window whose tail 2.1 * sum is below target."""
    xs = np.asarray(xs, dtype=float)
    heights, tails = [0.0] * xs.size, [0.0] * xs.size
    limit = 60 * max(1.0, k.Z)
    for lo in range(0, xs.size, 32):
        todo = np.arange(lo, min(lo + 32, xs.size))
        T = max(2.0, k.Z)
        while todo.size:
            if not T < limit:
                raise ValueError(
                    f"no truncation height below 60*max(1, Z) = {limit:g} brings the"
                    f" tail under {target:g} at Z={k.Z:g}"
                )
            us, wu = _tail_window(k, T)
            vals = wu * bound(us, xs[todo, None])
            tail = np.sum(np.broadcast_to(vals, (todo.size, us.size)), axis=1) * 2.1
            done = tail < target
            for i, v in zip(todo[done].tolist(), tail[done].tolist()):
                heights[i], tails[i] = T, v
            todo = todo[~done]
            T += max(0.5, k.Z / 4)
    return heights, tails


def _ones_bound(us, x):
    # the bound bessel_tilde searches with
    return np.ones_like(us)


# 45 x, two blocks of 32, through the series (x <= 5.5 and 14), real-axis
# and shifted-contour ranges of the kernels
SEARCH_XS = np.geomspace(1e-3, 300.0, 45)


@pytest.mark.parametrize("Z", [0.3, 1.0, 2.0, 2.2, 3.0, 4.0, 8.0, 16.0])
def test_truncation_search_matches_every_window_search(Z):
    # the probe skips only windows that fail: the same T and tail bits
    k = KTestGaussian(Z)
    for bound, xs in ((wk_bound, SEARCH_XS), (rj_bound, SEARCH_XS), (_ones_bound, [0.0])):
        for target in (5e-9, 5e-4, 1e-14):
            got = _truncation_heights(k, bound, xs, target)
            ref = _truncation_heights_by_steps(k, bound, xs, target)
            assert repr(got) == repr(ref), (bound, target)
    # no height below the limit meets a target of 0: the same refusal
    for bound, xs in ((wk_bound, SEARCH_XS[::20]), (rj_bound, SEARCH_XS[::20]), (_ones_bound, [0.0])):
        messages = []
        for search in (_truncation_heights, _truncation_heights_by_steps):
            with pytest.raises(ValueError) as err:
                search(k, bound, xs, 0.0)
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert f"60*max(1, Z) = {60 * max(1.0, Z):g}" in messages[0]


def test_truncation_grid_is_accumulated():
    # T steps by max(0.5, Z/4) from max(2, Z) in floats, not on half-integers
    assert bessel_tilde(KTestGaussian(3.0))["T"] == 14.25
    assert _truncation_heights(KTestGaussian(2.2), _ones_bound, [0.0], 5e-9)[0] == [10.450000000000001]


@pytest.mark.parametrize("bound", [wk_bound, rj_bound])
def test_bounds_are_shape_independent(bound):
    # the probe of the truncation search evaluates one node apart from its
    # window, so a value must not depend on the call it is part of; u runs
    # to 68 * 16, past u ~ 226 where e^{2 u eps} overflows at eps = pi/2
    rng = np.random.default_rng(5)
    u = np.concatenate([[0.0, 0.25, 0.5, 225.0, 227.0, 68 * 16.0], rng.uniform(0, 68 * 16, 40),
                        rng.uniform(0, 4, 20)])
    x = np.concatenate([np.geomspace(1e-6, 1e3, 25), rng.uniform(1e-3, 300, 8)])
    full = bound(u, x[:, None])
    assert full.shape == (x.size, u.size) and np.all(full >= 0)

    def same(got, ref):
        assert np.array_equal(np.array(got).view(np.int64), np.array(ref).view(np.int64))

    for i in range(0, x.size, 4):
        for j in range(0, u.size, 3):
            same(bound(u[j:j + 1], x[i]), full[i, j:j + 1])
            same(bound(u[j], x[i]), full[i, j])
    # strided views, and every other row and column
    wide = np.repeat(u, 3)[::3]
    assert not wide.flags.c_contiguous
    same(bound(wide, x[:, None]), full)
    same(bound(u[::3], x[::2, None]), full[::2, ::3])
    same(bound(u[::-1], x[:, None]), full[:, ::-1])
    # broadcast and transposed 2-D forms, and (u, x) pairs
    same(bound(np.broadcast_to(u, full.shape), x[:, None]), full)
    same(bound(u, np.broadcast_to(x[:, None], full.shape)), full)
    same(bound(u[:, None], x[None, :]), full.T)
    same(bound(np.tile(u, x.size), np.repeat(x, u.size)), full.ravel())
    # stacked windows against a column of x, as the search calls it
    rows = np.stack([u, u[::-1]])
    same(bound(rows, x[:2, None]), np.stack([full[0], full[1, ::-1]]))


# (Z, t) that send the probes past the answer, where k(iu) underflows to
# 0, and to the edges of t: tiny |t| at large Z and tiny Z
SILENT_GRID = [(25.0, -1e-300), (40.0, -1e-4), (0.01, -1.5), (0.01, 1.5), (1.5e-154, -1.5),
               (0.3, 5e-324), (3.0, -5e-324), (16.0, 1e-300), (16.0, -300.0), (8.0, 1e4)]


def test_truncation_probes_are_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for Z, t in SILENT_GRID:
            k = KTestGaussian(Z)
            x = [4 * math.pi * math.sqrt(abs(t))]
            for bound in (wk_bound, rj_bound, _ones_bound):
                for target in (5e-9, 1e-14):
                    _truncation_heights(k, bound, x, target)
        _RECORDS.clear()
        for Z, t in SILENT_GRID[:3]:
            bessel_transforms(KTestGaussian(Z), t)
            bessel_tilde(KTestGaussian(Z))


def _gl_panels_linspace(a, b, n, order):
    # one row of equal panels cut by np.linspace
    x0, w0 = _leggauss(order)
    edges = np.linspace(a, b, n + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return (mid[:, None] + half * x0[None, :]).ravel(), np.broadcast_to(half * w0, (n, order)).ravel()


def test_gl_panels_matches_linspace_rows():
    rng = np.random.default_rng(11)
    a = np.concatenate([[0.0, 0.0, 1.7, -2.5], rng.uniform(-5, 5, 30)])
    b = a + np.concatenate([[1.0, math.pi / 2, 0.3, 4.0], rng.uniform(0.01, 40, 30)])
    n = np.concatenate([[1, 3, 1, 1], rng.integers(1, 12, 30)])
    for order in (8, 12, 16):
        for ai, bi, ni in zip(a, b, n):
            rx, rw = _gl_panels_linspace(float(ai), float(bi), int(ni), order)
            xs, ws = gl_panels(float(ai), float(bi), int(ni), order=order)
            assert np.array_equal(xs.view(np.int64), rx.view(np.int64))
            assert np.array_equal(ws.view(np.int64), rw.view(np.int64))
            ex, ew = gl_from_panels(*equal_panels(float(ai), float(bi), int(ni)), order)
            assert np.array_equal(ex.view(np.int64), rx.view(np.int64))
            assert np.array_equal(ew.view(np.int64), rw.view(np.int64))


def _wk_shifted_out_of_place(u, x):
    # the shifted K contour as one out-of-place expression on the linspace
    # grid: the reference for the in-place evaluation of bessel_kernels
    eps, a, smax, n_panels = bessel_kernels._wk_shifted_panels(u, x)
    s, w = _gl_panels_linspace(0.0, smax, n_panels, 12)
    re_arg = -a * np.cosh(s)
    im_arg = -x * math.cos(eps) * np.sinh(s) + 2 * u * s
    integral = np.sum(w * np.exp(re_arg) * np.cos(im_arg))
    pref = (1 - math.exp(-2 * math.pi * u)) * 0.5 * math.exp(2 * u * eps)
    return float(pref * integral)


def test_wk_shifted_in_place_is_bit_identical():
    rng = np.random.default_rng(23)
    x = rng.uniform(5.6, 120.0, 49)
    u = (x + 6) / math.pi + rng.uniform(0.01, 60.0, 49)
    # and one pair just under the _MAX_PANELS cap
    u, x = np.append(u, 117.6), np.append(x, 20.0)
    assert bessel_kernels._wk_shifted_panels(117.6, 20.0)[3] > 0.99 * bessel_kernels._MAX_PANELS
    assert np.all(x < math.pi * u - 6.0)  # all on the shifted route
    ref = np.array([_wk_shifted_out_of_place(ui, xi) for ui, xi in zip(u.tolist(), x.tolist())])
    assert np.array_equal(wk_kernel(u, x).view(np.int64), ref.view(np.int64))


def test_transforms_leave_the_tail_windows_unchanged():
    # the cached (read-only) windows of the truncation search are shared by
    # every later call, so no evaluation may write to them
    k = KTestGaussian(2.0)
    us, wu = _tail_window(k, 2.0)
    us0, wu0 = us.copy(), wu.copy()
    for t in (-1.5, 1.5):
        bessel_transforms(k, t)
    cached = _tail_window(k, 2.0)
    assert cached[0] is us and cached[1] is wu
    assert not us.flags.writeable and not wu.flags.writeable
    assert np.array_equal(us.view(np.int64), us0.view(np.int64))
    assert np.array_equal(wu.view(np.int64), wu0.view(np.int64))


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
    # the transform cache is emptied before each route, so both compute
    _RECORDS.clear()
    many = bessel_transforms_many(k, ts)
    for t, rec in zip(ts, many):
        _RECORDS.clear()
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
    # (the transform cache is emptied before each route, so each computes)
    k = KTestGaussian(2.0)
    _RECORDS.clear()
    monkeypatch.setattr(bessel_kernels, "_MAX_J_PANELS", 1)
    with pytest.raises(ValueError, match="J-kernel") as err:
        bessel_transforms(k, 3.0)
    need = int(str(err.value).split(" needs ")[1].split()[0])
    monkeypatch.setattr(bessel_kernels, "_MAX_J_PANELS", need)
    one = bessel_transforms(k, 3.0)
    _RECORDS.clear()
    many = bessel_transforms_many(k, [3.0, -3.0, 3.0, 3.0])
    for rec in (many[0], many[2], many[3]):
        assert rec == one and rec is not one
    assert many[0] is not many[2]
    monkeypatch.setattr(bessel_kernels, "_MAX_J_PANELS", need - 1)
    _RECORDS.clear()
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


def _same_bits(a, b):
    return a.keys() == b.keys() and all(
        np.float64(a[key]).view(np.int64) == np.float64(b[key]).view(np.int64) for key in a
    )


def test_transform_cache_hit_is_a_fresh_copy():
    k = KTestGaussian(2.0)
    _RECORDS.clear()
    first = bessel_transforms_many(k, [1.5, -1.5])
    held = {key: dict(rec) for key, rec in _RECORDS.items()}
    assert len(held) == 2
    again = bessel_transforms_many(k, [1.5, -1.5, 1.5])
    for a, b in zip(first + first[:1], again):
        assert _same_bits(a, b) and a is not b
    assert again[0] is not again[2]
    # a caller's edits to its records never reach the cache
    again[0]["value"] = 0.0
    again[1].clear()
    first[0]["T"] = -1.0
    assert {key: dict(rec) for key, rec in _RECORDS.items()} == held
    assert all(_same_bits(held[key], rec) for key, rec in _RECORDS.items())
    assert _same_bits(bessel_transforms(k, -1.5), held[k, False, 4 * math.pi * math.sqrt(1.5), 5e-9])


def test_transform_cache_keys_the_tail_target():
    k = KTestGaussian(1.0)
    _RECORDS.clear()
    loose = bessel_transforms(k, -1.5, tail_target=5e-4)
    tight = bessel_transforms(k, -1.5, tail_target=5e-9)
    assert len(_RECORDS) == 2
    assert loose["T"] < tight["T"] and loose["value"] != tight["value"]
    assert _same_bits(bessel_transforms(k, -1.5, tail_target=5e-4), loose)
    assert _same_bits(bessel_transforms(k, -1.5), tight)
    assert len(_RECORDS) == 2


def test_transform_cache_bounded(monkeypatch):
    # a batch larger than the bound leaves the bound, its most recent
    # records last; a later hit moves its record to the end
    assert TRANSFORM_CACHE_SIZE == 4096
    monkeypatch.setattr(spectral, "TRANSFORM_CACHE_SIZE", 8)
    k = KTestGaussian(1.0)
    ts = [(-1) ** i * 0.05 * (i + 1) for i in range(20)]
    keys = [(k, t > 0, 4 * math.pi * math.sqrt(abs(t)), 5e-9) for t in ts]
    _RECORDS.clear()
    out = bessel_transforms_many(k, ts)
    assert len(out) == 20
    assert list(_RECORDS) == keys[-8:]
    bessel_transforms(k, ts[12])
    assert list(_RECORDS) == keys[13:] + keys[12:13]
    bessel_transforms(k, 7.0)
    assert len(_RECORDS) == 8 and list(_RECORDS)[0] == keys[14]


def test_transform_cache_takes_nothing_from_a_refused_batch():
    _RECORDS.clear()
    bessel_transforms_many(KTestGaussian(1.0), [0.5, -0.5])
    held = list(_RECORDS)
    with pytest.raises(ValueError, match="finite and nonzero"):
        bessel_transforms_many(KTestGaussian(1.0), [0.7, -0.5, 0.0])
    assert list(_RECORDS) == held
    # the J side of 3.0 passes its checks, then 0.01 is refused
    with pytest.raises(ValueError, match="Bessel power series"):
        bessel_transforms_many(KTestGaussian(60.0), [3.0, 0.01])
    assert list(_RECORDS) == held
    # the J side passes every check, then the K side is refused
    with pytest.raises(ValueError, match="K-kernel at u="):
        bessel_transforms_many(KTestGaussian(25.0), [0.5, 3.0, -0.35])
    assert list(_RECORDS) == held


def _count_kernel_nodes(monkeypatch):
    # the u-nodes the two kernels evaluate, and the (t > 0, x) they serve
    seen = {"nodes": 0, "xs": set()}
    for name in ("rj_kernel", "wk_kernel"):
        def counted(us, x, _f=getattr(bessel_kernels, name), _pos=name == "rj_kernel"):
            seen["nodes"] += us.size
            seen["xs"].update((_pos, v) for v in np.unique(x).tolist())
            return _f(us, x)
        monkeypatch.setattr(bessel_kernels, name, counted)
    return seen


def test_transform_cache_hits_evaluate_no_kernel(monkeypatch):
    k = KTestGaussian(2.0)
    _RECORDS.clear()
    seen = _count_kernel_nodes(monkeypatch)
    first = bessel_transforms_many(k, ROUTE_TS)
    assert seen["nodes"] == sum(rec["nodes"] for rec in first)
    seen["nodes"] = 0
    again = bessel_transforms_many(k, ROUTE_TS)
    assert seen["nodes"] == 0
    assert all(_same_bits(a, b) for a, b in zip(first, again))


def test_kuznetsov_larger_box_computes_only_new_transforms(monkeypatch):
    # box 20 after box 8 evaluates only the x that box 8 did not have, and
    # gives the bits of box 20 alone
    ks = [KTestGaussian(1.0)] * 2
    one = K5.element(1)
    _RECORDS.clear()
    seen = _count_kernel_nodes(monkeypatch)
    kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=8.0)
    had = set(seen["xs"])
    seen["xs"].clear()
    after = kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=20.0)
    new = set(seen["xs"])
    assert had and new and not had & new
    assert new | had == {(pos, x) for _, pos, x, _ in _RECORDS}
    _RECORDS.clear()
    seen["xs"].clear()
    alone = kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=20.0)
    assert seen["xs"] == new | had
    assert after == alone


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


def _kloosterman_classical(m, n, c):
    """S(m, n; c): e((m x + n xbar)/|c|) summed over the x mod |c| prime to c."""
    c = abs(c)
    return sum(cmath.exp(2j * math.pi * (m * x + n * pow(x, -1, c)) / c)
               for x in range(c) if math.gcd(x, c) == 1)


@pytest.mark.parametrize("m,n,B", [(1, 1, 6), (2, 3, 5)])
def test_kuznetsov_off_diagonal_classical_form_Q(m, n, B):
    # the classical off-diagonal term over Q: the sum over 0 < |c| <= B and
    # u = +-1 of S(m, un; c)/|c| kcheck(umn/c^2), S from residues and kcheck
    # by mpmath quadrature; c and -c give equal terms
    total = 0j
    for c in range(1, B + 1):
        for u in (1, -1):
            total += 2 * _kloosterman_classical(m, u * n, c) / c * _kcheck_oracle(1.0, u * m * n / c**2)
    rec = kuznetsov_geometric_side(Q.element(m), Q.element(n), Q.unit_ideal(),
                                   [KTestGaussian(1.0)], box=float(B))
    assert rec["terms"] == 4 * B
    assert abs(total) > 0.1
    assert rec["off_diagonal"] == pytest.approx(total, abs=1e-8)


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
    # the walk computes its own transforms, not the batch's cached records
    _RECORDS.clear()
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
    # the cache is emptied before each call, so each computes its transforms
    _RECORDS.clear()
    default = kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=3.0)
    _RECORDS.clear()
    assert kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=3.0, tail_target=5e-9) == default
    _RECORDS.clear()
    loose = kuznetsov_geometric_side(one, one, K5.unit_ideal(), ks, box=3.0, tail_target=5e-4)
    assert loose["ktilde"] == [bessel_tilde(ks[0], 5e-4)["value"]] * 2
    assert loose["ktilde"] != default["ktilde"]
    assert loose["value"] != default["value"]
