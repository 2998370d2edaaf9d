"""Tests for classical/normalized Whittaker functions and the A-norm."""

import math

import mpmath as mp
import numpy as np
import pytest

from totreal import whittaker
from totreal.quadrature import log_axis_grid
from totreal.whittaker import (
    WhittakerDomainError,
    WhittakerSpec,
    a_norm,
    gram_matrix,
    normalized_whittaker,
    normalized_whittaker_1d,
    nu_admissible,
    whittaker_inner,
    whittaker_w,
    whittaker_w_int,
)


def test_closed_form_examples():
    v, route = whittaker_w(1, 0.5, 2.0)
    assert route == "laguerre"
    assert v == pytest.approx(2 * math.exp(-1), rel=1e-12)
    # W_{0,mu}(x) = sqrt(x/pi) K_mu(x/2)
    v, route = whittaker_w(0, 0.0, 2.0)
    assert route == "kbessel"
    assert v == pytest.approx(math.sqrt(2 / math.pi) * float(mp.besselk(0, 1)), rel=1e-9)


def test_against_mpmath_grid():
    # relative 1e-9 on x in [1e-3, 50] across parameter classes; mpmath only
    # for half-integer kappa
    cases = [(1, 0.3j), (0, 0.25), (2, 0.5), (-1, 0.7j), (1.5, 1.0j)]
    cases += [(k, mu) for k in (-2, -1, 0, 1, 2) for mu in (0, 0.25, 1 / 9, 0.5j, 1j)]
    for kappa, mu in cases:
        for x in (1e-3, 0.1, 1.0, 10.0, 50.0):
            got, route = whittaker_w(kappa, mu, x)
            assert (route == "mpmath") == (kappa != int(kappa)), (kappa, mu, route)
            want = complex(mp.whitw(kappa, mu, x))
            assert abs(got - want) <= 1e-9 * max(abs(want), 1e-300), (kappa, mu, x)


def test_gram_grid_against_mpmath():
    # every 16th node of the default Gram grid, one nu per class, at every
    # order criterion 1 uses; relative 1e-9 where |W| >= 1e-12 max|W|
    ys, _ = log_axis_grid(-26.0, 4.2, 0.04)
    xs = 4 * math.pi * ys[::16]
    for nu in (0.5j, 1 / 9, 0.0):
        for kappa in (-2, -1, 0, 1, 2):
            got, _ = whittaker_w_int(kappa, nu, xs)
            want = np.array([complex(mp.whitw(kappa, nu, x)) for x in xs])
            keep = np.abs(want) >= 1e-12 * np.max(np.abs(want))
            assert np.all(np.abs(got - want)[keep] <= 1e-9 * np.abs(want)[keep]), (nu, kappa)
    # an order at which x^kappa alone overflows on the first nodes
    got, _ = whittaker_w_int(-35, 0.5j, xs[:4])
    want = np.array([complex(mp.whitw(-35, 0.5j, x)) for x in xs[:4]])
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


def test_asymptotic_normalization():
    # W ~ x^kappa e^{-x/2} as x -> infinity
    v, _ = whittaker_w(1, 0.3j, 40.0)
    assert abs(v / (40 * math.exp(-20)) - 1) < 0.02


def test_admissibility():
    assert nu_admissible(2, 0.5)
    assert nu_admissible(2, 0.3j)
    assert nu_admissible(2, 0.2)
    assert not nu_admissible(2, 0.7)
    assert nu_admissible(1, 1.0)
    assert not nu_admissible(1, 0.25)
    with pytest.raises(WhittakerDomainError):
        WhittakerSpec((2,), (0.7,))
    # beyond the accuracy range of the integer-kappa routes
    with pytest.raises(WhittakerDomainError):
        whittaker_w(1, 5j, 1.0)


def test_normalized_examples():
    # d=1, q=2, nu=1/2, y=1 -> i 4pi e^{-2pi}
    v = normalized_whittaker_1d(2, 0.5, 1.0)
    assert v == pytest.approx(1j * 4 * math.pi * math.exp(-2 * math.pi), abs=1e-15)
    # vanishes on the negative axis for the discrete series
    assert normalized_whittaker_1d(2, 0.5, -1.0) == 0.0
    # invariance under nu -> -nu
    a = normalized_whittaker_1d(0, 0.7j, 2.0)
    b = normalized_whittaker_1d(0, -0.7j, 2.0)
    assert abs(a - b) < 1e-12
    a = normalized_whittaker_1d(4, 1 / 9, 0.7)
    b = normalized_whittaker_1d(4, -1 / 9, 0.7)
    assert abs(a - b) < 1e-12


def test_normalized_product_convention():
    spec = WhittakerSpec((2, 0), (0.5, 0.7j))
    v = normalized_whittaker(spec, (1.0, 2.0))
    w = normalized_whittaker_1d(2, 0.5, 1.0) * normalized_whittaker_1d(0, 0.7j, 2.0)
    assert v == pytest.approx(w)
    assert normalized_whittaker(spec, (-1.0, 2.0)) == 0.0


def test_orthonormality_examples():
    assert whittaker_inner(0, 0, 0.7j) == pytest.approx(1.0, abs=1e-6)
    assert whittaker_inner(0, 2, 0.7j) == pytest.approx(0.0, abs=1e-6)
    assert whittaker_inner(2, 2, 1 / 9) == pytest.approx(1.0, abs=1e-6)


def test_decay_bound_whittaker1():
    # |W~| <= C |y|^{1/2} (|y|/(|q|+|nu|+1))^{-1-|Re nu|} exp(-|y|/(|q|+|nu|+1))
    # with a single calibrated constant over a deterministic parameter sweep
    rng = np.random.default_rng(5)
    C = 3.0
    for _ in range(200):
        q = 2 * int(rng.integers(-3, 4))
        nu = [0.0, 0.5j * rng.integers(0, 5), 1 / 9, 1j * rng.uniform(0, 3)][
            int(rng.integers(0, 4))
        ]
        y = float(rng.uniform(0.02, 30)) * (1 if rng.random() < 0.5 else -1)
        v = abs(normalized_whittaker_1d(q, nu, y))
        scale = abs(q) + abs(nu) + 1
        bound = C * abs(y) ** 0.5 * (abs(y) / scale) ** (-1 - abs(complex(nu).real)) * math.exp(
            -abs(y) / scale
        )
        assert v <= bound, (q, nu, y, v, bound)


def test_decay_bounds_whittaker23():
    # (whittaker2): nu in Z/2 or iR; (whittaker3): nu in (-1/2,1/2), eps = 0.1
    eps = 0.1
    C2, C3 = 3.0, 3.0
    for nu in (0.0, 0.5, 1.5j):
        for q in (-4, 0, 2):
            for y in (0.01, 0.5, 3.0, -2.0):
                v = abs(normalized_whittaker_1d(q, nu, y))
                assert v <= C2 * abs(y) ** (0.5 - eps) * (abs(q) + abs(nu) + 1)
    for nu in (1 / 9, 0.3):
        for q in (0, 2, -2):
            for y in (0.01, 0.5, 3.0):
                v = abs(normalized_whittaker_1d(q, nu, y))
                bound = C3 * abs(y) ** (0.5 - abs(nu) - eps) * (abs(q) + abs(nu) + 1) ** (
                    1 + abs(nu)
                )
                assert v <= bound


def test_gram_small():
    G = gram_matrix([-2, 0, 2], 0.5j)
    assert np.max(np.abs(G - np.eye(3))) < 1e-5


def test_grid_cache_bounded():
    maxsize = whittaker._grid_values.cache_info().maxsize
    for i in range(maxsize + 5):
        whittaker._cached_values(0, 0.5j, 1, -1.0, 1.0, 0.5 + 0.001 * i)
    assert whittaker._grid_values.cache_info().currsize == maxsize


def test_a_norm_examples():
    v = a_norm(lambda y: math.sqrt(y) * math.exp(-y), 0)
    assert v == pytest.approx(1 / math.sqrt(2), rel=1e-6)
    # mu = 0 equals the plain L^2(dxy) norm; monotone nondecreasing in mu
    f = lambda y: math.exp(-((math.log(y)) ** 2)) if y > 0 else 0.0
    sup = lambda kappa: None  # force finite differences
    prev = 0.0
    for mu in (0, 1, 2):
        v = a_norm(f, mu, derivative_supplier=sup, fd_step=1e-3)
        assert v >= prev - 1e-9
        prev = v
    assert math.isfinite(prev)


def test_a_norm_analytic_derivatives():
    # exp(-y) on (0, inf): derivatives known exactly
    f = lambda y: math.exp(-y)
    supply = lambda kappa: (lambda y, k=kappa[0]: (-1) ** k * math.exp(-y))
    v0 = a_norm(f, 1, derivative_supplier=supply)
    v1 = a_norm(f, 1)
    assert v0 == pytest.approx(v1, rel=1e-3)
