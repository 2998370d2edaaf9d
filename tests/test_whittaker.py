"""Tests for classical/normalized Whittaker functions."""

import math

import mpmath as mp
import numpy as np
import pytest

from totreal import whittaker
from totreal.quadrature import log_axis_grid
from totreal.whittaker import (
    WhittakerDomainError,
    gram_matrix,
    normalized_whittaker_1d,
    nu_admissible,
    whittaker_inner,
    whittaker_w,
    whittaker_w_array,
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
    # relative 1e-9 on x in [1e-3, 50] across parameter classes
    cases = [(1, 0.3j), (0, 0.25), (2, 0.5), (-1, 0.7j), (1.5, 1.0j)]
    cases += [(k, mu) for k in (-2, -1, 0, 1, 2) for mu in (0, 0.25, 1 / 9, 0.5j, 1j)]
    for kappa, mu in cases:
        for x in (1e-3, 0.1, 1.0, 10.0, 50.0):
            got, route = whittaker_w(kappa, mu, x)
            assert route in ("laguerre", "kbessel", "laplace"), (kappa, mu, route)
            want = complex(mp.whitw(kappa, mu, x))
            assert abs(got - want) <= 1e-9 * max(abs(want), 1e-300), (kappa, mu, x)


def test_gram_grid_against_mpmath():
    # every 16th node of the default Gram grid, one nu per class, at every
    # order criterion 1 uses; relative 1e-9 where |W| >= 1e-12 max|W|
    ys, _ = log_axis_grid(-26.0, 4.2, 0.04)
    xs = 4 * math.pi * ys[::16]
    for nu in (0.5j, 1 / 9, 0.0):
        for kappa in (-2, -1, 0, 1, 2):
            got, _ = whittaker_w_array(kappa, nu, xs)
            want = np.array([complex(mp.whitw(kappa, nu, x)) for x in xs])
            keep = np.abs(want) >= 1e-12 * np.max(np.abs(want))
            assert np.all(np.abs(got - want)[keep] <= 1e-9 * np.abs(want)[keep]), (nu, kappa)
    # an order at which x^kappa alone overflows on the first nodes
    got, _ = whittaker_w_array(-35, 0.5j, xs[:4])
    want = np.array([complex(mp.whitw(-35, 0.5j, x)) for x in xs[:4]])
    assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


def test_half_integer_grid_against_mpmath():
    # odd q: every 16th node of the default Gram grid, through the Laplace
    # route below 0 and the upward relation from its values at -3/2 and -1/2
    # above; relative 1e-9 where |W| >= 1e-12 max|W|, and at the edge of the
    # accuracy range, Im mu = 4, 1e-9 of max|W|
    ys, _ = log_axis_grid(-26.0, 4.2, 0.04)
    xs = 4 * math.pi * ys[::16]
    for nu in (0.0, 0.5j, 1j, 4j):
        for kappa in (-3.5, -0.5, 0.5, 1.5, 7.5, 29.5):
            got, route = whittaker_w_array(kappa, nu, xs)
            assert route == "laplace"
            want = np.array([complex(mp.whitw(kappa, nu, x)) for x in xs])
            err, top = np.abs(got - want), np.max(np.abs(want))
            if nu == 4j:
                assert np.max(err) <= 1e-9 * top, (nu, kappa)
            else:
                keep = np.abs(want) >= 1e-12 * top
                assert np.all(err[keep] <= 1e-9 * np.abs(want)[keep]), (nu, kappa)


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
    with pytest.raises(WhittakerDomainError, match="inadmissible"):
        normalized_whittaker_1d(2, 0.7, 1.0)
    # beyond the accuracy range of the array routes, at integer and
    # half-integer kappa
    for kappa in (1, 1.5, -2.5):
        with pytest.raises(WhittakerDomainError, match="above 4"):
            whittaker_w(kappa, 5j, 1.0)
    # kappa = q/2 only
    for kappa in (0.25, -1.3):
        with pytest.raises(WhittakerDomainError, match="not in Z/2"):
            whittaker_w(kappa, 0.5j, 1.0)
        with pytest.raises(WhittakerDomainError, match="not in Z/2"):
            whittaker_w_array(kappa, 0.5j, [1.0])
    # a kappa off Z/2 is refused even where its series would terminate
    with pytest.raises(WhittakerDomainError):
        whittaker_w(0.25, 0.25, 1.0)
    for x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(WhittakerDomainError, match="x must be finite"):
            whittaker_w(1, 0.5j, x)
    for y in (0.0, math.inf, -math.inf, math.nan):
        with pytest.raises(WhittakerDomainError, match="y must be finite"):
            normalized_whittaker_1d(2, 0.5, y)


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


def test_order_limit():
    # |q| = Q_MAX, and the odd order below it, still converge at nu = 0, 0.5i
    # and 1i; past it the pairing and the Gram matrix refuse before any grid
    # is built
    for nu in (0, 0.5j, 1j):
        for q in (whittaker.Q_MAX, whittaker.Q_MAX - 1):
            assert whittaker_inner(q, q, nu) == pytest.approx(1, abs=1e-6)
    misses = whittaker._grid_values.cache_info().misses
    for q in (whittaker.Q_MAX + 1, whittaker.Q_MAX + 2, -80):
        with pytest.raises(WhittakerDomainError, match=str(whittaker.Q_MAX)):
            gram_matrix([0, 2, q], 0.5j)
        with pytest.raises(WhittakerDomainError):
            whittaker_inner(0, q, 0.5j)
    assert whittaker._grid_values.cache_info().misses == misses


def test_grid_cache_bounded():
    # at nu = 1/2 every order m <= 0 sits on a Gamma pole, so each of these
    # distinct keys is a cheap zero grid
    maxsize = whittaker._grid_values.cache_info().maxsize
    for i in range(maxsize + 5):
        whittaker._grid_values(-float(i), 0.5)
    assert whittaker._grid_values.cache_info().currsize == maxsize
