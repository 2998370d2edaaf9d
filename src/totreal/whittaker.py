"""Classical and normalized Whittaker functions with L^2 utilities.

The normalized functions carry the Gamma-factor normalization making the
family {W~_{q/2,nu} : q in Z} orthonormal in L^2(R^x, d^x y) for fixed
admissible nu.  The orders kappa = q/2 run over Z/2, and no other kappa is
accepted.  Evaluation routes for the classical W, each reported alongside
the value:

* ``laguerre``: the terminating closed form in the discrete-series range,
  one x at a time;
* ``kbessel``: integer kappa >= 0, from the seeds e^w K_mu(w), e^w K_mu'(w)
  at w = x/2 (``bessel_kernels.k_scaled``) and the contiguous relation in
  kappa (DLMF 13.15.11), run upward, the direction in which it is stable;
* ``laplace``: kappa < 0, where the same relation run downward loses
  digits at large x, from the Laplace integral of U (DLMF 13.4(i)) on a log
  axis; and half-integer kappa >= 1/2, where no Bessel seed exists, by the
  upward relation from the Laplace values at kappa = -3/2 and -1/2.

The kbessel and laplace routes evaluate a whole array of x at once
(whittaker_w_array), which is how the Gram grids are built.  mpmath gives
only the Gamma factors of the normalization.

Imports: scipy.special and bessel_kernels (about 0.27 s of start-up) are
imported inside the two routes that evaluate with them, _w_kbessel and
_w_laplace, so a process that stays on the laguerre route never loads
them.
"""

from __future__ import annotations

import cmath
import functools
import math
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np

from .quadrature import central_difference, gl_rows, log_axis_grid

# The array routes sum an O(1) oscillating integrand to a value that falls
# like e^{-pi |Im mu|/2} (K seeds) or e^{-pi |Im mu|} (Laplace) for small x.
# Against mpmath on every 16th node of the default log grid: at |Im mu| = 4
# the integer orders reach a relative error of 3e-7 near x = 1e-10, 6e-11 of
# max|W| in absolute terms, and the half-integer orders kappa <= 59/2 reach
# 4e-10 of max|W|; where |W| >= 1e-12 max|W| their relative error is at most
# 1.4e-11 for |Im mu| <= 1 and 2.5e-9 at |Im mu| = 2.  Beyond 4 they refuse.
_MU_IMAG_MAX = 4.0

# The default log grid of the pairings: u = log y on [-26, 4.2], step 0.04.
_GRID = (-26.0, 4.2, 0.04)

# The largest |q| whose pairings converge on the default log grid: at q = 61,
# 62 and 64 the step-halving test misses tol 1e-6 by 1e-5 to 6e-5, at q = 80
# by 0.1, for nu = 0, 0.5i and 1i alike.
Q_MAX = 60


class WhittakerDomainError(ValueError):
    """Parameters outside every implemented evaluation route."""


def _is_int(x: float, tol: float = 1e-12) -> bool:
    return abs(x - round(x)) < tol


def _nu_class(nu: complex) -> str:
    """One of 'imag', 'half_int', 'int', 'small_real'."""
    if abs(nu.real) < 1e-14:
        return "imag"
    if abs(nu.imag) > 1e-14:
        raise WhittakerDomainError(f"nu = {nu} is neither real nor imaginary")
    r = nu.real
    if _is_int(r - 0.5):
        return "half_int"
    if _is_int(r):
        return "int"
    if -0.5 < r < 0.5:
        return "small_real"
    raise WhittakerDomainError(f"real nu = {r} outside (-1/2,1/2) and Z/2")


def nu_admissible(q: int, nu: complex) -> bool:
    try:
        cls = _nu_class(complex(nu))
    except WhittakerDomainError:
        return False
    if q % 2 == 0:
        return cls in ("imag", "half_int", "small_real") or nu == 0
    return cls in ("imag", "int")


def _laguerre_value(n: int, alpha: complex, x: float) -> complex:
    """Generalized Laguerre polynomial L_n^(alpha)(x) by recurrence."""
    if n == 0:
        return 1.0 + 0j
    lm, l = 1.0 + 0j, 1 + alpha - x
    for k in range(1, n):
        lm, l = l, ((2 * k + 1 + alpha - x) * l - (k + alpha) * lm) / (k + 1)
    return l


def _terminating(kappa: float, mu: complex) -> Optional[tuple[int, float]]:
    """(n, mu') with 1/2 + mu' - kappa = -n, mu' = +-mu real, 0 <= n <= 60:
    the discrete-series cases, where W is a Laguerre polynomial."""
    for m in (mu, -mu):
        if abs(m.imag) < 1e-14:
            a = 0.5 + m.real - kappa
            if _is_int(a) and round(a) <= 0 and -round(a) <= 60:
                return -int(round(a)), m.real
    return None


def _recur_up(prev, cur, k: float, kappa: float, mu: complex, x: np.ndarray):
    """W_kappa from prev = W_{k-1} and cur = W_k by the contiguous relation
    W_{j+1} = (x - 2j) W_j - ((j - 1/2)^2 - mu^2) W_{j-1} (DLMF 13.15.11),
    run upward for j = k, k + 1, ..., kappa - 1; kappa - k is a nonnegative
    integer.  The relation is linear, so a common factor of prev and cur
    carries through."""
    j = k
    while j < kappa:
        prev, cur = cur, (x - 2 * j) * cur - ((j - 0.5) ** 2 - mu * mu) * prev
        j += 1
    return cur


def _w_kbessel(kappa: int, mu: complex, x: np.ndarray) -> np.ndarray:
    """W_{kappa,mu}(x), integer kappa >= 0, from W_0 = sqrt(x/pi) K_mu(x/2)
    and W_1 = (x/2) W_0 - x W_0' up through _recur_up; every W_k carries the
    factor e^{x/2} until the end."""
    from .bessel_kernels import k_scaled

    w = x / 2
    k, dk = k_scaled(mu, w)
    r = np.sqrt(x / math.pi)
    cur = r * k
    if kappa > 0:
        cur = _recur_up(cur, r * ((w - 0.5) * k - w * dk), 1, kappa, mu, x)
    return cur * np.exp(-w)


def _w_laplace(kappa: float, mu: complex, x: np.ndarray) -> np.ndarray:
    """W_{kappa,mu}(x), kappa < 0, from W = e^{-x/2} x^{1/2+mu} U(a, 1+2mu, x)
    and U's Laplace integral; with t = e^tau / x,

        W = x^kappa e^{-x/2} / Gamma(a) int exp(a tau - e^tau) (1 + e^tau/x)^b dtau,

    a = 1/2 + mu - kappa, b = mu + kappa - 1/2.  The formula needs only
    Re a > 0; here Re a >= 1 (a = 1 + mu at kappa = -1/2) once mu is
    replaced by the one of +-mu with Re mu >= 0 (W is even in mu).  The
    integrand falls like e^{Re(a) tau} below min(log x, 0) and like
    exp(-e^tau) above 0; each row gets a Gauss-Legendre rule between the
    cuts, where the integrand is below e^{-40} of its peak."""
    from scipy.special import loggamma

    if mu.real < 0:
        mu = -mu
    a, b = 0.5 + mu - kappa, mu + kappa - 0.5
    lx = np.log(x)
    lo = np.minimum(lx, 0.0) - 40.0 / a.real
    hi = np.full_like(lx, math.log(50.0 + 4.0 * a.real))
    # the prefactor goes into the exponent: x^kappa alone overflows at small x
    pre = kappa * lx - x / 2 - loggamma(a)
    out = np.empty(len(x), dtype=complex)
    for sl, tau, wt in gl_rows(lo, hi):
        e = np.exp(a * tau - np.exp(tau) + b * np.log1p(np.exp(tau - lx[sl, None])) + pre[sl, None])
        out[sl] = (e * wt).sum(axis=1)
    return out


def _twice_kappa(kappa: float) -> int:
    """2 kappa for kappa in Z/2, the orders q/2 of the weights q; any other
    kappa is refused."""
    if not (math.isfinite(kappa) and _is_int(2 * kappa)):
        raise WhittakerDomainError(f"kappa = {kappa} is not in Z/2")
    return round(2 * kappa)


def whittaker_w_array(kappa: float, mu: complex, x) -> tuple[np.ndarray, str]:
    """W_{kappa,mu}(x) for kappa in Z/2 on an array of x > 0, with its route
    tag: ``laplace`` for kappa < 0, ``kbessel`` for integer kappa >= 0, and
    ``laplace`` for half-integer kappa >= 1/2, run up by _recur_up from the
    Laplace values at kappa = -3/2 and -1/2."""
    two_k = _twice_kappa(kappa)
    mu = complex(mu)
    if abs(mu.imag) > _MU_IMAG_MAX:
        raise WhittakerDomainError(
            f"|Im mu| = {abs(mu.imag):g} above {_MU_IMAG_MAX:g}, the accuracy range "
            "of the array routes"
        )
    x = np.asarray(x, dtype=float)
    if two_k < 0:
        return _w_laplace(two_k / 2, mu, x), "laplace"
    if two_k % 2 == 0:
        return _w_kbessel(two_k // 2, mu, x), "kbessel"
    seeds = _w_laplace(-1.5, mu, x), _w_laplace(-0.5, mu, x)
    return _recur_up(*seeds, -0.5, two_k / 2, mu, x), "laplace"


def whittaker_w(kappa: float, mu: complex, x: float) -> tuple[complex, str]:
    """Classical Whittaker W_{kappa,mu}(x) for kappa in Z/2 and finite x > 0,
    with its route tag: ``laguerre`` where the series terminates, else that
    of whittaker_w_array."""
    if not (math.isfinite(x) and x > 0):
        raise WhittakerDomainError(f"x must be finite and > 0, got {x}")
    _twice_kappa(kappa)
    mu = complex(mu)
    term = _terminating(kappa, mu)
    if term is not None:
        n, m = term
        sign = (-1) ** n
        val = (
            cmath.exp(-x / 2)
            * x ** (m + 0.5)
            * sign
            * math.factorial(n)
            * _laguerre_value(n, 2 * m, x)
        )
        return val, "laguerre"
    vals, route = whittaker_w_array(kappa, mu, [x])
    return complex(vals[0]), route


def _gamma_pair(m: float, nu: complex) -> Optional[float]:
    """Gamma(1/2-nu+m)*Gamma(1/2+nu+m) as a positive real, or None if a
    factor sits at a nonpositive-integer pole (value 0 convention)."""
    for s in (+1, -1):
        arg = 0.5 + s * nu + m
        if abs(arg.imag) < 1e-13 and _is_int(arg.real) and round(arg.real) <= 0:
            return None
    p = complex(mp.gamma(0.5 - nu + m)) * complex(mp.gamma(0.5 + nu + m))
    if abs(p.imag) > 1e-8 * abs(p) or p.real <= 0:
        raise WhittakerDomainError(f"Gamma product not positive at m={m}, nu={nu}")
    return p.real


def normalized_whittaker_1d(q: int, nu: complex, y: float) -> complex:
    """W~_{q/2, nu}(y) at a single real place, y finite and nonzero."""
    if not (math.isfinite(y) and y != 0):
        raise WhittakerDomainError(f"y must be finite and nonzero, got {y}")
    if not nu_admissible(q, nu):
        raise WhittakerDomainError(f"(q, nu) = ({q}, {nu}) inadmissible")
    sgn = 1 if y > 0 else -1
    m = sgn * q / 2
    p = _gamma_pair(m, complex(nu))
    if p is None:
        return 0.0
    x = 4 * math.pi * abs(y)
    w, _ = whittaker_w(m, nu, x)
    phase = cmath.exp(1j * math.pi * sgn * q / 4)
    return phase * w / math.sqrt(p)


# ---------------------------------------------------------------------------
# L^2 pairings on R^x


# W~_{m,nu}(y) on the log grid; W~_{q/2,nu}(sign * y) is m = sign*q/2, so
# (q, +) and (-q, -) share a grid.  One default grid is 757 complex values
# (12 kB), and criterion 1 and the benchmark's warm passes use at most 20 keys.
@functools.lru_cache(maxsize=64)
def _grid_values(m: float, nu: complex) -> np.ndarray:
    ys, _ = log_axis_grid(*_GRID)
    p = _gamma_pair(m, nu)
    if p is None:
        return np.zeros(len(ys), dtype=complex)
    xs = 4 * math.pi * ys
    if _terminating(m, nu) is None:
        w, _ = whittaker_w_array(m, nu, xs)
    else:
        w = np.array([whittaker_w(m, nu, x)[0] for x in xs])
    return cmath.exp(1j * math.pi * m / 2) * w / math.sqrt(p)


def _check_orders(qs: Sequence[int]) -> None:
    q = max((abs(q) for q in qs), default=0)
    if q > Q_MAX:
        raise WhittakerDomainError(
            f"|q| = {q} above {Q_MAX}, where the log-axis quadrature no longer converges"
        )


def whittaker_inner(q: int, q2: int, nu: complex, tol: float = 1e-6) -> float:
    """<W~_{q/2,nu}, W~_{q2/2,nu}> over R^x by trapezoid on the default log
    grid.

    The rule is nested, so comparing against the doubled step gives a
    convergence certificate; failure raises, and so does |q| or |q2| above
    Q_MAX, before any grid is built.
    """
    _check_orders((q, q2))
    ys, w = log_axis_grid(*_GRID)
    h = _GRID[2]
    total = 0.0 + 0j
    coarse = 0.0 + 0j
    for sign in (+1, -1):
        f = _grid_values(sign * q / 2, complex(nu))
        g = _grid_values(sign * q2 / 2, complex(nu))
        prod = f * np.conj(g)
        total += np.sum(prod * w)
        coarse += 2 * h * (
            np.sum(prod[::2]) - 0.5 * prod[0] - (0.5 * prod[-1] if len(prod) % 2 else 0)
        )
    if abs(total - coarse) > 10 * tol:
        raise WhittakerDomainError(
            f"quadrature not converged: |I_h - I_2h| = {abs(total - coarse):.2e}"
        )
    # the pairing is real; residual imaginary parts are quadrature noise
    if abs(total.imag) > tol:
        raise WhittakerDomainError(f"imaginary residue {total.imag:.2e} above tol")
    return float(total.real)


def gram_matrix(qs: Sequence[int], nu: complex, tol: float = 1e-6) -> np.ndarray:
    """Gram matrix of {W~_{q/2,nu} : q in qs} in L^2(R^x, d^x y); |q| <= Q_MAX."""
    _check_orders(qs)
    n = len(qs)
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = whittaker_inner(qs[i], qs[j], nu, tol)
    return G


# ---------------------------------------------------------------------------
# the A-norm quadrature utility


# The log grid of a_norm (u = log y on [-20, 8], step 0.01) and the step of
# its central finite differences.
_A_NORM_GRID = (-20.0, 8.0, 0.01)
_FD_STEP = 1e-3


def a_norm(
    W: Callable,
    mu: int,
    d: int = 1,
    derivative_supplier: Optional[Callable[[tuple[int, ...]], Callable]] = None,
) -> float:
    """The A^mu norm of W on (R^x)^d per the Sobolev-type definition:
    sum over mu_1+..+mu_d <= mu and kappa_j <= mu_j of the weighted L^2
    norms of the partial derivatives, weights prod (|y|+1/|y|)^(mu_j), on
    the positive axis of each place.

    Derivatives come from the supplier when given, else from central
    finite differences of step _FD_STEP.  d <= 2.
    """
    if d not in (1, 2):
        raise ValueError("a_norm implemented for d <= 2")
    ys, wts = log_axis_grid(*_A_NORM_GRID)

    def deriv(kappa: tuple[int, ...]) -> Callable:
        if derivative_supplier is not None:
            g = derivative_supplier(kappa)
            if g is not None:
                return g
        if d == 1:
            return central_difference(lambda y: W(y), kappa[0], _FD_STEP)
        fy = lambda y1, y2: W(y1, y2)
        g1 = lambda y2: central_difference(lambda y1: fy(y1, y2), kappa[0], _FD_STEP)
        return lambda y1, y2: central_difference(lambda t2: g1(t2)(y1), kappa[1], _FD_STEP)(y2)

    total = 0.0
    for mus in _compositions(mu, d):
        for kappas in _boxed(mus):
            dW = deriv(kappas)
            if d == 1:
                vals = np.array([dW(y) for y in ys])
                wt = (ys + 1 / ys) ** mus[0]
                sq = float(np.sum(np.abs(vals) ** 2 * wt * wts))
            else:
                v = np.array([[dW(y1, y2) for y2 in ys] for y1 in ys])
                wt1 = (ys + 1 / ys) ** mus[0]
                wt2 = (ys + 1 / ys) ** mus[1]
                sq = float(np.sum(np.abs(v) ** 2 * np.outer(wt1 * wts, wt2 * wts)))
            if not math.isfinite(sq):
                raise WhittakerDomainError("divergent A-norm integrand")
            total += math.sqrt(sq)
    return total


def _compositions(mu: int, d: int):
    """All (mu_1..mu_d) with nonnegative entries summing to <= mu."""
    if d == 1:
        for m in range(mu + 1):
            yield (m,)
    else:
        for m1 in range(mu + 1):
            for m2 in range(mu + 1 - m1):
                yield (m1, m2)


def _boxed(mus: tuple[int, ...]):
    """All kappa with 0 <= kappa_j <= mu_j."""
    if len(mus) == 1:
        for k in range(mus[0] + 1):
            yield (k,)
    else:
        for k1 in range(mus[0] + 1):
            for k2 in range(mus[1] + 1):
                yield (k1, k2)
