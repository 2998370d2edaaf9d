"""Classical and normalized Whittaker functions with L^2 utilities.

The normalized functions carry the Gamma-factor normalization making the
family {W~_{q/2,nu} : q in Z} orthonormal in L^2(R^x, d^x y) for fixed
admissible nu.  Evaluation routes for the classical W, each reported
alongside the value:

* ``laguerre``: the terminating closed form in the discrete-series range;
* ``kbessel``: integer kappa >= 0, from the seeds e^w K_mu(w), e^w K_mu'(w)
  at w = x/2 (``bessel_kernels.k_scaled``) and the contiguous relations in
  kappa (DLMF 13.15), run upward, the direction in which they are stable;
* ``laplace``: integer kappa < 0, where the same relations run downward lose
  digits at large x, from the Laplace integral of U (DLMF 13.4(i)) on a log
  axis;
* ``mpmath``: half-integer kappa (odd q) that does not terminate, where no
  Bessel seed exists.

The two integer-kappa routes evaluate a whole array of x at once, which is
how the Gram grids are built.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import mpmath as mp
import numpy as np
from scipy.special import loggamma

from .bessel_kernels import k_scaled
from .quadrature import central_difference, gl_rows, log_axis_grid

_TWO_PI = 2 * math.pi
# The integer-kappa routes sum an O(1) oscillating integrand to a value that
# falls like e^{-pi |Im mu|/2} (K seeds) or e^{-pi |Im mu|} (Laplace) for small
# x.  At |Im mu| = 4, against mpmath, the relative error reaches 3e-7 near
# x = 1e-10, 6e-11 of max|W| in absolute terms; beyond it they refuse.
_MU_IMAG_MAX = 4.0


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


@dataclass(frozen=True)
class WhittakerSpec:
    """Weight vector q and spectral parameter nu, one entry per place."""

    q: tuple[int, ...]
    nu: tuple[complex, ...]

    def __post_init__(self):
        if len(self.q) != len(self.nu):
            raise ValueError("q and nu must have equal length")
        for qj, nuj in zip(self.q, self.nu):
            if not nu_admissible(qj, nuj):
                raise WhittakerDomainError(f"(q, nu) = ({qj}, {nuj}) inadmissible")


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


def _w_kbessel(kappa: int, mu: complex, x: np.ndarray) -> np.ndarray:
    """W_{kappa,mu}(x), kappa >= 0, from W_0 = sqrt(x/pi) K_mu(x/2),
    W_1 = (x/2) W_0 - x W_0' and W_{k+1} = (x - 2k) W_k -
    ((k - 1/2)^2 - mu^2) W_{k-1}; every W_k carries the factor e^{x/2}
    until the end."""
    w = x / 2
    k, dk = k_scaled(mu, w)
    r = np.sqrt(x / math.pi)
    cur = r * k
    if kappa > 0:
        prev, cur = cur, r * ((w - 0.5) * k - w * dk)
    for j in range(1, kappa):
        prev, cur = cur, (x - 2 * j) * cur - ((j - 0.5) ** 2 - mu * mu) * prev
    return cur * np.exp(-w)


def _w_laplace(kappa: int, mu: complex, x: np.ndarray) -> np.ndarray:
    """W_{kappa,mu}(x), kappa < 0, from W = e^{-x/2} x^{1/2+mu} U(a, 1+2mu, x)
    and U's Laplace integral; with t = e^tau / x,

        W = x^kappa e^{-x/2} / Gamma(a) int exp(a tau - e^tau) (1 + e^tau/x)^b dtau,

    a = 1/2 + mu - kappa, b = mu + kappa - 1/2, and Re a >= 3/2 once mu is
    replaced by the one of +-mu with Re mu >= 0 (W is even in mu).  The
    integrand falls like e^{Re(a) tau} below min(log x, 0) and like
    exp(-e^tau) above 0; each row gets a Gauss-Legendre rule between the
    cuts, where the integrand is below e^{-40} of its peak."""
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


def whittaker_w_int(kappa: int, mu: complex, x: np.ndarray) -> tuple[np.ndarray, str]:
    """W_{kappa,mu}(x) for integer kappa on an array of x > 0, with its
    route tag (``kbessel`` for kappa >= 0, ``laplace`` below)."""
    mu = complex(mu)
    if abs(mu.imag) > _MU_IMAG_MAX:
        raise WhittakerDomainError(
            f"|Im mu| = {abs(mu.imag):g} above {_MU_IMAG_MAX:g}, the accuracy range "
            "of the integer-kappa routes"
        )
    x = np.asarray(x, dtype=float)
    if kappa >= 0:
        return _w_kbessel(kappa, mu, x), "kbessel"
    return _w_laplace(kappa, mu, x), "laplace"


def whittaker_w(kappa: float, mu: complex, x: float) -> tuple[complex, str]:
    """Classical Whittaker W_{kappa,mu}(x) for x > 0 with its route tag."""
    if x <= 0:
        raise WhittakerDomainError("x must be positive")
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
    if _is_int(kappa):
        vals, route = whittaker_w_int(round(kappa), mu, [x])
        return complex(vals[0]), route
    return complex(mp.whitw(kappa, mu, x)), "mpmath"


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
    """W~_{q/2, nu}(y) at a single real place, y != 0."""
    if y == 0:
        raise WhittakerDomainError("y must be nonzero")
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


def normalized_whittaker(spec: WhittakerSpec, y: Sequence[float]) -> complex:
    """Product over places, per the product convention for K_infinity."""
    if len(y) != len(spec.q):
        raise ValueError("y must have one coordinate per place")
    out = 1.0 + 0j
    for qj, nuj, yj in zip(spec.q, spec.nu, y):
        out *= normalized_whittaker_1d(qj, nuj, yj)
        if out == 0:
            return 0.0
    return out


# ---------------------------------------------------------------------------
# L^2 pairings on R^x


def _cached_values(q: int, nu: complex, sign: int, u_lo: float, u_hi: float, h: float):
    """W~_{q/2,nu}(sign * y) on the log grid.

    The vector depends on (q, sign) only through m = sign*q/2, so grids are
    cached per m and shared between (q, +) and (-q, -)."""
    return _grid_values(sign * q / 2, complex(nu), u_lo, u_hi, h)


# One default grid is 757 complex values (12 kB), and criterion 1 and the
# benchmark's warm passes use at most 20 keys.
@functools.lru_cache(maxsize=64)
def _grid_values(m: float, nu: complex, u_lo: float, u_hi: float, h: float) -> np.ndarray:
    ys, _ = log_axis_grid(u_lo, u_hi, h)
    p = _gamma_pair(m, nu)
    if p is None:
        return np.zeros(len(ys), dtype=complex)
    xs = 4 * math.pi * ys
    if _is_int(m) and _terminating(m, nu) is None:
        w, _ = whittaker_w_int(round(m), nu, xs)
    else:
        w = np.array([whittaker_w(m, nu, x)[0] for x in xs])
    return cmath.exp(1j * math.pi * m / 2) * w / math.sqrt(p)


def whittaker_inner(
    q: int,
    q2: int,
    nu: complex,
    tol: float = 1e-6,
    u_lo: float = -26.0,
    u_hi: float = 4.2,
    h: float = 0.04,
) -> float:
    """<W~_{q/2,nu}, W~_{q2/2,nu}> over R^x by trapezoid on the log axis.

    The rule is nested, so comparing against the doubled step gives a
    convergence certificate; failure raises.
    """
    ys, w = log_axis_grid(u_lo, u_hi, h)
    total = 0.0 + 0j
    coarse = 0.0 + 0j
    for sign in (+1, -1):
        f = _cached_values(q, nu, sign, u_lo, u_hi, h)
        g = _cached_values(q2, nu, sign, u_lo, u_hi, h)
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


def gram_matrix(qs: Sequence[int], nu: complex, **kw) -> np.ndarray:
    """Gram matrix of {W~_{q/2,nu} : q in qs} in L^2(R^x, d^x y)."""
    n = len(qs)
    G = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            G[i, j] = G[j, i] = whittaker_inner(qs[i], qs[j], nu, **kw)
    return G


# ---------------------------------------------------------------------------
# the A-norm quadrature utility


def a_norm(
    W: Callable,
    mu: int,
    d: int = 1,
    derivative_supplier: Optional[Callable[[tuple[int, ...]], Callable]] = None,
    fd_step: float = 1e-3,
    u_lo: float = -20.0,
    u_hi: float = 8.0,
    h: float = 0.01,
    negative_axis: bool = False,
) -> float:
    """The A^mu norm of W on (R^x)^d per the Sobolev-type definition:
    sum over mu_1+..+mu_d <= mu and kappa_j <= mu_j of the weighted L^2
    norms of the partial derivatives, weights prod (|y|+1/|y|)^(mu_j).

    Derivatives come from the supplier when given, else from central
    finite differences with the documented step.  d <= 2.
    """
    if d not in (1, 2):
        raise ValueError("a_norm implemented for d <= 2")
    ys, wts = log_axis_grid(u_lo, u_hi, h)
    signs = [(1,), (-1,)] if negative_axis else [(1,)]
    if d == 2:
        signs = [(s1, s2) for s1 in (1, -1) for s2 in (1, -1)] if negative_axis else [(1, 1)]

    def deriv(kappa: tuple[int, ...]) -> Callable:
        if derivative_supplier is not None:
            g = derivative_supplier(kappa)
            if g is not None:
                return g
        if d == 1:
            return central_difference(lambda y: W(y), kappa[0], fd_step)
        fy = lambda y1, y2: W(y1, y2)
        g1 = lambda y2: central_difference(lambda y1: fy(y1, y2), kappa[0], fd_step)
        return lambda y1, y2: central_difference(lambda t2: g1(t2)(y1), kappa[1], fd_step)(y2)

    total = 0.0
    weight_pow = {}
    for mus in _compositions(mu, d):
        for kappas in _boxed(mus):
            sq = 0.0
            dW = deriv(kappas)
            for sgn in signs:
                if d == 1:
                    vals = np.array([dW(sgn[0] * y) for y in ys])
                    wt = (ys + 1 / ys) ** mus[0]
                    sq += float(np.sum(np.abs(vals) ** 2 * wt * wts))
                else:
                    v = np.array(
                        [[dW(sgn[0] * y1, sgn[1] * y2) for y2 in ys] for y1 in ys]
                    )
                    wt1 = (ys + 1 / ys) ** mus[0]
                    wt2 = (ys + 1 / ys) ** mus[1]
                    sq += float(
                        np.sum(np.abs(v) ** 2 * np.outer(wt1 * wts, wt2 * wts))
                    )
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
