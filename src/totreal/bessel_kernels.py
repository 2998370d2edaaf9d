"""Imaginary-order Bessel kernels for the Kuznetsov transforms.

The spectral-to-geometric transforms need, for u >= 0 and x > 0,

    RJ(u, x) = Im J_{2iu}(x) / cosh(pi u)          (t > 0 side),
    WK(u, x) = sinh(pi u) * K_{2iu}(x)             (t < 0 side).

Both are small smooth oscillating functions, while J_{2iu}(x) itself grows
like e^{pi u} and K_{2iu}(x) decays like e^{-pi u}; naive evaluation loses
e^{pi u} of precision.  The exponential factors are removed analytically:

* RJ via the Mehler-Sonine representation
      Im J_{2iu}(x) = -(2/pi) sinh(pi u) C(u, x),
      C(u, x) = int_0^inf cos(x cosh s) cos(2 u s) ds,
  with the conditionally convergent C evaluated by rotating the contour
  upward at s1 = arcsinh((pi u + M)/x), after which every piece is O(1).
  For small x the direct power series is stable and cheaper.

* WK via a contour shifted to Im s = pi/2 - eps, which turns the factor
  e^{-pi u} into an explicit prefactor; for x >= pi u - 13 the real-axis
  integral is already stable.

* k_scaled, the seed of the Whittaker grids: e^w K_mu(w) and e^w K_mu'(w)
  for one order mu and an array of w, from scipy for real mu and otherwise
  from K_mu(w) = int_0^inf e^{-w cosh t} cosh(mu t) dt.

* wk_bound, the majorant that fixes the truncation height of every
  K-kernel transform, minimises over four contour tilts eps for a whole
  array of u at once; exp and sin go through math per element, so every
  value is the one a scalar loop gives, bit for bit (np.exp differs from
  math.exp in the last bit on a few per cent of arguments).

Everything is vectorized over the quadrature nodes in s; mpmath is used
only in the test oracles.  Two limits are refused with ValueError rather
than cut short or left to overflow: a shifted-contour evaluation that
would need more than _MAX_PANELS panels (u beyond about 100-150 for x
below 125), a J-kernel node array whose rotated contours need more than
_MAX_J_PANELS panels in all (Z beyond about 50 at t = 1.5), and the power
series beyond u = _SERIES_U_MAX.  Both panel counts are read before any
node is evaluated.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k0e, kve

from .quadrature import gl_panels, gl_rows

_M = 30.0  # contour-shift margin: e^{-M} bounds the neglected horizontal piece
_MAX_PANELS = 4000  # order-12 panels per shifted-contour WK evaluation
# order-12 panels over one rj_kernel node array: Z = 50 at t = 1.5 needs 3.5e6
_MAX_J_PANELS = 4_000_000
# 2 cosh(pi u) overflows from u = 225.93 on, and 1/Gamma(1 + 2iu) soon after
_SERIES_U_MAX = 225.9


def _series(u: np.ndarray, x: float, sign: int) -> np.ndarray:
    """sum_k sign^k (x/2)^{2k+2iu} / (k! Gamma(k+1+2iu)): J_{2iu}(x) for
    sign = -1, I_{2iu}(x) for sign = +1."""
    from scipy.special import gamma as cgamma

    if u.size and u.max() > _SERIES_U_MAX:
        raise ValueError(
            f"Bessel power series at u={u.max():.6g} leaves the float range"
            f" (limit u <= {_SERIES_U_MAX:g}); use a smaller Z"
        )
    nu = 2j * u
    # term_0 = (x/2)^{2iu} / Gamma(1 + 2iu); ratio_{k+1/k} = sign*(x/2)^2/((k+1)(nu+k+1))
    t = np.exp(nu * math.log(x / 2)) / cgamma(1 + nu)
    total = t.copy()
    q = (x / 2) ** 2
    kmax = int(x + 25 + 10 * math.sqrt(x))
    for k in range(kmax):
        t = (-t if sign < 0 else t) * q / ((k + 1) * (nu + k + 1))
        total += t
    return total


def _series_RJ(u: np.ndarray, x: float) -> np.ndarray:
    """Im J_{2iu}(x)/cosh(pi u) by the power series; stable for x <= 14."""
    return np.imag(_series(u, x, -1)) / np.cosh(math.pi * u)


def _contour_plan(u: float, x: float) -> tuple:
    """(A, s1, x cosh s1, smax) and the panel counts of the real, vertical
    and horizontal pieces of _contour_C at (u, x)."""
    A = math.pi * u + _M
    s1 = math.asinh(A / x)
    ch1 = x * math.cosh(s1)
    smax = math.asinh(math.sinh(s1) + 45.0 / x)
    # real segment [0, s1]: oscillation density x sinh s + 2u
    n1 = max(2, int((x * math.sinh(s1) + 2 * u * s1 + 8.0) / 4.0))
    n2 = max(2, int((ch1 + 2 * u + 8.0) / 4.0))
    n3 = max(2, int((2 * u * (smax - s1) + 8.0) / 4.0))
    return A, s1, ch1, smax, (n1, n2, n3)


def _contour_C(u: float, x: float, plan: tuple) -> float:
    """C(u,x) = int_0^inf cos(x cosh s) cos(2us) ds via the rotated contour
    laid out by _contour_plan(u, x)."""
    A, s1, ch1, smax, (n1, n2, n3) = plan
    s, w = gl_panels(0.0, s1, n1, order=12)
    seg1 = float(np.sum(w * np.cos(x * np.cosh(s)) * np.cos(2 * u * s)))
    # vertical segment: Re V = -int_0^{pi/2} e^{-A sin(sg)} *
    #   [sin(phc) cos(2us1) cosh(2u sg) - cos(phc) sin(2us1) sinh(2u sg)] d sg
    sg, wv = gl_panels(0.0, math.pi / 2, n2, order=12)
    e_plus = np.exp(2 * u * sg - A * np.sin(sg))
    e_minus = np.exp(-2 * u * sg - A * np.sin(sg))
    phc = ch1 * np.cos(sg)
    band = np.sin(phc) * math.cos(2 * u * s1) * 0.5 * (e_plus + e_minus) - np.cos(
        phc
    ) * math.sin(2 * u * s1) * 0.5 * (e_plus - e_minus)
    segv = -float(np.sum(wv * band))
    # horizontal tail: Re H = int_{s1}^{smax} e^{pi u - x sinh s} *
    #   (1 + e^{-2 pi u})/2 * cos(2us) ds, bounded by e^{-M}
    s, wh = gl_panels(s1, smax, n3, order=12)
    ex = math.pi * u - x * np.sinh(s)
    segh = float(
        np.sum(wh * np.exp(ex) * np.cos(2 * u * s)) * 0.5 * (1 + math.exp(-2 * math.pi * u))
    )
    return seg1 + segv + segh


def rj_kernel(u: np.ndarray, x: float) -> np.ndarray:
    """RJ(u, x) = Im J_{2iu}(x)/cosh(pi u) for an array of u >= 0."""
    u = np.asarray(u, dtype=float)
    if x <= 14.0:
        return _series_RJ(u, x)
    plans = [_contour_plan(ui, x) for ui in u.tolist()]
    n_panels = sum(sum(plan[-1]) for plan in plans)
    if n_panels > _MAX_J_PANELS:
        raise ValueError(
            f"J-kernel at x={x:.6g} needs {n_panels} quadrature panels over"
            f" {u.size} nodes (limit {_MAX_J_PANELS}); use a smaller Z"
        )
    out = np.empty_like(u)
    for i, (ui, plan) in enumerate(zip(u.tolist(), plans)):
        out[i] = -(2 / math.pi) * math.tanh(math.pi * ui) * _contour_C(ui, x, plan)
    return out


def _series_WK(u: np.ndarray, x: float) -> np.ndarray:
    """sinh(pi u) K_{2iu}(x) = -pi Im I_{2iu}(x) / (2 cosh(pi u)), from
    K = -pi Im I_{2iu}(x) / sinh(2 pi u); the I-series is stable for small x
    (loss ~ e^{2x})."""
    return -math.pi * np.imag(_series(u, x, 1)) / (2 * np.cosh(math.pi * u))


def _wk_direct(u: float, x: float) -> float:
    """sinh(pi u) K_{2iu}(x) by the real-axis integral; needs x >= pi u - 6."""
    tmax = math.acosh(1.0 + (45.0 + max(0.0, math.pi * u - x)) / x)
    n_panels = max(2, int((2 * u * tmax + 8.0) / 4.0) + int(tmax) + 1)
    t, w = gl_panels(0.0, tmax, n_panels, order=12)
    ex = math.pi * u - x * np.cosh(t)
    vals = np.exp(ex) * np.cos(2 * u * t)
    return float(np.sum(w * vals) * 0.5 * (1 - math.exp(-2 * math.pi * u)))


def _wk_shifted_panels(u: float, x: float) -> tuple[float, float, float, int]:
    """Tilt eps, envelope rate a, cut smax and panel count of the shifted
    contour at (u, x); ValueError past _MAX_PANELS.  The count grows with u
    at fixed x."""
    eps = min(math.pi / 4, 2.0 / max(u, 1.0))
    # envelope e^{-a cosh s}
    a = x * math.sin(eps)
    smax = math.acosh((45.0 + 2 * abs(math.log(max(u, 2)))) / a + 1.0)
    freq = x * math.cos(eps) * math.cosh(smax) + 2 * u
    n_panels = max(4, int((freq * smax + 8.0) / 5.0))
    if n_panels > _MAX_PANELS:
        raise ValueError(
            f"K-kernel at u={u:.6g}, x={x:.6g} needs {n_panels} quadrature panels"
            f" (limit {_MAX_PANELS}); use a smaller Z"
        )
    return eps, a, smax, n_panels


def _wk_shifted(u: float, x: float) -> float:
    """sinh(pi u) K_{2iu}(x) via the contour Im s = pi/2 - eps (large u)."""
    eps, a, smax, n_panels = _wk_shifted_panels(u, x)
    # K = e^{-2 u sig} * Re int_0^inf e^{-x cosh(s + i sig)} e^{2ius} ds,
    # sig = pi/2 - eps (the two half-lines are complex conjugates)
    s, w = gl_panels(0.0, smax, n_panels, order=12)
    re_arg = -a * np.cosh(s)
    im_arg = -x * math.cos(eps) * np.sinh(s) + 2 * u * s
    integral = np.sum(w * np.exp(re_arg) * np.cos(im_arg))
    pref = (1 - math.exp(-2 * math.pi * u)) * 0.5 * math.exp(2 * u * eps)
    return float(pref * integral)


def wk_kernel(u: np.ndarray, x: float) -> np.ndarray:
    """WK(u, x) = sinh(pi u) K_{2iu}(x) for an array of u >= 0."""
    u = np.asarray(u, dtype=float)
    if x <= 5.5:
        return _series_WK(u, x)
    if u.size and x < math.pi * u.max() - 6.0:
        _wk_shifted_panels(float(u.max()), x)  # refuse before any evaluation
    out = np.empty_like(u)
    for i, ui in enumerate(u):
        ui = float(ui)
        if x >= math.pi * ui - 6.0:
            out[i] = _wk_direct(ui, x)
        else:
            out[i] = _wk_shifted(ui, x)
    return out


def rj_bound(u: np.ndarray, x: float) -> np.ndarray:
    """Proven majorant of |RJ(u, x)| from the contour pieces."""
    u = np.asarray(u, dtype=float)
    s1 = np.arcsinh((math.pi * u + _M) / x)
    return (2 / math.pi) * np.tanh(math.pi * np.maximum(u, 1e-12)) * (s1 + 2.0)


def _math_map(f, a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, a.tolist()), float, a.size)


def _exp_or_inf(v: float) -> float:
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _exp(a: np.ndarray) -> np.ndarray:
    """math.exp per element; an argument past the float range gives +inf."""
    try:
        return _math_map(math.exp, a)
    except OverflowError:
        return _math_map(_exp_or_inf, a)


def wk_bound(u: np.ndarray, x: float) -> np.ndarray:
    """Majorant of |WK(u, x)|: (1/2) e^{2 u eps} K_0(x sin eps), optimized
    over the contour tilts eps in {pi/2, pi/4, 1/u, 2/u} (u at least 1/2,
    eps at most pi/2); K_0(y) <= e^{-y} log(1 + 2/y) + ...

    np.fmin in candidate order keeps the first minimum and skips NaN, as
    min(best, val) does; a candidate whose exponential overflows is +inf.
    """
    u = np.asarray(u, dtype=float)
    flat = u.ravel()
    m = np.maximum(flat, 0.5)
    best = np.full(flat.size, math.inf)
    for eps in (math.pi / 2, math.pi / 4, 1.0 / m, 2.0 / m):
        if isinstance(eps, float):
            y = x * math.sin(eps)
        else:
            eps = np.minimum(eps, math.pi / 2)
            y = x * _math_map(math.sin, eps)
        best = np.fmin(best, 0.5 * _exp(2 * flat * eps - y) * k0e(y))
    return best.reshape(u.shape)


def k_scaled(mu: complex, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^w K_mu(w) and e^w K_mu'(w) for an array of w > 0.

    Real mu takes scipy's scaled kve, with K_mu' = -(K_{mu-1} + K_{mu+1})/2.
    Otherwise the integral over t in [0, T] is cut where w (cosh T - 1) = 46
    (the tail is below e^{-46} relative to the integrand at t = 0) and each
    row gets its own Gauss-Legendre rule on [0, T].  The integrand is O(1)
    while K_{iu}(w) falls like e^{-pi u/2} for w < u, so the relative error
    grows like 1e-16 e^{pi |Im mu|/2}.
    """
    w = np.asarray(w, dtype=float)
    if mu.imag == 0:
        m = mu.real
        return kve(m, w), -0.5 * (kve(m - 1, w) + kve(m + 1, w))
    k = np.empty(len(w), dtype=complex)
    dk = np.empty(len(w), dtype=complex)
    for sl, t, wt in gl_rows(np.zeros_like(w), np.arccosh(1.0 + 46.0 / w)):
        ch = np.cosh(t)
        f = np.exp(-w[sl, None] * (ch - 1.0)) * np.cosh(mu * t) * wt
        k[sl] = f.sum(axis=1)
        dk[sl] = -(f * ch).sum(axis=1)
    return k, dk
