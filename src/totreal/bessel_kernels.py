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

* k_scaled, the seed of the integer-order Whittaker values: e^w K_mu(w)
  and e^w K_mu'(w) for one order mu and an array of w, from scipy for real
  mu and otherwise from K_mu(w) = int_0^inf e^{-w cosh t} cosh(mu t) dt.

* wk_bound, the majorant that fixes the truncation height of every
  K-kernel transform, minimises over four contour tilts eps for arrays of
  u and x that broadcast together; sin of the u-dependent tilts and exp of
  the candidates that can win go through math, so every value is the one
  a scalar loop gives, bit for bit (np.exp differs from math.exp in the
  last bit on a few per cent of arguments).  wk_bound and rj_bound are
  elementwise and independent of the shape of their arguments: a value
  has the same bits in a one-element, a strided or a broadcast 2-D call
  as in the full one.  The truncation search relies on this, since it
  skips a window by one term evaluated apart from that window.

rj_kernel and wk_kernel take arrays of u and x that broadcast together:
flat (u, x) pairs, so the nodes of many transforms go through one call.
The power series runs over all its pairs at once, each pair to its own
number of terms.  The rotated contour of RJ and the real-axis integral of
WK lay the panels of all their nodes end to end in one flat Gauss-Legendre
array, through quadrature.gl_sums: in blocks of at most quadrature.BLOCK
points, each node's integral np.sum over its own contiguous slice, so
every bit is the one a separate array of that node would give.  The
shifted WK contour stays one node at a time: a node there has from about a
thousand points (u just past (x + 6)/pi) to 48 000 (the _MAX_PANELS
limit), and laid end to end its points would each need three gathers (the
envelope rate, x cos(eps) and 2u of their node), which measured slower
than the per-node calls they save.  Each node takes gl_panels' one-row
grid and evaluates its integrand in place on that grid's arrays, every
product and sum with the operands of the out-of-place expression, so with
the bits that expression gives.  Scalars that feed the arrays (log, cos,
tanh of a node or of an x) go through math, as a node-by-node evaluation
would take them.

mpmath is used only in the test oracles.  Two limits are refused with
ValueError rather than cut short or left to overflow: a shifted-contour
evaluation that would need more than _MAX_PANELS panels (u beyond about
100-150 for x below 125), the rotated contours of one x needing more than
_MAX_J_PANELS panels over its nodes (Z beyond about 50 at t = 1.5), and
the power series beyond u = _SERIES_U_MAX.  Both panel counts are read
before any node is evaluated.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import k0e, kve

from .quadrature import BLOCK, equal_panels, gl_panels, gl_rows, gl_sums

_M = 30.0  # contour-shift margin: e^{-M} bounds the neglected horizontal piece
_MAX_PANELS = 4000  # order-12 panels per shifted-contour WK evaluation
# order-12 panels over one rj_kernel node array: Z = 50 at t = 1.5 needs 3.5e6
_MAX_J_PANELS = 4_000_000
# 2 cosh(pi u) overflows from u = 225.93 on, and 1/Gamma(1 + 2iu) soon after
_SERIES_U_MAX = 225.9


def _pairs(u, x) -> tuple[np.ndarray, np.ndarray, tuple]:
    """u and x broadcast together and flattened, and their common shape."""
    u, x = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(x, dtype=float))
    return u.ravel(), x.ravel(), u.shape


def _per_x(x: np.ndarray, f) -> np.ndarray:
    """f(x) through math, once for each run of equal values in a nonempty x."""
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    return np.repeat([f(v) for v in x[starts].tolist()], np.diff(np.append(starts, x.size)))


def _check_series(u_max: float) -> None:
    if u_max > _SERIES_U_MAX:
        raise ValueError(
            f"Bessel power series at u={u_max:.6g} leaves the float range"
            f" (limit u <= {_SERIES_U_MAX:g}); use a smaller Z"
        )


def check_node_limits(u_max: float, x: float, k_side: bool) -> None:
    """Refuse, as wk_kernel (k_side) or rj_kernel would, node arrays at x
    whose largest u is u_max: past the power series' range, or past
    _MAX_PANELS on the shifted K contour.  The J contour's panel count
    needs every node and is read by rj_kernel alone."""
    if x <= (5.5 if k_side else 14.0):
        _check_series(u_max)
    elif k_side and x < math.pi * u_max - 6.0:
        _wk_shifted_panels(u_max, x)


def _series(u: np.ndarray, x: np.ndarray, sign: int) -> np.ndarray:
    """sum_k sign^k (x/2)^{2k+2iu} / (k! Gamma(k+1+2iu)) at flat (u, x)
    pairs: J_{2iu}(x) for sign = -1, I_{2iu}(x) for sign = +1."""
    if u.size:
        _check_series(float(u.max()))
    out = np.empty(u.size, dtype=complex)
    for lo in range(0, u.size, BLOCK):
        sl = slice(lo, lo + BLOCK)
        out[sl] = _series_block(u[sl], x[sl], sign)
    return out


def _series_block(u: np.ndarray, x: np.ndarray, sign: int) -> np.ndarray:
    from scipy.special import gamma as cgamma

    # each pair runs to its own kmax; sorted by kmax, the pairs still
    # running at step k are a prefix, which shrinks at each distinct kmax
    kmax = (x + 25 + 10 * np.sqrt(x)).astype(np.int64)
    order = np.argsort(-kmax, kind="stable")
    nu = 2j * u[order]
    q = _per_x(x, lambda v: (v / 2) ** 2)[order]
    # term_0 = (x/2)^{2iu} / Gamma(1 + 2iu); ratio_{k+1/k} = sign*(x/2)^2/((k+1)(nu+k+1))
    t = np.exp(nu * _per_x(x, lambda v: math.log(v / 2))[order]) / cgamma(1 + nu)
    total = t.copy()
    k = 0
    for stop in np.unique(kmax).tolist():
        m = int(np.count_nonzero(kmax >= stop))
        t, qm, num, part = t[:m], q[:m], nu[:m], total[:m]
        for k in range(k, stop):
            t = (-t if sign < 0 else t) * qm / ((k + 1) * (num + k + 1))
            part += t
        k = stop
    out = np.empty_like(total)
    out[order] = total
    return out


def _series_RJ(u: np.ndarray, x: np.ndarray) -> np.ndarray:
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


def _contour_C(u: np.ndarray, x: np.ndarray, plans: list) -> list[float]:
    """C(u,x) = int_0^inf cos(x cosh s) cos(2us) ds at each node (u, x) via
    the rotated contour laid out by _contour_plan(u, x), each piece of all
    nodes in one flat quadrature."""
    A, s1, ch1, smax, n = (np.array(col) for col in zip(*plans))
    # real segment [0, s1]
    seg1 = gl_sums(
        n[:, 0],
        lambda sl: equal_panels(0.0, s1[sl], n[sl, 0]),
        lambda s, w, r: w * np.cos(x[r] * np.cosh(s)) * np.cos(2 * u[r] * s),
        12,
    )
    # vertical segment: Re V = -int_0^{pi/2} e^{-A sin(sg)} *
    #   [sin(phc) cos(2us1) cosh(2u sg) - cos(phc) sin(2us1) sinh(2u sg)] d sg
    cos1 = np.array([math.cos(2 * ui * si) for ui, si in zip(u.tolist(), s1.tolist())])
    sin1 = np.array([math.sin(2 * ui * si) for ui, si in zip(u.tolist(), s1.tolist())])

    def band(sg, wv, r):
        ur, Ar, sin_sg = u[r], A[r], np.sin(sg)
        e_plus = np.exp(2 * ur * sg - Ar * sin_sg)
        e_minus = np.exp(-2 * ur * sg - Ar * sin_sg)
        phc = ch1[r] * np.cos(sg)
        return wv * (
            np.sin(phc) * cos1[r] * 0.5 * (e_plus + e_minus)
            - np.cos(phc) * sin1[r] * 0.5 * (e_plus - e_minus)
        )

    segv = gl_sums(n[:, 1], lambda sl: equal_panels(0.0, math.pi / 2, n[sl, 1]), band, 12)
    # horizontal tail: Re H = int_{s1}^{smax} e^{pi u - x sinh s} *
    #   (1 + e^{-2 pi u})/2 * cos(2us) ds, bounded by e^{-M}
    pu = math.pi * u
    segh = gl_sums(
        n[:, 2],
        lambda sl: equal_panels(s1[sl], smax[sl], n[sl, 2]),
        lambda s, w, r: w * np.exp(pu[r] - x[r] * np.sinh(s)) * np.cos(2 * u[r] * s),
        12,
    )
    return [
        a - v + h * 0.5 * (1 + math.exp(-2 * math.pi * ui))
        for a, v, h, ui in zip(seg1, segv, segh, u.tolist())
    ]


def _contour_RJ(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """RJ at flat pairs by the rotated contour; the panels are counted, and
    refused past _MAX_J_PANELS for any one x, before any node is evaluated."""
    ul = u.tolist()
    plans = [_contour_plan(ui, xi) for ui, xi in zip(ul, x.tolist())]
    panels = [sum(plan[-1]) for plan in plans]
    xs, inv, nodes = np.unique(x, return_inverse=True, return_counts=True)
    per_x = np.bincount(inv, weights=panels, minlength=xs.size)
    if per_x.size and per_x.max() > _MAX_J_PANELS:
        i = int(np.argmax(per_x > _MAX_J_PANELS))
        raise ValueError(
            f"J-kernel at x={xs[i]:.6g} needs {int(per_x[i])} quadrature panels over"
            f" {nodes[i]} nodes (limit {_MAX_J_PANELS}); use a smaller Z"
        )
    C = _contour_C(u, x, plans)
    return np.array([-(2 / math.pi) * math.tanh(math.pi * ui) * c for ui, c in zip(ul, C)])


def rj_kernel(u, x) -> np.ndarray:
    """RJ(u, x) = Im J_{2iu}(x)/cosh(pi u) at arrays of u >= 0 and x > 0
    that broadcast together (a scalar x for one node array)."""
    u, x, shape = _pairs(u, x)
    out = np.empty(u.size)
    series = x <= 14.0
    if series.any():
        out[series] = _series_RJ(u[series], x[series])
    if not series.all():
        out[~series] = _contour_RJ(u[~series], x[~series])
    return out.reshape(shape)


def _series_WK(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sinh(pi u) K_{2iu}(x) = -pi Im I_{2iu}(x) / (2 cosh(pi u)), from
    K = -pi Im I_{2iu}(x) / sinh(2 pi u); the I-series is stable for small x
    (loss ~ e^{2x})."""
    return -math.pi * np.imag(_series(u, x, 1)) / (2 * np.cosh(math.pi * u))


def _wk_direct(u: np.ndarray, x: np.ndarray) -> list[float]:
    """sinh(pi u) K_{2iu}(x) by the real-axis integral at each node (u, x),
    all in one flat quadrature; needs x >= pi u - 6."""
    ul = u.tolist()
    tmax, n = [], []
    for ui, xi in zip(ul, x.tolist()):
        tmax.append(math.acosh(1.0 + (45.0 + max(0.0, math.pi * ui - xi)) / xi))
        n.append(max(2, int((2 * ui * tmax[-1] + 8.0) / 4.0) + int(tmax[-1]) + 1))
    tmax, n = np.array(tmax), np.array(n)
    pu = math.pi * u
    sums = gl_sums(
        n,
        lambda sl: equal_panels(0.0, tmax[sl], n[sl]),
        lambda t, w, r: w * (np.exp(pu[r] - x[r] * np.cosh(t)) * np.cos(2 * u[r] * t)),
        12,
    )
    return [s * 0.5 * (1 - math.exp(-2 * math.pi * ui)) for s, ui in zip(sums, ul)]


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
    # w * exp(-a cosh s) * cos(-x cos(eps) sinh s + 2us) in place on the
    # grid's own arrays, each product and sum with the operands of that
    # expression, so the bits are those of its out-of-place form
    env = np.cosh(s)
    env *= -a
    np.exp(env, out=env)
    phase = np.sinh(s)
    phase *= -x * math.cos(eps)
    s *= 2 * u
    phase += s
    np.cos(phase, out=phase)
    w *= env
    w *= phase
    integral = w.sum()
    pref = (1 - math.exp(-2 * math.pi * u)) * 0.5 * math.exp(2 * u * eps)
    return float(pref * integral)


def wk_kernel(u, x) -> np.ndarray:
    """WK(u, x) = sinh(pi u) K_{2iu}(x) at arrays of u >= 0 and x > 0 that
    broadcast together (a scalar x for one node array)."""
    u, x, shape = _pairs(u, x)
    out = np.empty(u.size)
    series = x <= 5.5
    shifted = ~series & (x < math.pi * u - 6.0)
    direct = ~series & ~shifted
    if shifted.any():
        # refuse before any evaluation: the largest u of each x needs the most panels
        xs, inv = np.unique(x[shifted], return_inverse=True)
        umax = np.full(xs.size, -math.inf)
        np.maximum.at(umax, inv, u[shifted])
        for ui, xi in zip(umax.tolist(), xs.tolist()):
            _wk_shifted_panels(ui, xi)
    if series.any():
        out[series] = _series_WK(u[series], x[series])
    if direct.any():
        out[direct] = _wk_direct(u[direct], x[direct])
    if shifted.any():
        out[shifted] = [_wk_shifted(ui, xi) for ui, xi in zip(u[shifted].tolist(), x[shifted].tolist())]
    return out.reshape(shape)


def rj_bound(u, x) -> np.ndarray:
    """Proven majorant of |RJ(u, x)| from the contour pieces; u and x
    broadcast together."""
    u = np.asarray(u, dtype=float)
    s1 = np.arcsinh((math.pi * u + _M) / x)
    return (2 / math.pi) * np.tanh(math.pi * np.maximum(u, 1e-12)) * (s1 + 2.0)


def _math_map(f, a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, a.ravel().tolist()), float, a.size).reshape(a.shape)


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


def wk_bound(u, x) -> np.ndarray:
    """Majorant of |WK(u, x)|: (1/2) e^{2 u eps} K_0(x sin eps), optimized
    over the contour tilts eps in {pi/2, pi/4, 1/u, 2/u} (u at least 1/2,
    eps at most pi/2); K_0(y) <= e^{-y} log(1 + 2/y) + ...  u and x
    broadcast together.

    Every value is the one a scalar loop through math gives, bit for bit.
    sin of the u-dependent tilts goes through math once per u.  An np.exp
    pre-pass picks, for each element, the tilts within 1e-12 relative of
    its smallest candidate (or not finite, or all of them near underflow);
    only those go through math.exp, since np.exp differs from it in the
    last bit on a few per cent of arguments.  np.fmin in candidate order
    then keeps the first minimum and skips NaN, as min(best, val) does; a
    candidate whose exponential overflows is +inf.
    """
    u = np.asarray(u, dtype=float)
    x = np.asarray(x, dtype=float)
    m = np.maximum(u, 0.5)
    shape = np.broadcast_shapes(u.shape, x.shape)
    arg = np.empty((4,) + shape)
    k0 = np.empty((4,) + shape)
    for i, eps in enumerate((math.pi / 2, math.pi / 4)):
        y = x * math.sin(eps)
        arg[i] = 2 * u * eps - y
        k0[i] = k0e(y)
    tilts = np.minimum(np.stack([1.0 / m, 2.0 / m]), math.pi / 2)
    for i, (eps, sin_eps) in enumerate(zip(tilts, _math_map(math.sin, tilts)), 2):
        y = x * sin_eps
        arg[i] = 2 * u * eps - y
        k0[i] = k0e(y)
    with np.errstate(over="ignore", invalid="ignore"):
        approx = 0.5 * np.exp(arg) * k0
        low = np.fmin.reduce(approx, axis=0)
        cut = np.where(low >= 1e-290, low * (1 + 1e-12), math.inf)
        need = ~(approx > cut) | ~np.isfinite(approx)
        val = np.full(approx.shape, math.inf)
        val[need] = 0.5 * _exp(arg[need]) * k0[need]
    return np.fmin.reduce(val, axis=0, initial=math.inf)


def k_scaled(mu: complex, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """e^w K_mu(w) and e^w K_mu'(w) for an array of w > 0: the seeds of
    W_{kappa,mu}(2w) at integer kappa >= 0 (half-integer kappa is seeded
    from the Laplace integral instead, in whittaker).

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
