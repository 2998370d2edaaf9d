"""Hecke eigenvalue systems, oldform orthogonalization, Kuznetsov
transforms, and the geometric side of the trace formula.

Eigenvalue systems are multiplicative assignments built from per-prime
Satake parameters: Eisenstein-derived (alpha_p = chi(p)), the divisor
system among them as that of the trivial character (alpha_p = 1), or
synthetic seeded systems (|alpha_p| = 1) satisfying the Hecke recursion.
Every system is taken at the one exponent theta = RAMANUJAN_THETA = 1/9
towards Ramanujan-Petersson, |lambda(p)| <= 2 Np^theta, which the tail
bounds read.  One rule, lambda(p^k) = sum over i <= k of alpha_p^(2i - k),
gives every eigenvalue, and one product over the factorisation,
EigenvalueSystem.lambda_value, gives lambda(m); eisenstein's
lambda_{chi,chi^{-1}} reads it.  The cuspidal spectrum itself is out of
reach; synthetic systems exercise all formulas that depend only on the
Hecke relations.

Transforms: bessel_transforms_many keeps the records of accepted batches
in one module cache, _RECORDS, keyed by (k, t > 0, x = 4 pi sqrt|t|,
tail_target) and bounded at TRANSFORM_CACHE_SIZE = 4096 records (560 bytes
a record for t > 0 and 420 for t < 0, so at most 2.3 MB); a repeated
transform, in bessel_transforms, kuznetsov_geometric_side or the CLI, is
read from it with the bits it was computed with.

Truncation heights: every transform, and ktilde, is cut at the first T of
the accumulated float grid max(2, Z), T += max(0.5, Z/4), ... (not a
half-integer grid once Z > 2: Z = 3 gives 14.25) whose 128-node tail
window sums, times the margin 2.1, below tail_target.  The search
(_truncation_heights) sums a window only where a one-term probe cannot
already prove it fails.  The terms of a window are >= 0, and a sum of
nonnegative floats rounded to nearest is never below any one of its terms
(rounding is monotone), so 2.1 times the window's first term at or above
the target means the computed tail is too.  The skip moves no bit of T, of
the tail or of the refusal.

Imports: the eigenvalue systems and the shifted sums built on them run on
exact arithmetic, so numpy, scipy.special, quadrature, bessel_kernels and
kloosterman are imported inside the functions that evaluate with them
(oldform_gram_schmidt, the test functions, the transforms and the
geometric side), never at module level.  Importing this module, and
shifted with it, loads none of them.
"""

from __future__ import annotations

import cmath
import functools
import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass
from sys import float_info
from typing import Optional, Sequence

from .characters import HeckeCharacter, unramified_character
from .fields import (
    MAX_BOX_POINTS,
    FieldDesc,
    Ideal,
    RingElement,
    arith_functions,
    divisors,
    enumerate_in_box,
    factor_ideal,
    ideals_of_norm_up_to,
)

RAMANUJAN_THETA = 1.0 / 9.0
# the Euler factors of shifted_inner_ratio stop once their tail bound is
# below this
_INNER_RATIO_TOL = 1e-12
# oldform_gram_schmidt refuses a level with more shift divisors than this
_MAX_OLDFORM_DIVISORS = 64
# A in |kcheck(t)| <= A Z^2 min(1, sqrt|t|), the transform bound in the tail
# majorant of kuznetsov_geometric_side: assumed, not proven
KERNEL_BOUND_A = 8.0


def hecke_prime_power(a: complex, k: int) -> complex:
    """lambda(P^k) = sum over i <= k of a^(2i - k) from the Satake parameter
    a at P, the one eigenvalue rule; zero for k > 0 when a = 0 (P divides
    the modulus of chi)."""
    if a == 0 and k:
        return 0.0
    return sum(a ** (2 * i - k) for i in range(k + 1))


class EigenvalueSystem:
    """Multiplicative Hecke-eigenvalue system with trivial central character.

    A system built with a Hecke character chi is the Eisenstein system
    lambda_{chi,chi^{-1}}, with Satake parameter alpha_P = chi(P); one built
    without is the synthetic system of its seed.  alpha and
    lambda_prime_power cache per system, so their entries go with it."""

    # read by the tail bounds of shifted_inner_ratio and shifted.dirichlet_D
    theta = RAMANUJAN_THETA

    def __init__(self, K: FieldDesc, seed: int = 0, chi: Optional[HeckeCharacter] = None):
        self.field = K
        self.seed = seed
        self.chi = chi
        self.conductor = K.unit_ideal() if chi is None else chi.conductor() * chi.conductor()
        self.alpha = functools.lru_cache(maxsize=200_000)(self._alpha)
        self.lambda_prime_power = functools.lru_cache(maxsize=200_000)(self._lambda_prime_power)

    def _alpha(self, P) -> complex:
        """Satake parameter at the prime P."""
        if self.chi is not None:
            return self.chi.eval_on_ideal(P.ideal)
        key = f"{self.seed}:{self.field.D}:{P.p}:{P.ideal.key()}"
        frac = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") / 2**64
        return cmath.exp(1j * math.pi * frac)

    def _lambda_prime_power(self, P, k: int) -> complex:
        """lambda(P^k) by hecke_prime_power, once per (P, k)."""
        return hecke_prime_power(self.alpha(P), k)

    def lambda_value(self, m: Ideal) -> complex:
        """lambda(m) from factor_ideal and lambda(P^k); zero on nonintegral
        ideals and at the first vanishing local factor."""
        if not m.is_integral():
            return 0.0
        out = 1.0 + 0j
        for P, e in factor_ideal(m):
            loc = self.lambda_prime_power(P, e)
            if loc == 0:
                return 0.0
            out *= loc
        return out


def divisor_system(K: FieldDesc) -> EigenvalueSystem:
    """The tau-type system lambda(p^k) = k + 1 (Eisenstein at s = 0): the
    system of the trivial unramified character, alpha_P = 1."""
    return EigenvalueSystem(K, chi=unramified_character(K, [0.0] * K.d))


@functools.lru_cache(maxsize=256)
def eisenstein_system(chi: HeckeCharacter) -> EigenvalueSystem:
    """The Eisenstein system lambda_{chi,chi^{-1}}, one per character."""
    return EigenvalueSystem(chi.field, chi=chi)


def shifted_inner_ratio(sys: EigenvalueSystem, t1: Ideal, t2: Ideal) -> complex:
    """<R_{t1} phi, R_{t2} phi> / <phi, phi> by the Euler-product formula
    with the coprime parts t_i' = t_i / gcd(t1, t2)."""
    if not (t1.is_integral() and t2.is_integral()):
        raise ValueError("t1, t2 must be integral")
    g = t1 + t2
    t1p = t1 * g.inverse()
    t2p = t2 * g.inverse()
    out = 1.0 / math.sqrt(float((t1p * t2p).norm()))
    for tp, conj_shift in ((t1p, True), (t2p, False)):
        for P, nu in factor_ideal(tp):
            N = P.norm()
            num = 0.0 + 0j
            den = 0.0
            k = 0
            while True:
                lk = sys.lambda_prime_power(P, k)
                ls = sys.lambda_prime_power(P, k + nu)
                term = (lk * ls.conjugate() if conj_shift else ls * lk.conjugate())
                num += term / N**k
                den += abs(lk) ** 2 / N**k
                bound = (
                    (k + 2) * (k + nu + 2) * N ** ((k + 1) * (2 * sys.theta - 1))
                    / (1 - N ** (2 * sys.theta - 1))
                )
                if bound < _INNER_RATIO_TOL and k > 4:
                    break
                k += 1
                if k > 10000:
                    raise RuntimeError("series truncation failed")
            out *= num / den
    return out


@dataclass
class OldformBasis:
    """Coefficients alpha_{t,s} of the orthogonalized shifts R^{(t)}."""

    system: EigenvalueSystem
    level: Ideal
    divisors: list[Ideal]
    alpha: dict[tuple, complex]
    gram_residual: float

    def coefficient(self, t: Ideal, s: Ideal) -> complex:
        return self.alpha.get((t.key(), s.key()), 0.0)


def oldform_gram_schmidt(sys: EigenvalueSystem, c: Ideal) -> OldformBasis:
    """Orthonormalize the shift maps {R_t : t | c c_pi^{-1}} against the
    inner products of shifted_inner_ratio; divisor order is ascending
    (norm, HNF key)."""
    import numpy as np

    if not sys.conductor.divides(c):
        raise ValueError("conductor must divide the level")
    quot = c * sys.conductor.inverse()
    divs = divisors(quot)
    if len(divs) > _MAX_OLDFORM_DIVISORS:
        raise ValueError("too many divisors")
    n = len(divs)
    G = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            G[i, j] = shifted_inner_ratio(sys, divs[i], divs[j])
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"numerically singular Gram matrix: {exc}") from exc
    A = np.linalg.inv(L.conj().T)  # columns give R^(t) in the R_s basis
    resid = float(np.max(np.abs(A.conj().T @ G @ A - np.eye(n))))
    # G is a product over primes, so A[s, t] = 0 unless s | t: kept exactly there
    alpha = {}
    for j, t in enumerate(divs):
        for i, s in enumerate(divs):
            if s.divides(t):
                alpha[(t.key(), s.key())] = complex(A[i, j])
    return OldformBasis(sys, c, divs, alpha, resid)


# ---------------------------------------------------------------------------
# test functions and Bessel transforms


@dataclass(frozen=True)
class KTestGaussian:
    """The Gaussian family k_Z: e^{(nu^2-1/4)/Z^2} on the strip, cut off at
    Z on the discrete half-integers.  Decay certificate: super-Gaussian."""

    Z: float

    def __post_init__(self):
        if not (math.isfinite(self.Z) and self.Z > 0):
            raise ValueError(f"Z must be finite and > 0, got {self.Z}")
        # k divides by Z^2, which must be a normal float: neither 0, nor
        # subnormal, nor overflowing
        if not float_info.min <= self.Z * self.Z < math.inf:
            raise ValueError(f"Z^2 leaves the float range at Z = {self.Z}")
        # the truncation search takes u up to its limit 60 max(1, Z) plus a
        # window of 8 Z, where u^2 must stay finite
        top = 68 * max(1.0, self.Z)
        if not top * top < math.inf:
            raise ValueError(f"the truncation search takes u up to {top:.4g}, where u^2 leaves the float range")

    def on_axis(self, u):
        import numpy as np

        u = np.asarray(u, dtype=float)
        # at a tiny Z, u^2/Z^2 may overflow to inf, and k(iu) = 0 is its limit
        with np.errstate(over="ignore"):
            return np.exp(-(u**2 + 0.25) / self.Z**2)

    def at_half_integer(self, nu: float) -> float:
        if abs(nu) < 2 / 3:
            return math.exp((nu**2 - 0.25) / self.Z**2)
        return 1.0 if abs(nu) <= self.Z else 0.0


@functools.lru_cache(maxsize=256)
def _tail_window(k: KTestGaussian, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u on [T, T + 8Z] and the weights ws * k(iu) * u of the tail
    integral, read-only.  They depend on (Z, T) alone and T steps on a fixed
    grid from max(2, Z), so every t of one Z shares a few windows; a search
    asks for at most _LOOKAHEAD - 1 of them past its answer."""
    from .quadrature import gl_panels

    us, ws = gl_panels(T, T + 8 * k.Z, 16, order=8)
    wu = ws * k.on_axis(us) * us
    us.flags.writeable = False
    wu.flags.writeable = False
    return us, wu


# candidate heights the truncation search probes at once
_LOOKAHEAD = 8


def _truncation_heights(k: KTestGaussian, bound, xs, target: float) -> tuple[list, list]:
    """For each x of xs, the smallest candidate T with the tail integral of
    k(iu) * u * bound(u, x) below target; returns the lists of T and of tail
    bounds.  ValueError if no candidate below 60 max(1, Z) is.

    The candidates are the floats T = max(2, Z), T += max(0.5, Z/4), ...,
    accumulated in that order (Z = 3 gives 3.0, 3.75, ..., 14.25).  The
    tail at T is fl(2.1 * fl(sum of the terms wu * bound(u, x))) over the
    128 nodes of _tail_window(k, T), whose integrand decays
    super-exponentially beyond (margin 2.1).

    The search takes 32 x at a time and _LOOKAHEAD candidates at a time.
    A one-term probe first skips, without its window sum, every (x, T)
    whose first term alone already fails: the terms are >= 0 and rounding
    to nearest is monotone, so a computed sum of nonnegative terms is never
    below any one of them, and fl(2.1 * sum) >= fl(2.1 * first term) >=
    target.  The probe's term has the window's bits because bound is
    elementwise and independent of the shape of its arguments.  Every other
    pair sums its whole window, candidate by candidate, until its x passes,
    so T, the tail and the refusal are those of a search that sums every
    window in turn."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    heights, tails = [0.0] * xs.size, [0.0] * xs.size
    limit = 60 * max(1.0, k.Z)
    rows = 32  # x per step: a (rows, 128) window array of 32 kB
    for lo in range(0, xs.size, rows):
        todo = np.arange(lo, min(lo + rows, xs.size))
        T = max(2.0, k.Z)
        while todo.size:
            run = []
            while len(run) < _LOOKAHEAD and T < limit:
                run.append(T)
                T += max(0.5, k.Z / 4)
            if not run:
                raise ValueError(
                    f"no truncation height below 60*max(1, Z) = {limit:g} brings the"
                    f" tail under {target:g} at Z={k.Z:g}"
                )
            windows = [_tail_window(k, c) for c in run]
            first = np.array([wu[0] for _, wu in windows]) * bound(
                np.array([us[0] for us, _ in windows]), xs[todo, None]
            )
            # a NaN probe skips nothing; its window sum is NaN and fails too
            skip = np.broadcast_to(first * 2.1 >= target, (todo.size, len(run)))
            open_ = np.ones(todo.size, dtype=bool)
            for j in np.flatnonzero(~skip.all(axis=0)).tolist():
                pick = np.flatnonzero(open_ & ~skip[:, j])
                if not pick.size:
                    continue
                us, wu = windows[j]
                vals = wu * bound(us, xs[todo[pick], None])
                tail = np.sum(np.broadcast_to(vals, (pick.size, us.size)), axis=1) * 2.1
                done = tail < target
                for i, v in zip(todo[pick[done]].tolist(), tail[done].tolist()):
                    heights[i], tails[i] = run[j], v
                open_[pick[done]] = False
                if not open_.any():
                    break
            todo = todo[open_]
    return heights, tails


def _u_density(u: float, x: float) -> float:
    """Radians per unit u of k(iu) u times a kernel at x near u: the
    density the u-panels of a transform are graded by."""
    return 2 * math.asinh((2 * u + 1) / x) + 0.6


def _check_u_nodes(nodes: float, what: str) -> None:
    """Refuse a u-quadrature of more than MAX_BOX_POINTS nodes before any
    of them is made."""
    if nodes > MAX_BOX_POINTS:
        raise ValueError(
            f"{what} needs up to {nodes:.4g} u-nodes (limit {MAX_BOX_POINTS}); use a smaller Z"
        )


# the bound of the transform cache, which keeps the records of the most
# recently used transforms (their bytes, by tracemalloc under CPython 3.11,
# are in the module docstring)
TRANSFORM_CACHE_SIZE = 4096
_RECORDS: OrderedDict[tuple, dict] = OrderedDict()
# the geometric side asks for its transforms at most this many t at a time,
# so that a batch's panels and records do not grow with the box
GEOMETRIC_BATCH = 4096


def bessel_transforms_many(k: KTestGaussian, ts, tail_target: float = 5e-9) -> list[dict]:
    """bessel_transforms at each t of ts, in one pass per sign of t.

    A transform depends on t through its sign and x = 4 pi sqrt|t| alone,
    so each distinct x of a sign is computed once and repeated t get equal
    copies.  The records of earlier batches are kept in a cache keyed by
    (k, t > 0, x, tail_target), and only the x it lacks are computed; the
    records of a batch enter it only once the whole batch is accepted, so a
    refused batch leaves it as it was, and it keeps the
    TRANSFORM_CACHE_SIZE most recently used records.  Every t gets a fresh
    dict.  One truncation search steps every x at once, and the graded
    u-nodes of all transforms go through the kernels as flat arrays of
    (u, x) pairs (quadrature.gl_sums), each transform's integral np.sum over
    its own slice.  Every value is bit for bit the one a separate call gives.

    Memory: the kernels see at most quadrature.BLOCK = 2^13 u-nodes at a
    time (a transform with more on its own) and cut their own quadrature
    points into blocks of the same size, and the truncation search takes 32
    x at a time, so the temporaries stay within about 4 MB; past that a
    batch grows only with its results, about 1 kB per t, and the cache with
    its new records, up to its bound.  A transform whose u-nodes could
    number more than fields.MAX_BOX_POINTS, by a bound from its truncation
    height, is refused before any of its panels is made.
    """
    import numpy as np
    from scipy.special import jv as _besselj

    from .bessel_kernels import check_node_limits, rj_bound, rj_kernel, wk_bound, wk_kernel
    from .quadrature import gl_from_panels, gl_sums, graded_panels

    ts = [float(t) for t in ts]
    for t in ts:
        if t == 0 or not math.isfinite(t):
            raise ValueError(f"t must be finite and nonzero, got {t}")
    keys = [(k, t > 0, 4 * math.pi * math.sqrt(abs(t)), tail_target) for t in ts]
    records = {key: _RECORDS[key] for key in keys if key in _RECORDS}
    # every sign's truncation heights, u-panels and node limits before any
    # kernel is evaluated, so that a refused input fails early
    sides = []
    for positive in (True, False):
        xs = list(dict.fromkeys(key[2] for key in keys if key[1] == positive and key not in records))
        if not xs:
            continue
        heights, tails = _truncation_heights(k, rj_bound if positive else wk_bound, xs, tail_target)
        for x, T in zip(xs, heights):
            # the density grows with u, so each graded panel but the last
            # holds at least 2 pi of its integral over [0, T], which is at
            # most T * density(T): at most 2 + T * density(T) / 2 pi panels
            # (and at least 4), of 16 nodes each
            bound = max(4.0, 2 + T * _u_density(T, x) / (2 * math.pi))
            _check_u_nodes(16 * bound, f"the transform at x={x:.6g} up to T={T:.6g}")
        panels = [
            graded_panels(0.0, T, lambda uu, x=x: _u_density(uu, x), 4) for x, T in zip(xs, heights)
        ]
        # the largest node of a transform: the last point of its last panel
        last, _ = gl_from_panels(
            np.array([mid[-1] for mid, _ in panels]), np.array([half[-1] for _, half in panels]), 16
        )
        for x, u_max in zip(xs, last[15::16].tolist()):
            check_node_limits(u_max, x, not positive)
        sides.append((positive, xs, heights, tails, panels))
    for positive, xs, heights, tails, panels in sides:
        kernel = rj_kernel if positive else wk_kernel
        xa = np.array(xs)
        totals = gl_sums(
            [len(mid) for mid, _ in panels],
            lambda sl: (
                np.array([v for mid, _ in panels[sl] for v in mid]),
                np.array([v for _, half in panels[sl] for v in half]),
            ),
            lambda us, ws, r: ws * k.on_axis(us) * us * kernel(us, xa[r]),
            16,
        )
        for x, T, tail, (mid, _), total in zip(xs, heights, tails, panels, totals):
            cert = {"T": T, "tail_bound": tail, "nodes": 16 * len(mid)}
            if positive:
                disc = 0.0
                b = 2
                while (b - 1) / 2 <= max(0.5, k.Z):
                    nu = (b - 1) / 2
                    disc += (-1) ** (b // 2) * (b - 1) * k.at_half_integer(nu) * float(
                        _besselj(b - 1, x)
                    )
                    b += 2
                cont = -2.0 * total
                rec = {"value": cont + disc, "continuous": cont, "discrete": disc, **cert}
            else:
                rec = {"value": (4 / math.pi) * total, **cert}
            records[k, positive, x, tail_target] = rec
    for key in keys:
        _RECORDS[key] = records[key]
        _RECORDS.move_to_end(key)
    while len(_RECORDS) > TRANSFORM_CACHE_SIZE:
        _RECORDS.popitem(last=False)
    return [dict(records[key]) for key in keys]


def bessel_transforms(k: KTestGaussian, t: float, tail_target: float = 5e-9) -> dict:
    """The Kuznetsov transform kcheck(t) for finite t != 0, with certificates.

    t > 0: contour integral of k against J_{2nu} on the spectral axis plus
    the even discrete-series sum; t < 0: the I-Bessel contour integral,
    both folded into manifestly real kernels.  The one-t case of
    bessel_transforms_many.
    """
    return bessel_transforms_many(k, [t], tail_target)[0]


def bessel_tilde(k: KTestGaussian, tail_target: float = 5e-9) -> dict:
    """The scalar transform ktilde with its discrete-series part; more
    than fields.MAX_BOX_POINTS u-nodes are refused before any is made."""
    import numpy as np

    from .quadrature import gl_panels

    (T,), (tail,) = _truncation_heights(k, lambda us, x: np.ones_like(us), [0.0], tail_target)
    n_panels = max(8, int(T))
    _check_u_nodes(16 * n_panels, f"ktilde up to T={T:.6g}")
    us, ws = gl_panels(0.0, T, n_panels, order=16)
    cont = float(np.sum(ws * k.on_axis(us) * us * np.tanh(math.pi * us)))
    disc = 0.0
    b = 2
    while (b - 1) / 2 <= max(0.5, k.Z):
        nu = (b - 1) / 2
        disc += nu * k.at_half_integer(nu)
        b += 2
    return {"value": cont + disc, "T": T, "tail_bound": tail}


# ---------------------------------------------------------------------------
# geometric side of the Kuznetsov formula


def kuznetsov_geometric_side(
    r1: RingElement,
    r2: RingElement,
    level: Ideal,
    k: Sequence[KTestGaussian],
    box: float = 40.0,
    tail_target: float = 5e-9,
) -> dict:
    """Geometric side: diagonal * prod ktilde_j + unit/Kloosterman double
    sum, with the modulus sum truncated to the embedding box
    [-box, box]^d and a reported Weil-bound tail majorant.

    One pass over the box, the transforms, then the sums.  The pass lists
    one term per nonzero modulus c and unit u: N(c), the per-place keys of
    the embeddings of w = u r1 r2 / (gamma c^2) and the Kloosterman query
    S(r1, u r2; c), and keeps the first embedding seen for each key.  Then
    bessel_transforms_many, per distinct test function, takes the distinct
    first-seen embeddings of every place that has it, GEOMETRIC_BATCH t a
    call (each value has the same bits however the t are cut), and each
    place reads its own back by its own keys; ktilde too is computed once
    per distinct test function.  So an input the transforms refuse fails
    before any Kloosterman sum.  Then one kloosterman_sums call gives every
    S, and the total adds S / N(c) times the product of the term's
    transforms in place order, term after term, as a term-by-term walk
    would.

    The majorant takes |kcheck(t)| <= A Z^2 min(1, sqrt|t|) with A =
    KERNEL_BOUND_A; tail_target is the tail bound asked of every transform
    and of ktilde.  The result's "transforms" counts the distinct t per
    place.
    """
    from .kloosterman import KloostermanQuery, kloosterman_sums

    K = r1.field
    if len(k) != K.d:
        raise ValueError("one test function per place")
    if not (math.isfinite(box) and box >= 0):
        raise ValueError(f"box must be finite and >= 0, got {box}")
    # gamma: totally positive generator of d^2; delta is 1, sqrt D or 2 sqrt D,
    # real and nonzero at every place, so delta^2 is totally positive
    gamma = K.delta * K.delta
    # places with equal test functions share one ktilde and one transform
    # batch; in the batch each place passes its own first-seen floats and
    # reads its slice back by its own keys
    places: dict[KTestGaussian, list[int]] = {}
    for j, kj in enumerate(k):
        places.setdefault(kj, []).append(j)
    tilde_of = {kj: bessel_tilde(kj, tail_target) for kj in places}
    tildes = [tilde_of[kj] for kj in k]
    same = Ideal.principal(r1) == Ideal.principal(r2)
    diag = 1.0 if same else 0.0
    for td in tildes:
        diag *= td["value"]
    units = K.units_mod_squares()
    u_r2 = [u * r2 for u in units]
    numerators = [r1 * ur2 for ur2 in u_r2]
    terms = []
    first: list[dict] = [{} for _ in range(K.d)]  # key -> first embedding, per place
    for c in enumerate_in_box(level, [(-box, box)] * K.d):
        if c.is_zero():
            continue
        nc = abs(float(c.norm()))
        denominator = gamma * c * c
        for numerator, ur2 in zip(numerators, u_r2):
            keys = []
            for j, emb in enumerate((numerator / denominator).embeddings()):
                key = round(emb, 18)
                first[j].setdefault(key, emb)
                keys.append(key)
            terms.append((nc, keys, KloostermanQuery(r1, ur2, c)))
    kcheck: list[dict] = [{} for _ in range(K.d)]
    for kj, js in places.items():
        # conjugate places share most of their t: each distinct t once
        ts = list(dict.fromkeys(t for j in js for t in first[j].values()))
        value = {}
        for s in range(0, len(ts), GEOMETRIC_BATCH):
            batch = ts[s : s + GEOMETRIC_BATCH]
            recs = bessel_transforms_many(kj, batch, tail_target)
            value.update((t, rec["value"]) for t, rec in zip(batch, recs))
        for j in js:
            kcheck[j] = {key: value[t] for key, t in first[j].items()}
    total = 0.0 + 0j
    sums = kloosterman_sums([query for _, _, query in terms])
    for (nc, keys, _), S in zip(terms, sums):
        prod = 1.0
        for values, key in zip(kcheck, keys):
            prod *= values[key]
        total += S / nc * prod
    # tail majorant: Weil + |kcheck| <= A Z^2 min(1, sqrt) beyond the box
    NB = box**K.d / 2  # crude norm reached inside the box
    wnorm = abs(float((Ideal.principal(r1 * r2)).norm() / gamma.norm()))
    kc = 1.0
    for kj in k:
        kc *= KERNEL_BOUND_A * kj.Z**2
    tail = 0.0
    for I in ideals_of_norm_up_to(K, int(4 * NB) + 8):
        n = float(I.norm())
        if n <= NB or not level.divides(I):
            continue
        tau = arith_functions(I)[2]
        tail += tau * math.sqrt(n) / n * math.sqrt(wnorm) / n * (2**K.d) * 3.0
    tail *= kc
    tail += kc * math.sqrt(wnorm) * 4.0 / math.sqrt(max(NB, 1.0))
    value = diag + total
    return {
        "value": value,
        "diagonal": diag,
        "off_diagonal": total,
        "terms": len(terms),
        "transforms": [len(seen) for seen in first],
        "box": box,
        "tail_majorant": tail,
        "ktilde": [td["value"] for td in tildes],
    }
