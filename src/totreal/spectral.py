"""Hecke eigenvalue systems, oldform orthogonalization, Kuznetsov
transforms, and the geometric side of the trace formula.

Eigenvalue systems are multiplicative assignments built from per-prime
Satake parameters: Eisenstein-derived (alpha_p = chi(p)), the divisor
system (alpha_p = 1), or synthetic seeded systems satisfying the Hecke
recursion and the Ramanujan-type bound |lambda(p)| <= 2 Np^theta.  One
rule, lambda(p^k) = sum over i <= k of alpha_p^(2i - k), gives every
eigenvalue, eisenstein's lambda_{chi,chi^{-1}} included.  The cuspidal
spectrum itself is out of reach; synthetic systems exercise all formulas
that depend only on the Hecke relations.

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
from dataclasses import dataclass
from typing import Optional, Sequence

from .characters import HeckeCharacter
from .fields import (
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
    lambda_{chi,chi^{-1}}, with Satake parameter alpha_P = chi(P)."""

    def __init__(
        self,
        K: FieldDesc,
        source: str = "synthetic",
        seed: int = 0,
        chi: Optional[HeckeCharacter] = None,
        theta: float = RAMANUJAN_THETA,
        exceptional: Sequence[int] = (),
    ):
        if source not in ("synthetic", "divisor"):
            raise ValueError(f"unknown source {source!r}")
        self.field = K
        self.source = source
        self.seed = seed
        self.chi = chi
        self.theta = theta
        self.exceptional = set(exceptional)
        self.conductor = K.unit_ideal() if chi is None else chi.conductor() * chi.conductor()

    @functools.lru_cache(maxsize=200_000)
    def alpha(self, P) -> complex:
        """Satake parameter at the prime P."""
        if self.chi is not None:
            return self.chi.eval_on_ideal(P.ideal)
        if self.source == "divisor":
            return 1.0 + 0j
        if P.p in self.exceptional:
            return complex(P.norm() ** self.theta)
        key = f"{self.seed}:{self.field.D}:{P.p}:{P.ideal.key()}"
        frac = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") / 2**64
        return cmath.exp(1j * math.pi * frac)

    @functools.lru_cache(maxsize=200_000)
    def lambda_prime_power(self, P, k: int) -> complex:
        """lambda(P^k) by hecke_prime_power, once per (P, k)."""
        return hecke_prime_power(self.alpha(P), k)

    @functools.lru_cache(maxsize=200_000)
    def lambda_value(self, m: Ideal) -> complex:
        """lambda(m); zero on nonintegral ideals and at the first vanishing
        local factor."""
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
    """The tau-type system lambda(p^k) = k + 1 (Eisenstein at s = 0)."""
    return EigenvalueSystem(K, source="divisor")


@functools.lru_cache(maxsize=256)
def eisenstein_system(chi: HeckeCharacter) -> EigenvalueSystem:
    """The Eisenstein system lambda_{chi,chi^{-1}}, one per character."""
    return EigenvalueSystem(chi.field, chi=chi)


def shifted_inner_ratio(sys: EigenvalueSystem, t1: Ideal, t2: Ideal) -> complex:
    """<R_{t1} phi, R_{t2} phi> / <phi, phi> by the Euler-product formula
    with the coprime parts t_i' = t_i / gcd(t1, t2)."""
    if sys.theta >= 0.5:
        raise ValueError("series diverges for theta >= 1/2")
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


def lambda_t(
    sys: EigenvalueSystem, basis: OldformBasis, t: Ideal, m: Ideal
) -> complex:
    """Oldform coefficient lambda^{(t)}(m) = sum over s | gcd(t, m) of
    alpha_{t,s} sqrt(N s) lambda(m/s)."""
    if t not in basis.divisors:
        raise ValueError("t is not in the oldform basis")
    if not m.is_integral():
        return 0.0
    g = t + m
    out = 0.0 + 0j
    for s in divisors(g):
        a = basis.coefficient(t, s)
        if a:
            out += a * math.sqrt(float(s.norm())) * sys.lambda_value(m * s.inverse())
    return out


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

    def on_axis(self, u):
        import numpy as np

        u = np.asarray(u, dtype=float)
        return np.exp(-(u**2 + 0.25) / self.Z**2)

    def at_half_integer(self, nu: float) -> float:
        if abs(nu) < 2 / 3:
            return math.exp((nu**2 - 0.25) / self.Z**2)
        return 1.0 if abs(nu) <= self.Z else 0.0


@functools.lru_cache(maxsize=256)
def _tail_window(k: KTestGaussian, T: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u on [T, T + 8Z] and the weights ws * k(iu) * u of the tail
    integral, read-only.  They depend on (Z, T) alone and T steps on a fixed
    grid from max(2, Z), so every t of one Z shares a few windows."""
    from .quadrature import gl_panels

    us, ws = gl_panels(T, T + 8 * k.Z, 16, order=8)
    wu = ws * k.on_axis(us) * us
    us.flags.writeable = False
    wu.flags.writeable = False
    return us, wu


def _truncation_heights(k: KTestGaussian, bound, xs, target: float) -> tuple[list, list]:
    """For each x of xs, the smallest T (on a half-integer grid) with the
    tail integral of k(iu) * u * bound(u, x) below target; returns the lists
    of T and of tail bounds.  Every x still open steps T together, on one
    (x, window) array per step."""
    import numpy as np

    xs = np.asarray(xs, dtype=float)
    heights, tails = [0.0] * xs.size, [0.0] * xs.size
    limit = 60 * max(1.0, k.Z)
    rows = 32  # x per step: a (rows, 128) window array of 32 kB
    for lo in range(0, xs.size, rows):
        todo = np.arange(lo, min(lo + rows, xs.size))
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
            # margin 2.1: the integrand decays super-exponentially beyond
            done = tail < target
            for i, v in zip(todo[done].tolist(), tail[done].tolist()):
                heights[i], tails[i] = T, v
            todo = todo[~done]
            T += max(0.5, k.Z / 4)
    return heights, tails


def _truncation_height(k: KTestGaussian, bound_fn, target: float) -> tuple[float, float]:
    """_truncation_heights for one bound_fn(u); returns (T, tail bound)."""
    heights, tails = _truncation_heights(k, lambda us, x: bound_fn(us), [0.0], target)
    return heights[0], tails[0]


def bessel_transforms_many(k: KTestGaussian, ts, tail_target: float = 5e-9) -> list[dict]:
    """bessel_transforms at each t of ts, in one pass per sign of t.

    A transform depends on t through its sign and x = 4 pi sqrt|t| alone,
    so each distinct x of a sign is computed once and repeated t get equal
    copies.  One truncation search steps every x at once, and the graded
    u-nodes of all transforms go through the kernels as flat arrays of
    (u, x) pairs (quadrature.gl_sums), each transform's integral np.sum over
    its own slice.  Every value is bit for bit the one a separate call gives.

    Memory: the kernels see at most quadrature.BLOCK = 2^13 u-nodes at a
    time (a transform with more on its own) and cut their own quadrature
    points into blocks of the same size, and the truncation search takes 32
    x at a time, so the temporaries stay within about 4 MB; past that a
    batch grows only with its results, about 1 kB per t.
    """
    import numpy as np
    from scipy.special import jv as _besselj

    from .bessel_kernels import check_node_limits, rj_bound, rj_kernel, wk_bound, wk_kernel
    from .quadrature import gl_from_panels, gl_sums, graded_panels

    ts = [float(t) for t in ts]
    for t in ts:
        if t == 0 or not math.isfinite(t):
            raise ValueError(f"t must be finite and nonzero, got {t}")
    # every sign's truncation heights, u-panels and node limits before any
    # kernel is evaluated, so that a refused input fails early
    sides = []
    for positive in (True, False):
        xs = list(dict.fromkeys(4 * math.pi * math.sqrt(abs(t)) for t in ts if (t > 0) == positive))
        if not xs:
            continue
        heights, tails = _truncation_heights(k, rj_bound if positive else wk_bound, xs, tail_target)
        panels = [
            graded_panels(0.0, T, lambda uu, x=x: 2 * math.asinh((2 * uu + 1) / x) + 0.6, 4)
            for x, T in zip(xs, heights)
        ]
        # the largest node of a transform: the last point of its last panel
        last, _ = gl_from_panels(
            np.array([mid[-1] for mid, _ in panels]), np.array([half[-1] for _, half in panels]), 16
        )
        for x, u_max in zip(xs, last[15::16].tolist()):
            check_node_limits(u_max, x, not positive)
        sides.append((positive, xs, heights, tails, panels))
    records: dict[tuple[bool, float], dict] = {}
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
                records[positive, x] = {"value": cont + disc, "continuous": cont, "discrete": disc, **cert}
            else:
                records[positive, x] = {"value": (4 / math.pi) * total, **cert}
    return [dict(records[t > 0, 4 * math.pi * math.sqrt(abs(t))]) for t in ts]


def bessel_transforms(k: KTestGaussian, t: float, tail_target: float = 5e-9) -> dict:
    """The Kuznetsov transform kcheck(t) for finite t != 0, with certificates.

    t > 0: contour integral of k against J_{2nu} on the spectral axis plus
    the even discrete-series sum; t < 0: the I-Bessel contour integral,
    both folded into manifestly real kernels.  The one-t case of
    bessel_transforms_many.
    """
    return bessel_transforms_many(k, [t], tail_target)[0]


def bessel_tilde(k: KTestGaussian, tail_target: float = 5e-9) -> dict:
    """The scalar transform ktilde with its discrete-series part."""
    import numpy as np

    from .quadrature import gl_panels

    T, tail = _truncation_height(k, lambda u: np.ones_like(u), tail_target)
    us, ws = gl_panels(0.0, T, max(8, int(T)), order=16)
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

    Two passes over the box, with the transforms between them.  The first
    keeps the nonzero moduli c and, for each term (c, unit), the per-place
    keys of the embeddings of w = u r1 r2 / (gamma c^2), together with the
    first embedding seen for each key.  Then one bessel_transforms_many call
    per distinct test function takes the first-seen embeddings of every
    place that has it, and each place reads its own back by its own keys;
    ktilde too is computed once per distinct test function.  So an input
    the transforms refuse fails before any Kloosterman sum.  The second pass
    computes the Kloosterman sums of each c and adds S / N(c) times the
    product of the term's transforms in place order, term after term, as a
    term-by-term walk would.

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
    # gamma: totally positive generator of d^2 (delta^2 works: N(delta^2)>0)
    gamma = K.delta * K.delta
    if not gamma.is_totally_positive():
        gamma = -gamma
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
    moduli = []
    first: list[dict] = [{} for _ in range(K.d)]  # key -> first embedding, per place
    for c in enumerate_in_box(level, [(-box, box)] * K.d):
        if c.is_zero():
            continue
        denominator = gamma * c * c
        unit_keys = []
        for numerator in numerators:
            w = numerator / denominator
            keys = []
            for j, emb in enumerate(w.embeddings()):
                key = round(math.copysign(1, emb) * abs(emb), 18)
                first[j].setdefault(key, emb)
                keys.append(key)
            unit_keys.append(keys)
        moduli.append((c, unit_keys))
    kcheck: list[dict] = [{} for _ in range(K.d)]
    for kj, js in places.items():
        recs = iter(bessel_transforms_many(kj, [t for j in js for t in first[j].values()], tail_target))
        for j in js:
            kcheck[j] = {key: next(recs)["value"] for key in first[j]}
    total = 0.0 + 0j
    for c, unit_keys in moduli:
        nc = abs(float(c.norm()))
        sums = kloosterman_sums([KloostermanQuery(r1, ur2, c) for ur2 in u_r2])
        for S, keys in zip(sums, unit_keys):
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
        "terms": len(moduli) * len(units),
        "transforms": [len(seen) for seen in first],
        "box": box,
        "tail_majorant": tail,
        "ktilde": [td["value"] for td in tildes],
    }
