"""Shifted convolution sums, their Dirichlet series in the convergence
region, the unit fundamental domain, and the amplified second-moment
(Plancherel) experiment.

Only left-hand sides are assembled here: the spectral right-hand sides
would require the full cuspidal spectrum, which is not computable in this
toolkit.  The Eisenstein ingredients live in the eisenstein module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .fields import (
    FieldDesc,
    Ideal,
    RingElement,
    arith_functions,
    enumerate_in_box,
    factor_ideal,
    ideals_of_norm_up_to,
    principal_generator,
)
from .characters import HeckeCharacter, characters_mod
from .quadrature import central_difference
from .spectral import EigenvalueSystem


class SmoothBump:
    """C^infty bump on (a, b): exp(1 - 1/(1 - z^2)), z the affine map to
    (-1, 1); value 0 outside.  Derivatives by central differences with the
    documented step (1e-4 of the support width)."""

    def __init__(self, a: float, b: float):
        if not a < b:
            raise ValueError("need a < b")
        if a < 0 < b or a == 0 or b == 0:
            raise ValueError("support must avoid 0 (weight lives on R^x)")
        self.a, self.b = float(a), float(b)
        self.fd_step = 1e-4 * (b - a)

    def __call__(self, y: float) -> float:
        if not self.a < y < self.b:
            return 0.0
        z = (2 * y - self.a - self.b) / (self.b - self.a)
        return math.exp(1 - 1 / (1 - z * z))

    def derivative(self, order: int) -> Callable[[float], float]:
        return central_difference(self, order, self.fd_step)


class ProductWeight:
    """Product of per-place bumps, a compactly supported weight on K_inf^x."""

    def __init__(self, factors: Sequence[SmoothBump]):
        self.factors = list(factors)
        self.support = [(f.a, f.b) for f in self.factors]

    def __call__(self, y: Sequence[float]) -> float:
        out = 1.0
        for f, yj in zip(self.factors, y):
            out *= f(yj)
            if out == 0.0:
                return 0.0
        return out


@dataclass
class ShiftedQuery:
    """Data of a shifted convolution sum over the ideal lattice y."""

    sys1: EigenvalueSystem
    sys2: EigenvalueSystem
    l1: RingElement
    l2: RingElement
    y: Ideal
    q: RingElement
    Y: tuple[float, ...]
    W1: ProductWeight
    W2: ProductWeight

    def __post_init__(self):
        K = self.l1.field
        if not (self.l1.is_totally_positive() and self.l2.is_totally_positive()):
            raise ValueError("shifts must be totally positive")
        if self.q.is_zero():
            raise ValueError("q must be nonzero")
        if len(self.Y) != K.d:
            raise ValueError("Y must have one entry per place")


def shifted_sum(query: ShiftedQuery) -> complex:
    """Sum over l1 r1 - l2 r2 = q, r's nonzero in y, of
    lambda1(r1 y^-1) conj(lambda2(r2 y^-1)) / sqrt(N(r1 r2 y^-2))
    * W1(l1 r1 / Y) conj(W2(l2 r2 / Y))."""
    K = query.l1.field
    y = query.y
    if not y.contains(query.q):
        return 0.0  # the summation condition is unsatisfiable
    l1e = query.l1.embeddings()
    # r1 box from the support of W1
    box = []
    for j in range(K.d):
        a, b = query.W1.support[j]
        lo = Fraction(a * query.Y[j] / l1e[j]).limit_denominator(10**12)
        hi = Fraction(b * query.Y[j] / l1e[j]).limit_denominator(10**12)
        box.append((min(lo, hi), max(lo, hi)))
    ny = float(y.norm())
    out = 0.0 + 0j
    for r1 in enumerate_in_box(y, box):
        if r1.is_zero():
            continue
        r2 = (query.l1 * r1 - query.q) / query.l2
        if r2.is_zero() or not y.contains(r2):
            continue
        w1 = query.W1([e / Y for e, Y in zip((query.l1 * r1).embeddings(), query.Y)])
        if w1 == 0.0:
            continue
        w2 = query.W2([e / Y for e, Y in zip((query.l2 * r2).embeddings(), query.Y)])
        if w2 == 0.0:
            continue
        I1 = Ideal.principal(r1) * y.inverse()
        I2 = Ideal.principal(r2) * y.inverse()
        lam = query.sys1.lambda_value(I1) * query.sys2.lambda_value(I2).conjugate()
        out += lam / math.sqrt(float(I1.norm() * I2.norm())) * w1 * w2
    return out


def shifted_sum_scalar_oracle(
    sys1: EigenvalueSystem,
    sys2: EigenvalueSystem,
    q: int,
    Y: float,
    W1: SmoothBump,
    W2: SmoothBump,
    l1: int = 1,
    l2: int = 1,
) -> complex:
    """Independent double loop over the rational integers (d = 1 oracle)."""
    K = sys1.field
    out = 0.0 + 0j
    n_hi = int(W1.b * Y / l1) + 1
    for n in range(1, n_hi + 1):
        m2 = l1 * n - q
        if m2 == 0 or m2 % l2:
            continue
        m = m2 // l2
        w = W1(l1 * n / Y) * W2(l2 * m / Y)
        if w == 0.0:
            continue
        lam = (
            sys1.lambda_value(K.ideal(n))
            * sys2.lambda_value(K.ideal(abs(m))).conjugate()
        )
        out += lam / math.sqrt(n * abs(m)) * w
    return out


# ---------------------------------------------------------------------------
# Dirichlet series of the shifted convolution


def dirichlet_D(
    sys1: EigenvalueSystem,
    sys2: EigenvalueSystem,
    l1: RingElement,
    l2: RingElement,
    y: Ideal,
    q: RingElement,
    s: Sequence[complex],
    beta: int,
    trace_height: float = 400.0,
) -> dict:
    """The Dirichlet series of the shifted convolution in its region of
    absolute convergence Re s_j > 1, truncated by trace height with a
    reported tail bound.  beta below the continuation threshold d*66 is
    allowed but flagged."""
    K = l1.field
    d = K.d
    if len(s) != d:
        raise ValueError("s must have one entry per place")
    if any(z.real <= 1 for z in s):
        raise ValueError("evaluation requires Re s_j > 1 (absolute convergence)")
    if beta % 2:
        raise ValueError("beta must be even")
    warn = beta <= d * 66
    if not q.is_totally_positive():
        raise ValueError("q must be totally positive for the positive cone sum")

    def solutions(hmax: float):
        box = []
        for j in range(d):
            box.append((Fraction(0), Fraction(hmax / l1.embeddings()[j]).limit_denominator(10**9)))
        for r1 in enumerate_in_box(y, box, totally_positive=True):
            tr = float((l1 * r1).trace())
            if tr > hmax or tr <= -1e-12:
                continue
            r2 = (l1 * r1 - q) / l2
            if r2.is_zero() or not y.contains(r2):
                continue
            if not r2.is_totally_positive():
                continue
            yield r1, r2, tr

    # one pass over trace <= 4H: the value sums trace <= H; the tail bounds
    # the dyadic shells (H, 2H] and (2H, 4H] by |lambda| <= tau N^theta and
    # extrapolates geometrically with the observed shell decay
    H = trace_height
    y_inv = y.inverse()
    total = 0.0 + 0j
    shell1 = shell2 = 0.0
    for r1, r2, tr in solutions(4 * H):
        I1 = Ideal.principal(r1) * y_inv
        I2 = Ideal.principal(r2) * y_inv
        x = (l1 * r1).embeddings()
        z = (l2 * r2).embeddings()
        nprod = abs(float((l1 * r1 * l2 * r2).norm()))
        if tr <= H:
            out = sys1.lambda_value(I1) * sys2.lambda_value(I2).conjugate()
            out *= nprod ** ((beta - 1) / 2)
            for j in range(d):
                out /= (x[j] + z[j]) ** (s[j] + beta - 1)
            total += out
        if tr > H - 1e-12:
            t1 = arith_functions(I1)[2] * float(I1.norm()) ** sys1.theta
            t2 = arith_functions(I2)[2] * float(I2.norm()) ** sys2.theta
            out = t1 * t2 * nprod ** ((beta - 1) / 2)
            for j in range(d):
                out /= (x[j] + z[j]) ** (s[j].real + beta - 1)
            if tr <= 2 * H:
                shell1 += out
            if tr > 2 * H - 1e-12:
                shell2 += out
    ratio = 0.75 if shell1 == 0 else min(0.75, shell2 / shell1)
    tail = shell1 / (1 - ratio) if shell1 else shell2 / (1 - ratio)
    return {
        "value": total,
        "tail_bound": tail,
        "trace_height": trace_height,
        "beta_warning": warn,
    }


# ---------------------------------------------------------------------------
# fundamental domain for the totally positive unit action


def fd_reduce(K: FieldDesc, y: Sequence[float]) -> tuple[RingElement, list[float]]:
    """Reduce a totally positive vector into the unit fundamental domain.

    Returns (u, u*y) with u in U^+ and the log-coordinates of
    u*y / (N y)^(1/d) inside the half-open fundamental parallelotope.
    """
    y = [float(v) for v in y]
    if any(v <= 0 for v in y):
        raise ValueError("fd_reduce needs totally positive coordinates")
    if K.d == 1:
        return K.one(), y
    u_gen = K.totally_positive_unit_gens()[0]
    le = math.log(u_gen.embeddings()[0])
    z = math.log(y[0]) - (math.log(y[0]) + math.log(y[1])) / 2
    t = z / le
    kfl = math.floor(t)
    u = K.one()
    g = u_gen if kfl < 0 else u_gen.inverse()
    for _ in range(abs(kfl)):
        u = u * g
    emb = u.embeddings()
    return u, [emb[j] * y[j] for j in range(K.d)]


def fd_contains(K: FieldDesc, y: Sequence[float]) -> bool:
    u, _ = fd_reduce(K, y)
    return u == K.one()


def fd_log_coordinate(K: FieldDesc, y: Sequence[float]) -> float:
    """Position in [0, 1) within the fundamental parallelotope (d = 2)."""
    if K.d == 1:
        return 0.0
    u_gen = K.totally_positive_unit_gens()[0]
    le = math.log(u_gen.embeddings()[0])
    z = math.log(y[0]) - (math.log(y[0]) + math.log(y[1])) / 2
    return (z / le) % 1.0


# ---------------------------------------------------------------------------
# amplified second moment (the Plancherel identity experiment)


def _amplifier_primes(K: FieldDesc, q: Ideal, L: float) -> list[RingElement]:
    """Totally positive prime-ideal generators, reduced into F, with norm
    in [L, 2L] and coprime to q."""
    out = []
    for I in ideals_of_norm_up_to(K, int(2 * L)):
        n = int(I.norm())
        if n < L or n > 2 * L or n == 1:
            continue
        fac = factor_ideal(I)
        if len(fac) != 1 or fac[0][1] != 1:
            continue
        if q.norm() > 1 and (I + q).norm() != 1:
            continue
        g = principal_generator(I)
        if not g.is_totally_positive():
            continue  # no totally positive generator exists
        # reduce into the fundamental domain
        u, _ = fd_reduce(K, g.embeddings())
        out.append(u * g)
    return out


def amplified_moment(
    q: Ideal,
    L: float,
    sys: EigenvalueSystem,
    chi: HeckeCharacter,
    V: SmoothBump,
    Y: float,
    y: Optional[Ideal] = None,
) -> dict:
    """Both sides of the amplified-moment rearrangement.

    Side A sums |L_xi|^2 |amplifier(xi)|^2 over all finite characters xi
    mod q; side B is the Plancherel rearrangement phi(q) * sum over
    residues x of |inner sum over r in the class x ell^{-1}|^2.  The two
    are equal as finite sums; the report also isolates the diagonal
    l1 r1 = l2 r2 contribution of side B.
    """
    K = q.field
    if K.h != 1:
        raise ValueError("amplified moment requires h = 1")
    if y is None:
        y = K.unit_ideal()
    ells = _amplifier_primes(K, q, L)
    if not ells:
        raise ValueError(f"no amplifier primes with norm in [{L}, {2*L}]")
    # weighted r-sum support: totally positive r in y, F-reduced, N r <= 2Y
    if K.d == 1:
        B = Fraction(2 * Y).limit_denominator(10**9)
        box = [(Fraction(0), B)]
    else:
        eps_plus = K.totally_positive_unit_gens()[0].embeddings()[0]
        B = Fraction(math.sqrt(2 * Y * eps_plus) + 1).limit_denominator(10**9)
        box = [(Fraction(0), B), (Fraction(0), B)]
    rs = []
    for r in enumerate_in_box(y, box, totally_positive=True):
        w = V(abs(float(r.norm())) / Y)
        if w == 0.0:
            continue
        if K.d == 2 and not fd_contains(K, r.embeddings()):
            continue
        I = Ideal.principal(r) * y.inverse()
        lam = sys.lambda_value(I)
        rs.append((r, lam / math.sqrt(float(I.norm())) * w))
    chars = characters_mod(q)
    rsys = chars[0].structure.rs
    # side A
    chi_fin = chi.finite
    amp_coeffs = []
    for ell in ells:
        cf = 1.0 + 0j
        if chi_fin is not None:
            v = chi_fin(ell)
            cf = v.conjugate() if v != 0 else 0.0
        amp_coeffs.append(cf)
    A = 0.0
    for xi in chars:
        Lxi = sum(w * xi(r) for r, w in rs)
        amp = sum(c * xi(ell) for ell, c in zip(ells, amp_coeffs))
        A += abs(Lxi) ** 2 * abs(amp) ** 2
    # side B via Plancherel: phi(q) * sum_x |c_x|^2,
    # c_x = sum_ell conj(chi)(ell) sum_{r = x ell^{-1} (q)} w(r)
    phi_q = rsys.phi
    cx: dict[tuple, complex] = {}
    for ell, cf in zip(ells, amp_coeffs):
        if cf == 0:
            continue
        for r, w in rs:
            if not rsys.is_unit(r):
                continue  # r not coprime to q contributes zero
            # bucket by x = r * ell mod q  <=>  r = x ell^{-1} (q)
            xclass = rsys.reduce(r * ell).coords()
            cx[xclass] = cx.get(xclass, 0.0 + 0j) + cf * w
    B = phi_q * sum(abs(v) ** 2 for v in cx.values())
    # diagonal l1 r1 = l2 r2 extraction: each product ell*r is formed once,
    # and for every (ell1, ell2, r1) only the r2 with ell2*r2 = ell1*r1 are
    # visited, in the order of rs
    coprime = [rsys.is_unit(r) for r, _ in rs]
    prods = [[ell * r for r, _ in rs] for ell in ells]
    matches = []
    for row in prods:
        where: dict[RingElement, list[int]] = {}
        for k, p in enumerate(row):
            where.setdefault(p, []).append(k)
        matches.append(where)
    diag_val = 0.0
    diag_count = 0
    for c1, row1 in zip(amp_coeffs, prods):
        for c2, where2 in zip(amp_coeffs, matches):
            for k1, (_, w1) in enumerate(rs):
                if not coprime[k1]:
                    continue
                for k2 in where2.get(row1[k1], ()):
                    diag_count += 1
                    diag_val += (c1 * w1 * (c2 * rs[k2][1]).conjugate()).real
    diag_val *= phi_q
    rel = abs(A - B) / max(abs(A), abs(B), 1e-300)
    return {
        "A": A,
        "B": B,
        "relative_difference": rel,
        "n_amplifier_primes": len(ells),
        "n_r_terms": len(rs),
        "diagonal": diag_val,
        "diagonal_count": diag_count,
        "off_diagonal": B - diag_val,
    }


def afe_sum(
    sys: EigenvalueSystem, chi: HeckeCharacter, Y: float, V: SmoothBump
) -> complex:
    """The smoothed central-value sum: sum over integral ideals of
    lambda(m) chi(m) / sqrt(N m) * V(N m / Y); exact finite sum for a
    compactly supported V."""
    K = sys.field
    hi = int(math.floor(V.b * Y))
    if hi < 1:
        return 0.0
    out = 0.0 + 0j
    for m in ideals_of_norm_up_to(K, hi):
        n = float(m.norm())
        w = V(n / Y)
        if w == 0.0:
            continue
        out += sys.lambda_value(m) * chi.eval_on_ideal(m) / math.sqrt(n) * w
    return out
