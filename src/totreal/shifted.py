"""Shifted convolution sums, their Dirichlet series in the convergence
region, the unit fundamental domain, and the amplified second-moment
(Plancherel) experiment.

Both shifted sums walk y once (_walk: one enumerate_in_box call over a box
pushed outward past its float rounding) and decide exactly which points
count: shifted_sum by its weights, dirichlet_D by the exact trace, at which
enumerate_in_box stops each lattice row (trace_cap), so the walk covers the
simplex trace(l1 r1) <= 4H and not its bounding box.  The walk makes
u = l1 r1 and w = u - q = l2 r2 once per point; both sums read the
embeddings, the trace and the norm N(u)N(w) from them, and the ideals
(r1) and (r2) come from Ideal.principal in closed form, with no lattice HNF
per point.

Only left-hand sides are assembled here: the spectral right-hand sides
would require the full cuspidal spectrum, which is not computable in this
toolkit.  The Eisenstein ingredients live in the eisenstein module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import add, mod, mul
from typing import Sequence

from .fields import (
    FieldDesc,
    Ideal,
    RingElement,
    enumerate_in_box,
    factor_ideal,
    ideals_of_norm_up_to,
    principal_generator,
)
from .characters import HeckeCharacter, UnitGroupStructure
from .spectral import EigenvalueSystem


class SmoothBump:
    """C^infty bump on (a, b): exp(1 - 1/(1 - z^2)), z the affine map to
    (-1, 1); value 0 outside."""

    def __init__(self, a: float, b: float):
        if not a < b:
            raise ValueError("need a < b")
        if a < 0 < b or a == 0 or b == 0:
            raise ValueError("support must avoid 0 (weight lives on R^x)")
        self.a, self.b = float(a), float(b)

    def __call__(self, y: float) -> float:
        if not self.a < y < self.b:
            return 0.0
        z = (2 * y - self.a - self.b) / (self.b - self.a)
        return math.exp(1 - 1 / (1 - z * z))


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
        if not all(math.isfinite(Yj) and Yj > 0 for Yj in self.Y):
            raise ValueError(f"Y must be finite and > 0 at every place, got {self.Y}")


def _walk(l1, l2, y, q, bounds, totally_positive=False, trace_cap=None):
    """(r1, r2, u, w) with r1, r2 nonzero in y, u = l1 r1, w = u - q = l2 r2
    and r2 totally positive if asked, for every r1 of y with sigma_j(l1 r1)
    in bounds[j] (and trace(l1 r1) <= trace_cap if given, decided exactly),
    in the (a, b) order of one enumerate_in_box call.  l1 and l2 are
    totally positive, so r2 is in y exactly when w is in l2*y, and totally
    positive exactly when w is: r2 is made only for the points yielded.
    The r1 box is pushed out by 2^-30 of its size, far above the error of
    its float quotient by sigma_j(l1) > 0, so some r1 just outside come
    too: callers decide exactly."""
    box = []
    for (lo, hi), e in zip(bounds, l1.embeddings()):
        lo, hi = lo / e, hi / e
        box.append((lo - abs(lo) * 2**-30, hi + abs(hi) * 2**-30))
    cap = None if trace_cap is None else (l1, trace_cap)
    l2y, l2_inv, minus_q = y * l2, l2.inverse(), -q
    # a shift 1, the CLI's, costs no product
    one = l1.field.one()
    scale1, scale2 = l1 != one, l2 != one
    for r1 in enumerate_in_box(y, box, trace_cap=cap):
        if r1.is_zero():
            continue
        u = l1 * r1 if scale1 else r1
        w = u + minus_q
        if w.is_zero() or not l2y.contains(w):
            continue
        if not totally_positive or w.is_totally_positive():
            yield r1, w * l2_inv if scale2 else w, u, w


def shifted_sum(query: ShiftedQuery) -> complex:
    """Sum over l1 r1 - l2 r2 = q, r's nonzero in y, of
    lambda1(r1 y^-1) conj(lambda2(r2 y^-1)) / sqrt(N(r1 r2 y^-2))
    * W1(l1 r1 / Y) conj(W2(l2 r2 / Y)); the weights decide which r1 of the
    walk over the support of W1 count."""
    y, Y = query.y, query.Y
    if not y.contains(query.q):
        return 0.0  # the summation condition is unsatisfiable
    y_inv = y.inverse()
    bounds = [(a * Yj, b * Yj) for (a, b), Yj in zip(query.W1.support, Y)]
    out = 0.0 + 0j
    for r1, r2, u, w in _walk(query.l1, query.l2, y, query.q, bounds):
        w1 = query.W1([e / Yj for e, Yj in zip(u.embeddings(), Y)])
        if w1 == 0.0:
            continue
        w2 = query.W2([e / Yj for e, Yj in zip(w.embeddings(), Y)])
        if w2 == 0.0:
            continue
        I1 = Ideal.principal(r1) * y_inv
        I2 = Ideal.principal(r2) * y_inv
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
    allowed but flagged; a beta whose terms leave the float range is
    refused."""
    d = l1.field.d
    if len(s) != d:
        raise ValueError("s must have one entry per place")
    if not all(map(cmath.isfinite, s)):
        raise ValueError(f"s must be finite at every place, got {list(s)}")
    if any(z.real <= 1 for z in s):
        raise ValueError("evaluation requires Re s_j > 1 (absolute convergence)")
    if beta % 2:
        raise ValueError("beta must be even")
    warn = beta <= d * 66
    if not (l1.is_totally_positive() and l2.is_totally_positive()):
        raise ValueError("shifts must be totally positive")
    if not q.is_totally_positive():
        raise ValueError("q must be totally positive for the positive cone sum")
    if not (math.isfinite(trace_height) and trace_height > 0):
        raise ValueError(f"trace height must be finite and > 0, got {trace_height}")
    H = trace_height
    # one walk over the simplex trace(l1 r1) <= 4H, each row cut at the
    # exact trace: the value sums trace <= H; the tail bounds the shells
    # [H, 2H] and [2H, 4H] by |lambda| <= tau N^theta and extrapolates with
    # the observed shell decay
    y_inv = y.inverse()
    total = 0.0 + 0j
    shell1 = shell2 = 0.0
    try:
        walk = _walk(l1, l2, y, q, [(0, 4 * H)] * d, totally_positive=True, trace_cap=4 * H)
        for r1, r2, u, w in walk:
            tr = u.trace()
            I1 = Ideal.principal(r1) * y_inv
            I2 = Ideal.principal(r2) * y_inv
            x = u.embeddings()
            z = w.embeddings()
            nprod = abs(float(u.norm() * w.norm()))
            if tr <= H:
                out = sys1.lambda_value(I1) * sys2.lambda_value(I2).conjugate()
                out *= nprod ** ((beta - 1) / 2)
                for j in range(d):
                    out /= (x[j] + z[j]) ** (s[j] + beta - 1)
                total += out
            if tr >= H:
                t1 = _tau(I1) * float(I1.norm()) ** sys1.theta
                t2 = _tau(I2) * float(I2.norm()) ** sys2.theta
                out = t1 * t2 * nprod ** ((beta - 1) / 2)
                for j in range(d):
                    out /= (x[j] + z[j]) ** (s[j].real + beta - 1)
                if tr <= 2 * H:
                    shell1 += out
                if tr >= 2 * H:
                    shell2 += out
        ratio = 0.75 if shell1 == 0 else min(0.75, shell2 / shell1)
        tail = shell1 / (1 - ratio) if shell1 else shell2 / (1 - ratio)
    except (OverflowError, ZeroDivisionError):
        tail = math.inf
    if not all(map(math.isfinite, (total.real, total.imag, shell1, shell2, tail))):
        raise ValueError(f"beta = {beta} takes the terms of the series out of the float range")
    return {"value": total, "tail_bound": tail, "trace_height": trace_height,
            "beta_warning": warn}


def _tau(I: Ideal) -> int:
    """The number of integral divisors of an integral ideal."""
    tau = 1
    for _, e in factor_ideal(I):
        tau *= e + 1
    return tau


# ---------------------------------------------------------------------------
# fundamental domain for the totally positive unit action


def _fd_position(K: FieldDesc, y: Sequence[float]) -> float:
    """t = z / log eps_+, z the first log-coordinate of y / (N y)^(1/d): the
    unit eps_+^-k moves t to t - k, so y lies in the fundamental domain
    exactly when floor(t) = 0 (t = 0 for d = 1)."""
    if any(v <= 0 for v in y):
        raise ValueError("the unit fundamental domain needs totally positive coordinates")
    if K.d == 1:
        return 0.0
    u_gen = K.totally_positive_unit_gens()[0]
    le = math.log(u_gen.embeddings()[0])
    z = math.log(y[0]) - (math.log(y[0]) + math.log(y[1])) / 2
    return z / le


def fd_reduce(K: FieldDesc, y: Sequence[float]) -> tuple[RingElement, list[float]]:
    """Reduce a totally positive vector into the unit fundamental domain.

    Returns (u, u*y) with u in U^+ and the log-coordinates of
    u*y / (N y)^(1/d) inside the half-open fundamental parallelotope.
    """
    y = [float(v) for v in y]
    kfl = math.floor(_fd_position(K, y))
    u = K.one()
    if kfl == 0:
        return u, y
    u_gen = K.totally_positive_unit_gens()[0]
    g = u_gen if kfl < 0 else u_gen.inverse()
    for _ in range(abs(kfl)):
        u = u * g
    emb = u.embeddings()
    return u, [emb[j] * y[j] for j in range(K.d)]


def fd_log_coordinate(K: FieldDesc, y: Sequence[float]) -> float:
    """Position in [0, 1) within the fundamental parallelotope (d = 2)."""
    return _fd_position(K, y) % 1.0


# ---------------------------------------------------------------------------
# amplified second moment (the Plancherel identity experiment)


def _reduced_generators(K: FieldDesc, lo: float, hi: float):
    """(I, r) for each integral ideal I with lo <= N(I) <= hi that has a
    totally positive generator, r that generator reduced into F by fd_reduce:
    one r per class of totally positive elements modulo U^+, in the order
    of ideals_of_norm_up_to."""
    for I in ideals_of_norm_up_to(K, math.floor(hi)):
        if I.norm() < lo:
            continue
        g = principal_generator(I)
        if not g.is_totally_positive():
            continue  # no totally positive generator exists
        u, _ = fd_reduce(K, g.embeddings())
        yield I, u * g


def _amplifier_primes(K: FieldDesc, q: Ideal, L: float) -> list[RingElement]:
    """Totally positive prime-ideal generators, reduced into F, with norm
    in [L, 2L] and coprime to q."""
    out = []
    for I, r in _reduced_generators(K, L, 2 * L):
        fac = factor_ideal(I)
        if len(fac) != 1 or fac[0][1] != 1:
            continue
        if q.norm() > 1 and (I + q).norm() != 1:
            continue
        out.append(r)
    return out


# characters per block of side A: its running sums are held one block at a
# time
SIDE_A_BLOCK = 1 << 12


def _block_sums(terms, block: range, quotients: list[list[int]], table: list[complex]) -> list:
    """For each character of a block of characters_mod order, the sum over
    (w, s) in terms of w * xi(u), u the unit of shifts s, in the order of
    terms and from int 0 as sum() starts; s None (u not a unit) adds w * 0.0.

    The character of index x has exponent (x // P_i) mod n_i on the cyclic
    factor i of order n_i, P_i the product of the orders before it, so
    xi(u) = table[sum_i (x // P_i) * s_i mod L]: s_i is a multiple of L/n_i,
    and the reduction mod n_i can be left to the one mod L.  x // P_0 = x
    walks the block in steps of s_0; quotients holds x // P_i for i >= 1."""
    L = len(table)
    acc = [0] * len(block)
    for w, s in terms:
        if s is None:
            acc = list(map(add, acc, repeat(w * 0.0)))
            continue
        s0 = s[0] if s else 0
        k = range(block.start * s0, block.stop * s0, s0) if s0 else repeat(0, len(block))
        for si, x in zip(s[1:], quotients):
            if si:
                k = map(add, k, map(mul, x, repeat(si)))
        # the indices first, then the table reads in a loop of their own: at
        # L near 10^6 the reads are cache misses, and a short loop overlaps them
        ks = list(map(mod, k, repeat(L)))
        values = [table[i] for i in ks]
        acc = list(map(add, acc, map(mul, repeat(w), values)))
    return acc


def _side_a(st: UnitGroupStructure, r_terms, amp_terms) -> float:
    """sum over the characters xi mod q, in characters_mod order, of
    |L_xi|^2 |amp(xi)|^2, L_xi the sum of w * xi(r) over (w, dlog of r) in
    r_terms and amp(xi) that of c * xi(ell) over amp_terms.

    Every value is some e(k/L), L the exponent of the group, read from one
    table filled by FiniteCharacter.value_at's expression; each sum adds its
    terms in order (_block_sums), and A adds the characters in order,
    SIDE_A_BLOCK of them at a time, so A has the bits of the sum over
    characters_mod(q) with value_at, in O(SIDE_A_BLOCK + L) memory."""
    L = st.exponent
    table = [cmath.exp(2j * cmath.pi * (k / L)) for k in range(L)]

    def shifts(terms):
        return [(w, None if v is None else [vi * (L // n) for vi, n in zip(v, st.orders)])
                for w, v in terms]

    r_terms, amp_terms = shifts(r_terms), shifts(amp_terms)
    # P_i for the factors after the first
    strides = list(accumulate(st.orders[:-1], mul))
    A = 0.0
    for start in range(0, st.order, SIDE_A_BLOCK):
        block = range(start, min(start + SIDE_A_BLOCK, st.order))
        quotients = [[x // p for x in block] for p in strides]
        r_sums = _block_sums(r_terms, block, quotients, table)
        amp_sums = _block_sums(amp_terms, block, quotients, table)
        for Lxi, amp in zip(r_sums, amp_sums):
            A += abs(Lxi) ** 2 * abs(amp) ** 2
    return A


def amplified_moment(
    q: Ideal,
    L: float,
    sys: EigenvalueSystem,
    chi: HeckeCharacter,
    V: SmoothBump,
    Y: float,
) -> dict:
    """Both sides of the amplified-moment rearrangement.

    The r-sum runs over the totally positive r modulo U^+, one term per
    ideal (r) in the support of V(N(r)/Y), with r the generator reduced
    into F (_reduced_generators) and weight V(N(r)/Y) lambda(r)/sqrt(N(r)).
    Side A sums |L_xi|^2 |amplifier(xi)|^2 over all finite characters xi
    mod q; side B is the Plancherel rearrangement phi(q) * sum over
    residues x of |inner sum over r in the class x ell^{-1}|^2.  The two
    are equal as finite sums; the report also isolates the diagonal
    l1 r1 = l2 r2 contribution of side B.

    Side A makes no character objects (_side_a): it reads every value from
    one table of e(k/L), k < L, the exponent L of (o/q)^x, and walks the
    characters as exponent vectors, SIDE_A_BLOCK at a time, adding each
    sum's terms in order, so A has the bits of the sum over
    characters_mod(q) with FiniteCharacter.value_at.  Side B buckets r by
    the class of r * ell, a product of class numbers
    (UnitGroupStructure.mul).  Side A costs phi(q) times the number of r
    and ell in table reads; at q near 10^6 those reads miss the cache and
    side A is most of the time, the structure of (o/q)^x most of the memory
    (README).
    """
    for name, size in (("L", L), ("Y", Y)):
        if not (math.isfinite(size) and size > 0):
            raise ValueError(f"{name} must be finite and > 0, got {size}")
    K = q.field
    if K.h != 1:
        raise ValueError("amplified moment requires h = 1")
    ells = _amplifier_primes(K, q, L)
    if not ells:
        raise ValueError(f"no amplifier primes with norm in [{L}, {2*L}]")
    rs = []
    for I, r in _reduced_generators(K, V.a * Y, V.b * Y):
        n = float(I.norm())
        w = V(n / Y)
        if w == 0.0:
            continue
        rs.append((r, sys.lambda_value(I) / math.sqrt(n) * w))
    st = UnitGroupStructure(q)
    # the class number and exponent vector of each r and each ell mod q,
    # None off the units
    r_classes = [st.index(r) for r, _ in rs]
    ell_classes = [st.index(ell) for ell in ells]
    r_logs = [st.dlogs[k] for k in r_classes]
    ell_logs = [st.dlogs[k] for k in ell_classes]
    coprime = [w is not None for w in r_logs]
    # side A
    chi_fin = chi.finite
    amp_coeffs = []
    for ell in ells:
        cf = 1.0 + 0j
        if chi_fin is not None:
            v = chi_fin(ell)
            cf = v.conjugate() if v != 0 else 0.0
        amp_coeffs.append(cf)
    A = _side_a(st, [(w, v) for (_, w), v in zip(rs, r_logs)], list(zip(amp_coeffs, ell_logs)))
    # side B via Plancherel: phi(q) * sum_x |c_x|^2,
    # c_x = sum_ell conj(chi)(ell) sum_{r = x ell^{-1} (q)} w(r)
    phi_q = st.order
    cx: dict[int, complex] = {}
    for kl, cf in zip(ell_classes, amp_coeffs):
        if cf == 0:
            continue
        for (_, w), kr, unit in zip(rs, r_classes, coprime):
            if not unit:
                continue  # r not coprime to q contributes zero
            # bucket by the class x of r * ell mod q  <=>  r = x ell^{-1} (q)
            x = st.mul(kr, kl)
            cx[x] = cx.get(x, 0.0 + 0j) + cf * w
    B = phi_q * sum(abs(v) ** 2 for v in cx.values())
    # diagonal l1 r1 = l2 r2 extraction: each product ell*r is formed once,
    # and for every (ell1, ell2, r1) only the r2 with ell2*r2 = ell1*r1 are
    # visited, in the order of rs
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
    if not (math.isfinite(Y) and Y > 0):
        raise ValueError(f"Y must be finite and > 0, got {Y}")
    K = sys.field
    out = 0.0 + 0j
    for m in ideals_of_norm_up_to(K, int(math.floor(V.b * Y))):
        n = float(m.norm())
        w = V(n / Y)
        if w == 0.0:
            continue
        out += sys.lambda_value(m) * chi.eval_on_ideal(m) / math.sqrt(n) * w
    return out
