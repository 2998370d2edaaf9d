"""Kloosterman sums over Q and real quadratic fields (class number 1).

Normal form used throughout, for level element c and r1, r2 integral:

    S(r1, r2; c) = sum over x in (o/(c))^x, x*xbar = 1 mod (c), of
                   psi((r1*x + r2*xbar) / (c*delta)),

where delta is the fixed canonical generator f'(omega) of the different
(1 over Q, sqrt(D) for D = 1 mod 4, 2*sqrt(D) otherwise).  Rescaling
delta or the class-group generator gamma by a unit permutes the family
{S(r1, r2; c)} without changing absolute values, realness, or the
multiplicative structure; every downstream use is through |S|.

Phases are computed as exact integer numerators over one denominator (the
trace pairing is linear in the residue coordinates), so the only floating
point is the final complex exponential; sums are vectorized over the
residue classes.  Which classes are units comes from fields.unit_mask, the
rule the characters use too; each table is kept in a bounded LRU cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import (
    BoundExceeded,
    FieldDesc,
    FieldError,
    Ideal,
    RingElement,
    arith_functions,
    ideals_of_norm_up_to,
    principal_generator,
    unit_mask,
)


@dataclass
class KloostermanQuery:
    """Arguments of a Kloosterman sum in the h = 1 normal form."""

    r1: RingElement
    r2: RingElement
    c: RingElement
    y1: Optional[Ideal] = None
    y2: Optional[Ideal] = None

    def __post_init__(self):
        K = self.c.field
        if K.h != 1:
            raise FieldError("Kloosterman normal form requires class number 1")
        one = K.unit_ideal()
        if self.y1 is None:
            self.y1 = one
        if self.y2 is None:
            self.y2 = one
        if self.y1 != one or self.y2 != one:
            raise NotImplementedError("only y1 = y2 = (1) is supported")
        if self.c.is_zero():
            raise ValueError("modulus must be nonzero")


class _ModulusTable:
    """Invertible residues mod (c) with inverses, as coordinate arrays."""

    def __init__(self, cI: Ideal, bound: int):
        n = int(cI.norm())
        if n > bound:
            raise BoundExceeded(f"norm {n} exceeds bound {bound}")
        K = cI.field
        self.field = K
        self.ideal = cI
        self.a = cI.a
        self.b = cI.b
        self.c2 = cI.c
        # the unit mask is in rows by j; its transpose lists units i-major
        mask = np.frombuffer(unit_mask(cI), np.uint8).reshape(cI.c, cI.a)
        self.xi, self.xj = np.nonzero(mask.T)
        self.phi = len(self.xi)
        self.inv_i, self.inv_j = self._inverses()

    def _mul(self, ai, aj, bi, bj):
        """Coordinatewise product reduced into the HNF cell."""
        K = self.field
        if K.d == 1:
            return (ai * bi) % self.a, aj
        if K.omega_is_half:
            cquarter = (K.D - 1) // 4
            ci = ai * bi + aj * bj * cquarter
            cj = ai * bj + aj * bi + aj * bj
        else:
            ci = ai * bi + aj * bj * K.D
            cj = ai * bj + aj * bi
        # reduce: j mod c2 with borrow b, then i mod a
        k = cj // self.c2
        cj = cj - k * self.c2
        ci = (ci - k * self.b) % self.a
        return ci, cj

    def _inverses(self):
        e = self.phi - 1
        ri = np.zeros_like(self.xi)
        rj = np.zeros_like(self.xj)
        one = self.ideal.reduce(self.field.one())
        ri += one.x
        rj += one.y
        bi, bj = self.xi.copy(), self.xj.copy()
        while e:
            if e & 1:
                ri, rj = self._mul(ri, rj, bi, bj)
            bi, bj = self._mul(bi, bj, bi, bj)
            e >>= 1
        # verify closure: x * x^{-1} = 1
        ci, cj = self._mul(self.xi, self.xj, ri, rj)
        if not (np.all(ci == one.x) and np.all(cj == one.y)):
            raise RuntimeError("inversion table failed to close")
        return ri, rj

    def index_of(self, x: RingElement) -> int:
        xr = self.ideal.reduce(x)
        hits = np.where((self.xi == xr.x) & (self.xj == xr.y))[0]
        if len(hits) != 1:
            raise ValueError(f"{x} is not a unit modulo the table ideal")
        return int(hits[0])

    def inverse_element(self, x: RingElement) -> RingElement:
        k = self.index_of(x)
        return RingElement(self.field, int(self.inv_i[k]), int(self.inv_j[k]))


@functools.lru_cache(maxsize=1024)
def _table(cI: Ideal, bound: int = 10**6) -> _ModulusTable:
    """The table of (c), built once per (c, bound); the norm bound is
    checked whenever a table is built."""
    return _ModulusTable(cI, bound)


def _trace_pair(w: RingElement) -> tuple[tuple[int, int], tuple[int, int]]:
    """(Tr w, Tr(omega*w)) as (numerator, denominator) pairs, so that
    Tr((i + j*omega)*w) = i*Tr w + j*Tr(omega w)."""
    K = w.field
    if K.d == 1:
        return (w.x, w.den), (0, 1)
    # w = (x + y*omega)/den and omega*w = (-n*y + (x + t*y)*omega)/den
    x, y, t = w.x, w.y, K.t_omega
    return (2 * x + t * y, w.den), (-2 * K.n_omega * y + t * (x + t * y), w.den)


def kloosterman_sum(query: KloostermanQuery, bound: int = 10**6) -> complex:
    """S(r1, r2; c) per the module normal form; S = 1 for (c) = (1)."""
    K = query.c.field
    cI = Ideal.principal(query.c)
    if cI.norm() == 1:
        return 1.0 + 0j
    tab = _table(cI, bound)
    w = (query.c * K.delta).inverse()
    traces = _trace_pair(query.r1 * w) + _trace_pair(query.r2 * w)
    # the least common denominator of the four traces in lowest terms
    den = math.lcm(*(d // math.gcd(n, d) for n, d in traces))
    n1a, n1b, n2a, n2b = (n * den // d for n, d in traces)
    num = (
        (tab.xi * n1a + tab.xj * n1b) % den
        + (tab.inv_i * n2a + tab.inv_j * n2b) % den
    )
    return complex(np.exp(2j * np.pi * (num % den) / den).sum())


def kloosterman_sum_crt(
    query: KloostermanQuery, c1: RingElement, c2: RingElement, bound: int = 10**6
) -> complex:
    """S(r1, r2; c1*c2) via twisted multiplicativity for coprime c1, c2:

        S(r1, r2; c1 c2) = S(r1 * cbar2^2, r2; c1) * S(r1 * cbar1^2, r2; c2)

    with cbar_i the inverse of c_i modulo the other factor.
    """
    K = query.c.field
    I1, I2 = Ideal.principal(c1), Ideal.principal(c2)
    if (I1 + I2).norm() != 1:
        raise ValueError("factors must be coprime")
    if I1 * I2 != Ideal.principal(query.c):
        raise ValueError("c1*c2 must generate (c)")
    out = 1.0 + 0j
    for cf, other, I in ((c1, c2, I1), (c2, c1, I2)):
        if I.norm() == 1:
            continue
        tab = _table(I, bound)
        obar = tab.inverse_element(other)
        sub = KloostermanQuery(query.r1 * obar * obar, query.r2, cf)
        out *= kloosterman_sum(sub, bound)
    return out


def weil_margin(query: KloostermanQuery, bound: int = 10**6) -> dict:
    """|S| / (tau((c)) * sqrt(N gcd((r1),(r2),(c))) * sqrt(N (c))) with parts."""
    K = query.c.field
    cI = Ideal.principal(query.c)
    S = kloosterman_sum(query, bound)
    nc = int(cI.norm())
    if nc == 1:
        return {"S": S, "abs_S": 1.0, "tau": 1, "gcd_norm": 1, "c_norm": 1, "margin": 1.0}
    _, _, tau = arith_functions(cI)
    g = cI
    for r in (query.r1, query.r2):
        if not r.is_zero():
            g = g + Ideal.principal(r)
    gn = int(g.norm())
    margin = abs(S) / (tau * math.sqrt(gn) * math.sqrt(nc))
    return {
        "S": S,
        "abs_S": abs(S),
        "tau": tau,
        "gcd_norm": gn,
        "c_norm": nc,
        "margin": margin,
    }


def modulus_generators(K: FieldDesc, norm_max: int) -> list[RingElement]:
    """Canonical generators of all nonzero ideals of norm <= norm_max."""
    gens = []
    for I in ideals_of_norm_up_to(K, norm_max):
        if I.norm() == 1:
            continue
        gens.append(principal_generator(I))
    return gens


def weil_sweep(K: FieldDesc, cmax: int, r_values=(1, 2, 3), bound: int = 10**6):
    """Margins for all moduli of norm <= cmax and r1, r2 in r_values.

    Yields dicts (one per (c, r1, r2)); the heavy tables are shared
    across the nine r-pairs for each modulus.
    """
    rs = [RingElement(K, r) for r in r_values]
    for c in modulus_generators(K, cmax):
        for r1 in rs:
            for r2 in rs:
                rec = weil_margin(KloostermanQuery(r1, r2, c), bound)
                rec["c"] = c
                rec["r1"], rec["r2"] = r1, r2
                yield rec
