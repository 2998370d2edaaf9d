"""Kloosterman sums over Q and real quadratic fields (class number 1).

Normal form used throughout, for level element c and r1, r2 integral:

    S(r1, r2; c) = sum over x in (o/(c))^x, x*xbar = 1 mod (c), of
                   psi((r1*x + r2*xbar) / (c*delta)),

where delta is the fixed canonical generator f'(omega) = 2*omega - t of the
different (1 over Q).  Rescaling delta or the class-group generator gamma by
a unit permutes the family {S(r1, r2; c)} without changing absolute values,
realness, or the multiplicative structure; every downstream use is through
|S|.

Phases are computed as exact integer numerators over one denominator (the
trace pairing is linear in the residue coordinates), so the only floating
point is the final complex exponential.  All sums of one modulus go through
one phase kernel: a (pairs x residues) array of numerators, one exponential
and one row-wise sum, each row bit-identical to a one-pair call.  The
sweep makes one pass per modulus: its ideal, residue table, (c*delta)^{-1},
tau and the gcds with each r are made once and shared by all its pairs.
Which classes are units comes from fields.unit_mask, the rule the
characters use too; each table is kept in a bounded LRU cache.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

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

    def __post_init__(self):
        if self.c.field.h != 1:
            raise FieldError("Kloosterman normal form requires class number 1")
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
        """Coordinatewise product reduced into the HNF cell; omega^2 = t*omega - n."""
        t, n = self.field.t_omega, self.field.n_omega
        ajbj = aj * bj
        ci = ai * bi - n * ajbj
        cj = ai * bj + aj * bi + t * ajbj
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


def _phase_sums(tab: _ModulusTable, pairs) -> list[complex]:
    """S for each pair (a, b) = (r1*w, r2*w), w = (c*delta)^{-1}: the sum
    over the table's units x of exp(2 pi i Tr(a*x + b*xbar)).

    Each pair gives one row of a (len(pairs) x phi) array of exact phase
    numerators over its own denominator; one exponential and one row-wise
    sum serve all rows, and each row is the same sum as for a single pair.
    """
    rows = []
    for a, b in pairs:
        traces = _trace_pair(a) + _trace_pair(b)
        # the least common denominator of the four traces in lowest terms
        den = math.lcm(*(d // math.gcd(n, d) for n, d in traces))
        # only the numerators mod den matter: reduced here in Python ints, a
        # large r1 or r2 neither wraps nor overflows the int64 products
        rows.append((den,) + tuple(n * den // d % den for n, d in traces))
    # explicit int64: an oversize denominator raises instead of making objects
    den, n1a, n1b, n2a, n2b = np.array(rows, dtype=np.int64).T[:, :, None]
    num = (
        (tab.xi * n1a + tab.xj * n1b) % den
        + (tab.inv_i * n2a + tab.inv_j * n2b) % den
    )
    return np.exp(2j * np.pi * (num % den) / den).sum(axis=1).tolist()


def kloosterman_sums(queries: list[KloostermanQuery], bound: int = 10**6) -> list[complex]:
    """S(r1, r2; c) for queries that share one modulus c, from one table and
    one phase array; S = 1 for (c) = (1)."""
    c = queries[0].c
    if any(q.c != c for q in queries):
        raise ValueError("queries must share one modulus")
    cI = Ideal.principal(c)
    if cI.norm() == 1:
        return [1.0 + 0j] * len(queries)
    w = (c * c.field.delta).inverse()
    return _phase_sums(_table(cI, bound), [(q.r1 * w, q.r2 * w) for q in queries])


def kloosterman_sum(query: KloostermanQuery, bound: int = 10**6) -> complex:
    """S(r1, r2; c) per the module normal form; S = 1 for (c) = (1)."""
    return kloosterman_sums([query], bound)[0]


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


def _weil_records(cI: Ideal, c: RingElement, rs, pairs, bound: int):
    """Weil-margin records of S(rs[i], rs[j]; c) for each (i, j) in pairs:

        margin = |S| / (tau((c)) * sqrt(N gcd((r1),(r2),(c))) * sqrt(N (c))).

    The table, w = (c*delta)^{-1}, each r*w, tau and each (c) + (r) are made
    once; a record costs one ideal gcd and the division.
    """
    nc = int(cI.norm())
    if nc == 1:
        for _ in pairs:
            yield {"S": 1.0 + 0j, "abs_S": 1.0, "tau": 1, "gcd_norm": 1, "c_norm": 1, "margin": 1.0}
        return
    tab = _table(cI, bound)
    w = (c * c.field.delta).inverse()
    rw = [r * w for r in rs]
    _, _, tau = arith_functions(cI)
    # r = 0 adds nothing to the gcd
    gs = [cI if r.is_zero() else cI + Ideal.principal(r) for r in rs]
    sums = _phase_sums(tab, [(rw[i], rw[j]) for i, j in pairs])
    for (i, j), S in zip(pairs, sums):
        gn = int((gs[i] + gs[j]).norm())
        yield {
            "S": S,
            "abs_S": abs(S),
            "tau": tau,
            "gcd_norm": gn,
            "c_norm": nc,
            "margin": abs(S) / (tau * math.sqrt(gn) * math.sqrt(nc)),
        }


def weil_margin(query: KloostermanQuery, bound: int = 10**6) -> dict:
    """|S| / (tau((c)) * sqrt(N gcd((r1),(r2),(c))) * sqrt(N (c))) with parts."""
    cI = Ideal.principal(query.c)
    return next(_weil_records(cI, query.c, [query.r1, query.r2], [(0, 1)], bound))


def weil_sweep(K: FieldDesc, cmax: int, r_values=(1, 2, 3), bound: int = 10**6):
    """Margins for all moduli of norm <= cmax and r1, r2 in r_values.

    Yields dicts (one per (c, r1, r2), r1-major), one modulus at a time:
    the modulus's exact work is shared by its pairs and their sums come
    from one phase array.
    """
    rs = [RingElement(K, r) for r in r_values]
    pairs = [(i, j) for i in range(len(rs)) for j in range(len(rs))]
    for cI in ideals_of_norm_up_to(K, cmax):
        if cI.norm() == 1:
            continue
        c = principal_generator(cI)
        for (i, j), rec in zip(pairs, _weil_records(cI, c, rs, pairs, bound)):
            rec["c"] = c
            rec["r1"], rec["r2"] = rs[i], rs[j]
            yield rec
