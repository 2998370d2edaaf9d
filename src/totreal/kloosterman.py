"""Kloosterman sums over Q and real quadratic fields (class number 1).

Normal form used throughout, for level element c and r1, r2 integral:

    S(r1, r2; c) = sum over x in (o/(c))^x, x*xbar = 1 mod (c), of
                   e(Tr((r1*x + r2*xbar) / (c*delta))),

where delta is the fixed canonical generator f'(omega) = 2*omega - t of the
different (1 over Q).  Rescaling delta or the class-group generator gamma by
a unit permutes the family {S(r1, r2; c)} without changing absolute values,
realness, or the multiplicative structure; every downstream use is through
|S|.

Phases are computed as exact integer numerators k over one denominator den
(the trace pairing is linear in the residue coordinates), so the only
floating point is the complex exponential e(k/den).  For integral r1, r2,
den divides the least positive integer m in (c), which divides N(c).  All
sums of one modulus c go through one phase kernel: a (pairs x residues)
array of numerators, one table of e(k/den), k < den, for each distinct den
of the call, and one row-wise sum of table entries, each row bit-identical
to a one-pair call and to its exponentials taken one by one.  A table
costs den exponentials where a row has phi(c) residues, so the worst call
is a single row with den = m well above phi(c): m/phi(c) is at most the
product of p/(p - 1) over the primes p | m, 5.54 for N(c) <= 10^6.
kloosterman_sums takes queries over any moduli of one field and returns S
in query order, one phase array per distinct c, its tables built run by
run.

A modulus's residue table lists the units x of o/(c) and their inverses as
int32 coordinate arrays (every coordinate is below N(c) <= 10^6).  Where
the HNF (a, b, c) of (c) has c = 1 -- every modulus over Q, and most over
Q(sqrt D) -- o/(c) is Z/a and a class is one integer i mod a: the table
keeps i and i^-1 only, 8 bytes a residue, and its products, inversion and
phase numerators carry no second coordinate.  Where c > 1 it keeps both
coordinates of x and x^-1, 16 bytes a residue.  Tables are built many
moduli at a time, those with c = 1 and those with c > 1 apart: the units
of a group of ideals (fields.unit_mask, the rule the characters use too,
which also refuses a modulus of norm above fields.MAX_BOX_POINTS) are laid
end to end, one masked square-and-multiply x -> x^(phi - 1) inverts them
all, and the result is cut back into one table per ideal.  One modulus is
the group of one.  The norms in a group sum to at most GROUP_RESIDUES (a
larger modulus is a group alone), and the tables are kept in a cache keyed
by ideal and bounded by TABLE_CACHE_RESIDUES = 2^18 residues (units) in
all, so at most 4 MB; a table of more residues is returned but never
kept.  The cache is private to this module, whose callers pass queries,
never tables.  The sweep makes its tables group by group and then one pass
per modulus: its (c*delta)^{-1} and tau are made once and shared by all
its pairs.  The gcd (r1) + (r2) of each pair is made once per sweep, and
its sum with (c) once per modulus.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .fields import (
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
        if not (self.r1.is_integral() and self.r2.is_integral()):
            raise ValueError("r1 and r2 must be integral")


class _ModulusTable:
    """Invertible residues mod (c), i-major, and their inverses, as int32
    coordinate arrays; made by _build_tables.  Where the HNF of (c) has
    c = 1, o/(c) is Z/a and every class is an integer i: xj and inv_j are
    None."""

    __slots__ = ("field", "ideal", "xi", "xj", "phi", "inv_i", "inv_j")

    def __init__(self, cI: Ideal, xi, xj, inv_i, inv_j):
        self.field = cI.field
        self.ideal = cI
        self.xi, self.xj = xi, xj
        self.phi = len(xi)
        self.inv_i, self.inv_j = inv_i, inv_j

    def index_of(self, x: RingElement) -> int:
        xr = self.ideal.reduce(x)
        hit = self.xi == xr.x
        if self.xj is not None:
            hit &= self.xj == xr.y
        hits = np.flatnonzero(hit)
        if len(hits) != 1:
            raise ValueError(f"{x} is not a unit modulo the table ideal")
        return int(hits[0])

    def inverse_element(self, x: RingElement) -> RingElement:
        k = self.index_of(x)
        j = 0 if self.inv_j is None else int(self.inv_j[k])
        return RingElement(self.field, int(self.inv_i[k]), j)


# residues inverted together: a group of moduli whose norms sum to at most
# GROUP_RESIDUES (a modulus of larger norm alone) shares one array pass
GROUP_RESIDUES = 1 << 14
# the bound of the table cache in residues (units of o/(c)), at 8 bytes a
# residue where c = 1 and 16 where c > 1, so at most 4 MB; it keeps the most
# recently used tables, and a table of more residues is never kept
TABLE_CACHE_RESIDUES = 1 << 18


class _TableCache(OrderedDict):
    """Tables by ideal, least recently used first, and the residues they
    hold in all; _tables alone adds and drops tables."""

    def __init__(self):
        super().__init__()
        self.residues = 0

    def clear(self):
        super().clear()
        self.residues = 0


_TABLES = _TableCache()


def _groups(ideals):
    """Consecutive runs of the ideals whose norms sum to at most
    GROUP_RESIDUES; an ideal of larger norm makes a run alone."""
    group, size = [], 0
    for I in ideals:
        n = I.norm()
        if group and size + n > GROUP_RESIDUES:
            yield group
            group, size = [], 0
        group.append(I)
        size += n
    if group:
        yield group


def _build_tables(ideals) -> list[_ModulusTable]:
    """The tables of integral ideals of one field, from one array pass.

    Either every ideal has HNF c = 1 or none has.  The units of every ideal
    (fields.unit_mask, which refuses an oversize ring before any class is
    made) are laid end to end.  Each residue x carries its ideal's HNF cell
    (a, b, c) and the exponent e = phi - 1, so x^-1 = x^e comes from one
    square-and-multiply over all of them, from the top bit of the largest e
    down: at bit k every power r is squared, and r becomes r*x where e has
    bit k (r stays 1 through the leading zero bits of a smaller e).  Where
    c = 1 a residue is one integer i and a product is i*i' mod a.  The
    inverses are checked by x * x^-1 = 1 once, then cut back into one int32
    table per ideal.
    """
    K = ideals[0].field
    t, n = K.t_omega, K.n_omega
    flat = ideals[0].c == 1
    units = []
    for I in ideals:
        mask = np.frombuffer(unit_mask(I), np.uint8)
        # the unit mask is in rows by j; its transpose lists units i-major
        units.append((np.flatnonzero(mask),) if flat else np.nonzero(mask.reshape(I.c, I.a).T))
    phis = [len(u[0]) for u in units]
    x = [np.concatenate(column) for column in zip(*units)]
    # a column the whole group shares stays a scalar (numpy divides by one
    # fastest); cells and exponents are below MAX_BOX_POINTS, so int32
    cells = [(I.a, I.b, I.c, phi - 1) for I, phi in zip(ideals, phis)]
    a, b, c, e = (
        np.int64(v[0]) if len(set(v)) == 1 else np.repeat(np.array(v, np.int32), phis)
        for v in zip(*cells)
    )

    def mul(u, v):
        """Products reduced into each residue's HNF cell: i*i' mod a where
        c = 1, else by omega^2 = t*omega - n.  In place where it can be, so
        that a group makes few temporaries."""
        if flat:
            p = u[0] * v[0]
            np.remainder(p, a, out=p)
            return [p]
        (ui, uj), (vi, vj) = u, v
        uvj = uj * vj
        pi = ui * vi
        pi -= n * uvj
        pj = ui * vj
        pj += uj * vi
        uvj *= t
        pj += uvj
        # j mod c with borrow b, then i mod a
        k = pj // c
        pi -= k * b
        np.remainder(pi, a, out=pi)
        k *= c
        pj -= k
        return [pi, pj]

    r = [np.ones_like(x[0]) % a] + [np.zeros_like(xj) for xj in x[1:]]
    top = int(e.max()).bit_length() - 1
    for k in range(top, -1, -1):
        if k < top:
            r = mul(r, r)
        take = (e >> k) & 1 == 1
        if take.any():
            for rc, pc in zip(r, mul(r, x)):
                np.copyto(rc, pc, where=take)
    check = mul(x, r)
    if not ((check[0] == 1 % a).all() and not any(cj.any() for cj in check[1:])):
        raise RuntimeError("inversion table failed to close")

    def cut(columns):
        """int32 copies, so that a cached table does not hold its group's
        arrays; None for the j column of a table with c = 1."""
        return [col.astype(np.int32) for col in columns] + [None] * (2 - len(columns))

    ends = np.cumsum(phis).tolist()
    return [
        _ModulusTable(I, *cut(u), *cut([col[s:f] for col in r]))
        for I, u, s, f in zip(ideals, units, [0] + ends, ends)
    ]


def _tables(ideals) -> list[_ModulusTable]:
    """The tables of integral ideals of one field, in order.

    The tables not in the cache are built by _build_tables, those with HNF
    c = 1 and those with c > 1 apart, each group by group (_groups), and
    enter the cache only once every group is built, so a refused ideal
    leaves the cache as it was.  The cache keeps the most recently used
    tables, at most TABLE_CACHE_RESIDUES residues in all.
    """
    tabs = [_TABLES.get(I) for I in ideals]
    missing = dict.fromkeys(I for I, tab in zip(ideals, tabs) if tab is None)
    built = {}
    for flat in (True, False):
        for group in _groups(I for I in missing if (I.c == 1) == flat):
            built.update(zip(group, _build_tables(group)))
    for I, tab in built.items():
        if tab.phi <= TABLE_CACHE_RESIDUES:
            _TABLES[I] = tab
            _TABLES.residues += tab.phi
    for I in ideals:
        if I in _TABLES:
            _TABLES.move_to_end(I)
    while _TABLES.residues > TABLE_CACHE_RESIDUES:
        _TABLES.residues -= _TABLES.popitem(last=False)[1].phi
    return [built[I] if tab is None else tab for I, tab in zip(ideals, tabs)]


def _trace_numerators(w: RingElement) -> tuple[int, int, int]:
    """(e, k1, k2) with Tr w = k1/e and Tr(omega*w) = k2/e mod 1, e the least
    common denominator and 0 <= k1, k2 < e, so that
    Tr((i + j*omega)*w) = (i*k1 + j*k2)/e mod 1."""
    K = w.field
    if K.d == 1:
        n1, n2 = w.x, 0
    else:
        # w = (x + y*omega)/den and omega*w = (-n*y + (x + t*y)*omega)/den
        x, y, t = w.x, w.y, K.t_omega
        n1, n2 = 2 * x + t * y, -2 * K.n_omega * y + t * (x + t * y)
    d = w.den
    e = math.lcm(d // math.gcd(n1, d), d // math.gcd(n2, d))
    # reduced in Python ints: a large r1 or r2 neither wraps nor overflows
    return e, n1 * e // d % e, n2 * e // d % e


def _phase_sums(tab: _ModulusTable, pairs) -> list[complex]:
    """S for each pair (a, b) = (r1*w, r2*w), w = (c*delta)^{-1}: the sum
    over the table's units x of exp(2 pi i Tr(a*x + b*xbar)).

    Each pair gives one row of a (len(pairs) x phi) array of exact phase
    numerators k in [0, den) over its own denominator den.  For integral
    r1, r2, den divides the least positive integer m in (c): y -> Tr(r w y)
    mod 1 is a character of the additive group o/(c), which m kills.  Each
    distinct den has one table exp(2 pi i k / den), k < den, the tables laid
    end to end; a row reads its entries from its den's table and is summed
    in row order, so each row is, bit for bit, the sum of its exponentials.
    The trace numerators of each distinct element are made once.
    """
    # the least positive integer in (c): the first entry of its HNF
    m = tab.ideal.a
    coords: dict[tuple[int, int, int], tuple[int, int, int]] = {}
    # the start of each den's table in the tables laid end to end
    offsets: dict[int, int] = {}
    start = 0
    rows = []
    for a, b in pairs:
        for w in (a, b):
            if (w.x, w.y, w.den) not in coords:
                coords[w.x, w.y, w.den] = _trace_numerators(w)
        ea, ka1, ka2 = coords[a.x, a.y, a.den]
        eb, kb1, kb2 = coords[b.x, b.y, b.den]
        den = math.lcm(ea, eb)
        if m % den:
            raise RuntimeError(f"phase denominator {den} does not divide {m} in (c)")
        if den not in offsets:
            offsets[den] = start
            start += den
        fa, fb = den // ea, den // eb
        rows.append((den, offsets[den], ka1 * fa, ka2 * fa, kb1 * fb, kb2 * fb))
    table = np.concatenate(
        [np.exp(2j * np.pi * np.arange(den) / np.int64(den)) for den in offsets]
    )
    den, off, n1a, n1b, n2a, n2b = np.array(rows, dtype=np.int64).T[:, :, None]
    # each product is below N(c)^2 <= 10^12, so one int64 reduction is exact;
    # a table with c = 1 has j = 0 throughout, so its j terms are left out
    num = tab.xi * n1a
    num += tab.inv_i * n2a
    if tab.xj is not None:
        num += tab.xj * n1b
        num += tab.inv_j * n2b
    num %= den
    num += off
    return table[num].sum(axis=1).tolist()


def kloosterman_sums(queries: list[KloostermanQuery]) -> list[complex]:
    """S(r1, r2; c) for each query, in query order, over any moduli of one
    field.

    Each distinct c has its ideal made once and one phase array whose rows
    are its queries in order.  The generators of one ideal share its table;
    the tables come from _tables run by run (_groups), so a call holds the
    cache and one run.  A refused modulus raises, and its run caches
    nothing.  S = 1 for (c) = (1).
    """
    if len({q.c.field.D for q in queries}) > 1:
        raise ValueError("queries must share one field")
    rows: dict[RingElement, list[int]] = {}
    for n, q in enumerate(queries):
        rows.setdefault(q.c, []).append(n)
    generators: dict[Ideal, list[RingElement]] = {}
    for c in rows:
        generators.setdefault(Ideal.principal(c), []).append(c)
    out = [1.0 + 0j] * len(queries)
    for group in _groups(cI for cI in generators if cI.norm() != 1):
        for tab in _tables(group):
            for c in generators[tab.ideal]:
                w = (c * c.field.delta).inverse()
                ns = rows[c]
                sums = _phase_sums(tab, [(queries[n].r1 * w, queries[n].r2 * w) for n in ns])
                for n, S in zip(ns, sums):
                    out[n] = S
    return out


def kloosterman_sum(query: KloostermanQuery) -> complex:
    """S(r1, r2; c) per the module normal form; S = 1 for (c) = (1)."""
    return kloosterman_sums([query])[0]


def kloosterman_sum_crt(query: KloostermanQuery, c1: RingElement, c2: RingElement) -> complex:
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
    # a factor of norm 1 contributes 1; the others' tables come in one batch
    factors = [(cf, other, I) for cf, other, I in ((c1, c2, I1), (c2, c1, I2)) if I.norm() != 1]
    tabs = _tables([I for _, _, I in factors])
    for (cf, other, _), tab in zip(factors, tabs):
        obar = tab.inverse_element(other)
        sub = KloostermanQuery(query.r1 * obar * obar, query.r2, cf)
        out *= kloosterman_sum(sub)
    return out


def _pair_gcds(rs, pairs) -> list:
    """(r_i) + (r_j) for each (i, j) in pairs, made once per unordered pair
    {i, j}; None stands for the zero ideal (r_i = r_j = 0)."""
    ideals = [None if r.is_zero() else Ideal.principal(r) for r in rs]
    gcds = {}
    for i, j in pairs:
        key = (min(i, j), max(i, j))
        if key not in gcds:
            g, h = ideals[i], ideals[j]
            gcds[key] = h if g is None else g if h is None or i == j else g + h
    return [gcds[min(i, j), max(i, j)] for i, j in pairs]


def _weil_records(tab: _ModulusTable, c: RingElement, rs, pairs, gcds):
    """Weil-margin records of S(rs[i], rs[j]; c) for each (i, j) in pairs:

        margin = |S| / (tau((c)) * sqrt(N gcd((r1),(r2),(c))) * sqrt(N (c))).

    gcds[n] is (r1) + (r2) for pairs[n] (_pair_gcds).  The table,
    w = (c*delta)^{-1}, each r*w and tau are made once, each distinct
    (c) + gcds[n] once, and each record costs the division.  tab is the
    table of (c).
    """
    cI = tab.ideal
    nc = int(cI.norm())
    if nc == 1:
        for _ in pairs:
            yield {"S": 1.0 + 0j, "abs_S": 1.0, "tau": 1, "gcd_norm": 1, "c_norm": 1, "margin": 1.0}
        return
    w = (c * c.field.delta).inverse()
    rw = [r * w for r in rs]
    _, _, tau = arith_functions(cI)
    sums = _phase_sums(tab, [(rw[i], rw[j]) for i, j in pairs])
    gnorms: dict[Ideal, int] = {}
    for g, S in zip(gcds, sums):
        if g not in gnorms:
            gnorms[g] = nc if g is None else int((cI + g).norm())
        gn = gnorms[g]
        yield {
            "S": S,
            "abs_S": abs(S),
            "tau": tau,
            "gcd_norm": gn,
            "c_norm": nc,
            "margin": abs(S) / (tau * math.sqrt(gn) * math.sqrt(nc)),
        }


def weil_margin(query: KloostermanQuery) -> dict:
    """|S| / (tau((c)) * sqrt(N gcd((r1),(r2),(c))) * sqrt(N (c))) with parts."""
    (tab,) = _tables([Ideal.principal(query.c)])
    rs, pairs = [query.r1, query.r2], [(0, 1)]
    return next(_weil_records(tab, query.c, rs, pairs, _pair_gcds(rs, pairs)))


def weil_sweep(K: FieldDesc, cmax: int, r_values=(1, 2, 3)):
    """Margins for all moduli of norm <= cmax and r1, r2 in r_values.

    Yields dicts (one per (c, r1, r2), r1-major), one modulus at a time:
    the modulus's exact work is shared by its pairs and their sums come
    from one phase array.  The residue tables of each group of moduli
    (_groups) are made together and handed to the records.
    """
    rs = [RingElement(K, r) for r in r_values]
    pairs = [(i, j) for i in range(len(rs)) for j in range(len(rs))]
    gcds = _pair_gcds(rs, pairs)
    moduli = [cI for cI in ideals_of_norm_up_to(K, cmax) if cI.norm() != 1]
    for group in _groups(moduli):
        for tab in _tables(group):
            c = principal_generator(tab.ideal)
            for (i, j), rec in zip(pairs, _weil_records(tab, c, rs, pairs, gcds)):
                rec["c"] = c
                rec["r1"], rec["r2"] = rs[i], rs[j]
                yield rec
