"""Tests for Kloosterman sums: values, Weil margins, CRT factorization."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from totreal.characters import UnitGroupStructure
from totreal.fields import (
    FieldError,
    Ideal,
    arith_functions,
    ideals_of_norm_up_to,
    make_field,
    principal_generator,
    unit_mask,
)
from totreal.kloosterman import (
    TABLE_CACHE_RESIDUES,
    KloostermanQuery,
    _TABLES,
    _groups,
    _tables,
    kloosterman_sum,
    kloosterman_sum_crt,
    kloosterman_sums,
    weil_margin,
    weil_sweep,
)

Q = make_field(1)
K5 = make_field(5)


def classical_S(a: int, b: int, c: int) -> complex:
    out = 0j
    for x in range(1, c):
        if math.gcd(x, c) != 1:
            continue
        xbar = pow(x, -1, c)
        out += cmath.exp(2j * cmath.pi * (a * x + b * xbar) / c)
    return out


def test_examples():
    S = kloosterman_sum(KloostermanQuery(Q.element(1), Q.element(1), Q.element(5)))
    assert S.real == pytest.approx(2 + 2 * math.cos(4 * math.pi / 5), abs=1e-12)
    assert kloosterman_sum(
        KloostermanQuery(Q.element(1), Q.element(1), Q.element(1))
    ) == pytest.approx(1.0)
    # Q(sqrt5): S(1,1;sqrt5) = classical S(2,2;5) via the trace
    S5 = kloosterman_sum(KloostermanQuery(K5.one(), K5.one(), K5.sqrtD()))
    assert S5.real == pytest.approx(2 + 2 * math.cos(2 * math.pi / 5), abs=1e-12)
    assert S5 == pytest.approx(classical_S(2, 2, 5), abs=1e-12)


def test_matches_classical_over_Q():
    rng = random.Random(2)
    for _ in range(30):
        c = rng.randint(2, 400)
        a, b = rng.randint(0, c - 1), rng.randint(0, c - 1)
        S = kloosterman_sum(KloostermanQuery(Q.element(a), Q.element(b), Q.element(c)))
        assert S == pytest.approx(classical_S(a, b, c), abs=1e-9)


def test_large_r_phases():
    # S(r, 1; 7) depends on r mod 7 only: r near or past the int64 range must
    # neither wrap the phase products (2^61, 2^62) nor overflow (10^20)
    for r in (2**59, 2**61, 2**62, 10**20):
        S = kloosterman_sum(KloostermanQuery(Q.element(r), Q.element(1), Q.element(7)))
        assert S == pytest.approx(classical_S(r % 7, 1, 7), abs=1e-12), r
    # over Q(sqrt 5): r + c*2^62 = r mod (c), so the sums are the same
    c = K5.element(3, 1)
    assert abs(c.norm()) > 1
    for r in (1, 2):
        S = kloosterman_sum(KloostermanQuery(K5.element(r), K5.one(), c))
        big = K5.element(r) + c * 2**62
        assert kloosterman_sum(KloostermanQuery(big, K5.one(), c)) == S


def test_realness():
    rng = random.Random(9)
    for K in (Q, K5):
        gens = [principal_generator(I) for I in ideals_of_norm_up_to(K, 60) if I.norm() > 1]
        for _ in range(25):
            c = rng.choice(gens)
            r1 = K.element(rng.randint(1, 5), rng.randint(0, 2) if K.d == 2 else 0)
            r2 = K.element(rng.randint(1, 5), rng.randint(0, 2) if K.d == 2 else 0)
            S = kloosterman_sum(KloostermanQuery(r1, r2, c))
            assert abs(S.imag) < 1e-10 * max(1, abs(S))


def test_ramanujan_value():
    # S(0,0;c) = phi-related value over Q
    for c in (4, 9, 35, 100):
        S = kloosterman_sum(KloostermanQuery(Q.element(0), Q.element(0), Q.element(c)))
        # sum over units of psi(0) counts... the 0-argument sum equals the
        # Ramanujan sum at 0, i.e. phi(c)
        assert S.real == pytest.approx(arith_functions(Q.ideal(c))[1])


def test_weil_margin_examples():
    rec = weil_margin(KloostermanQuery(Q.element(1), Q.element(1), Q.element(5)))
    assert rec["margin"] == pytest.approx(0.381966 / (2 * math.sqrt(5)), abs=1e-4)
    rec1 = weil_margin(KloostermanQuery(Q.element(1), Q.element(1), Q.element(1)))
    assert rec1["margin"] == 1.0
    # all primes p < 500, a, b in {1,2,3}: classical |S| <= 2 sqrt(p)
    for p in (2, 3, 5, 7, 11, 101, 499):
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                rec = weil_margin(
                    KloostermanQuery(Q.element(a), Q.element(b), Q.element(p))
                )
                assert rec["margin"] <= 1 + 1e-9


def test_twisted_multiplicativity():
    rng = random.Random(4)
    for c1v, c2v in ((3, 5), (4, 9), (8, 15), (7, 11), (16, 27)):
        r1 = Q.element(rng.randint(1, 6))
        r2 = Q.element(rng.randint(1, 6))
        c1, c2 = Q.element(c1v), Q.element(c2v)
        q = KloostermanQuery(r1, r2, c1 * c2)
        direct = kloosterman_sum(q)
        crt = kloosterman_sum_crt(q, c1, c2)
        assert abs(direct - crt) < 1e-9, (c1v, c2v)
    # and over Q(sqrt5): split 11 against the ramified prime and inert 2
    s5 = K5.sqrtD()
    g11 = K5.element(3, 2)  # norm 11
    for c1, c2 in ((K5.element(2), s5), (g11, K5.element(2)), (g11, s5)):
        q = KloostermanQuery(K5.element(1), K5.element(1, 1), c1 * c2)
        assert abs(kloosterman_sum(q) - kloosterman_sum_crt(q, c1, c2)) < 1e-9


def test_crt_requires_coprime():
    q = KloostermanQuery(Q.element(1), Q.element(1), Q.element(4))
    with pytest.raises(ValueError):
        kloosterman_sum_crt(q, Q.element(2), Q.element(2))


def test_nonintegral_r_refused():
    # the sum over residues mod c is well defined for integral r1, r2 only
    for r1, r2 in ((Fraction(1, 2), 1), (1, Fraction(1, 10**21))):
        with pytest.raises(ValueError, match="r1 and r2 must be integral"):
            KloostermanQuery(Q.element(r1), Q.element(r2), Q.element(5))
    with pytest.raises(ValueError, match="r1 and r2 must be integral"):
        KloostermanQuery(K5.one(), K5.element(Fraction(1, 2), Fraction(1, 2)), K5.element(3))


def test_h1_required():
    K10 = make_field(10, allow_class_number=True)
    with pytest.raises(FieldError):
        KloostermanQuery(K10.one(), K10.one(), K10.element(3))


def test_sweep_margins_small():
    # each record's S and margin equal, bit for bit, the one-query calls:
    # a row of the stacked phase array is the sum of a one-row array
    for K, cmax in ((Q, 150), (K5, 100)):
        for rec in weil_sweep(K, cmax):
            assert rec["margin"] <= 1 + 1e-9
            q = KloostermanQuery(rec["r1"], rec["r2"], rec["c"])
            assert rec["S"] == kloosterman_sum(q)
            assert rec["margin"] == weil_margin(q)["margin"]
    c = K5.element(3, 2)
    qs = [KloostermanQuery(K5.one(), u * K5.element(2), c) for u in K5.units_mod_squares()]
    assert kloosterman_sums(qs) == [kloosterman_sum(q) for q in qs]
    # queries over two moduli: each sum is the one-query call's
    mixed = [qs[0], KloostermanQuery(K5.one(), K5.one(), K5.element(2)), qs[1]]
    assert kloosterman_sums(mixed) == [kloosterman_sum(q) for q in mixed]


def test_no_queries():
    assert kloosterman_sums([]) == []


def _held():
    """The residues the table cache holds."""
    return sum(tab.phi for tab in _TABLES.values())


def test_table_cache_bounded_and_checks_bound():
    # a modulus of norm above the ring limit is refused by unit_mask before
    # any class is made, and no table is cached for it
    c = Q.element(1000003)
    q = KloostermanQuery(Q.element(1), Q.element(1), c)
    held = list(_TABLES)
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        kloosterman_sum(q)
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        kloosterman_sum_crt(q, c, Q.element(1))
    assert list(_TABLES) == held
    # the budget holds every table of a sweep to norm 400 over Q and
    # Q(sqrt 5), so that a second sweep builds none
    sweep = [I for K in (Q, K5) for I in ideals_of_norm_up_to(K, 400) if I.norm() > 1]
    assert sum(arith_functions(I)[1] for I in sweep) <= TABLE_CACHE_RESIDUES
    # one batch of more residues than the cache holds
    ideals = [Q.ideal(n) for n in range(2, 1000)]
    assert sum(arith_functions(I)[1] for I in ideals) > TABLE_CACHE_RESIDUES
    assert [tab.ideal for tab in _tables(ideals)] == ideals
    assert _held() <= TABLE_CACHE_RESIDUES
    # and one batch of queries over more moduli than that, reversed so that
    # every table is built again
    _TABLES.clear()
    qs = [KloostermanQuery(Q.one(), Q.element(2), Q.element(n)) for n in reversed(range(2, 1000))]
    sums = kloosterman_sums(qs)
    assert _held() <= TABLE_CACHE_RESIDUES
    assert sums == [kloosterman_sum(q) for q in qs]
    assert sums[-40] == pytest.approx(classical_S(1, 2, 41), abs=1e-12)


def test_table_cache_keeps_the_most_recent_tables():
    # a batch over more residues than the budget keeps the longest tail of
    # the batch that fits, in batch order
    _TABLES.clear()
    ideals = [Q.ideal(n) for n in range(2, 1000)]
    _tables(ideals)
    kept, size = [], 0
    for I in reversed(ideals):
        size += arith_functions(I)[1]
        if size > TABLE_CACHE_RESIDUES:
            break
        kept.insert(0, I)
    assert list(_TABLES) == kept and _TABLES.residues == _held() <= TABLE_CACHE_RESIDUES
    # a table of more residues than the budget is returned but not kept, and
    # the tables already held stay
    big = Q.ideal(262147)  # prime, phi = 262146 > 2^18
    assert arith_functions(big)[1] > TABLE_CACHE_RESIDUES
    (tab,) = _tables([big])
    assert tab.ideal == big and tab.phi == 262146
    assert list(_TABLES) == kept and _TABLES.residues == _held()
    assert tab.inverse_element(Q.element(2)) == Q.element(pow(2, -1, 262147))


def _columns(tab):
    """xi, xj, inv_i, inv_j of a table as int64 arrays, with j = 0 where the
    table keeps no j column (HNF c = 1, o/(c) = Z/a)."""
    zero = np.zeros(tab.phi, np.int64)
    return [zero if col is None else col.astype(np.int64)
            for col in (tab.xi, tab.xj, tab.inv_i, tab.inv_j)]


def _mask_units(c):
    """The units of o/c read off unit_mask, in class order."""
    return [c.field.element(k % c.a, k // c.a) for k, m in enumerate(unit_mask(c)) if m]


def test_table_inverses():
    (tab,) = _tables([Q.ideal(5)])
    assert {int(x.a): int(tab.inverse_element(x).a)
            for x in _mask_units(Q.ideal(5))} == {1: 1, 2: 3, 3: 2, 4: 4}
    # over Q(sqrt 5) mod (2) the inverse of a unit is a unit
    c = K5.ideal(2)
    units = _mask_units(c)
    (tab,) = _tables([c])
    for x in units:
        inv = tab.inverse_element(x)
        assert inv in units and c.reduce(x * inv) == K5.one()


# ---------------------------------------------------------------------------
# property tests of the unit rule of o/c (fields.unit_mask), shared by the
# characters' discrete logs and the Kloosterman tables, and of the CRT
# factorisation; each against a brute force

PROP_FIELDS = {1: Q, 2: make_field(2), 5: K5, 13: make_field(13)}
# over Q(sqrt 2): 2 ramified, 3 and 5 inert, 7 split; over Q(sqrt 5): 2 and 3
# inert, 5 ramified, 11 split; over Q(sqrt 13): 2 and 5 inert, 3 and 17
# split, 13 ramified
SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17]


@st.composite
def moduli(draw):
    """An integral ideal of norm <= 600: a product of prime powers, each
    prime split, inert or ramified depending on the field."""
    K = PROP_FIELDS[draw(st.sampled_from(sorted(PROP_FIELDS)))]
    c = K.unit_ideal()
    for _ in range(draw(st.integers(0, 3))):
        above = K.primes_above(draw(st.sampled_from(SMALL_PRIMES)))
        P = above[draw(st.integers(0, len(above) - 1))]
        for _ in range(draw(st.integers(1, 3))):
            c = c * P.ideal
    assume(c.norm() <= 600)
    return c


def _brute_units(c):
    """The units of o/c by one ideal gcd per class, j-major (unit_mask's
    class order) and i-major (the Kloosterman table's order)."""
    K = c.field
    a, rows = c.a, c.c

    def unit(i, j):
        x = K.element(i, j)
        return not x.is_zero() and (Ideal.principal(x) + c).norm() == 1

    if c.norm() == 1:
        return [(0, 0)], [(0, 0)]
    by_j = [(i, j) for j in range(rows) for i in range(a) if unit(i, j)]
    by_i = [(i, j) for i in range(a) for j in range(rows) if unit(i, j)]
    return by_j, by_i


@settings(max_examples=150, deadline=None)
@given(moduli())
def test_unit_rule_against_gcd(c):
    by_j, by_i = _brute_units(c)
    assert [(u.x, u.y) for u in _mask_units(c)] == by_j
    group = UnitGroupStructure(c)
    assert group.order == len(by_j) == arith_functions(c)[1]
    units = set(by_j)
    K = c.field
    for j in range(c.c):
        for i in range(c.a):
            # index reduces first: test a translate by an element of c
            if K.d == 2:
                x = K.element(i + c.a, j) + K.element(3 * c.b, 3 * c.c)
            else:
                x = K.element(i + 5 * c.a)
            assert group.index(x) == j * c.a + i
            assert (group.dlogs[group.index(x)] is not None) == ((i, j) in units)
    (tab,) = _tables([c])
    assert list(zip(*(col.tolist() for col in _columns(tab)[:2]))) == by_i


def test_batched_inverses_multiply_back():
    # every modulus of norm <= 300 in one call, which inverts them in more
    # than one group; each unit times its inverse, in exact field arithmetic,
    # is 1 mod c, and the inverse is reduced into the HNF cell of c
    for K in PROP_FIELDS.values():
        ideals = [c for c in ideals_of_norm_up_to(K, 300) if c.norm() > 1]
        assert len(list(_groups(ideals))) >= 2
        _TABLES.clear()
        for c, tab in zip(ideals, _tables(ideals), strict=True):
            assert tab.ideal == c and tab.phi == arith_functions(c)[1]
            for xi, xj, yi, yj in zip(*(col.tolist() for col in _columns(tab))):
                x, inv = K.element(xi, xj), K.element(yi, yj)
                assert c.reduce(inv) == inv and c.reduce(x * inv) == K.one(), (c, x)


def test_mixed_batch_tables_against_unit_mask_and_products():
    # one shuffled batch of moduli with HNF c = 1 and c > 1: the units are
    # unit_mask's, i-major; each unit times its inverse is 1 by RingElement
    # products reduced by Ideal.reduce; a table with c = 1 keeps one int32
    # column; the tables come back in the batch's order
    rng = random.Random(29)
    for K in PROP_FIELDS.values():
        batch = [c for c in ideals_of_norm_up_to(K, 300) if c.norm() > 1]
        rng.shuffle(batch)
        if K.d == 2:
            assert {c.c == 1 for c in batch} == {True, False}
        _TABLES.clear()
        tabs = _tables(batch)
        assert [tab.ideal for tab in tabs] == batch
        for c, tab in zip(batch, tabs, strict=True):
            mask = unit_mask(c)
            units = sorted((k % c.a, k // c.a) for k, m in enumerate(mask) if m)
            assert (tab.xj is None and tab.inv_j is None) == (c.c == 1), c
            for col in (tab.xi, tab.xj, tab.inv_i, tab.inv_j):
                assert col is None or col.dtype == np.int32
            xi, xj, yi, yj = (col.tolist() for col in _columns(tab))
            assert list(zip(xi, xj)) == units, c
            for x, inv in zip(zip(xi, xj), zip(yi, yj)):
                assert c.reduce(K.element(*x) * K.element(*inv)) == K.one(), (c, x)


def test_batched_tables_equal_tables_built_alone():
    # moduli of every prime type in a shuffled order, whose norms fill more
    # than one group, give the arrays each builds alone
    rng = random.Random(3)
    for K in PROP_FIELDS.values():
        mixed = [c for c in ideals_of_norm_up_to(K, 300) if c.norm() > 1]
        rng.shuffle(mixed)
        assert len(list(_groups(mixed))) >= 2
        _TABLES.clear()
        together = _tables(mixed)
        for c, tab in zip(mixed, together, strict=True):
            _TABLES.clear()
            (alone,) = _tables([c])
            assert alone is not tab
            for name in ("xi", "xj", "inv_i", "inv_j"):
                col, ref = getattr(tab, name), getattr(alone, name)
                assert (col is ref is None) or np.array_equal(col, ref), (c, name)


def test_oversize_modulus_in_a_batch_caches_nothing():
    # the modulus above the ring limit comes after one group that builds:
    # the call raises and no table of the batch enters the cache
    _TABLES.clear()
    (held,) = _tables([Q.ideal(4)])
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        _tables([Q.ideal(7), Q.ideal(1000003), Q.ideal(11)])
    assert list(_TABLES.items()) == [(Q.ideal(4), held)]


def _small_element(K, v):
    return K.element(v[0], v[1] if K.d == 2 else 0)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(PROP_FIELDS)),
       st.tuples(*[st.integers(-9, 9)] * 8))
def test_crt_against_direct(D, v):
    K = PROP_FIELDS[D]
    c1, c2 = _small_element(K, v[0:2]), _small_element(K, v[2:4])
    r1, r2 = _small_element(K, v[4:6]), _small_element(K, v[6:8])
    assume(not c1.is_zero() and not c2.is_zero())
    I1, I2 = Ideal.principal(c1), Ideal.principal(c2)
    assume(2 <= I1.norm() <= 150 and 2 <= I2.norm() <= 150)
    assume((I1 + I2).norm() == 1)
    q = KloostermanQuery(r1, r2, c1 * c2)
    assert abs(kloosterman_sum(q) - kloosterman_sum_crt(q, c1, c2)) < 1e-9


def _brute_inverses(cI):
    """The units x of o/(c), j-major, and x -> x^-1: pow over Q, a search by
    exact products otherwise."""
    K = cI.field
    if K.d == 1:
        units = [K.element(i) for i in range(cI.a) if math.gcd(i, cI.a) == 1]
        return units, {x: K.element(pow(x.x, -1, cI.a)) for x in units}
    units = [K.element(i, j) for i, j in _brute_units(cI)[0]]
    return units, {x: next(y for y in units if cI.reduce(x * y) == K.one()) for x in units}


def _brute_phase_sum(units, inv, r1, r2, w):
    """The sum over the units x of exp(2 pi i Tr((r1 x + r2 x^-1) w)), by
    cmath on exact traces."""
    return sum(cmath.exp(2j * cmath.pi * float(((r1 * x + r2 * inv[x]) * w).trace() % 1))
               for x in units)


def _brute_sweep(K, cmax, r_values):
    """(c, r1, r2) -> (S, gcd_norm) for every modulus of norm <= cmax, by
    plain enumeration of o/(c) (_brute_inverses, _brute_phase_sum), and
    N((c) + (r1, r2)) as N(c) over the size of the image of gcd(r1, r2) * o
    in o/(c)."""
    out = {}
    for cI in ideals_of_norm_up_to(K, cmax):
        if cI.norm() == 1:
            continue
        c = principal_generator(cI)
        residues = [K.element(i, j) if K.d == 2 else K.element(i)
                    for j in range(cI.c) for i in range(cI.a)]
        units, inv = _brute_inverses(cI)
        w = (c * K.delta).inverse()
        for r1 in r_values:
            for r2 in r_values:
                S = _brute_phase_sum(units, inv, r1, r2, w)
                g = math.gcd(r1, r2)
                image = {(y.x, y.y) for y in (cI.reduce(g * x) for x in residues)}
                out[c, r1, r2] = (S, len(residues) // len(image))
    return out


@pytest.mark.parametrize("D, cmax", [(1, 80), (5, 60)])
def test_sweep_against_brute_force(D, cmax):
    K = PROP_FIELDS[D]
    r_values = (0, 1, 2, 3, 6)
    brute = _brute_sweep(K, cmax, r_values)
    recs = list(weil_sweep(K, cmax, r_values=r_values))
    assert len(recs) == len(brute)
    for k, rec in enumerate(recs):
        # one modulus at a time, r1-major
        r1, r2 = r_values[k // 5 % 5], r_values[k % 5]
        assert (rec["r1"], rec["r2"]) == (K.element(r1), K.element(r2))
        S, gn = brute[rec["c"], r1, r2]
        assert abs(rec["S"] - S) < 1e-9
        assert rec["gcd_norm"] == gn
        if D == 1:
            assert gn == math.gcd(rec["c"].x, r1, r2)


def test_sums_over_mixed_moduli():
    # a shuffled batch per field: (1) by two generators, a modulus asked
    # three times, and c next to c*eps (one ideal, two generators); each S
    # against a plain residue sum, and bit for bit the one-query call
    rng = random.Random(11)
    eps = K5.eps
    for moduli in ([K5.one(), eps, K5.element(3, 2), K5.element(3, 2), K5.element(3, 2),
                    K5.element(2), K5.element(2) * eps, K5.sqrtD(), K5.sqrtD() * eps,
                    K5.element(7, 1)],
                   [Q.one(), -Q.one(), Q.element(9), Q.element(-9), Q.element(20),
                    Q.element(20), Q.element(20)]):
        qs = []
        for c in moduli:
            K = c.field
            r1, r2 = (K.element(rng.randint(-4, 4), rng.randint(-2, 2) if K.d == 2 else 0)
                      for _ in range(2))
            qs.append(KloostermanQuery(r1, r2, c))
        rng.shuffle(qs)
        _TABLES.clear()
        sums = kloosterman_sums(qs)
        assert sums == [kloosterman_sum(q) for q in qs]
        for q, S in zip(qs, sums):
            cI = Ideal.principal(q.c)
            if cI.norm() == 1:
                assert S == 1
                continue
            units, inv = _brute_inverses(cI)
            brute = _brute_phase_sum(units, inv, q.r1, q.r2, (q.c * q.c.field.delta).inverse())
            assert abs(S - brute) < 1e-12, q
    # the tables of one run are built with one field's arithmetic
    with pytest.raises(ValueError, match="one field"):
        kloosterman_sums([KloostermanQuery(Q.one(), Q.one(), Q.element(9)),
                          KloostermanQuery(K5.one(), K5.one(), K5.element(3, 2))])


def test_oversize_modulus_in_a_query_batch_caches_nothing():
    # the tables are built run by run: a batch whose first run holds the
    # refused modulus raises and leaves the cache as it was; after a run
    # that builds, that run's tables are kept and nothing from the refused
    # run on enters the cache
    _TABLES.clear()
    (held,) = _tables([Q.ideal(4)])

    def batch(*moduli):
        return [KloostermanQuery(Q.one(), Q.element(2), Q.element(c)) for c in moduli]

    with pytest.raises(ValueError, match="above the limit of 1000000"):
        kloosterman_sums(batch(1000003, 7, 11))
    assert list(_TABLES.items()) == [(Q.ideal(4), held)]
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        kloosterman_sums(batch(7, 1000003, 11))
    assert list(_TABLES) == [Q.ideal(4), Q.ideal(7)]


# ---------------------------------------------------------------------------
# the phase kernel: each S, bit for bit, is the sum of np.exp at the exact
# phase numerators of its row, however its call shares tables of e(k/den)

KERNEL_R = (0, 1, 2, 3, 7, 10**9 + 7)


def _definition_sums(q: KloostermanQuery, tab):
    """S(r1, r2; c) by its definition, one row: den, the least common
    denominator of Tr(a), Tr(a omega), Tr(b), Tr(b omega) for a = r1 w,
    b = r2 w, w = (c delta)^-1, from exact traces; the numerators
    num = den * Tr(a x + b xbar) mod den over the units x of the table; and
    np.exp(2j*np.pi*num/den).sum().  Returns (S, den)."""
    K = q.c.field
    w = (q.c * K.delta).inverse()
    omega = K.element(0, 1) if K.d == 2 else K.zero()
    traces = [Fraction((v * u).trace()) for v in (q.r1 * w, q.r2 * w) for u in (K.one(), omega)]
    den = math.lcm(*(f.denominator for f in traces))
    n1a, n1b, n2a, n2b = (int(f * den) % den for f in traces)
    xi, xj, inv_i, inv_j = _columns(tab)
    num = (xi * n1a + xj * n1b + inv_i * n2a + inv_j * n2b) % den
    return np.exp(2j * np.pi * num / den).sum(), den


def _kernel_queries(K, c, rs):
    """Queries of kuz-geom's shape at one ideal: several generators of (c)
    (c and its unit multiples) against every r1 and every unit times r2
    (the units mod squares, four over a real quadratic field)."""
    units = K.units_mod_squares()
    return [KloostermanQuery(r1, u * r2, g * c)
            for g in units for r1 in rs for r2 in rs for u in units]


@pytest.mark.parametrize("D", [1, 2, 5, 13])
def test_phase_kernel_bit_for_bit_against_definition(D):
    K = PROP_FIELDS[D]
    rs = [K.element(r) for r in KERNEL_R]
    if K.d == 2:
        rs.append(K.element(2, 1))
    several = 0
    for cI in ideals_of_norm_up_to(K, 500):
        if cI.norm() == 1:
            continue
        c = principal_generator(cI)
        (tab,) = _tables([cI])
        qs = [KloostermanQuery(r1, r2, c) for r1 in rs for r2 in rs]
        if cI.norm() <= 60:
            qs += _kernel_queries(K, c, rs[1:4])
        dens = set()
        for q, S in zip(qs, kloosterman_sums(qs), strict=True):
            ref, den = _definition_sums(q, tab)
            # den divides N(c), and indeed the least positive integer m = a of
            # the HNF of (c), so each row reads a table of at most m entries
            assert cI.norm() % den == 0 and cI.a % den == 0, (cI, q)
            assert repr(S) == repr(complex(ref)), (cI, q)
            dens.add(den)
        several += len(dens) > 1
    # calls that lay several tables end to end, over every field
    assert several >= 10
