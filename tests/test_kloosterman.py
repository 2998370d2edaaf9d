"""Tests for Kloosterman sums: values, Weil margins, CRT factorization."""

import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from totreal.fields import (
    FieldError,
    Ideal,
    ResidueSystem,
    arith_functions,
    ideals_of_norm_up_to,
    make_field,
    principal_generator,
)
from totreal.kloosterman import (
    KloostermanQuery,
    _table,
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
    with pytest.raises(ValueError):
        kloosterman_sums([qs[0], KloostermanQuery(K5.one(), K5.one(), K5.element(2))])


def test_table_cache_bounded_and_checks_bound():
    # a modulus of norm above the ring limit is refused by unit_mask before
    # any class is made, and no table is cached for it
    c = Q.element(1000003)
    q = KloostermanQuery(Q.element(1), Q.element(1), c)
    held = _table.cache_info().currsize
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        kloosterman_sum(q)
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        kloosterman_sum_crt(q, c, Q.element(1))
    assert _table.cache_info().currsize == held
    maxsize = _table.cache_info().maxsize
    for n in range(2, maxsize + 40):
        _table(Q.ideal(n))
    assert _table.cache_info().currsize <= maxsize


def test_table_inverses():
    assert {int(x.a): int(_table(Q.ideal(5)).inverse_element(x).a)
            for x in ResidueSystem(Q.ideal(5)).units} == {1: 1, 2: 3, 3: 2, 4: 4}
    # over Q(sqrt 5) mod (2) the inverse of a unit is a unit
    c = K5.ideal(2)
    units = ResidueSystem(c).units
    for x in units:
        inv = _table(c).inverse_element(x)
        assert inv in units and c.reduce(x * inv) == K5.one()


# ---------------------------------------------------------------------------
# property tests of the unit rule of o/c (fields.unit_mask), shared by the
# characters' residue systems and the Kloosterman tables, and of the CRT
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
    """The units of o/c by one ideal gcd per class, j-major (the residue
    system's order) and i-major (the Kloosterman table's order)."""
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
    rs = ResidueSystem(c)
    assert [(u.x, u.y) for u in rs.units] == by_j
    assert rs.phi == len(by_j) == arith_functions(c)[1]
    units = set(by_j)
    K = c.field
    for j in range(c.c):
        for i in range(c.a):
            # is_unit reduces first: test a translate by an element of c
            if K.d == 2:
                x = K.element(i + c.a, j) + K.element(3 * c.b, 3 * c.c)
            else:
                x = K.element(i + 5 * c.a)
            assert rs.is_unit(x) == ((i, j) in units)
    tab = _table(c)
    assert list(zip(tab.xi.tolist(), tab.xj.tolist())) == by_i


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


def _brute_sweep(K, cmax, r_values):
    """(c, r1, r2) -> (S, gcd_norm) for every modulus of norm <= cmax, by
    plain enumeration of o/(c): inverses by search (pow over Q), phases by
    cmath on exact traces, and N((c) + (r1, r2)) as N(c) over the size of
    the image of gcd(r1, r2) * o in o/(c)."""
    out = {}
    for cI in ideals_of_norm_up_to(K, cmax):
        if cI.norm() == 1:
            continue
        c = principal_generator(cI)
        residues = [K.element(i, j) if K.d == 2 else K.element(i)
                    for j in range(cI.c) for i in range(cI.a)]
        if K.d == 1:
            units = [x for x in residues if math.gcd(x.x, cI.a) == 1]
            inv = {x: K.element(pow(x.x, -1, cI.a)) for x in units}
        else:
            units = [K.element(i, j) for i, j in _brute_units(cI)[0]]
            inv = {x: next(y for y in units if cI.reduce(x * y) == K.one()) for x in units}
        w = (c * K.delta).inverse()
        for r1 in r_values:
            for r2 in r_values:
                S = sum(cmath.exp(2j * cmath.pi * float(((r1 * x + r2 * inv[x]) * w).trace() % 1))
                        for x in units)
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
