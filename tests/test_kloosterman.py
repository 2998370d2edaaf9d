"""Tests for Kloosterman sums: values, Weil margins, CRT factorization."""

import cmath
import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from totreal.fields import (
    BoundExceeded,
    FieldError,
    Ideal,
    arith_functions,
    make_field,
    residue_system,
)
from totreal.kloosterman import (
    KloostermanQuery,
    _table,
    kloosterman_sum,
    kloosterman_sum_crt,
    modulus_generators,
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


def test_realness():
    rng = random.Random(9)
    for K in (Q, K5):
        gens = modulus_generators(K, 60)
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
    worst = max(rec["margin"] for rec in weil_sweep(Q, 150))
    assert worst <= 1 + 1e-9
    worst5 = max(rec["margin"] for rec in weil_sweep(K5, 100))
    assert worst5 <= 1 + 1e-9


def test_table_cache_bounded_and_checks_bound():
    c = Q.element(101)
    q = KloostermanQuery(Q.element(1), Q.element(1), c)
    kloosterman_sum(q)
    # a cached table of the same modulus does not lift the norm bound
    with pytest.raises(BoundExceeded):
        kloosterman_sum(q, bound=100)
    with pytest.raises(BoundExceeded):
        kloosterman_sum_crt(q, c, Q.element(1), bound=100)
    maxsize = _table.cache_info().maxsize
    for n in range(2, maxsize + 40):
        _table(Q.ideal(n))
    assert _table.cache_info().currsize <= maxsize


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
    rs = residue_system(c)
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
