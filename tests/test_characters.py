"""Tests for finite characters and Hecke characters."""

import cmath
import math

import pytest

from totreal.characters import (
    HeckeCharacter,
    characters_mod,
    enumerate_eisenstein_pairs,
    unramified_character,
    unramified_exponent_lattice,
)
from totreal.fields import Ideal, arith_functions, divisors, ideals_of_norm_up_to, make_field

Q = make_field(1)
K5 = make_field(5)
K2 = make_field(2)


def test_character_counts():
    assert len(characters_mod(Q.ideal(5))) == 4
    # a prime modulus of norm above 10^5 and below the ring limit 10^6
    assert len(characters_mod(Q.ideal(200003))) == 200002
    assert len(characters_mod(Q.unit_ideal())) == 1
    assert len(characters_mod(K5.ideal(2))) == 3  # GF(4)^x
    for K, q in ((Q, 12), (Q, 45), (K5, 9), (K2, 6)):
        chars = characters_mod(K.ideal(q))
        assert len(chars) == arith_functions(K.ideal(q))[1]


def test_orthogonality_exact():
    for K, q in ((Q, 5), (Q, 12), (K5, 4)):
        chars = characters_mod(K.ideal(q))
        units = chars[0].structure.rs.units
        for c1 in chars:
            for c2 in chars:
                s = sum(c1(x) * c2(x).conjugate() for x in units)
                expect = len(units) if c1.exponents == c2.exponents else 0.0
                assert abs(s - expect) < 1e-12


def test_closed_under_inverse_and_distinct():
    chars = characters_mod(Q.ideal(16))
    keys = {c.exponents for c in chars}
    assert len(keys) == len(chars)
    for c in chars:
        assert c.inverse().exponents in keys


def test_character_vanishes_off_units():
    chars = characters_mod(Q.ideal(6))
    for c in chars:
        assert c(Q.element(2)) == 0
        assert c(Q.element(3)) == 0
        assert abs(abs(c(Q.element(5))) - 1) < 1e-14


def test_order_four_mod_five():
    chars = characters_mod(Q.ideal(5))
    c = next(c for c in chars if c.order() == 4)
    v = c(Q.element(2))
    assert abs(v**4 - 1) < 1e-12
    assert abs(v**2 + 1) < 1e-12  # primitive fourth root


def test_conductors():
    chars = characters_mod(Q.ideal(10))
    conds = sorted(int(c.conductor().norm()) for c in chars)
    assert conds == [1, 5, 5, 5]
    # (Z/9)^x is cyclic of order 6: the quadratic character drops to mod 3,
    # the quartic... cubic and sextic characters are primitive mod 9
    chars9 = characters_mod(Q.ideal(9))
    assert sorted(int(c.conductor().norm()) for c in chars9) == [1, 3, 9, 9, 9, 9]


def _conductor_by_divisor_scan(chi):
    """The smallest divisor q' of the modulus with chi trivial on every unit
    = 1 mod q', by scanning all divisors and all units."""
    rs = chi.structure.rs
    one = rs.field.one()
    best = chi.modulus
    for q2 in divisors(chi.modulus):
        if q2.norm() < best.norm() and all(
            chi.value_exponent(u) == 0 for u in rs.units if q2.contains(u - one)
        ):
            best = q2
    return best


def test_conductor_descent_matches_divisor_scan():
    # the descent one prime at a time against the scan over every divisor,
    # for every character of every modulus in range
    for D, X in ((1, 150), (5, 80), (13, 50), (2, 50)):
        K = make_field(D)
        for q in ideals_of_norm_up_to(K, X):
            for chi in characters_mod(q):
                assert chi.conductor() == _conductor_by_divisor_scan(chi), (D, q, chi.exponents)


def test_hecke_eval_examples():
    chi = unramified_character(Q, [1.0])
    v = chi.eval_on_ideal(Q.ideal(2))
    assert v == pytest.approx(cmath.exp(1j * math.log(2)))
    # trivial character
    triv = unramified_character(Q, [0.0])
    assert triv.eval_on_ideal(Q.ideal(7)) == pytest.approx(1.0)
    # zero off the conductor; odd finite parts carry the matching sign character
    fin = next(c for c in characters_mod(Q.ideal(5)) if not c.is_trivial())
    sign = 0 if fin.value_exponent(-Q.one()) == 0 else 1
    chi5 = HeckeCharacter(Q, fin, [0.0], [sign])
    assert chi5.eval_on_ideal(Q.ideal(10)) == 0.0
    assert abs(abs(chi5.eval_on_ideal(Q.ideal(3))) - 1) < 1e-14


def test_unit_triviality_enforced():
    with pytest.raises(ValueError):
        HeckeCharacter(K5, None, [1.0, 0.0], ())  # not trivial on eps
    sp = unramified_exponent_lattice(K5)["spacing"]
    chi = unramified_character(K5, [sp / 2, -sp / 2])
    assert chi.unit_triviality_residual() < 1e-10
    # diagonal direction always admissible
    chi2 = unramified_character(K5, [0.37, 0.37])
    assert chi2.unit_triviality_residual() < 1e-10


def test_exponent_lattice_values():
    lat5 = unramified_exponent_lattice(K5)
    le = math.log((1 + math.sqrt(5)) / 2)
    assert lat5["spacing"] == pytest.approx(2 * math.pi / le, rel=1e-12)
    lat2 = unramified_exponent_lattice(K2)
    assert lat2["spacing"] == pytest.approx(2 * math.pi / math.log(1 + math.sqrt(2)), rel=1e-12)
    assert unramified_exponent_lattice(Q)["spacing"] is None


def test_eisenstein_pair_counts():
    # the hand-derived lattice predictions over Q(sqrt5)
    for X, expect in ((5, 1), (10, 1), (14, 3), (30, 5)):
        r = enumerate_eisenstein_pairs(K5.unit_ideal(), X)
        assert r["branches"] == expect, (X, r["branches"])
    r = enumerate_eisenstein_pairs(Q.unit_ideal(), 1)
    assert r["branches"] == 1


def test_eisenstein_count_monotone():
    prev = 0
    for X in (1, 5, 14, 20, 30, 40):
        n = enumerate_eisenstein_pairs(K5.unit_ideal(), X)["branches"]
        assert n >= prev
        prev = n
    # divisibility monotonicity: level (4) admits conductor-2 finite parts
    a = enumerate_eisenstein_pairs(Q.ideal(4), 2)["branches"]
    b = enumerate_eisenstein_pairs(Q.unit_ideal(), 2)["branches"]
    assert a >= b


def test_eisenstein_growth_shape():
    # count <= C X^d N(c1)^{1+eps} with one calibrated C per field
    C = 3.0
    for X in (5, 14, 30, 60):
        n = enumerate_eisenstein_pairs(K5.unit_ideal(), X)["branches"]
        assert n <= C * max(X, 1) ** 1  # d = 2 but branches live on one line
