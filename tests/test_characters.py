"""Tests for finite characters and Hecke characters."""

import cmath
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from totreal.characters import (
    HeckeCharacter,
    UnitGroupStructure,
    _hnf_rowreduce,
    _smith_normal_form,
    characters_mod,
    enumerate_eisenstein_pairs,
    unramified_character,
    unramified_exponent_lattice,
)
from totreal.fields import (
    Ideal,
    RingElement,
    arith_functions,
    divisors,
    ideals_of_norm_up_to,
    make_field,
    principal_generator,
    unit_mask,
)

Q = make_field(1)
K5 = make_field(5)
K2 = make_field(2)
K13 = make_field(13)


def test_character_counts():
    assert len(characters_mod(Q.ideal(5))) == 4
    # a prime modulus of norm above 10^5 and below the ring limit 10^6
    assert len(characters_mod(Q.ideal(200003))) == 200002
    assert len(characters_mod(Q.unit_ideal())) == 1
    assert len(characters_mod(K5.ideal(2))) == 3  # GF(4)^x
    for K, q in ((Q, 12), (Q, 45), (K5, 9), (K2, 6)):
        chars = characters_mod(K.ideal(q))
        assert len(chars) == arith_functions(K.ideal(q))[1]


def _units(q):
    """The units of o/q read off fields.unit_mask."""
    return [q.field.element(k % q.a, k // q.a) for k, m in enumerate(unit_mask(q)) if m]


def test_orthogonality_exact():
    for K, q in ((Q, 5), (Q, 12), (K5, 4)):
        chars = characters_mod(K.ideal(q))
        units = _units(K.ideal(q))
        for c1 in chars:
            for c2 in chars:
                s = sum(c1(x) * c2(x).conjugate() for x in units)
                expect = len(units) if c1.exponents == c2.exponents else 0.0
                assert abs(s - expect) < 1e-12


def test_discrete_logs_against_products():
    # every modulus of norm <= 60: the discrete logs are additive on every
    # pair of units, with the product made by RingElement and Ideal.reduce
    # and its class number read off the reduced coordinates; they map the
    # units onto prod Z/n_i; and both orthogonality relations hold on the
    # character table
    for K in (Q, K2, K5, K13):
        for q in ideals_of_norm_up_to(K, 60):
            st = UnitGroupStructure(q)
            units = _units(q)
            logs = [st.dlogs[k] for k, m in enumerate(unit_mask(q)) if m]
            assert sorted(logs) == sorted(itertools.product(*map(range, st.orders)))
            for i, (x, wx) in enumerate(zip(units, logs)):
                for y, wy in zip(units[i:], logs[i:]):
                    xy = q.reduce(x * y)
                    w = st.dlogs[xy.y * q.a + xy.x]
                    assert w == tuple((u + v) % n for u, v, n in zip(wx, wy, st.orders)), (q, x, y)
            table = np.array([[float(chi.value_exponent(x)) for x in units]
                              for chi in characters_mod(q)])
            E = np.exp(2j * np.pi * table)
            assert np.abs(E @ E.conj().T - st.order * np.eye(st.order)).max() < 1e-10
            assert np.abs(E.conj().T @ E - st.order * np.eye(st.order)).max() < 1e-10


def _structure_by_ring_elements(q):
    """(orders, exponent, dlogs) of (o/q)^x from the greedy generators and
    the BFS of UnitGroupStructure, each product made by RingElement and
    Ideal.reduce, and the same Smith normal form."""
    K, a = q.field, q.a

    def index(x):
        y = q.reduce(x)
        return y.y * a + y.x

    mask = unit_mask(q)
    gens, reached, relations = [], {index(K.one()): []}, []
    for cand in itertools.compress(range(len(mask)), mask):
        if cand in reached:
            continue
        gens.append(RingElement(K, cand % a, cand // a))
        for k in reached:
            reached[k] = reached[k] + [0]
        for rel in relations:
            rel.append(0)
        frontier = list(reached.items())
        while frontier:
            new_frontier = []
            for key, vec in frontier:
                x = RingElement(K, key % a, key // a)
                for i, g in enumerate(gens):
                    yk = index(x * g)
                    nv = list(vec)
                    nv[i] += 1
                    if yk in reached:
                        rel = [u - v for u, v in zip(nv, reached[yk])]
                        if any(rel):
                            relations.append(rel)
                    else:
                        reached[yk] = nv
                        new_frontier.append((yk, nv))
            frontier = new_frontier
        if len(reached) == mask.count(1):
            break
    d, V = _smith_normal_form(_hnf_rowreduce(relations))
    keep = [i for i in range(len(gens)) if d[i] != 1]
    dlogs = [None] * len(mask)
    for key, vec in reached.items():
        dlogs[key] = tuple(sum(vec[k] * V[k][i] for k in range(len(gens))) % d[i] for i in keep)
    orders = [d[i] for i in keep]
    return orders, math.lcm(*orders), dlogs


@pytest.mark.parametrize("K,N", [(Q, 300), (K2, 120), (K5, 120), (K13, 120)])
def test_class_products_against_ring_elements(K, N):
    # the unit-group BFS multiplies class numbers; the structure is the one
    # the RingElement products give, for every modulus of norm <= N
    for q in ideals_of_norm_up_to(K, N):
        st = UnitGroupStructure(q)
        assert (st.orders, st.exponent, st.dlogs) == _structure_by_ring_elements(q), q


def test_finite_characters_built_apart_are_equal():
    for K, q in ((Q, 15), (Q, 16), (K5, 11), (K5, 4)):
        first, second = characters_mod(K.ideal(q)), characters_mod(K.ideal(q))
        assert first[0].structure is not second[0].structure
        for f1, f2 in zip(first, second, strict=True):
            assert f1 == f2 and hash(f1) == hash(f2)
        assert len(set(first) | set(second)) == arith_functions(K.ideal(q))[1]
        assert first[1] != first[0]
    # the same exponents on another modulus make another character
    assert characters_mod(Q.ideal(5))[1] != characters_mod(K5.ideal(5))[1]
    assert characters_mod(Q.ideal(5))[1].exponents == characters_mod(Q.ideal(10))[1].exponents
    assert characters_mod(Q.ideal(5))[1] != characters_mod(Q.ideal(10))[1]


def test_characters_mod_refuses():
    # a ring of more than 10^6 classes (unit_mask's limit) and a modulus
    # that is not integral
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        characters_mod(Q.ideal(1000003))
    with pytest.raises(ValueError, match="above the limit of 1000000"):
        characters_mod(Ideal.principal(K5.element(1000, 1)))
    with pytest.raises(ValueError, match="nonzero integral ideal"):
        characters_mod(Q.ideal(Fraction(1, 2)))


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
    one = chi.modulus.field.one()
    units = _units(chi.modulus)
    best = chi.modulus
    for q2 in divisors(chi.modulus):
        if q2.norm() < best.norm() and all(
            chi.value_exponent(u) == 0 for u in units if q2.contains(u - one)
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


def _hecke_over(K, fin):
    """A unit-trivial Hecke character with finite part fin, as criterion 5
    builds them: the sign at the real place over Q, an infinity type that
    cancels fin(eps) over Q(sqrt 5) (fin even there)."""
    if K.d == 1:
        return HeckeCharacter(K, fin, [0.25], [0 if fin.value_exponent(-K.one()) == 0 else 1])
    off = -2 * math.pi * float(fin.value_exponent(K.eps)) / math.log(K.eps.embeddings()[0])
    return HeckeCharacter(K, fin, [off / 2, -off / 2], [0, 0])


def test_equal_characters_built_apart_share_one_system():
    # two characters_mod calls make two unit-group structures; equal
    # exponents give equal values, and the Hecke characters built on them
    # are equal, hash alike and share one Eisenstein system
    from totreal.spectral import eisenstein_system

    for K, q in ((Q, 15), (Q, 16), (K5, 11), (K5, 4)):
        first, second = characters_mod(K.ideal(q)), characters_mod(K.ideal(q))
        assert first[0].structure is not second[0].structure
        ideals = ideals_of_norm_up_to(K, 80)
        gens = [principal_generator(I) for I in ideals]
        built = []
        for f1, f2 in zip(first, second, strict=True):
            assert f1.exponents == f2.exponents
            assert [f1(g) for g in gens] == [f2(g) for g in gens]
            if f1.value_exponent(-K.one()) not in (0, None) and K.d == 2:
                continue
            chi1, chi2 = _hecke_over(K, f1), _hecke_over(K, f2)
            assert chi1 == chi2 and hash(chi1) == hash(chi2)
            assert [chi1.eval_on_ideal(I) for I in ideals] == \
                [chi2.eval_on_ideal(I) for I in ideals]
            assert eisenstein_system(chi1) is eisenstein_system(chi2)
            built.append(chi1)
        # different exponents, a different modulus or no finite part differ
        assert len(built) >= 2 and built[0] != built[1]
        assert built[0] != _hecke_over(K, characters_mod(K.ideal(q + 2))[0])
        assert built[0] != unramified_character(K, built[0].t)
    # the infinity type and the field count too
    assert unramified_character(Q, [0.5]) == unramified_character(Q, [0.5])
    assert unramified_character(Q, [0.5]) != unramified_character(Q, [0.25])
    assert unramified_character(Q, [0.0]) != unramified_character(K5, [0.0, 0.0])
    assert unramified_character(Q, [0.0]) != HeckeCharacter(Q, None, [0.0], [1], check=False)


def test_equal_characters_built_apart_reuse_eigenvalues(monkeypatch):
    # a second round of new but equal characters, as each exact_arith pass
    # of the benchmark builds them, computes no Satake parameter again
    from totreal.eisenstein import eis_hecke_eigenvalue
    from totreal.spectral import EigenvalueSystem

    calls = []
    alpha = EigenvalueSystem._alpha
    monkeypatch.setattr(EigenvalueSystem, "_alpha",
                        lambda self, P: calls.append(P) or alpha(self, P))

    def eigenvalues():
        chis = [_hecke_over(K, f)
                for K, q in ((Q, 21), (K5, 19)) for f in characters_mod(K.ideal(q))
                if K.d == 1 or f.value_exponent(-K.one()) == 0]
        chis.append(unramified_character(K5, [0.3137, 0.3137]))
        return [[eis_hecke_eigenvalue(chi, I) for I in ideals_of_norm_up_to(chi.field, 60)]
                for chi in chis]

    first = eigenvalues()
    made = len(calls)
    assert made > 0
    assert eigenvalues() == first
    assert len(calls) == made
