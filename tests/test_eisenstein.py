"""Tests for Eisenstein local vectors, Hecke eigenvalues, oldform
coefficients, and the constant term."""

import cmath
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from totreal.characters import HeckeCharacter, characters_mod, unramified_character
from totreal.eisenstein import (
    EisCoefficientContext,
    LocalVectorSpec,
    constant_term_H_at_half,
    constant_term_H_numeric,
    constant_term_local_factor,
    constant_term_local_factor_layers,
    coset_index,
    dedekind_zeta,
    eis_hecke_eigenvalue,
    local_dimension,
    local_inner_product,
    local_vector_norm_sq,
    newvector_fourier_magnitude,
    oldform_eis_coefficient,
)
from totreal.fields import Ideal, ideals_of_norm_up_to, make_field

Q = make_field(1)
K5 = make_field(5)


def test_local_dimension():
    assert local_dimension(3, 1) == 2
    assert local_dimension(1, 1) == 0
    for n in range(6):
        assert local_dimension(n, 0) == n + 1


def test_local_norms_exact():
    assert local_vector_norm_sq(LocalVectorSpec(5, 0)) == 1
    assert local_vector_norm_sq(LocalVectorSpec(5, 2)) == Fraction(2, 3)
    assert local_vector_norm_sq(LocalVectorSpec(5, 0, 1)) == Fraction(2, 3)
    # bounds (1 - 1/Np)^2 <= ||phi||^2 <= 1 exactly, over the whole corpus
    for N in (2, 3, 4, 5, 7, 9, 11):
        for m in (0, 1, 2):
            for j in range(5):
                v = local_vector_norm_sq(LocalVectorSpec(N, j, m))
                assert (1 - Fraction(1, N)) ** 2 <= v <= 1, (N, j, m, v)


def test_local_orthogonality_exact():
    for N in (2, 3, 4, 5, 7, 9, 11):
        for m in (0, 1, 2):
            for i in range(5):
                for j in range(i + 1, 5):
                    rat, irr = local_inner_product(
                        LocalVectorSpec(N, i, m), LocalVectorSpec(N, j, m)
                    )
                    assert rat == 0 and irr == 0, (N, m, i, j)


def test_worked_inner_product():
    # <phi_0, phi_1> at Np=5: (5/6)(1/sqrt5) - (1/6) sqrt5 = 0
    rat, irr = local_inner_product(LocalVectorSpec(5, 0), LocalVectorSpec(5, 1))
    assert rat == 0 and irr == 0


def test_coset_index():
    assert coset_index(Q.unit_ideal()) == 1
    assert coset_index(Q.ideal(5)) == 6
    assert coset_index(Q.ideal(25)) == 30
    assert coset_index(K5.ideal(2)) == 5  # N=4: 4 * (1 + 1/4)


def test_eis_hecke_values():
    t = 0.83
    chi = unramified_character(Q, [t])
    lam = eis_hecke_eigenvalue(chi, Q.ideal(7))
    assert lam == pytest.approx(2 * math.cos(t * math.log(7)), abs=1e-12)
    lam2 = eis_hecke_eigenvalue(chi, Q.ideal(49))
    assert (lam**2 - lam2) == pytest.approx(1.0, abs=1e-12)
    # vanishing at the conductor
    fin = next(c for c in characters_mod(Q.ideal(5)) if not c.is_trivial())
    sign = 0 if fin.value_exponent(-Q.one()) == 0 else 1
    chi5 = HeckeCharacter(Q, fin, [0.0], [sign])
    assert eis_hecke_eigenvalue(chi5, Q.ideal(10)) == 0.0
    # |lambda(m)| <= tau(m)
    from totreal.fields import arith_functions

    for m in ideals_of_norm_up_to(Q, 60):
        if m.norm() > 1:
            v = abs(eis_hecke_eigenvalue(chi, m))
            assert v <= arith_functions(m)[2] + 1e-12


def test_hecke_relation_random():
    rng = random.Random(7)
    for K in (Q, K5):
        chi = unramified_character(K, [0.61] * K.d)
        ideals = [I for I in ideals_of_norm_up_to(K, 120) if I.norm() > 1]
        for _ in range(40):
            m, n = rng.choice(ideals), rng.choice(ideals)
            lm, ln = eis_hecke_eigenvalue(chi, m), eis_hecke_eigenvalue(chi, n)
            g = m + n
            rhs = 0j
            for a in _divisors(g):
                rhs += eis_hecke_eigenvalue(chi, m * n * (a * a).inverse())
            assert abs(lm * ln - rhs) < 1e-12


def _divisors(I):
    from totreal.fields import factor_ideal

    out = [I.field.unit_ideal()]
    if I.norm() > 1:
        for P, e in factor_ideal(I):
            cur = list(out)
            Pk = P.ideal
            for _ in range(e):
                cur += [J * Pk for J in out]
                Pk = Pk * P.ideal
            out = cur
    return out


def test_oldform_coefficient_cases():
    t_param = 0.7
    chi = unramified_character(Q, [t_param])
    # t = (1) reduces to the Hecke eigenvalue
    ctx1 = EisCoefficientContext(chi, Q.unit_ideal())
    for m in (Q.ideal(6), Q.ideal(7)):
        assert oldform_eis_coefficient(ctx1, m) == pytest.approx(
            eis_hecke_eigenvalue(chi, m)
        )
    # t = (p) with z != -1, m = (1): |1 + z| / (2 sqrt(Np))
    ctx7 = EisCoefficientContext(chi, Q.ideal(7))
    z = chi.eval_on_ideal(Q.ideal(7)) ** 2
    got = oldform_eis_coefficient(ctx7, Q.unit_ideal())
    assert abs(got) == pytest.approx(abs(1 + z) / (2 * math.sqrt(7)), abs=1e-12)
    # support: t_chi | m required
    chi_z = _char_with_z_minus_one()
    if chi_z is not None:
        ctxz = EisCoefficientContext(chi_z, Ideal.principal(chi_z.field.element(3)))
        assert ctxz.t_chi.norm() == 3
        assert oldform_eis_coefficient(ctxz, chi_z.field.ideal(5)) == 0.0


def test_oldform_context_refuses_vanishing_normaliser():
    # P | t twice, P | modulus of chi, P not | conductor: chi(P) = 0 and the
    # local factor would divide by zero, so the context refuses t
    trivial12 = HeckeCharacter(Q, characters_mod(Q.ideal(12))[0], [0.0], [0])
    with pytest.raises(ValueError, match=r"P\(2\)\^2"):
        EisCoefficientContext(trivial12, Q.ideal(4))
    with pytest.raises(ValueError, match=r"P\(3\)\^3"):
        EisCoefficientContext(trivial12, Q.ideal(27))
    # once at such a prime, or at a prime off the modulus, t is accepted
    # and every coefficient is finite
    for tval in (2, 3, 6, 25, 50):
        ctx = EisCoefficientContext(trivial12, Q.ideal(tval))
        for m in ideals_of_norm_up_to(Q, 60):
            assert cmath.isfinite(oldform_eis_coefficient(ctx, m))
    # at a prime of the conductor (chi mod 4 primitive) t = (4) is ramified
    for fin in characters_mod(Q.ideal(12)):
        if fin.conductor() == Q.ideal(4):
            chi = HeckeCharacter(Q, fin, [0.0], [1], check=False)
            ctx = EisCoefficientContext(chi, Q.ideal(4))
            assert ctx.local[Q.primes_above(2)[0]]["ramified"]


def _char_with_z_minus_one():
    # a finite character mod 8 with chi((3))^2 = -1 would need order 8 at 3;
    # instead use chi mod 5 of order 4 so z = chi((3))^2 = -1 at p = 3
    for fin in characters_mod(Q.ideal(5)):
        if fin.order() == 4:
            chi = HeckeCharacter(Q, fin, [0.0], [0], check=False)
            z = chi.eval_on_ideal(Q.ideal(3)) ** 2
            if abs(z + 1) < 1e-12:
                return chi
    return None


def test_oldform_bound():
    # |lambda^(t)(m)| <= N(gcd(t,m)) tau(m) * constant
    from totreal.fields import arith_functions

    chi = unramified_character(Q, [0.4])
    for tval in (7, 49, 12):
        ctx = EisCoefficientContext(chi, Q.ideal(tval))
        for m in ideals_of_norm_up_to(Q, 80):
            if m.norm() < 1:
                continue
            v = abs(oldform_eis_coefficient(ctx, m))
            g = float((Q.ideal(tval) + m).norm())
            tau_m = arith_functions(m)[2] if m.norm() > 1 else 1
            assert v <= 4.0 * g * tau_m, (tval, m)


def test_constant_term_local_factors():
    f = constant_term_local_factor(5, 1.0, "unramified")
    assert f == pytest.approx(31 / 30, rel=1e-12)
    f2 = constant_term_local_factor(5, 1.0, "level", 1)
    assert f2 == pytest.approx(1 / 30, rel=1e-12)
    # s -> infinity limit is 1 in the unramified case
    assert constant_term_local_factor(5, 40.0, "unramified") == pytest.approx(1.0)
    # cross-check every case against the truncated layer sums
    for case, kw in (
        ("unramified", {}),
        ("level", {"v": 1}),
        ("level", {"v": 3}),
        ("level-eta", {"v": 1, "v_eta": -2}),
        ("level-eta", {"v": 2, "v_eta": 0}),
    ):
        for s in (1.0, 0.75 + 0.4j, 0.5 + 1e-2):
            a = constant_term_local_factor(3, s, case, **kw)
            b = constant_term_local_factor_layers(3, s, case, **kw)
            assert abs(a - b) < 1e-10, (case, kw, s)


def test_constant_term_H():
    assert constant_term_H_at_half(Q.ideal(5)) == Fraction(1, 6)
    assert constant_term_H_at_half(Q.unit_ideal()) == Fraction(1, 1)
    assert constant_term_H_at_half(K5.unit_ideal()) == Fraction(1, 5)
    assert constant_term_H_at_half(K5.ideal(2)) == Fraction(1, 25)
    # Richardson extrapolation of the assembled integral
    for K, lev in ((Q, 5), (Q, 12), (K5, 2)):
        c = K.ideal(lev)
        exact = float(constant_term_H_at_half(c))
        h1 = constant_term_H_numeric(c, 1e-2)
        h2 = constant_term_H_numeric(c, 5e-3)
        assert abs(2 * h2 - h1 - exact) < 1e-3 * max(exact, 1e-6)


def test_dedekind_zeta():
    # zeta_Q(2) = pi^2/6; zeta_{Q(sqrt5)}(2) against a divisor-sum Dirichlet
    # series with its n^{-1} tail window
    assert dedekind_zeta(Q, 2.0) == pytest.approx(math.pi**2 / 6, rel=1e-10)
    z5 = dedekind_zeta(K5, 2.0)
    from totreal.eisenstein import _kronecker

    N = 20000
    div = [0] * (N + 1)
    for d in range(1, N + 1):
        c = _kronecker(5, d)
        if c == 0:
            continue
        for m in range(d, N + 1, d):
            div[m] += c
    series = sum(div[n] / n**2 for n in range(1, N + 1))
    assert abs(z5 - series) < 5.0 / N
    # Euler product over prime ideals reproduces the same value coarsely
    euler = 1.0
    for p in range(2, 2000):
        if any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
            continue
        for P in K5.primes_above(p):
            euler /= 1 - P.norm() ** -2.0
    assert z5 == pytest.approx(euler, rel=1e-3)


def test_newvector_magnitude():
    chi = unramified_character(Q, [1.0])
    r = newvector_fourier_magnitude(chi, Q.unit_ideal())
    expect = math.sqrt(math.pi) / abs(complex(mp.zeta(1 + 2j)))
    assert r["value"] == pytest.approx(expect, rel=1e-9)
    assert r["F"] == 1.0  # F_{chi,(1)} = 1, the empty product
    # t = t_chi: partial L over the empty removed set equals the full L
    chi5 = unramified_character(K5, [1.0, 1.0])
    r2 = newvector_fourier_magnitude(chi5, K5.unit_ideal())
    assert r2["t_chi_norm"] == 1
    with pytest.raises(ValueError):
        newvector_fourier_magnitude(unramified_character(Q, [0.0]), Q.unit_ideal())
