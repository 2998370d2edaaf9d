"""Tests for exact field/ideal arithmetic."""

import cmath
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from totreal.fields import (
    FieldError,
    Ideal,
    ResidueSystem,
    _factor_int,
    _trial_primes,
    arith_functions,
    divisors,
    enumerate_in_box,
    factor_ideal,
    ideals_of_norm_up_to,
    make_field,
    primes_up_to,
    principal_generator,
    psi,
    unit_mask,
)

Q = make_field(1)
K5 = make_field(5)
K2 = make_field(2)

# independently known invariants (standard tables) used to pin the unit and
# the class number, both from the continued-fraction walk
KNOWN_H = {2: 1, 3: 1, 5: 1, 6: 1, 7: 1, 10: 2, 11: 1, 13: 1, 14: 1, 15: 2,
           17: 1, 19: 1, 21: 1, 22: 1, 23: 1, 26: 2, 29: 1, 30: 2, 31: 1,
           33: 1, 34: 2, 35: 2, 37: 1, 38: 1, 39: 2, 41: 1, 42: 2, 43: 1,
           46: 1, 47: 1, 51: 2, 53: 1, 55: 2, 57: 1, 58: 2, 59: 1, 61: 1,
           62: 1, 65: 2, 66: 2, 67: 1, 69: 1, 70: 2, 71: 1, 73: 1, 74: 2,
           77: 1, 78: 2, 79: 3, 82: 4, 83: 1, 85: 2, 86: 1, 87: 2, 89: 1,
           91: 2, 93: 1, 94: 1, 95: 2, 97: 1}


def test_rational_field():
    assert Q.d == 1 and Q.disc == 1 and Q.h == 1
    assert Q.different.norm() == 1
    assert Q.units_mod_squares() == [Q.one(), -Q.one()]


def test_field_sqrt5():
    assert K5.disc == 5
    assert K5.eps == K5.omega()  # (1+sqrt5)/2
    assert K5.eps_norm == -1
    assert K5.h == 1
    u = K5.totally_positive_unit_gens()[0]
    assert u == K5.eps * K5.eps
    assert K5.different == Ideal.principal(K5.sqrtD())


def test_field_sqrt2():
    assert K2.disc == 8
    assert K2.eps == K2.element(1, 1)  # 1 + sqrt2
    assert K2.h == 1
    assert K2.different == Ideal.principal(K2.element(0, 2))  # (2 sqrt 2)
    assert K2.different.norm() == 8


def test_field_errors():
    with pytest.raises(FieldError):
        make_field(12)  # not squarefree
    with pytest.raises(FieldError):
        make_field(0)
    with pytest.raises(FieldError):
        make_field(10)  # h = 2
    assert make_field(10, allow_class_number=True).h == 2


def test_class_numbers_against_tables():
    for D, h in KNOWN_H.items():
        K = make_field(D, allow_class_number=True)
        assert K.h == h, f"D={D}: got {K.h}, expected {h}"
        # fundamental unit sanity: > 1, unit norm
        assert K.eps.embeddings()[0] > 1
        assert abs(K.eps.norm()) == 1
        assert K.eps.norm() == K.eps_norm


def _kronecker(d: int, n: int) -> int:
    """The Kronecker symbol (d/n) for n > 0: the factor (d/2) per 2 in n,
    then the Jacobi symbol by quadratic reciprocity."""
    out = 1
    while n % 2 == 0:
        n //= 2
        if d % 2 == 0:
            return 0
        if d % 8 in (3, 5):
            out = -out
    a = d % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def test_class_number_formula():
    # h log(eps) = -1/2 sum_{0<a<D_K} chi_{D_K}(a) log sin(pi a / D_K), the
    # analytic class number formula, independent of the continued-fraction walk
    Ds = [D for D in range(2, 101) if all(D % (p * p) for p in range(2, 11))]
    assert len(Ds) == 60
    # long unit periods: a non-fundamental unit such as eps^3 would show as a
    # factor 3 in the regulator
    long_periods = [1021, 1069, 1141, 1201, 1321, 1381]
    # h from 2 to 16 over both D_K = D and D_K = 4D, by the sign of N(eps)
    many_cycles = {1: [10005, 10077, 10117, 10003], -1: [10001, 10069, 10249, 10202]}
    for sign, group in many_cycles.items():
        for D in group:
            K = make_field(D, allow_class_number=True)
            assert K.h >= 2 and K.eps_norm == sign, D
    for D in Ds + long_periods + many_cycles[1] + many_cycles[-1]:
        K = make_field(D, allow_class_number=True)
        dk = K.disc
        rhs = -0.5 * sum(
            _kronecker(dk, a) * math.log(math.sin(math.pi * a / dk)) for a in range(1, dk)
        )
        assert abs(K.h * K.regulator - rhs) <= 1e-10 * rhs, D


def test_prime_decomposition():
    # independent of the root rule: the P^e over p multiply to (p), the
    # degrees add up, sum e*f = [K:Q], and N(P) = p^f
    for D in range(1, 201):
        if any(D % (q * q) == 0 for q in range(2, 15)):
            continue
        K = make_field(D, allow_class_number=True)
        for p in primes_up_to(500):
            Ps = K.primes_above(p)
            prod = K.unit_ideal()
            for P in Ps:
                assert P.ideal.norm() == p**P.f
                for _ in range(P.e):
                    prod = prod * P.ideal
            assert prod == K.ideal(p), (D, p)
            assert sum(P.e * P.f for P in Ps) == K.d, (D, p)
            assert len({P.ideal for P in Ps}) == len(Ps)


def test_unit_invariants():
    for D in (2, 3, 5, 13, 61):
        K = make_field(D)
        for u in K.totally_positive_unit_gens():
            assert u.is_totally_positive()
            assert u.norm() == 1
        assert len(K.units_mod_squares()) == 2**K.d


def test_ideal_arith_examples():
    assert Q.ideal(4) + Q.ideal(6) == Q.ideal(2)
    assert Q.ideal(2).intersect(Q.ideal(3)) == Q.ideal(6)
    s5 = Ideal.principal(K5.sqrtD())
    assert s5 * s5 == K5.ideal(5)
    assert Q.ideal(2).divides(Q.ideal(6)) is True
    assert Q.ideal(4).divides(Q.ideal(6)) is False
    with pytest.raises(FieldError):
        Q.ideal(2) + K5.ideal(2)
    with pytest.raises(FieldError):
        Q.ideal(2) * K5.ideal(2)


def test_ideal_norm_multiplicative():
    rng = random.Random(7)
    for K in (Q, K5, K2):
        for _ in range(25):
            x = K.element(rng.randint(-9, 9), rng.randint(-9, 9) if K.d == 2 else 0)
            y = K.element(rng.randint(-9, 9), rng.randint(-9, 9) if K.d == 2 else 0)
            if x.is_zero() or y.is_zero():
                continue
            a, b = Ideal.principal(x), Ideal.principal(y)
            assert (a * b).norm() == a.norm() * b.norm()
            g, l = a + b, a.intersect(b)
            assert g.norm() * l.norm() == a.norm() * b.norm()
            assert g.divides(a) and g.divides(b)
            assert a.divides(l) and b.divides(l)


def test_factor_examples():
    fac = factor_ideal(Q.ideal(6))
    assert sorted((P.p, e) for P, e in fac) == [(2, 1), (3, 1)]
    fac2 = factor_ideal(K5.ideal(2))
    assert len(fac2) == 1 and fac2[0][0].f == 2 and fac2[0][0].norm() == 4
    fac11 = factor_ideal(K5.ideal(11))
    assert len(fac11) == 2 and all(P.norm() == 11 for P, _ in fac11)
    # product reconstructs
    for K, n in ((Q, 360), (K5, 90), (K2, 84)):
        I = K.ideal(n)
        prod = K.unit_ideal()
        for P, e in factor_ideal(I):
            for _ in range(e):
                prod = prod * P.ideal
        assert prod == I
    with pytest.raises(ValueError, match="above the limit of 10000000"):
        factor_ideal(Q.ideal(10**8))
    # the rational factorisation against trial division by every d >= 2
    near_1e7 = [10**7 - 3, 10**7 - 1, 10**7, 10**7 + 1, 9999991, 2**23, 3**14, 3163**2]
    for n in list(range(1, 10**4 + 1)) + near_1e7:
        assert list(_factor_int(n).items()) == _trial_division(n)


def test_factor_int_sieve_cached():
    # one cached sieve (primes below 2^8) serves every n below 2^16; primes
    # near 10^6 and past 2^20 (where odd trial divisors take over) factor as
    # trial division by every d >= 2 does
    _trial_primes.cache_clear()
    for n in range(1, 20001):
        assert list(_factor_int(n).items()) == _trial_division(n)
    assert _trial_primes.cache_info().currsize == 1
    big = [999983 * 1000003, 999979 * 999983 * 2, 1000003**2, 3 * 5 * 999961,
           1048573 * 1048583, 1048583**2, 2**20 * 1048583]
    for n in big:
        assert list(_factor_int(n).items()) == _trial_division(n)
    # three sieves in all: below 2^8, 2^12 (for 3 * 5 * 999961) and 2^20
    assert _trial_primes.cache_info().misses <= 3


def _trial_division(n):
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_arith_functions():
    assert arith_functions(Q.ideal(12)) == (0, 4, 6)
    for K, p in ((Q, 7), (Q, 11), (K5, 11)):
        for P, _ in factor_ideal(K.ideal(p)):
            mu, phi, tau = arith_functions(P.ideal)
            assert (mu, phi, tau) == (-1, P.norm() - 1, 2)
    assert arith_functions(K5.ideal(2)) == (-1, 3, 2)


def test_enumerate_box_examples():
    els = enumerate_in_box(K5.unit_ideal(), [(1, 3), (1, 3)])
    assert [e.coords() for e in els] == [(1, 0), (2, 0), (3, 0)]
    assert enumerate_in_box(K5.unit_ideal(), [(2, 1), (0, 1)]) == []
    els2 = enumerate_in_box(Q.ideal(2), [(1, 7)])
    assert [int(e.a) for e in els2] == [2, 4, 6]


def test_enumerate_box_point_limit():
    # volume over covolume N(I) sqrt(disc), compared exactly: over Q the
    # ideal (3) in [0, 3*10^6 + 3] makes 10^6 + 1, over Q(sqrt 5) the ideal
    # (1/3) in [0, 499]^2 makes 499^2 * 9 / sqrt 5 = 1.0022e6; both are
    # refused before any point is made
    with pytest.raises(ValueError, match="limit of 1000000"):
        enumerate_in_box(Q.ideal(3), [(0, 3 * 10**6 + 3)])
    third = Ideal.principal(K5.element(Fraction(1, 3)))
    with pytest.raises(ValueError, match="about 1e6 lattice points"):
        enumerate_in_box(third, [(0, 499)] * 2)
    # a box past the float range is refused the same way
    with pytest.raises(ValueError, match="about 1.8e400 lattice points"):
        enumerate_in_box(K5.unit_ideal(), [(-1e200, 1e200)] * 2)
    # the volume is that of the box left after the totally positive cut
    with pytest.raises(ValueError, match="limit of 1000000"):
        enumerate_in_box(K5.unit_ideal(), [(-10**7, 5)] * 2)
    els = enumerate_in_box(K5.unit_ideal(), [(-10**7, 5)] * 2, totally_positive=True)
    assert els == enumerate_in_box(K5.unit_ideal(), [(0, 5)] * 2, totally_positive=True)
    assert len(els) == 11  # 1..5, k + omega for k = 1, 2, 3 and k - omega for k = 2, 3, 4


def test_enumerate_against_bruteforce():
    # generous double loop over coordinates must agree exactly
    rng = random.Random(3)
    for _ in range(10):
        lo1, lo2 = rng.uniform(-6, 2), rng.uniform(-6, 2)
        hi1, hi2 = lo1 + rng.uniform(0, 8), lo2 + rng.uniform(0, 8)
        box = [(Fraction(lo1).limit_denominator(64), Fraction(hi1).limit_denominator(64)),
               (Fraction(lo2).limit_denominator(64), Fraction(hi2).limit_denominator(64))]
        got = {e.coords() for e in enumerate_in_box(K5.unit_ideal(), box)}
        brute = set()
        for a in range(-30, 31):
            for b in range(-30, 31):
                x = K5.element(a, b)
                if (x.compare_embedding(0, box[0][0]) >= 0
                        and x.compare_embedding(0, box[0][1]) <= 0
                        and x.compare_embedding(1, box[1][0]) >= 0
                        and x.compare_embedding(1, box[1][1]) <= 0):
                    brute.add((Fraction(a), Fraction(b)))
        assert got == brute


def test_enumerate_unit_action_bijective():
    u = K5.totally_positive_unit_gens()[0]
    box = [(Fraction(1), Fraction(10)), (Fraction(1), Fraction(10))]
    els = enumerate_in_box(K5.unit_ideal(), box, totally_positive=True)
    # u * box has exact rational corners since u acts by its embeddings only
    # on the exact comparisons; map elements and check membership instead
    mapped = [u * e for e in els]
    for m in mapped:
        # u*x lies in u*box by construction; verify via exact comparisons
        lo1 = box[0][0]
        assert (m * u.inverse()).compare_embedding(0, lo1) >= 0


def test_residue_system():
    rs = ResidueSystem(Q.ideal(5))
    assert rs.phi == 4
    assert [int(x.a) for x in rs.units] == [1, 2, 3, 4]
    rs1 = ResidueSystem(Q.unit_ideal())
    assert rs1.size == 1 and rs1.phi == 1
    rsk = ResidueSystem(K5.ideal(2))
    assert rsk.size == 4 and rsk.phi == 3
    assert ResidueSystem(K5.ideal(3)).phi == arith_functions(K5.ideal(3))[1]


def test_unit_mask_ring_limit():
    # o/c of up to 10^6 classes is made; beyond, unit_mask refuses it before
    # any class is made, for every caller
    assert sum(unit_mask(Q.ideal(10**6))) == arith_functions(Q.ideal(10**6))[1] == 400000
    for c in (Q.ideal(1000003), Ideal.principal(K5.element(1000, 1))):
        assert c.norm() > 10**6
        with pytest.raises(ValueError, match="above the limit of 1000000"):
            unit_mask(c)
        with pytest.raises(ValueError, match="above the limit of 1000000"):
            ResidueSystem(c)


def test_psi():
    assert psi(Q.element(Fraction(1, 5))) == pytest.approx(cmath.exp(2j * cmath.pi / 5))
    assert psi(Q.element(17)) == pytest.approx(1.0)
    assert psi(K5.omega()) == pytest.approx(1.0)  # Tr omega = 1
    x = K5.element(Fraction(1, 3), Fraction(2, 7))
    assert abs(psi(x)) == pytest.approx(1.0)
    # additivity
    y = K5.element(Fraction(2, 5), Fraction(1, 2))
    assert psi(x + y) == pytest.approx(psi(x) * psi(y))


def test_ideal_count_growth():
    # #{m : Nm <= x} stays within [x/C, Cx]
    for K, C in ((Q, 2), (K5, 4), (K2, 4)):
        for x in (50, 200):
            n = len(ideals_of_norm_up_to(K, x))
            assert x / C <= n <= C * x


def test_ideal_walk_below_one():
    # no integral ideal has norm below 1, so the list is empty there
    for K in (Q, K5):
        for bound in (0, -1):
            assert ideals_of_norm_up_to(K, bound) == []
        assert ideals_of_norm_up_to(K, 1) == [K.unit_ideal()]


@pytest.mark.parametrize("D", [1, 2, 5, 13])
def test_ideal_counts_by_norm(D):
    # the number of ideals of norm n is sum_{d | n} (disc/d), and 1 over Q
    K = make_field(D)
    counts = {}
    for I in ideals_of_norm_up_to(K, 2000):
        counts[I.norm()] = counts.get(I.norm(), 0) + 1
    chi = [0] + [_kronecker(K.disc, d) for d in range(1, 2001)]
    for n in range(1, 2001):
        expect = 1 if D == 1 else sum(chi[d] for d in range(1, n + 1) if n % d == 0)
        assert counts.get(n, 0) == expect, (D, n)


@pytest.mark.parametrize("D", [1, 2, 3, 5, 13, 21, 94, 1381])
def test_factorisation_multiplies_back(D):
    # the product of the prime powers is the ideal, primes from primes_above
    # in order p ascending, each listed once with a positive exponent
    K = make_field(D)
    for I in ideals_of_norm_up_to(K, 3000):
        fac = factor_ideal(I)
        prod = K.unit_ideal()
        for P, v in fac:
            assert v > 0 and P in K.primes_above(P.p)
            for _ in range(v):
                prod = prod * P.ideal
        assert prod == I, (D, I)
        order = [(P.p, K.primes_above(P.p).index(P)) for P, _ in fac]
        assert order == sorted(set(order))


def test_tau_bound():
    for K in (K5, Q, K2):
        ideals = ideals_of_norm_up_to(K, 60)
        for I in ideals:
            _, _, tau = arith_functions(I)
            if I.norm() > 1:
                assert tau <= I.norm()
            # the divisors against a divisibility scan of all ideals
            brute = [J for J in ideals if J.norm() <= I.norm() and J.divides(I)]
            brute.sort(key=lambda J: (J.norm(), J.key()))
            assert divisors(I) == brute
            assert len(brute) == tau


def test_principal_generator():
    for K in (K5, K2):
        for I in ideals_of_norm_up_to(K, 40):
            g = principal_generator(I)
            assert Ideal.principal(g) == I
    g11 = principal_generator(factor_ideal(K5.ideal(11))[0][0].ideal)
    assert abs(g11.norm()) == 11
    for K in (Q, K5):
        with pytest.raises(ValueError):
            principal_generator(K.ideal(Fraction(1, 3)))


def _box_search_generator(I):
    """The canonical generator by an exhaustive search: every element of I
    of norm +-N(I) with |sigma_j| <= sqrt(N(I) * eps_+) + 1 (eps_+ the
    totally positive unit generator), the totally positive ones if any,
    then least |trace|, then least (a, b)."""
    K = I.field
    n = I.norm()
    eps_plus = K.totally_positive_unit_gens()[0].embeddings()[0]
    B = math.ceil(math.sqrt(n * eps_plus) + 1)
    gens = [x for x in enumerate_in_box(I, [(-B, B), (-B, B)]) if abs(x.norm()) == n]
    pos = [x for x in gens if x.is_totally_positive()]
    return min(pos or gens, key=lambda x: (abs(x.trace()), x.a, x.b))


# N(eps) = -1 over Q(sqrt 2), Q(sqrt 5), Q(sqrt 13), Q(sqrt 29); +1 over
# Q(sqrt 3), Q(sqrt 7) and Q(sqrt 46), where eps = 24335 + 3588 sqrt 46
GEN_FIELDS = {D: make_field(D) for D in (2, 3, 5, 7, 13, 29, 46)}
GEN_PRIMES = {
    D: [P for p in primes_up_to(5000) for P in K.primes_above(p) if P.norm() <= 10**5]
    for D, K in GEN_FIELDS.items()
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(GEN_FIELDS)),
       st.lists(st.tuples(st.integers(0, 10**4), st.integers(1, 4)), max_size=6))
# P^16 for P = (3 + sqrt 7) over Q(sqrt 7): the product of prime generators
# is 2^8 eps^8, whose smaller embedding 2^8 eps^-8 cancels to 0 in floats
@example(7, [(0, 4)] * 4)
def test_principal_generator_against_box_search(D, picks):
    K = GEN_FIELDS[D]
    primes = GEN_PRIMES[D]
    I = K.unit_ideal()
    for i, e in picks:
        P = primes[i % len(primes)]
        if I.norm() * P.norm() ** e <= 10**5:
            for _ in range(e):
                I = I * P.ideal
    g = principal_generator(I)
    assert Ideal.principal(g) == I
    assert g == _box_search_generator(I)


def test_principal_generator_large_regulators():
    # eps up to 7.5e10 (Q(sqrt 1381)), where a box search is out of reach,
    # and 1e269 (Q(sqrt 48799)), where the embeddings of g leave the float
    # range: the generator spans I, and no element of the wider set
    # +-g*eps^k, |k| <= 3, beats it under the rule (the window holds |k| <= 1)
    for D in (46, 94, 1381, 48799):
        K = make_field(D)
        eps, inv = K.eps, K.eps.inverse()
        for I in ideals_of_norm_up_to(K, 500):
            g = principal_generator(I)
            assert Ideal.principal(g) == I
            wide, up, down = [g, -g], g, g
            for _ in range(3):
                up, down = up * eps, down * inv
                wide += [up, -up, down, -down]
            pos = [x for x in wide if x.is_totally_positive()]
            assert g.is_totally_positive() == bool(pos)
            best = min(pos or wide, key=lambda x: (abs(x.trace()), x.a, x.b))
            assert g == best, (D, I)


@pytest.mark.parametrize("D", [1381, 48799])
def test_embeddings_of_unit_powers(D):
    # sigma_j(eps^k), |k| <= 40, against Decimal embeddings: the smaller
    # conjugate is about eps^-|k| (8.4e-270 for eps over Q(sqrt 48799)),
    # all of whose digits p -+ r sqrt(D) in floats would lose.  Powers whose
    # larger embedding leaves the float range are skipped; below 2^1000 the
    # Decimal a + b*omega cancels at most 610 of its 800 digits
    K = make_field(D)
    checked = 0
    with localcontext() as ctx:
        ctx.prec = 800
        root = Decimal(D).sqrt()
        omegas = [(1 + r) / 2 if D % 4 == 1 else r for r in (root, -root)]
        for k in range(-40, 41):
            u = K.one()
            for _ in range(abs(k)):
                u = u * (K.eps if k > 0 else K.eps.inverse())
            exact = [_dec(u.a) + _dec(u.b) * w for w in omegas]
            if max(abs(e) for e in exact) > Decimal(2) ** 1000:
                continue
            for got, want in zip(u.embeddings(), exact):
                assert abs(Decimal(got) - want) <= Decimal("1e-14") * abs(want), (D, k)
            checked += 1
    assert checked == (55 if D == 1381 else 3)


# ---------------------------------------------------------------------------
# property tests: each checks the integer core against an independent route

FIELDS = {1: Q, 2: K2, 5: K5}

rationals = st.fractions(-1000, 1000, max_denominator=60)


def _frac_mul(D, u, v):
    """(a1 + b1 w)(a2 + b2 w) by the textbook formulas: w = sqrt 2 over
    Q(sqrt 2) (w^2 = 2) and w = (1 + sqrt 5)/2 over Q(sqrt 5) (w^2 = w + 1)."""
    (a1, b1), (a2, b2) = u, v
    if D == 1:
        return a1 * a2, Fraction(0)
    if D == 2:
        return a1 * a2 + 2 * b1 * b2, a1 * b2 + a2 * b1
    return a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2


def _frac_norm_trace(D, u):
    a, b = u
    if D == 1:
        return a, a
    if D == 2:
        return a * a - 2 * b * b, 2 * a
    return a * a + a * b - b * b, 2 * a + b


def _dec(f):
    return Decimal(f.numerator) / f.denominator


def _decimal_embedding(D, u, j):
    """sigma_j(a + b w) in the current decimal precision."""
    a, b = u
    if D == 1:
        return _dec(a)
    r = Decimal(D).sqrt() * (1 if j == 0 else -1)
    w = r if D == 2 else (1 + r) / 2
    return _dec(a) + _dec(b) * w


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, 2, 5]), rationals, rationals, rationals, rationals, rationals)
def test_element_ops_against_fractions(D, a1, b1, a2, b2, q):
    K = FIELDS[D]
    if D == 1:
        b1 = b2 = Fraction(0)
    x, y = K.element(a1, b1), K.element(a2, b2)
    assert (x.a, x.b) == (a1, b1)
    assert x.den > 0 and math.gcd(x.x, x.y, x.den) == 1
    assert (x + y).coords() == (a1 + a2, b1 + b2)
    assert (x - y).coords() == (a1 - a2, b1 - b2)
    assert (x * y).coords() == _frac_mul(D, (a1, b1), (a2, b2))
    n, t = _frac_norm_trace(D, (a1, b1))
    assert x.norm() == n and x.trace() == t
    assert x.is_integral() == (a1.denominator == 1 and b1.denominator == 1)
    if n != 0:
        inv = x.inverse()
        assert _frac_mul(D, (a1, b1), (inv.a, inv.b)) == (1, 0)
    with localcontext() as ctx:
        ctx.prec = 80
        for j in range(K.d):
            diff = _decimal_embedding(D, (a1, b1), j) - _dec(q)
            # an embedding equals a rational only when it is rational itself
            exact = D == 1 or b1 == 0
            want = 0 if exact and a1 == q else (1 if diff > 0 else -1)
            assert x.compare_embedding(j, q) == want


def _lattice_brute(I, box):
    """Lattice points (m*a + n*b + n*c*w)/den of I in box, over a float
    estimate of the (m, n) range widened by 3 and tested in 80 digits."""
    K = I.field
    a, b, c, den = I.a, I.b, I.c, I.den
    (lo1, hi1), (lo2, hi2) = box
    w1, w2 = ((1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2) if K.D == 5 else (
        math.sqrt(K.D), -math.sqrt(K.D))
    # sigma_1 - sigma_2 = n*c*(w1 - w2)/den
    s = c * (w1 - w2) / den
    ns = range(math.floor(float(lo1 - hi2) / s) - 3, math.ceil(float(hi1 - lo2) / s) + 4)
    out = set()
    with localcontext() as ctx:
        ctx.prec = 80
        for n in ns:
            base = (n * b + n * c * w1) / den
            for m in range(math.floor((float(lo1) - base) * den / a) - 3,
                           math.ceil((float(hi1) - base) * den / a) + 4):
                x = Fraction(m * a + n * b, den), Fraction(n * c, den)
                e1, e2 = (_decimal_embedding(K.D, x, j) for j in (0, 1))
                if _dec(lo1) <= e1 <= _dec(hi1) and _dec(lo2) <= e2 <= _dec(hi2):
                    out.add(x)
    return out


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([2, 5]),
    st.integers(1, 6), st.integers(-3, 3), st.integers(1, 3),
    st.tuples(*[st.integers(-10**6, 10**6)] * 2),
    st.tuples(*[st.fractions(0, 12, max_denominator=7)] * 4),
    st.integers(1, 3),
)
def test_enumerate_in_box_large_coordinates(D, ga, gb, gden, centre, offs, scale):
    K = FIELDS[D]
    I = Ideal.principal(K.element(Fraction(ga, gden), Fraction(gb, gden)))
    lo1 = Fraction(centre[0]) - offs[0] * scale
    lo2 = Fraction(centre[1]) - offs[1] * scale
    box = [(lo1, lo1 + offs[2] * scale), (lo2, lo2 + offs[3] * scale)]
    got = enumerate_in_box(I, box)
    assert [(e.a, e.b) for e in got] == sorted(_lattice_brute(I, box))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 5]),
       st.lists(st.tuples(st.fractions(-30, 30, max_denominator=6),
                          st.fractions(-30, 30, max_denominator=6)), min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_hnf_canonical_under_permutation(D, coords, rnd):
    K = FIELDS[D]
    gens = [K.element(a, b if K.d == 2 else 0) for a, b in coords]
    if all(g.is_zero() for g in gens):
        return
    I = Ideal.from_generators(K, gens)
    # HNF shape: 0 <= b < a, c | a, c | b, den minimal
    assert 0 <= I.b < I.a and I.a % I.c == 0 and I.b % I.c == 0
    g = math.gcd(I.a, I.b, I.c, I.den) if K.d == 2 else math.gcd(I.a, I.den)
    assert g == 1
    assert all(I.contains(g) for g in gens)
    for _ in range(3):
        perm = list(gens)
        rnd.shuffle(perm)
        assert Ideal.from_generators(K, perm).key() == I.key()


def _basis(I):
    K = I.field
    if K.d == 1:
        return [K.element(Fraction(I.a, I.den))]
    return [K.element(Fraction(I.a, I.den)), K.element(Fraction(I.b, I.den), Fraction(I.c, I.den))]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1, 2, 5]),
       st.tuples(*[st.fractions(-30, 30, max_denominator=6)] * 4))
def test_ideal_product_against_generators(D, v):
    K = FIELDS[D]
    x = K.element(v[0], v[1] if K.d == 2 else 0)
    y = K.element(v[2], v[3] if K.d == 2 else 0)
    if x.is_zero() or y.is_zero():
        return
    I, J = Ideal.principal(x), Ideal.principal(y)
    prods = [u * w for u in _basis(I) for w in _basis(J)]
    assert I * J == Ideal.from_generators(K, prods)
    assert I * J == Ideal.principal(x * y)
    assert (I * J).norm() == abs((x * y).norm())
