"""Exact arithmetic in Q and real quadratic fields Q(sqrt(D)).

Elements, ideals in Hermite normal form, prime factorization, unit and
class data, archimedean embeddings, and the additive character psi.
Everything arithmetic is exact (integers / fractions); floating point
enters only through the embedding helpers, and all box/positivity tests
are decided by exact integer comparisons so that no boundary element is
ever dropped.

The sentinel D = 1 denotes the rational field.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Optional, Sequence, Union

Rat = Union[int, Fraction]


class FieldError(ValueError):
    """Invalid field construction or cross-field operation."""


class BoundExceeded(ValueError):
    """A configured enumeration/factorization bound was exceeded."""


def _is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _sqrt_cmp(p: Fraction, r: Fraction, D: int, q: Fraction) -> int:
    """Sign of (p + r*sqrt(D)) - q, computed exactly."""
    lhs = p - q
    if r == 0:
        return (lhs > 0) - (lhs < 0)
    # compare r*sqrt(D) with -lhs = q - p
    rhs = q - p
    if r > 0:
        if rhs <= 0:
            return 1
        # both positive: compare r^2 D with rhs^2
        diff = r * r * D - rhs * rhs
        return (diff > 0) - (diff < 0)
    else:
        if rhs >= 0:
            return -1
        diff = r * r * D - rhs * rhs
        return (diff < 0) - (diff > 0)


def _floor_sqrt_expr(p: Fraction, r: Fraction, D: int) -> int:
    """floor(p + r*sqrt(D)) computed exactly."""
    if r == 0:
        return p.numerator // p.denominator
    # floor(r sqrt(D)) for rational r = n/m with n of either sign
    n, m = r.numerator, r.denominator
    if n >= 0:
        fl = isqrt(n * n * D) // m
        # correct: fl <= n sqrt(D)/m < fl+1 may fail by one near integers
        while _sqrt_cmp(Fraction(0), r, D, Fraction(fl + 1)) >= 0:
            fl += 1
        while _sqrt_cmp(Fraction(0), r, D, Fraction(fl)) < 0:
            fl -= 1
    else:
        fl = -(isqrt(n * n * D) // m) - 1
        while _sqrt_cmp(Fraction(0), r, D, Fraction(fl + 1)) >= 0:
            fl += 1
        while _sqrt_cmp(Fraction(0), r, D, Fraction(fl)) < 0:
            fl -= 1
    # now add the rational part
    total = Fraction(fl) + p
    guess = total.numerator // total.denominator
    # adjust for the fractional parts interacting
    while _sqrt_cmp(p, r, D, Fraction(guess + 1)) >= 0:
        guess += 1
    while _sqrt_cmp(p, r, D, Fraction(guess)) < 0:
        guess -= 1
    return guess


@dataclass(frozen=True)
class RingElement:
    """a + b*omega in the field K; a, b exact rationals."""

    field: "FieldDesc"
    a: Fraction
    b: Fraction

    @staticmethod
    def make(K: "FieldDesc", a: Rat, b: Rat = 0) -> "RingElement":
        return RingElement(K, Fraction(a), Fraction(b))

    # --- internal exact representation p + r*sqrt(D) ---
    def _pr(self) -> tuple[Fraction, Fraction]:
        K = self.field
        if K.d == 1:
            return self.a, Fraction(0)
        if K.omega_is_half:
            return self.a + self.b / 2, self.b / 2
        return self.a, self.b

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.field, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        return RingElement(self.field, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "RingElement":
        return RingElement(self.field, -self.a, -self.b)

    def __mul__(self, other: Union["RingElement", Rat]) -> "RingElement":
        if isinstance(other, (int, Fraction)):
            return RingElement(self.field, self.a * other, self.b * other)
        self._check(other)
        K = self.field
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if K.d == 1:
            return RingElement(K, a1 * a2, Fraction(0))
        if K.omega_is_half:
            # omega^2 = omega + (D-1)/4
            c = Fraction(K.D - 1, 4)
            return RingElement(K, a1 * a2 + b1 * b2 * c, a1 * b2 + a2 * b1 + b1 * b2)
        return RingElement(K, a1 * a2 + b1 * b2 * K.D, a1 * b2 + a2 * b1)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["RingElement", Rat]) -> "RingElement":
        if isinstance(other, (int, Fraction)):
            return RingElement(self.field, self.a / other, self.b / other)
        return self * other.inverse()

    def inverse(self) -> "RingElement":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element")
        if self.field.d == 1:
            return RingElement(self.field, Fraction(1) / self.a, Fraction(0))
        return self.conj() * (Fraction(1) / n)

    def conj(self) -> "RingElement":
        """Galois conjugate (identity over Q)."""
        K = self.field
        if K.d == 1:
            return self
        if K.omega_is_half:
            # sigma(omega) = 1 - omega
            return RingElement(K, self.a + self.b, -self.b)
        return RingElement(K, self.a, -self.b)

    def norm(self) -> Fraction:
        """Product of the embeddings (the element itself over Q)."""
        return self.a if self.field.d == 1 else (self * self.conj()).a

    def trace(self) -> Fraction:
        if self.field.d == 1:
            return self.a
        return (self + self.conj()).a

    def embeddings(self) -> tuple[float, ...]:
        K = self.field
        if K.d == 1:
            return (float(self.a),)
        p, r = self._pr()
        s = math.sqrt(K.D)
        return (float(p) + float(r) * s, float(p) - float(r) * s)

    def compare_embedding(self, j: int, q: Rat) -> int:
        """Exact sign of sigma_j(self) - q for rational q."""
        p, r = self._pr()
        if j == 1:
            r = -r
        return _sqrt_cmp(p, r, self.field.D, Fraction(q))

    def sgn(self) -> tuple[int, ...]:
        return tuple(self.compare_embedding(j, 0) for j in range(self.field.d))

    def is_totally_positive(self) -> bool:
        return all(s > 0 for s in self.sgn())

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def coords(self) -> tuple[Fraction, Fraction]:
        return (self.a, self.b)

    def _check(self, other: "RingElement") -> None:
        if self.field is not other.field and self.field.D != other.field.D:
            raise FieldError("elements of different fields")

    def __repr__(self) -> str:
        if self.field.d == 1 or self.b == 0:
            return str(self.a)
        return f"({self.a}+{self.b}w)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and self.field.D == other.field.D
            and self.a == other.a
            and self.b == other.b
        )

    def __hash__(self) -> int:
        return hash((self.field.D, self.a, self.b))


def _hnf_from_vectors(vecs: Sequence[tuple[int, int]]) -> tuple[int, int, int]:
    """HNF (a, b, c) of the Z-module spanned by vectors (x, y) = x + y*omega.

    Returns a, b, c with the lattice Z*a + Z*(b + c*omega), c | a, c | b,
    0 <= b < a, a, c > 0.  Requires full rank (nonzero module of rank 2
    in the quadratic case is guaranteed for nonzero ideals).
    """
    vs = [list(v) for v in vecs if v != (0, 0)]
    if not vs:
        raise ValueError("zero module")
    # reduce second coordinates to a single gcd row by integer column ops
    c = 0
    u = [0, 0]
    for v in vs:
        x, y = v
        if y == 0:
            continue
        if c == 0:
            c = abs(y)
            u = [x if y > 0 else -x, c]
            continue
        # gcd step on (u[1], y)
        g, s, t = _xgcd(u[1], y)
        new = [s * u[0] + t * x, g]
        # the combination (y/g)*u - (u1/g)*v has second coord 0
        k1, k2 = y // g, u[1] // g
        vs.append([k1 * u[0] - k2 * x, 0])
        u = new
        c = g
    xs = [abs(v[0]) for v in vs if v[1] == 0 and v[0] != 0]
    a = 0
    for x in xs:
        a = math.gcd(a, x)
    if c == 0:
        # rank 1 rational module (degree-1 field)
        if a == 0:
            raise ValueError("zero module")
        return a, 0, 1
    if a == 0:
        raise ValueError("rank-deficient module is not an ideal")
    b = u[0] % a
    return a, b, c


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class Ideal:
    """Fractional ideal in HNF: (1/den) * (Z*a + Z*(b + c*omega)).

    For Q the lattice is Z*a (b = 0, c = 1).  Integral ideals have
    den = 1.  The representation is canonical, so equality of ideals is
    equality of tuples.
    """

    field: "FieldDesc"
    a: int
    b: int
    c: int
    den: int = 1

    @staticmethod
    def from_hnf(K: "FieldDesc", a: int, b: int, c: int, den: int = 1) -> "Ideal":
        g = math.gcd(math.gcd(a, b), math.gcd(c, den))
        a, b, c, den = a // g, b // g, c // g, den // g
        return Ideal(K, a, b % a if a else 0, c, den)

    @staticmethod
    def from_generators(K: "FieldDesc", gens: Sequence[RingElement]) -> "Ideal":
        den = 1
        for g in gens:
            den = _lcm(den, _lcm(g.a.denominator, g.b.denominator))
        vecs = []
        for g in gens:
            x = g * den
            vecs.append((int(x.a), int(x.b)))
            if K.d == 2:
                xo = x * K.omega()
                vecs.append((int(xo.a), int(xo.b)))
        a, b, c = _hnf_from_vectors(vecs)
        return Ideal.from_hnf(K, a, b, c, den)

    @staticmethod
    def principal(x: RingElement) -> "Ideal":
        if x.is_zero():
            raise ValueError("zero ideal")
        return Ideal.from_generators(x.field, [x])

    def basis(self) -> tuple[RingElement, RingElement]:
        K = self.field
        den = Fraction(1, self.den)
        return (
            RingElement(K, self.a * den, Fraction(0)),
            RingElement(K, self.b * den, self.c * den),
        )

    def norm(self) -> Fraction:
        K = self.field
        if K.d == 1:
            return Fraction(self.a, self.den)
        return Fraction(self.a * self.c, self.den**2)

    def is_integral(self) -> bool:
        return self.den == 1

    def contains(self, x: RingElement) -> bool:
        xa, xb = x.a * self.den, x.b * self.den
        if xa.denominator != 1 or xb.denominator != 1:
            return False
        xa, xb = int(xa), int(xb)
        if self.field.d == 1:
            return xa % self.a == 0
        if xb % self.c != 0:
            return False
        return (xa - (xb // self.c) * self.b) % self.a == 0

    def __mul__(self, other: Union["Ideal", RingElement]) -> "Ideal":
        if isinstance(other, RingElement):
            other = Ideal.principal(other)
        K = self.field
        b1, b2 = self.basis()
        c1, c2 = other.basis()
        prods = [b1 * c1, b1 * c2, b2 * c1, b2 * c2]
        den = 1
        for p in prods:
            den = _lcm(den, _lcm(p.a.denominator, p.b.denominator))
        vecs = []
        for p in prods:
            x = p * den
            vecs.append((int(x.a), int(x.b)))
        a, b, c = _hnf_from_vectors(vecs)
        return Ideal.from_hnf(K, a, b, c, den)

    def __add__(self, other: "Ideal") -> "Ideal":
        """Ideal gcd."""
        den = _lcm(self.den, other.den)
        vecs = []
        for I in (self, other):
            m = den // I.den
            vecs.append((I.a * m, 0))
            vecs.append((I.b * m, I.c * m))
        a, b, c = _hnf_from_vectors(vecs)
        return Ideal.from_hnf(self.field, a, b, c, den)

    def conj(self) -> "Ideal":
        b1, b2 = self.basis()
        return Ideal.from_generators(self.field, [b1.conj(), b2.conj()])

    def inverse(self) -> "Ideal":
        n = self.norm()
        if self.field.d == 1:
            g = RingElement.make(self.field, Fraction(1) / n)
            return Ideal.from_generators(self.field, [g])
        # I * conj(I) = (N I) in a quadratic field, so I^{-1} = conj(I)/N(I)
        num = Fraction(1) / n
        b1, b2 = self.conj().basis()
        return Ideal.from_generators(self.field, [b1 * num, b2 * num])

    def intersect(self, other: "Ideal") -> "Ideal":
        """Ideal lcm: a*b*(a+b)^{-1}."""
        return (self * other) * (self + other).inverse()

    def divides(self, other: "Ideal") -> bool:
        """self | other, i.e. other subseteq self."""
        b1, b2 = other.basis()
        return self.contains(b1) and self.contains(b2)

    def reduce(self, x: RingElement) -> RingElement:
        """Canonical representative of x modulo this integral ideal."""
        if not self.is_integral():
            raise ValueError("reduction requires an integral ideal")
        xa, xb = int(x.a), int(x.b)
        K = self.field
        if K.d == 1:
            return RingElement.make(K, xa % self.a)
        j = xb % self.c
        k = (xb - j) // self.c
        xa2 = (xa - k * self.b) % self.a
        return RingElement.make(K, xa2, j)

    def __repr__(self) -> str:
        if self.field.d == 1:
            return f"({Fraction(self.a, self.den)})"
        return f"Ideal[{self.a},{self.b}+{self.c}w]/{self.den}"

    def key(self) -> tuple:
        return (self.a, self.b, self.c, self.den)

    def __hash__(self) -> int:
        return hash((self.field.D,) + self.key())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ideal)
            and self.field.D == other.field.D
            and self.key() == other.key()
        )


def _lcm(a: int, b: int) -> int:
    return a * b // math.gcd(a, b)


@dataclass(frozen=True)
class PrimeIdeal:
    """Prime ideal over the rational prime p with residue degree f."""

    ideal: Ideal
    p: int
    f: int
    e: int
    # two-element representation (p, second); second is None for (p) inert/rational
    second: Optional[RingElement]

    def norm(self) -> int:
        return self.p**self.f

    def __repr__(self) -> str:
        if self.second is None:
            return f"P({self.p})"
        return f"P({self.p},{self.second})"


class FieldDesc:
    """A totally real field of degree <= 2 with unit and class data."""

    def __init__(self, D: int, allow_class_number: bool = False, _defer: bool = False):
        if D < 1 or not _is_squarefree(D):
            raise FieldError(f"D = {D} is not a squarefree positive integer")
        self.D = D
        self.d = 1 if D == 1 else 2
        self.omega_is_half = self.d == 2 and D % 4 == 1
        if self.d == 1:
            self.disc = 1
        else:
            self.disc = D if D % 4 == 1 else 4 * D
        self._prime_cache: dict[int, list[PrimeIdeal]] = {}
        self._gen_cache: dict[tuple, RingElement] = {}

        if self.d == 1:
            self.eps = RingElement.make(self, 1)
            self.eps_norm = 1
            self.regulator = 0.0
            self.h = 1
            self.h_narrow = 1
        else:
            p, q, n = _fundamental_unit(D)
            # unit (p + q*sqrt(D)) expressed in the (1, omega) basis
            self.eps = self._from_sqrt_coords(p, q)
            self.eps_norm = n
            self.regulator = math.log(self.eps.embeddings()[0])
            self.h_narrow = _narrow_class_number(self.disc)
            if n == -1:
                self.h = self.h_narrow
            else:
                # no unit of norm -1: narrow class number is twice the wide one
                assert self.h_narrow % 2 == 0
                self.h = self.h_narrow // 2
        if self.h != 1 and not allow_class_number:
            raise FieldError(
                f"Q(sqrt({D})) has class number {self.h}; pass allow_class_number=True"
            )
        self.different = self._compute_different()
        self.delta = self._compute_delta()

    # --- basic constructors -------------------------------------------------
    def one(self) -> RingElement:
        return RingElement.make(self, 1)

    def zero(self) -> RingElement:
        return RingElement.make(self, 0)

    def omega(self) -> RingElement:
        if self.d == 1:
            raise FieldError("no omega over Q")
        return RingElement.make(self, 0, 1)

    def sqrtD(self) -> RingElement:
        """The element sqrt(D)."""
        if self.d == 1:
            return self.one()
        if self.omega_is_half:
            return RingElement(self, Fraction(-1), Fraction(2))  # 2*omega - 1
        return self.omega()

    def element(self, a: Rat, b: Rat = 0) -> RingElement:
        return RingElement.make(self, a, b)

    def _from_sqrt_coords(self, p: Fraction, q: Fraction) -> RingElement:
        """Element p + q*sqrt(D) in the integral basis."""
        p, q = Fraction(p), Fraction(q)
        if self.d == 1:
            return RingElement.make(self, p)
        if self.omega_is_half:
            # p + q sqrt(D) = (p - q) + 2q * omega
            return RingElement(self, p - q, 2 * q)
        return RingElement(self, p, q)

    def ideal(self, *gens: Union[RingElement, Rat]) -> Ideal:
        elems = [
            g if isinstance(g, RingElement) else RingElement.make(self, g) for g in gens
        ]
        return Ideal.from_generators(self, elems)

    def unit_ideal(self) -> Ideal:
        return self.ideal(self.one())

    # --- units ----------------------------------------------------------------
    def totally_positive_unit_gens(self) -> list[RingElement]:
        """Generators of U^+ modulo {1}."""
        if self.d == 1:
            return []
        u = self.eps if self.eps_norm == 1 else self.eps * self.eps
        # eps > 1 and N = +1 forces both embeddings positive
        assert u.is_totally_positive()
        return [u]

    def units_mod_squares(self) -> list[RingElement]:
        """Representatives of U/U^2; exactly 2^d classes."""
        if self.d == 1:
            return [self.one(), -self.one()]
        e = self.eps
        return [self.one(), -self.one(), e, -e]

    # --- different --------------------------------------------------------------
    def _compute_different(self) -> Ideal:
        if self.d == 1:
            return self.unit_ideal()
        # f'(omega) generates the different for a monogenic order
        if self.omega_is_half:
            gen = RingElement(self, Fraction(-1), Fraction(2))  # 2*omega - 1 = sqrt(D)
        else:
            gen = RingElement(self, Fraction(0), Fraction(2))  # 2*sqrt(D)
        return Ideal.principal(gen)

    def _compute_delta(self) -> RingElement:
        """Canonical generator f'(omega) of the different (1 over Q)."""
        if self.d == 1:
            return self.one()
        if self.omega_is_half:
            return RingElement(self, Fraction(-1), Fraction(2))
        return RingElement(self, Fraction(0), Fraction(2))

    # --- primes and factorization -------------------------------------------
    def primes_above(self, p: int) -> list[PrimeIdeal]:
        if p in self._prime_cache:
            return self._prime_cache[p]
        if self.d == 1:
            P = PrimeIdeal(self.ideal(p), p, 1, 1, None)
            self._prime_cache[p] = [P]
            return [P]
        res: list[PrimeIdeal]
        if self.omega_is_half:
            # min poly x^2 - x - (D-1)/4
            if p == 2:
                if self.D % 8 == 1:
                    r = _poly_root_mod(1, -(self.D - 1) // 4, 2)
                    res = self._split_primes(2, r)
                else:  # D = 5 mod 8: inert
                    res = [PrimeIdeal(self.ideal(2), 2, 2, 1, None)]
            else:
                if self.D % p == 0:
                    r = _poly_root_mod(1, -(self.D - 1) // 4, p)
                    res = [self._ramified_prime(p, r)]
                else:
                    r = _poly_root_mod(1, -(self.D - 1) // 4, p)
                    res = self._split_primes(p, r) if r is not None else [
                        PrimeIdeal(self.ideal(p), p, 2, 1, None)
                    ]
        else:
            # min poly x^2 - D
            if p == 2:
                # always ramified: (2, omega) if D even, (2, 1+omega) if D odd
                r = 0 if self.D % 2 == 0 else 1
                res = [self._ramified_prime(2, r)]
            elif self.D % p == 0:
                res = [self._ramified_prime(p, 0)]
            else:
                r = _sqrt_mod(self.D % p, p)
                res = self._split_primes(p, r) if r is not None else [
                    PrimeIdeal(self.ideal(p), p, 2, 1, None)
                ]
        self._prime_cache[p] = res
        return res

    def _split_primes(self, p: int, r: int) -> list[PrimeIdeal]:
        out = []
        for root in sorted({r % p, self._other_root(r, p)}):
            gen2 = RingElement.make(self, -root, 1)  # omega - root
            I = self.ideal(p, gen2)
            out.append(PrimeIdeal(I, p, 1, 1, gen2))
        if len(out) == 1:  # double root would mean ramified; guarded by callers
            raise RuntimeError("split prime with a single root")
        return out

    def _other_root(self, r: int, p: int) -> int:
        # second root of the minimal polynomial mod p
        if self.omega_is_half:
            return (1 - r) % p
        return (-r) % p

    def _ramified_prime(self, p: int, r: int) -> PrimeIdeal:
        gen2 = RingElement.make(self, -r, 1)
        I = self.ideal(p, gen2)
        if I.norm() != p:
            # adjust: for D even, (2, omega) works; D odd 2-ramified wants 1+omega
            raise RuntimeError("bad ramified prime data")
        return PrimeIdeal(I, p, 1, 2, gen2)

    def prime_valuation(self, P: PrimeIdeal, I: Ideal) -> int:
        v = 0
        J = I
        while P.ideal.divides(J):
            J = J * P.ideal.inverse()
            v += 1
        return v


# ---------------------------------------------------------------------------
# module-level operations


def make_field(D: int, allow_class_number: bool = False) -> FieldDesc:
    """Construct Q (D = 1) or the real quadratic field Q(sqrt(D)).

    The fundamental unit comes from the continued-fraction expansion of
    sqrt(D); the class number from the cycle structure of reduced
    indefinite binary quadratic forms of discriminant D_K, checked for
    D <= 100 against the embedded startup table.
    """
    K = FieldDesc(D, allow_class_number=allow_class_number)
    if D in _FIELD_TABLE:
        disc, eps_a, eps_b, h = _FIELD_TABLE[D]
        ok = (
            K.disc == disc
            and K.h == h
            and K.eps == RingElement.make(K, eps_a, eps_b)
        )
        if not ok:
            raise FieldError(f"computed invariants for D={D} disagree with table")
    return K


def ideal_arith(a: Ideal, b: Ideal, op: str) -> Union[Ideal, bool]:
    """Ideal arithmetic: op in {mul, gcd, lcm, divides}."""
    if a.field.D != b.field.D:
        raise FieldError("ideals of different fields")
    if op == "mul":
        return a * b
    if op == "gcd":
        return a + b
    if op == "lcm":
        return a.intersect(b)
    if op == "divides":
        return a.divides(b)
    raise ValueError(f"unknown op {op!r}")


_FACTOR_CACHE: dict[tuple, list] = {}


def factor_ideal(I: Ideal, bound: int = 10**7) -> list[tuple[PrimeIdeal, int]]:
    """Factor an integral ideal into prime ideals with positive exponents."""
    if not I.is_integral():
        raise ValueError("factor_ideal requires an integral ideal")
    n = I.norm()
    if n > bound:
        raise BoundExceeded(f"norm {n} exceeds bound {bound}")
    key = (I.field.D,) + I.key()
    if key in _FACTOR_CACHE:
        return _FACTOR_CACHE[key]
    K = I.field
    out = []
    for p in _factor_int(int(n)):
        for P in K.primes_above(p):
            v = K.prime_valuation(P, I)
            if v:
                out.append((P, v))
    if len(_FACTOR_CACHE) < 200000:
        _FACTOR_CACHE[key] = out
    return out


def arith_functions(I: Ideal) -> tuple[int, int, int]:
    """(mu, phi, tau) of a nonzero integral ideal."""
    if I.norm() == 0:
        raise ValueError("zero ideal")
    fac = factor_ideal(I)
    mu = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
    phi = 1
    tau = 1
    for P, e in fac:
        q = P.norm()
        phi *= q**e - q ** (e - 1)
        tau *= e + 1
    return mu, phi, tau


def enumerate_in_box(
    I: Ideal,
    box: Sequence[tuple[Rat, Rat]],
    totally_positive: bool = False,
) -> list[RingElement]:
    """All elements of the ideal lattice whose embedding vector lies in box.

    Box bounds are rationals, treated as closed intervals and tested
    exactly.  Output in lexicographic order of (a, b) coordinates.
    """
    K = I.field
    if len(box) != K.d:
        raise ValueError("box must have one interval per embedding")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("box must be bounded")
        lo, hi = Fraction(lo), Fraction(hi)
        if hi < lo:
            return []
    out = []
    if K.d == 1:
        lo, hi = Fraction(box[0][0]), Fraction(box[0][1])
        if totally_positive:
            lo = max(lo, Fraction(0))
        step = Fraction(I.a, I.den)
        k0 = math.ceil(lo / step)
        k1 = math.floor(hi / step)
        for k in range(k0, k1 + 1):
            x = RingElement.make(K, k * step)
            if x.is_zero() and totally_positive:
                continue
            if totally_positive and not x.is_totally_positive():
                continue
            out.append(x)
        return out

    (lo1, hi1), (lo2, hi2) = [(Fraction(l), Fraction(h)) for l, h in box]
    if totally_positive:
        lo1, lo2 = max(lo1, Fraction(0)), max(lo2, Fraction(0))
    # lattice vectors: v1 = a/den, v2 = (b + c*omega)/den
    # element m*v1 + n*v2: sigma_j = (m*a + n*b)/den + n*c*omega_j/den
    a, b, c, den = I.a, I.b, I.c, I.den
    # sigma1(x) - sigma2(x) = n*c*(omega1 - omega2)/den, where omega1 - omega2
    # is sqrt(D) for omega = (1+sqrt(D))/2 and 2*sqrt(D) for omega = sqrt(D)
    mult = 1 if K.omega_is_half else 2
    lo_d, hi_d = lo1 - hi2, hi1 - lo2
    coef = Fraction(c * mult, den)
    # float bounds for n with a margin of 2; candidates are then tested exactly
    s = math.sqrt(K.D)
    n_min = math.floor(float(lo_d) / (float(coef) * s)) - 2
    n_max = math.ceil(float(hi_d) / (float(coef) * s)) + 2
    half = Fraction(1, 2)
    for n in range(n_min, n_max + 1):
        # element x = (m*a + n*b)/den + (n*c/den) * omega
        # sigma1(x) = q + r sqrt(D) + m*a/den with (q, r) from n-part
        npart = RingElement(K, Fraction(n * b, den), Fraction(n * c, den))
        p0, r0 = npart._pr()
        step = Fraction(a, den)
        # m-range from sigma1 in [lo1, hi1]: m*step in [lo1 - (p0 + r0 sqrt D), ...]
        m_lo = _ceil_div_expr(lo1 - p0, -r0, K.D, step)
        m_hi = _floor_div_expr(hi1 - p0, -r0, K.D, step)
        for m in range(m_lo, m_hi + 1):
            x = RingElement(K, Fraction(m * a + n * b, den), Fraction(n * c, den))
            if x.compare_embedding(0, lo1) < 0 or x.compare_embedding(0, hi1) > 0:
                continue
            if x.compare_embedding(1, lo2) < 0 or x.compare_embedding(1, hi2) > 0:
                continue
            if totally_positive and not x.is_totally_positive():
                continue
            out.append(x)
    out.sort(key=lambda e: (e.a, e.b))
    return out


def _floor_div_expr(p: Fraction, r: Fraction, D: int, step: Fraction) -> int:
    """floor((p + r*sqrt(D)) / step) for step > 0."""
    return _floor_sqrt_expr(p / step, r / step, D)


def _ceil_div_expr(p: Fraction, r: Fraction, D: int, step: Fraction) -> int:
    return -_floor_sqrt_expr(-p / step, -r / step, D)


class ResidueSystem:
    """Representatives of o/c with the unit subgroup and inversion table."""

    def __init__(self, c: Ideal, bound: int = 10**6):
        if not c.is_integral() or c.norm() == 0:
            raise ValueError("modulus must be a nonzero integral ideal")
        if c.norm() > bound:
            raise BoundExceeded(f"norm {c.norm()} exceeds bound {bound}")
        self.modulus = c
        K = c.field
        self.field = K
        n = int(c.norm())
        self.size = n
        if K.d == 1:
            self.reps = [RingElement.make(K, i) for i in range(c.a)]
        else:
            self.reps = [
                RingElement.make(K, i, j) for j in range(c.c) for i in range(c.a)
            ]
        one = K.unit_ideal()
        self.units = [
            x for x in self.reps if not x.is_zero() and (Ideal.principal(x) + c).norm() == 1
        ] if n > 1 else []
        if n == 1:
            self.units = [K.zero()]  # single class; its unit is the class of 0 = 1
        self.phi = len(self.units)
        self._index = {x.coords(): i for i, x in enumerate(self.units)}
        self._inverse: dict[tuple, RingElement] = {}

    def reduce(self, x: RingElement) -> RingElement:
        return self.modulus.reduce(x)

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        return self.reduce(x * y)

    def inverse(self, x: RingElement) -> RingElement:
        key = self.reduce(x).coords()
        if key in self._inverse:
            return self._inverse[key]
        if self.size == 1:
            return self.field.zero()
        xr = self.reduce(x)
        # x^(phi-1) by square and multiply; valid since x^phi = 1
        e = self.phi - 1
        result = self.reduce(self.field.one())
        base = xr
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        if not self.mul(result, xr) == self.reduce(self.field.one()):
            raise ValueError(f"{x} is not a unit modulo {self.modulus}")
        self._inverse[key] = result
        return result


def residue_system(c: Ideal, bound: int = 10**6) -> ResidueSystem:
    return ResidueSystem(c, bound=bound)


def psi(x: RingElement) -> complex:
    """The additive character e(Tr x) of K_infinity."""
    t = x.trace()
    frac = t - (t.numerator // t.denominator)
    return cmath.exp(2j * cmath.pi * float(frac))


# ---------------------------------------------------------------------------
# helpers: rational primes, square roots mod p, Pell equation, class numbers


def _factor_int(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a mod p (p odd prime), or None."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _poly_root_mod(tr: int, nm: int, p: int) -> Optional[int]:
    """Root of x^2 - tr*x + nm mod p (used for omega's minimal polynomial)."""
    if p == 2:
        for r in (0, 1):
            if (r * r - tr * r + nm) % 2 == 0:
                return r
        return None
    disc = (tr * tr - 4 * nm) % p
    s = _sqrt_mod(disc, p)
    if s is None:
        return None
    inv2 = pow(2, p - 2, p)
    return (tr + s) * inv2 % p


def _cf_sqrt_pell(D: int) -> tuple[int, int, int]:
    """Fundamental solution of x^2 - D y^2 = +-1 via the continued fraction
    of sqrt(D).  Returns (x, y, norm)."""
    a0 = isqrt(D)
    if a0 * a0 == D:
        raise ValueError("D must not be a perfect square")
    m, d, a = 0, 1, a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        if d == 1:
            # period ends at the term before a = 2*a0 appears with d = 1
            break
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    n = p * p - D * q * q
    assert abs(n) == 1
    return p, q, n


def _fundamental_unit(D: int) -> tuple[Fraction, Fraction, int]:
    """Fundamental unit of O_K as (p, q, norm) with unit = p + q*sqrt(D)."""
    x, y, n = _cf_sqrt_pell(D)
    if D % 4 != 1:
        return Fraction(x), Fraction(y), n
    # look for a smaller unit (a + b sqrt D)/2 with a, b odd: a^2 - D b^2 = +-4
    limit = int(round((8 * y / D) ** (1 / 3))) + 10
    for b in range(1, min(y, limit) + 1):
        for s in (-4, 4):
            t = D * b * b + s
            if t < 0:
                continue
            a = isqrt(t)
            if a * a == t and (a - b) % 2 == 0:
                if a % 2 == 1:
                    return Fraction(a, 2), Fraction(b, 2), s // 4
                # even a, b would reduce to an integer solution; skip
    return Fraction(x), Fraction(y), n


def _narrow_class_number(disc: int) -> int:
    """Number of cycles of reduced indefinite binary quadratic forms of
    positive discriminant disc (the narrow class number)."""
    forms = set()
    s = isqrt(disc)
    for b in range(1, s + 1):
        if (disc - b * b) % 4 != 0:
            continue
        ac = (b * b - disc) // 4  # negative
        for a in _divisors_signed(-ac):
            c = ac // a
            # reduced: 0 < b < sqrt(disc), sqrt(disc) - b < 2|a| < sqrt(disc) + b
            if _is_reduced_form(a, b, c, disc):
                forms.add((a, b, c))
    cycles = 0
    remaining = set(forms)
    while remaining:
        f = next(iter(remaining))
        cycles += 1
        g = f
        while True:
            g = _rho_step(g, disc)
            remaining.discard(g)
            if g == f:
                break
    return cycles


def _divisors_signed(n: int) -> list[int]:
    n = abs(n)
    ds = []
    for i in range(1, isqrt(n) + 1):
        if n % i == 0:
            ds += [i, n // i, -i, -(n // i)]
    return sorted(set(ds))


def _is_reduced_form(a: int, b: int, c: int, disc: int) -> bool:
    if b <= 0 or b * b >= disc:
        return False
    # sqrt(disc) - b < 2|a| < sqrt(disc) + b, exact integer test
    t = 2 * abs(a)
    # t > sqrt(disc) - b  <=>  t + b > sqrt(disc)
    if t + b <= 0 or (t + b) ** 2 <= disc:
        return False
    # t < sqrt(disc) + b  <=>  t - b < sqrt(disc)
    if t - b >= 0 and (t - b) ** 2 >= disc:
        return False
    return True


def _rho_step(f: tuple[int, int, int], disc: int) -> tuple[int, int, int]:
    """Reduction step on indefinite forms: (a,b,c) -> (c, b', c')."""
    a, b, c = f
    s = isqrt(disc)
    # choose b' = -b mod 2c in the reduced window
    cc = abs(c)
    if cc > s:
        lo = -cc
        # |b'| minimal with b' = -b mod 2c
        b2 = (-b) % (2 * cc)
        if b2 > cc:
            b2 -= 2 * cc
    else:
        # largest b' < sqrt(disc) with b' = -b mod 2c
        b2 = (-b) % (2 * cc)
        k = (s - b2) // (2 * cc)
        b2 += 2 * cc * k
    c2 = (b2 * b2 - disc) // (4 * c)
    return (c, b2, c2)


def principal_generator(I: Ideal) -> RingElement:
    """Canonical generator of a principal ideal in an h = 1 field.

    Preference order: totally positive if possible, then minimal trace,
    then lexicographically smallest (a, b).  Deterministic.
    """
    K = I.field
    key = ("gen",) + I.key()
    if key in K._gen_cache:
        return K._gen_cache[key]
    n = I.norm()
    if K.d == 1:
        g = RingElement.make(K, n)
        K._gen_cache[key] = g
        return g
    if K.h != 1:
        raise FieldError("principal generators require h = 1")
    # search elements with |sigma_j| <= sqrt(N * eps_+); unit-reduction bound
    eps_plus = float(K.totally_positive_unit_gens()[0].embeddings()[0])
    B = Fraction(math.ceil(math.sqrt(float(n) * eps_plus) + 1))
    cands = []
    for x in enumerate_in_box(I, [(-B, B), (-B, B)]):
        if x.is_zero():
            continue
        if abs(x.norm()) == n:
            cands.append(x)
    if not cands:
        raise RuntimeError(f"no generator found for {I} in box {B}")
    tot_pos = [x for x in cands if x.is_totally_positive()]
    pool = tot_pos if tot_pos else cands
    g = min(pool, key=lambda x: (x.trace() if tot_pos else abs(x.trace()), x.a, x.b))
    K._gen_cache[key] = g
    return g


def unit_reduced_generator(I: Ideal) -> RingElement:
    """Generator of a principal ideal, built multiplicatively from the
    fixed prime generators and reduced into the unit fundamental domain.

    Much faster than the box search of principal_generator for composite
    ideals; deterministic, totally positive whenever the ideal admits a
    totally positive generator.
    """
    K = I.field
    n = I.norm()
    if K.d == 1:
        return RingElement.make(K, n)
    if K.h != 1:
        raise FieldError("generators require h = 1")
    key = ("ugen",) + I.key()
    if key in K._gen_cache:
        return K._gen_cache[key]
    g = K.one()
    for P, e in factor_ideal(I):
        pg = principal_generator(P.ideal)
        for _ in range(e):
            g = g * pg
    # balance the two embeddings with a power of the fundamental unit
    e1, e2 = (abs(v) for v in g.embeddings())
    le = math.log(K.eps.embeddings()[0])
    k = round(math.log(e1 / e2) / (2 * le))
    if k > 0:
        g = g * _elt_pow(K.eps.inverse(), k)
    elif k < 0:
        g = g * _elt_pow(K.eps, -k)
    cands = [g, -g, g * K.eps, -(g * K.eps), g * K.eps.inverse(), -(g * K.eps.inverse())]
    pos = [x for x in cands if x.is_totally_positive()]
    pool = pos if pos else cands
    out = min(pool, key=lambda x: (abs(x.trace()), x.a, x.b))
    K._gen_cache[key] = out
    return out


def _elt_pow(x: RingElement, k: int) -> RingElement:
    out = x.field.one()
    for _ in range(k):
        out = out * x
    return out


def ideals_of_norm_up_to(K: FieldDesc, bound: int) -> list[Ideal]:
    """All nonzero integral ideals of norm <= bound, sorted by (norm, HNF)."""
    primes = [p for p in range(2, bound + 1) if _is_prime(p)]
    pps: list[list[tuple[Ideal, int]]] = []  # per prime ideal: powers with norms
    for p in primes:
        if p > bound:
            continue
        for P in K.primes_above(p):
            if P.norm() > bound:
                continue
            powers = []
            I = P.ideal
            nm = P.norm()
            k = 1
            while nm <= bound:
                powers.append((I, nm))
                k += 1
                I = I * P.ideal
                nm = P.norm() ** k
            pps.append(powers)
    out = [K.unit_ideal()]
    for powers in pps:
        new = list(out)
        for I, nm in powers:
            for J in out:
                nj = int(J.norm()) * nm
                if nj <= bound:
                    new.append(J * I)
        out = new
    out.sort(key=lambda I: (I.norm(), I.key()))
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def field_to_json(K: FieldDesc) -> dict:
    return {
        "D": K.D,
        "disc": K.disc,
        "degree": K.d,
        "h": K.h,
        "eps": [str(K.eps.a), str(K.eps.b)],
        "eps_norm": K.eps_norm,
        "regulator": K.regulator,
        "different_norm": str(K.different.norm()),
    }


def ideal_to_json(I: Ideal) -> dict:
    return {
        "D": I.field.D,
        "hnf": [I.a, I.b, I.c],
        "den": I.den,
        "norm": str(I.norm()),
        "factors": [
            [[P.p, P.f, P.e], e] for P, e in factor_ideal(I)
        ] if I.is_integral() and I.norm() <= 10**7 else None,
    }


# Embedded invariants (D, D_K, eps in the (1, omega) basis, h) for squarefree
# D <= 100, generated by the continued-fraction and form-cycle routines and
# cross-checked at startup by make_field.
_FIELD_TABLE: dict[int, tuple[int, Fraction, Fraction, int]] = {}


def _build_table() -> None:
    for D in range(2, 101):
        if not _is_squarefree(D):
            continue
        K = FieldDesc(D, allow_class_number=True)
        _FIELD_TABLE[D] = (K.disc, K.eps.a, K.eps.b, K.h)


_build_table()
