"""Exact arithmetic in Q and real quadratic fields Q(sqrt(D)).

Elements, ideals in Hermite normal form, prime factorization, unit and
class data, archimedean embeddings, and the additive character psi.

Everything arithmetic runs on Python integers.  An element is stored as
(x + y*omega)/den with one shared denominator, an ideal as an integral
HNF lattice over one denominator; Fractions appear only at the edges (the
rational coordinates RingElement.a and .b, and the norm or trace of a
non-integral element or ideal).  Floating point enters only through the
embedding helpers, and every box/positivity test is decided by the exact
sign of P + R*sqrt(D) on integers, so that no boundary element is ever
dropped.

The ring o_K = Z[omega] is described once, by the minimal polynomial
x^2 - t*x + n of omega (FieldDesc.t_omega, n_omega): it gives the product
omega^2 = t*omega - n, the primes over p from its roots mod p and the
different from f'(omega) = 2*omega - t.  Fields are supported for D <= MAX_D
and a fundamental unit within the float range.

One continued-fraction step on beta = (b + sqrt(disc))/(2a), _cf_step, is
the only reduction of a lattice: walked from omega it gives the fundamental
unit, its cycles on the reduced pairs (a, b) count the class number, and
walked from an ideal's HNF it gives a generator of the ideal.

Ideals are listed in one place, ideals_of_norm_up_to, one product of prime
ideals per ideal under a norm bound of at most MAX_BOX_POINTS; a
factorisation is read off the HNF (_factor).

The units of o/c are decided in one place, unit_mask: a bytearray over the
classes i + j*omega with one strided slice cleared per prime P | c.  Both
ResidueSystem (the characters) and the Kloosterman tables read it, and it
is the one place that refuses a residue ring: more than MAX_BOX_POINTS
classes, the limit of the lattice and ideal walks, raise ValueError.

The generator of a principal ideal is chosen in one place too,
principal_generator: the generator from the walk, balanced by a power of
the fundamental unit, from which one rule (totally positive if possible,
then least |trace|, then least (a, b)) picks among six unit multiples.  Its
docstring proves that the six always hold the canonical element.  Module
caches are functools.lru_cache with a fixed maxsize.

The sentinel D = 1 denotes the rational field.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt
from typing import Optional, Sequence, Union

Rat = Union[int, Fraction]

# the largest D accepted: the class number search grows like D
MAX_D = 10**7

# enumerate_in_box refuses a box whose volume over the covolume of the
# lattice exceeds this many points: over Q(sqrt D) a box of side B holds
# about B^2/sqrt(disc) points of o_K, and the default trace height 300 of
# shifted.dirichlet_D over Q(sqrt 5) needs about 6.4e5; ideals_of_norm_up_to
# refuses a norm bound above it, and unit_mask a residue ring o/c with more
# classes
MAX_BOX_POINTS = 1_000_000

# factor_ideal refuses a norm above this: its cost is trial division of the
# HNF entries, not a walk over classes
MAX_FACTOR_NORM = 10**7


class FieldError(ValueError):
    """Invalid field construction or cross-field operation."""


def _is_squarefree(n: int) -> bool:
    if n <= 0:
        return False
    d = 2
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 1
    return True


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def _sqrt_sign(P: int, R: int, D: int) -> int:
    """Exact sign of P + R*sqrt(D) for integers P, R and D >= 1."""
    sp, sr = _sign(P), _sign(R)
    if sp == sr or sr == 0:
        return sp
    if sp == 0:
        return sr
    # opposite signs: the larger of P^2 and R^2 D wins
    diff = P * P - R * R * D
    return sp if diff > 0 else (sr if diff < 0 else 0)


def _floor_sqrt(P: int, R: int, D: int, M: int) -> int:
    """floor((P + R*sqrt(D)) / M) for integers P, R, D >= 1 and M > 0.

    Exact, since floor(z / M) = floor(floor(z) / M) for real z and
    floor(R*sqrt(D)) is an integer square root.
    """
    n = R * R * D
    s = isqrt(n)
    if R < 0:
        s = -s - (s * s != n)
    return (P + s) // M


def _ceil_sqrt(P: int, R: int, D: int, M: int) -> int:
    """ceil((P + R*sqrt(D)) / M) for M > 0."""
    return -_floor_sqrt(-P, -R, D, M)


def _ratio(q: Rat) -> tuple[int, int]:
    """(numerator, denominator > 0) of an exact rational (ints, Fractions
    and floats, which are dyadic rationals)."""
    if type(q) is int:
        return q, 1
    q = Fraction(q)
    return q.numerator, q.denominator


class RingElement:
    """The element (x + y*omega)/den of the field K.

    x, y and den are integers with den > 0 and gcd(x, y, den) = 1, so
    each element has exactly one representation (y = 0 over Q).  Elements
    are immutable: the slots are read-only by contract.  The rational
    coordinates in the basis (1, omega) are the Fraction-valued properties
    a = x/den and b = y/den.
    """

    __slots__ = ("field", "x", "y", "den")

    def __init__(self, field: "FieldDesc", x: int, y: int = 0, den: int = 1):
        if den != 1:
            if den < 0:
                x, y, den = -x, -y, -den
            g = math.gcd(x, y, den)
            if g != 1:
                x, y, den = x // g, y // g, den // g
        self.field = field
        self.x = x
        self.y = y
        self.den = den

    @staticmethod
    def make(K: "FieldDesc", a: Rat, b: Rat = 0) -> "RingElement":
        """The element a + b*omega for rationals a, b."""
        if type(a) is int and type(b) is int:
            return RingElement(K, a, b)
        a, b = Fraction(a), Fraction(b)
        den = _lcm(a.denominator, b.denominator)
        return RingElement(
            K, a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den
        )

    @property
    def a(self) -> Fraction:
        return Fraction(self.x, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.y, self.den)

    def __add__(self, other: "RingElement") -> "RingElement":
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return RingElement(self.field, self.x + other.x, self.y + other.y, d1)
        return RingElement(
            self.field, self.x * d2 + other.x * d1, self.y * d2 + other.y * d1, d1 * d2
        )

    def __sub__(self, other: "RingElement") -> "RingElement":
        return self + (-other)

    def __neg__(self) -> "RingElement":
        return RingElement(self.field, -self.x, -self.y, self.den)

    def __mul__(self, other: Union["RingElement", Rat]) -> "RingElement":
        K = self.field
        if isinstance(other, RingElement):
            self._check(other)
            x1, y1, x2, y2 = self.x, self.y, other.x, other.y
            den = self.den * other.den
            if K.d == 1:
                return RingElement(K, x1 * x2, 0, den)
            # omega^2 = t*omega - n
            yy = y1 * y2
            return RingElement(
                K, x1 * x2 - K.n_omega * yy, x1 * y2 + x2 * y1 + K.t_omega * yy, den
            )
        if isinstance(other, int):
            return RingElement(K, self.x * other, self.y * other, self.den)
        if isinstance(other, Fraction):
            n, d = other.numerator, other.denominator
            return RingElement(K, self.x * n, self.y * n, self.den * d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Union["RingElement", Rat]) -> "RingElement":
        if isinstance(other, RingElement):
            return self * other.inverse()
        n, d = _ratio(other)
        if n == 0:
            raise ZeroDivisionError("division by zero")
        return RingElement(self.field, self.x * d, self.y * d, self.den * n)

    def _norm_num(self) -> int:
        """Norm of x + y*omega (the norm of self times den^2)."""
        K = self.field
        x, y = self.x, self.y
        if K.d == 1:
            return x
        return x * x + K.t_omega * x * y + K.n_omega * y * y

    def inverse(self) -> "RingElement":
        K = self.field
        n = self._norm_num()
        if n == 0:
            raise ZeroDivisionError("zero element")
        if K.d == 1:
            return RingElement(K, self.den, 0, n)
        # (v/den)^-1 = den * conj(v) / N(v)
        return RingElement(K, (self.x + K.t_omega * self.y) * self.den, -self.y * self.den, n)

    def conj(self) -> "RingElement":
        """Galois conjugate (identity over Q); conj(omega) = t - omega."""
        K = self.field
        if K.d == 1:
            return self
        return RingElement(K, self.x + K.t_omega * self.y, -self.y, self.den)

    def norm(self) -> Rat:
        """Product of the embeddings (the element itself over Q); an int
        when the element is integral."""
        d = self.den if self.field.d == 1 else self.den * self.den
        n = self._norm_num()
        return n if d == 1 else Fraction(n, d)

    def trace(self) -> Rat:
        """Sum of the embeddings; an int when the element is integral."""
        K = self.field
        n = self.x if K.d == 1 else 2 * self.x + K.t_omega * self.y
        return n if self.den == 1 else Fraction(n, self.den)

    def _sqrt_form(self) -> tuple[int, int, int]:
        """(P, R, M) with sigma_1 = (P + R sqrt D)/M, sigma_2 = (P - R sqrt D)/M."""
        K = self.field
        if K.d == 1:
            return self.x, 0, self.den
        return 2 * self.x + K.t_omega * self.y, K.s_omega * self.y, 2 * self.den

    def embeddings(self) -> tuple[float, ...]:
        """(sigma_1, sigma_2) in floats.  Where p = P/M and r sqrt(D) agree
        to better than 2^-26 relative, p -+ r sqrt(D) has lost more than
        half its digits, and the smaller conjugate is N(self)/sigma_large
        from the exact norm; elsewhere both are p +- r sqrt(D), so every
        embedding that kept half its digits keeps its bits."""
        P, R, M = self._sqrt_form()
        if self.field.d == 1:
            return (P / M,)
        p, r = P / M, R / M
        rs = r * self.field.sqrt_D
        s1, s2 = p + rs, p - rs
        if abs(abs(p) - abs(rs)) < 2**-26 * abs(p):
            n = (P * P - R * R * self.field.D) / (M * M)
            return (s1, n / s1) if abs(s1) > abs(s2) else (n / s2, s2)
        return (s1, s2)

    def compare_embedding(self, j: int, q: Rat) -> int:
        """Exact sign of sigma_j(self) - q for rational q."""
        P, R, M = self._sqrt_form()
        qn, qd = _ratio(q)
        return _sqrt_sign(P * qd - qn * M, -R * qd if j == 1 else R * qd, self.field.D)

    def sgn(self) -> tuple[int, ...]:
        P, R, _ = self._sqrt_form()
        if self.field.d == 1:
            return (_sign(P),)
        D = self.field.D
        return (_sqrt_sign(P, R, D), _sqrt_sign(P, -R, D))

    def is_totally_positive(self) -> bool:
        return all(s > 0 for s in self.sgn())

    def is_integral(self) -> bool:
        return self.den == 1

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def coords(self) -> tuple[Rat, Rat]:
        """The coordinates (a, b); plain ints when the element is integral."""
        if self.den == 1:
            return (self.x, self.y)
        return (self.a, self.b)

    def _check(self, other: "RingElement") -> None:
        if self.field is not other.field and self.field.D != other.field.D:
            raise FieldError("elements of different fields")

    def __repr__(self) -> str:
        if self.field.d == 1 or self.y == 0:
            return str(self.a)
        return f"({self.a}+{self.b}w)"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingElement)
            and self.x == other.x
            and self.y == other.y
            and self.den == other.den
            and self.field.D == other.field.D
        )

    def __hash__(self) -> int:
        # the hash of (D, a, b): ints hash like the equal Fractions
        if self.den == 1:
            return hash((self.field.D, self.x, self.y))
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


class Ideal:
    """Fractional ideal in HNF: (1/den) * (Z*a + Z*(b + c*omega)).

    For Q the lattice is Z*a (b = 0, c = 1).  Integral ideals have
    den = 1.  The representation is canonical (den is the least positive
    integer with den*I integral), so equality of ideals is equality of
    tuples.  Ideals are immutable: the slots are read-only by contract.
    """

    __slots__ = ("field", "a", "b", "c", "den")

    def __init__(self, field: "FieldDesc", a: int, b: int, c: int, den: int = 1):
        self.field = field
        self.a = a
        self.b = b
        self.c = c
        self.den = den

    @staticmethod
    def from_hnf(K: "FieldDesc", a: int, b: int, c: int, den: int = 1) -> "Ideal":
        if K.d == 1:
            g = math.gcd(a, den)
            return Ideal(K, a // g, 0, 1, den // g)
        g = math.gcd(a, b, c, den)
        if g != 1:
            a, b, c, den = a // g, b // g, c // g, den // g
        return Ideal(K, a, b % a, c, den)

    @staticmethod
    def _from_vectors(K: "FieldDesc", vecs: Sequence[tuple[int, int]], den: int) -> "Ideal":
        """The ideal (1/den) * (Z-span of the integer vectors)."""
        a, b, c = _hnf_from_vectors(vecs)
        return Ideal.from_hnf(K, a, b, c, den)

    @staticmethod
    def from_generators(K: "FieldDesc", gens: Sequence[RingElement]) -> "Ideal":
        den = 1
        for g in gens:
            den = _lcm(den, g.den)
        vecs = []
        for g in gens:
            m = den // g.den
            x, y = g.x * m, g.y * m
            vecs.append((x, y))
            if K.d == 2:
                # omega*(x + y*omega) = -n*y + (x + t*y)*omega
                vecs.append((-K.n_omega * y, x + K.t_omega * y))
        return Ideal._from_vectors(K, vecs, den)

    @staticmethod
    def principal(x: RingElement) -> "Ideal":
        if x.is_zero():
            raise ValueError("zero ideal")
        return Ideal.from_generators(x.field, [x])

    def norm(self) -> Rat:
        """The norm; an int when the ideal is integral."""
        if self.field.d == 1:
            n, d = self.a, self.den
        else:
            n, d = self.a * self.c, self.den * self.den
        return n if d == 1 else Fraction(n, d)

    def is_integral(self) -> bool:
        return self.den == 1

    def _has(self, x: int, y: int, d: int) -> bool:
        """Whether (x + y*omega)/d lies in the ideal."""
        if d != 1 or self.den != 1:
            x, rx = divmod(x * self.den, d)
            y, ry = divmod(y * self.den, d)
            if rx or ry:
                return False
        if self.field.d == 1:
            return x % self.a == 0
        if y % self.c:
            return False
        return (x - (y // self.c) * self.b) % self.a == 0

    def contains(self, x: RingElement) -> bool:
        return self._has(x.x, x.y, x.den)

    def __mul__(self, other: Union["Ideal", RingElement]) -> "Ideal":
        if isinstance(other, RingElement):
            other = Ideal.principal(other)
        self._check(other)
        K = self.field
        a1, b1, c1 = self.a, self.b, self.c
        a2, b2, c2 = other.a, other.b, other.c
        den = self.den * other.den
        if K.d == 1:
            return Ideal.from_hnf(K, a1 * a2, 0, 1, den)
        # products of the two HNF bases; omega^2 = t*omega - n
        cc = c1 * c2
        vecs = [
            (a1 * a2, 0),
            (a1 * b2, a1 * c2),
            (a2 * b1, a2 * c1),
            (b1 * b2 - K.n_omega * cc, b1 * c2 + b2 * c1 + K.t_omega * cc),
        ]
        return Ideal._from_vectors(K, vecs, den)

    def __add__(self, other: "Ideal") -> "Ideal":
        """Ideal gcd."""
        self._check(other)
        K = self.field
        den = _lcm(self.den, other.den)
        m1, m2 = den // self.den, den // other.den
        if K.d == 1:
            return Ideal.from_hnf(K, math.gcd(self.a * m1, other.a * m2), 0, 1, den)
        vecs = [
            (self.a * m1, 0),
            (self.b * m1, self.c * m1),
            (other.a * m2, 0),
            (other.b * m2, other.c * m2),
        ]
        return Ideal._from_vectors(K, vecs, den)

    def _check(self, other: "Ideal") -> None:
        if self.field is not other.field and self.field.D != other.field.D:
            raise FieldError("ideals of different fields")

    def _conj_vectors(self, scale: int) -> list[tuple[int, int]]:
        """scale times the conjugates of the HNF basis (conj(omega) = t - omega)."""
        t = self.field.t_omega
        return [(self.a * scale, 0), ((self.b + t * self.c) * scale, -self.c * scale)]

    def conj(self) -> "Ideal":
        if self.field.d == 1:
            return self
        return Ideal._from_vectors(self.field, self._conj_vectors(1), self.den)

    def inverse(self) -> "Ideal":
        K = self.field
        if K.d == 1:
            return Ideal.from_hnf(K, self.den, 0, 1, self.a)
        # I * conj(I) = (N I) in a quadratic field, so
        # I^{-1} = conj(I)/N(I) = (den/(a*c)) * conj(Z*a + Z*(b + c*omega))
        return Ideal._from_vectors(K, self._conj_vectors(self.den), self.a * self.c)

    def intersect(self, other: "Ideal") -> "Ideal":
        """Ideal lcm: a*b*(a+b)^{-1}."""
        return (self * other) * (self + other).inverse()

    def divides(self, other: "Ideal") -> bool:
        """self | other, i.e. other subseteq self."""
        if not self._has(other.a, 0, other.den):
            return False
        return self.field.d == 1 or self._has(other.b, other.c, other.den)

    def reduce(self, x: RingElement) -> RingElement:
        """Canonical representative of x modulo this integral ideal."""
        if not self.is_integral():
            raise ValueError("reduction requires an integral ideal")
        if not x.is_integral():
            raise ValueError("reduction requires an integral element")
        K = self.field
        if K.d == 1:
            return RingElement(K, x.x % self.a)
        j = x.y % self.c
        k = (x.y - j) // self.c
        return RingElement(K, (x.x - k * self.b) % self.a, j)

    def __repr__(self) -> str:
        if self.field.d == 1:
            return f"({Fraction(self.a, self.den)})"
        return f"Ideal[{self.a},{self.b}+{self.c}w]/{self.den}"

    def key(self) -> tuple:
        return (self.a, self.b, self.c, self.den)

    def __hash__(self) -> int:
        return hash((self.field.D, self.a, self.b, self.c, self.den))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ideal)
            and self.a == other.a
            and self.b == other.b
            and self.c == other.c
            and self.den == other.den
            and self.field.D == other.field.D
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

    def __hash__(self) -> int:
        # the ideal determines the other fields; lru_cache keys such as
        # EigenvalueSystem.alpha hash a PrimeIdeal on every call
        return hash(self.ideal)

    def __repr__(self) -> str:
        if self.second is None:
            return f"P({self.p})"
        return f"P({self.p},{self.second})"


class FieldDesc:
    """A totally real field of degree <= 2 with unit and class data."""

    def __init__(self, D: int, allow_class_number: bool = False):
        if D > MAX_D:
            raise FieldError(f"D = {D} is above the supported range D <= {MAX_D}")
        if D < 1 or not _is_squarefree(D):
            raise FieldError(f"D = {D} is not a squarefree positive integer")
        self.D = D
        self.d = 1 if D == 1 else 2
        # omega is a root of x^2 - t_omega*x + n_omega, and omega_1 - omega_2 =
        # s_omega*sqrt(D): omega = (1 + sqrt(D))/2 for D = 1 mod 4, else
        # omega = sqrt(D).  Nothing else looks at D mod 4.
        if self.d == 1:
            self.disc = 1
            self.t_omega, self.n_omega, self.s_omega = 0, 0, 0
        elif D % 4 == 1:
            self.disc = D
            self.t_omega, self.n_omega, self.s_omega = 1, -(D - 1) // 4, 1
        else:
            self.disc = 4 * D
            self.t_omega, self.n_omega, self.s_omega = 0, -D, 2
        self.sqrt_D = math.sqrt(D)
        self._unit_ideal = Ideal(self, 1, 0, 1, 1)

        if self.d == 1:
            self.eps = RingElement.make(self, 1)
            self.eps_norm = 1
            self.regulator = 0.0
            self.h = 1
        else:
            # the walk from omega returns to o_K after one period (Cohen, GTM
            # 138, 5.7), and eps > 1 because each factor beta - q is in (0, 1)
            self.eps = _walk(self, 1, self.t_omega).inverse()
            self.eps_norm = self.eps.norm()
            assert abs(self.eps_norm) == 1
            try:
                self.regulator = math.log(self.eps.embeddings()[0])
            except OverflowError:
                raise FieldError(
                    f"the fundamental unit of Q(sqrt({D})) is beyond the float range"
                ) from None
            self.h = _class_number(self.disc)
        if self.h != 1 and not allow_class_number:
            raise FieldError(
                f"Q(sqrt({D})) has class number {self.h}; pass allow_class_number=True"
            )
        # the different is generated by f'(omega) = 2*omega - t (1 over Q)
        self.delta = self.one() if self.d == 1 else RingElement(self, -self.t_omega, 2)
        self.different = Ideal.principal(self.delta)

    # --- basic constructors -------------------------------------------------
    def one(self) -> RingElement:
        return RingElement(self, 1)

    def zero(self) -> RingElement:
        return RingElement(self, 0)

    def omega(self) -> RingElement:
        if self.d == 1:
            raise FieldError("no omega over Q")
        return RingElement(self, 0, 1)

    def sqrtD(self) -> RingElement:
        """The element sqrt(D) (1 over Q)."""
        if self.d == 1:
            return self.one()
        return self.delta / self.s_omega

    def element(self, a: Rat, b: Rat = 0) -> RingElement:
        return RingElement.make(self, a, b)

    def ideal(self, *gens: Union[RingElement, Rat]) -> Ideal:
        elems = [
            g if isinstance(g, RingElement) else RingElement.make(self, g) for g in gens
        ]
        return Ideal.from_generators(self, elems)

    def unit_ideal(self) -> Ideal:
        return self._unit_ideal

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

    # --- primes and factorization -------------------------------------------
    @functools.lru_cache(maxsize=100_000)
    def primes_above(self, p: int) -> list[PrimeIdeal]:
        """The primes over p, from a root r of x^2 - t*x + n mod p: none means
        p is inert, p | disc that p = (p, omega - r)^2, and otherwise p splits
        into (p, omega - r)(p, omega - (t - r)), listed by root."""
        if self.d == 1:
            return [PrimeIdeal(self.ideal(p), p, 1, 1, None)]
        t = self.t_omega
        r = _poly_root_mod(t, self.n_omega, p)
        if r is None:
            return [PrimeIdeal(self.ideal(p), p, 2, 1, None)]
        e = 2 if self.disc % p == 0 else 1
        out = []
        for root in sorted({r, (t - r) % p}):
            gen2 = RingElement(self, -root, 1)  # omega - root
            out.append(PrimeIdeal(self.ideal(p, gen2), p, 1, e, gen2))
        return out


# ---------------------------------------------------------------------------
# module-level operations


def make_field(D: int, allow_class_number: bool = False) -> FieldDesc:
    """Construct Q (D = 1) or the real quadratic field Q(sqrt(D)).

    The fundamental unit and the class number both come from the
    continued-fraction walk (_walk, _class_number).
    """
    return FieldDesc(D, allow_class_number=allow_class_number)


def factor_ideal(I: Ideal) -> list[tuple[PrimeIdeal, int]]:
    """Factor an integral ideal into prime ideals with positive exponents;
    a norm above MAX_FACTOR_NORM is refused."""
    if not I.is_integral():
        raise ValueError("factor_ideal requires an integral ideal")
    n = I.norm()
    if n > MAX_FACTOR_NORM:
        raise ValueError(f"ideal of norm {n}, above the limit of {MAX_FACTOR_NORM}")
    return _factor(I)


@functools.lru_cache(maxsize=200_000)
def _factor(I: Ideal) -> list[tuple[PrimeIdeal, int]]:
    """Read from the HNF: I = c*J with J = (A, B + omega) primitive, A = a/c
    and B = b/c.  P | p divides (c) e_P*v_p(c) times; J, prime to every
    rational integer, v_p(A) times when P = (p, omega - r) holds B + omega,
    that is B + r = 0 mod p, and else not.  Over Q, v_p(I) = v_p(a)."""
    K = I.field
    if K.d == 1:
        return [(K.primes_above(p)[0], v) for p, v in _factor_int(I.a).items()]
    c = I.c
    A, B = I.a // c, I.b // c
    fc, fA = _factor_int(c), _factor_int(A)
    out = []
    for p in sorted(fc.keys() | fA.keys()):
        for P in K.primes_above(p):
            v = P.e * fc.get(p, 0)
            if P.second is not None and (B - P.second.x) % p == 0:  # second = omega - r
                v += fA.get(p, 0)
            if v:
                out.append((P, v))
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


def divisors(I: Ideal) -> list[Ideal]:
    """All integral divisors of a nonzero integral ideal, ordered by
    (norm, HNF key)."""
    out = [I.field.unit_ideal()]
    for P, e in factor_ideal(I):
        cur = list(out)
        Pk = P.ideal
        for _ in range(e):
            cur += [J * Pk for J in out]
            Pk = Pk * P.ideal
        out = cur
    out.sort(key=lambda J: (J.norm(), J.key()))
    return out


def enumerate_in_box(
    I: Ideal,
    box: Sequence[tuple[Rat, Rat]],
    totally_positive: bool = False,
) -> list[RingElement]:
    """All elements of the ideal lattice whose embedding vector lies in box.

    Box bounds are rationals (or floats, taken at their exact binary
    value), treated as closed intervals.  Both the range of lattice rows
    and the range within each row come from exact integer floors of
    (P + R*sqrt(D))/M, so no boundary element is lost or gained.  Output
    in lexicographic order of (a, b) coordinates.

    A box whose volume over the covolume N(I)*sqrt(disc) of I exceeds
    MAX_BOX_POINTS is refused with ValueError before any point is made.
    """
    K = I.field
    if len(box) != K.d:
        raise ValueError("box must have one interval per embedding")
    for lo, hi in box:
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("box must be bounded")
    bounds = [(_ratio(lo), _ratio(hi)) for lo, hi in box]
    if any(hn * ld < ln * hd for (ln, ld), (hn, hd) in bounds):
        return []
    if totally_positive:
        bounds = [((max(ln, 0), ld), hi) for (ln, ld), hi in bounds]
    # points / MAX_BOX_POINTS = volume / (N(I) sqrt(disc) MAX_BOX_POINTS),
    # compared exactly in squares
    volume = math.prod(max(Fraction(hn, hd) - Fraction(ln, ld), 0) for (ln, ld), (hn, hd) in bounds)
    ratio = volume / (I.norm() * MAX_BOX_POINTS)
    if ratio * ratio > K.disc:
        # log10 of the estimate, from the integers: it may pass the float range
        lg = math.log10(ratio.numerator * MAX_BOX_POINTS) - math.log10(ratio.denominator)
        lg -= math.log10(K.disc) / 2
        raise ValueError(
            f"the box holds about {10 ** (lg % 1):.2g}e{math.floor(lg)} lattice points"
            f" (volume over covolume), above the limit of {MAX_BOX_POINTS}"
        )
    a, b, c, den = I.a, I.b, I.c, I.den
    if K.d == 1:
        # k*a/den in [lo, hi]
        (ln, ld), (hn, hd) = bounds[0]
        k0 = -((-ln * den) // (ld * a))
        k1 = (hn * den) // (hd * a)
        return [
            RingElement(K, k * a, 0, den)
            for k in range(k0, k1 + 1)
            if k or not totally_positive
        ]
    # the element (m*a + n*b + n*c*omega)/den has sigma_j = (P + m*A +- R*sqrt D)/M
    # with M = 2*den, A = 2*a, P = 2*n*b + t*n*c, R = s*n*c (see _sqrt_form)
    D, t, s = K.D, K.t_omega, K.s_omega
    ((l1n, l1d), (h1n, h1d)), ((l2n, l2d), (h2n, h2d)) = bounds
    M, A = 2 * den, 2 * a
    # sigma_1 - sigma_2 = s*c*n*sqrt(D)/den lies in [lo1 - hi2, hi1 - lo2] = [L, H]:
    # n in [L, H] * den / (s*c*sqrt D) = [L, H] * den * sqrt(D) / (s*c*D)
    Ln, Ld = l1n * h2d - h2n * l1d, l1d * h2d
    Hn, Hd = h1n * l2d - l2n * h1d, h1d * l2d
    n_min = _ceil_sqrt(0, Ln * den, D, Ld * s * c * D)
    n_max = _floor_sqrt(0, Hn * den, D, Hd * s * c * D)
    pts = []
    for n in range(n_min, n_max + 1):
        P, R = 2 * n * b + t * n * c, s * n * c
        # lo_j <= (P + m*A + e_j*R*sqrt D)/M <= hi_j for e = (+1, -1)
        m_lo = max(
            _ceil_sqrt(l1n * M - l1d * P, -l1d * R, D, l1d * A),
            _ceil_sqrt(l2n * M - l2d * P, l2d * R, D, l2d * A),
        )
        m_hi = min(
            _floor_sqrt(h1n * M - h1d * P, -h1d * R, D, h1d * A),
            _floor_sqrt(h2n * M - h2d * P, h2d * R, D, h2d * A),
        )
        for m in range(m_lo, m_hi + 1):
            pts.append((m * a + n * b, n * c))
    # all points share den, so (a, b) order is the order of the numerators
    pts.sort()
    return [
        RingElement(K, x, y, den) for x, y in pts if (x or y) or not totally_positive
    ]


def unit_mask(c: Ideal) -> bytearray:
    """The units of o/c as a mask over the classes i + j*omega (0 <= i < c.a,
    0 <= j < c.c), in rows by j of length c.a: byte j*c.a + i is 1 exactly
    when i + j*omega is prime to c.

    A class is a unit when it lies in no prime P | c.  For P = (p), inert or
    over Q, that excludes p | i and p | j; for P = (p, omega - r) it excludes
    p | i + j*r.  Since p | c.a, each row loses exactly c.a/p classes per P.
    The mask of (1) is the single class 0.  A ring of more than
    MAX_BOX_POINTS classes is refused with ValueError before any is made.
    """
    n = c.norm()
    if n > MAX_BOX_POINTS:
        raise ValueError(f"residue ring of {n} classes, above the limit of {MAX_BOX_POINTS}")
    a, rows = c.a, c.c
    mask = bytearray(b"\x01") * (a * rows)
    for P, _ in factor_ideal(c):
        p = P.p
        zeros = bytes(a // p)
        if P.second is None:
            for j in range(0, rows, p):
                mask[j * a : (j + 1) * a : p] = zeros
        else:
            r = -P.second.x  # second = omega - r
            for j in range(rows):
                mask[j * a + (-j * r) % p : (j + 1) * a : p] = zeros
    return mask


class ResidueSystem:
    """The classes i + j*omega of o/c and its units (by j, then i, as in
    unit_mask)."""

    def __init__(self, c: Ideal):
        if not c.is_integral() or c.norm() == 0:
            raise ValueError("modulus must be a nonzero integral ideal")
        self.modulus = c
        K = c.field
        self.field = K
        self.size = int(c.norm())
        a = c.a
        self._mask = unit_mask(c)
        self.units = [
            RingElement(K, i, j)
            for j in range(c.c)
            for i in compress(range(a), self._mask[j * a : (j + 1) * a])
        ]
        self.phi = len(self.units)

    def is_unit(self, x: RingElement) -> bool:
        """Whether the integral element x is prime to the modulus."""
        r = self.reduce(x)
        return self._mask[r.y * self.modulus.a + r.x] == 1

    def reduce(self, x: RingElement) -> RingElement:
        return self.modulus.reduce(x)

    def mul(self, x: RingElement, y: RingElement) -> RingElement:
        return self.reduce(x * y)


def psi(x: RingElement) -> complex:
    """The additive character e(Tr x) of K_infinity."""
    t = x.trace()
    frac = t - (t.numerator // t.denominator)
    return cmath.exp(2j * cmath.pi * float(frac))


# ---------------------------------------------------------------------------
# helpers: rational primes, square roots mod p, the continued-fraction walk


def primes_up_to(n: int) -> list[int]:
    """The rational primes p <= n, ascending (sieve of Eratosthenes)."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n + 1, i)))
    return list(compress(range(n + 1), sieve))


@functools.lru_cache(maxsize=13)
def _trial_primes(bits: int) -> list[int]:
    """The primes below 2^bits, the trial divisors of _factor_int."""
    return primes_up_to(1 << bits)


def _factor_int(n: int) -> dict[int, int]:
    """{p: v_p(n)} for n >= 1, primes ascending.  Trial division by the
    cached sieve up to the power of two above sqrt(n), at least 2^8 (one
    sieve for every n below 2^16) and at most 2^20; past 2^20 the odd
    numbers serve as divisors."""
    out: dict[int, int] = {}
    bits = min(max(8, isqrt(n).bit_length()), 20)
    for p in _trial_primes(bits):
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    else:
        p = (1 << bits) + 1
        while p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            p += 2
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


def _cf_step(a: int, b: int, disc: int) -> tuple[int, int, int]:
    """One continued-fraction step beta -> 1/(beta - m), m = floor(beta), on
    beta = (b + sqrt(disc))/(2a) with 4a | disc - b^2: the pair (a', b') of
    the new beta, again with 4a' | disc - b'^2, and m.

    Z + Z*beta = (beta - m) * (Z + Z*beta'): the one reduction operator of
    Cohen, GTM 138, 5.6-5.7 (Buchmann-Vollmer, Binary Quadratic Forms,
    ch. 6).
    """
    if a > 0:
        m = _floor_sqrt(b, 1, disc, 2 * a)
    else:
        m = _floor_sqrt(-b, -1, disc, -2 * a)
    b -= 2 * a * m
    return (disc - b * b) // (4 * a), -b, m


def _walk(K: FieldDesc, a: int, b: int) -> RingElement:
    """theta with Z + Z*beta = theta * o_K for beta = (b + sqrt(disc))/(2a),
    a > 0, when that lattice is homothetic to o_K.

    theta is the product of the factors beta_j - m_j of _cf_step, up to the
    first step that reaches a = 1 (there b = t mod 2, so the lattice is
    Z + Z*omega).  After k steps that product is (-1)^k (p - q*beta) for
    the last convergent p/q of beta, so the walk carries p and q, whose
    size is that of theta, rather than the product itself.  The reduced
    lattices homothetic to o_K form one cycle that holds a = 1, and every
    walk enters its cycle after finitely many steps.
    """
    disc = K.disc
    a0, e0 = a, (b - K.t_omega) // 2  # beta = (e0 + omega)/a0
    p0, p, q0, q, sign = 0, 1, 1, 0, 1
    while True:
        a, b, m = _cf_step(a, b, disc)
        p0, p = p, m * p + p0
        q0, q = q, m * q + q0
        sign = -sign
        if a == 1:
            return RingElement(K, sign * (p * a0 - q * e0), -sign * q, a0)


def _class_number(disc: int) -> int:
    """The class number: the number of cycles of the reduced pairs (a, b)
    under _cf_step.  beta = (b + sqrt(disc))/(2a) is reduced when beta > 1
    and -1 < conj(beta) < 0, that is 0 < b < sqrt(disc) and
    sqrt(disc) - b < 2a < sqrt(disc) + b, or s - b < 2a <= s + b with
    s = isqrt(disc) as disc is no square.  Two lattices Z + Z*beta are
    homothetic exactly when their reduced betas share a cycle."""
    s = isqrt(disc)
    reduced = set()
    for b in range(2 - disc % 2, s + 1, 2):
        m = (disc - b * b) // 4
        for d in range(1, isqrt(m) + 1):
            if m % d == 0:
                reduced.update((a, b) for a in (d, m // d) if s - b < 2 * a <= s + b)
    h = 0
    while reduced:
        h += 1
        start = pair = reduced.pop()
        while (pair := _cf_step(*pair, disc)[:2]) != start:
            reduced.remove(pair)
    return h


@functools.lru_cache(maxsize=200_000)
def principal_generator(I: Ideal) -> RingElement:
    """The canonical generator of an integral ideal in an h = 1 field.

    The rule: totally positive if I has a totally positive generator, then
    least |trace|, then least (a, b).  Any generator g is balanced by
    eps^-k, k = round(t(g) / 2R), and the rule picks among the window
    {+-g, +-g*eps, +-g/eps}.  g comes from the continued-fraction walk:
    I = c*(Z*A + Z*(B + omega)) = I.a * (Z + Z*beta) with
    beta = (2B + t + sqrt(disc))/(2A), so g = I.a * theta.

    Why the window holds the canonical element (Cohen, GTM 138, 5.7).  The
    generators are +-g*eps^k.  With t(x) = log|x_1/x_2| and R = log eps,
    t(+-g*eps^k) = t(g) + 2kR, since |N(eps)| = 1.  As |x_1 x_2| = N(I),
    a generator with equal signs has |trace| = 2 sqrt(N) cosh(t/2), and one
    with opposite signs has |trace| = 2 sqrt(N) |sinh(t/2)|.  The rule
    compares only one kind: if a totally positive generator exists, the
    totally positive ones; otherwise none has equal signs (its negative
    would be totally positive), so all of them.  Both costs are even and
    convex in t, so increasing in |t|, and equal |trace| means equal |t|.
    The compared set is closed under x -> x*eps^2 (eps^2 is totally
    positive whether N(eps) is +1 or -1), so it meets [-2R, 2R) and every
    least-|t| element has |t| <= 2R; ties at t and -t included.
    Balancing leaves |t(g)| <= R, up to a float rounding far below R, so
    each such element sits at distance below 4R from t(g) on the lattice
    t(g) + 2RZ: at t(g) - 2R, t(g) or t(g) + 2R, with either sign, which
    is the window.
    """
    if not I.is_integral():
        raise ValueError("principal_generator requires an integral ideal")
    K = I.field
    if K.d == 1:
        return RingElement(K, I.a)
    if K.h != 1:
        raise FieldError("principal generators require h = 1")
    A = I.a // I.c
    g = K.one() if A == 1 else _walk(K, A, 2 * I.b // I.c + K.t_omega)
    g = g * I.a
    # g_j = (p +- q sqrt D)/m, so t(g) = +-(2 log G - log|N g|) with
    # G = max|g_j| = (|p| + |q| sqrt D)/m, free of the cancellation that
    # loses the smaller embedding; g_1 is the larger when p*q >= 0.  G*m is
    # an integer scaled by 2^64, so that its integer square root is exact to
    # float precision and math.log takes it past the float range
    p, q, m = g._sqrt_form()
    Gm = abs(p << 64) + isqrt(q * q * K.D << 128)
    t = 2 * (math.log(Gm) - math.log(m << 64)) - math.log(abs(g.norm()))
    k = round((t if p * q >= 0 else -t) / (2 * K.regulator))
    eps, inv = K.eps, K.eps.inverse()
    u = inv if k > 0 else eps
    for _ in range(abs(k)):
        g = g * u
    ge, gi = g * eps, g * inv
    window = [g, -g, ge, -ge, gi, -gi]
    pool = [x for x in window if x.is_totally_positive()] or window
    return min(pool, key=lambda x: (abs(x.trace()), x.x, x.y))


# the name under which the benchmark harness calls principal_generator
unit_reduced_generator = principal_generator


def ideals_of_norm_up_to(K: FieldDesc, bound: int) -> list[Ideal]:
    """All nonzero integral ideals of norm <= bound (none for bound < 1),
    sorted by (norm, HNF).

    With the prime ideals sorted by norm, each ideal is made once, as its
    prefix times its last prime: a product extends only by primes from its
    last one on and stops at the first that passes the bound, so the walk is
    linear in the number of ideals.  A bound above MAX_BOX_POINTS is refused
    with ValueError before the primes are sieved."""
    if bound > MAX_BOX_POINTS:
        raise ValueError(f"ideals of norm <= {bound} requested, above the limit of {MAX_BOX_POINTS}")
    primes = [(P.norm(), P.ideal) for p in primes_up_to(bound) for P in K.primes_above(p)]
    primes.sort(key=lambda e: e[0])
    # (norm, ideal, index of its last prime); the loop visits the products
    # it appends
    out = [(1, K.unit_ideal(), 0)] if bound >= 1 else []
    for nj, J, i in out:
        for k in range(i, len(primes)):
            n = nj * primes[k][0]
            if n > bound:
                break
            out.append((n, J * primes[k][1], k))
    out.sort(key=lambda e: (e[0], e[1].key()))
    return [I for _, I, _ in out]


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
        ] if I.is_integral() and I.norm() <= MAX_FACTOR_NORM else None,
    }

