"""Local Eisenstein newvector data, Hecke eigenvalues, oldform coefficients,
and the constant-term local factors.

The eigenvalues lambda_{chi,chi^{-1}}, and the factors of lambda_{chi,t} at
primes off t, come from spectral.eisenstein_system(chi) and its one rule.

Local vectors are stored by their value profile on the valuation level sets
of the lower-left coordinate, which determines them completely; norms and
inner products are then exact rational (or rational + rational*sqrt(Np))
numbers computed from the level-set measures

    meas{v(b) >= j} = 1 / (Np^j (1 + 1/Np)),   j >= 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .characters import HeckeCharacter
from .fields import FieldDesc, Ideal, PrimeIdeal, arith_functions, factor_ideal, primes_up_to
from .spectral import eisenstein_system, hecke_prime_power


def local_dimension(n: int, m: int) -> int:
    """dim of the level-p^n piece for a character with local conductor p^m."""
    if n < 0 or m < 0:
        raise ValueError("n, m must be nonnegative")
    return max(0, n - 2 * m + 1)


@dataclass(frozen=True)
class LocalVectorSpec:
    """Local basis vector phi_{p,j} at a prime of norm Np.

    m = v_p(conductor of chi); admissible when j <= n - 2m for the ambient
    level exponent n, i.e. whenever the dimension formula allows index j.
    """

    Np: int
    j: int
    m: int = 0

    def __post_init__(self):
        if self.Np < 2 or self.j < 0 or self.m < 0:
            raise ValueError("inadmissible local vector data")


def _level_measure_ge(Np: int, j: int) -> Fraction:
    """Haar measure of {v(b) >= j} inside the maximal compact."""
    if j <= 0:
        return Fraction(1)
    return Fraction(1, Np**j) / (1 + Fraction(1, Np))


def _level_measure_eq(Np: int, j: int) -> Fraction:
    return _level_measure_ge(Np, j) - _level_measure_ge(Np, j + 1)


def local_vector_norm_sq(spec: LocalVectorSpec) -> Fraction:
    """||phi_{p,j}||^2, exact rational."""
    rat, irr = local_inner_product(spec, spec)
    assert irr == 0
    return rat


def local_inner_product(
    a: LocalVectorSpec, b: LocalVectorSpec
) -> tuple[Fraction, Fraction]:
    """<phi_a, phi_b> as (rational, coefficient of sqrt(Np)), exact.

    Only meaningful for vectors at the same prime and the same local
    character; ramified vectors (m > 0) have disjoint supports for
    different j.
    """
    if a.Np != b.Np or a.m != b.m:
        raise ValueError("inner product requires matching prime and character")
    N = a.Np
    if a.m > 0:
        if a.j != b.j:  # disjoint supports
            return Fraction(0), Fraction(0)
        lvl = a.m + a.j
        return Fraction(N) ** lvl * _level_measure_eq(N, lvl), Fraction(0)

    def values(spec):
        # map level -> (half_power, coeff), plus a tail (>= level) entry
        eq = {}
        if spec.j == 0:
            tail = (0, 0, Fraction(1))
        elif spec.j == 1:
            eq[0] = (-1, Fraction(1))
            tail = (1, 1, Fraction(-1))
        else:
            eq[spec.j - 1] = (spec.j - 2, Fraction(-1))
            tail = (spec.j, spec.j, Fraction(1) - Fraction(1, N))
        return eq, tail

    eq_a, tail_a = values(a)
    eq_b, tail_b = values(b)
    levels = set(eq_a) | set(eq_b) | {tail_a[0], tail_b[0]}
    top = max(levels)
    rat, irr = Fraction(0), Fraction(0)

    def val_at(eq, tail, lvl):
        if lvl in eq:
            return eq[lvl]
        if lvl >= tail[0]:
            return (tail[1], tail[2])
        return (0, Fraction(0))

    for lvl in range(0, top + 1):
        pa, ca = val_at(eq_a, tail_a, lvl)
        pb, cb = val_at(eq_b, tail_b, lvl)
        if ca == 0 or cb == 0:
            continue
        meas = _level_measure_eq(N, lvl) if lvl < top else _level_measure_ge(N, lvl)
        term = ca * cb * meas * Fraction(N) ** ((pa + pb) // 2)
        if (pa + pb) % 2 == 0:
            rat += term
        else:
            irr += term
    return rat, irr


def coset_index(c: Ideal) -> int:
    """[K(o) : K(c)] = prod over p^j || c of Np^j (1 + 1/Np)."""
    if not c.is_integral():
        raise ValueError("level must be integral")
    out = Fraction(1)
    for P, e in factor_ideal(c):
        N = P.norm()
        out *= Fraction(N) ** e * (1 + Fraction(1, N))
    assert out.denominator == 1
    return int(out)


def eis_hecke_eigenvalue(chi: HeckeCharacter, m: Ideal) -> complex:
    """lambda_{chi,chi^{-1}}(m) = sum_{ab=m} chi(a b^{-1}) from chi(P) of
    eisenstein_system(chi); zero on ideals meeting the modulus of chi."""
    if not m.is_integral():
        return 0.0
    sys_ = eisenstein_system(chi)
    out = 1.0 + 0j
    # only chi(P) is cached: entries per ideal or per (P, n) would cost memory
    for P, n in factor_ideal(m):
        loc = hecke_prime_power(sys_.alpha(P), n)
        if loc == 0:
            return 0.0
        out *= loc
    return out


@dataclass
class EisCoefficientContext:
    """Oldform data (t_chi, F_{chi,t}, local classification) for a pair
    {chi, chi^{-1}} with trivial central character at oldform ideal t."""

    chi: HeckeCharacter
    t: Ideal

    def __post_init__(self):
        if not self.t.is_integral():
            raise ValueError("t must be integral")
        K = self.chi.field
        chi_cond = self.chi.conductor()
        self.system = eisenstein_system(self.chi)
        self.t_chi = K.unit_ideal()
        self.F = 1.0
        self.local: dict[PrimeIdeal, dict] = {}
        for P, v in factor_ideal(self.t):
            ram = chi_cond.norm() > 1 and P.ideal.divides(chi_cond)
            if not ram and v >= 2 and P.ideal.divides(self.chi.modulus):
                # chi(P) = 0 there, so the local factor's normaliser vanishes
                raise ValueError(f"t is divisible by {P}^{v} and {P} divides the modulus"
                                 " of chi but not its conductor")
            z = None if ram else self.system.alpha(P) ** 2
            minus_one = (z is not None) and abs(z + 1) < 1e-12
            info = {"P": P, "v": v, "ramified": ram, "z": z, "z_is_minus_one": minus_one}
            if ram:
                tchi_exp = v
            elif v == 1:
                tchi_exp = 1 if minus_one else 0
                if not minus_one:
                    self.F *= 1.0 / abs(1 + z)
            elif v == 2:
                tchi_exp = 0
            else:
                tchi_exp = v - 2
            info["tchi_exp"] = tchi_exp
            for _ in range(tchi_exp):
                self.t_chi = self.t_chi * P.ideal
            self.local[P] = info

    def lambda_chi_t(self, m: Ideal) -> complex:
        """The multiplicative function lambda_{chi,t} at an integral ideal."""
        if not m.is_integral():
            return 0.0
        out = 1.0 + 0j
        for P, n in factor_ideal(m):
            if P in self.local:
                info = self.local[P]
                if info["ramified"]:
                    return 0.0
                out *= self._local_lambda(info, n)
            else:
                out *= self.system.lambda_prime_power(P, n)
        return out

    def _local_lambda(self, info: dict, n: int) -> complex:
        N = info["P"].norm()
        z = info["z"]
        v = info["v"]
        if v == 1:
            if info["z_is_minus_one"]:
                return 1.0 if n % 2 == 0 else 0.0
            fac = lambda np_: (1 + z ** (np_ + 1)) / math.sqrt(N) - math.sqrt(N) * (
                1 - 1 / N
            ) * sum(z**jj for jj in range(1, np_ + 1))
            return fac(n) / fac(0)
        # v >= 2: layer-sum local factor, base exponent v - 2
        base = v - 2

        def layer(j: int, nprime: int) -> float:
            if 1 <= j <= nprime:
                return N**j * (1 - 1 / N)
            if j == nprime + 1:
                return -float(N**nprime)
            return 0.0

        def fac(nprime: int) -> complex:
            out = -(z ** (v - 1)) * N ** (-v / 2) * layer(v - 1, nprime)
            for j in range(v, nprime + 2):
                out += (1 - 1 / N) * z**j * N ** (v / 2 - j) * layer(j, nprime)
            return out

        return fac(n + base) / fac(base)


def oldform_eis_coefficient(ctx: EisCoefficientContext, m: Ideal) -> complex:
    """lambda^{(t)}_{chi,chi^{-1}}(m); supported on multiples of t_chi."""
    if not m.is_integral():
        return 0.0
    if not ctx.t_chi.divides(m):
        return 0.0
    _, _, tau_t = arith_functions(ctx.t)
    m_red = m * ctx.t_chi.inverse()
    lead = (
        (1.0 / ctx.F)
        * (1.0 / tau_t)
        * float(ctx.t.norm()) ** (-0.5)
        * float(ctx.t_chi.norm())
    )
    return lead * ctx.lambda_chi_t(m_red)


# ---------------------------------------------------------------------------
# constant term


def constant_term_local_factor(
    Np: int,
    s: complex,
    case: str = "unramified",
    v: int = 1,
    v_eta: Optional[int] = None,
) -> complex:
    """Local factor of the intertwining integral at a prime of norm Np.

    case 'unramified':  (1 - Np^(-1-2s)) / (1 - Np^(-2s));
    case 'level':       Np^(-2sv) (1 - 1/Np) / (1 - Np^(-2s));
    case 'level-eta':   |eta|^(2s-1) times the level factor when
                        v(eta) <= -v, and the constant Np^(-v) otherwise.
    """
    if s == 0:
        raise ValueError("s on the singular line")
    N = float(Np)
    if case == "unramified":
        return (1 - N ** (-1 - 2 * s)) / (1 - N ** (-2 * s))
    if case == "level":
        return N ** (-2 * s * v) * (1 - 1 / N) / (1 - N ** (-2 * s))
    if case == "level-eta":
        if v_eta is None:
            raise ValueError("level-eta requires v_eta")
        if v_eta <= -v:
            eta_abs = N ** (-v_eta)
            return (
                eta_abs ** (2 * s - 1)
                * N ** (-2 * s * v)
                * (1 - 1 / N)
                / (1 - N ** (-2 * s))
            )
        return N ** (-float(v))
    raise ValueError(f"unknown case {case!r}")


# the cross-check route sums the layers j < _LAYER_DEPTH; the first layer it
# leaves out has size N(p)^(-2 _LAYER_DEPTH Re s) (1 - 1/N(p))
_LAYER_DEPTH = 40


def constant_term_local_factor_layers(
    Np: int, s: complex, case: str = "unramified", v: int = 1,
    v_eta: Optional[int] = None,
) -> complex:
    """The same local factor from the raw p-adic layer decomposition,
    truncated before layer _LAYER_DEPTH (cross-check route)."""
    N = float(Np)
    if case == "unramified":
        return 1 + sum(
            N ** (-j * (1 + 2 * s)) * N**j * (1 - 1 / N) for j in range(1, _LAYER_DEPTH)
        )
    if case == "level":
        return sum(
            N ** (-j * (1 + 2 * s)) * N**j * (1 - 1 / N) for j in range(v, _LAYER_DEPTH)
        )
    if case == "level-eta":
        if v_eta is None:
            raise ValueError("level-eta requires v_eta")
        if v_eta <= -v:
            eta_abs = N ** (-v_eta)
            return eta_abs ** (2 * s - 1) * sum(
                N ** (-j * (1 + 2 * s)) * N**j * (1 - 1 / N) for j in range(v, _LAYER_DEPTH)
            )
        return N ** (-float(v))
    raise ValueError(f"unknown case {case!r}")


def constant_term_H_at_half(c: Ideal) -> Fraction:
    """H(1/2) = |D_K|^{-1} [K(o):K(c)]^{-1}, exact."""
    K = c.field
    return Fraction(1, abs(K.disc)) * Fraction(1, coset_index(c))


def constant_term_H_numeric(c: Ideal, delta: float, prime_bound: int = 3000) -> float:
    """H(1/2 + delta) assembled from the intertwining integral divided by
    Lambda_K(1+2delta)/Lambda_K(2+2delta), with both zeta factors truncated
    at the same prime bound so the truncation error cancels in the ratio."""
    K = c.field
    s = 0.5 + delta
    d = K.d
    # infinite part: |D|^{-1/2} (sqrt(pi) Gamma(s)/Gamma(s+1/2))^d, and the
    # idele module |delta|^{2s} = |D|^{-2s}
    val = abs(K.disc) ** (-0.5) * (
        math.sqrt(math.pi) * math.gamma(s) / math.gamma(s + 0.5)
    ) ** d
    val *= float(abs(K.disc)) ** (-2 * s)
    level_primes = dict(factor_ideal(c))
    zeta_num = 1.0  # prod (1 - Np^-2s)^-1 over Np <= bound
    zeta_den = 1.0  # prod (1 - Np^-(1+2s))^-1
    lam_num = 1.0  # zeta part of Lambda(1+2delta) = zeta_K(1+2delta)
    lam_den = 1.0  # zeta part of Lambda(2+2delta)
    for p in primes_up_to(prime_bound):
        for P in K.primes_above(p):
            N = P.norm()
            if N > prime_bound:
                continue
            lam_num /= 1 - N ** (-(1 + 2 * delta))
            lam_den /= 1 - N ** (-(2 + 2 * delta))
            if P in level_primes:
                val *= constant_term_local_factor(N, s, "level", level_primes[P])
            else:
                val *= constant_term_local_factor(N, s, "unramified")
    lam_ratio = (
        abs(K.disc) ** ((1 + 2 * delta) / 2)
        * (math.pi ** (-(1 + 2 * delta) / 2) * math.gamma((1 + 2 * delta) / 2)) ** d
        * lam_num
    ) / (
        abs(K.disc) ** ((2 + 2 * delta) / 2)
        * (math.pi ** (-(2 + 2 * delta) / 2) * math.gamma((2 + 2 * delta) / 2)) ** d
        * lam_den
    )
    return val / lam_ratio


# ---------------------------------------------------------------------------
# partial Hecke L-values and the newvector Fourier magnitude


def _kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n)."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    if n < 0:
        return (-1 if a < 0 else 1) * _kronecker(a, -n)
    out = 1
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            out = -out
    a %= n
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


def dedekind_zeta(K: FieldDesc, s: complex) -> complex:
    """zeta_K(s) (s != 1) via zeta(s) * L(s, chi_{D_K}); Hurwitz-based for
    the Dirichlet factor, accurate on Re s = 1."""
    import mpmath as mp

    z = complex(mp.zeta(s))
    if K.d == 1:
        return z
    q = abs(K.disc)
    L = 0j
    for a in range(1, q + 1):
        ch = _kronecker(K.disc, a)
        if ch:
            L += ch * complex(mp.zeta(s, Fraction(a, q)))
    L *= q ** (-complex(s))
    return z * L


def hecke_l_value(
    chi: HeckeCharacter, s0: float = 1.0, prime_bound: int = 10**5
) -> dict:
    """L(s0, chi) with a reported truncation drift.

    Unramified characters with diagonal exponent use the Dedekind-zeta
    route (essentially exact); otherwise a truncated Euler product over
    Np <= prime_bound, with the drift between the half and full cutoff
    reported (heuristic tail size on Re s = 1, never hidden).
    """
    K = chi.field
    diagonal = all(abs(t - chi.t[0]) < 1e-15 for t in chi.t)
    if (chi.finite is None or chi.finite.is_trivial()) and diagonal and all(
        m == 0 for m in chi.signs
    ):
        # chi((m)) = N(m)^{i t}, so L(s, chi) = zeta_K(s - i t)
        val = dedekind_zeta(K, s0 - 1j * chi.t[0])
        return {"value": complex(val), "route": "dedekind", "tail_estimate": 1e-12}
    logs = []
    for p in primes_up_to(prime_bound):
        for P in K.primes_above(p):
            N = P.norm()
            if N > prime_bound:
                continue
            w = chi.eval_on_ideal(P.ideal)
            if w == 0:
                continue
            logs.append((N, -cmath.log(1 - w * N ** (-s0))))
    half = sum(l for N, l in logs if N <= prime_bound // 2)
    full = sum(l for _, l in logs)
    return {
        "value": cmath.exp(full),
        "route": "euler",
        "tail_estimate": abs(cmath.exp(full) - cmath.exp(half)),
    }


def newvector_fourier_magnitude(
    chi: HeckeCharacter, t: Ideal, prime_bound: int = 10**5
) -> dict:
    """|rho_{E(phi)}(t_chi)| per the explicit Fourier-coefficient formula:
    pi^{d/2} |D_K|^{-1/2} / (|L^{(t t_chi^{-1})}(1, chi^2)| N(t t_chi^{-1})^{1/2} F_{chi,t})."""
    K = chi.field
    chi2 = chi.square()
    if chi2.is_trivial():
        raise ValueError("chi^2 must be a nontrivial Hecke character")
    ctx = EisCoefficientContext(chi, t)
    Lfull = hecke_l_value(chi2, 1.0, prime_bound)
    removed = t * ctx.t_chi.inverse()
    Lval = Lfull["value"]
    for P, _ in factor_ideal(removed):
        w = chi2.eval_on_ideal(P.ideal)
        Lval *= 1 - w / P.norm()
    denom = abs(Lval) * math.sqrt(float(removed.norm())) * ctx.F
    value = math.pi ** (K.d / 2) / math.sqrt(abs(K.disc)) / denom
    cond_number = 1.0 / abs(Lval)
    return {
        "value": value,
        "partial_L": Lval,
        "F": ctx.F,
        "t_chi_norm": int(ctx.t_chi.norm()),
        "tail_estimate": Lfull["tail_estimate"],
        "condition": cond_number,
        "route": Lfull["route"],
    }
