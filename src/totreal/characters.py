"""Finite characters mod q and Grossencharacters with archimedean exponents.

Finite character values are exact root-of-unity exponents k/L, an integer k
over the exponent L of the group (value_exponent returns it as a Fraction
mod 1); complex numbers appear only at evaluation time, so orthogonality
relations can be tested essentially exactly.  The multiplicative group (o/q)^x is
decomposed into cyclic factors via the Smith normal form of its relation
lattice on a small generating set.  The class i + j*omega of o/q is
numbered j*q.a + i, as in fields.unit_mask; the discrete logs are one list
indexed by that number, and a character is evaluated from the exponent
vector found there.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

from .fields import (
    MAX_BOX_POINTS,
    FieldDesc,
    Ideal,
    RingElement,
    factor_ideal,
    principal_generator,
    unit_mask,
)


def _hnf_rowreduce(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF of an integer matrix; keeps at most ncols rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    basis: list[list[int]] = []
    for row in rows:
        r = list(row)
        for b in basis:
            piv = next(i for i, x in enumerate(b) if x)
            if r[piv]:
                q = r[piv] // b[piv]
                r = [x - q * y for x, y in zip(r, b)]
                if r[piv]:
                    # gcd step
                    while r[piv]:
                        q = b[piv] // r[piv]
                        b[:], r = r, [x - q * y for x, y in zip(b, r)]
        if any(r):
            basis.append(r)
            basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    return basis


def _smith_normal_form(M: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """Diagonal invariants and the column transform V with M*V diagonalizable.

    Returns (d, V) where the lattice spanned by the rows of M, after the
    coordinate change v -> v*V, is the standard lattice sum d_i * Z e_i.
    """
    A = [list(r) for r in M]
    n = len(A)
    m = len(A[0]) if n else 0
    V = [[1 if i == j else 0 for j in range(m)] for i in range(m)]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def addmul_col(dst, src, k):
        for r in A:
            r[dst] += k * r[src]
        for r in V:
            r[dst] += k * r[src]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]

    def addmul_row(dst, src, k):
        A[dst] = [x + k * y for x, y in zip(A[dst], A[src])]

    t = 0
    while t < min(n, m):
        # find pivot: smallest nonzero |entry| in A[t:, t:]
        piv = None
        for i in range(t, n):
            for j in range(t, m):
                if A[i][j] and (piv is None or abs(A[i][j]) < abs(A[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, n):
                if A[i][t] % A[t][t]:
                    addmul_row(i, t, -(A[i][t] // A[t][t]))
                    swap_rows(t, i)
                    done = False
                elif A[i][t]:
                    addmul_row(i, t, -(A[i][t] // A[t][t]))
            for j in range(t + 1, m):
                if A[t][j] % A[t][t]:
                    addmul_col(j, t, -(A[t][j] // A[t][t]))
                    swap_cols(t, j)
                    done = False
                elif A[t][j]:
                    addmul_col(j, t, -(A[t][j] // A[t][t]))
        if A[t][t] < 0:
            for r in A:
                r[t] = -r[t]
            for r in V:
                r[t] = -r[t]
        t += 1
    d = [A[i][i] if i < n else 0 for i in range(m)]
    # enforce divisibility d1 | d2 | ... (not required by callers, skipped)
    return d, V


class UnitGroupStructure:
    """Cyclic decomposition of (o/q)^x with discrete logarithms.

    The class i + j*omega of o/q (0 <= i < q.a, 0 <= j < q.c) has number
    j*q.a + i, the index of fields.unit_mask; dlogs[k] is the exponent
    vector of class k on the cyclic factors of orders `orders`, None when k
    is not a unit.

    The units are reached by a breadth-first walk from 1 over products with
    greedy generators (the least unit not yet reached, in class order); the
    products are taken on class numbers (mul), and each class reached twice
    gives a relation.  The Smith normal form of the relations gives the
    factors.  The walk holds a vector for each of the phi(q) units, so at
    q near 10^6 it sets the peak memory of shifted amplify (README)."""

    def __init__(self, q: Ideal):
        if not q.is_integral() or q.norm() == 0:
            raise ValueError("modulus must be a nonzero integral ideal")
        self.modulus = q
        K = self.field = q.field
        mask = unit_mask(q)
        self.order = mask.count(1)
        # conductor of each character, keyed by its exponent vector, and the
        # exponent vectors of the units = 1 mod each divisor g of the modulus
        # (the kernel of reduction mod g) that a conductor descent has asked for
        self._conductors: dict[tuple, Ideal] = {}
        self._kernels: dict[Ideal, list[tuple]] = {}
        # greedy generating set in class order
        gens: list[int] = []
        reached = {self.index(K.one()): []}
        relations: list[list[int]] = []
        for cand in compress(range(len(mask)), mask):
            if cand in reached:
                continue
            gens.append(cand)
            for k in reached:
                reached[k] = reached[k] + [0]
            for rel in relations:
                rel.append(0)
            # closure by BFS over multiplication by all gens
            frontier = list(reached.items())
            while frontier:
                new_frontier = []
                for key, vec in frontier:
                    for i, g in enumerate(gens):
                        yk = self.mul(key, g)
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
            if len(reached) == self.order:
                break
        assert len(reached) == self.order
        relations = _hnf_rowreduce(relations)
        d, V = _smith_normal_form(relations)
        r = len(gens)
        # transform dlog vectors: w = v * V mod d
        keep = [i for i in range(r) if d[i] != 1]
        self.orders: list[int] = [d[i] for i in keep]
        assert all(x > 0 for x in self.orders), "unit group relations of full rank"
        assert math.prod(self.orders) == self.order
        # exponent of the group: every character value is e(k / exponent)
        self.exponent = math.lcm(*self.orders)
        self.dlogs: list[Optional[tuple]] = [None] * len(mask)
        cols = [([row[i] for row in V], d[i]) for i in keep]
        for key, vec in reached.items():
            self.dlogs[key] = tuple([sum(map(operator.mul, vec, col)) % n for col, n in cols])

    def index(self, x: RingElement) -> int:
        """The class number j*q.a + i of the integral element x mod q."""
        y = self.modulus.reduce(x)
        return y.y * self.modulus.a + y.x

    def mul(self, k1: int, k2: int) -> int:
        """The class number of the product of the classes numbered k1 and k2.

        With q = Z*a + Z*(b + c*omega) and omega^2 = t*omega - n, the product
        (i1 + j1*omega)(i2 + j2*omega) = pi + pj*omega is reduced as
        Ideal.reduce does: j = pj mod c borrows (pj // c)*b from pi, then
        i = pi mod a."""
        q, K = self.modulus, self.field
        a = q.a
        i1, j1 = k1 % a, k1 // a
        i2, j2 = k2 % a, k2 // a
        jj = j1 * j2
        pi = i1 * i2 - K.n_omega * jj
        pj = i1 * j2 + j1 * i2 + K.t_omega * jj
        k, j = divmod(pj, q.c)
        return j * a + (pi - k * q.b) % a


@dataclass(frozen=True, eq=False)
class FiniteCharacter:
    """Character of (o/q)^x given by an exponent vector on the cyclic factors.

    Equal when the moduli and the exponent vectors are (key): the structure
    of a modulus is made the same way each time, so characters built apart
    by characters_mod compare and hash as one."""

    structure: UnitGroupStructure
    exponents: tuple[int, ...]

    @property
    def modulus(self) -> Ideal:
        return self.structure.modulus

    def _exponent_num(self, w: Optional[tuple]) -> Optional[int]:
        """k in [0, exponent) with chi = e(k / exponent) on the unit of
        exponent vector w, or None for w = None (chi = 0 off the units)."""
        if w is None:
            return None
        st = self.structure
        L = st.exponent
        return sum(t * wi * (L // n) for t, wi, n in zip(self.exponents, w, st.orders)) % L

    def value_exponent(self, x: RingElement) -> Optional[Fraction]:
        """Exact exponent e in [0, 1) with chi(x) = e(e), or None when chi(x) = 0."""
        st = self.structure
        k = self._exponent_num(st.dlogs[st.index(x)])
        return None if k is None else Fraction(k, st.exponent)

    def value_at(self, w: Optional[tuple]) -> complex:
        """chi on the unit of exponent vector w (an entry of structure.dlogs);
        0.0 for w = None."""
        k = self._exponent_num(w)
        if k is None:
            return 0.0
        return cmath.exp(2j * cmath.pi * (k / self.structure.exponent))

    def __call__(self, x: RingElement) -> complex:
        st = self.structure
        return self.value_at(st.dlogs[st.index(x)])

    def is_trivial(self) -> bool:
        return all(t == 0 for t in self.exponents)

    def order(self) -> int:
        # lcm of the orders of each component
        out = 1
        for t, n in zip(self.exponents, self.structure.orders):
            k = n // math.gcd(t, n)
            out = out * k // math.gcd(out, k)
        return out

    def inverse(self) -> "FiniteCharacter":
        return FiniteCharacter(
            self.structure,
            tuple((-t) % n for t, n in zip(self.exponents, self.structure.orders)),
        )

    def mul(self, other: "FiniteCharacter") -> "FiniteCharacter":
        assert self.modulus == other.modulus
        return FiniteCharacter(
            self.structure,
            tuple(
                (a + b) % n
                for a, b, n in zip(self.exponents, other.exponents, self.structure.orders)
            ),
        )

    def conductor(self) -> Ideal:
        """Smallest divisor q' of q with the character trivial on the kernel
        of reduction (o/q)^x -> (o/q')^x; computed once per character.

        Such divisors are closed under gcd, so the conductor is reached by
        descent, one prime at a time: q' drops a factor P while the character
        is trivial on the units = 1 mod q'/P (listed once per divisor)."""
        st = self.structure
        if self.exponents not in st._conductors:
            K, f = st.field, self.modulus
            a = f.a
            for P, e in factor_ideal(f):
                for _ in range(e):
                    g = f * P.ideal.inverse()
                    if g not in st._kernels:
                        # the units u = i + j*omega (class k = j*a + i) with u = 1 mod g
                        st._kernels[g] = [
                            w for k, w in enumerate(st.dlogs)
                            if w is not None and g.contains(RingElement(K, k % a - 1, k // a))
                        ]
                    if any(self._exponent_num(w) for w in st._kernels[g]):
                        break
                    f = g
            st._conductors[self.exponents] = f
        return st._conductors[self.exponents]

    @property
    def key(self) -> tuple:
        """What equal characters share: the field, the modulus and the
        exponents."""
        q = self.structure.modulus
        return (q.field.D, q.key(), self.exponents)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteCharacter) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)


def characters_mod(q: Ideal) -> list[FiniteCharacter]:
    """All phi(q) characters of (o/q)^x, trivial character first."""
    st = UnitGroupStructure(q)
    chars = []
    idx = [0] * len(st.orders)
    while True:
        chars.append(FiniteCharacter(st, tuple(idx)))
        j = 0
        while j < len(idx):
            idx[j] += 1
            if idx[j] < st.orders[j]:
                break
            idx[j] = 0
            j += 1
        if j == len(idx):
            break
    return chars


class HeckeCharacter:
    """chi = chi_fin * prod_j sgn(y_j)^{m_j} |y_j|^{i t_j} on ideals of an
    h = 1 field, evaluated through a generator (a trivial chi on any field).

    Unit triviality (on -1 and the fundamental unit) is verified at
    construction to 1e-10 so that values on ideals are well defined.
    """

    def __init__(
        self,
        K: FieldDesc,
        finite: Optional[FiniteCharacter] = None,
        t: Sequence[float] = (),
        signs: Sequence[int] = (),
        check: bool = True,
    ):
        self.field = K
        self.finite = finite
        self.t = tuple(float(x) for x in t) if t else (0.0,) * K.d
        self.signs = tuple(int(x) % 2 for x in signs) if signs else (0,) * K.d
        if len(self.t) != K.d or len(self.signs) != K.d:
            raise ValueError("t and signs must have one entry per embedding")
        if check:
            res = self.unit_triviality_residual()
            if res > 1e-10:
                raise ValueError(f"not trivial on units (residual {res:.2e})")
        # equal characters built apart share their caches (eisenstein_system)
        self._key = (K.D, self.t, self.signs, None if finite is None else finite.key)
        self._hash = hash(self._key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HeckeCharacter) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash

    @property
    def modulus(self) -> Ideal:
        if self.finite is None:
            return self.field.unit_ideal()
        return self.finite.modulus

    def conductor(self) -> Ideal:
        if self.finite is None:
            return self.field.unit_ideal()
        return self.finite.conductor()

    def infinity_value(self, x: RingElement) -> complex:
        out = 1.0 + 0j
        emb = x.embeddings()
        sg = x.sgn()
        for j in range(self.field.d):
            if self.signs[j] and sg[j] < 0:
                out = -out
            out *= cmath.exp(1j * self.t[j] * math.log(abs(emb[j])))
        return out

    def unit_triviality_residual(self) -> float:
        units = [-self.field.one()]
        if self.field.d == 2:
            units.append(self.field.eps)
        worst = 0.0
        for u in units:
            v = self.infinity_value(u)
            if self.finite is not None:
                fv = self.finite(u)
                if fv == 0:
                    return math.inf  # unit not coprime to modulus: impossible
                v *= fv
            worst = max(worst, abs(v - 1.0))
        return worst

    def eval_on_ideal(self, a: Ideal) -> complex:
        """chi(a) for an integral ideal a; zero when a is not coprime to the
        modulus.  A trivial character is 1 on the other ideals without a
        generator, so it serves a field of any class number."""
        q = self.modulus
        if a.is_integral() and q.norm() > 1 and not (a + q).norm() == 1:
            return 0.0
        if self.is_trivial():
            return 1.0 + 0j
        g = principal_generator(a)
        val = self.infinity_value(g)
        if self.finite is not None:
            fv = self.finite(g)
            if fv == 0:
                return 0.0
            val *= fv
        return val

    def square(self) -> "HeckeCharacter":
        fin = None
        if self.finite is not None:
            fin = self.finite.mul(self.finite)
        return HeckeCharacter(
            self.field, fin, [2 * x for x in self.t], (0,) * self.field.d, check=False
        )

    def inverse(self) -> "HeckeCharacter":
        fin = self.finite.inverse() if self.finite is not None else None
        return HeckeCharacter(
            self.field, fin, [-x for x in self.t], self.signs, check=False
        )

    def is_trivial(self) -> bool:
        fin_triv = self.finite is None or self.finite.is_trivial()
        return fin_triv and all(x == 0 for x in self.t) and all(s == 0 for s in self.signs)


def unramified_character(K: FieldDesc, t: Sequence[float]) -> HeckeCharacter:
    """|.|^{i t_j} at each real place; t must respect the unit lattice."""
    return HeckeCharacter(K, None, t, ())


def unramified_exponent_lattice(K: FieldDesc) -> dict:
    """Constraint lattice for totally even unramified Hecke characters.

    The matrix M has first row all ones and the remaining rows the
    log-absolute-embeddings of the fundamental unit; admissible exponent
    vectors s in (iR)^d satisfy a lattice condition on M s.  For d = 2 the
    antidiagonal offset s_1 - s_2 runs through (2 pi / log eps) Z, the
    diagonal direction is free.
    """
    if K.d == 1:
        return {"M": [[1.0]], "spacing": None, "free_direction": "diagonal"}
    le = math.log(abs(K.eps.embeddings()[0]))
    M = [[1.0] * K.d, [le, -le]]
    return {"M": M, "spacing": 2 * math.pi / le, "free_direction": "diagonal"}


def enumerate_eisenstein_pairs(c: Ideal, X: float, resolution: float = 1.0) -> dict:
    """Totally even Eisenstein parameters {chi, chi^{-1}} at level c.

    The finite part runs over characters whose conductor squared divides c
    (equivalently conductor | c1 where c = c1^2 c2, c2 squarefree); each
    admits discrete antidiagonal branches offset by the unit lattice, and
    every branch carries a free diagonal direction reported as grid points
    at the given resolution.  A branch is admissible when its antidiagonal
    offset satisfies |s_1 - s_2| <= X; the diagonal parameter is sampled
    over |y| <= X.  More than MAX_BOX_POINTS branches, or a grid of 2X /
    resolution beyond the float range, are refused with ValueError before
    any branch is listed.
    """
    if not (math.isfinite(X) and X >= 0):
        raise ValueError(f"X must be finite and >= 0, got {X}")
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    if not math.isfinite(2 * X / resolution):
        raise ValueError(f"2X/resolution = 2*{X}/{resolution} is beyond the float range")
    if not c.is_integral():
        raise ValueError("level must be integral")
    K = c.field
    # c1 = largest ideal with c1^2 | c
    c1 = K.unit_ideal()
    for P, e in factor_ideal(c):
        for _ in range(e // 2):
            c1 = c1 * P.ideal
    finite_chars = characters_mod(c1)
    grid_points = max(1, int(math.floor(2 * X / resolution)) + 1)
    # the branches k_min <= k <= k_max of each admissible finite index, with
    # offset base + k * spacing (one branch, offset 0.0, over Q)
    spacing = unramified_exponent_lattice(K)["spacing"] or 0.0
    runs = []
    for i, xi in enumerate(finite_chars):
        # need triviality on -1 and a matching offset against xi(eps)
        if xi.value_exponent(-K.one()) != 0:
            continue
        if K.d == 1:
            runs.append((i, 0.0, 0, 0))
            continue
        fe = xi.value_exponent(K.eps)
        if fe is None:
            continue
        le = math.log(abs(K.eps.embeddings()[0]))
        # offset delta solves: e(fe) * exp(i*delta*le) = 1
        base = -2 * math.pi * float(fe) / le
        k_min = math.ceil((-X - base) / spacing - 1e-12)
        k_max = math.floor((X - base) / spacing + 1e-12)
        runs.append((i, base, k_min, k_max))
    n = sum(k_max - k_min + 1 for _, _, k_min, k_max in runs)
    if n > MAX_BOX_POINTS:
        raise ValueError(f"{n} Eisenstein branches, above the limit of {MAX_BOX_POINTS}")
    branches = [
        {"finite_index": i, "offset": base + k * spacing}
        for i, base, k_min, k_max in runs
        for k in range(k_min, k_max + 1)
    ]
    return {
        "level": str(c.norm()),
        "c1_norm": str(c1.norm()),
        "finite_characters": len(finite_chars),
        "branches": len(branches),
        "branch_list": branches,
        "grid_points_per_branch": grid_points,
        "count": len(branches) * grid_points,
    }
