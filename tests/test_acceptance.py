"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with the measured quantity against its stated tolerance."""

import math
import random
import time
from fractions import Fraction

import numpy as np

from totreal.characters import (
    HeckeCharacter,
    characters_mod,
    enumerate_eisenstein_pairs,
    unramified_character,
    unramified_exponent_lattice,
)
from totreal.eisenstein import (
    LocalVectorSpec,
    constant_term_H_at_half,
    constant_term_H_numeric,
    coset_index,
    eis_hecke_eigenvalue,
    local_inner_product,
    local_vector_norm_sq,
)
from totreal.fields import Ideal, factor_ideal, ideals_of_norm_up_to, make_field
from totreal.kloosterman import (
    KloostermanQuery,
    kloosterman_sum,
    kloosterman_sum_crt,
    weil_sweep,
)
from totreal.shifted import (
    ProductWeight,
    ShiftedQuery,
    SmoothBump,
    amplified_moment,
    dirichlet_D,
    shifted_sum,
    shifted_sum_scalar_oracle,
)
from totreal.spectral import (
    EigenvalueSystem,
    KTestGaussian,
    bessel_tilde,
    bessel_transforms,
    divisor_system,
    oldform_gram_schmidt,
    shifted_inner_ratio,
)
from totreal.whittaker import gram_matrix

Q = make_field(1)
K5 = make_field(5)

# constant of criterion 8, calibrated once against the (Z, t) reference grid
# and frozen; the small-t limit is dominated by the b = 2 discrete term
# -k(1/2) J_1(4 pi sqrt t) ~ -2 pi sqrt(t), so C must exceed 2 pi at Z = 1
# (observed grid maximum 6.282); see the module tests for per-point oracles
BESSEL_BOUND_CONST = 8.0


def _report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_whittaker_orthonormality():
    t0 = time.time()
    qs = [-4, -2, 0, 2, 4]
    worst = 0.0
    for nu in (0.0, 0.5j, 1.0j, 1 / 9):
        G = gram_matrix(qs, nu)
        worst = max(worst, float(np.max(np.abs(G - np.eye(len(qs))))))
    dt = time.time() - t0
    ok = worst <= 1e-5 and dt < 60
    _report(1, ok, f"Gram deviation {worst:.2e} (tol 1e-5), {dt:.1f}s (< 60s)")


def test_criterion_2_weil_margins():
    t0 = time.time()
    worst = 0.0
    count = 0
    for K in (Q, K5):
        for rec in weil_sweep(K, 2000):
            worst = max(worst, rec["margin"])
            count += 1
    dt = time.time() - t0
    ok = worst <= 1 + 1e-9 and dt < 120
    _report(2, ok, f"{count} sums, worst margin {worst:.6f} (<= 1+1e-9), {dt:.1f}s (< 120s)")


def test_criterion_3_crt_factorization():
    rng = random.Random(17)
    cases = []
    for K, target in ((Q, 120), (K5, 80)):
        gens = {}
        for I in ideals_of_norm_up_to(K, 10**4):
            fac = factor_ideal(I)
            if len(fac) < 2:
                continue
            gens[I.key()] = (I, fac)
            if len(gens) >= 3 * target:
                break
        chosen = rng.sample(sorted(gens.values(), key=lambda t: t[0].norm()), target)
        for I, fac in chosen:
            # split into two coprime parts
            P0, e0 = fac[0]
            c1I = P0.ideal
            for _ in range(e0 - 1):
                c1I = c1I * P0.ideal
            c2I = I * c1I.inverse()
            from totreal.fields import principal_generator

            c1 = principal_generator(c1I)
            c2 = principal_generator(c2I)
            c = c1 * c2
            r1 = K.element(rng.randint(1, 4), rng.randint(0, 2) if K.d == 2 else 0)
            r2 = K.element(rng.randint(1, 4), rng.randint(0, 2) if K.d == 2 else 0)
            cases.append((KloostermanQuery(r1, r2, c), c1, c2))
    worst = 0.0
    for q, c1, c2 in cases:
        direct = kloosterman_sum(q)
        crt = kloosterman_sum_crt(q, c1, c2)
        worst = max(worst, abs(direct - crt))
    ok = worst <= 1e-9 and len(cases) >= 200
    _report(3, ok, f"{len(cases)} composite moduli, worst |direct - CRT| = {worst:.2e} (tol 1e-9)")


def test_criterion_4_local_vectors_exact():
    ok = True
    detail = ""
    for N in (2, 3, 4, 5, 7, 9, 11):
        for m in (0, 1, 2):
            for j in range(5):
                v = local_vector_norm_sq(LocalVectorSpec(N, j, m))
                if not ((1 - Fraction(1, N)) ** 2 <= v <= 1):
                    ok, detail = False, f"norm bound fails at N={N}, j={j}, m={m}"
            for i in range(5):
                for j2 in range(i + 1, 5):
                    rat, irr = local_inner_product(
                        LocalVectorSpec(N, i, m), LocalVectorSpec(N, j2, m)
                    )
                    if rat != 0 or irr != 0:
                        ok, detail = False, f"orthogonality fails at N={N}, {i},{j2}, m={m}"
    _report(4, ok, detail or "norms in [(1-1/Np)^2, 1] and pairwise orthogonality, exact")


def _hecke_characters_for(K, count=10):
    """Unit-trivial Hecke characters: diagonal exponents, lattice offsets,
    and finite parts mod small ideals with matching archimedean offsets."""
    out = [unramified_character(K, [0.0] * K.d)]
    for t in (0.31, 0.83, 1.7, 2.9):
        out.append(unramified_character(K, [t] * K.d))
    if K.d == 1:
        for qmod, tpar in ((5, 0.0), (5, 0.7), (8, 0.0), (7, 1.3), (9, 0.4)):
            for fin in characters_mod(K.ideal(qmod)):
                if not fin.is_trivial():
                    sign = 0 if fin.value_exponent(-K.one()) == 0 else 1
                    out.append(HeckeCharacter(K, fin, [tpar], [sign]))
                    break
    else:
        sp = unramified_exponent_lattice(K)["spacing"]
        out.append(unramified_character(K, [sp / 2, -sp / 2]))
        out.append(unramified_character(K, [1.0 + sp / 2, 1.0 - sp / 2]))
        le = math.log(K.eps.embeddings()[0])
        for qmod in (2, 3):
            for fin in characters_mod(K.ideal(qmod)):
                if fin.is_trivial() or fin.value_exponent(-K.one()) != 0:
                    continue
                fe = fin.value_exponent(K.eps)
                off = -2 * math.pi * float(fe) / le
                out.append(HeckeCharacter(K, fin, [off / 2, -off / 2], [0, 0]))
                break
        for t in (0.57, 2.2):
            out.append(unramified_character(K, [t, t]))
    return out[:count]


def test_criterion_5_eis_hecke_relation():
    # all pairs m, n with N(mn) <= 1e4; the pair loop works on factorization
    # exponent signatures so no ideal arithmetic happens in the hot path,
    # while every eigenvalue comes from the library routine
    from itertools import product as iproduct

    worst = 0.0
    for K in (Q, K5):
        chars = _hecke_characters_for(K, 10)
        assert len(chars) == 10
        # intern ideals by factorization signature (unit ideal first, so
        # gcd-cancelled terms resolve); the pair algebra below is character
        # independent and computed once
        sigs = [((), K.unit_ideal(), 1)]
        index = {(): 0}
        for I in ideals_of_norm_up_to(K, 10**4):
            if I.norm() < 2:
                continue
            s = tuple(sorted(((P.p,) + P.ideal.key(), e) for P, e in factor_ideal(I)))
            index[s] = len(sigs)
            sigs.append((s, I, int(I.norm())))
        pairs = []  # (i, j, [k indices of mn a^{-2} over a | gcd])
        for i, (sm, _, nm) in enumerate(sigs):
            if i == 0:
                continue
            dm = dict(sm)
            for j, (sn, _, nn) in enumerate(sigs):
                if j == 0:
                    continue
                if nm * nn > 10**4:
                    break  # sigs is in norm order
                dn = dict(sn)
                gcd = {p: min(e, dn[p]) for p, e in dm.items() if p in dn}
                total = {p: dm.get(p, 0) + dn.get(p, 0) for p in set(dm) | set(dn)}
                terms = []
                for expo in iproduct(*[range(e + 1) for e in gcd.values()]):
                    t = dict(total)
                    for p, a in zip(gcd.keys(), expo):
                        t[p] -= 2 * a
                    terms.append(index[tuple(sorted((p, e) for p, e in t.items() if e))])
                pairs.append((i, j, terms))
        # the ordered pairs (m, n), both nontrivial, with N(m)N(n) <= 1e4
        assert len(pairs) == {1: 73669, 5: 11849}[K.D]
        for chi in chars:
            cond = chi.conductor()
            lam = [eis_hecke_eigenvalue(chi, I) for _, I, _ in sigs]
            allowed = [
                cond.norm() == 1 or (I + cond).norm() == 1 for _, I, _ in sigs
            ]
            for i, j, terms in pairs:
                if not (allowed[i] and allowed[j]):
                    continue
                rhs = 0j
                for k in terms:
                    rhs += lam[k]
                worst = max(worst, abs(lam[i] * lam[j] - rhs))
    ok = worst <= 1e-12
    _report(5, ok, f"Hecke relation residual {worst:.2e} over N(mn) <= 1e4, 10 chars/field (tol 1e-12)")


def _divisor_list(I):
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


def test_criterion_6_constant_term():
    ok = True
    detail = ""
    for K in (Q, K5):
        levels = ideals_of_norm_up_to(K, 60)[:20]
        assert len(levels) == 20
        for c in levels:
            exact = constant_term_H_at_half(c)
            if exact != Fraction(1, abs(K.disc)) / coset_index(c):
                ok, detail = False, f"exact H(1/2) mismatch at {c}"
        for c in (K.ideal(5), K.ideal(6)):
            exact = float(constant_term_H_at_half(c))
            h1 = constant_term_H_numeric(c, 1e-2)
            h2 = constant_term_H_numeric(c, 5e-3)
            rich = 2 * h2 - h1
            if abs(rich - exact) > 1e-3:
                ok, detail = False, f"Richardson check fails at D={K.D}, level {c}"
    _report(6, ok, detail or "H(1/2) exact for 20 levels/field; Richardson limit within 1e-3")


def test_criterion_7_oldform_gram_schmidt():
    # the worked ratio sqrt5/3 for the alpha_p = 1 system
    ratio = shifted_inner_ratio(divisor_system(Q), Q.ideal(5), Q.unit_ideal())
    ok = abs(ratio - math.sqrt(5) / 3) <= 1e-12
    worst = 0.0
    count = 0
    rng = random.Random(23)
    level_menu = {
        1: [Q.ideal(7), Q.ideal(49), Q.ideal(35)],
        5: [K5.ideal(11), K5.ideal(4), Ideal.principal(K5.sqrtD()) * Ideal.principal(K5.element(3, 2))],
    }
    while count < 50:
        K = Q if count % 2 == 0 else K5
        sys_ = EigenvalueSystem(K, seed=rng.randint(0, 10**6))
        c = level_menu[K.D][count % 3]
        basis = oldform_gram_schmidt(sys_, c)
        worst = max(worst, basis.gram_residual)
        count += 1
    ok = ok and worst <= 1e-10
    _report(7, ok, f"50 systems, worst Gram residual {worst:.2e} (tol 1e-10); ratio err {abs(ratio - math.sqrt(5)/3):.2e}")


def test_criterion_8_bessel_bounds():
    ts = np.logspace(-6, 2, 40)
    worst_ratio = 0.0
    worst_tail = 0.0
    for Z in (1, 2, 4, 8):
        k = KTestGaussian(float(Z))
        td = bessel_tilde(k)
        worst_ratio = max(worst_ratio, abs(td["value"]) / Z**2)
        worst_tail = max(worst_tail, td["tail_bound"])
        for t in ts:
            for sign in (1, -1):
                rec = bessel_transforms(k, sign * float(t))
                bound = Z**2 * min(1.0, math.sqrt(t))
                worst_ratio = max(worst_ratio, abs(rec["value"]) / bound)
                worst_tail = max(worst_tail, rec["tail_bound"])
    ok = worst_ratio <= BESSEL_BOUND_CONST and worst_tail < 1e-8
    _report(
        8,
        ok,
        f"|kcheck|/(Z^2 min(1, sqrt t)) <= {worst_ratio:.3f} (C = {BESSEL_BOUND_CONST}); "
        f"tail certificates <= {worst_tail:.1e} (< 1e-8)",
    )


def test_criterion_9_plancherel_identity():
    V = SmoothBump(0.5, 2.0)
    worst = 0.0
    slowest = 0.0
    cases = []
    for qv in (5, 7, 11):
        cases.append((Q, Q.ideal(qv), 6.0, 40.0))
    cases.append((K5, Ideal.principal(K5.sqrtD()), 5.0, 25.0))
    cases.append((K5, factor_ideal(K5.ideal(11))[0][0].ideal, 5.0, 25.0))
    for K, qI, L, Y in cases:
        chi = unramified_character(K, [0.0] * K.d)
        for sys_ in (divisor_system(K), EigenvalueSystem(K, seed=41)):
            t0 = time.time()
            rep = amplified_moment(qI, L, sys_, chi, V, Y)
            slowest = max(slowest, time.time() - t0)
            worst = max(worst, rep["relative_difference"])
    ok = worst <= 1e-9 and slowest < 60
    _report(9, ok, f"A = B to {worst:.2e} relative (tol 1e-9) on {2*len(cases)} cases, slowest {slowest:.1f}s (< 60s)")


def test_criterion_10_shifted_oracle():
    rng = random.Random(31)
    worst = 0.0
    # 20 random queries over Q against the scalar double loop
    for _ in range(20):
        Y = rng.uniform(15, 40)
        l1, l2 = rng.randint(1, 3), rng.randint(1, 3)
        qv = rng.choice([-2, -1, 1, 2, 3])
        seeds = rng.randint(0, 999), rng.randint(0, 999)
        s1 = EigenvalueSystem(Q, seed=seeds[0])
        s2 = EigenvalueSystem(Q, seed=seeds[1])
        W1 = ProductWeight([SmoothBump(0.3, 2.5)])
        W2 = ProductWeight([SmoothBump(0.25, 2.8)])
        qq = ShiftedQuery(s1, s2, Q.element(l1), Q.element(l2), Q.unit_ideal(),
                          Q.element(qv), (Y,), W1, W2)
        v = shifted_sum(qq)
        vo = shifted_sum_scalar_oracle(s1, s2, qv, Y, W1.factors[0], W2.factors[0], l1, l2)
        worst = max(worst, abs(v - vo))
    # 20 random queries over Q(sqrt5) against a support-filtered double loop
    from totreal.fields import enumerate_in_box

    for _ in range(20):
        Y = (rng.uniform(5, 11), rng.uniform(5, 11))
        s1 = EigenvalueSystem(K5, seed=rng.randint(0, 999))
        s2 = EigenvalueSystem(K5, seed=rng.randint(0, 999))
        W1 = ProductWeight([SmoothBump(0.3, 2.2), SmoothBump(0.25, 2.4)])
        W2 = ProductWeight([SmoothBump(0.35, 2.3), SmoothBump(0.3, 2.1)])
        qel = rng.choice([K5.one(), K5.element(1, 1), K5.element(-1), K5.element(2)])
        qq = ShiftedQuery(s1, s2, K5.one(), K5.one(), K5.unit_ideal(), qel, Y, W1, W2)
        v = shifted_sum(qq)
        B = Fraction(40)
        elems = [e for e in enumerate_in_box(K5.unit_ideal(), [(-B, B)] * 2) if not e.is_zero()]
        lhs = [e for e in elems if W1([a / b for a, b in zip(e.embeddings(), Y)]) != 0.0]
        rhs = [e for e in elems if W2([a / b for a, b in zip(e.embeddings(), Y)]) != 0.0]
        vo = 0j
        for r1 in lhs:
            for r2 in rhs:
                if (r1 - r2) == qel:
                    I1 = Ideal.principal(r1)
                    I2 = Ideal.principal(r2)
                    lam = s1.lambda_value(I1) * s2.lambda_value(I2).conjugate()
                    w = W1([a / b for a, b in zip(r1.embeddings(), Y)]) * W2(
                        [a / b for a, b in zip(r2.embeddings(), Y)]
                    )
                    vo += lam / math.sqrt(float(I1.norm() * I2.norm())) * w
        worst = max(worst, abs(v - vo))
    # Dirichlet-series self-consistency at the stated abscissas
    dv = divisor_system(Q)
    consistent = True
    for s in (1.1, 1.5, 3.0):
        rA = dirichlet_D(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.one(), [s], 2, trace_height=150.0)
        rB = dirichlet_D(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.one(), [s], 2, trace_height=300.0)
        if abs(rA["value"] - rB["value"]) > rA["tail_bound"]:
            consistent = False
    ok = worst <= 1e-10 and consistent
    _report(10, ok, f"40 oracle queries, worst deviation {worst:.2e} (tol 1e-10); Dirichlet tails consistent: {consistent}")


def test_criterion_11_eisenstein_pair_counts():
    got = [enumerate_eisenstein_pairs(K5.unit_ideal(), X)["branches"] for X in (5, 14, 30)]
    ok = got == [1, 3, 5]
    _report(11, ok, f"branch counts at X = 5, 14, 30: {got} (expected [1, 3, 5])")
