"""Tests for shifted convolution sums, the Dirichlet series, the unit
fundamental domain, and the amplified-moment identity."""

import functools
import math
import random

import pytest

from totreal.characters import HeckeCharacter, characters_mod, unramified_character
import totreal.fields as fields_module
from totreal.fields import Ideal, arith_functions, enumerate_in_box, make_field
from totreal.shifted import (
    SIDE_A_BLOCK,
    ProductWeight,
    ShiftedQuery,
    SmoothBump,
    _amplifier_primes,
    _reduced_generators,
    afe_sum,
    amplified_moment,
    dirichlet_D,
    fd_log_coordinate,
    fd_reduce,
    shifted_sum,
    shifted_sum_scalar_oracle,
)
from totreal.spectral import EigenvalueSystem, divisor_system

Q = make_field(1)
K5 = make_field(5)


def _tau(n):
    return sum(1 for i in range(1, n + 1) if n % i == 0)


def test_bump_properties():
    w = SmoothBump(0.5, 2.0)
    assert w(0.4) == 0.0 and w(2.1) == 0.0
    assert w(1.25) == pytest.approx(1.0)
    assert 0 < w(0.75) < 1
    d1 = w.derivative(1)
    h = 1e-5
    assert d1(1.0) == pytest.approx((w(1.0 + h) - w(1.0 - h)) / (2 * h), abs=1e-3)
    with pytest.raises(ValueError):
        SmoothBump(-1.0, 2.0)


def test_shifted_matches_double_loop_Q():
    dv = divisor_system(Q)
    W1 = ProductWeight([SmoothBump(0.3, 2.5)])
    W2 = ProductWeight([SmoothBump(0.2, 3.0)])
    q = ShiftedQuery(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.element(1), (30.0,), W1, W2)
    v = shifted_sum(q)
    vo = shifted_sum_scalar_oracle(dv, dv, 1, 30.0, W1.factors[0], W2.factors[0])
    assert v == pytest.approx(vo, abs=1e-12)


def test_shifted_empty_cases():
    dv = divisor_system(Q)
    W = ProductWeight([SmoothBump(0.5, 2.0)])
    # no lattice solutions inside the box
    q = ShiftedQuery(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.element(1), (0.2,), W, W)
    assert shifted_sum(q) == 0.0
    # q outside the lattice y
    q2 = ShiftedQuery(
        dv, dv, Q.one(), Q.one(), Q.ideal(2), Q.element(1), (30.0,), W, W
    )
    assert shifted_sum(q2) == 0.0


def test_shifted_eisenstein_system_matches_oracle():
    # the invariant family: Eisenstein systems against the double loop
    from totreal.spectral import eisenstein_system

    chi = unramified_character(Q, [1.3])
    es = eisenstein_system(chi)
    W1 = ProductWeight([SmoothBump(0.3, 2.5)])
    W2 = ProductWeight([SmoothBump(0.2, 3.0)])
    q = ShiftedQuery(es, es, Q.element(2), Q.one(), Q.unit_ideal(), Q.element(1), (28.0,), W1, W2)
    v = shifted_sum(q)
    vo = shifted_sum_scalar_oracle(es, es, 1, 28.0, W1.factors[0], W2.factors[0], 2, 1)
    assert v == pytest.approx(vo, abs=1e-10)


def test_shifted_swap_conjugates():
    s1 = EigenvalueSystem(Q, seed=3)
    s2 = EigenvalueSystem(Q, seed=4)
    W1 = ProductWeight([SmoothBump(0.3, 2.5)])
    W2 = ProductWeight([SmoothBump(0.2, 3.0)])
    qA = ShiftedQuery(s1, s2, Q.element(2), Q.element(3), Q.unit_ideal(), Q.element(1), (25.0,), W1, W2)
    qB = ShiftedQuery(s2, s1, Q.element(3), Q.element(2), Q.unit_ideal(), Q.element(-1), (25.0,), W2, W1)
    assert shifted_sum(qA) == pytest.approx(shifted_sum(qB).conjugate(), abs=1e-12)


# Q(sqrt 5) in integer coordinates: r = (x, y) is x + y*omega, omega^2 =
# omega + 1, and sigma_1(omega) = (1 + sqrt 5)/2; no field or ideal objects
PHI = (1 + math.sqrt(5)) / 2


def _mul5(r, s):
    (x1, y1), (x2, y2) = r, s
    return (x1 * x2 + y1 * y2, x1 * y2 + x2 * y1 + y1 * y2)


def _norm5(r):
    x, y = r
    return x * x + x * y - y * y


def _totally_positive5(r):
    return 2 * r[0] + r[1] > 0 and _norm5(r) > 0


def _emb5(r):
    x, y = r
    return (x + y * PHI, x + y * (1 - PHI))


def _div5(r, s):
    """r / s in integer coordinates, or None when it is not integral."""
    x, y = _mul5(r, (s[0] + s[1], -s[1]))  # r * conj(s)
    n = _norm5(s)
    return (x // n, y // n) if x % n == 0 and y % n == 0 else None


@functools.lru_cache(maxsize=None)
def _roots5(a):
    # b + omega generates a primitive ideal of norm a with a | N(b + omega)
    return [b for b in range(a) if (b * b + b - 1) % a == 0]


@functools.lru_cache(maxsize=None)
def _tau5(r):
    """tau((r)): the HNF ideals c*(a*Z + (b + omega)*Z), of norm c^2 a,
    that contain r = x + y*omega."""
    x, y = r
    n = abs(_norm5(r))
    count = 0
    for c in range(1, math.isqrt(n) + 1):
        if x % c or y % c or n % (c * c):
            continue
        m = n // (c * c)
        for a in range(1, m + 1):
            if m % a == 0:
                count += sum(1 for b in _roots5(a) if (x // c - y // c * b) % a == 0)
    return count


def _double_loop_oracle_K5(l1, l2, g, qel, Y, W1, W2, B=25):
    """shifted_sum for the divisor system over Q(sqrt 5) with y = (g), g a
    rational integer, by a double loop over r = g*(x + y*omega) with |x|,
    |y| <= 2B (every r whose embeddings lie in [-B, B]); weight-filtered."""
    total = 0j
    rhos = [(x, y) for x in range(-2 * B, 2 * B + 1) for y in range(-2 * B, 2 * B + 1)
            if (x, y) != (0, 0)]
    sides = []
    for l, W in ((l1, W1), (l2, W2)):
        side = []
        for rho in rhos:
            lr = _mul5(l, (g * rho[0], g * rho[1]))
            w = W([e / Yj for e, Yj in zip(_emb5(lr), Y)])
            if w != 0.0:
                side.append((rho, lr, w))
        sides.append(side)
    for rho1, lr1, w1 in sides[0]:
        for rho2, lr2, w2 in sides[1]:
            if (lr1[0] - lr2[0], lr1[1] - lr2[1]) != qel:
                continue
            lam = _tau5(rho1) * _tau5(rho2)
            total += lam / math.sqrt(abs(_norm5(rho1) * _norm5(rho2))) * w1 * w2
    return total


def test_shifted_matches_double_loop_K5():
    # y = (1) and y = (2), with q = 1 and q = 2 in y
    dv = divisor_system(K5)
    for g in (1, 2):
        rng = random.Random(6)
        for _ in range(3):
            Y = (rng.uniform(5, 9), rng.uniform(5, 9))
            W = ProductWeight([SmoothBump(0.3, 2.2), SmoothBump(0.25, 2.4)])
            q = ShiftedQuery(dv, dv, K5.one(), K5.one(), K5.ideal(g), K5.element(g), Y, W, W)
            v = shifted_sum(q)
            assert abs(v) > 0.1
            assert v == pytest.approx(_double_loop_oracle_K5((1, 0), (1, 0), g, (g, 0), Y, W, W),
                                      rel=1e-12)


def _dirichlet_oracle_K5(l1, l2, g, q, s, beta, H, theta):
    """(value, tail_bound) of dirichlet_D for the divisor system over
    Q(sqrt 5) with y = (g), by brute force over the integer coordinates of
    u = l1 r1 with 0 < trace(u) <= 4H; the tail from the shells of trace
    [H, 2H] and [2H, 4H] extrapolated as documented."""
    total = 0j
    shell1 = shell2 = 0.0
    R = int(4 * H)
    for x in range(-R, R + 1):
        for y in range(-R, R + 1):
            u = (x, y)
            tr = 2 * x + y
            v = (x - q[0], y - q[1])  # l2 r2
            if tr > 4 * H or not (_totally_positive5(u) and _totally_positive5(v)):
                continue
            rho1, rho2 = _div5(u, (g * l1[0], g * l1[1])), _div5(v, (g * l2[0], g * l2[1]))
            if rho1 is None or rho2 is None:
                continue
            nprod = (_norm5(u) * _norm5(v)) ** ((beta - 1) / 2)
            t1, t2 = _tau5(rho1), _tau5(rho2)
            sums = _emb5(u), _emb5(v)
            if tr <= H:
                term = t1 * t2 * nprod
                for xj, zj, sj in zip(*sums, s):
                    term /= (xj + zj) ** (sj + beta - 1)
                total += term
            if tr >= H:
                term = t1 * t2 * (_norm5(rho1) * _norm5(rho2)) ** theta * nprod
                for xj, zj, sj in zip(*sums, s):
                    term /= (xj + zj) ** (sj.real + beta - 1)
                shell1 += term if tr <= 2 * H else 0.0
                shell2 += term if tr >= 2 * H else 0.0
    ratio = 0.75 if shell1 == 0 else min(0.75, shell2 / shell1)
    return total, (shell1 if shell1 else shell2) / (1 - ratio)


@pytest.mark.parametrize("l1,l2,g,q,H,s", [
    ((1, 0), (1, 0), 1, (1, 0), 20.0, [1.5 + 0.5j, 2.0]),
    ((1, 0), (1, 0), 1, (1, 0), 30.0, [1.5 + 0.5j, 2.0]),
    # 27 + 42 omega, trace 4H, sits in the last row of the box; at this s
    # the shell ratio stays below its cap, so the tail reads shell [2H, 4H]
    ((1, 0), (1, 0), 1, (1, 0), 24.0, [3.0, 3.5]),
    ((1, 1), (2, 0), 1, (2, 1), 20.0, [1.5 + 0.5j, 2.0]),
    ((1, 0), (1, 1), 2, (2, 0), 24.0, [1.5 + 0.5j, 2.0]),
])
def test_dirichlet_matches_integer_oracle_K5(l1, l2, g, q, H, s):
    # l1 = 1 + omega is the totally positive unit eps^2, q = 2 + omega >> 0
    dv = divisor_system(K5)
    el = lambda r: K5.element(*r)
    rec = dirichlet_D(dv, dv, el(l1), el(l2), K5.ideal(g), el(q), s, 2, trace_height=H)
    value, tail = _dirichlet_oracle_K5(l1, l2, g, q, s, 2, H, dv.theta)
    assert value != 0 and tail > 0
    assert rec["value"] == pytest.approx(value, rel=1e-12)
    assert rec["tail_bound"] == pytest.approx(tail, rel=1e-12)


def test_dirichlet_scalar_example():
    dv = divisor_system(Q)
    r = dirichlet_D(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.one(), [3.0], 2, trace_height=400.0)
    direct = sum(
        _tau(n) * _tau(n - 1) * math.sqrt(n * (n - 1)) / (2 * n - 1) ** 4
        for n in range(2, 4000)
    )
    assert abs(r["value"] - direct) <= max(r["tail_bound"], 1e-9)
    assert r["beta_warning"] is True


def test_dirichlet_consistency_heights():
    dv = divisor_system(Q)
    for s in (1.1, 1.5, 3.0):
        rA = dirichlet_D(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.one(), [s], 2, trace_height=150.0)
        rB = dirichlet_D(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.one(), [s], 2, trace_height=300.0)
        assert abs(rA["value"] - rB["value"]) <= rA["tail_bound"]


def test_dirichlet_domain_checks():
    dv = divisor_system(Q)
    with pytest.raises(ValueError):
        dirichlet_D(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.one(), [0.9], 2)
    # Re s -> infinity: ratio to minimal-height term -> 1
    r = dirichlet_D(dv, dv, Q.one(), Q.one(), Q.unit_ideal(), Q.one(), [40.0], 2, trace_height=60.0)
    lead = _tau(2) * _tau(1) * math.sqrt(2) / 3 ** (40 + 1)
    assert r["value"] == pytest.approx(lead, rel=1e-6)


def test_dirichlet_refuses_shifts_not_totally_positive():
    # with l1 = l2 = -1 every r1 >= 1 has r2 = r1 + 1 > 0, so a zero value
    # with a zero tail bound would be false
    dv = divisor_system(Q)
    minus = -Q.one()
    for l1, l2 in ((minus, minus), (minus, Q.one()), (Q.one(), minus)):
        with pytest.raises(ValueError, match="shifts must be totally positive"):
            dirichlet_D(dv, dv, l1, l2, Q.unit_ideal(), Q.one(), [1.5], 2, trace_height=40.0)
    omega = K5.element(0, 1)  # sigma_2(omega) < 0
    with pytest.raises(ValueError, match="shifts must be totally positive"):
        dirichlet_D(divisor_system(K5), divisor_system(K5), omega, K5.one(), K5.unit_ideal(),
                    K5.one(), [1.5, 1.5], 2, trace_height=20.0)


@pytest.mark.parametrize("K,beta", [(K5, 134), (Q, 200), (Q, -1000)])
def test_dirichlet_refuses_beta_out_of_float_range(K, beta):
    # the terms overflow (or underflow to a zero divisor) in floats
    dv = divisor_system(K)
    with pytest.raises(ValueError, match=f"beta = {beta} "):
        dirichlet_D(dv, dv, K.one(), K.one(), K.unit_ideal(), K.one(), [1.5] * K.d, beta,
                    trace_height=20.0)


@pytest.mark.parametrize("K,s", [(Q, [math.inf]), (Q, [math.nan]), (K5, [1.5, -math.inf]),
                                 (K5, [complex(1.5, math.nan), 2.0])])
def test_dirichlet_refuses_s_not_finite(K, s):
    # an infinite s made every term 0 and a tail bound 0.0; a nan one was
    # blamed on beta
    dv = divisor_system(K)
    with pytest.raises(ValueError, match="s must be finite at every place"):
        dirichlet_D(dv, dv, K.one(), K.one(), K.unit_ideal(), K.one(), s, 2, trace_height=10.0)


def _dirichlet_box_walk(sys1, sys2, l1, l2, y, q, s, beta, H):
    """(value, tail_bound) of dirichlet_D by the route it took before its
    rows stopped at the trace: the whole box [0, 4H/sigma_j(l1)] pushed out
    by 2^-30, each point kept by its exact trace, the ideals (r) from the
    lattice HNF of their generator and tau from arith_functions."""
    K = l1.field
    box = []
    for e in l1.embeddings():
        lo, hi = 0 / e, 4 * H / e
        box.append((lo - abs(lo) * 2**-30, hi + abs(hi) * 2**-30))
    y_inv, l2_inv = y.inverse(), l2.inverse()
    total = 0.0 + 0j
    shell1 = shell2 = 0.0
    for r1 in enumerate_in_box(y, box):
        r2 = (l1 * r1 - q) * l2_inv
        if r1.is_zero() or r2.is_zero() or not y.contains(r2) or not r2.is_totally_positive():
            continue
        tr = (l1 * r1).trace()
        if tr > 4 * H:
            continue
        I1 = Ideal.from_generators(K, [r1]) * y_inv
        I2 = Ideal.from_generators(K, [r2]) * y_inv
        x, z = (l1 * r1).embeddings(), (l2 * r2).embeddings()
        nprod = abs(float((l1 * r1 * l2 * r2).norm()))
        if tr <= H:
            out = sys1.lambda_value(I1) * sys2.lambda_value(I2).conjugate()
            out *= nprod ** ((beta - 1) / 2)
            for j in range(K.d):
                out /= (x[j] + z[j]) ** (s[j] + beta - 1)
            total += out
        if tr >= H:
            t1 = arith_functions(I1)[2] * float(I1.norm()) ** sys1.theta
            t2 = arith_functions(I2)[2] * float(I2.norm()) ** sys2.theta
            out = t1 * t2 * nprod ** ((beta - 1) / 2)
            for j in range(K.d):
                out /= (x[j] + z[j]) ** (s[j].real + beta - 1)
            if tr <= 2 * H:
                shell1 += out
            if tr >= 2 * H:
                shell2 += out
    ratio = 0.75 if shell1 == 0 else min(0.75, shell2 / shell1)
    return total, (shell1 if shell1 else shell2) / (1 - ratio)


def _simplex_cases():
    """(K, l1, l2, y, q, heights): shifts other than 1 and y other than o,
    over Q, Q(sqrt 5), Q(sqrt 13) and Q(sqrt 10) (class number 2, y not
    principal)."""
    K13, K10 = make_field(13), make_field(10, allow_class_number=True)
    return [
        (Q, Q.element(3), Q.element(2), Q.ideal(2), Q.element(2), (7.0, 12.5, 40.0, 101.3)),
        (K5, K5.element(1, 1), K5.element(2), K5.ideal(K5.element(3, 1)), K5.element(3, 1),
         (8.0, 20.0, 31.7, 45.0)),
        (K13, K13.element(2), K13.element(3, 1), K13.primes_above(3)[0].ideal, K13.element(3),
         (20.0, 45.0, 70.0)),
        (K10, K10.element(4, 1), K10.element(2), K10.ideal(2, K10.sqrtD()), K10.element(2),
         (5.0, 12.0, 22.5)),
    ]


@pytest.mark.parametrize("case", range(4), ids=["Q", "K5", "K13", "K10"])
def test_dirichlet_simplex_walk_against_box_walk(case):
    K, l1, l2, y, q, heights = _simplex_cases()[case]
    assert y != K.unit_ideal() and l1 != K.one() and l2 != K.one()
    sys1, sys2 = divisor_system(K), EigenvalueSystem(K, seed=5)
    s = [1.5 + 0.5j, 2.0][: K.d]
    nonzero = 0
    for H in heights:
        rec = dirichlet_D(sys1, sys2, l1, l2, y, q, s, 2, trace_height=H)
        value, tail = _dirichlet_box_walk(sys1, sys2, l1, l2, y, q, s, 2, H)
        assert repr(rec["value"]) == repr(value), H
        assert repr(rec["tail_bound"]) == repr(tail), H
        nonzero += value != 0
    assert nonzero >= 2


def test_shifted_sums_build_no_lattice_hnf(monkeypatch):
    # over Q(sqrt 5) with y = o, the ideals (r1) and (r2) of every point come
    # in closed form: a lattice HNF per point would show as calls here
    dv = divisor_system(K5)
    W = ProductWeight([SmoothBump(0.3, 2.2), SmoothBump(0.25, 2.4)])
    query = ShiftedQuery(dv, dv, K5.one(), K5.one(), K5.unit_ideal(), K5.one(), (8.0, 7.0), W, W)

    def both():
        return (dirichlet_D(dv, dv, K5.one(), K5.one(), K5.unit_ideal(), K5.one(), [1.5, 1.5], 2,
                            trace_height=20.0), shifted_sum(query))

    first = both()  # each new prime's ideal is made once, by its generators
    calls = []
    real = fields_module._hnf_from_vectors
    monkeypatch.setattr(fields_module, "_hnf_from_vectors",
                        lambda vecs: calls.append(vecs) or real(vecs))
    assert both() == first
    assert abs(first[1]) > 0.1
    assert calls == []


def test_fd_reduce():
    u, red = fd_reduce(K5, [7.3, 0.11])
    assert 0.0 <= fd_log_coordinate(K5, red) < 1.0
    # norm preserved
    assert red[0] * red[1] == pytest.approx(7.3 * 0.11, rel=1e-12)
    # idempotent
    u2, red2 = fd_reduce(K5, red)
    assert u2 == K5.one() and red2 == pytest.approx(red)
    # equivariant under the totally positive unit
    eps2 = K5.totally_positive_unit_gens()[0]
    e = eps2.embeddings()
    _, red3 = fd_reduce(K5, [e[0] * 7.3, e[1] * 0.11])
    assert red3 == pytest.approx(red, rel=1e-9)
    with pytest.raises(ValueError):
        fd_reduce(K5, [1.0, -2.0])
    # already reduced points return the trivial unit
    uu, _ = fd_reduce(K5, [1.0, 1.0])
    assert uu == K5.one()


@pytest.mark.parametrize("D", [5, 13])
def test_fd_contains_only_the_unshifted_point(D):
    # y0 sits at log coordinate 0.4; eps_+^k y0 sits at 0.4 + k, so it lies
    # in the domain only at k = 0 (fd_reduce returns the unit 1 exactly
    # there), and reduces back to y0 for every k
    K = make_field(D)
    eps = K.totally_positive_unit_gens()[0]
    le = math.log(eps.embeddings()[0])
    y0 = [3.0 * math.exp(0.8 * le), 3.0]
    for k in range(-6, 7):
        u = K.one()
        for _ in range(abs(k)):
            u = u * (eps if k > 0 else eps.inverse())
        e = u.embeddings()
        y = [e[0] * y0[0], e[1] * y0[1]]
        u_red, y_red = fd_reduce(K, y)
        assert (u_red == K.one()) == (k == 0), (D, k)
        assert fd_log_coordinate(K, y) == pytest.approx(0.4, abs=1e-9)
        assert y_red == pytest.approx(y0, rel=1e-9)
    with pytest.raises(ValueError):
        fd_reduce(K, [1.0, 0.0])


def test_fd_random_lattice_rounding():
    rng = random.Random(11)
    for _ in range(40):
        y = [math.exp(rng.uniform(-5, 5)), math.exp(rng.uniform(-5, 5))]
        _, red = fd_reduce(K5, y)
        t = fd_log_coordinate(K5, red)
        assert 0.0 <= t < 1.0


def test_amplified_moment_identity():
    chi = unramified_character(Q, [0.0])
    V = SmoothBump(0.5, 2.0)
    for qv, L in ((5, 5.0), (7, 5.0), (11, 7.0)):
        rep = amplified_moment(Q.ideal(qv), L, divisor_system(Q), chi, V, 40.0)
        assert rep["relative_difference"] < 1e-9
    # q = (1): both sides collapse to the full weighted square
    rep1 = amplified_moment(Q.unit_ideal(), 5.0, divisor_system(Q), chi, V, 40.0)
    assert rep1["relative_difference"] < 1e-12
    assert rep1["n_amplifier_primes"] >= 1


def _brute_r_count(K, Y):
    """#{totally positive r in F : Y/2 < N(r) < 2Y}, from integer loops over
    x + y*omega.  F = {r : y(r) >= 0 and y(r * conj(eps_+)) < 0}, the
    omega-coordinate y being the sign of sigma_1 - sigma_2: it holds one
    generator of each ideal, and its r have sigma_2 <= sigma_1 < sqrt(2Y) eps_+."""
    if K.d == 1:
        return sum(1 for n in range(1, 2 * int(Y) + 1) if Y / 2 < n < 2 * Y)
    t, nw = K.t_omega, K.n_omega
    eps_plus = K.totally_positive_unit_gens()[0]
    ea, eb = eps_plus.conj().coords()
    side = math.sqrt(2 * Y) * eps_plus.embeddings()[0] + 1
    # sigma_1 - sigma_2 = s*y*sqrt(D) and sigma_1 + sigma_2 = 2x + t*y lie in [0, 2*side]
    y_max = int(side / math.sqrt(K.D)) + 1
    count = 0
    for y in range(0, y_max + 1):
        for x in range(-t * y // 2 - 1, int(side) + 2):
            if 2 * x + t * y <= 0:
                continue
            n = x * x + t * x * y + nw * y * y
            if not Y / 2 < n < 2 * Y:
                continue
            # omega-coordinate of (x + y w)(ea + eb w), w^2 = t w - nw
            if x * eb + y * ea + t * y * eb < 0:
                count += 1
    return count


@pytest.mark.parametrize("D,L,Y", [(1, 10.0, 40.0), (2, 10.0, 40.0), (5, 10.0, 25.0),
                                   (5, 10.0, 2000.0), (13, 10.0, 40.0)])
def test_amplifier_r_terms_brute_force(D, L, Y):
    # one term per totally positive r modulo U^+ with N(r) in the support of V
    K = make_field(D)
    chi = unramified_character(K, [0.0] * K.d)
    rep = amplified_moment(K.unit_ideal(), L, divisor_system(K), chi, SmoothBump(0.5, 2.0), Y)
    assert rep["n_r_terms"] == _brute_r_count(K, Y)
    assert rep["relative_difference"] < 1e-9


def test_amplified_moment_diagonal_count():
    chi = unramified_character(Q, [0.0])
    V = SmoothBump(0.5, 2.0)
    rep = amplified_moment(Q.ideal(7), 5.0, divisor_system(Q), chi, V, 40.0)
    # independent pair scan: ell1 r1 = ell2 r2 forces ell1 = ell2, r1 = r2
    # here (single amplifier prime ell=5, coprime residues)
    n_r_coprime = rep["diagonal_count"]
    assert n_r_coprime > 0
    assert rep["off_diagonal"] == pytest.approx(rep["B"] - rep["diagonal"])


def test_amplified_moment_nontrivial_character():
    # the Plancherel identity is insensitive to the amplifier twist
    from totreal.characters import HeckeCharacter, characters_mod

    fin = next(c for c in characters_mod(Q.ideal(7)) if not c.is_trivial())
    sign = 0 if fin.value_exponent(-Q.one()) == 0 else 1
    chi = HeckeCharacter(Q, fin, [0.4], [sign])
    rep = amplified_moment(Q.ideal(7), 5.0, EigenvalueSystem(Q, seed=2), chi,
                           SmoothBump(0.5, 2.0), 30.0)
    assert rep["relative_difference"] < 1e-9


def _moment_by_characters(q, L, sys, chi, V, Y):
    """A, B and the diagonal of the amplified moment the direct way: a
    FiniteCharacter for each xi of characters_mod(q), evaluated by value_at
    term by term and summed by sum(); B buckets r by the class of the
    RingElement product r * ell."""
    ells = _amplifier_primes(q.field, q, L)
    rs = []
    for I, r in _reduced_generators(q.field, V.a * Y, V.b * Y):
        n = float(I.norm())
        w = V(n / Y)
        if w != 0.0:
            rs.append((r, sys.lambda_value(I) / math.sqrt(n) * w))
    chars = characters_mod(q)
    st = chars[0].structure
    r_logs = [st.dlogs[st.index(r)] for r, _ in rs]
    ell_logs = [st.dlogs[st.index(ell)] for ell in ells]
    coeffs = []
    for ell in ells:
        v = 1.0 + 0j if chi.finite is None else chi.finite(ell)
        coeffs.append(v if chi.finite is None else (v.conjugate() if v != 0 else 0.0))
    A = 0.0
    for xi in chars:
        Lxi = sum(w * xi.value_at(v) for (_, w), v in zip(rs, r_logs))
        amp = sum(c * xi.value_at(v) for v, c in zip(ell_logs, coeffs))
        A += abs(Lxi) ** 2 * abs(amp) ** 2
    cx = {}
    for ell, cf in zip(ells, coeffs):
        if cf == 0:
            continue
        for (r, w), v in zip(rs, r_logs):
            if v is not None:
                x = st.index(r * ell)
                cx[x] = cx.get(x, 0.0 + 0j) + cf * w
    B = st.order * sum(abs(v) ** 2 for v in cx.values())
    diag = 0.0
    for c1, ell1 in zip(coeffs, ells):
        for c2, ell2 in zip(coeffs, ells):
            for (r1, w1), v in zip(rs, r_logs):
                if v is None:
                    continue
                for r2, w2 in rs:
                    if ell1 * r1 == ell2 * r2:
                        diag += (c1 * w1 * (c2 * w2).conjugate()).real
    diag *= st.order
    rel = abs(A - B) / max(abs(A), abs(B), 1e-300)
    return A, B, rel, diag, sum(v is None for v in r_logs)


def _finite_chi(K, q):
    """A Hecke character over Q with a nontrivial finite part mod q."""
    fin = next(c for c in characters_mod(K.ideal(q)) if not c.is_trivial())
    sign = 0 if fin.value_exponent(-K.one()) == 0 else 1
    return HeckeCharacter(K, fin, [0.4], [sign])


@pytest.mark.parametrize("D,q,L,Y", [
    (1, 5, 5.0, 40.0), (1, 7, 5.0, 40.0), (1, 15, 7.0, 40.0), (1, 360, 5.0, 40.0),
    (1, 9973, 5.0, 40.0), (1, 30030, 17.0, 40.0), (5, "-1+2w", 5.0, 25.0), (5, "3+2w", 5.0, 25.0), (5, 12, 5.0, 25.0),
])
@pytest.mark.parametrize("system", ["divisor", "synthetic"])
def test_amplified_moment_against_characters(D, q, L, Y, system):
    # side A from the one table of e(k/L) has the bits of the sum over
    # FiniteCharacter.value_at, and B and the diagonal those of the
    # RingElement products; some r are not prime to q in every case but
    # 9973, and 9973 and 30030 (five cyclic factors) take several blocks
    K = make_field(D)
    if isinstance(q, str):
        qI = Ideal.principal(K.element(*map(int, q.rstrip("w").split("+"))))
    else:
        qI = K.ideal(q)
    sys_ = divisor_system(K) if system == "divisor" else EigenvalueSystem(K, seed=3)
    chi = unramified_character(K, [0.0] * K.d)
    V = SmoothBump(0.5, 2.0)
    A, B, rel, diag, off_units = _moment_by_characters(qI, L, sys_, chi, V, Y)
    assert (off_units > 0) == (q != 9973)
    assert (arith_functions(qI)[1] > SIDE_A_BLOCK) == (q in (9973, 30030))
    rep = amplified_moment(qI, L, sys_, chi, V, Y)
    assert (rep["A"], rep["B"], rep["relative_difference"], rep["diagonal"]) == (A, B, rel, diag)


@pytest.mark.parametrize("q,L,Y", [(7, 5.0, 30.0), (15, 7.0, 40.0), (15, 7.0, 120.0)])
def test_amplified_moment_against_characters_finite_part(q, L, Y):
    # a character chi with a finite part twists the amplifier coefficients
    chi = _finite_chi(Q, q)
    sys_ = EigenvalueSystem(Q, seed=2)
    V = SmoothBump(0.5, 2.0)
    A, B, rel, diag, off_units = _moment_by_characters(Q.ideal(q), L, sys_, chi, V, Y)
    assert off_units > 0
    rep = amplified_moment(Q.ideal(q), L, sys_, chi, V, Y)
    assert (rep["A"], rep["B"], rep["relative_difference"], rep["diagonal"]) == (A, B, rel, diag)


def test_amplifier_prime_window_failure():
    # [2, 4] contains the primes 2 and 3 only, both excluded by q = (210)
    chi = unramified_character(Q, [0.0])
    with pytest.raises(ValueError):
        amplified_moment(Q.ideal(210), 2.0, divisor_system(Q), chi, SmoothBump(0.5, 2.0), 20.0)


def test_afe_examples():
    chi = unramified_character(Q, [0.0])
    V = SmoothBump(0.5, 2.0)
    assert afe_sum(divisor_system(Q), chi, 0.2, V) == 0.0
    got = afe_sum(divisor_system(Q), chi, 50.0, V)
    direct = sum(_tau(n) / math.sqrt(n) * V(n / 50.0) for n in range(1, 101))
    assert got == pytest.approx(direct, abs=1e-12)
    # crude triangle-inequality bound
    bound = sum(_tau(n) * n ** (-0.5) for n in range(25, 101))
    assert abs(got) <= bound
