"""Command-line front end: JSON reports (CSV for sweeps) over all modules.

Every successful run prints a single JSON object with keys schema,
command, inputs, result, certificates, elapsed_ms and exits 0.  Domain
errors exit 2 with a machine-readable {"error": ...}; an unknown
subcommand exits 64.  Output is byte-identical across runs for fixed
inputs and seed; wall-clock timing is only reported under --timing
(elapsed_ms is null otherwise, keeping the default output deterministic).
Each subcommand imports the layers it uses, so the commands on exact
arithmetic start without numpy, scipy or mpmath.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .fields import (
    BoundExceeded,
    FieldError,
    Ideal,
    RingElement,
    field_to_json,
    ideal_to_json,
    make_field,
)


def _parse_element(K, text: str) -> RingElement:
    if "," in text:
        a, b = text.split(",")
        return K.element(Fraction(a), Fraction(b))
    return K.element(Fraction(text))


def _parse_ideal(K, text: str) -> Ideal:
    return Ideal.principal(_parse_element(K, text))


def _complex_str(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _emit(args, payload: dict, started: float) -> int:
    payload.setdefault("schema", 1)
    payload["elapsed_ms"] = round(1000 * (time.time() - started), 3) if args.timing else None
    print(json.dumps(payload, sort_keys=True, default=str))
    return 0


_COMMANDS = ("field", "chars", "whittaker", "kloosterman", "eisen", "spectral", "shifted")
_GLOBAL_VALUE_OPTS = ("--field", "--tol", "--bound", "--seed", "--format")


def _normalize_argv(argv: list[str]) -> list[str]:
    """Hoist global options to the front (they may appear after the
    subcommand) and default the bare `kloosterman --r1 ...` form to eval."""
    front: list[str] = []
    rest: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _GLOBAL_VALUE_OPTS and i + 1 < len(argv):
            front += [tok, argv[i + 1]]
            i += 2
            continue
        if tok == "--timing" or any(tok.startswith(o + "=") for o in _GLOBAL_VALUE_OPTS):
            front.append(tok)
            i += 1
            continue
        rest.append(tok)
        i += 1
    if rest and rest[0] == "kloosterman" and (len(rest) == 1 or rest[1].startswith("-")):
        rest.insert(1, "eval")
    return front + rest


def _first_positional(argv: list[str]) -> str | None:
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _GLOBAL_VALUE_OPTS:
            i += 2
            continue
        if tok.startswith("-"):
            i += 1
            continue
        return tok
    return None


def main(argv=None) -> int:
    argv = _normalize_argv(list(sys.argv[1:] if argv is None else argv))
    first_pos = _first_positional(argv)
    if first_pos is not None and first_pos not in _COMMANDS:
        print(json.dumps({"schema": 1, "error": f"unknown subcommand {first_pos!r}"}))
        return 64
    parser = argparse.ArgumentParser(prog="totreal", description=__doc__, allow_abbrev=False)
    parser.add_argument("--field", type=int, default=1, help="squarefree D (1 = Q)")
    parser.add_argument("--tol", type=float, default=None,
                        help="override module default tolerances/certificate targets")
    parser.add_argument("--bound", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.add_argument("--timing", action="store_true")
    sub = parser.add_subparsers(dest="cmd")

    p = sub.add_parser("field"); ps = p.add_subparsers(dest="sub")
    pi = ps.add_parser("info"); pi.add_argument("--D", type=int, required=True)

    p = sub.add_parser("chars"); ps = p.add_subparsers(dest="sub")
    pl = ps.add_parser("list"); pl.add_argument("--modulus", required=True)
    pe = ps.add_parser("eisen-count")
    pe.add_argument("--level", required=True)
    pe.add_argument("--X", type=float, required=True)
    pe.add_argument("--resolution", type=float, default=1.0)

    p = sub.add_parser("whittaker"); ps = p.add_subparsers(dest="sub")
    pv = ps.add_parser("eval")
    pv.add_argument("--q", type=int, required=True)
    pv.add_argument("--nu", required=True, help="complex, e.g. 0.5j or 0.111")
    pv.add_argument("--y", type=float, required=True)
    pg = ps.add_parser("gram")
    pg.add_argument("--numax", type=float, default=1.0)
    pg.add_argument("--qmax", type=int, default=4,
                    help="largest |q|, at most 60 (the quadrature stops converging beyond)")

    p = sub.add_parser("kloosterman"); ps = p.add_subparsers(dest="sub")
    pk = ps.add_parser("eval")
    pk.add_argument("--r1", required=True)
    pk.add_argument("--r2", required=True)
    pk.add_argument("--c", required=True)
    pw = ps.add_parser("sweep")
    pw.add_argument("--cmax", type=int, required=True)

    p = sub.add_parser("eisen"); ps = p.add_subparsers(dest="sub")
    pd = ps.add_parser("dim"); pd.add_argument("--n", type=int, required=True); pd.add_argument("--m", type=int, required=True)
    pn = ps.add_parser("norms")
    pn.add_argument("--Np", type=int, required=True)
    pn.add_argument("--j", type=int, required=True)
    pn.add_argument("--m", type=int, default=0)
    pc = ps.add_parser("coeff")
    pc.add_argument("--chi-t", default="0")
    pc.add_argument("--t", required=True)
    pc.add_argument("--m", required=True)
    pt = ps.add_parser("constterm"); pt.add_argument("--level", required=True)
    pf = ps.add_parser("localfactor")
    pf.add_argument("--Np", type=int, required=True)
    pf.add_argument("--s", type=float, required=True)
    pf.add_argument("--case", default="unramified")
    pf.add_argument("--v", type=int, default=1)

    p = sub.add_parser("spectral"); ps = p.add_subparsers(dest="sub")
    po = ps.add_parser("oldforms")
    po.add_argument("--level", required=True)
    pb = ps.add_parser("bessel")
    pb.add_argument("--Z", type=float, required=True)
    pb.add_argument("--t", type=float, required=True)
    pz = ps.add_parser("kuz-geom")
    pz.add_argument("--r1", required=True)
    pz.add_argument("--r2", required=True)
    pz.add_argument("--level", required=True)
    pz.add_argument("--Z", type=float, default=1.0)
    pz.add_argument("--box", type=float, default=30.0)

    p = sub.add_parser("shifted"); ps = p.add_subparsers(dest="sub")
    pss = ps.add_parser("sum")
    pss.add_argument("--q", required=True)
    pss.add_argument("--Y", type=float, required=True)
    pss.add_argument("--l1", default="1")
    pss.add_argument("--l2", default="1")
    pss.add_argument("--support", default="0.3,2.5")
    pdd = ps.add_parser("dirichlet")
    pdd.add_argument("--q", required=True)
    pdd.add_argument("--s", type=float, required=True)
    pdd.add_argument("--beta", type=int, default=2)
    pdd.add_argument("--height", type=float, default=300.0)
    pa = ps.add_parser("amplify")
    pa.add_argument("--q", required=True)
    pa.add_argument("--L", type=float, required=True)
    pa.add_argument("--Y", type=float, default=40.0)
    pa.add_argument("--system", choices=("divisor", "synthetic"), default="divisor")
    pfe = ps.add_parser("afe")
    pfe.add_argument("--Y", type=float, required=True)

    args = parser.parse_args(argv)
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 64
    started = time.time()
    try:
        return _dispatch(args, started)
    except (FieldError, BoundExceeded, ValueError, NotImplementedError) as exc:
        print(json.dumps({"schema": 1, "error": str(exc)}))
        return 2


def _dispatch(args, started: float) -> int:
    cmd, subcmd = args.cmd, getattr(args, "sub", None)

    if cmd == "field" and subcmd == "info":
        K = make_field(args.D, allow_class_number=True)
        return _emit(args, {
            "command": "field info",
            "inputs": {"D": args.D},
            "result": field_to_json(K),
            "certificates": {},
        }, started)

    K = make_field(args.field, allow_class_number=True)

    if cmd == "chars" and subcmd == "list":
        from .characters import characters_mod

        q = _parse_ideal(K, args.modulus)
        chars = characters_mod(q, bound=args.bound)
        out = [{"exponents": list(c.exponents), "order": c.order(),
                "conductor_norm": str(c.conductor().norm())} for c in chars]
        return _emit(args, {
            "command": "chars list",
            "inputs": {"D": K.D, "modulus": ideal_to_json(q)},
            "result": {"count": len(out), "characters": out},
            "certificates": {},
        }, started)

    if cmd == "chars" and subcmd == "eisen-count":
        from .characters import enumerate_eisenstein_pairs

        c = _parse_ideal(K, args.level)
        rep = enumerate_eisenstein_pairs(c, args.X, args.resolution, bound=args.bound)
        return _emit(args, {
            "command": "chars eisen-count",
            "inputs": {"D": K.D, "level": ideal_to_json(c), "X": args.X,
                       "resolution": args.resolution},
            "result": rep,
            "certificates": {},
        }, started)

    if cmd == "whittaker" and subcmd == "eval":
        from .whittaker import normalized_whittaker_1d

        nu = complex(args.nu)
        val = normalized_whittaker_1d(args.q, nu, args.y)
        return _emit(args, {
            "command": "whittaker eval",
            "inputs": {"q": args.q, "nu": args.nu, "y": args.y},
            "result": {"value": _complex_str(val)},
            "certificates": {},
        }, started)

    if cmd == "whittaker" and subcmd == "gram":
        from .whittaker import gram_matrix

        if args.qmax < 0 or not args.numax >= 0:
            raise ValueError("--qmax and --numax must be nonnegative")
        kw = {"tol": args.tol} if args.tol else {}
        qs = list(range(-args.qmax, args.qmax + 1, 2))
        rows = ["nu,q1,q2,value"]
        worst = 0.0
        # nu = 0.5i k is made as it is used: past the evaluator's range of
        # Im nu, gram_matrix raises before an oversized --numax builds a list,
        # and past Q_MAX it refuses --qmax before any grid is built
        k = 0
        while k * 0.5 <= args.numax:
            nu = 0.5j * k
            k += 1
            G = gram_matrix(qs, nu, **kw)
            for i, q1 in enumerate(qs):
                for j, q2 in enumerate(qs):
                    rows.append(f"{nu},{q1},{q2},{G[i, j]:.12e}")
                    target = 1.0 if i == j else 0.0
                    worst = max(worst, abs(G[i, j] - target))
        if args.format == "csv":
            print("\n".join(rows))
            return 0
        return _emit(args, {
            "command": "whittaker gram",
            "inputs": {"qmax": args.qmax, "numax": args.numax},
            "result": {"csv": rows, "max_identity_deviation": worst},
            "certificates": {"quadrature": "nested trapezoid, log axis"},
        }, started)

    if cmd == "kloosterman" and subcmd == "eval":
        from .kloosterman import KloostermanQuery, weil_margin

        r1, r2 = _parse_element(K, args.r1), _parse_element(K, args.r2)
        c = _parse_element(K, args.c)
        rec = weil_margin(KloostermanQuery(r1, r2, c), bound=args.bound)
        return _emit(args, {
            "command": "kloosterman eval",
            "inputs": {"D": K.D, "r1": args.r1, "r2": args.r2, "c": args.c},
            "result": {"S": _complex_str(rec["S"]), "abs_S": rec["abs_S"],
                       "margin": rec["margin"], "tau": rec["tau"],
                       "gcd_norm": rec["gcd_norm"], "c_norm": rec["c_norm"]},
            "certificates": {"phases": "exact rational"},
        }, started)

    if cmd == "kloosterman" and subcmd == "sweep":
        from .kloosterman import weil_sweep

        rows = ["c_norm,S_re,S_im,margin"]
        records = list(weil_sweep(K, args.cmax, bound=args.bound))
        for rec in records:
            rows.append(
                f"{rec['c_norm']},{rec['S'].real:.12e},{rec['S'].imag:.12e},{rec['margin']:.12e}"
            )
        if args.format == "csv":
            print("\n".join(rows))
            return 0
        return _emit(args, {
            "command": "kloosterman sweep",
            "inputs": {"D": K.D, "cmax": args.cmax},
            "result": {"count": len(records),
                       "worst_margin": max(r["margin"] for r in records)},
            "certificates": {},
        }, started)

    if cmd == "eisen" and subcmd == "dim":
        from .eisenstein import local_dimension

        return _emit(args, {
            "command": "eisen dim",
            "inputs": {"n": args.n, "m": args.m},
            "result": {"dimension": local_dimension(args.n, args.m)},
            "certificates": {},
        }, started)

    if cmd == "eisen" and subcmd == "norms":
        from .eisenstein import LocalVectorSpec, local_vector_norm_sq

        spec = LocalVectorSpec(args.Np, args.j, args.m)
        v = local_vector_norm_sq(spec)
        return _emit(args, {
            "command": "eisen norms",
            "inputs": {"Np": args.Np, "j": args.j, "m": args.m},
            "result": {"norm_sq": str(v), "norm": float(v) ** 0.5},
            "certificates": {"exact": True},
        }, started)

    if cmd == "eisen" and subcmd == "coeff":
        from .characters import unramified_character
        from .eisenstein import EisCoefficientContext, oldform_eis_coefficient

        chi = unramified_character(K, [float(x) for x in args.chi_t.split(",")] * (K.d if "," not in args.chi_t else 1))
        t = _parse_ideal(K, args.t)
        m = _parse_ideal(K, args.m)
        ctx = EisCoefficientContext(chi, t)
        val = oldform_eis_coefficient(ctx, m)
        return _emit(args, {
            "command": "eisen coeff",
            "inputs": {"D": K.D, "t": args.t, "m": args.m, "chi_t": args.chi_t},
            "result": {"value": _complex_str(val), "t_chi_norm": str(ctx.t_chi.norm()),
                       "F": ctx.F},
            "certificates": {},
        }, started)

    if cmd == "eisen" and subcmd == "constterm":
        from .eisenstein import constant_term_H_at_half, coset_index

        c = _parse_ideal(K, args.level)
        v = constant_term_H_at_half(c)
        return _emit(args, {
            "command": "eisen constterm",
            "inputs": {"D": K.D, "level": args.level},
            "result": {"H_half": str(v), "coset_index": coset_index(c)},
            "certificates": {"exact": True},
        }, started)

    if cmd == "eisen" and subcmd == "localfactor":
        from .eisenstein import constant_term_local_factor

        v = constant_term_local_factor(args.Np, args.s, args.case, args.v)
        return _emit(args, {
            "command": "eisen localfactor",
            "inputs": {"Np": args.Np, "s": args.s, "case": args.case, "v": args.v},
            "result": {"value": _complex_str(v)},
            "certificates": {},
        }, started)

    if cmd == "spectral" and subcmd == "oldforms":
        from .spectral import EigenvalueSystem, oldform_gram_schmidt

        c = _parse_ideal(K, args.level)
        sys_ = EigenvalueSystem(K, seed=args.seed)
        basis = oldform_gram_schmidt(sys_, c)
        alphas = {
            f"{t}|{s}": _complex_str(v) for (t, s), v in sorted(
                basis.alpha.items(), key=lambda kv: str(kv[0])
            )
        }
        return _emit(args, {
            "command": "spectral oldforms",
            "inputs": {"D": K.D, "level": args.level, "seed": args.seed},
            "result": {"divisor_norms": [str(d.norm()) for d in basis.divisors],
                       "alpha": alphas},
            "certificates": {"gram_residual": basis.gram_residual},
        }, started)

    if cmd == "spectral" and subcmd == "bessel":
        from .spectral import KTestGaussian, bessel_tilde, bessel_transforms

        k = KTestGaussian(args.Z)
        target = args.tol / 2 if args.tol else 5e-9
        rec = bessel_transforms(k, args.t, tail_target=target)
        til = bessel_tilde(k, tail_target=target)
        return _emit(args, {
            "command": "spectral bessel",
            "inputs": {"Z": args.Z, "t": args.t},
            "result": {"kcheck": rec["value"], "ktilde": til["value"]},
            "certificates": {"T": rec["T"], "tail_bound": rec["tail_bound"],
                             "tilde_tail_bound": til["tail_bound"]},
        }, started)

    if cmd == "spectral" and subcmd == "kuz-geom":
        from .spectral import KTestGaussian, kuznetsov_geometric_side

        r1, r2 = _parse_element(K, args.r1), _parse_element(K, args.r2)
        level = _parse_ideal(K, args.level)
        ks = [KTestGaussian(args.Z) for _ in range(K.d)]
        rec = kuznetsov_geometric_side(r1, r2, level, ks, box=args.box)
        return _emit(args, {
            "command": "spectral kuz-geom",
            "inputs": {"D": K.D, "r1": args.r1, "r2": args.r2,
                       "level": args.level, "Z": args.Z, "box": args.box},
            "result": {"value": _complex_str(rec["value"]),
                       "diagonal": rec["diagonal"],
                       "off_diagonal": _complex_str(rec["off_diagonal"]),
                       "terms": rec["terms"]},
            "certificates": {"tail_majorant": rec["tail_majorant"]},
        }, started)

    if cmd == "shifted":
        from .characters import unramified_character
        from .shifted import (
            ProductWeight,
            ShiftedQuery,
            SmoothBump,
            afe_sum,
            amplified_moment,
            dirichlet_D,
            shifted_sum,
        )
        from .spectral import EigenvalueSystem, divisor_system

        sys1 = divisor_system(K)
        if subcmd == "sum":
            a, b = (float(x) for x in args.support.split(","))
            W = ProductWeight([SmoothBump(a, b) for _ in range(K.d)])
            query = ShiftedQuery(
                sys1, sys1, _parse_element(K, args.l1), _parse_element(K, args.l2),
                K.unit_ideal(), _parse_element(K, args.q), (args.Y,) * K.d, W, W,
            )
            val = shifted_sum(query)
            return _emit(args, {
                "command": "shifted sum",
                "inputs": {"D": K.D, "q": args.q, "Y": args.Y,
                           "l1": args.l1, "l2": args.l2, "support": args.support},
                "result": {"value": _complex_str(val)},
                "certificates": {"finite_sum": True},
            }, started)
        if subcmd == "dirichlet":
            rec = dirichlet_D(
                sys1, sys1, K.one(), K.one(), K.unit_ideal(),
                _parse_element(K, args.q), [args.s] * K.d, args.beta,
                trace_height=args.height,
            )
            return _emit(args, {
                "command": "shifted dirichlet",
                "inputs": {"D": K.D, "q": args.q, "s": args.s, "beta": args.beta,
                           "height": args.height},
                "result": {"value": _complex_str(rec["value"])},
                "certificates": {"tail_bound": rec["tail_bound"],
                                 "beta_warning": rec["beta_warning"]},
            }, started)
        if subcmd == "amplify":
            q = _parse_ideal(K, args.q)
            sys_ = divisor_system(K) if args.system == "divisor" else EigenvalueSystem(K, seed=args.seed)
            chi = unramified_character(K, [0.0] * K.d)
            rep = amplified_moment(q, args.L, sys_, chi, SmoothBump(0.5, 2.0), args.Y)
            return _emit(args, {
                "command": "shifted amplify",
                "inputs": {"D": K.D, "q": args.q, "L": args.L, "Y": args.Y,
                           "system": args.system, "seed": args.seed},
                "result": {k: v for k, v in rep.items()},
                "certificates": {"identity_relative_difference": rep["relative_difference"]},
            }, started)
        if subcmd == "afe":
            chi = unramified_character(K, [0.0] * K.d)
            val = afe_sum(divisor_system(K), chi, args.Y, SmoothBump(0.5, 2.0))
            return _emit(args, {
                "command": "shifted afe",
                "inputs": {"D": K.D, "Y": args.Y},
                "result": {"value": _complex_str(val)},
                "certificates": {"finite_sum": True},
            }, started)

    print(json.dumps({"schema": 1, "error": f"unknown subcommand {cmd} {subcmd}"}))
    return 64


if __name__ == "__main__":
    sys.exit(main())
