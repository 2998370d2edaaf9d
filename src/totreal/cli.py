"""Command-line front end: JSON reports (CSV for sweeps) over all modules.

Every successful run prints a single JSON object with keys schema,
command, inputs, result, certificates, elapsed_ms and exits 0; under
--format csv, `kloosterman sweep` and `whittaker gram` print CSV rows
instead.  Domain errors exit 2 with a machine-readable {"error": ...}; an
unknown subcommand, or a command with no subcommand, exits 64.  The global
options (--field, --tol, --seed, --format, --timing) may stand before or
after the subcommand, and any other option exits 2 with argparse's message
wherever it stands.  A modulus of norm above 10^6 (chars, kloosterman,
shifted amplify) exits 2 from fields.unit_mask.  Output is byte-identical
across runs for fixed inputs and seed; wall-clock timing is only reported
under --timing (elapsed_ms is null otherwise, keeping the default output
deterministic).
Each subcommand imports the layers it uses, and spectral, shifted and
whittaker import numpy, scipy.special and the numeric layers inside the
functions that evaluate with them.  So field, chars, eisen and shifted
start without numpy, scipy or mpmath; kloosterman and spectral oldforms
load numpy alone; whittaker loads mpmath, and numpy and scipy.special for
every kappa whose Laguerre form does not apply (so for every gram);
spectral bessel and kuz-geom load numpy and scipy.special.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction

from .fields import (
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


# Each handler takes the parsed arguments and the field of --field and
# returns (inputs, result, certificates), which main wraps in the envelope,
# or under --format csv the rows of a CSV table.


def _field_info(args, K):
    return {"D": args.field}, field_to_json(K), {}


def _chars_list(args, K):
    from .characters import characters_mod

    q = _parse_ideal(K, args.modulus)
    chars = characters_mod(q)
    out = [{"exponents": list(c.exponents), "order": c.order(),
            "conductor_norm": str(c.conductor().norm())} for c in chars]
    return ({"D": K.D, "modulus": ideal_to_json(q)},
            {"count": len(out), "characters": out}, {})


def _chars_eisen_count(args, K):
    from .characters import enumerate_eisenstein_pairs

    c = _parse_ideal(K, args.level)
    rep = enumerate_eisenstein_pairs(c, args.X, args.resolution)
    return ({"D": K.D, "level": ideal_to_json(c), "X": args.X, "resolution": args.resolution},
            rep, {})


def _whittaker_eval(args, K):
    from .whittaker import normalized_whittaker_1d

    val = normalized_whittaker_1d(args.q, complex(args.nu), args.y)
    return {"q": args.q, "nu": args.nu, "y": args.y}, {"value": _complex_str(val)}, {}


def _whittaker_gram(args, K):
    from .whittaker import gram_matrix

    if args.qmax < 0 or not args.numax >= 0:
        raise ValueError("--qmax and --numax must be nonnegative")
    kw = {"tol": args.tol} if args.tol is not None else {}
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
        return rows
    return ({"qmax": args.qmax, "numax": args.numax},
            {"csv": rows, "max_identity_deviation": worst},
            {"quadrature": "nested trapezoid, log axis"})


def _kloosterman_eval(args, K):
    from .kloosterman import KloostermanQuery, weil_margin

    r1, r2 = _parse_element(K, args.r1), _parse_element(K, args.r2)
    c = _parse_element(K, args.c)
    rec = weil_margin(KloostermanQuery(r1, r2, c))
    return ({"D": K.D, "r1": args.r1, "r2": args.r2, "c": args.c},
            {"S": _complex_str(rec["S"]), "abs_S": rec["abs_S"], "margin": rec["margin"],
             "tau": rec["tau"], "gcd_norm": rec["gcd_norm"], "c_norm": rec["c_norm"]},
            {"phases": "exact rational"})


def _kloosterman_sweep(args, K):
    from .kloosterman import weil_sweep

    # the sweep leaves out the unit ideal, so below 2 it has no modulus
    if args.cmax < 2:
        raise ValueError(f"--cmax must be >= 2, the least norm of a modulus, got {args.cmax}")
    records = list(weil_sweep(K, args.cmax))
    if args.format == "csv":
        return ["c_norm,S_re,S_im,margin"] + [
            f"{rec['c_norm']},{rec['S'].real:.12e},{rec['S'].imag:.12e},{rec['margin']:.12e}"
            for rec in records
        ]
    return ({"D": K.D, "cmax": args.cmax},
            {"count": len(records), "worst_margin": max(r["margin"] for r in records)}, {})


def _eisen_dim(args, K):
    from .eisenstein import local_dimension

    return {"n": args.n, "m": args.m}, {"dimension": local_dimension(args.n, args.m)}, {}


def _eisen_norms(args, K):
    from .eisenstein import LocalVectorSpec, local_vector_norm_sq

    v = local_vector_norm_sq(LocalVectorSpec(args.Np, args.j, args.m))
    return ({"Np": args.Np, "j": args.j, "m": args.m},
            {"norm_sq": str(v), "norm": float(v) ** 0.5}, {"exact": True})


def _eisen_coeff(args, K):
    from .characters import unramified_character
    from .eisenstein import EisCoefficientContext, oldform_eis_coefficient

    chi = unramified_character(K, [float(x) for x in args.chi_t.split(",")] * (K.d if "," not in args.chi_t else 1))
    ctx = EisCoefficientContext(chi, _parse_ideal(K, args.t))
    val = oldform_eis_coefficient(ctx, _parse_ideal(K, args.m))
    return ({"D": K.D, "t": args.t, "m": args.m, "chi_t": args.chi_t},
            {"value": _complex_str(val), "t_chi_norm": str(ctx.t_chi.norm()), "F": ctx.F}, {})


def _eisen_constterm(args, K):
    from .eisenstein import constant_term_H_at_half, coset_index

    c = _parse_ideal(K, args.level)
    v = constant_term_H_at_half(c)
    return ({"D": K.D, "level": args.level},
            {"H_half": str(v), "coset_index": coset_index(c)}, {"exact": True})


def _eisen_localfactor(args, K):
    from .eisenstein import constant_term_local_factor

    v = constant_term_local_factor(args.Np, args.s, args.case, args.v)
    return ({"Np": args.Np, "s": args.s, "case": args.case, "v": args.v},
            {"value": _complex_str(v)}, {})


def _spectral_oldforms(args, K):
    from .spectral import EigenvalueSystem, oldform_gram_schmidt

    basis = oldform_gram_schmidt(EigenvalueSystem(K, seed=args.seed), _parse_ideal(K, args.level))
    alphas = {
        f"{t}|{s}": _complex_str(v)
        for (t, s), v in sorted(basis.alpha.items(), key=lambda kv: str(kv[0]))
    }
    return ({"D": K.D, "level": args.level, "seed": args.seed},
            {"divisor_norms": [str(d.norm()) for d in basis.divisors], "alpha": alphas},
            {"gram_residual": basis.gram_residual})


def _tail_target(args) -> float:
    """The tail bound asked of each Bessel transform: half of --tol."""
    return args.tol / 2 if args.tol is not None else 5e-9


def _spectral_bessel(args, K):
    from .spectral import KTestGaussian, bessel_tilde, bessel_transforms

    k = KTestGaussian(args.Z)
    target = _tail_target(args)
    rec = bessel_transforms(k, args.t, tail_target=target)
    til = bessel_tilde(k, tail_target=target)
    return ({"Z": args.Z, "t": args.t},
            {"kcheck": rec["value"], "ktilde": til["value"]},
            {"T": rec["T"], "tail_bound": rec["tail_bound"],
             "tilde_tail_bound": til["tail_bound"]})


def _spectral_kuz_geom(args, K):
    from .spectral import KTestGaussian, kuznetsov_geometric_side

    r1, r2 = _parse_element(K, args.r1), _parse_element(K, args.r2)
    level = _parse_ideal(K, args.level)
    ks = [KTestGaussian(args.Z) for _ in range(K.d)]
    rec = kuznetsov_geometric_side(r1, r2, level, ks, box=args.box, tail_target=_tail_target(args))
    return ({"D": K.D, "r1": args.r1, "r2": args.r2, "level": args.level, "Z": args.Z,
             "box": args.box},
            {"value": _complex_str(rec["value"]), "diagonal": rec["diagonal"],
             "off_diagonal": _complex_str(rec["off_diagonal"]), "terms": rec["terms"]},
            {"tail_majorant": rec["tail_majorant"]})


def _shifted_sum(args, K):
    from .shifted import ProductWeight, ShiftedQuery, SmoothBump, shifted_sum
    from .spectral import divisor_system

    sys1 = divisor_system(K)
    a, b = (float(x) for x in args.support.split(","))
    W = ProductWeight([SmoothBump(a, b) for _ in range(K.d)])
    query = ShiftedQuery(
        sys1, sys1, _parse_element(K, args.l1), _parse_element(K, args.l2),
        K.unit_ideal(), _parse_element(K, args.q), (args.Y,) * K.d, W, W,
    )
    return ({"D": K.D, "q": args.q, "Y": args.Y, "l1": args.l1, "l2": args.l2,
             "support": args.support},
            {"value": _complex_str(shifted_sum(query))}, {"finite_sum": True})


def _shifted_dirichlet(args, K):
    from .shifted import dirichlet_D
    from .spectral import divisor_system

    sys1 = divisor_system(K)
    rec = dirichlet_D(
        sys1, sys1, K.one(), K.one(), K.unit_ideal(),
        _parse_element(K, args.q), [args.s] * K.d, args.beta, trace_height=args.height,
    )
    return ({"D": K.D, "q": args.q, "s": args.s, "beta": args.beta, "height": args.height},
            {"value": _complex_str(rec["value"])},
            {"tail_bound": rec["tail_bound"], "beta_warning": rec["beta_warning"]})


def _shifted_amplify(args, K):
    from .characters import unramified_character
    from .shifted import SmoothBump, amplified_moment
    from .spectral import EigenvalueSystem, divisor_system

    q = _parse_ideal(K, args.q)
    sys_ = divisor_system(K) if args.system == "divisor" else EigenvalueSystem(K, seed=args.seed)
    chi = unramified_character(K, [0.0] * K.d)
    rep = amplified_moment(q, args.L, sys_, chi, SmoothBump(0.5, 2.0), args.Y)
    return ({"D": K.D, "q": args.q, "L": args.L, "Y": args.Y, "system": args.system,
             "seed": args.seed},
            rep, {"identity_relative_difference": rep["relative_difference"]})


def _shifted_afe(args, K):
    from .characters import unramified_character
    from .shifted import SmoothBump, afe_sum
    from .spectral import divisor_system

    chi = unramified_character(K, [0.0] * K.d)
    val = afe_sum(divisor_system(K), chi, args.Y, SmoothBump(0.5, 2.0))
    return {"D": K.D, "Y": args.Y}, {"value": _complex_str(val)}, {"finite_sum": True}


def _global_options() -> argparse.ArgumentParser:
    g = argparse.ArgumentParser(prog="totreal", add_help=False, allow_abbrev=False)
    g.add_argument("--field", type=int, default=1, help="squarefree D (1 = Q)")
    g.add_argument("--tol", type=float, default=None,
                   help="override module default tolerances/certificate targets")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--format", choices=("json", "csv"), default="json")
    g.add_argument("--timing", action="store_true")
    return g


def _command_parser(glob: argparse.ArgumentParser):
    """The subcommand table: one leaf parser per command, each routed to
    its handler by set_defaults(run=...).  Returns the parser and the
    names of the commands."""
    parser = argparse.ArgumentParser(prog="totreal", description=__doc__, allow_abbrev=False,
                                     parents=[glob])
    commands = parser.add_subparsers(dest="cmd")
    groups = {}

    def leaf(path: str, run) -> argparse.ArgumentParser:
        cmd, sub = path.split()
        if cmd not in groups:
            groups[cmd] = commands.add_parser(cmd).add_subparsers(dest="sub")
        p = groups[cmd].add_parser(sub)
        p.set_defaults(run=run)
        return p

    # field info names its field by --D in place of the global --field
    p = leaf("field info", _field_info)
    p.add_argument("--D", dest="field", metavar="D", type=int, required=True)

    p = leaf("chars list", _chars_list)
    p.add_argument("--modulus", required=True)
    p = leaf("chars eisen-count", _chars_eisen_count)
    p.add_argument("--level", required=True)
    p.add_argument("--X", type=float, required=True)
    p.add_argument("--resolution", type=float, default=1.0)

    p = leaf("whittaker eval", _whittaker_eval)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--nu", required=True, help="complex, e.g. 0.5j or 0.111")
    p.add_argument("--y", type=float, required=True)
    p = leaf("whittaker gram", _whittaker_gram)
    p.add_argument("--numax", type=float, default=1.0)
    p.add_argument("--qmax", type=int, default=4,
                   help="largest |q|, at most 60 (the quadrature stops converging beyond)")

    p = leaf("kloosterman eval", _kloosterman_eval)
    p.add_argument("--r1", required=True)
    p.add_argument("--r2", required=True)
    p.add_argument("--c", required=True)
    p = leaf("kloosterman sweep", _kloosterman_sweep)
    p.add_argument("--cmax", type=int, required=True)

    p = leaf("eisen dim", _eisen_dim)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p = leaf("eisen norms", _eisen_norms)
    p.add_argument("--Np", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--m", type=int, default=0)
    p = leaf("eisen coeff", _eisen_coeff)
    p.add_argument("--chi-t", default="0")
    p.add_argument("--t", required=True)
    p.add_argument("--m", required=True)
    p = leaf("eisen constterm", _eisen_constterm)
    p.add_argument("--level", required=True)
    p = leaf("eisen localfactor", _eisen_localfactor)
    p.add_argument("--Np", type=int, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--case", default="unramified")
    p.add_argument("--v", type=int, default=1)

    p = leaf("spectral oldforms", _spectral_oldforms)
    p.add_argument("--level", required=True)
    p = leaf("spectral bessel", _spectral_bessel)
    p.add_argument("--Z", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p = leaf("spectral kuz-geom", _spectral_kuz_geom)
    p.add_argument("--r1", required=True)
    p.add_argument("--r2", required=True)
    p.add_argument("--level", required=True)
    p.add_argument("--Z", type=float, default=1.0)
    p.add_argument("--box", type=float, default=30.0)

    p = leaf("shifted sum", _shifted_sum)
    p.add_argument("--q", required=True)
    p.add_argument("--Y", type=float, required=True)
    p.add_argument("--l1", default="1")
    p.add_argument("--l2", default="1")
    p.add_argument("--support", default="0.3,2.5")
    p = leaf("shifted dirichlet", _shifted_dirichlet)
    p.add_argument("--q", required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--beta", type=int, default=2)
    p.add_argument("--height", type=float, default=300.0)
    p = leaf("shifted amplify", _shifted_amplify)
    p.add_argument("--q", required=True)
    p.add_argument("--L", type=float, required=True)
    p.add_argument("--Y", type=float, default=40.0)
    p.add_argument("--system", choices=("divisor", "synthetic"), default="divisor")
    p = leaf("shifted afe", _shifted_afe)
    p.add_argument("--Y", type=float, required=True)
    return parser, commands.choices


@functools.lru_cache(maxsize=1)
def _cli_table():
    """The global options, the subcommand table and its command names,
    built once per process: main only reads them."""
    glob = _global_options()
    return (glob, *_command_parser(glob))


# quadrature and rounding carry errors near 1e-16 that no certificate
# reports, so a tail target below this would overstate the accuracy
_TOL_FLOOR = 1e-14


def _fail(message: str, code: int) -> int:
    print(json.dumps({"schema": 1, "error": message}))
    return code


def main(argv=None) -> int:
    glob, parser, commands = _cli_table()
    # the global options are read wherever they stand; the rest goes to
    # the subcommand table with them already in the namespace
    opts, rest = glob.parse_known_args(sys.argv[1:] if argv is None else argv)
    if rest[:1] and rest[0].startswith("-"):
        # an option before the command that the global table does not know
        # moves after it, so argparse reports it as it does there
        k = next((i for i, tok in enumerate(rest) if tok in commands), len(rest))
        rest = rest[k:] + rest[:k]
    first = next((tok for tok in rest if not tok.startswith("-")), None)
    if first is not None and first not in commands:
        return _fail(f"unknown subcommand {first!r}", 64)
    if rest[:1] == ["kloosterman"] and (len(rest) == 1 or rest[1].startswith("-")):
        rest.insert(1, "eval")
    args = parser.parse_args(rest, namespace=opts)
    if args.cmd is None:
        parser.print_usage(sys.stderr)
        return 64
    if not hasattr(args, "run"):
        return _fail(f"unknown subcommand {args.cmd} {args.sub}", 64)
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        return _fail(f"--tol must be finite and > 0, got {args.tol}", 2)
    if args.tol is not None and args.tol < _TOL_FLOOR:
        return _fail(f"--tol must be >= {_TOL_FLOOR:g}, the floor of double-precision"
                     f" quadrature, got {args.tol}", 2)
    started = time.time()
    try:
        out = args.run(args, make_field(args.field))
    except (ValueError, NotImplementedError) as exc:
        return _fail(str(exc), 2)
    if isinstance(out, list):
        print("\n".join(out))
        return 0
    inputs, result, certificates = out
    print(json.dumps({
        "schema": 1,
        "command": f"{args.cmd} {args.sub}",
        "inputs": inputs,
        "result": result,
        "certificates": certificates,
        "elapsed_ms": round(1000 * (time.time() - started), 3) if args.timing else None,
    }, sort_keys=True, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
