"""CLI surface tests: schemas, exit codes, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

CMD = [sys.executable, "-m", "totreal.cli"]


def run(*args):
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=300
    )
    return proc.returncode, proc.stdout


def test_field_info():
    code, out = run("field", "info", "--D", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["result"]["disc"] == 5
    assert doc["result"]["h"] == 1
    assert doc["result"]["eps"] == ["0", "1"]
    assert doc["elapsed_ms"] is None
    assert set(doc) >= {"command", "inputs", "result", "certificates", "elapsed_ms"}
    code, out = run("field", "info", "--D", "5", "--timing")
    assert code == 0 and json.loads(out)["elapsed_ms"] is not None


def test_kloosterman_eval():
    code, out = run("--field", "1", "kloosterman", "eval", "--r1", "1", "--r2", "1", "--c", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["S"][0] == pytest.approx(0.381966, abs=1e-5)
    assert doc["result"]["margin"] == pytest.approx(0.0854, abs=1e-3)


def test_constterm():
    code, out = run("--field", "1", "eisen", "constterm", "--level", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["H_half"] == "1/6"


def test_eisen_count():
    code, out = run("--field", "5", "chars", "eisen-count", "--level", "1", "--X", "14")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["branches"] == 3


def test_unknown_subcommand_exit_64():
    code, out = run("frobnicate")
    assert code == 64
    assert "error" in json.loads(out)
    code, out = run("--field", "5", "frobnicate")
    assert code == 64
    assert json.loads(out) == {"schema": 1, "error": "unknown subcommand 'frobnicate'"}
    # a command with no subcommand
    code, out = run("field")
    assert code == 64
    assert json.loads(out) == {"schema": 1, "error": "unknown subcommand field None"}


def test_domain_error_exit_2():
    code, out = run("--field", "1", "kloosterman", "eval", "--r1", "1", "--r2", "1", "--c", "0")
    assert code == 2
    assert "error" in json.loads(out)
    code, out = run("field", "info", "--D", "12")
    assert code == 2
    # negative sizes, and an imaginary order beyond the evaluator's range
    for args in (("--qmax", "-3", "--numax", "-1"), ("--qmax", "0", "--numax", "10")):
        code, out = run("whittaker", "gram", *args)
        assert code == 2
        assert "error" in json.loads(out)


def test_gram_order_limit():
    # the default log grid converges up to |q| = 60; beyond it the command
    # refuses at once instead of building grids that fail the certificate
    for qmax in ("61", "62"):
        proc = subprocess.run(CMD + ["whittaker", "gram", "--qmax", qmax],
                              capture_output=True, text=True, timeout=2)
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert "60" in json.loads(proc.stdout)["error"]
    proc = subprocess.run(CMD + ["whittaker", "gram", "--help"], capture_output=True, text=True,
                          timeout=60)
    assert "at most 60" in " ".join(proc.stdout.split())


def test_gram_odd_orders():
    # odd q runs on the same array routes as even q: seconds, not minutes
    proc = subprocess.run(CMD + ["whittaker", "gram", "--qmax", "5"],
                          capture_output=True, text=True, timeout=5)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)["result"]
    assert len(doc["csv"]) == 1 + 3 * 6 * 6
    assert doc["max_identity_deviation"] <= 1e-5


def test_field_range():
    # a long unit period finishes quickly; D above 10^7 and a fundamental unit
    # beyond the float range are refused with exit 2, not a hang or a traceback
    proc = subprocess.run(
        CMD + ["field", "info", "--D", "1381"], capture_output=True, text=True, timeout=10
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["eps_norm"] == -1
    for D in ("100291", "10000000001"):
        proc = subprocess.run(
            CMD + ["field", "info", "--D", D], capture_output=True, text=True, timeout=10
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "error" in json.loads(proc.stdout)


def test_deterministic_output():
    args = ("--field", "5", "spectral", "oldforms", "--level", "4")
    _, out1 = run(*args)
    _, out2 = run(*args)
    assert out1 == out2


def test_sweep_csv():
    code, out = run("--format", "csv", "--field", "1", "kloosterman", "sweep", "--cmax", "20")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c_norm,S_re,S_im,margin"
    assert len(lines) > 9 * 10  # 19 moduli x 9 pairs
    for line in lines[1:]:
        assert float(line.split(",")[3]) <= 1 + 1e-9


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("cmax", ["1", "0", "-5"])
def test_sweep_refuses_cmax_below_2(fmt, cmax):
    # no modulus has norm below 2: exit 2 with the reason, in either format,
    # not an empty table or a message from max()
    proc = subprocess.run(CMD + ["--format", fmt, "kloosterman", "sweep", "--cmax", cmax],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stdout
    assert proc.stderr == ""
    error = json.loads(proc.stdout)["error"]
    assert error == f"--cmax must be >= 2, the least norm of a modulus, got {cmax}"


def test_sweep_large_regulator():
    # Q(sqrt 1381) has eps of about 7.5e10, where a box search for the
    # generators of the moduli would list about 10^10 points
    proc = subprocess.run(
        CMD + ["--field", "1381", "kloosterman", "sweep", "--cmax", "30"],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["worst_margin"] <= 1 + 1e-9


def test_bessel_cli():
    code, out = run("spectral", "bessel", "--Z", "2", "--t", "-1.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificates"]["tail_bound"] < 1e-8
    # --tol tightens the certificate target
    code, out = run("--tol", "1e-10", "spectral", "bessel", "--Z", "2", "--t", "-1.5")
    assert json.loads(out)["certificates"]["tail_bound"] < 1e-10


def test_bessel_cli_oversized_Z():
    # past the K-kernel's quadrature limit (t < 0) or the J-kernel's panel
    # budget (t > 0) the command refuses with exit 2; it must neither hang
    # nor overflow
    for Z, t, refused in (("30", "-1.5", False), ("500", "-1.5", False),
                          ("200", "1.5", True), ("500", "1.5", True)):
        proc = subprocess.run(
            CMD + ["spectral", "bessel", "--Z", Z, "--t", t],
            capture_output=True, text=True, timeout=30,
        )
        assert proc.returncode in (0, 2), proc.stderr
        assert "Traceback" not in proc.stderr
        doc = json.loads(proc.stdout)
        assert ("error" in doc) == (proc.returncode == 2)
        if refused:
            assert proc.returncode == 2 and "J-kernel" in doc["error"]


@pytest.mark.parametrize("args,message", [
    (("spectral", "bessel", "--Z", "0", "--t", "-1.5"), "Z must be finite and > 0"),
    (("spectral", "bessel", "--Z", "-1", "--t", "-1.5"), "Z must be finite and > 0"),
    (("spectral", "bessel", "--Z", "nan", "--t", "-1.5"), "Z must be finite and > 0"),
    (("spectral", "bessel", "--Z", "2", "--t", "nan"), "t must be finite and nonzero"),
    (("spectral", "bessel", "--Z", "2", "--t", "inf"), "t must be finite and nonzero"),
    (("--tol", "-1", "spectral", "bessel", "--Z", "2", "--t", "1.5"), "--tol must be finite and > 0"),
    (("--tol", "nan", "spectral", "bessel", "--Z", "2", "--t", "1.5"), "--tol must be finite and > 0"),
    (("--tol", "0", "spectral", "bessel", "--Z", "2", "--t", "1.5"), "--tol must be finite and > 0"),
    (("--tol", "inf", "whittaker", "gram", "--qmax", "2"), "--tol must be finite and > 0"),
    (("--field", "5", "spectral", "kuz-geom", "--r1", "1", "--r2", "1", "--level", "1",
      "--box", "-3"), "box must be finite and >= 0"),
    (("--tol", "1e-300", "spectral", "bessel", "--Z", "2", "--t", "1.5"), "--tol must be >= 1e-14"),
])
def test_bad_spectral_inputs_refused(args, message):
    # exit 2 with a JSON error and nothing on stderr, at once
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=2)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    assert message in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("args,message", [
    (("shifted", "amplify", "--q", "7", "--L", "5", "--Y", "inf"), "Y must be finite and > 0"),
    (("shifted", "amplify", "--q", "7", "--L", "inf"), "L must be finite and > 0"),
    (("shifted", "sum", "--q", "1", "--Y", "inf"), "Y must be finite and > 0"),
    (("shifted", "afe", "--Y", "inf"), "Y must be finite and > 0"),
    (("chars", "eisen-count", "--level", "1", "--X", "inf"), "X must be finite and >= 0"),
    (("chars", "eisen-count", "--level", "1", "--X", "2", "--resolution", "0"),
     "resolution must be finite and > 0"),
    (("whittaker", "eval", "--q", "2", "--nu", "0.5", "--y", "inf"), "y must be finite and nonzero"),
    (("whittaker", "eval", "--q", "2", "--nu", "0.5", "--y", "nan"), "y must be finite and nonzero"),
    (("shifted", "dirichlet", "--q", "1", "--s", "1.5", "--height", "-1"),
     "trace height must be finite and > 0"),
    (("chars", "eisen-count", "--level", "1/2", "--X", "2"), "level must be integral"),
    (("--field", "5", "shifted", "dirichlet", "--q", "1", "--s", "1.5", "--beta", "134",
      "--height", "20"), "beta = 134 takes the terms of the series out of the float range"),
    # more branches than MAX_BOX_POINTS, and a grid 2X/resolution beyond the
    # float range, before any branch is listed
    (("--field", "5", "chars", "eisen-count", "--level", "1", "--X", "1e8"),
     "Eisenstein branches, above the limit of 1000000"),
    (("--field", "5", "chars", "eisen-count", "--level", "2", "--X", "1e308"),
     "beyond the float range"),
    (("eisen", "localfactor", "--Np", "1", "--s", "1"), "Np must be >= 2"),
    (("eisen", "localfactor", "--Np", "0", "--s", "1"), "Np must be >= 2"),
    (("eisen", "localfactor", "--Np", "5", "--s", "nan"), "s must be finite"),
    (("eisen", "localfactor", "--Np", "5", "--s", "1", "--case", "level", "--v", "-3"),
     "v must be >= 1 in the level case"),
    (("eisen", "localfactor", "--Np", "5", "--s", "1", "--case", "level-eta", "--v", "0"),
     "v must be >= 1 in the level-eta case"),
    # a prime power beyond any level factor_ideal takes, before it is formed
    (("eisen", "norms", "--Np", "5", "--j", "0", "--m", "100000000"),
     "Np^m = 5^100000000 is above the limit of 10000000"),
    (("eisen", "norms", "--Np", "5", "--j", "10000000", "--m", "0"),
     "Np^j = 5^10000000 is above the limit of 10000000"),
    # Np^(-2sv) = 5^2400, and an Np that no float holds
    (("eisen", "localfactor", "--Np", "5", "--s", "-400", "--case", "level", "--v", "3"),
     "leaves the float range"),
    (("eisen", "localfactor", "--Np", "1" + "0" * 400, "--s", "1"), "leaves the float range"),
    # a subnormal Z^2, and search nodes u (up to 68 max(1, Z)) where u^2
    # overflows
    (("spectral", "bessel", "--Z", "1e-160", "--t=-1.5"), "Z^2 leaves the float range at Z = 1e-160"),
    (("spectral", "bessel", "--Z", "1e154", "--t=-1.5"),
     "the truncation search takes u up to 6.8e+155, where u^2 leaves the float range"),
    # a Kloosterman sum over residues mod c is well defined for integral r only
    (("kloosterman", "eval", "--r1", "1/2", "--r2", "1", "--c", "5"), "r1 and r2 must be integral"),
    (("--field", "5", "spectral", "kuz-geom", "--r1", "1", "--r2", "1/3", "--level", "1",
      "--box", "4"), "r1 and r2 must be integral"),
    (("--field", "5", "shifted", "dirichlet", "--q", "1", "--s", "inf", "--height", "10"),
     "s must be finite at every place"),
    (("--field", "5", "shifted", "dirichlet", "--q", "1", "--s", "nan", "--height", "10"),
     "s must be finite at every place"),
])
def test_bad_sizes_refused(args, message):
    # sizes that are not finite, or zero where they divide: exit 2 with a
    # JSON error and nothing on stderr, at once, not a traceback or a value
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=2)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    assert message in json.loads(proc.stdout)["error"]


def test_Z_squared_out_of_float_range_refused(capsys):
    # k_Z divides by Z^2, which underflows to 0 at Z = 1e-300 and overflows
    # at Z = 1e308: exit 2 from cli.main, not a traceback
    from totreal import cli

    for Z in ("1e-300", "1e308"):
        assert cli.main(["spectral", "bessel", "--Z", Z, "--t=-1.5"]) == 2
        assert "Z^2 leaves the float range" in json.loads(capsys.readouterr().out)["error"]


def test_wk_bound_overflow_stays_off_stderr():
    # t -> 0- makes x tiny, and a tilt's e^{2 u eps} K_0(x sin eps) overflows
    # in wk_bound: that candidate is +inf and never wins, so the output is
    # the one below with nothing on stderr
    for args, out in (
        (("--Z", "25", "--t=-1e-300"),
         '{"certificates": {"T": 143.75, "tail_bound": 3.690769275464307e-09, "tilde_tail_bound":'
         ' 7.025123139679161e-10}, "command": "spectral bessel", "elapsed_ms": null, "inputs":'
         ' {"Z": 25.0, "t": -1e-300}, "result": {"kcheck": 8.593201159453218e-15, "ktilde":'
         ' 624.8333866500845}, "schema": 1}\n'),
        (("--Z", "40", "--t=-0.0001"),
         '{"certificates": {"T": 220.0, "tail_bound": 3.437084123019394e-09, "tilde_tail_bound":'
         ' 1.7988699448721827e-09}, "command": "spectral bessel", "elapsed_ms": null, "inputs":'
         ' {"Z": 40.0, "t": -0.0001}, "result": {"kcheck": 0.06283169794351785, "ktilde":'
         ' 1599.8333541633301}, "schema": 1}\n'),
    ):
        proc = subprocess.run(CMD + ["spectral", "bessel", *args], capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == out


def test_truncation_probes_stay_off_stderr():
    # at Z = 0.01 the first window already passes, and the probes past it
    # see k(iu) underflow to 0: the outputs below with nothing on stderr
    # (the Z = 25 and Z = 40 commands are checked above)
    for t, kcheck in (("-1.5", "0.0"), ("1.5", "-0.17936600637859387")):
        proc = subprocess.run(CMD + ["spectral", "bessel", "--Z", "0.01", f"--t={t}"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == (
            '{"certificates": {"T": 2.0, "tail_bound": 0.0, "tilde_tail_bound": 0.0}, "command":'
            f' "spectral bessel", "elapsed_ms": null, "inputs": {{"Z": 0.01, "t": {t}}}, "result":'
            f' {{"kcheck": {kcheck}, "ktilde": 0.5}}, "schema": 1}}\n'
        )


def test_tiny_Z_stays_off_stderr():
    # the smallest Z with a normal Z^2: u^2/Z^2 overflows on the kernels'
    # nodes, where k(iu) = 0 is the limit, so the output is the one below
    # with nothing on stderr
    proc = subprocess.run(CMD + ["spectral", "bessel", "--Z", "1.5e-154", "--t=-1.5"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == (
        '{"certificates": {"T": 2.0, "tail_bound": 0.0, "tilde_tail_bound": 0.0}, "command":'
        ' "spectral bessel", "elapsed_ms": null, "inputs": {"Z": 1.5e-154, "t": -1.5}, "result":'
        ' {"kcheck": 0.0, "ktilde": 0.5}, "schema": 1}\n'
    )


def test_huge_Z_refused_before_its_nodes_are_made():
    # at Z = 1e9 a transform, or ktilde, would take about 1e12 u-nodes: each
    # is refused, within 2 s, from a bound on its count before any panel is
    # made.  The child runs under a 768 MB address-space limit, so that
    # making them would fail there and take no more of the machine
    import resource

    limit = 768 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    for args in (("spectral", "bessel", "--Z", "1e9", "--t=-1.5"),
                 ("spectral", "bessel", "--Z", "1e9", "--t", "1.5"),
                 ("--field", "5", "spectral", "kuz-geom", "--r1", "1", "--r2", "1", "--level", "1",
                  "--Z", "1e9", "--box", "3")):
        proc = subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=2,
                              preexec_fn=cap)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == ""
        assert "u-nodes (limit 1000000)" in json.loads(proc.stdout)["error"]


def test_kuz_geom_refused_before_kloosterman_sums():
    # a Z the K-kernel refuses: exit 2 with a JSON error naming the limit,
    # from the node limits checked before any transform or Kloosterman sum
    args = ["--field", "5", "spectral", "kuz-geom", "--r1", "1", "--r2", "1", "--level", "1",
            "--Z", "25", "--box", "6"]
    proc = subprocess.run(CMD + args, capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == ""
    assert "K-kernel at u=" in json.loads(proc.stdout)["error"]


def test_kuz_geom_honours_tol():
    # --tol halves into the transforms' tail target, as for spectral bessel
    args = ["--field", "5", "spectral", "kuz-geom", "--r1", "1", "--r2", "1", "--level", "1",
            "--box", "3"]
    code, default = run(*args)
    assert code == 0
    code, loose = run("--tol", "1e-3", *args)
    assert code == 0
    assert json.loads(loose)["result"] != json.loads(default)["result"]


def test_main_in_one_process_matches_fresh_processes():
    # the CLI table is built once per process and only read: a sequence of
    # calls whose global options change prints what fresh processes print
    import contextlib
    import io

    from totreal import cli

    seq = [
        ("field", "info", "--D", "5"),
        ("--field", "1", "kloosterman", "--r1", "1", "--r2", "1", "--c", "5"),
        ("--format", "csv", "kloosterman", "sweep", "--cmax", "20"),
        ("kloosterman", "sweep", "--cmax", "20"),
        ("--timing", "eisen", "dim", "--n", "3", "--m", "1"),
        ("eisen", "dim", "--n", "3", "--m", "1"),
    ]
    for argv in seq:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(argv)) == 0
        code, fresh = run(*argv)
        assert code == 0
        if "--timing" in argv:
            inproc, fresh = json.loads(buf.getvalue()), json.loads(fresh)
            assert inproc.pop("elapsed_ms") is not None and fresh.pop("elapsed_ms") is not None
            assert inproc == fresh
        else:
            assert buf.getvalue() == fresh
    assert cli._cli_table.cache_info().currsize == 1


# The numeric modules each README command loads, from a fresh interpreter:
# the commands on exact arithmetic load none, the Kloosterman phases numpy,
# the Laguerre route of whittaker eval numpy and mpmath, and only the Bessel
# transforms scipy.special.
NUMERIC = ("numpy", "scipy.special", "mpmath")
README_IMPORTS = {
    "field_info": ("field info --D 5", set()),
    "kloosterman_eval": ("--field 1 kloosterman eval --r1 1 --r2 1 --c 5", {"numpy"}),
    "kloosterman_sweep": ("--field 1 --format csv kloosterman sweep --cmax 200", {"numpy"}),
    "chars_eisen_count": ("--field 5 chars eisen-count --level 1 --X 14", set()),
    "eisen_constterm": ("--field 1 eisen constterm --level 5", set()),
    "whittaker_eval": ("whittaker eval --q 2 --nu 0.5 --y 1.0", {"numpy", "mpmath"}),
    "spectral_bessel": ("spectral bessel --Z 2 --t -1.5", {"numpy", "scipy.special"}),
    "spectral_kuz_geom": ("--field 5 spectral kuz-geom --r1 1 --r2 1 --level 1 --Z 1 --box 20",
                          {"numpy", "scipy.special"}),
    "shifted_amplify": ("--field 1 shifted amplify --q 7 --L 5 --Y 40", set()),
}


def _loaded_after(code: str) -> set:
    """The NUMERIC modules in sys.modules after code runs in a fresh process."""
    code += f"\nimport json, sys; print(json.dumps([m for m in {NUMERIC!r} if m in sys.modules]))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_table_lists_the_readme_commands():
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.removeprefix("totreal ") for line in block.splitlines()]
    assert commands == [command for command, _ in README_IMPORTS.values()]


@pytest.mark.parametrize("name", list(README_IMPORTS))
def test_readme_command_imports(name):
    command, modules = README_IMPORTS[name]
    code = f"import totreal.cli as c\nassert c.main({command.split()!r}) == 0"
    assert _loaded_after(code) == modules


def test_readme_outputs_match_the_benchmark_reference(monkeypatch):
    # the benchmark's README commands, run through cli.main, print what
    # bench/reference.json pins by md5, so output drift shows here first
    import contextlib
    import hashlib
    import importlib.util
    import io
    import shlex

    from totreal import cli

    bench = Path(__file__).parents[1] / "bench"
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", bench / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    reference = json.loads((bench / "reference.json").read_text())
    assert spans.CLI_COMMANDS
    for name, command in spans.CLI_COMMANDS.items():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(shlex.split(command)) == 0, name
        assert hashlib.md5(buf.getvalue().encode()).hexdigest() == reference[f"cli.{name}"], name


# the stdout md5 of the README's kuz-geom command (box 20, where the
# benchmark runs box 6), as printed before the Kloosterman residue tables
# kept one coordinate where o/(c) is Z/a
README_KUZ_GEOM_MD5 = "5488f70ee37dbe807d6afbb2087a5e6d"


def test_readme_kuz_geom_output_pinned():
    # its quadratic-field moduli take both table layouts, HNF c = 1 and c > 1
    import contextlib
    import hashlib
    import io

    from totreal import cli

    command, _ = README_IMPORTS["spectral_kuz_geom"]
    assert command.endswith("--box 20")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(command.split()) == 0
    assert hashlib.md5(buf.getvalue().encode()).hexdigest() == README_KUZ_GEOM_MD5


def test_exact_layers_import_without_numpy():
    # characters, Eisenstein data, EigenvalueSystem and the shifted sums sit
    # on exact arithmetic; numpy comes in only with a function that
    # evaluates with it
    code = "import totreal.characters, totreal.eisenstein, totreal.spectral, totreal.shifted"
    assert _loaded_after(code) == set()


def test_no_method_is_cached():
    # a functools cache on a method keys on self, is shared by every
    # instance and keeps each one alive until evicted (flake8-bugbear B019);
    # per-object caches are made in __init__ instead
    import ast

    src = Path(__file__).parents[1] / "src" / "totreal"
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (node.args.args and node.args.args[0].arg == "self"):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []


def test_eisen_subcommands():
    code, out = run("eisen", "dim", "--n", "3", "--m", "1")
    assert code == 0 and json.loads(out)["result"]["dimension"] == 2
    code, out = run("eisen", "norms", "--Np", "5", "--j", "2")
    assert code == 0 and json.loads(out)["result"]["norm_sq"] == "2/3"
    code, out = run("--field", "1", "eisen", "coeff", "--chi-t", "0.7", "--t", "7", "--m", "1")
    doc = json.loads(out)
    assert code == 0 and doc["result"]["t_chi_norm"] == "1"
    code, out = run("--field", "1", "eisen", "localfactor", "--Np", "5", "--s", "1.0",
                    "--case", "level", "--v", "1")
    assert code == 0
    assert json.loads(out)["result"]["value"][0] == pytest.approx(1 / 30)


def test_global_flags_after_subcommand():
    # the spec-style invocation: bare kloosterman with --field trailing
    code, out = run("kloosterman", "--field", "1", "--r1", "1", "--r2", "1", "--c", "5")
    assert code == 0
    assert json.loads(out)["result"]["abs_S"] == pytest.approx(0.381966, abs=1e-5)


# one small run of every leaf subcommand, with one global option each
LEAVES = [
    (("--field", "5"), ("field", "info", "--D", "5")),
    (("--field", "5"), ("chars", "list", "--modulus", "2")),
    (("--field", "5"), ("chars", "eisen-count", "--level", "1", "--X", "14")),
    (("--seed", "1"), ("whittaker", "eval", "--q", "2", "--nu", "0.5", "--y", "1.0")),
    (("--format", "csv"), ("whittaker", "gram", "--qmax", "2", "--numax", "0.5")),
    (("--field", "5"), ("kloosterman", "eval", "--r1", "1", "--r2", "2,1", "--c", "3")),
    (("--format", "csv"), ("kloosterman", "sweep", "--cmax", "20")),
    (("--seed", "2"), ("eisen", "dim", "--n", "3", "--m", "1")),
    (("--seed", "2"), ("eisen", "norms", "--Np", "5", "--j", "2")),
    (("--field", "5"), ("eisen", "coeff", "--chi-t", "0.3", "--t", "2", "--m", "11")),
    (("--field", "5"), ("eisen", "constterm", "--level", "4")),
    (("--seed", "2"), ("eisen", "localfactor", "--Np", "5", "--s", "1.0", "--case", "level")),
    (("--seed", "3"), ("spectral", "oldforms", "--level", "4")),
    (("--tol", "1e-10"), ("spectral", "bessel", "--Z", "2", "--t", "-1.5")),
    (("--field", "5"), ("spectral", "kuz-geom", "--r1", "1", "--r2", "1", "--level", "1",
                        "--box", "3")),
    (("--field", "5"), ("shifted", "sum", "--q", "1", "--Y", "10")),
    (("--field", "5"), ("shifted", "dirichlet", "--q", "1", "--s", "2.5", "--height", "40")),
    (("--field", "5"), ("shifted", "amplify", "--q", "11", "--L", "3", "--Y", "20")),
    (("--field", "5"), ("shifted", "afe", "--Y", "10")),
]


@pytest.mark.parametrize("opt,leaf", LEAVES, ids=[" ".join(leaf[:2]) for _, leaf in LEAVES])
def test_global_option_either_side(opt, leaf):
    # a global option reads the same before the subcommand and after the
    # leaf's own options
    code, before = run(*opt, *leaf)
    assert code == 0, before
    code, after = run(*leaf, *opt)
    assert code == 0, after
    assert before == after
    if opt != ("--format", "csv"):
        assert json.loads(before)["command"] == " ".join(leaf[:2])


def test_dirichlet_height_limit():
    # over Q(sqrt 5) the box holds about 4.6e6 and 1.8e7 lattice points;
    # both are refused before any is enumerated
    for args in (("--q", "1", "--s", "2.5", "--height", "800"),
                 ("--q", "3", "--s", "1.5", "--height", "1600")):
        proc = subprocess.run(CMD + ["--field", "5", "shifted", "dirichlet", *args],
                              capture_output=True, text=True, timeout=2)
        assert proc.returncode == 2
        assert proc.stderr == ""
        assert "limit of 1000000" in json.loads(proc.stdout)["error"]


def test_oversized_boxes_refused():
    # the amplifier's r-sum over Q at Y = 10^8 asks for the ideals of norm
    # up to 2*10^8
    args = ("--field", "1", "shifted", "amplify", "--q", "7", "--L", "5", "--Y", "100000000")
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=2)
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert "limit of 1000000" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("D", [1381, 48799])
def test_amplifier_over_large_units(D):
    # units about 7e10 and 1e269: the r-sum walks the ideals of norm <= 2Y,
    # so its size does not grow with the unit
    args = ("--field", str(D), "shifted", "amplify", "--q", "7", "--L", "5", "--Y", "40")
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=2)
    assert proc.returncode == 0, proc.stdout
    assert json.loads(proc.stdout)["result"]["relative_difference"] <= 1e-9


@pytest.mark.parametrize("args", [
    ("shifted", "afe", "--Y", "1e8"),
    ("kloosterman", "sweep", "--cmax", "100000000"),
    ("shifted", "amplify", "--q", "7", "--L", "1e8"),
], ids=["afe", "sweep", "amplify-L"])
def test_oversized_ideal_walks_refused(args):
    proc = subprocess.run(CMD + ["--field", "1"] + list(args), capture_output=True, text=True,
                          timeout=2)
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert "limit of 1000000" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("args", [
    ("--field", "1", "chars", "list", "--modulus", "1000003"),
    ("--field", "1", "kloosterman", "eval", "--r1", "1", "--r2", "1", "--c", "1000003"),
    ("--field", "5", "kloosterman", "eval", "--r1", "1", "--r2", "1", "--c", "1000,1"),
    ("--field", "1", "shifted", "amplify", "--q", "1000003", "--L", "3", "--Y", "20"),
], ids=["chars", "kloosterman", "kloosterman-K5", "amplify"])
def test_oversized_residue_rings_refused(args):
    # fields.unit_mask refuses o/c of more than 10^6 classes before making any
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True, timeout=2)
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert "above the limit of 1000000" in json.loads(proc.stdout)["error"]


def test_unknown_option_either_side():
    # an option the CLI does not know gets argparse's message and exit 2,
    # before the subcommand as after it
    leaf = ["field", "info", "--D", "5"]
    before = subprocess.run(CMD + ["--bound", "10"] + leaf, capture_output=True, text=True,
                            timeout=60)
    after = subprocess.run(CMD + leaf + ["--bound", "10"], capture_output=True, text=True,
                           timeout=60)
    for proc in (before, after):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.endswith("error: unrecognized arguments: --bound 10\n")
    assert before.stderr == after.stderr


def test_chars_list_cli():
    code, out = run("--field", "5", "chars", "list", "--modulus", "2")
    doc = json.loads(out)
    assert code == 0 and doc["result"]["count"] == 3
    assert sorted(c["order"] for c in doc["result"]["characters"]) == [1, 3, 3]


def test_chars_list_squarefree_modulus_in_time():
    # 30030 = 2*3*5*7*11*13 has 5760 characters; conductors by descent list
    # them in about a second.  Over a squarefree n the primitive characters
    # number prod (p - 2), none when 2 | n, and mod 15015 there are 1*3*5*9*11.
    proc = subprocess.run(CMD + ["chars", "list", "--modulus", "30030"],
                          capture_output=True, text=True, timeout=20)
    assert proc.returncode == 0, proc.stderr
    conds = [int(c["conductor_norm"]) for c in json.loads(proc.stdout)["result"]["characters"]]
    assert len(conds) == 5760
    assert all(15015 % c == 0 for c in conds)
    assert conds.count(15015) == 1485
