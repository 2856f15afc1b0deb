"""Command-line behavior: exit codes, file formats, determinism.

Everything runs in-process through main(argv), so exit codes are
return values rather than SystemExit side effects.  The exit-code
contract: 0 success, 1 usage/configuration, 2 refused,
3 verification failure.
"""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from wittenlab.cli import main
from wittenlab.invariants import INVARIANTS

GAUSS_DESC = {"kind": "gaussian", "amplitude": 1.0, "width": 1.0}
ZERO_DESC = {"kind": "gaussian", "amplitude": 0.0, "width": 1.0}


@pytest.fixture
def profile_file(tmp_path):
    def write(descriptor, name="profile.json"):
        path = tmp_path / name
        path.write_text(json.dumps(descriptor), encoding="utf-8")
        return str(path)

    return write


def run_ssf1d(profile_path, out, *extra):
    return main([
        "ssf-1d", "--profile", profile_path, "--nodes", "200",
        "--nu-max", "6", "--nu-points", "61", "--n", "2", "--out", out, *extra,
    ])


def test_ssf1d_csv_output(tmp_path, profile_file):
    out = str(tmp_path / "curve")
    assert run_ssf1d(profile_file(GAUSS_DESC), out) == 0
    text = (tmp_path / "curve.csv").read_text(encoding="utf-8")
    lines = text.split("\n")
    assert lines[0] == "nu,xi"
    assert len(lines) == 63  # header + 61 rows + trailing newline
    assert "\r" not in text
    first = lines[1].split(",")
    assert float(first[0]) == -6.0
    sidecar = json.loads((tmp_path / "curve.json").read_text(encoding="utf-8"))
    assert sidecar["c0"] == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)), abs=1e-9)
    assert sidecar["provenance"]["n"] == 2


def test_ssf1d_routine_is_deterministic(tmp_path, profile_file):
    profile = profile_file(GAUSS_DESC)
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run_ssf1d(profile, out_a) == 0
    assert run_ssf1d(profile, out_b) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_ssf1d_zero_profile(tmp_path, profile_file):
    out = str(tmp_path / "zero")
    assert run_ssf1d(profile_file(ZERO_DESC), out) == 0
    lines = (tmp_path / "zero.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0] == "nu,xi"
    assert all(line.endswith(",0") for line in lines[1:-1])


def test_ssf1d_json_format(tmp_path, profile_file):
    out = str(tmp_path / "curve")
    assert run_ssf1d(profile_file(GAUSS_DESC), out, "--format", "json") == 0
    payload = json.loads((tmp_path / "curve.json").read_text(encoding="utf-8"))
    assert payload["curve"]["kind"] == "one_dim_mollified"
    assert len(payload["curve"]["grid"]) == 61


def test_missing_profile_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["ssf-1d", "--profile", missing, "--out", str(tmp_path / "x")]) == 1
    assert "nope.json" in capsys.readouterr().err


def test_malformed_profile_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["ssf-1d", "--profile", str(bad), "--out", str(tmp_path / "x")]) == 1
    assert "bad.json" in capsys.readouterr().err


def test_unknown_arguments_exit_1(capsys):
    assert main(["ssf-1d", "--no-such-flag"]) == 1
    assert main(["no-such-command"]) == 1
    assert main([]) == 1
    # output options exist only where a subcommand writes that output
    assert main(["verify", "--format", "json"]) == 1
    assert main(["verify", "--out", "x"]) == 1
    assert main(["witten", "--format", "json"]) == 1
    # a sweep is one vectorized pass, so no subcommand takes a thread count
    for command in ("ssf-1d", "ssf-2d", "witten", "verify"):
        assert main([command, "--threads", "2"]) == 1


def test_sweep_points_validated(tmp_path, capsys):
    """--nu-points and --nu-max reach every sweep and are checked before any work."""
    for command in ("verify", "witten"):
        code = main([command, "--nodes", "120", "--nu-max", "3", "--nu-points", "2"])
        assert code == 1
        assert "--nu-points must be at least 3" in capsys.readouterr().err
    # a non-finite half-width is named as such, with no numpy warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("ssf-1d", "ssf-2d", "witten", "verify"):
            for nu_max in ("inf", "nan", "0"):
                out = [] if command == "verify" else ["--out", str(tmp_path / command)]
                assert main([command, "--nu-max", nu_max, *out]) == 1, (command, nu_max)
                assert "--nu-max must be positive and finite" in capsys.readouterr().err


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_coarse_grid_exits_2(tmp_path, profile_file, capsys):
    code = main([
        "ssf-1d", "--profile", profile_file(GAUSS_DESC), "--nodes", "64",
        "--nu-max", "12", "--nu-points", "25", "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("refused: ") and "increase the node count" in err
    assert "-12" in err  # the unresolved interval is named


@pytest.mark.parametrize("kind", ("gaussian", "sech2"))
def test_wide_profile_exits_2_at_the_oscillation_gate(tmp_path, profile_file, capsys, kind):
    # a grid over L of about 7.5e5 is built, and then cannot resolve nu = 12
    descriptor = {"kind": kind, "amplitude": 1.0, "width": 1e5}
    code = main(["ssf-1d", "--profile", profile_file(descriptor), "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "does not resolve oscillations" in err
    assert "(interval -12 .. 12)" in err


def test_state_out_of_double_range_exits_2(tmp_path, profile_file, capsys):
    # bump(+-1e15, 1) takes the sweep's state out of double range within a
    # block of nodes: those det2 values come back not finite or 0, vouched for
    # by nothing, and are refused at the check point, named without a nan
    # and with no advice to refine
    for amplitude in (1e15, -1e15):
        profile = profile_file({"kind": "bump", "amplitude": amplitude, "width": 1.0})
        for command in ("ssf-1d", "ssf-2d", "witten"):
            code = main([
                command, "--profile", profile, "--nu-max", "1", "--out", str(tmp_path / command),
            ])
            assert code == 2, command
            err = capsys.readouterr().err
            assert "the structured det2 at nu = " in err and "not finite" in err
            assert "nan" not in err and "refine the" not in err


def test_det2_out_of_double_range_exits_2_without_refinement_advice(tmp_path, profile_file,
                                                                   capsys):
    # sech2(1e5, 1): the sweep's det2 leaves double range just right of nu = 0
    # (N = 400 on 401 points of [-1, 1]), where no finer grid helps, so the
    # refusal asks for none, in its label or its text.  witten sweeps the whole
    # grid only for the last two n of its schedule; at its default schedule
    # n = 2's det2 at nu = 0, -1.9e84, is refused first, its bound of 4.7e-9
    # being too loose to vouch for it
    profile = profile_file({"kind": "sech2", "amplitude": 1e5, "width": 1.0})
    runs = (["ssf-1d"], ["ssf-2d"], ["witten", "--n-schedule", "16,32"], ["witten"])
    for command in runs:
        code = main([
            *command, "--profile", profile, "--nu-max", "1", "--out", str(tmp_path / command[0]),
        ])
        assert code == 2, command
        err = capsys.readouterr().err
        if command == ["witten"]:
            assert "the structured det2 at nu = 0, " in err and "too loose" in err
            assert "(interval 0 .. 0)" in err
        else:
            assert "not finite" in err and "(interval " in err
        assert "refine the" not in err and "refinement needed" not in err


def test_ssf2d_constant_input(tmp_path, profile_file):
    out = str(tmp_path / "two")
    code = main([
        "ssf-2d", "--profile", profile_file(GAUSS_DESC), "--constant-input",
        "--lambda-points", "11", "--out", out,
    ])
    assert code == 0
    lines = (tmp_path / "two.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0] == "lambda,xi"
    values = {float(line.split(",")[1]) for line in lines[1:-1]}
    assert len(values) == 1  # constant in lam to 12 significant digits


def test_ssf2d_bad_lambda_range(tmp_path, profile_file, capsys):
    profile = profile_file(GAUSS_DESC)
    bounds = (("-1", "100"), ("0.1", "inf"), ("nan", "100"), ("0.1", "nan"), ("5", "5"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for lo, hi in bounds:
            code = main([
                "ssf-2d", "--profile", profile, "--constant-input",
                "--lambda-min", lo, "--lambda-max", hi, "--out", str(tmp_path / "x"),
            ])
            assert code == 1, (lo, hi)
            assert "need 0 < --lambda-min < --lambda-max < inf" in capsys.readouterr().err


def test_witten_zero_profile(tmp_path, profile_file, capsys):
    out = str(tmp_path / "report")
    code = main([
        "witten", "--profile", profile_file(ZERO_DESC), "--n-schedule", "2,4",
        "--out", out,
    ])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert payload["extrapolated_index"] == 0.0
    assert payload["abs_error"] == 0.0
    assert "extrapolated index" in capsys.readouterr().out


def test_witten_coarse_run(tmp_path, profile_file, capsys):
    out = str(tmp_path / "report")
    code = main([
        "witten", "--profile", profile_file(GAUSS_DESC), "--n-schedule", "2,4",
        "--nodes", "200", "--nu-max", "6", "--out", out,
    ])
    assert code == 0
    payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert abs(payload["extrapolated_index"] - payload["reference_c0"]) < 0.05
    assert payload["n_schedule"] == [2, 4]
    stdout = capsys.readouterr().out
    assert "reference c0" in stdout
    assert "low confidence" in stdout


def test_witten_bad_schedule(tmp_path, profile_file, capsys):
    code = main([
        "witten", "--profile", profile_file(GAUSS_DESC), "--n-schedule", "4,x",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    # a mollifier index below 1 is named as the number it is
    for command, n in (("witten", ["--n-schedule", "4,0"]), ("ssf-1d", ["--n", "0"]),
                       ("ssf-2d", ["--n", "0"])):
        capsys.readouterr()
        code = main([command, "--profile", profile_file(GAUSS_DESC), *n,
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "mollifier index must be a positive integer, got 0\n" in capsys.readouterr().err


def test_verify_zero_profile_passes(tmp_path, profile_file, capsys):
    code = main(["verify", "--profile", profile_file(ZERO_DESC)])
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    printed = [line.split()[1] for line in out.splitlines() if line.startswith("PASS")]
    assert printed == [name for name, _ in INVARIANTS]
    assert "verification passed" in out


def test_verify_honors_sweep_half_width(tmp_path, profile_file, capsys):
    """A (nodes, nu-max) pair inside the oscillation gate must pass.

    The sweep-based identities have to run on the requested half-width,
    not a hard-coded one: 300 nodes resolve oscillations up to |nu| = 8
    but not up to 12, so this config only passes if --nu-max reaches
    every check.
    """
    code = main(
        [
            "verify",
            "--profile",
            profile_file(GAUSS_DESC),
            "--nodes",
            "300",
            "--nu-max",
            "8",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "aborted" not in out
    assert "verification passed" in out


def test_verify_coarse_grid_fails_cleanly(tmp_path, profile_file, capsys):
    """At 16 nodes the sweep-based identities abort but the rest hold.

    The HS bound and the determinant triviality are resolution-proof
    (the latter exactly so), while the trace cross-checks need a grid
    that resolves the oscillations; coarse input must therefore give a
    mixed PASS/FAIL report and exit 3, never a crash.
    """
    code = main(["verify", "--profile", profile_file(GAUSS_DESC), "--nodes", "16"])
    assert code == 3
    out = capsys.readouterr().out
    assert "PASS  hs-bound" in out
    assert "PASS  det2-triviality" in out
    assert "FAIL  krein-trn" in out
    assert "verification FAILED" in out


def _run_python(code: str) -> str:
    """stdout of code run in a fresh interpreter on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.strip()


def test_import_loads_no_scipy():
    # scipy is imported only where it is used (the banded Fourier oracle's
    # eigvals_banded), so that a process pays nothing for it on import
    code = (
        "import sys, wittenlab, wittenlab.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python(code) == "[]"


def test_trace_checks_load_no_scipy_integrate():
    # the trace checks take their tails in closed form, so they load neither
    # scipy.integrate nor the scipy.optimize it would pull in
    code = (
        "import sys\n"
        "from wittenlab import builtin_profile\n"
        "from wittenlab.ssf import krein_check_trn, trace_identity_eq1\n"
        "g = builtin_profile('gaussian', 1.0, 1.0)\n"
        "krein_check_trn(g, 4, -1.0, N=200, nu_max=6.0, M=256)\n"
        "trace_identity_eq1(g, 8, -1.0, N=200, nu_max=6.0)\n"
        "trace_identity_eq1(g, 8, -1.0, synthetic_constant=0.375)\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
    )
    assert _run_python(code) == "[]"
