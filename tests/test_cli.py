"""End-to-end tests of the batch command-line interface (in-process)."""

import argparse
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import zeta

import halphen_lab
from halphen_lab import modforms
from halphen_lab.cli import build_parser, main, parse_complex, parse_triple


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestParsing:
    def test_complex_literals(self):
        assert parse_complex("0.3+0.2i") == 0.3 + 0.2j
        assert parse_complex("1.3i") == 1.3j
        assert parse_complex("2") == 2 + 0j

    def test_triple(self):
        assert parse_triple("1,2,3") == (1.0, 2.0, 3.0)


class TestSolve:
    def test_csv_trajectory(self, capsys):
        code, out = run(
            capsys, "solve", "--init", "1,2,3", "--t0", "1", "--t1", "5"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("T")
        T = [float(line.split(",")[0]) for line in lines[1:]]
        assert all(b > a for a, b in zip(T, T[1:]))

    def test_halphen_sampling(self, capsys):
        code, out = run(
            capsys, "solve", "--halphen", "--t0", "1", "--t1", "3",
            "--samples", "50", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tol"] == 0.0  # a closed form has no tolerance
        Om = np.array(payload["Omega"])
        # closed-form ordering: Omega1 < 0 < Omega3 < Omega2
        assert np.all(Om[:, 0] < 0)
        assert np.all(Om[:, 2] > 0)
        assert np.all(Om[:, 1] > Om[:, 2])

    def test_usage_error_bad_init(self, capsys):
        code = main(["solve", "--init", "1,2", "--t0", "1", "--t1", "5"])
        assert code == 1

    def test_usage_error_missing_init(self, capsys):
        code = main(["solve", "--t0", "1", "--t1", "5"])
        assert code == 1

    @pytest.mark.parametrize("samples", ["1", "0", "-4"])
    def test_usage_error_too_few_samples(self, capsys, samples):
        code = main(["solve", "--halphen", "--t0", "1", "--t1", "3", "--samples", samples])
        assert code == 1

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_nonfinite_tol_is_numeric_failure(self, capsys, tol):
        # --tol nan used to hang: a NaN step never underflows
        code = main(["solve", "--init", "1,2,3", "--t0", "1", "--t1", "3", "--tol", tol])
        assert code == 2
        assert "DomainError: tol must be finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["--halphen", "--init", "1,2,3"], "argument --init: not allowed with argument --halphen"),
        (["--halphen", "--system", "lagrange"], "not used with the other arguments: --system"),
        (["--halphen", "--no-stop-on-root"],
         "not used with the other arguments: --no-stop-on-root"),
    ])
    def test_halphen_rejects_integration_flags(self, capsys, argv, message):
        assert main(["solve", *argv, "--t0", "1", "--t1", "2"]) == 1
        assert message in capsys.readouterr().err

    def test_halphen_sampling_below_the_complex_floor(self, capsys):
        # T = 0.02 is Im(tau) = 0.02 < 0.05 for the complex series
        code, out = run(capsys, "solve", "--halphen", "--t0", "0.02", "--t1", "2",
                        "--samples", "20", "--format", "json")
        assert code == 0
        Om = np.array(json.loads(out)["Omega"])
        assert Om[0, 0] == pytest.approx(-math.pi / (2 * 0.02**2) + 1 / 0.02, rel=1e-12, abs=0)


class TestCurvature:
    def test_taubnut_self_dual(self, capsys):
        code, out = run(capsys, "curvature", "--taubnut", "0,-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["SelfDual"]
        assert payload["flags"]["RicciFlat"]
        assert max(r["wplus_norm"] for r in payload["samples"]) > 0

    @pytest.mark.parametrize("value", ["0", "0,-1,2", "a,b"])
    def test_taubnut_needs_two_numbers(self, capsys, value):
        code = main(["curvature", "--taubnut", value])
        assert code == 1
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("source", [["--halphen"], ["--taubnut", "0,-1"]])
    def test_usage_error_too_few_samples(self, capsys, source):
        code = main(["curvature", *source, "--samples", "1"])
        assert code == 1

    @pytest.mark.parametrize("argv, message", [
        (["--halphen", "--taubnut", "0,-1"], "argument --taubnut: not allowed with argument --halphen"),
        (["--taubnut", "0,-1", "--init", "1,2,3"], "argument --init: not allowed with argument"),
        (["--halphen", "--system", "lagrange"], "not used with the other arguments: --system"),
        (["--taubnut", "0,-1", "--system", "lagrange"],
         "not used with the other arguments: --system"),
        ([], "one of the arguments --init --halphen --taubnut is required"),
    ])
    def test_one_source_and_its_system(self, capsys, argv, message):
        assert main(["curvature", *argv]) == 1
        assert message in capsys.readouterr().err

    def test_zero_initial_component_is_root_at_start(self, capsys):
        code = main(["curvature", "--init", "1,0,3"])
        assert code == 2
        err = capsys.readouterr().err
        assert "DomainError" in err and "Omega2 = 0" in err
        assert "monotone" not in err

    def test_halphen_endpoint_bolt(self, capsys):
        code, out = run(
            capsys, "curvature", "--halphen", "--t0", "0.5", "--t1", "7",
            "--samples", "200",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["flags"]["SelfDual"]
        assert payload["endpoint"]["kind"] == "bolt"

    def test_endpoint_error_is_reported(self, capsys):
        # too few samples for the endpoint fit: the curvature is still printed
        code, out = run(capsys, "curvature", "--halphen", "--samples", "20")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["samples"]) == 20
        assert payload["endpoint"] == {"error": "need at least 30 samples, got 20"}

    @pytest.mark.parametrize("system", [[], ["--system", "lagrange"]])
    def test_init_integrates_the_system(self, capsys, system):
        code, out = run(capsys, "curvature", "--init", "1,2,3", "--t0", "1", "--t1", "3",
                        *system)
        assert code == 0
        assert json.loads(out)["system"] == (system[1] if system else "dh")


class TestFlow:
    def test_volume_rate_residual(self, capsys):
        code, out = run(
            capsys, "flow", "--init", "1,2,3", "--t0", "1", "--t1", "10"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["volume_rate_residual"] < 1e-3
        assert all(v > 0 for v in payload["volume"])

    def test_output_is_run_json_plus_residual(self, capsys):
        from halphen_lab.errors import dump_json
        from halphen_lab.flows import flow_run, volume_rate_check
        from halphen_lab.halphen import RealTriAxial

        code, out = run(capsys, "flow", "--init", "0.5,-1,2", "--t0", "1", "--t1", "4")
        assert code == 0
        fr = flow_run(RealTriAxial((0.5, -1.0, 2.0), 1.0), 4.0)
        expected = {**json.loads(fr.to_json()), "volume_rate_residual": volume_rate_check(fr)}
        assert out == dump_json(expected) + "\n"


class TestEisenstein:
    def test_both_methods_agree(self, capsys):
        code, out = run(
            capsys, "eisenstein", "--s", "2", "--tau", "0.2+1.1i",
            "--both-methods",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True

    def test_numeric_failure_exit_code(self, capsys):
        # s = 1 is the pole of the completed series
        code = main(["eisenstein", "--s", "1", "--tau", "1.1i"])
        assert code == 2

    def test_large_s_is_leading_term(self, capsys):
        # zeta(2s) rounds to 1, and the Fourier series is its zero mode y^s
        code, out = run(
            capsys, "eisenstein", "--s", "100", "--tau", "0.1+1.2i", "--both-methods"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fourier"]["value"] == pytest.approx(2 * 1.2**100, rel=1e-9)

    def test_negative_zeta_2s_is_a_value(self, capsys):
        # 2 zeta(2s) < 0 at s = 1/4: the value is negative, its bar is not
        code, out = run(capsys, "eisenstein", "--s", "0.25", "--tau", "0.1+1.1i")
        assert code == 0
        fourier = json.loads(out)["fourier"]
        assert math.isfinite(fourier["value"]) and fourier["value"] < 0
        assert 0 <= fourier["est_error"] < 1e-12

    def test_large_s_past_the_divisor_overflow(self, capsys):
        # sigma_{2s-1}(n) overflowed a float from about s = 105 on; E_120 at
        # 0.3 + 2i is 2 y^s to 1e-36
        code, out = run(capsys, "eisenstein", "--s", "120", "--tau", "0.3+2i")
        assert code == 0
        fourier = json.loads(out)["fourier"]
        assert fourier["value"] == pytest.approx(2 * 2.0**120, rel=1e-14)
        assert 0 < fourier["est_error"] < 1e-14 * fourier["value"]

    # 2 * 1.2^4000 leaves the float range (2 * 1.2^200 and 2 * 1.2^2000 do
    # not); at s = -90, Gamma(1 - 2s) in xi(2s) does
    @pytest.mark.parametrize("argv", [["--s", "4000", "--both-methods"], ["--s=-90"]])
    def test_overflowing_s_is_numeric_failure(self, capsys, argv):
        code = main(["eisenstein", "--tau", "0.1+1.2i", *argv])
        assert code == 2
        assert "DomainError" in capsys.readouterr().err


class TestDsum:
    def test_d3_near_eisenstein_plus_zeta(self, capsys):
        code, out = run(capsys, "dsum", "--n", "3", "--tau", "2i")
        assert code == 0
        payload = json.loads(out)
        eis = main(["eisenstein", "--s", "3", "--tau", "2i"])
        assert eis == 0
        e3 = json.loads(capsys.readouterr().out)["fourier"]["value"]
        target = e3 / (4 * math.pi) ** 3 + zeta(3) / 64
        assert abs(payload["value"] - target) < 1e-3
        assert payload["note"] == "D_3 = E_3/(4 pi)^3 + zeta(3)/64, no cutoff"

    def test_lattice_sum_has_no_note(self, capsys):
        code, out = run(capsys, "dsum", "--n", "2", "--tau", "2i", "--cutoff", "8")
        assert code == 0
        assert json.loads(out)["note"] == ""


class TestGraphd:
    def test_bridge_note(self, capsys):
        code, out = run(
            capsys, "graphd", "--mult", "1,0,0,0,0,1", "--tau", "1.1i"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.0
        assert payload["note"] == "zero-mode-excluded"

    def test_c221_note(self, capsys):
        code, out = run(capsys, "graphd", "--mult", "1,1,1,1,1,0", "--tau", "1.1i")
        assert code == 0
        assert json.loads(out)["note"] == (
            "C_2,2,1 = ((2/5) E_5/pi^5 + zeta(5)/30)/4^5, no cutoff"
        )


class TestAmplitude:
    def test_both_forms_agree(self, capsys):
        code, out = run(capsys, "amplitude", "--aps", "0.1", "--apt", "0.15")
        assert code == 0
        payload = json.loads(out)
        assert payload["difference"] < 1e-10
        assert payload["alpha_u"] == pytest.approx(-0.25)

    def test_negative_order_is_usage_error(self, capsys):
        for N in ("-1", "-3"):
            assert main(["amplitude", "--aps", "0.1", "--apt", "0.2", "--N", N]) == 1
            assert f"argument --N: must be >= 0, got {N}" in capsys.readouterr().err
        # N = 0 stays the bare pole prefactor
        code, out = run(capsys, "amplitude", "--aps", "0.1", "--apt", "0.2", "--N", "0",
                        "--form", "series")
        assert code == 0
        assert json.loads(out)["series"] == pytest.approx(1 / (0.1 * 0.2 * -0.3), rel=1e-15)


class TestTheta:
    def test_classical_value(self, capsys):
        code, out = run(capsys, "theta", "--classical", "3", "--z", "1i")
        assert code == 0
        payload = json.loads(out)
        ref = math.pi**0.25 / math.gamma(0.75)
        assert payload["re"] == pytest.approx(ref, abs=1e-12)
        assert payload["im"] == pytest.approx(0.0, abs=1e-12)

    def test_series_stop_is_not_settable(self, capsys):
        # every theta series stops at modforms.TOL: theta3(0|i/20) is
        # sqrt(20) theta3(0|20i) = sqrt(20) to binary64, and --tol is a
        # usage error
        code, out = run(capsys, "theta", "--classical", "3", "--z", "0.05i")
        assert code == 0
        assert json.loads(out)["re"] == pytest.approx(20**0.5, abs=1e-12)
        code, out = run(capsys, "theta", "--classical", "3", "--z", "0.05i", "--tol", "1e-2")
        assert code == 1
        assert out == ""

    def test_huge_real_v(self, capsys):
        # theta_1(v + 1) = -theta_1(v), and 1e300 is even: theta_1(0 | i) = 0
        code, out = run(capsys, "theta", "--classical", "1", "--v", "1e300", "--z", "1i")
        assert code == 0
        payload = json.loads(out)
        assert abs(complex(payload["re"], payload["im"])) <= 1e-12

    @pytest.mark.parametrize("argv", [["theta", "--a", "1e300", "--b", "0", "--z", "1i"],
                                      ["conformal", "--z", "1.1i", "--a", "1e300"]])
    def test_huge_characteristic_returns_at_once(self, capsys, monkeypatch, argv):
        # Re a is reduced modulo 2 first; both spent the whole MAX_TERMS budget
        monkeypatch.setattr(modforms, "MAX_TERMS", 100)
        code, out = run(capsys, *argv)
        assert code == 0
        if argv[0] == "theta":
            assert json.loads(out)["re"] == pytest.approx(math.pi**0.25 / math.gamma(0.75),
                                                          rel=1e-14)


class TestConformal:
    def test_cp_harmonic_residual(self, capsys):
        code, out = run(
            capsys, "conformal", "--cp", "cp2", "--rho", "1.0", "--eta", "0.7",
            "--h", "1e-4",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["residual"] < 1e-6

    @pytest.mark.parametrize("h", ["--h=0", "--h=-1e-3"])
    def test_nonpositive_step_is_numeric_failure(self, capsys, h):
        code = main(["conformal", "--cp", "cp2", h])
        assert code == 2
        assert "DomainError: step h must be positive" in capsys.readouterr().err

    def test_w_first_integral(self, capsys):
        code, out = run(capsys, "conformal", "--z", "1.1i")
        assert code == 0
        payload = json.loads(out)
        fi = complex(payload["first_integral"]["re"], payload["first_integral"]["im"])
        assert abs(fi - 0.25) < 1e-10

    def test_ah_limit_first_integral(self, capsys):
        code, out = run(capsys, "conformal", "--ah-z0", "3i", "--z", "1.1i")
        assert code == 0
        fi = json.loads(out)["first_integral"]
        assert complex(fi["re"], fi["im"]) == pytest.approx(0.25, abs=1e-12)


class TestBadNumbers:
    """Non-finite and overflowing input, and cutoffs or runs too large to
    finish, end with a typed message and exit 2 (1 for a malformed option),
    never in a traceback or a NaN payload."""

    @pytest.mark.parametrize("argv, code, message", [
        (["eisenstein", "--s", "2", "--tau", "nan+1i"], 2, "DomainError: tau must be finite"),
        (["eisenstein", "--s", "2", "--tau", "0.1+1e-300i"], 2, "DomainError: |q| must be < 1"),
        (["eisenstein", "--s", "nan", "--tau", "2i"], 2, "DomainError: s must be finite"),
        (["eisenstein", "--s", "inf", "--tau", "0.1+1.1i", "--both-methods"], 2,
         "DomainError: s must be finite"),
        (["amplitude", "--aps", "inf", "--apt", "0.2"], 2, "DomainError: alpha' s t u"),
        (["amplitude", "--aps", "1e300", "--apt", "0.2"], 2, "DomainError: alpha' s t u"),
        (["amplitude", "--aps", "nan", "--apt", "0.1", "--N", "5"], 2,
         "DomainError: alpha' s t u"),
        *[(["conformal", "--cp", "cp2", f"--{name}", value], 2, "DomainError: rho and eta must")
          for name in ("rho", "eta") for value in ("inf", "nan")],
        *[(["conformal", "--cp", "cp2", f"--{name}", "1e300"], 2, "DomainError: the residual")
          for name in ("rho", "eta")],
        (["graphd", "--mult", "nan,1,0,1,0,0", "--tau", "0.1+1.1i"], 1,
         "usage error: cannot parse integer multiplicities"),
        (["flow", "--init", "1,2,3", "--t0", "1", "--t1", "1e300"], 2,
         "NotConverged: step budget of 100000 spent at t = "),
        (["solve", "--init", "1e300,2,3", "--t0", "1", "--t1", "2"], 2,
         "StepUnderflow: first step is 0"),
        (["dsum", "--n", "2", "--tau", "2i", "--cutoff", "100000"], 2,
         "CutoffTooLarge: the momentum grid at R = 100000 would build an array of up to 149 GiB"),
        (["graphd", "--mult", "2,1,0,1,0,0", "--tau", "2i", "--cutoff", "2000"], 2,
         "CutoffTooLarge: the two-loop convolution at R = 2000"),
        (["dsum", "--n", "4", "--tau", "2i", "--cutoff", "3000"], 2,
         "CutoffTooLarge: the D_4 transform at R = 3000"),
        (["eisenstein", "--method", "lattice", "--s", "2", "--tau", "2i", "--cutoff", "100000"],
         2, "CutoffTooLarge: the lattice sum at R = 100000"),
        (["eisenstein", "--method", "lattice", "--s", "2000", "--tau", "2i"], 2,
         "DomainError: E_s overflows a float at s = 2000.0"),
        (["eisenstein", "--s", "2", "--tau", "1e300i"], 2,
         "DomainError: E_s overflows a float at s = 2.0"),
        (["amplitude", "--aps", "200", "--apt", "0.2"], 2,
         "DomainError: Gamma(201.0) overflows a float"),
        (["amplitude", "--aps", "1e-120", "--apt", "1e-100", "--form", "gamma"], 2,
         "DomainError: the amplitude at alpha' s = 1e-120, alpha' t = 1e-100 overflows a float"),
        (["curvature", "--taubnut", "0,-1e300"], 2,
         "DomainError: the curvature at Omega = "),
        (["curvature", "--taubnut", "0,-1e150"], 2,
         "DomainError: the curvature at T = 0.05 overflows a float"),
        (["dsum", "--n", "2", "--tau", "1e200i", "--cutoff", "4"], 2,
         "DomainError: D_2 at tau = 1e+200j overflows a float"),
        (["dsum", "--n", "4", "--tau", "1e120i", "--cutoff", "4"], 2,
         "DomainError: D_4 at tau = 1e+120j overflows a float"),
        (["graphd", "--mult", "1,1,0,1,0,0", "--tau", "1e200i", "--cutoff", "4"], 2,
         "DomainError: the graph sum (1, 1, 0, 1, 0, 0) at tau = 1e+200j overflows a float"),
        (["graphd", "--mult", "2,0,0,0,0,2", "--tau", "1e120i", "--cutoff", "4"], 2,
         "DomainError: the graph sum (2, 0, 0, 0, 0, 2) at tau = 1e+120j overflows a float"),
        (["flow", "--init", "1e-200,1e-200,1", "--t0", "1", "--t1", "2"], 2,
         "DomainError: the slice diagnostics at T = 1.0 leave the float range"),
        (["flow", "--init", "1e-160,1e-160,1e-160", "--t0", "1", "--t1", "2"], 2,
         "DomainError: the volume rate residual is not finite"),
        (["dsum", "--n", "3", "--tau", "1e200i", "--cutoff", "4"], 2,
         "DomainError: D_3 at tau = 1e+200j overflows a float"),
        (["graphd", "--mult", "1,1,1,1,1,0", "--tau", "1e200i"], 2,
         "DomainError: the graph sum (1, 1, 1, 1, 1, 0) at tau = 1e+200j overflows a float"),
        (["conformal", "--cp", "cp2", "--rho", "1", "--h", "1e-200"], 2,
         "DomainError: step h = 1e-200 is too small"),
        (["theta", "--classical", "3", "--z", "0.05i", "--v", "nan"], 2,
         "DomainError: theta needs a finite v"),
        (["theta", "--classical", "3", "--v", "20i", "--z", "1i"], 2,
         "DomainError: theta at v = 20j, tau = 1j overflows a float"),
        (["eisenstein", "--s", "0.5", "--tau", "2i"], 2, "PoleAtS: E_s at s = 1/2 is the limit"),
    ])
    def test_typed_failure(self, capsys, argv, code, message):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


class TestOutputs:
    def test_out_file_and_determinism(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            assert main([
                "eisenstein", "--s", "2", "--tau", "1.3i", "--out", str(p)
            ]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_closed_pipe_is_quiet(self, monkeypatch, tmp_path):
        # `halphen-lab flow ... | head -1`: the reader is gone, so writing
        # raises BrokenPipeError; main exits 1 with no traceback and points
        # stdout's descriptor at os.devnull for the flush at exit
        class ClosedPipe:
            def __init__(self, fd):
                self.fd = fd

            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

            def fileno(self):
                return self.fd

        with open(tmp_path / "stdout", "w") as fh:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
            code = main(["flow", "--init", "1,2,3", "--t1", "4"])
            assert code == 1
            devnull = os.stat(os.devnull)
            assert (os.fstat(fh.fileno()).st_ino, os.fstat(fh.fileno()).st_dev) == (
                devnull.st_ino, devnull.st_dev)

    @pytest.mark.parametrize("argv", [
        ["solve", "--halphen", "--t0", "1", "--t1", "3", "--samples", "20", "--format", "json"],
        ["curvature", "--taubnut", "0,-1", "--samples", "40"],
        ["flow", "--init", "1,2,3", "--t0", "1", "--t1", "3"],
        ["eisenstein", "--s", "2", "--tau", "0.2+1.1i", "--both-methods"],
        ["dsum", "--n", "2", "--tau", "1.1i", "--cutoff", "8"],
        ["graphd", "--mult", "2,1,0,1,0,0", "--tau", "1.1i", "--cutoff", "4"],
        ["amplitude", "--aps", "0.2", "--apt", "-0.3"],
        ["theta", "--classical", "3", "--z", "0.1+1.1i"],
        ["conformal", "--cp", "eisenstein"],
    ], ids=lambda argv: argv[0])
    def test_json_is_one_line(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("}\n")
        assert isinstance(json.loads(out), dict)

    def test_unknown_command_is_usage_error(self, capsys):
        code = main(["frobnicate"])
        assert code == 1


_SUBPARSERS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices


@pytest.mark.parametrize("name", sorted(_SUBPARSERS))
def test_every_flag_is_read(name):
    # no flag may silently do nothing: each option of a subcommand is read
    # as args.<dest> by its handler, and --out by main, which writes the payload
    sp = _SUBPARSERS[name]
    handler = inspect.getsource(sp.get_default("func"))
    reader = {"out": inspect.getsource(main)}
    unread = [
        a.option_strings[0]
        for a in sp._actions
        if a.dest != "help" and f"args.{a.dest}" not in reader.get(a.dest, handler)
    ]
    assert unread == []


class TestUnreadFlags:
    """A flag given but not read on the branch that the other arguments
    select is a usage error: exit 1, nothing written, the flag named."""

    @pytest.mark.parametrize("argv, flags", [
        ("curvature --taubnut 0,-1 --t0 5 --t1 50 --tol 1e-3", "--t0, --t1, --tol"),
        ("curvature --init 1,2,3 --samples 40", "--samples"),
        ("curvature --halphen --tol 1e-3", "--tol"),
        ("solve --init 1,2,3 --t0 1 --t1 2 --samples 7", "--samples"),
        ("solve --halphen --t0 1 --t1 2 --system dh", "--system"),
        ("solve --halphen --t0 1 --t1 2 --tol 1e-3", "--tol"),
        ("eisenstein --s 2 --tau 2i --cutoff 5", "--cutoff"),
        ("eisenstein --s 2 --tau 2i --both-methods --method lattice", "--method"),
        ("theta --classical 1 --vderiv --z 1i", "--vderiv"),
        ("theta --classical 3 --a 0.5 --z 1i", "--a"),
        ("conformal --cp cp2 --z 2i", "--z"),
        ("conformal --z 1.1i --rho 3", "--rho"),
        ("conformal --ah-z0 3i --a 0.4 --z 1.1i", "--a"),
        ("amplitude --aps 0.1 --apt 0.2 --form gamma --N 5", "--N"),
    ])
    def test_unread_flag_is_usage_error(self, capsys, argv, flags):
        assert main(argv.split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"usage error: not used with the other arguments: {flags}\n"

    def test_abbreviation_is_usage_error(self, capsys):
        assert main(["solve", "--halphen", "--t0", "1", "--t1", "2", "--samp", "5"]) == 1
        assert "usage error: unrecognized arguments: --samp 5" in capsys.readouterr().err

    def test_usage_error_writes_no_out_file(self, tmp_path):
        path = tmp_path / "e.json"
        assert main(["eisenstein", "--s", "2", "--tau", "2i", "--cutoff", "5",
                     "--out", str(path)]) == 1
        assert not path.exists()

    @pytest.mark.parametrize("name", sorted(_SUBPARSERS))
    def test_dest_is_the_long_option(self, name):
        # main maps each --name token of argv to the dest `name`, - read as _
        for a in _SUBPARSERS[name]._actions:
            if a.dest != "help":
                assert [s[2:].replace("-", "_") for s in a.option_strings] == [a.dest]


def _run_isolated(code):
    src = str(Path(halphen_lab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


_LOADED = (
    "import sys; from halphen_lab.cli import main; main({argv!r});"
    "print(sorted({{m.split('.')[0] for m in sys.modules}} & {{'numpy', 'scipy'}}))"
)


def test_cli_import_skips_numpy():
    out = _run_isolated("import sys, halphen_lab.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_cli_import_skips_json():
    out = _run_isolated("import sys, halphen_lab.cli; print('json' in sys.modules)")
    assert out.strip() == "False"


def test_dump_json_loads_no_numpy():
    out = _run_isolated(
        "import sys; from halphen_lab.errors import dump_json;"
        "dump_json({'a': [1.0, float('nan')], 'b': {'c': [[1, 2]], 'd': 'e'}});"
        "print('numpy' in sys.modules, 'json' in sys.modules)"
    )
    assert out.strip() == "False True"


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--classical", "3", "--z", "0.1+1.1i"],
        ["dsum", "--n", "3", "--tau", "1.1i", "--cutoff", "8"],
        ["graphd", "--mult", "1,1,1,1,1,0", "--tau", "1.1i", "--cutoff", "4"],
        ["amplitude", "--aps", "0.2", "--apt", "-0.3"],
        ["eisenstein", "--s", "2", "--tau", "1.1i", "--both-methods", "--cutoff", "8"],
        ["conformal", "--cp", "eisenstein"],
        ["curvature", "--taubnut", "0,-1", "--samples", "40"],
        pytest.param(["solve", "--init", "1,2,3", "--t0", "1", "--t1", "3"], id="solve-init"),
        pytest.param(["flow", "--init", "1,2,3", "--t0", "1", "--t1", "3"], id="flow"),
        pytest.param(
            ["curvature", "--init", "1,2,3", "--t0", "1", "--t1", "3"], id="curvature-init"
        ),
    ],
    ids=lambda argv: argv[0],
)
def test_subcommand_imports_no_scipy(argv):
    # theta needs only cmath, and D_3, C_2,2,1 and the tree amplitude only
    # math; the rest, ODE runs and lattice sums, need only numpy
    loaded = [] if argv[0] in ("theta", "dsum", "graphd", "amplitude") else ["numpy"]
    out = _run_isolated(_LOADED.format(argv=argv))
    assert out.splitlines()[-1] == str(loaded)


@pytest.mark.parametrize("module", ["maass", "amplitudes"])
def test_lattice_modules_import_no_numpy(module):
    out = _run_isolated(f"import sys, halphen_lab.{module}; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_integer_s_fourier_loads_no_numpy():
    # K_(s-1/2) comes in closed form at integer s; the table at s = 2.5 needs numpy
    for s, loaded in (("4", "[]"), ("2.5", "['numpy']")):
        argv = ["eisenstein", "--s", s, "--tau", "0.1+1.2i", "--method", "fourier"]
        assert _run_isolated(_LOADED.format(argv=argv)).splitlines()[-1] == loaded


def test_halphen_import_skips_scipy():
    out = _run_isolated("import sys, halphen_lab.halphen; print('scipy' in sys.modules)")
    assert out.strip() == "False"


def test_cli_import_skips_scipy_signal():
    out = _run_isolated("import sys, halphen_lab.cli; print('scipy.signal' in sys.modules)")
    assert out.strip() == "False"
