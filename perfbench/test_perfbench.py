"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py     # about two minutes

* every check rejects a deliberately perturbed output, so none is vacuous;
* every oracle reproduces a known identity or an independent evaluation;
* a short pass of each workload runs to its end and prints the metrics
  BENCHMARK.json names.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import make_refs  # noqa: E402
import oracles as O  # noqa: E402
import workloads as W  # noqa: E402

SEED = 3
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _ok(op, result):
    checks = W.evaluate(op, result)
    return all(c.ok for c in checks), all(c.bar_ok for c in checks)


def _op(ops, name):
    return next(op for op in ops if op.name == name)


# ---------------------------------------------------------------------------
# perturbed outputs fail


@pytest.fixture(scope="module")
def lattice_ops():
    return W.lattice_ops(SEED)


@pytest.mark.parametrize("name,factor", [
    ("eisenstein_lattice_s2.0", 1 + 1e-5),
    ("eisenstein_fourier_s1.5", 1 + 1e-10),
    ("D2_R120", 1 + 1e-2),
    ("D4_R60", 1 + 0.05),
])
def test_perturbed_lattice_value_fails(lattice_ops, name, factor):
    op = _op(lattice_ops, name)
    v = op.run()
    assert _ok(op, v)[0]
    assert not _ok(op, dataclasses.replace(v, value=v.value * factor))[0]


def test_perturbed_tree_amplitude_fails(lattice_ops):
    for name in ("tree_gamma", "tree_series"):
        op = _op(lattice_ops, name)
        values = op.run()
        assert _ok(op, values) == (True, True)
        values[5] *= 1 + 1e-9
        assert not _ok(op, values)[0]


def test_bar_miss_is_a_failure_but_not_a_wrong_value(lattice_ops):
    op = _op(lattice_ops, "D2_R60")
    v = op.run()
    ok, bar_ok = _ok(op, dataclasses.replace(v, est_error=0.0))
    assert ok and not bar_ok
    # D_3 at tau = 2i: the program's bar under-reports (kept failure)
    assert _ok(_op(lattice_ops, "D3_R120"), _op(lattice_ops, "D3_R120").run()) == (True, False)


def test_rounding_allowance_is_relative_to_binary64():
    c = W.num("maass.fourier", "x", 1.0 + 5e-15, 1.0, rel=1e-12, est_error=0.0)
    assert c.ok and c.bar_ok
    c = W.num("maass.fourier", "x", 1.0 + 1e-13, 1.0, rel=1e-12, est_error=0.0)
    assert c.ok and not c.bar_ok


def test_perturbed_graph_value_fails():
    for op in W.graphs_ops(SEED):
        v = op.run()
        assert _ok(op, v) == (True, True)
        assert not _ok(op, dataclasses.replace(v, value=v.value * 1.03))[0]


@pytest.fixture(scope="module")
def bianchi():
    ops = W.bianchi_ops(SEED)
    return ops, {op.name: op.run() for op in ops}


def _edited(results, name, edit):
    """A copy of an operation's result with ``edit`` applied to it, or to
    the last solution of an operation that carries several."""
    res = results[name]
    one = dict(res[-1] if isinstance(res, list) else res)
    edit(one)
    return [*res[:-1], one] if isinstance(res, list) else one


def test_bianchi_outputs_pass(bianchi):
    ops, results = bianchi
    for op in ops:
        assert _ok(op, results[op.name]) == (True, True), op.name


@pytest.mark.parametrize("name", ["closed_form", "taub_nut", "dh_triaxial", "lagrange"])
def test_perturbed_trajectory_fails(bianchi, name):
    ops, results = bianchi

    def edit(res):
        traj = dataclasses.replace(res["traj"], Omega=res["traj"].Omega.copy())
        i = 0 if name in ("closed_form", "taub_nut") else -1
        if name == "lagrange":
            i = int((abs(traj.Omega).max(axis=1) >= 10).argmax())
        traj.Omega[i, 1] *= 1 + 1e-4
        res["traj"] = traj

    assert not _ok(_op(ops, name), _edited(results, name, edit))[0]


def test_wrong_endpoint_or_flag_fails(bianchi):
    ops, results = bianchi
    res = dict(results["taub_nut"])
    res["endpoint"] = dataclasses.replace(res["endpoint"], kind="bolt")
    assert not _ok(_op(ops, "taub_nut"), res)[0]
    res = _edited(results, "dh_triaxial",
                  lambda r: r.update(flags={**r["flags"], "SelfDual": False}))
    assert not _ok(_op(ops, "dh_triaxial"), res)[0]


def test_perturbed_flow_and_conformal_fail(bianchi):
    ops, results = bianchi
    res = _edited(results, "flow", lambda r: r.update(residual=0.5))
    assert not _ok(_op(ops, "flow"), res)[0]
    res = dict(results["conformal"])
    res["fi"] = res["fi"] + 1e-8
    assert not _ok(_op(ops, "conformal"), res)[0]
    res = dict(results["conformal"])
    res["residuals"] = {**res["residuals"], "cp2": 1e-3}
    assert not _ok(_op(ops, "conformal"), res)[0]


BREAK = {
    "flow": lambda o: o["volume"].__setitem__(-1, o["volume"][-1] * (1 + 1e-5)),
    "eisenstein": lambda o: o["fourier"].__setitem__("value", o["fourier"]["value"] * (1 + 1e-10)),
    "dsum": lambda o: o.__setitem__("value", o["value"] * 1.01),
    "graphd": lambda o: o.__setitem__("value", o["value"] * 1.01),
    "amplitude": lambda o: o.__setitem__("gamma", o["gamma"] * (1 + 1e-9)),
    "theta": lambda o: o.__setitem__("re", o["re"] + 1e-8),
    "conformal": lambda o: o.__setitem__("residual", 1e-3),
    "curvature": lambda o: o["endpoint"].__setitem__("kind", "bolt"),
}


def _break(name, text):
    """The output of subcommand ``name`` with one checked field spoiled."""
    if name == "solve":
        rows = text.strip().splitlines()
        cells = rows[-1].split(",")
        cells[1] = repr(float(cells[1]) * (1 + 1e-5))
        return "\n".join(rows[:-1] + [",".join(cells)]) + "\n"
    obj = json.loads(text)
    BREAK[name](obj)
    return json.dumps(obj)


def test_cli_outputs_pass_and_perturbed_fail():
    ops = W.cli_warm_ops(SEED)
    assert [op.name for op in ops] == ["solve", "curvature", "flow", "eisenstein", "dsum",
                                       "graphd", "amplitude", "theta", "conformal"]
    for op in ops:
        code, text, err = op.run()
        assert _ok(op, (code, text, err)) == (True, True), op.name
        assert not _ok(op, (1, text, "usage error"))[0]
        assert not _ok(op, (0, _break(op.name, text), ""))[0], op.name


# ---------------------------------------------------------------------------
# oracles reproduce known values


def test_eisenstein_at_i():
    # sum' 1/|m + n i|^4 = 4 zeta(2) beta(2), beta(2) = Catalan's constant
    assert O.eisenstein(2.0, 1j) == pytest.approx(4 * float(mp.zeta(2) * mp.catalan), rel=1e-14)


def test_eisenstein_against_brute_force_lattice_sum():
    import numpy as np

    tau, s, R = 0.31 + 1.17j, 3.0, 400
    m = np.arange(-R, R + 1)
    M, N = np.meshgrid(m, m, indexing="ij")
    p2 = np.abs(M + N * tau) ** 2
    direct = math.fsum((tau.imag**s / p2[p2 > 0] ** s).ravel())
    assert O.eisenstein(s, tau) == pytest.approx(direct, rel=1e-8)
    assert O.eisenstein(s, tau) == pytest.approx(O.eisenstein(s, -1 / (tau + 2)), rel=1e-14)


def test_theta_identities_and_branch():
    tau = 3.7 + 0.2j
    with mp.workdps(O.DPS):
        t2, t3, t4 = (O.theta(j, 0, tau) for j in (2, 3, 4))
        assert abs(t3**4 - t2**4 - t4**4) < 1e-25 * abs(t3) ** 4
        # theta_2(tau + 1) = exp(i pi/4) theta_2(tau): no branch flip
        assert abs(O.theta(2, 0, tau + 1) / t2 - mp.exp(1j * mp.pi / 4)) < 1e-25
        # Jacobi: theta_1'(0) = pi theta_2 theta_3 theta_4, where theta[1;1]
        # = -theta_1 in the characteristic convention
        d1 = O.theta_char(1, 1, 0, tau, deriv=True)
        assert abs(d1 + mp.pi * t2 * t3 * t4) < 1e-25 * abs(d1)


def test_e2_at_i():
    with mp.workdps(O.DPS):
        assert abs(O.e2_holo(1j) - 3 / mp.pi) < 1e-25


def test_closed_form_and_taub_nut_solve_darboux_halphen():
    z, h = mp.mpc(0.2, 1.1), mp.mpf("1e-6")
    with mp.workdps(O.DPS):
        w = O.halphen_complex(z)
        f = [O.halphen_complex(z + k * h) for k in (-2, -1, 1, 2)]
        for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            dw = (f[0][i] - 8 * f[1][i] + 8 * f[2][i] - f[3][i]) / (12 * h)
            assert abs(dw - (w[j] * w[k] - w[i] * (w[j] + w[k]))) < 1e-18
    T0, Ts = 0.2, -0.7
    sol = O.ode_solution("dh", O.taub_nut(1.5, T0, Ts), 1.5, 4.0)
    assert sol == pytest.approx(O.taub_nut(4.0, T0, Ts), rel=1e-14)


def test_w_system_first_integral():
    w1, w2, w3 = O.w_theta(0.3, 0.7, 0.1 + 1.2j)
    assert abs(w1 * w1 - w2 * w2 + w3 * w3 - O.W_FIRST_INTEGRAL) < 1e-14


def test_tree_amplitude_low_energy_limit():
    s, t = 1e-3, 2e-3
    u = -s - t
    expected = math.exp(-2 * float(mp.zeta(3)) * s * t * u) / (s * t * u)
    assert O.tree_gamma(s, t) == pytest.approx(expected, rel=1e-10)
    assert O.tree_gamma(s, t) == pytest.approx(O.tree_gamma(t, s), rel=1e-15)


def test_lattice_sum_closed_forms_against_fft():
    tau = 0.2 + 1.3j
    assert make_refs.extrapolate(lambda R: make_refs.three_edge(tau, R, 1, 1, 1)) == pytest.approx(
        O.d3(tau), rel=1e-6)
    assert make_refs.extrapolate(lambda R: make_refs.three_edge(tau, R, 2, 2, 1)) == pytest.approx(
        O.c221(tau), rel=1e-8)
    W2 = make_refs.weight_grid(tau, 512)
    assert float((W2 * W2).sum()) ** 2 == pytest.approx(O.double_banana(tau), rel=1e-5)


def test_stored_references_reproduce():
    tau = complex(*json.loads(O.REFS_PATH.read_text())["c211"][0]["tau"])
    fresh = make_refs.extrapolate(lambda R: make_refs.three_edge(tau, R, 2, 1, 1))
    assert O.reference("c211", tau) == pytest.approx(fresh, rel=1e-12)
    assert O.reference("d4", 2j) == pytest.approx(
        make_refs.extrapolate(lambda R: make_refs.d4_sum(2j, R)), rel=1e-12)


# ---------------------------------------------------------------------------
# short passes of the runner


def _run(*args, cwd=ROOT):
    p = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                       cwd=cwd, capture_output=True, text=True, timeout=170)
    return p


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_short_pass(workload):
    p = _run("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["attempted"] >= (18 if workload == "cli-cold" else 1)  # cli-cold: two rounds
    expected_fail_share = 4 / 14 if workload == "lattice" else 0
    assert res["failed"] / res["attempted"] == expected_fail_share
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_sustained_time_stays_at_the_usual_speed():
    import run

    usual, burst = [10.0] * 4, [6.0] * 6  # fast bursts in six rounds of ten
    assert run.sustained(burst + usual) == 10.0
    assert run.sustained([7.0]) == 7.0


def test_traced_pass_reports_every_layer_metric():
    p = _run("--workload", "lattice", "--seed", "5", "--seconds", "1", "--trace", "1")
    assert p.returncode == 0, p.stderr
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert res["correct"] is True
    assert res["failed"] / res["attempted"] == 4 / 14
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["per_layer"]}
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["amplitudes.bar_misses"] >= 4 and m["maass.bar_misses"] == 0
    assert 0 < m["maass.lattice.kept_ratio"] < 1
    assert m["amplitudes.graph.summands"] == 17**4  # the cli graphd probe, R = 8


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    p = _run("--workload", "lattice", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert p.returncode != 0
    assert p.stdout.strip() == ""
