"""The four workloads: seeded inputs, the operations of one round, and the
checks of each operation's output against the oracles.

A round is a fixed list of operations built from the seed; a run repeats
whole rounds, so every run of a workload attempts the same operations on
the same inputs and its failure share does not depend on how long it runs.

This module imports neither ``halphen_lab`` nor the oracles at load time:
the cli-cold worker must not pay for them, and oracle work is never timed.
"""

from __future__ import annotations

import io
import json
import math
import random
import subprocess
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-cold", "bianchi", "lattice", "graphs")
REFS_PATH = Path(__file__).with_name("refs.json")

DIGITS_CAP = 15.0  # binary64 carries 15.95 decimal digits
ROUNDING = 1e-14  # relative rounding allowance added to every est_error

GRAPH_R = 20
LATTICE_R = 120
DN_CUTOFFS = (60, 120)
FIXED_TAU = 2j  # D_3 and D_4 inputs: their bars miss at every tau tried
MAASS_S = (1.5, 2.0, 2.5)
ODE_INPUTS = 3  # seeded initial data per DH and flow operation
C221, BANANA, C211 = (1, 1, 1, 1, 1, 0), (2, 0, 0, 0, 0, 2), (2, 1, 0, 1, 0, 0)


# ---------------------------------------------------------------------------
# checks


@dataclass
class Check:
    """One checked quantity.  Numeric checks carry value/oracle/tol (and
    the program's est_error when it reports one); property checks carry
    only ``ok``."""

    layer: str
    label: str
    value: float | None = None
    oracle: float | None = None
    tol: float | None = None
    est_error: float | None = None
    ok: bool | None = None
    scale: float | None = None  # what the error is relative to; default |oracle|

    def __post_init__(self):
        if self.ok is None:
            err = abs(self.value - self.oracle)
            self.ok = bool(err <= self.tol)

    @property
    def numeric(self) -> bool:
        return self.oracle is not None

    @property
    def error(self) -> float:
        return abs(self.value - self.oracle)

    @property
    def digits(self) -> float:
        rel = self.error / max(abs(self.oracle) if self.scale is None else self.scale, 1e-300)
        return DIGITS_CAP if rel == 0 else min(DIGITS_CAP, -math.log10(rel))

    @property
    def bar_ok(self) -> bool:
        if self.est_error is None:
            return True
        return self.error <= self.est_error + ROUNDING * abs(self.oracle)


def num(layer, label, value, oracle, rel=None, abs_=0.0, est_error=None):
    """Numeric check with tolerance abs_ + rel*|oracle|."""
    value, oracle = float(value), float(oracle)
    tol = abs_ + (rel or 0.0) * abs(oracle)
    return Check(layer, label, value, oracle, tol, est_error)


def cnum(layer, label, value, oracle, rel):
    """Complex values: real and imaginary parts against rel*max(1,|oracle|)."""
    value, oracle = complex(value), complex(oracle)
    scale = max(1.0, abs(oracle))
    return [
        Check(layer, label + ".re", value.real, oracle.real, rel * scale, scale=scale),
        Check(layer, label + ".im", value.imag, oracle.imag, rel * scale, scale=scale),
    ]


def prop(layer, label, ok):
    return Check(layer, label, ok=bool(ok))


# tolerances that follow each method's truncation rate, so that a more
# accurate result always passes


def dn_rel_tol(R, c):
    """Square-cutoff FFT and two-loop sums: c (1 + log R) / R^2, with c about
    four times the worst constant seen for that sum."""
    return c * (1.0 + math.log(R)) / R**2


DN_C = {2: 0.5, 3: 5.0, 4: 25.0}
GRAPH_C = {"C221": 0.05, "double_banana": 1.0, "C211": 1.0}


def lattice_tol(s, tau, R):
    """Lattice E_s with the continuum tail added: residual O(tail / R^2)."""
    y = complex(tau).imag
    tail = 2 * math.pi * y ** (s - 1) * R ** (2 - 2 * s) / (2 * s - 2)
    return 100.0 * tail / R**2


def ode_rel_tol(tol):
    """Adaptive RK45 at rtol = atol = tol: global error grows with the run."""
    return 1e4 * tol


# ---------------------------------------------------------------------------
# seeded inputs


def draw_tau(rng: random.Random, lo: float = 0.87, hi: float = 2.0) -> complex:
    """tau in the fundamental domain with lo <= Im tau <= hi, rounded to 6
    digits."""
    while True:
        x, y = round(rng.uniform(-0.5, 0.5), 6), round(rng.uniform(lo, hi), 6)
        if x * x + y * y >= 1:
            return complex(x, y)


def draw_triple(rng, lo=0.5, hi=2.0):
    return tuple(round(rng.uniform(lo, hi), 6) for _ in range(3))


def draw_kinematics(rng, n):
    """n points (alpha's, alpha't) with |s|, |t|, |u| in [0.05, 0.5]."""
    out = []
    while len(out) < n:
        s, t = round(rng.uniform(-0.45, 0.45), 6), round(rng.uniform(-0.45, 0.45), 6)
        if min(abs(s), abs(t), abs(s + t)) >= 0.05 and abs(s + t) <= 0.5:
            out.append((s, t))
    return out


def fmt_complex(z: complex) -> str:
    z = complex(z)
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


# ---------------------------------------------------------------------------
# operations


@dataclass
class Op:
    name: str
    run: object  # () -> result
    check: object  # (result) -> list[Check]


class Raised:
    """Stands in for the result of an operation that raised."""

    def __init__(self, exc):
        self.exc = exc

    def __repr__(self):
        return f"{type(self.exc).__name__}: {self.exc}"


def evaluate(op: Op, result) -> list:
    if isinstance(result, Raised):
        return [prop("ops", f"{op.name} raised {result!r}", False)]
    try:
        return op.check(result)
    except Exception as exc:  # a malformed output is a failed check, not a crash
        return [prop("ops", f"{op.name} check raised {type(exc).__name__}: {exc}", False)]


# -- bianchi --------------------------------------------------------------


def _geometry_of(traj, system, G):
    """Curvature at every sample, flags at the end, endpoint class."""
    decs = [G.curvature_decomp(tuple(row), system) for row in traj.Omega]
    flags = G.classify_geometry(decs[-1], tol=1e-8)
    endpoint = G.classify_endpoint(traj)
    return decs, flags, endpoint


def _self_dual(traj, decs) -> bool:
    """The anti-self-dual Weyl and the Ricci blocks vanish up to rounding,
    which the curvature formulas amplify by kappa^2, kappa = max|Omega| /
    min|Omega|."""
    for row, d in zip(traj.Omega, decs):
        kappa = max(abs(row)) / min(abs(row))
        scale = max(1.0, abs(d.scalar), *(abs(x) for x in d.weyl_plus))
        asd = max(abs(x) for x in d.weyl_minus + d.ricci_plus + d.ricci_minus)
        if asd > scale * max(1e-8, 10 * kappa**2 * 2.2e-16):
            return False
    return True


def _common_checks(name, res, expect_endpoint):
    return [
        prop("geometry.curvature", f"{name}: anti-self-dual Weyl and Ricci vanish",
             _self_dual(res["traj"], res["decs"])),
        prop("geometry.curvature", f"{name}: SelfDual flag", res["flags"]["SelfDual"]),
        prop("geometry.endpoint", f"{name}: endpoint {res['endpoint'].kind} == {expect_endpoint}",
             res["endpoint"].kind == expect_endpoint),
    ]


def bianchi_ops(seed: int):
    import numpy as np

    from halphen_lab import conformal as C
    from halphen_lab import flows as F
    from halphen_lab import geometry as G
    from halphen_lab import halphen as H

    rng = random.Random(seed)
    ops = []

    # closed-form Halphen sampling; T -> infinity is the Atiyah-Hitchin bolt.
    # Beyond T ~ 3.5 two components fall below 2e-4 and the curvature
    # formulas lose more digits than the 1e-8 flag tolerance allows.
    T0, T1 = round(rng.uniform(0.6, 1.0), 6), round(rng.uniform(2.5, 3.3), 6)

    def closed_form():
        T = np.linspace(T0, T1, 60)
        Om = np.array([H.halphen_closed_form_real(t).Omega for t in T])
        traj = H.Trajectory.from_samples("dh", T, Om)
        decs, flags, ep = _geometry_of(traj, "dh", G)
        return {"traj": traj, "decs": decs, "flags": flags, "endpoint": ep,
                "json": traj.to_json(), "endpoint_json": ep.to_json()}

    def check_closed_form(res):
        import oracles as O

        traj = res["traj"]
        out = []
        for i in range(0, len(traj.T), 6):
            ref = O.halphen_real(float(traj.T[i]))
            for k in range(3):
                out.append(num("halphen.closed_form", f"Omega{k + 1}(T={traj.T[i]:.4g})",
                               traj.Omega[i, k], ref[k], rel=1e-10))
        out += _common_checks("closed form", res, "bolt")
        out.append(prop("serialise", "closed form: JSON round trip",
                        json.loads(res["json"])["Omega"] == traj.Omega.tolist()))
        return out

    ops.append(Op("closed_form", closed_form, check_closed_form))

    # the complex closed form, checked as a DH solution through numdiff
    cz = complex(round(rng.uniform(-0.4, 0.4), 6), round(rng.uniform(0.8, 1.5), 6))

    def closed_form_complex():
        w = H.halphen_closed_form(cz)
        return {"omega": w.omega, "residual": H.dh_residual(H.halphen_closed_form, cz)}

    def check_closed_form_complex(res):
        import oracles as O

        out = []
        for k, ref in enumerate(O.halphen_complex(cz)):
            out += cnum("halphen.closed_form", f"omega{k + 1}({cz})", res["omega"][k], ref, 1e-10)
        out.append(Check("numdiff", "DH residual of the closed form", res["residual"], 0.0, 1e-6,
                         scale=1.0))
        return out

    ops.append(Op("closed_form_complex", closed_form_complex, check_closed_form_complex))

    # Darboux-Halphen from Taub-NUT data: exact solution, nut at T -> infinity.
    # Seeds move the data, not the span, so the work per round stays put.
    tn0 = round(rng.uniform(-0.5, 0.5), 6)
    tns = round(tn0 - rng.uniform(0.3, 2.0), 6)
    tna = tn0 + 1.0

    def taub_nut():
        traj = H.integrate("dh", H.taub_nut_family(tna, tn0, tns), tn0 + 40.0, tol=1e-10)
        decs, flags, ep = _geometry_of(traj, "dh", G)
        return {"traj": traj, "decs": decs, "flags": flags, "endpoint": ep,
                "csv": traj.to_csv(), "endpoint_json": ep.to_json()}

    def check_taub_nut(res):
        import oracles as O

        traj = res["traj"]
        out = []
        for i in range(0, len(traj.T), max(1, len(traj.T) // 12)):
            ref = O.taub_nut(float(traj.T[i]), tn0, tns)
            for k in range(3):
                out.append(num("halphen.integrate", f"TN Omega{k + 1}(T={traj.T[i]:.4g})",
                               traj.Omega[i, k], ref[k], rel=ode_rel_tol(1e-10)))
        out += _common_checks("Taub-NUT", res, "nut")
        last = res["csv"].strip().splitlines()[-1].split(",")
        out.append(prop("serialise", "Taub-NUT: CSV last row",
                        [float(x) for x in last[1:4]] == traj.Omega[-1].tolist()))
        return out

    ops.append(Op("taub_nut", taub_nut, check_taub_nut))

    # generic triaxial data: DH to the isotropic attractor, Lagrange to blowup.
    # The number of RK45 steps a DH run takes moves by +-15% with its data,
    # so the DH and flow operations each carry ODE_INPUTS solutions: a
    # seed then changes what an operation costs by half as much.
    dh_inits, lag_init = [draw_triple(rng) for _ in range(ODE_INPUTS)], draw_triple(rng)

    def dh():
        out = []
        for init in dh_inits:
            traj = H.integrate("dh", H.RealTriAxial(init, 1.0), 10.0, tol=1e-10)
            decs, flags, ep = _geometry_of(traj, "dh", G)
            out.append({"traj": traj, "decs": decs, "flags": flags, "endpoint": ep,
                        "json": traj.to_json(), "endpoint_json": ep.to_json()})
        return out

    def check_dh(results):
        import oracles as O

        out = []
        for init, res in zip(dh_inits, results, strict=True):
            traj = res["traj"]
            ref = O.ode_solution("dh", init, 1.0, float(traj.T[-1]))
            out += [num("halphen.integrate", f"DH{init} Omega{k + 1}(T_end)", traj.Omega[-1, k],
                        ref[k], rel=ode_rel_tol(1e-10)) for k in range(3)]
            out += _common_checks(f"DH triaxial {init}", res, "nut")
            out.append(prop("serialise", f"DH{init}: JSON round trip",
                            json.loads(res["json"])["Omega"] == traj.Omega.tolist()))
        return out

    ops.append(Op("dh_triaxial", dh, check_dh))

    def lagrange():
        traj = H.integrate("lagrange", H.RealTriAxial(lag_init, 1.0), 10.0, tol=1e-9)
        decs, flags, ep = _geometry_of(traj, "lagrange", G)
        return {"traj": traj, "decs": decs, "flags": flags, "endpoint": ep,
                "csv": traj.to_csv(), "endpoint_json": ep.to_json()}

    def check_lagrange(res):
        import oracles as O

        traj = res["traj"]
        i = int(np.argmax(np.max(np.abs(traj.Omega), axis=1) >= 10.0))
        ref = O.ode_solution("lagrange", lag_init, 1.0, float(traj.T[i]))
        out = [num("halphen.integrate", f"Lagrange Omega{k + 1}(|Omega|=10)", traj.Omega[i, k],
                   ref[k], rel=ode_rel_tol(1e-9)) for k in range(3)]
        out.append(prop("halphen.integrate", "Lagrange: stops on blowup", traj.reason == "blowup"))
        out += _common_checks("Lagrange", res, "nut")
        return out

    ops.append(Op("lagrange", lagrange, check_lagrange))

    # Ricci-flow diagnostics along DH runs
    flow_inits = [draw_triple(rng) for _ in range(ODE_INPUTS)]
    flow_end = 8.0

    def flow():
        out = []
        for init in flow_inits:
            run = F.flow_run(H.RealTriAxial(init, 1.0), flow_end, tol=1e-10)
            out.append({"run": run, "residual": F.volume_rate_check(run), "json": run.to_json()})
        return out

    def check_flow(results):
        import oracles as O

        out = []
        for init, res in zip(flow_inits, results, strict=True):
            run = res["run"]
            ref = O.ode_solution("dh", init, 1.0, float(run.traj.T[-1]))
            vol = abs(ref[0] * ref[1] * ref[2]) ** 0.25
            out += [
                num("flows", f"flow{init}: slice volume at T_end", run.volume[-1], vol,
                    rel=ode_rel_tol(1e-10)),
                prop("flows", f"flow{init}: dV/dt = -V Rbar/2 residual {res['residual']:.2e} <= 1e-2",
                     res["residual"] <= 1e-2),
                prop("serialise", f"flow{init}: JSON round trip",
                     json.loads(res["json"])["volume"] == run.volume.tolist()),
            ]
        return out

    ops.append(Op("flow", flow, check_flow))

    # conformal w-values and the harmonic-potential candidates
    wa, wb = round(rng.uniform(0.1, 0.9), 6), round(rng.uniform(0.1, 0.9), 6)
    wz = complex(round(rng.uniform(-0.3, 0.3), 6), round(rng.uniform(0.9, 1.6), 6))
    # a fixed point: the finite-difference residual there would otherwise
    # move accuracy_digits by +-0.4 from seed to seed
    rho, eta = 2.0, 0.25
    candidates = (("cp2", C.cp_f_cp2), ("heisenberg", C.cp_f_heisenberg),
                  ("eisenstein", C.cp_f_eisenstein))

    def conformal():
        w = C.w_theta_solution(wa, wb, wz)
        fi = C.first_integral(w.w)
        res = {name: C.cp_harmonic_check(make(), rho, eta, 1e-3) for name, make in candidates}
        text = json.dumps({"w": [[c.real, c.imag] for c in w.w], "first_integral": [fi.real, fi.imag],
                           "residuals": res}, sort_keys=True)
        return {"w": w.w, "fi": fi, "residuals": res, "json": text}

    def check_conformal(res):
        import oracles as O

        out = cnum("conformal", "w-system first integral", res["fi"], O.W_FIRST_INTEGRAL, 1e-10)
        for k, ref in enumerate(O.w_theta(wa, wb, wz)):
            out += cnum("conformal", f"w{k + 1}", res["w"][k], ref, 1e-10)
        for name, r in res["residuals"].items():
            # the residual is |rho^2 Delta F - 3/4 F| / |F|: its oracle is 0
            out.append(Check("numdiff", f"rho^2 Delta F = 3/4 F ({name})", r, 0.0, 1e-6, scale=1.0))
        out.append(prop("serialise", "conformal: JSON",
                        json.loads(res["json"])["residuals"] == res["residuals"]))
        return out

    ops.append(Op("conformal", conformal, check_conformal))
    return ops


# -- lattice --------------------------------------------------------------


def lattice_ops(seed: int):
    from halphen_lab import amplitudes as A
    from halphen_lab import maass as M
    from halphen_lab.modforms import ModularPoint

    rng = random.Random(seed)
    ops = []
    spec = M.LatticeSumSpec(R=LATTICE_R)
    # a lattice sum's cost grows steeply as Im tau falls (3x across the
    # range), so each s gets its tau from another third of the range: the
    # work in a round then hardly depends on the seed
    taus = [draw_tau(rng, lo, hi) for lo, hi in ((0.87, 1.25), (1.25, 1.62), (1.62, 2.0))]
    rng.shuffle(taus)
    for s, tau in zip(MAASS_S, taus, strict=True):

        def lattice(s=s, tau=tau):
            return M.eisenstein_lattice(s, tau, spec)

        def fourier(s=s, tau=tau):
            return M.eisenstein_fourier(s, tau)

        def check_lattice(v, s=s, tau=tau):
            import oracles as O

            return [num("maass.lattice", f"E_{s}({tau}) lattice R={LATTICE_R}", v.value,
                        O.eisenstein(s, tau), abs_=lattice_tol(s, tau, LATTICE_R),
                        rel=ROUNDING, est_error=v.est_error)]

        def check_fourier(v, s=s, tau=tau):
            import oracles as O

            return [num("maass.fourier", f"E_{s}({tau}) Fourier", v.value, O.eisenstein(s, tau),
                        rel=1e-12, est_error=v.est_error)]

        ops.append(Op(f"eisenstein_lattice_s{s}", lattice, check_lattice))
        ops.append(Op(f"eisenstein_fourier_s{s}", fourier, check_fourier))

    d2_tau = draw_tau(rng)
    for n, tau in ((2, d2_tau), (3, FIXED_TAU), (4, FIXED_TAU)):
        for R in DN_CUTOFFS:
            def dn(n=n, tau=tau, R=R):
                return A.kronecker_eisenstein_Dn(n, ModularPoint(tau), M.LatticeSumSpec(R=R))

            def check_dn(v, n=n, tau=tau, R=R):
                import oracles as O

                ref = {2: O.d2, 3: O.d3, 4: lambda t: O.reference("d4", t)}[n](tau)
                return [num("amplitudes.dn", f"D_{n}({tau}) R={R}", v.value, ref,
                            rel=dn_rel_tol(R, DN_C[n]), est_error=v.est_error)]

            ops.append(Op(f"D{n}_R{R}", dn, check_dn))

    kin = draw_kinematics(rng, 16)

    def tree_gamma():
        return [A.tree_amplitude_gamma(A.Mandelstam(s, t)) for s, t in kin]

    def tree_series():
        return [A.tree_amplitude_series(A.Mandelstam(s, t), 20) for s, t in kin]

    def check_tree(values, rel):
        import oracles as O

        return [num("amplitudes.tree", f"A_tree({s}, {t})", v, O.tree_gamma(s, t), rel=rel)
                for v, (s, t) in zip(values, kin)]

    ops.append(Op("tree_gamma", tree_gamma, lambda v: check_tree(v, 1e-12)))
    ops.append(Op("tree_series", tree_series, lambda v: check_tree(v, 1e-11)))
    return ops


# -- graphs ---------------------------------------------------------------


def graphs_ops(seed: int):
    from halphen_lab import amplitudes as A
    from halphen_lab import maass as M
    from halphen_lab.modforms import ModularPoint

    rng = random.Random(seed)
    pool = [complex(*row["tau"]) for row in json.loads(REFS_PATH.read_text())["c211"]]
    cases = (
        ("C221", C221, draw_tau(rng), "c221"),
        ("double_banana", BANANA, draw_tau(rng), "double_banana"),
        ("C211", C211, pool[rng.randrange(len(pool))], "c211"),
    )
    ops = []
    spec = M.LatticeSumSpec(R=GRAPH_R)
    for name, mult, tau, oracle in cases:
        def run(mult=mult, tau=tau):
            return A.graph_D(A.GraphMultiplicities(mult), ModularPoint(tau), spec)

        def check(v, name=name, tau=tau, oracle=oracle):
            import oracles as O

            ref = O.reference("c211", tau) if oracle == "c211" else getattr(O, oracle)(tau)
            return [num("amplitudes.graph", f"{name}({tau}) R={GRAPH_R}", v.value, ref,
                        rel=dn_rel_tol(GRAPH_R, GRAPH_C[name]), est_error=v.est_error)]

        ops.append(Op(name, run, check))
    return ops


# -- cli ------------------------------------------------------------------


def cli_argvs(seed: int):
    """The nine subcommands with light, valid, seeded arguments.  Returns
    (name, argv, check(stdout_text)) triples."""
    rng = random.Random(seed)
    out = []

    solve_init, solve_t1 = draw_triple(rng), round(rng.uniform(3.0, 6.0), 6)

    def check_solve(text):
        import oracles as O

        rows = text.strip().splitlines()
        last = [float(x) for x in rows[-1].split(",")]
        ref = O.ode_solution("dh", solve_init, 1.0, last[0])
        return [num("halphen.integrate", f"solve Omega{k + 1}(T_end)", last[1 + k], ref[k],
                    rel=ode_rel_tol(1e-10)) for k in range(3)] + [
            prop("serialise", "solve: CSV header and rows", rows[0].startswith("T,Omega1") and len(rows) > 10)]

    out.append((["solve", "--init=" + ",".join(map(repr, solve_init)), "--t0=1",
                 f"--t1={solve_t1!r}", "--tol=1e-10"], check_solve))

    tn0 = round(rng.uniform(-0.5, 0.5), 6)
    tns = round(tn0 - rng.uniform(0.3, 2.0), 6)

    def check_curvature(text):
        rep = json.loads(text)
        worst = max(s["wminus_norm"] / max(1.0, s["wplus_norm"]) for s in rep["samples"])
        ricci = max(s["ricci_norm"] / max(1.0, s["wplus_norm"]) for s in rep["samples"])
        return [
            prop("geometry.curvature", f"curvature: Taub-NUT is self-dual ({worst:.1e}, {ricci:.1e})",
                 worst <= 1e-8 and ricci <= 1e-8 and rep["flags"]["SelfDual"]),
            prop("geometry.endpoint", f"curvature: endpoint {rep['endpoint'].get('kind')} == nut",
                 rep["endpoint"].get("kind") == "nut"),
        ]

    out.append((["curvature", f"--taubnut={tn0!r},{tns!r}", "--samples=80"], check_curvature))

    flow_init, flow_t1 = draw_triple(rng), round(rng.uniform(4.0, 8.0), 6)

    def check_flow(text):
        import oracles as O

        rep = json.loads(text)
        ref = O.ode_solution("dh", flow_init, 1.0, rep["T"][-1])
        vol = abs(ref[0] * ref[1] * ref[2]) ** 0.25
        return [
            num("flows", "flow: slice volume at T_end", rep["volume"][-1], vol, rel=ode_rel_tol(1e-10)),
            prop("flows", "flow: volume rate residual <= 1e-2", rep["volume_rate_residual"] <= 1e-2),
        ]

    out.append((["flow", "--init=" + ",".join(map(repr, flow_init)), "--t0=1",
                 f"--t1={flow_t1!r}"], check_flow))

    es, etau = rng.choice(MAASS_S), draw_tau(rng)

    def check_eisenstein(text):
        import oracles as O

        rep = json.loads(text)
        ref = O.eisenstein(es, etau)
        lat, four = rep["lattice"], rep["fourier"]
        return [
            num("maass.lattice", f"cli E_{es} lattice", lat["value"], ref, rel=ROUNDING,
                abs_=lattice_tol(es, etau, LATTICE_R), est_error=lat["est_error"]),
            num("maass.fourier", f"cli E_{es} Fourier", four["value"], ref, rel=1e-12,
                est_error=four["est_error"]),
        ]

    out.append((["eisenstein", f"--s={es!r}", "--tau=" + fmt_complex(etau), "--both-methods"],
                check_eisenstein))

    dtau = draw_tau(rng)

    def check_dsum(text):
        import oracles as O

        rep = json.loads(text)
        return [num("amplitudes.dn", "cli D_2 R=60", rep["value"], O.d2(dtau), rel=dn_rel_tol(60, DN_C[2]),
                    est_error=rep["est_error"])]

    out.append((["dsum", "--n=2", "--tau=" + fmt_complex(dtau), "--cutoff=60"], check_dsum))

    gtau = draw_tau(rng)

    def check_graphd(text):
        import oracles as O

        rep = json.loads(text)
        return [num("amplitudes.graph", "cli C_221 R=8", rep["value"], O.c221(gtau), rel=dn_rel_tol(8, GRAPH_C["C221"]),
                    est_error=rep["est_error"])]

    out.append((["graphd", "--mult=" + ",".join(map(str, C221)), "--tau=" + fmt_complex(gtau),
                 "--cutoff=8"], check_graphd))

    (ks, kt), = draw_kinematics(rng, 1)

    def check_amplitude(text):
        import oracles as O

        rep = json.loads(text)
        ref = O.tree_gamma(ks, kt)
        return [num("amplitudes.tree", "cli tree gamma", rep["gamma"], ref, rel=1e-12),
                num("amplitudes.tree", "cli tree series", rep["series"], ref, rel=1e-11)]

    out.append((["amplitude", f"--aps={ks!r}", f"--apt={kt!r}", "--N=20"], check_amplitude))

    tj = rng.randint(1, 4)
    tv = complex(round(rng.uniform(-0.3, 0.3), 6), round(rng.uniform(-0.2, 0.2), 6))
    tz = draw_tau(rng)

    def check_theta(text):
        import oracles as O

        rep = json.loads(text)
        return cnum("modforms", f"cli theta_{tj}", complex(rep["re"], rep["im"]),
                    O.theta(tj, tv, tz), 1e-10)

    out.append((["theta", f"--classical={tj}", "--v=" + fmt_complex(tv), "--z=" + fmt_complex(tz)],
                check_theta))

    rho, eta = round(rng.uniform(1.3, 3.0), 6), round(rng.uniform(-0.5, 0.5), 6)

    def check_conformal(text):
        rep = json.loads(text)
        # the residual is |rho^2 Delta F - 3/4 F| / |F| for F = E_3/2: its oracle is 0
        return [Check("numdiff", "cli rho^2 Delta F = 3/4 F (eisenstein)", rep["residual"], 0.0, 1e-6,
                      scale=1.0)]

    out.append((["conformal", "--cp=eisenstein", f"--rho={rho!r}", f"--eta={eta!r}"],
                check_conformal))
    return [(argv[0], argv, check) for argv, check in out]


def _cli_check(check):
    def run_check(result):
        code, text, err = result
        if code != 0:
            return [prop("cli", f"exit code {code}: {err.strip()[-200:]}", False)]
        return check(text)

    return run_check


def cli_cold_ops(seed: int, python: str, env: dict):
    """Each operation starts a fresh `python -m halphen_lab.cli`."""
    ops = []
    for name, argv, check in cli_argvs(seed):
        def run(argv=argv):
            p = subprocess.run([python, "-m", "halphen_lab.cli", *argv], env=env,
                               capture_output=True, text=True, timeout=120)
            return p.returncode, p.stdout, p.stderr

        ops.append(Op(name, run, _cli_check(check)))
    return ops


def cli_warm_ops(seed: int):
    """The same subcommands through ``main(argv)`` in this process."""
    from halphen_lab.cli import main

    ops = []
    for name, argv, check in cli_argvs(seed):
        def run(argv=argv):
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = main(list(argv))
            return code, buf.getvalue(), ""

        ops.append(Op(name, run, _cli_check(check)))
    return ops


def build_ops(workload: str, seed: int):
    if workload == "bianchi":
        return bianchi_ops(seed)
    if workload == "lattice":
        return lattice_ops(seed)
    if workload == "graphs":
        return graphs_ops(seed)
    raise ValueError(workload)
