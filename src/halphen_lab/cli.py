"""Batch command-line front end.

Every computation is exposed through a subcommand with machine-readable
output (JSON by default, CSV for trajectories).  Exit codes: 0 success,
1 usage error or an output pipe closed by its reader (`... | head -1`),
2 numeric/integration failure.  A flag that the other arguments leave
unused is a usage error, and no output is written.  Complex literals are
written `a+bi` (e.g. `0+1i`, `1.3i`, `0.3+0.2i`).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import DomainError, HalphenLabError, dump_json
from .modforms import ModularPoint, ThetaChar


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems with exit code 1 and
    takes no abbreviation, so each `--name` token names one option."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def parse_complex(text: str) -> complex:
    """Parse `a+bi` literals (also bare reals and `bi`)."""
    try:
        return complex(text.strip().replace("i", "j"))
    except ValueError:
        raise _UsageError(f"cannot parse complex literal {text!r}")


def parse_floats(text: str, count: int):
    parts = text.split(",")
    if len(parts) != count:
        raise _UsageError(f"expected {count} comma-separated values, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"cannot parse {count} numbers from {text!r}")


def parse_triple(text: str):
    return parse_floats(text, 3)


def _int_at_least(lo: int):
    """argparse type for an integer option with a lower bound."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


class _Reads:
    """The parsed arguments, recording the name of each one read."""

    def __init__(self, args):
        self._args = args
        self.read = set()

    def __getattr__(self, name):
        self.read.add(name)
        return getattr(self._args, name)


def _emit(payload, out_path):
    text = payload if isinstance(payload, str) else dump_json(payload)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# subcommands


def _closed_form_trajectory(t0, t1, samples):
    """The real Halphen solution sampled at `samples` evenly spaced T."""
    import numpy as np

    from .halphen import Trajectory, halphen_closed_form_real

    T = np.linspace(t0, t1, samples)
    Om = np.array([halphen_closed_form_real(t).Omega for t in T])
    return Trajectory.from_samples("dh", T, Om, meta={"source": "halphen-closed-form"})


def _cmd_solve(args):
    from .halphen import RealTriAxial, integrate

    if args.halphen:
        traj = _closed_form_trajectory(args.t0, args.t1, args.samples)
    else:
        init = RealTriAxial(parse_triple(args.init), args.t0)
        traj = integrate(args.system, init, args.t1, tol=args.tol,
                         stop_on_root=not args.no_stop_on_root)
    return traj.to_csv() if args.format == "csv" else traj.to_json()


def _cmd_curvature(args):
    import numpy as np

    from . import geometry
    from .halphen import RealTriAxial, Trajectory, integrate, taub_nut_family

    if args.halphen:
        traj = _closed_form_trajectory(args.t0, args.t1, args.samples)
        system = "dh"
    elif args.taubnut is not None:
        T0, Tstar = parse_floats(args.taubnut, 2)
        lo = max(T0, Tstar)
        T = lo + np.geomspace(0.05, 60.0, args.samples)
        Om = np.array([taub_nut_family(t, T0, Tstar).Omega for t in T])
        traj = Trajectory.from_samples("dh", T, Om)
        system = "dh"
    else:
        init = RealTriAxial(parse_triple(args.init), args.t0)
        traj = integrate(args.system, init, args.t1, tol=args.tol)
        system = args.system

    decs = [geometry.curvature_decomp(row, system) for row in traj.Omega.tolist()]
    rows = [
        {
            "T": float(T),
            "wplus_norm": float(max(abs(x) for x in d.weyl_plus)),
            "wminus_norm": float(max(abs(x) for x in d.weyl_minus)),
            "ricci_norm": float(max(abs(x) for x in d.ricci_plus + d.ricci_minus)),
            "scalar": float(abs(d.scalar)),
        }
        for T, d in zip(traj.T, decs)
    ]
    for row in rows:
        # the curvature products overflow to inf without raising
        if not all(map(math.isfinite, row.values())):
            raise DomainError(f"the curvature at T = {row['T']} overflows a float")
    report = {
        "system": system,
        "samples": rows,
        "flags": geometry.classify_geometry(decs[-1], tol=1e-8),
    }
    try:
        report["endpoint"] = vars(geometry.classify_endpoint(traj))
    except HalphenLabError as exc:
        report["endpoint"] = {"error": str(exc)}
    return report


def _cmd_flow(args):
    from .flows import flow_run, volume_rate_check
    from .halphen import RealTriAxial

    init = RealTriAxial(parse_triple(args.init), args.t0)
    run = flow_run(init, args.t1, tol=args.tol)
    payload = run.to_dict()
    payload["volume_rate_residual"] = volume_rate_check(run)
    return payload


def _cmd_eisenstein(args):
    from .maass import LatticeSumSpec, eisenstein_fourier, eisenstein_lattice

    tau = parse_complex(args.tau)
    out = {"s": args.s, "tau": str(tau)}
    methods = ("lattice", "fourier") if args.both_methods else (args.method,)
    for m in methods:
        val = (
            eisenstein_lattice(args.s, tau, LatticeSumSpec(R=args.cutoff))
            if m == "lattice"
            else eisenstein_fourier(args.s, tau)
        )
        out[m] = {"value": val.value, "est_error": val.est_error}
    if args.both_methods:
        out["agree"] = bool(
            abs(out["lattice"]["value"] - out["fourier"]["value"])
            <= out["lattice"]["est_error"] + out["fourier"]["est_error"] + 1e-12
        )
    return out


def _cmd_dsum(args):
    from .amplitudes import kronecker_eisenstein_Dn
    from .maass import LatticeSumSpec

    tau = ModularPoint(parse_complex(args.tau))
    val = kronecker_eisenstein_Dn(args.n, tau, LatticeSumSpec(R=args.cutoff))
    return {
        "n": args.n,
        "tau": str(tau.tau),
        "cutoff": args.cutoff,
        "value": val.value,
        "est_error": val.est_error,
        "note": val.note,
        "convention": "prod tau2/(4*pi*|p|^2), p != 0 on every edge",
    }


def _cmd_graphd(args):
    from .amplitudes import GraphMultiplicities, graph_D
    from .maass import LatticeSumSpec

    try:
        mult = GraphMultiplicities(tuple(int(x) for x in args.mult.split(",")))
    except ValueError:
        raise _UsageError(f"cannot parse integer multiplicities from {args.mult!r}")
    tau = ModularPoint(parse_complex(args.tau))
    val = graph_D(mult, tau, LatticeSumSpec(R=args.cutoff))
    return {
        "mult": list(mult.n),
        "tau": str(tau.tau),
        "cutoff": args.cutoff,
        "value": val.value,
        "est_error": val.est_error,
        "note": val.note,
    }


def _cmd_amplitude(args):
    from .amplitudes import Mandelstam, tree_amplitude_gamma, tree_amplitude_series

    k = Mandelstam(args.aps, args.apt)
    out = {"alpha_s": args.aps, "alpha_t": args.apt, "alpha_u": k.u}
    if args.form in ("gamma", "both"):
        out["gamma"] = tree_amplitude_gamma(k)
    if args.form in ("series", "both"):
        out["series"] = tree_amplitude_series(k, args.N, tol=math.inf)
    if args.form == "both":
        out["difference"] = abs(out["gamma"] - out["series"])
    return out


def _cmd_theta(args):
    from .modforms import theta, theta_char, theta_char_vderiv

    z = parse_complex(args.z)
    v = parse_complex(args.v)
    if args.classical is not None:
        val = theta(args.classical, v, z)
        label = f"theta_{args.classical}"
    else:
        ch = ThetaChar(parse_complex(args.a), parse_complex(args.b))
        fn = theta_char_vderiv if args.vderiv else theta_char
        val = fn(ch, v, z)
        label = "theta_char_vderiv" if args.vderiv else "theta_char"
    return {
        "kind": label,
        "v": str(v),
        "z": str(z),
        "re": val.real,
        "im": val.imag,
    }


def _cmd_conformal(args):
    from .conformal import (
        ah_limit_solution,
        cp_f_cp2,
        cp_f_eisenstein,
        cp_f_heisenberg,
        cp_harmonic_check,
        first_integral,
        w_theta_solution,
    )

    if args.cp:
        field = {
            "cp2": cp_f_cp2,
            "heisenberg": cp_f_heisenberg,
            "eisenstein": cp_f_eisenstein,
        }[args.cp]()
        res = cp_harmonic_check(field, args.rho, args.eta, args.h)
        return {
            "candidate": args.cp,
            "rho": args.rho,
            "eta": args.eta,
            "h": args.h,
            "residual": res,
        }
    z = parse_complex(args.z)
    if args.ah_z0 is not None:
        w = ah_limit_solution(parse_complex(args.ah_z0), z)
    else:
        w = w_theta_solution(parse_complex(args.a), parse_complex(args.b), z)
    fi = first_integral(w.w)
    return {
        "z": str(z),
        "w": [{"re": c.real, "im": c.imag} for c in w.w],
        "lambda": {"re": w.lam.real, "im": w.lam.imag},
        "first_integral": {"re": fi.real, "im": fi.imag},
    }


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    p = _Parser(prog="halphen-lab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, tol=False):
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        if tol:
            sp.add_argument("--tol", type=float, default=1e-10)

    sp = sub.add_parser("solve", help="integrate or sample a triple system")
    common(sp, tol=True)
    sp.add_argument("--system", choices=("dh", "lagrange"), default="dh")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--init", default=None, help="Omega1,Omega2,Omega3")
    source.add_argument("--halphen", action="store_true",
                        help="sample the closed-form solution instead of integrating")
    sp.add_argument("--t0", type=float, required=True)
    sp.add_argument("--t1", type=float, required=True)
    sp.add_argument("--samples", type=_int_at_least(2), default=200)
    sp.add_argument("--no-stop-on-root", action="store_true")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.set_defaults(func=_cmd_solve)

    sp = sub.add_parser("curvature", help="curvature norms and endpoint class")
    common(sp, tol=True)
    sp.add_argument("--system", choices=("dh", "lagrange"), default="dh")
    source = sp.add_mutually_exclusive_group(required=True)
    source.add_argument("--init", default=None)
    source.add_argument("--halphen", action="store_true")
    source.add_argument("--taubnut", default=None, help="T0,Tstar")
    sp.add_argument("--t0", type=float, default=1.0)
    sp.add_argument("--t1", type=float, default=9.0)
    sp.add_argument("--samples", type=_int_at_least(2), default=300)
    sp.set_defaults(func=_cmd_curvature)

    sp = sub.add_parser("flow", help="Ricci-flow run with slice diagnostics")
    common(sp, tol=True)
    sp.add_argument("--init", required=True)
    sp.add_argument("--t0", type=float, default=0.0)
    sp.add_argument("--t1", type=float, required=True)
    sp.set_defaults(func=_cmd_flow)

    sp = sub.add_parser("eisenstein", help="non-holomorphic Eisenstein values")
    common(sp)
    sp.add_argument("--s", type=float, required=True)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--method", choices=("lattice", "fourier"), default="fourier")
    sp.add_argument("--both-methods", action="store_true")
    sp.add_argument("--cutoff", type=int, default=120)
    sp.set_defaults(func=_cmd_eisenstein)

    sp = sub.add_parser("dsum", help="Kronecker-Eisenstein D_n")
    common(sp)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--tau", required=True)
    sp.add_argument("--cutoff", type=int, default=120)
    sp.set_defaults(func=_cmd_dsum)

    sp = sub.add_parser("graphd", help="general graph lattice sum")
    common(sp)
    sp.add_argument("--mult", required=True, help="n12,n13,n14,n23,n24,n34")
    sp.add_argument("--tau", required=True)
    sp.add_argument("--cutoff", type=int, default=40)
    sp.set_defaults(func=_cmd_graphd)

    sp = sub.add_parser("amplitude", help="tree-level four-point amplitude")
    common(sp)
    sp.add_argument("--aps", type=float, required=True, help="alpha' s")
    sp.add_argument("--apt", type=float, required=True, help="alpha' t")
    sp.add_argument("--form", choices=("gamma", "series", "both"), default="both")
    sp.add_argument("--N", type=_int_at_least(0), default=14)
    sp.set_defaults(func=_cmd_amplitude)

    sp = sub.add_parser("theta", help="Jacobi theta values")
    common(sp)
    sp.add_argument("--classical", type=int, choices=(1, 2, 3, 4), default=None)
    sp.add_argument("--a", default="0")
    sp.add_argument("--b", default="0")
    sp.add_argument("--v", default="0")
    sp.add_argument("--z", required=True)
    sp.add_argument("--vderiv", action="store_true")
    sp.set_defaults(func=_cmd_theta)

    sp = sub.add_parser("conformal", help="w-variables and harmonic-F checks")
    common(sp)
    sp.add_argument("--a", default="0.3")
    sp.add_argument("--b", default="0.7")
    sp.add_argument("--z", default="0+1.1i")
    sp.add_argument("--ah-z0", default=None, help="integer-characteristic limit modulus")
    sp.add_argument("--cp", choices=("cp2", "heisenberg", "eisenstein"), default=None)
    sp.add_argument("--rho", type=float, default=1.0)
    sp.add_argument("--eta", type=float, default=0.2)
    sp.add_argument("--h", type=float, default=1e-3)
    sp.set_defaults(func=_cmd_conformal)

    return p


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _Reads(build_parser().parse_args(argv))
        payload = args.func(args)
        out = args.out
        # no flag may silently do nothing: the handler, or main for --out,
        # must have read each one given
        flags = dict.fromkeys(tok.partition("=")[0] for tok in argv if tok.startswith("--"))
        unread = [f for f in flags if f[2:].replace("-", "_") not in args.read]
        if unread:
            raise _UsageError(f"not used with the other arguments: {', '.join(unread)}")
        _emit(payload, out)
        sys.stdout.flush()
        return 0
    except BrokenPipeError:
        # the reader is gone: point stdout at os.devnull, so that the
        # interpreter's flush of the unwritten rest at exit is silent too
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HalphenLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
