"""Per-layer tracing from outside the package.

Wraps the public functions of each ``halphen_lab`` module, and every name
other modules imported from it, with a span that records a call count and
self time (the span minus the spans of wrapped calls inside it).  Spans
are folded into per-layer totals as they close, so memory stays flat.
"""

from __future__ import annotations

import functools
import math
from time import perf_counter

from halphen_lab import amplitudes, cli, conformal, flows, geometry, halphen, maass, modforms, numdiff

# every module whose namespace may hold a wrapped function, imported names included
MODULES = (modforms, halphen, geometry, flows, conformal, numdiff, maass, amplitudes, cli)

LAYERS = {
    "modforms": (modforms, ("dedekind_eta", "eisenstein_holo", "theta", "theta_char",
                            "theta_char_vderiv", "apply_moebius")),
    "halphen.closed_form": (halphen, ("halphen_closed_form", "halphen_closed_form_real",
                                      "halphen_triplet", "taub_nut_family")),
    "halphen.integrate": (halphen, ("integrate", "integrate_ray")),
    "geometry.curvature": (geometry, ("connection", "curvature_decomp", "classify_geometry")),
    "geometry.endpoint": (geometry, ("classify_endpoint", "proper_time", "frame_coefficients",
                                     "taub_nut_endpoints")),
    "flows": (flows, ("flow_run", "volume_rate_check", "slice_metric", "slice_scalar_curvature",
                      "slice_volume", "flow_time", "isotropy_ratio", "attractor_check")),
    "conformal": (conformal, ("w_theta_solution", "ah_limit_solution", "first_integral",
                              "cp_harmonic_check", "w_lambda_system_residual",
                              "asd_curvature_identity")),
    "numdiff": (numdiff, ("deriv1", "deriv2", "deriv3", "second_5pt")),
    "maass.lattice": (maass, ("eisenstein_lattice", "lattice_points")),
    "maass.fourier": (maass, ("eisenstein_fourier",)),
    "amplitudes.dn": (amplitudes, ("kronecker_eisenstein_Dn",)),
    "amplitudes.tree": (amplitudes, ("tree_amplitude_gamma", "tree_amplitude_series")),
    "amplitudes.graph": (amplitudes, ("graph_D",)),
}

SERIALISERS = (
    (halphen.Trajectory, "to_json"),
    (halphen.Trajectory, "to_csv"),
    (geometry.EndpointClass, "to_json"),
    (geometry.CurvatureDecomp, "to_json"),
    (flows.FlowRun, "to_json"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _tau(t) -> complex:
    return complex(getattr(t, "tau", t))


def lattice_grid_size(tau, R) -> int:
    """Grid points that maass.lattice_points generates before the |p| <= R cut."""
    t = _tau(tau)
    n_max = int(math.floor(R / t.imag))
    m_pad = int(math.ceil(R + abs(t.real) * n_max)) + 1
    return (2 * m_pad + 1) * (2 * n_max + 1)


def graph_loops(mult) -> int:
    """Cycle rank E - V + C of the four-vertex multigraph."""
    edges = [e for e, k in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), mult) for _ in range(k)]
    parent = {v: v for e in edges for v in e}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in edges:
        parent[find(a)] = find(b)
    comps = len({find(v) for v in parent})
    return len(edges) - len(parent) + comps


def _count_integrate(c, args, kwargs, r):
    c["halphen.integrate.rhs_evals"] += r.meta["nfev"]
    c["halphen.integrate.steps"] += len(r.T) - 1


def _count_lattice_points(c, args, kwargs, r):
    c["maass.lattice.points"] += len(r)
    c["maass.lattice.grid"] += lattice_grid_size(args[0], args[1])


def _count_dn(c, args, kwargs, r):
    spec = _arg(args, kwargs, 2, "spec", maass.LatticeSumSpec())
    c["amplitudes.dn.grid_points"] += (2 * int(spec.R) + 1) ** 2


def _count_graph(c, args, kwargs, r):
    spec = _arg(args, kwargs, 2, "spec", maass.LatticeSumSpec(R=40))
    mult = args[0].n
    c["amplitudes.graph.summands"] += (2 * int(spec.R) + 1) ** (2 * graph_loops(mult))


def _count_bytes(c, args, kwargs, r):
    c["serialise.bytes"] += len(r)


COUNTERS = {
    "integrate": _count_integrate,
    "lattice_points": _count_lattice_points,
    "kronecker_eisenstein_Dn": _count_dn,
    "graph_D": _count_graph,
}


class Tracer:
    """Installs span wrappers; ``stats[layer] = [calls, self_seconds]``."""

    def __init__(self):
        self.stats = {}
        self.counts = {}
        self._stack = []
        self._undo = []

    def wrap(self, layer, fn, count=None):
        stats = self.stats.setdefault(layer, [0, 0.0])
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt - child
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return span

    def _replace_everywhere(self, orig, wrapped):
        for mod in MODULES:
            for name, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, name, value))
                    setattr(mod, name, wrapped)

    def install(self):
        for key in ("halphen.integrate.rhs_evals", "halphen.integrate.steps",
                    "maass.lattice.points", "maass.lattice.grid",
                    "amplitudes.dn.grid_points", "amplitudes.graph.summands",
                    "serialise.bytes"):
            self.counts[key] = 0
        for layer, (mod, names) in LAYERS.items():
            for name in names:
                orig = getattr(mod, name)
                self._replace_everywhere(orig, self.wrap(layer, orig, COUNTERS.get(name)))
        for cls, name in SERIALISERS:
            method = vars(cls)[name]
            self._undo.append((cls, name, method))
            setattr(cls, name, self.wrap("serialise", method, _count_bytes))

    def uninstall(self):
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()

    def metrics(self) -> dict:
        """Per-layer metric values named as in BENCHMARK.json."""
        out = {}

        def calls(layer):
            return self.stats.get(layer, [0, 0.0])[0]

        def self_ms(layer):
            return self.stats.get(layer, [0, 0.0])[1] * 1e3

        for layer in ("modforms", "halphen.closed_form", "halphen.integrate",
                      "geometry.curvature", "geometry.endpoint", "conformal", "numdiff",
                      "maass.lattice", "maass.fourier", "amplitudes.dn", "amplitudes.tree",
                      "amplitudes.graph"):
            out[f"{layer}.calls"] = calls(layer)
            out[f"{layer}.self_ms"] = self_ms(layer)
        out["flows.self_ms"] = self_ms("flows")
        out["serialise.self_ms"] = self_ms("serialise")
        c = self.counts
        out["serialise.bytes"] = c["serialise.bytes"]
        out["halphen.integrate.rhs_evals"] = c["halphen.integrate.rhs_evals"]
        out["halphen.integrate.steps"] = c["halphen.integrate.steps"]
        evals = c["halphen.integrate.rhs_evals"]
        out["halphen.integrate.useful_ratio"] = 6 * c["halphen.integrate.steps"] / evals if evals else 0.0
        out["maass.lattice.points"] = c["maass.lattice.points"]
        grid = c["maass.lattice.grid"]
        out["maass.lattice.kept_ratio"] = c["maass.lattice.points"] / grid if grid else 0.0
        out["amplitudes.dn.grid_points"] = c["amplitudes.dn.grid_points"]
        out["amplitudes.graph.summands"] = c["amplitudes.graph.summands"]
        return out
