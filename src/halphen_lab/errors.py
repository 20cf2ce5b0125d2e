"""Exception hierarchy and JSON layout shared by all modules."""


def dump_json(payload) -> str:
    """The package's JSON layout: one line, keys sorted, arrays (anything
    with a ``tolist``) as nested lists without importing numpy.  json
    itself loads on first use, so importing a module does not load it."""
    import json

    return json.dumps(payload, sort_keys=True, default=lambda o: o.tolist())


class HalphenLabError(Exception):
    """Base class for all errors raised by this package."""


class TruncationNotReached(HalphenLabError):
    """A q-series/product hit max_terms before meeting the tolerance."""


class PoleHit(HalphenLabError):
    """Evaluation requested too close to a pole (|c z + d| ~ 0 etc.)."""


class DomainError(HalphenLabError):
    """Argument outside the mathematical domain of the operation."""


class DivergentParameter(HalphenLabError):
    """Parameter in the divergent range of a lattice sum (s <= 1)."""


class PoleAtS(HalphenLabError):
    """Completed zeta / Eisenstein series evaluated at a pole in s."""


class StepTooLarge(HalphenLabError):
    """Finite-difference step too large for the requested stencil."""


class StepUnderflow(HalphenLabError):
    """Adaptive integrator step fell below the representable floor."""


class DegenerateMetric(HalphenLabError):
    """A frame coefficient vanishes or the volume factor is not positive."""


class InsufficientData(HalphenLabError):
    """Trajectory does not reach close enough to the endpoint to classify."""


class OutOfRange(HalphenLabError):
    """Requested sample lies outside the recorded run."""


class ThetaZeroDivision(HalphenLabError):
    """theta[a;b](0|z) in a denominator is numerically zero."""


class SingularLambda(HalphenLabError):
    """lambda path too close to the branch points {0, 1}."""


class KinematicsDegenerate(HalphenLabError):
    """s*t*u = 0; the 1/stu prefactor is singular."""


class NotConverged(HalphenLabError):
    """A series did not converge at the given order, or an adaptive run
    spent its step budget."""


class LatticePointHit(HalphenLabError):
    """Propagator argument z lies on the lattice Z + tau*Z."""


class CutoffTooLarge(HalphenLabError):
    """A cutoff would make a lattice sum build an array above its budget."""


class WeightTooLarge(HalphenLabError):
    """Graph weight or loop number beyond what the lattice sums support."""
