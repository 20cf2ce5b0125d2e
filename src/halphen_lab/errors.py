"""Exception hierarchy and JSON layout shared by all modules."""

# float reprs that json spells differently
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def dump_json(payload) -> str:
    """The package's JSON layout: the bytes of ``json.dumps(payload,
    sort_keys=True, indent=1, default=lambda o: o.tolist())``.  Arrays
    (anything with a ``tolist``) become nested lists without importing
    numpy; json itself loads on first use, so importing a module does not
    load it.

    json's indented layout runs its pure-Python encoder, so the layout is
    written here directly: strings through json's C string encoder, floats
    through ``float.__repr__``, and a list of plain finite floats in one
    join.
    """
    from json.encoder import encode_basestring_ascii as string

    def value(o, pad):  # pad: a newline and the indent of o's own level
        if isinstance(o, str):
            return string(o)
        if o is None:
            return "null"
        if o is True:
            return "true"
        if o is False:
            return "false"
        if isinstance(o, int):
            return int.__repr__(o)
        if isinstance(o, float):
            text = float.__repr__(o)
            return _JSON_FLOATS.get(text, text)
        inner = pad + " "
        if isinstance(o, (list, tuple)):
            if not o:
                return "[]"
            try:
                text = ("," + inner).join(map(float.__repr__, o))
            except TypeError:  # not all floats
                text = "n"
            if "n" in text:  # an entry is not a float, or is nan or +-inf
                text = ("," + inner).join([value(v, inner) for v in o])
            return "[" + inner + text + pad + "]"
        if isinstance(o, dict):
            if not o:
                return "{}"
            items = [key(k) + ": " + value(v, inner) for k, v in sorted(o.items())]
            return "{" + inner + ("," + inner).join(items) + pad + "}"
        return value(o.tolist(), pad)

    def key(k):
        if isinstance(k, str):
            return string(k)
        if k is None or isinstance(k, (int, float)):  # bool is an int
            return string(value(k, ""))
        raise TypeError(f"keys must be str, int, float, bool or None, not {k.__class__.__name__}")

    return value(payload, "\n")


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
