"""The two writers: `errors.dump_json` by a round trip through
`json.loads`, and `Trajectory.to_csv` against the csv.writer code it
replaced."""

import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from halphen_lab.errors import dump_json
from halphen_lab.halphen import RealTriAxial, Trajectory, halphen_closed_form_real, integrate

_KEY_WORDS = {True: "true", False: "false", None: "null"}
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _key(k):
    """The string json writes for the dict key k."""
    if isinstance(k, str):
        return k
    if k is None or isinstance(k, bool):
        return _KEY_WORDS[k]
    text = repr(k)
    return _FLOAT_WORDS.get(text, text)


def _loaded(o):
    """What `json.loads(dump_json(o), object_pairs_hook=tuple)` gives back:
    arrays and tuples as lists, each dict as its (key, value) pairs in the
    order of its sorted keys."""
    if hasattr(o, "tolist"):
        return _loaded(o.tolist())
    if isinstance(o, (list, tuple)):
        return [_loaded(v) for v in o]
    if isinstance(o, dict):
        return tuple((_key(k), _loaded(v)) for k, v in sorted(o.items()))
    return o


_floats = st.floats(allow_nan=True, allow_infinity=True)  # -0.0 included
_scalars = st.none() | st.booleans() | st.integers() | _floats | st.text()
_arrays = hnp.arrays(
    st.sampled_from([np.float64, np.int64]),
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=4),
)
_payloads = st.recursive(
    _scalars | _arrays,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | st.lists(_floats, max_size=6)
        | st.dictionaries(st.text(), children, max_size=5)
        | st.dictionaries(st.integers() | _floats | st.booleans(), children, max_size=3)
    ),
    max_leaves=30,
)


class TestDumpJson:
    @settings(max_examples=400, deadline=None)
    @given(_payloads)
    @example({"é \"q\"\\\n\t\x00 ": [1.0, -0.0, math.nan, math.inf, -math.inf]})
    @example({2.5: {}, True: (), 3: "x", -1: None, math.nan: 1})
    @example({None: [[], {"": ""}]})
    @example([[1.0, 2.0], [3, 4.5], [True, 1.0]])
    @example(np.arange(6.0).reshape(2, 3))
    def test_round_trip(self, payload):
        text = dump_json(payload)
        assert "\n" not in text
        # repr tells nan from a number and -0.0 from 0.0, and a tuple (a dict's
        # pairs) from a list
        got = json.loads(text, object_pairs_hook=tuple)
        assert repr(got) == repr(_loaded(payload))

    def test_layout(self):
        payload = {"b": (1, np.array([2.5, math.nan])), "a": [math.inf, -math.inf],
                   "c": {10: None, 2.5: False}}
        assert dump_json(payload) == ('{"a": [Infinity, -Infinity], "b": [1, [2.5, NaN]], '
                                      '"c": {"2.5": false, "10": null}}')

    def test_unsortable_and_unencodable_keys_raise_as_json_does(self):
        for payload in ({1: 0, "a": 0}, {(1, 2): 0}):
            with pytest.raises(TypeError):
                json.dumps(payload, sort_keys=True)
            with pytest.raises(TypeError):
                dump_json(payload)


def _csv_reference(traj):
    """The csv.writer code `Trajectory.to_csv` replaced."""
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(["T", "Omega1", "Omega2", "Omega3",
                     "Omega1_dot", "Omega2_dot", "Omega3_dot"])
    for i in range(len(traj.T)):
        writer.writerow(
            [repr(float(traj.T[i]))]
            + [repr(float(v)) for v in traj.Omega[i]]
            + [repr(float(v)) for v in traj.Omega_dot[i]]
        )
    return buf.getvalue()


def _closed_form_trajectory():
    T = np.linspace(0.6, 3.0, 40)
    return Trajectory.from_samples("dh", T, [halphen_closed_form_real(t).Omega for t in T])


@pytest.mark.parametrize(
    "make, reason",
    [
        (lambda: integrate("dh", RealTriAxial((1.0, 2.0, 3.0), 1.0), 10.0), "completed"),
        (lambda: integrate("lagrange", RealTriAxial((0.7, 0.7, 1.9), 0.0), 2.0), "blowup"),
        (lambda: integrate("dh", RealTriAxial((-1.0, 2.0, 3.0), 0.0), 50.0), "root_crossing"),
        (lambda: integrate("dh", RealTriAxial((0.3, 0.5, -0.4), 1.0), -10.0), "blowup"),
        (_closed_form_trajectory, "completed"),
    ],
    ids=["dh", "lagrange-blowup", "root-crossing", "backward", "closed-form"],
)
def test_to_csv_matches_csv_writer(make, reason):
    traj = make()
    assert traj.reason == reason
    assert traj.to_csv() == _csv_reference(traj)
