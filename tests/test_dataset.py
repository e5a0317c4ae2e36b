import csv
import dataclasses
import hashlib
import io
import json
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripletree import dataset as ds
from tripletree import road_env as road
from tripletree.errors import ParameterError, TraceFormatError

from . import reference as ref
from .conftest import road_setup, traced_peak

TRACE_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                            "road_traces.sha256")
AUGMENT_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                              "road_augment.sha256")
WALKTHROUGH_DIGESTS = os.path.join(os.path.dirname(__file__), os.pardir,
                                   "perfbench", "walkthrough_digests.json")

CSV_ONE_EP = (b"episode,t,terminal,x,y,a,r\n"
              b"0,0,0,0.0,0.5,go,1.0\n"
              b"0,1,0,1.0,0.25,go,0.0\n"
              b"0,2,1,2.0,0.125,stop,2.0\n")


def test_csv_round_trip_identity():
    data = ds.load_trace(io.BytesIO(CSV_ONE_EP), "csv")
    assert len(data.episodes) == 1
    assert data.n_samples == 3
    assert data.d == 2
    assert data.feature_names == ["x", "y"]
    assert data.action_kind == ds.DISCRETE
    assert data.episodes[0].terminal
    assert ds.trace_to_csv_bytes(data) == CSV_ONE_EP


def test_csv_bad_field_count_names_row():
    bad = CSV_ONE_EP + b"0,3,0,1.0,2.0,3.0,go,0.0\n"
    with pytest.raises(TraceFormatError, match="row 5"):
        ds.load_trace(bad, "csv")


def test_episode_boundary_marker_splits_episodes():
    two = (b"episode,t,terminal,x,a,r\n"
           b"0,0,1,0.0,u,1.0\n"
           b"1,0,0,1.0,u,1.0\n"
           b"1,1,0,2.0,u,1.0\n")
    data = ds.load_trace(two, "csv")
    assert len(data.episodes) == 2
    assert [len(ep) for ep in data.episodes] == [1, 2]
    assert data.episodes[0].terminal and not data.episodes[1].terminal


def test_mixed_numeric_and_label_actions_rejected():
    bad = (b"episode,t,terminal,x,a,r\n"
           b"0,0,0,0.0,1.5,1.0\n"
           b"0,1,1,1.0,go,1.0\n")
    with pytest.raises(TraceFormatError, match="row"):
        ds.load_trace(bad, "csv")


def test_non_consecutive_t_rejected():
    bad = (b"episode,t,terminal,x,a,r\n"
           b"0,0,0,0.0,u,1.0\n"
           b"0,2,1,1.0,u,1.0\n")
    with pytest.raises(TraceFormatError, match="non-consecutive"):
        ds.load_trace(bad, "csv")


def test_json_round_trip_and_vector_actions():
    payload = (b'[{"terminal":true,"steps":['
               b'{"s":[0.0,1.0],"a":[0.5,-0.5],"r":1.0},'
               b'{"s":[1.0,2.0],"a":[0.25,0.0],"r":0.5}]}]')
    data = ds.load_trace(payload, "json")
    assert data.action_kind == ds.CONTINUOUS_VECTOR
    assert data.episodes[0].actions.shape == (2, 2)
    again = ds.load_trace(ds.trace_to_json_bytes(data), "json")
    assert np.array_equal(again.episodes[0].actions, data.episodes[0].actions)
    # CSV round trip for vector actions uses a1..am columns
    text = ds.trace_to_csv_bytes(data)
    assert text.splitlines()[0] == b"episode,t,terminal,f0,f1,a1,a2,r"
    third = ds.load_trace(text, "csv")
    assert third.action_kind == ds.CONTINUOUS_VECTOR
    assert np.allclose(third.episodes[0].actions, data.episodes[0].actions)


def test_action_kind_override():
    csv = (b"episode,t,terminal,x,a,r\n"
           b"0,0,0,0.0,0.5,1.0\n"
           b"0,1,1,1.0,0.7,1.0\n")
    assert ds.load_trace(csv, "csv").action_kind == ds.DISCRETE
    forced = ds.load_trace(csv, "csv", action_kind=ds.CONTINUOUS_SCALAR)
    assert forced.action_kind == ds.CONTINUOUS_SCALAR


def test_state_feature_mismatch_in_json():
    payload = (b'[{"terminal":false,"steps":['
               b'{"s":[0.0,1.0],"a":1,"r":0.0},'
               b'{"s":[0.0],"a":1,"r":0.0}]}]')
    with pytest.raises(TraceFormatError, match="episode 0 step 1"):
        ds.load_trace(payload, "json")


BIG = "1" * 400  # an integer literal past the float range
STEP = '{"s": [0.0], "a": 1, "r": 0.0}'
# trace inputs that once ended in a traceback, with the message each gets now
BAD_TRACES = {
    "steps-int": ('[{"steps": 5}]', "episode 0: 'steps' must be an array"),
    "steps-true": (f'[{{"steps": [{STEP}]}}, {{"steps": true}}]',
                   "episode 1: 'steps' must be an array"),
    "huge-state": (
        f'[{{"steps": [{STEP}, {{"s": [{BIG}], "a": 1, "r": 0}}]}}]',
        "episode 0 step 1: number outside the float range"),
    "huge-reward": (f'[{{"steps": [{STEP}]}}, {{"steps": [{STEP}, '
                    f'{{"s": [0], "a": 1, "r": -{BIG}}}]}}]',
                    "episode 1 step 1: number outside the float range"),
    "huge-action": (f'[{{"steps": [{{"s": [0], "a": {BIG}, "r": 0}}]}}]',
                    "episode 0 step 0: number outside the float range"),
    "huge-vector-action": (
        f'[{{"steps": [{{"s": [0], "a": [0, 1], "r": 0}}, '
        f'{{"s": [0], "a": [0, {BIG}], "r": 0}}]}}]',
        "episode 0 step 1: number outside the float range"),
    "past-digit-limit": ("[" + "1" * 5000 + "]", "invalid JSON trace: "),
    "deep-nesting": ("[" * 100000 + "]" * 100000, "invalid JSON trace: "),
}


@pytest.mark.parametrize("name", BAD_TRACES)
def test_json_trace_faults_are_trace_format_errors(name):
    payload, message = BAD_TRACES[name]
    for kind in (None, ds.DISCRETE, ds.CONTINUOUS_SCALAR,
                 ds.CONTINUOUS_VECTOR):
        with pytest.raises(TraceFormatError) as err:
            ds.load_trace(payload, "json", action_kind=kind)
        assert str(err.value).startswith(message)


def test_all_empty_json_action_vectors_rejected_for_every_kind():
    payload = ('[{"steps": [{"s": [0], "a": [], "r": 0}]}, '
               '{"steps": [{"s": [1], "a": [], "r": 0}]}]')
    for kind in (None, ds.DISCRETE, ds.CONTINUOUS_SCALAR,
                 ds.CONTINUOUS_VECTOR):
        with pytest.raises(TraceFormatError,
                           match="^record 1: action vector is empty$"):
            ds.load_trace(payload, "json", action_kind=kind)


def test_non_utf8_trace_is_a_trace_format_error():
    with pytest.raises(TraceFormatError, match="^trace is not UTF-8 text"):
        ds.load_trace(CSV_ONE_EP.replace(b"go", b"g\xff"), "csv")


@pytest.mark.parametrize("source, fmt, error, message", [
    (b"", "csv", TraceFormatError, "empty CSV trace"),
    (b"episode,t,terminal,x,a,r\n", "csv", TraceFormatError,
     "CSV trace has no data rows"),
    (b"episode,t,terminal,a,r\n0,0,1,go,0\n", "csv", TraceFormatError,
     "CSV trace has no state feature columns"),
    (b"[]", "json", TraceFormatError,
     "JSON trace must be a non-empty array of episodes"),
    (CSV_ONE_EP, "xml", ParameterError, "unknown trace format 'xml'"),
], ids=["empty-bytes", "header-only", "no-feature-column", "json-no-episodes",
        "unknown-format"])
def test_load_trace_refusals_name_the_fault(source, fmt, error, message):
    with pytest.raises(error) as err:
        ds.load_trace(source, fmt)
    assert str(err.value) == message


def _episode(steps, d=1, m=None):
    return ds.Episode(states=np.zeros((steps, d)),
                      actions=np.zeros(steps if m is None else (steps, m)),
                      rewards=np.zeros(steps), terminal=True)


@pytest.mark.parametrize("episodes, kind, names, message", [
    ([], ds.DISCRETE, [], "dataset has no episodes"),
    ([_episode(2)], ds.DISCRETE, ["x", "y"],
     "2 feature names for 1 state features"),
    ([_episode(2), _episode(0)], ds.DISCRETE, ["x"], "episode 1 is empty"),
    ([_episode(2)], ds.CONTINUOUS_VECTOR, ["x"],
     "episode 0: vector actions must be 2-D"),
], ids=["no-episodes", "feature-name-count", "empty-episode",
        "one-dimensional-vector-actions"])
def test_from_episodes_refusals_name_the_fault(episodes, kind, names,
                                               message):
    with pytest.raises(TraceFormatError) as err:
        ds.TraceDataset.from_episodes(episodes, kind, names)
    assert str(err.value) == message


def test_nonfinite_state_rejected():
    with pytest.raises(TraceFormatError, match="non-finite"):
        ds.TraceDataset.from_episodes(
            [ds.Episode(states=np.array([[np.nan, 0.0]]),
                        actions=np.array(["u"], dtype=object),
                        rewards=np.zeros(1), terminal=True)],
            action_kind=ds.DISCRETE, feature_names=["x", "y"])


@pytest.mark.parametrize("kind", [ds.DISCRETE, ds.CONTINUOUS_SCALAR])
def test_hand_built_two_dimensional_actions_rejected_for_one_dimensional_kinds(
        kind):
    episode = ds.Episode(states=np.zeros((3, 2)), actions=np.zeros((3, 2)),
                         rewards=np.zeros(3), terminal=True)
    with pytest.raises(TraceFormatError, match=f"^{kind} actions must be 1-D$"):
        ds.TraceDataset.from_episodes([episode], kind, ["x", "y"])


@pytest.mark.parametrize("kind,actions", [
    (ds.CONTINUOUS_SCALAR, np.array(["a", "b", "c"], dtype=object)),
    (ds.CONTINUOUS_VECTOR, np.array([["a", "0"], ["b", "1"], ["c", "2"]]))])
def test_hand_built_string_actions_rejected_for_continuous_kinds(kind, actions):
    episode = ds.Episode(states=np.zeros((3, 1)), actions=actions,
                         rewards=np.zeros(3), terminal=True)
    with pytest.raises(TraceFormatError,
                       match="^continuous actions must be numeric$"):
        ds.TraceDataset.from_episodes([episode], kind, ["x"])


def test_json_length_one_action_vectors_load_like_one_a1_column():
    payload = (b'[{"terminal":true,"steps":['
               b'{"s":[0.0],"a":[0.5],"r":1.0},'
               b'{"s":[1.0],"a":[0.25],"r":0.5}]}]')
    csv = (b"episode,t,terminal,f0,a1,r\n"
           b"0,0,0,0.0,0.5,1.0\n"
           b"0,1,1,1.0,0.25,0.5\n")
    for kind in (None, ds.CONTINUOUS_VECTOR):
        got = ds.load_trace(payload, "json", action_kind=kind)
        want = ds.load_trace(csv, "csv", action_kind=kind)
        assert got.action_kind == want.action_kind
        assert got.episodes[0].actions.dtype == np.float64
        assert np.array_equal(got.episodes[0].actions, want.episodes[0].actions)
    assert ds.load_trace(payload, "json").episodes[0].actions.tolist() == \
        [0.5, 0.25]
    forced = ds.load_trace(payload, "json", action_kind=ds.CONTINUOUS_VECTOR)
    assert forced.episodes[0].actions.shape == (2, 1)


def road_trace_digests() -> str:
    """sha256 of ``trace_to_csv_bytes`` for the README walkthrough trace
    (10^4 road samples, seed 0, 100-step episodes) and for the same trace
    with vector actions, one ``<hex>  <what>`` line each."""
    cfg = road.RoadConfig(r_left=-100.0, r_right=-100.0, r_speed=1.0,
                          gamma=0.99)
    data = road.generate_dataset(cfg, road.dp_solve(cfg, tolerance=1e-6),
                                 10000, 100, 0)
    vector = ds.TraceDataset.from_episodes(
        [ds.Episode(ep.states,
                    np.stack([1000.0 * ep.actions,
                              ep.states[:, 0] * ep.states[:, 1],
                              np.ones(len(ep))], axis=1),
                    ep.rewards, ep.terminal) for ep in data.episodes],
        ds.CONTINUOUS_VECTOR, data.feature_names)
    return "".join(
        f"{hashlib.sha256(ds.trace_to_csv_bytes(d)).hexdigest()}  {name}\n"
        for d, name in ((data, "road.csv"), (vector, "road_vector.csv")))


def test_trace_csv_bytes_match_recorded_digests():
    # tests/make_goldens.py rewrites the file when a change to the bytes is
    # intended; the README trace is also the walkthrough's road.csv
    with open(TRACE_DIGEST) as fh:
        recorded = fh.read()
    assert road_trace_digests() == recorded
    with open(WALKTHROUGH_DIGESTS) as fh:
        walkthrough = json.load(fh)["files"]["road.csv"]
    assert recorded.splitlines()[0] == f"{walkthrough}  road.csv"


def road_augment_digests() -> str:
    """sha256 of every array ``augment`` derives (V, D, has_deriv, sigma,
    ranges, medians and the episode slices), each with its dtype and shape,
    for the 3000-sample road fixture and for the README trace (10^4
    samples, gamma 0.99) read back from its CSV, one line per array."""
    cfg = road.RoadConfig(r_left=-100.0, r_right=-100.0, r_speed=1.0,
                          gamma=0.99, grid=(30, 30))
    readme = road.generate_dataset(cfg, road.dp_solve(cfg, tolerance=1e-6),
                                   10_000, 100, seed=0)
    lines = []
    for aug, name in (
            (road_setup()[3], "fixture"),
            (ds.augment(ds.load_trace(ds.trace_to_csv_bytes(readme), "csv"),
                        0.99), "readme")):
        for field, array in (
                ("V", aug.V), ("D", aug.D), ("has_deriv", aug.has_deriv),
                ("sigma", aug.sigma), ("ranges", aug.feature_range),
                ("medians", aug.medians),
                ("episode_slices", np.array(aug.episode_slices, dtype=np.int64))):
            array = np.ascontiguousarray(array)
            blob = f"{array.dtype.str}{array.shape}".encode() + array.tobytes()
            lines.append(f"{hashlib.sha256(blob).hexdigest()}  {name}.{field}\n")
    return "".join(lines)


def test_augment_arrays_match_recorded_digests():
    with open(AUGMENT_DIGEST) as fh:
        assert road_augment_digests() == fh.read()


# ---------------------------------------------------------------------------
# The flat column assembler against the per-episode reference loaders
# ---------------------------------------------------------------------------

KINDS = st.sampled_from([None, ds.DISCRETE, ds.CONTINUOUS_SCALAR,
                         ds.CONTINUOUS_VECTOR, "bogus"])
NUMBERS = ["0.5", "1", "-2", " 3 ", "1e3", "0"]
LABELS = ["go", "stop", ""]
ODD = ["nan", "inf", "x"]


def _outcome(load, text, kind):
    """What a loader makes of a trace: the dataset's kind, names, terminals
    and array bytes and dtypes, or the type and message of its error."""
    try:
        data = load(text, kind)
    except Exception as exc:  # the error itself is the outcome compared
        return type(exc).__name__, str(exc)

    def plain(a):
        return (a.dtype.str, a.shape,
                a.tolist() if a.dtype == object else a.tobytes())

    return (data.action_kind, data.feature_names,
            [(ep.terminal, plain(ep.states), plain(ep.actions),
              plain(ep.rewards)) for ep in data.episodes])


def _loaders(fmt):
    new = lambda text, kind: ds.load_trace(text, fmt, action_kind=kind)
    return new, (ref.load_csv if fmt == "csv" else ref.load_json)


@st.composite
def csv_traces(draw):
    """CSV text with a random action style and up to two faults."""
    d = draw(st.integers(1, 2))
    m = draw(st.integers(1, 3))
    a_cols = (["a"] if m == 1 and draw(st.booleans())
              else [f"a{k}" for k in range(1, m + 1)])
    pool = draw(st.sampled_from([NUMBERS, LABELS, NUMBERS + LABELS,
                                 NUMBERS + ODD]))
    value = st.sampled_from(NUMBERS + (["x", "nan"] if draw(st.integers(0, 3)) == 0
                                       else []))
    rows = []
    for ep in range(draw(st.integers(1, 3))):
        T = draw(st.integers(1, 4))
        for t in range(T):
            term = "1" if t == T - 1 and draw(st.booleans()) else "0"
            rows.append([str(ep), str(t), term]
                        + [draw(value) for _ in range(d)]
                        + [draw(st.sampled_from(pool)) for _ in range(m)]
                        + [draw(value)])
    header = (["episode", "t", "terminal"] + [f"x{k}" for k in range(d)]
              + a_cols + ["r"])
    faults = draw(st.lists(st.sampled_from(
        ["short-row", "bad-episode", "bad-t", "bad-terminal", "reorder",
         "t-gap", "blank-row", "bad-header", "duplicate-row",
         "early-terminal"]), max_size=2))
    for fault in faults:
        k = draw(st.sampled_from([i for i, row in enumerate(rows) if row]))
        if fault == "short-row":
            rows[k] = rows[k][:-1]
        elif fault == "bad-episode":
            rows[k][0] = "e"
        elif fault == "bad-t":
            rows[k][1] = "1.5"
        elif fault == "bad-terminal":
            rows[k][2] = "2"
        elif fault == "early-terminal":  # only the last row's flag counts
            rows[k][2] = "1"
        elif fault == "reorder":
            rows.insert(k, rows.pop(-1))
        elif fault == "t-gap":
            rows[k][1] = str(int(rows[k][1]) + 1) if rows[k][1].isdigit() \
                else rows[k][1]
        elif fault == "blank-row":
            rows.insert(k, [])
        elif fault == "bad-header":
            header = header[:-1] + ["reward"]
        else:
            rows.insert(k, list(rows[k]))
    return "\n".join(",".join(r) for r in [header] + rows) + "\n", faults


JSON_SCALARS = [0.5, 1, -2, "0.5", "go", "stop", None, True, "x"]


@st.composite
def json_traces(draw):
    """JSON text with scalar or vector actions and up to two faults; also
    the payload whose length-1 action vectors are unwrapped, or None."""
    d = draw(st.integers(0, 2))
    m = draw(st.sampled_from([None, 1, 2, 3]))  # None: scalar actions
    pool = draw(st.sampled_from([JSON_SCALARS[:3], JSON_SCALARS[3:6],
                                 JSON_SCALARS]))
    scalar = st.sampled_from(pool)
    action = scalar if m is None else st.lists(scalar, min_size=m,
                                               max_size=m)
    number = st.sampled_from([0.0, 1.5, -2, "3"])
    payload = []
    for _ in range(draw(st.integers(1, 3))):
        steps = [{"s": [draw(number) for _ in range(d)], "a": draw(action),
                  "r": draw(number)} for _ in range(draw(st.integers(1, 3)))]
        episode = {"steps": steps}
        if draw(st.booleans()):
            episode["terminal"] = draw(st.booleans())
        payload.append(episode)
    faults = draw(st.lists(st.sampled_from(
        ["scalar-among-vectors", "vector-among-scalars", "long-vector",
         "short-state", "empty-episode", "no-steps", "missing-reward",
         "string-state", "not-an-object"]), max_size=2))
    for fault in faults:
        ep = draw(st.sampled_from([e for e in payload if isinstance(e, dict)]))
        step = ep["steps"][draw(st.integers(0, len(ep["steps"]) - 1))] \
            if ep.get("steps") else {}
        if fault == "scalar-among-vectors":
            step["a"] = 0.5
        elif fault == "vector-among-scalars":
            step["a"] = [0.5, 0.5]
        elif fault == "long-vector":
            step["a"] = [0.5] * ((m or 1) + 1)
        elif fault == "short-state":
            step["s"] = [0.0] * (d + 1)
        elif fault == "empty-episode":
            ep["steps"] = []
        elif fault == "no-steps":
            ep.pop("steps", None)
        elif fault == "missing-reward":
            step.pop("r", None)
        elif fault == "string-state":
            step["s"] = "x"
        else:
            payload.insert(draw(st.integers(0, len(payload))), 7)
    actions = [step.get("a") for ep in payload if isinstance(ep, dict)
               for step in ep.get("steps") or []]
    unwrapped = None
    if all(isinstance(a, list) and len(a) == 1 for a in actions):
        unwrapped = json.loads(json.dumps(payload))
        for ep in unwrapped:
            for step in ep.get("steps") or [] if isinstance(ep, dict) else []:
                step["a"] = step["a"][0]
        unwrapped = json.dumps(unwrapped)
    return json.dumps(payload), unwrapped


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=csv_traces(), kind=KINDS)
def test_csv_loader_matches_reference(case, kind):
    text, _ = case
    new, old = _loaders("csv")
    assert _outcome(new, text, kind) == _outcome(old, text, kind)


# Spellings of numbers that Python's int() and float() accept or reject: the
# loader must read each field as those functions do, on either tokeniser
FULL_WIDTH = str.maketrans("0123456789",
                           "".join(map(chr, range(0xFF10, 0xFF1A))))
INT_SPELLINGS = [str, "+{}".format, " {} ".format, "0_{}".format,
                 lambda k: str(k).translate(FULL_WIDTH)]
BAD_INTS = ["1.5", "1e3", "1" * 5000]
FINITE = ["1_000", "+1", " 3 ", "12.5".translate(FULL_WIDTH), "-0.0", "0.5",
          "2.5e-3", "1e3", "1.5"]
NONFINITE_OR_BAD = ["inf", "-Infinity", "nan", "1e400", "0x10", "1__0", "",
                    "x"]
FLAGS = ["0", "1", " 1 ", " 0", "1 "]


def _quoted(field: str) -> str:
    return '"' + field.replace('"', '""') + '"'


@st.composite
def spelled_csv_traces(draw):
    """CSV text with number spellings in every numeric column and blank
    rows; half of the texts also have quoted fields and CRLF line ends, so
    that csv.reader tokenises them."""
    plain = draw(st.booleans())
    d = draw(st.integers(1, 2))
    number = st.sampled_from(draw(st.sampled_from(
        [FINITE, FINITE + NONFINITE_OR_BAD])))
    action = st.sampled_from(draw(st.sampled_from(
        [FINITE, ["go", " pad ", ""] if plain else ["go", "a,b", 'say "hi"']])))
    spell = st.sampled_from(INT_SPELLINGS)
    header = (["episode", "t", "terminal"]
              + [draw(st.sampled_from(["x", " y "] if plain
                                      else ["x", "a,b", 'q"t']))
                 for _ in range(d)] + ["a", "r"])
    rows = []
    for ep in range(draw(st.integers(1, 3))):
        T = draw(st.integers(1, 3))
        for t in range(T):
            rows.append([draw(spell)(ep), draw(spell)(t),
                         draw(st.sampled_from(FLAGS)) if t == T - 1 else "0"]
                        + [draw(number) for _ in range(d)]
                        + [draw(action), draw(number)])
    if draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = \
            draw(st.sampled_from(BAD_INTS))
    quote_all = not plain and draw(st.booleans())
    lines = [",".join(_quoted(f) if quote_all or "," in f or '"' in f else f
                      for f in row) for row in [header] + rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), "")
    end = "\n" if plain else draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + (end if draw(st.booleans()) else "")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(text=spelled_csv_traces(), kind=KINDS)
def test_csv_spellings_load_like_reference(text, kind):
    new, old = _loaders("csv")
    assert _outcome(new, text, kind) == _outcome(old, text, kind)


LIMIT = csv.field_size_limit()
# CSV text that csv.reader itself rejects, with the message each gets now
CSV_READER_FAULTS = {
    "field-past-size-limit": (
        "episode,t,terminal,x,a,r\n0,0,1," + "1" * (LIMIT + 1) + ",u,0\n",
        f"row 2: field larger than field limit ({LIMIT})"),
    "lone-carriage-return": (
        "episode,t,terminal,x,a,r\n0,0,0,0.5,u,0\n0,1,1,1\r5,u,0\n",
        "row 3: new-line character seen in unquoted field"),
}


@pytest.mark.parametrize("header", ["episode,t,terminal,x,r",
                                    "episode,t,terminal,x,y,a0,r"])
def test_a_csv_header_without_an_action_column_is_refused(header):
    # no column is named a or a1, so there is no action to read: both
    # loaders refuse the header rather than read an empty action
    width = header.count(",") + 1
    text = f"{header}\n" + ",".join(["0", "0", "1"] + ["0.5"] * (width - 3))
    for load in (lambda: ds.load_trace(text + "\n", "csv"),
                 lambda: ref.load_csv(text + "\n", None)):
        with pytest.raises(TraceFormatError) as err:
            load()
        assert str(err.value) == "action columns must be named a, or a1..am"


def test_a_trace_whose_statistics_overflow_is_refused():
    # finite values whose returns or spreads overflow the float range
    # give no statistics a fit could use
    rng = np.random.default_rng(0)
    states = rng.uniform(size=(6, 2))
    base = dict(actions=np.zeros(6), starts=[0, 3], terminal=[True, False],
                action_kind=ds.CONTINUOUS_SCALAR, feature_names=["x", "y"])
    for scale, reward in ((1e300, 0.0), (1.0, 1.7e308)):
        trace = ds.TraceDataset(states * scale, rewards=np.full(6, reward),
                                **base)
        with pytest.raises(TraceFormatError) as err:
            ds.augment(trace, 0.9)
        assert str(err.value).startswith(
            "trace statistics overflow the float range")


PAST_INT64 = 2**63


@pytest.mark.parametrize("rows, fault", [
    (f"{PAST_INT64},0,0,0.5,u,0\n{PAST_INT64},1,1,0.5,u,0\n"
     f"{PAST_INT64 + 1},0,1,0.5,u,0\n", None),
    (f"{PAST_INT64 + 1},0,1,0.5,u,0\n{PAST_INT64},0,1,0.5,u,0\n",
     "row 3: episodes out of order"),
    (f"0,0,0,0.5,u,0\n0,{2**64},1,0.5,u,0\n",
     "row 3: non-consecutive t within episode 0")],
    ids=["ids-in-order", "ids-out-of-order", "t-past-int64"])
def test_ids_and_steps_past_int64_are_checked_exactly(rows, fault):
    # such columns convert to Python ints, which compare without wrapping
    assert ds._int_column([str(PAST_INT64)]).dtype == object
    text = "episode,t,terminal,x,a,r\n" + rows
    if fault is None:
        assert ds.load_trace(text, "csv").starts.tolist() == [0, 2]
        return
    with pytest.raises(TraceFormatError, match=f"^{fault}$"):
        ds.load_trace(text, "csv")


@pytest.mark.parametrize("name", CSV_READER_FAULTS)
def test_csv_reader_faults_are_trace_format_errors(name):
    text, message = CSV_READER_FAULTS[name]
    with pytest.raises(TraceFormatError) as err:
        ds.load_trace(text.encode(), "csv")
    assert str(err.value).startswith(message)


def test_lines_past_the_field_size_limit_load_like_reference():
    # every field fits the limit, so csv.reader accepts the rows that are
    # longer than it, whichever tokeniser the text is routed to
    digits = "0." + "0" * (LIMIT // 2) + "1"
    text = ("episode,t,terminal,x,y,a,r\n0,0,0,1,2,u,0\n"
            f"0,1,1,{digits},{digits},u,0\n")
    assert len(text.splitlines()[2]) > LIMIT
    new, old = _loaders("csv")
    assert _outcome(new, text, None) == _outcome(old, text, None)
    assert ds.load_trace(text, "csv").episodes[0].states[1, 0] == float(digits)


@pytest.mark.parametrize("rows", [1, 2])
def test_csv_loader_matches_reference_in_small_blocks(rows):
    # every trace then spans many blocks, so each row check and each fault
    # meets the state carried over a block boundary
    with mock.patch.object(ds, "_BLOCK_ROWS", rows):
        test_csv_loader_matches_reference()


@pytest.mark.parametrize("rows", [1, 2])
def test_csv_spellings_load_like_reference_in_small_blocks(rows):
    with mock.patch.object(ds, "_BLOCK_ROWS", rows):
        test_csv_spellings_load_like_reference()


def _block_rows(episode_len: int, m: int = 1) -> list[list[str]]:
    """The data rows of a numeric-action trace of about three loading
    blocks, in episodes of ``episode_len`` rows, with ``m`` action
    columns."""
    return [[str(k // episode_len), str(k % episode_len),
             "1" if k % episode_len == episode_len - 1 else "0",
             repr(k / 7), "0.5", str(k % 3), *[repr(k / 5)] * (m - 1), "-1.0"]
            for k in range(ds._BLOCK_ROWS * 5 // 2)]


def _block_text(rows) -> str:
    """The CSV text of ``rows``, with a blank line first: the first block
    holds one row fewer, and every row is named one line further on."""
    m = len(rows[0]) - 6
    actions = ["a"] if m == 1 else [f"a{j}" for j in range(1, m + 1)]
    return "".join(",".join(row) + "\n"
                   for row in [["episode", "t", "terminal", "x", "y", *actions,
                                "r"], []] + rows)


def _relabel(rows, k):
    """Rows k to the end of their episode move to the episode two before."""
    episode = rows[k][0]
    for row in rows[k:]:
        if row[0] != episode:
            break
        row[0] = str(int(episode) - 2)


BLOCK_FAULTS = {
    "none": lambda rows, k: None,
    "bad-t": lambda rows, k: rows[k].__setitem__(1, str(int(rows[k][1]) + 1)),
    "episode-out-of-order": _relabel,
    "bad-flag": lambda rows, k: rows[k].__setitem__(2, "2"),
    "bad-float": lambda rows, k: rows[k].__setitem__(3, "x"),
    "label-among-numbers": lambda rows, k: rows[k].__setitem__(5, "go"),
}


# action columns, and the action kind asked for
BLOCK_ACTIONS = {"a": (1, None), "a1,a2": (2, None),
                 "a1,a2-discrete": (2, "discrete")}


@pytest.mark.parametrize("episode_len", [97, ds._BLOCK_ROWS - 1])
@pytest.mark.parametrize("where", ["last-of-block-1", "first-of-block-2"])
@pytest.mark.parametrize("fault,actions", [
    pytest.param(fault, actions,
                 id=fault if actions == "a" else f"{fault}-{actions}")
    for actions in BLOCK_ACTIONS for fault in BLOCK_FAULTS])
def test_faults_at_a_block_boundary_load_like_reference(fault, actions, where,
                                                        episode_len):
    # episodes of 97 rows run across each block boundary; episodes of a
    # block less one row end on the first boundary (block 1 holds the blank
    # line).  On vector columns a label goes into a1; a discrete kind is
    # refused for them, but a row fault, in block 2 as well, is named first
    m, kind = BLOCK_ACTIONS[actions]
    rows = _block_rows(episode_len, m)
    k = ds._BLOCK_ROWS - 2 if where == "last-of-block-1" else ds._BLOCK_ROWS - 1
    BLOCK_FAULTS[fault](rows, k)
    text = _block_text(rows)
    new, old = _loaders("csv")
    got = _outcome(new, text, kind)
    assert got == _outcome(old, text, kind)
    if fault != "none":
        assert got[0] == "TraceFormatError"
        assert got[1].startswith("row ") or (
            kind == "discrete" and fault == "label-among-numbers")


def test_a_row_fault_in_a_later_block_wins_over_an_action_fault():
    rows = _block_rows(97)
    rows[5][5] = "go"  # block 1: named only once every row has passed
    rows[ds._BLOCK_ROWS * 2 + 3][1] = "7"  # block 3
    text = _block_text(rows)
    with pytest.raises(TraceFormatError) as err:
        ds.load_trace(text.encode(), "csv")
    assert str(err.value) == (f"row {ds._BLOCK_ROWS * 2 + 6}: non-consecutive "
                              f"t within episode {(ds._BLOCK_ROWS * 2 + 3) // 97}")
    assert _outcome(ds.load_trace, text.encode(), "csv") == \
        _outcome(ref.load_csv, text, None)


@pytest.mark.parametrize("early", ["none", "bad-float", "bad-header"])
def test_a_late_non_utf8_byte_is_named_at_its_whole_input_position(early):
    # the input is decoded a block at a time, yet a bad byte anywhere is
    # named first and at its offset in the whole input
    rows = _block_rows(97)
    rows[ds._BLOCK_ROWS * 2 + 10][5] = "g@"  # block 3
    if early == "bad-float":
        rows[3][3] = "x"
    text = _block_text(rows)
    if early == "bad-header":
        text = text.replace("r\n", "reward\n", 1)
    raw = text.encode().replace(b"@", b"\xff")
    with pytest.raises(UnicodeDecodeError) as exc:
        raw.decode("utf-8")
    with pytest.raises(TraceFormatError) as err:
        ds.load_trace(raw, "csv")
    assert str(err.value) == f"trace is not UTF-8 text: {exc.value}"
    assert f"position {raw.index(0xFF)}" in str(err.value)


def test_a_late_csv_reader_fault_wins_over_an_early_row_fault():
    # quoted input goes through csv.reader a block at a time; a row it
    # cannot read is still named before any check's fault
    rows = _block_rows(97)
    rows[3][3] = "x"
    rows[ds._BLOCK_ROWS * 2 + 10][5] = '"go"x\r"'
    text = _block_text(rows)
    with pytest.raises(csv.Error) as exc:
        ref.load_csv(text, None)
    with pytest.raises(TraceFormatError) as err:
        ds.load_trace(text, "csv")
    assert str(err.value) == f"row {ds._BLOCK_ROWS * 2 + 13}: {exc.value}"


def test_csv_load_peak_is_bounded(benchmark_trace):
    # the n=1e5 benchmark trace (7.6 MB of CSV): the load holds one block of
    # rows as text and fields beside the preallocated columns
    raw = ds.trace_to_csv_bytes(benchmark_trace)
    loaded, peak = traced_peak(lambda: ds.load_trace(raw, "csv"))
    assert loaded.n_samples == 100_000
    assert peak <= 25e6, f"load_trace peaked at {peak / 1e6:.1f} MB"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=json_traces(), kind=KINDS)
def test_json_loader_matches_reference(case, kind):
    # the one declared difference: length-1 action vectors load as the
    # reference loads the same trace with each vector's entry as a scalar
    text, unwrapped = case
    new, old = _loaders("json")
    assert _outcome(new, text, kind) == _outcome(old, unwrapped or text, kind)


# ---------------------------------------------------------------------------
# The column writer against the row writer it replaced
# ---------------------------------------------------------------------------

ODD_FLOATS = [-0.0, 5e-324, 1e-310, 0.1, 1e300, -2.5]
STRING_LABELS = ["go", "a,b", 'say "hi"', "two\nlines", "", "cr\rlf", " pad "]
FEATURE_NAMES = ["x", "a,b", 'q"t', "two\nlines", "cr\rlf", "", "é"]


@st.composite
def trace_datasets(draw):
    """A valid trace with odd floats (-0.0, subnormals), string labels that
    need quoting, numeric, integer or vector actions and feature names that
    need quoting."""
    d = draw(st.integers(1, 3))
    style = draw(st.sampled_from(["labels", "label-array", "numbers", "ints",
                                  "scalar", "vector"]))
    m = draw(st.integers(1, 3))
    value = st.one_of(st.sampled_from(ODD_FLOATS),
                      st.floats(allow_nan=False, allow_infinity=False))

    def floats(*shape):
        return np.array([draw(value) for _ in range(int(np.prod(shape)))],
                        dtype=float).reshape(shape)

    episodes = []
    for _ in range(draw(st.integers(1, 3))):
        T = draw(st.integers(1, 4))
        if style in ("labels", "label-array"):
            labels = [draw(st.sampled_from(STRING_LABELS)) for _ in range(T)]
            actions = (np.array(labels, dtype=object) if style == "labels"
                       else np.array(labels))
        elif style == "ints":
            actions = np.array([draw(st.integers(-2 ** 62, 2 ** 62))
                                for _ in range(T)])
        else:
            actions = floats(T, m) if style == "vector" else floats(T)
        episodes.append(ds.Episode(floats(T, d), actions, floats(T),
                                   draw(st.booleans())))
    kind = {"vector": ds.CONTINUOUS_VECTOR,
            "scalar": ds.CONTINUOUS_SCALAR}.get(style, ds.DISCRETE)
    names = [draw(st.sampled_from(FEATURE_NAMES)) for _ in range(d)]
    return ds.TraceDataset.from_episodes(episodes, kind, names)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=trace_datasets())
def test_csv_writer_matches_row_writer(data):
    assert ds.trace_to_csv_bytes(data) == ref.trace_to_csv_bytes(data)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=trace_datasets())
def test_json_writer_matches_step_writer(data):
    assert ds.trace_to_json_bytes(data) == ref.trace_to_json_bytes(data)


def _trace_texts(data):
    """Everything a trace holds, numbers as ``repr(float)`` (so -0.0 and 0.0
    differ) and labels as strings."""
    def texts(values):
        return [v if isinstance(v, str) else texts(v) if isinstance(v, list)
                else repr(float(v)) for v in values]
    return (data.action_kind, list(data.feature_names),
            [(texts(ep.states.tolist()), texts(np.asarray(ep.actions).tolist()),
              texts(ep.rewards.tolist()), ep.terminal)
             for ep in data.episodes])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=trace_datasets())
def test_csv_written_trace_loads_back_unchanged(data):
    back = ds.load_trace(ds.trace_to_csv_bytes(data), "csv",
                         action_kind=data.action_kind)
    assert _trace_texts(back) == _trace_texts(data)


# ---------------------------------------------------------------------------
# Augmentation
# ---------------------------------------------------------------------------

def _one_episode(states, rewards, terminal=True):
    states = np.asarray(states, dtype=float)
    return ds.TraceDataset.from_episodes(
        [ds.Episode(states=states, actions=np.zeros(len(states)),
                    rewards=np.asarray(rewards, dtype=float),
                    terminal=terminal)],
        action_kind=ds.DISCRETE,
        feature_names=[f"f{i}" for i in range(states.shape[1])])


def test_discounted_returns_match_direct_sum():
    data = _one_episode([[0.0], [1.0], [2.0]], [0.0, 0.0, 1.0])
    aug = ds.augment(data, 0.9)
    # oracle: V_t = sum_k gamma^k R_{t+k} evaluated directly
    rewards = [0.0, 0.0, 1.0]
    expect = [sum(0.9 ** k * rewards[t + k] for k in range(3 - t))
              for t in range(3)]
    assert np.allclose(aug.V, expect)
    assert np.allclose(aug.V, [0.81, 0.9, 1.0])


def test_zero_rewards_zero_values():
    aug = ds.augment(_one_episode([[0.0], [1.0]], [0.0, 0.0]), 0.5)
    assert np.all(aug.V == 0.0)


def test_derivatives_defined_except_last():
    aug = ds.augment(_one_episode([[0.0, 0.0], [1.0, 2.0]], [0.0, 0.0]), 1.0)
    assert np.array_equal(aug.D[0], [1.0, 2.0])
    assert aug.has_deriv.tolist() == [True, False]


def test_gamma_domain():
    data = _one_episode([[0.0]], [0.0])
    for bad in (-0.1, 1.5, np.nan):
        with pytest.raises(ParameterError):
            ds.augment(data, bad)
    ds.augment(data, 0.0)
    ds.augment(data, 1.0)


def test_augment_invariants_random_fixtures():
    rng = np.random.default_rng(42)
    for _ in range(20):
        eps = []
        for _ in range(rng.integers(1, 5)):
            T = int(rng.integers(1, 12))
            eps.append(ds.Episode(
                states=rng.normal(size=(T, 3)),
                actions=rng.integers(0, 2, size=T).astype(float),
                rewards=rng.normal(size=T),
                terminal=bool(rng.integers(2))))
        data = ds.TraceDataset.from_episodes(eps, ds.DISCRETE, ["a", "b", "c"])
        gamma = float(rng.uniform(0, 1))
        aug = ds.augment(data, gamma)
        for start, stop, _ in aug.episode_slices:
            for t in range(start, stop - 1):
                # the stored derivative is exactly the successor difference
                assert np.array_equal(aug.D[t],
                                      aug.states[t + 1] - aug.states[t])
                assert np.allclose(aug.states[t] + aug.D[t],
                                   aug.states[t + 1], rtol=0, atol=1e-12)
                # return recurrence inside the episode
                assert aug.V[t] == pytest.approx(
                    aug.rewards[t] + gamma * aug.V[t + 1], abs=1e-10)
            assert not aug.has_deriv[stop - 1]
        # sigma equals an independent second pass (population std)
        defined = np.concatenate(
            [aug.D[start:stop - 1] for start, stop, _ in aug.episode_slices
             if stop - start > 1], axis=0) if any(
                 stop - start > 1 for start, stop, _ in aug.episode_slices) \
            else np.zeros((0, 3))
        if defined.shape[0]:
            mean = defined.sum(axis=0) / defined.shape[0]
            var = ((defined - mean) ** 2).sum(axis=0) / defined.shape[0]
            assert np.allclose(aug.sigma, np.sqrt(var), atol=1e-12)


# ---------------------------------------------------------------------------
# The column layout against the per-episode validation and augment in
# ``reference.py``
# ---------------------------------------------------------------------------

TRACE_VALUES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.0, -2.5, 1e6]),
                         st.floats(-1e6, 1e6))


@st.composite
def augment_traces(draw):
    """Episodes of 1-5 samples with discrete (string or numeric), scalar or
    vector actions and signed-zero rewards, the trace's kind and names, and
    a gamma of 0, 1 or between."""
    kind = draw(st.sampled_from([ds.DISCRETE, ds.CONTINUOUS_SCALAR,
                                 ds.CONTINUOUS_VECTOR]))
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    labels = draw(st.sampled_from([["go", "stop", ""], [0.0, 1.0, -1.0]]))

    def floats(*shape):
        return np.array([draw(TRACE_VALUES) for _ in range(int(np.prod(shape)))],
                        dtype=float).reshape(shape)

    episodes = []
    for _ in range(draw(st.integers(1, 4))):
        T = draw(st.integers(1, 5))
        if kind == ds.DISCRETE:
            actions = np.array([draw(st.sampled_from(labels)) for _ in range(T)],
                               dtype=object if isinstance(labels[0], str)
                               else float)
        else:
            actions = floats(T, m) if kind == ds.CONTINUOUS_VECTOR else floats(T)
        episodes.append(ds.Episode(floats(T, d), actions, floats(T),
                                   draw(st.booleans())))
    gamma = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return episodes, kind, [f"f{k}" for k in range(d)], gamma


def _same(a, b) -> bool:
    """Equal bit for bit: arrays in dtype, shape and bytes (object arrays
    by their items and types), anything else by type and value."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
                and (a.tolist() == b.tolist()
                     and list(map(type, a.ravel())) == list(map(type, b.ravel()))
                     if a.dtype == object else a.tobytes() == b.tobytes()))
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(map(_same, a, b)))
    return type(a) is type(b) and a == b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=augment_traces())
def test_augment_equals_the_per_episode_reference(case):
    episodes, kind, names, gamma = case
    data = ds.TraceDataset.from_episodes(episodes, kind, names)
    got, want = ds.augment(data, gamma), ref.augment(data, gamma)
    assert got.states is data.states and got.rewards is data.rewards
    for f in dataclasses.fields(ds.AugmentedDataset):
        assert _same(getattr(got, f.name), getattr(want, f.name)), f.name


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=augment_traces(), draw=st.data())
def test_nonfinite_values_are_named_as_the_episode_scan_names_them(case, draw):
    episodes, kind, names, _ = case
    columns = ["states", "rewards"] + (["actions"] if kind != ds.DISCRETE
                                       else [])
    for _ in range(draw.draw(st.integers(1, 3))):
        ep = draw.draw(st.sampled_from(episodes))
        column = getattr(ep, draw.draw(st.sampled_from(columns)))
        row = draw.draw(st.integers(0, len(ep) - 1))
        at = (row if column.ndim == 1
              else (row, draw.draw(st.integers(0, column.shape[1] - 1))))
        column[at] = draw.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(TraceFormatError) as want:
        ref.validate_episodes(episodes, kind, names)
    with pytest.raises(TraceFormatError) as got:
        ds.TraceDataset.from_episodes(episodes, kind, names)
    assert str(got.value) == str(want.value)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=augment_traces())
def test_from_episodes_of_the_episode_views_rebuilds_the_columns(case):
    episodes, kind, names, _ = case
    data = ds.TraceDataset.from_episodes(episodes, kind, names)
    again = ds.TraceDataset.from_episodes(data.episodes, kind, names)
    for column in ("states", "actions", "rewards", "starts", "terminal"):
        assert _same(getattr(again, column), getattr(data, column)), column
    assert [len(ep) for ep in data.episodes] == [len(ep) for ep in episodes]


def test_ragged_vector_action_widths_rejected():
    episodes = [ds.Episode(states=np.zeros((2, 1)), actions=np.zeros((2, w)),
                           rewards=np.zeros(2), terminal=True) for w in (2, 3)]
    with pytest.raises(TraceFormatError,
                       match="^episode 1: action vectors do not all have 2 "
                             "entries$"):
        ds.TraceDataset.from_episodes(episodes, ds.CONTINUOUS_VECTOR, ["x"])


def test_a_shape_fault_is_named_before_a_nonfinite_value():
    # the episodes are checked for shape before the columns for values
    episodes = [ds.Episode(states=np.full((2, w), v), actions=np.zeros(2),
                           rewards=np.zeros(2), terminal=True)
                for w, v in ((2, np.nan), (3, 0.0))]
    with pytest.raises(TraceFormatError,
                       match="^episode 1: state vectors do not all have 2 "
                             "entries$"):
        ds.TraceDataset.from_episodes(episodes, ds.DISCRETE, ["x", "y"])


@pytest.mark.parametrize("starts, terminal, rewards", [
    ([0, 2], [True], np.zeros(3)),          # a flag missing
    ([1], [True], np.zeros(3)),             # samples before the first start
    ([0, 3], [True, True], np.zeros(3)),    # an empty last episode
    ([0, 1, 1], [True] * 3, np.zeros(3)),   # an empty middle episode
    ([0], [True], np.zeros(2)),             # a reward missing
])
def test_columns_that_do_not_line_up_are_rejected(starts, terminal, rewards):
    with pytest.raises(TraceFormatError, match="^trace columns do not line up"):
        ds.TraceDataset(np.zeros((3, 1)), np.zeros(3), rewards, starts,
                        terminal, ds.DISCRETE, ["x"])


@pytest.mark.parametrize("column", ["states", "rewards", "actions"])
def test_nonfinite_value_is_named_by_its_episode(column):
    rng = np.random.default_rng(0)
    episodes = [ds.Episode(states=rng.normal(size=(3, 2)),
                           actions=rng.normal(size=3), rewards=rng.normal(size=3),
                           terminal=True) for _ in range(4)]
    getattr(episodes[2], column)[1] = np.inf
    message = {"states": "^episode 2 step 1: non-finite state value$",
               "rewards": "^episode 2: non-finite reward$",
               "actions": "^episode 2: non-finite action$"}[column]
    with pytest.raises(TraceFormatError, match=message):
        ds.TraceDataset.from_episodes(episodes, ds.CONTINUOUS_SCALAR, ["x", "y"])
