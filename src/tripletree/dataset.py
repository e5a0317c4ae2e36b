"""Trace datasets: loading, validation, and value/derivative augmentation.

A trace is an ordered collection of episodes, each episode an ordered run of
(state, action, reward) samples recorded from an agent acting in its
environment.  Augmentation attaches to every sample a discounted return
computed inside its own episode and the one-step change in state, plus the
global statistics (derivative spread, feature ranges, medians) the rest of
the package normalises by.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from types import SimpleNamespace

import numpy as np

from .errors import ParameterError, TraceFormatError

DISCRETE = "discrete"
CONTINUOUS_SCALAR = "continuous-scalar"
CONTINUOUS_VECTOR = "continuous-vector"

ACTION_KINDS = (DISCRETE, CONTINUOUS_SCALAR, CONTINUOUS_VECTOR)


@dataclass
class Episode:
    """One episode: temporally ordered samples plus a termination flag.

    ``terminal`` is True when the final sample ended the episode by reaching
    a terminal condition, False when recording was merely cut off.
    """

    states: np.ndarray   # (T, d) float64
    actions: np.ndarray  # (T,) labels/floats, or (T, m) float64 for vector actions
    rewards: np.ndarray  # (T,) float64
    terminal: bool

    def __len__(self) -> int:
        return self.states.shape[0]


@dataclass
class TraceDataset:
    """Validated ordered trace data, held as per-sample columns; episode i
    runs from ``starts[i]`` up to the next start, with flag ``terminal[i]``.

    ``action_kind`` is one of ``discrete``, ``continuous-scalar``,
    ``continuous-vector``.  Discrete action labels may be strings or numbers;
    they are treated as categorical either way.
    """

    states: np.ndarray    # (n, d) float64
    actions: np.ndarray   # (n,) labels/floats, or (n, m) float64 for vector actions
    rewards: np.ndarray   # (n,) float64
    starts: np.ndarray    # (E,) int64, each episode's first sample
    terminal: np.ndarray  # (E,) bool
    action_kind: str
    feature_names: list[str]

    def __post_init__(self):
        self.starts = np.asarray(self.starts, dtype=np.int64)
        self.terminal = np.asarray(self.terminal, dtype=bool)
        validate_trace(self)

    @classmethod
    def from_episodes(cls, episodes, action_kind: str,
                      feature_names) -> TraceDataset:
        """The trace of hand-built episodes: each is checked for shape, then
        the episodes are joined into columns in one concatenation."""
        episodes = list(episodes)
        first = episodes[0] if episodes else None
        d = first.states.shape[1] if first is not None and first.states.ndim == 2 else -1
        _check_header(action_kind, len(episodes), feature_names, d)
        vector = action_kind == CONTINUOUS_VECTOR
        m = first.actions.shape[1] if vector and first.actions.ndim == 2 else -1
        for i, ep in enumerate(episodes):
            if len(ep) == 0:
                raise TraceFormatError(f"episode {i} is empty")
            if ep.states.ndim != 2 or ep.states.shape[1] != d:
                raise TraceFormatError(
                    f"episode {i}: state vectors do not all have {d} entries")
            if vector and ep.actions.ndim != 2:
                raise TraceFormatError(f"episode {i}: vector actions must be 2-D")
            if vector and ep.actions.shape[1] != m:
                raise TraceFormatError(
                    f"episode {i}: action vectors do not all have {m} entries")
        return cls(np.concatenate([ep.states for ep in episodes]),
                   np.concatenate([np.asarray(ep.actions) for ep in episodes]),
                   np.concatenate([ep.rewards for ep in episodes]),
                   np.cumsum([0] + [len(ep) for ep in episodes[:-1]]),
                   [bool(ep.terminal) for ep in episodes], action_kind,
                   list(feature_names))

    @property
    def episodes(self) -> list[Episode]:
        """Each episode as views of the columns."""
        bounds = [*self.starts.tolist(), self.n_samples]
        return [Episode(self.states[a:b], self.actions[a:b], self.rewards[a:b], term)
                for a, b, term in zip(bounds, bounds[1:], self.terminal.tolist())]

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def n_samples(self) -> int:
        return self.states.shape[0]


def _check_header(action_kind, n_episodes, feature_names, d) -> None:
    if action_kind not in ACTION_KINDS:
        raise TraceFormatError(f"unknown action kind {action_kind!r}")
    if not n_episodes:
        raise TraceFormatError("dataset has no episodes")
    if len(feature_names) != d:
        raise TraceFormatError(
            f"{len(feature_names)} feature names for {d} state features")


def validate_trace(data: TraceDataset) -> None:
    """Check the trace's columns in one pass: shapes, no empty episode, and
    every state, reward and continuous action finite.  A fault names the
    first faulty episode and, within it, a state before a reward before an
    action."""
    states, starts = data.states, data.starts
    d = states.shape[1] if states.ndim == 2 else -1
    _check_header(data.action_kind, starts.size, data.feature_names, d)
    n = states.shape[0]
    if (starts.ndim != 1 or starts[0] != 0
            or (np.diff(starts, append=n) < 1).any()
            or data.terminal.shape != starts.shape
            or np.shape(data.rewards) != (n,)
            or np.shape(data.actions)[:1] != (n,)):
        raise TraceFormatError(
            "trace columns do not line up, or an episode is empty")
    rank = 2 if data.action_kind == CONTINUOUS_VECTOR else 1
    if np.ndim(data.actions) != rank:
        raise TraceFormatError(f"{data.action_kind} actions must be {rank}-D")

    columns = [states, data.rewards]
    if data.action_kind != DISCRETE:
        try:
            columns.append(np.asarray(data.actions, dtype=float))
        except (TypeError, ValueError):
            raise TraceFormatError("continuous actions must be numeric") from None
    faults = []  # (episode, rank, sample) of each column's first non-finite
    for rank, column in enumerate(columns):
        bad = np.flatnonzero(~np.isfinite(column).reshape(n, -1).all(axis=1))
        if bad.size:
            i = np.searchsorted(starts, bad[0], "right") - 1
            faults.append((i, rank, bad[0]))
    if faults:
        i, rank, k = min(faults)
        raise TraceFormatError(
            f"episode {i} step {k - starts[i]}: non-finite state value"
            if rank == 0 else
            f"episode {i}: non-finite {('reward', 'action')[rank - 1]}")


@dataclass
class AugmentedDataset:
    """A trace flattened to sample-major arrays with derived attributes.

    ``V`` holds the per-sample discounted return accumulated within the
    sample's episode; ``D`` the one-step state change, defined wherever a
    successor sample exists in the same episode (``has_deriv`` masks the
    rest; masked rows of ``D`` are zero and must not be read).  ``sigma`` is
    the population standard deviation of each derivative feature over the
    defined rows.  Immutable after construction; safe to share between
    threads.
    """

    base: TraceDataset
    gamma: float
    states: np.ndarray        # (n, d)
    actions: np.ndarray       # (n,) or (n, m)
    rewards: np.ndarray       # (n,)
    V: np.ndarray             # (n,)
    D: np.ndarray             # (n, d), rows with has_deriv False are zeroed
    has_deriv: np.ndarray     # (n,) bool
    sigma: np.ndarray         # (d,)
    feature_range: np.ndarray  # (d, 2) [min, max]
    medians: np.ndarray       # (d,)
    episode_slices: list[tuple[int, int, bool]]  # (start, stop, terminal)
    action_labels: np.ndarray | None = None  # discrete: sorted unique labels
    action_codes: np.ndarray | None = None   # discrete: (n,) int codes
    action_sigma: np.ndarray | None = None   # vector actions: (m,) per-dim std
    feature_names: list[str] = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.states.shape[0]

    @property
    def d(self) -> int:
        return self.states.shape[1]

    @property
    def action_kind(self) -> str:
        return self.base.action_kind


def augment(data: TraceDataset, gamma: float) -> AugmentedDataset:
    """Compute per-sample returns, state derivatives, and global statistics.

    ``gamma`` must lie in [0, 1].  Returns are computed over the recorded
    remainder of each episode only.  The final sample of every episode has
    no derivative and is excluded from ``sigma``.  A finite trace whose
    returns, state changes or spreads overflow the float range is a
    TraceFormatError.
    """
    if not (isinstance(gamma, (int, float)) and 0.0 <= gamma <= 1.0):
        raise ParameterError(f"gamma must lie in [0, 1], got {gamma!r}")
    gamma = float(gamma)

    states, actions, rewards = data.states, data.actions, data.rewards
    n, d = states.shape
    starts = data.starts.tolist()
    stops = starts[1:] + [n]
    last = np.subtract(stops, 1)  # each episode's last sample
    has_deriv = np.ones(n, dtype=bool)
    has_deriv[last] = False
    D = np.empty((n, d))
    V = np.empty(n)
    action_labels = action_codes = action_sigma = None
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        # the one-step change, zeroed on each episode's last sample
        np.subtract(states[1:], states[:-1], out=D[:-1])
        D[last] = 0.0
        for start, stop in zip(starts, stops):
            # backwards recurrence V_t = R_t + gamma * V_{t+1}
            acc = 0.0
            for t in range(stop - 1, start - 1, -1):
                acc = rewards[t] + gamma * acc
                V[t] = acc
        # population (ddof=0) spread over the defined rows
        sigma = D[has_deriv].std(axis=0) if has_deriv.any() else np.zeros(d)
        medians = np.median(states, axis=0)
        if data.action_kind == CONTINUOUS_VECTOR:
            action_sigma = actions.std(axis=0)
    if not np.isfinite(np.concatenate(
            [V, sigma, medians, [] if action_sigma is None else action_sigma])
            ).all():
        raise TraceFormatError("trace statistics overflow the float range: "
                               "a return, a state change or a spread is not "
                               "finite")
    feature_range = np.stack([states.min(axis=0), states.max(axis=0)], axis=1)

    if data.action_kind == DISCRETE:
        action_labels, action_codes = np.unique(actions, return_inverse=True)
        action_codes = action_codes.astype(np.int64)
    elif data.action_kind != CONTINUOUS_VECTOR:
        actions = actions.astype(float)

    return AugmentedDataset(
        base=data, gamma=gamma, states=states, actions=actions,
        rewards=rewards, V=V, D=D, has_deriv=has_deriv, sigma=sigma,
        feature_range=feature_range, medians=medians,
        episode_slices=list(zip(starts, stops, data.terminal.tolist())),
        action_labels=action_labels, action_codes=action_codes,
        action_sigma=action_sigma, feature_names=list(data.feature_names))


# ---------------------------------------------------------------------------
# External trace formats
#
# CSV: header `episode,t,terminal,<f1..fd>,<a or a1..am>,r`, rows sorted by
# (episode, t), `terminal` 0/1 on the last row of each episode.  Fields read
# as Python's int() and float() read them.  Loading goes a block of rows at a
# time into columns preallocated for every line of the input: each block is
# tokenised and its columns converted once, with the checks of a row on its
# own; the episode and step checks then run once as array passes over the
# whole trace.  The row-by-row scan runs only on a trace those passes
# reject, to name its first faulty row.  Writing goes an episode at a time,
# a column at a time.
# JSON: array of episodes `{terminal: bool, steps: [{s: [..], a: .., r: ..}]}`,
# read whole through ``json_document`` as every JSON input of the package is.
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 2048  # input lines tokenised and converted at once


def load_trace(source, format: str, action_kind: str | None = None) -> TraceDataset:
    """Parse a byte stream (or bytes/str) in the named trace format.

    ``action_kind`` forces the interpretation of action values; by default a
    single all-numeric action column is treated as discrete numeric labels,
    multiple action columns as a continuous vector, and non-numeric labels
    as discrete.
    """
    raw = source.read() if hasattr(source, "read") else source
    if format == "csv":
        return _load_csv(raw, action_kind)
    if format == "json":
        return _load_json(json_document(raw, "trace"), action_kind)
    raise ParameterError(f"unknown trace format {format!r}")


def load_trace_path(path, action_kind: str | None = None) -> TraceDataset:
    fmt = "json" if str(path).endswith(".json") else "csv"
    with open(path, "rb") as fh:
        return load_trace(fh, fmt, action_kind=action_kind)


def _text(part, whole, errors: str = "strict", what: str = "trace") -> str:
    """``part`` of the input as text.  Bytes are read as UTF-8; when they
    are not, the error names ``what`` and the first bad byte of ``whole``.
    Parts are cut at line ends, and no UTF-8 sequence holds a newline byte."""
    if isinstance(part, str):
        return part
    try:
        return str(part, "utf-8", errors)
    except UnicodeDecodeError:
        try:
            whole.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{what} is not UTF-8 text: {exc}") from None
        raise


class _RowFault(Exception):
    """A row check failed; ``_csv_row_fault`` names the row."""


def _load_csv(raw, action_kind: str | None) -> TraceDataset:
    """The CSV trace of ``raw`` (str or UTF-8 bytes), read a block at a time.

    A fault in tokenising (bytes that are not UTF-8, a row ``csv.reader``
    rejects) is named before any other, wherever it is in the input, as if
    the whole input were tokenised before any check."""
    if not raw:
        raise TraceFormatError("empty CSV trace")
    errors = "strict"
    if isinstance(raw, str):  # as bytes that read back as the same text
        raw, errors = raw.encode("utf-8", "surrogatepass"), "surrogatepass"
    # where each line ends: the offset just past its newline
    ends = np.flatnonzero(np.frombuffer(raw, np.uint8) == ord("\n")) + 1
    blocks = _csv_blocks(raw, ends, errors)
    try:
        return _csv_columns(blocks, len(ends) - raw.endswith(b"\n"), action_kind)
    except (TraceFormatError, _RowFault) as fault:
        for _ in blocks:  # a tokenising fault further on is named first
            pass
        if isinstance(fault, TraceFormatError):
            raise
        raise _csv_row_fault(_text(raw, raw, errors), *fault.args) from None


def _csv_columns(blocks, n_max: int, action_kind: str | None) -> TraceDataset:
    """The dataset of a CSV header and its blocks of rows, from
    ``_csv_blocks``, in two stages.  Each block's fields are converted with
    ``int()`` or ``float()`` into columns preallocated for ``n_max`` rows,
    and its field counts and flags are checked; then the episode order and
    steps are checked once over the whole trace.  The first failed check
    raises ``_RowFault``.  Actions are converted as numbers until the first
    that is not one; from there they are kept as read, and all of them are
    parsed once, after every row has passed."""
    header = next(blocks, [])
    if header[:3] != ["episode", "t", "terminal"] or not header or header[-1] != "r":
        raise TraceFormatError(
            "CSV header must be episode,t,terminal,<features>,<a or a1..am>,r")
    middle = header[3:-1]
    if "a" in middle:
        a_start = middle.index("a")
        action_cols = ["a"]
    else:
        a_start = next((i for i, name in enumerate(middle) if name == "a1"), len(middle))
        action_cols = middle[a_start:]
        if not action_cols or action_cols != [
                f"a{k}" for k in range(1, len(action_cols) + 1)]:
            raise TraceFormatError("action columns must be named a, or a1..am")
    feature_names = middle[:a_start]
    if not feature_names:
        raise TraceFormatError("CSV trace has no state feature columns")
    d = len(feature_names)
    m = len(action_cols)
    width = 3 + d + m + 1

    states = np.empty((n_max, d))
    rewards = np.empty(n_max)
    actions = np.empty((n_max, m))
    numeric = actions if m > 1 else actions[:, 0]  # the shape actions take
    raw_actions = None  # actions as read, from the first that is not a number
    row_numbers = np.empty(n_max, dtype=np.int64)
    ids, steps, ones = [], [], []  # each block's episode, t and flag == "1"
    n = 0
    for rows, counts, fields in blocks:
        b = len(counts)
        if not b:
            continue
        if (counts != width).any():
            raise _RowFault(width, d)
        columns = [fields[j::width] for j in range(width)]
        lo, hi = n, n + b
        try:
            ids.append(_int_column(columns[0]))
            steps.append(_int_column(columns[1]))
            for j in range(d):
                states[lo:hi, j] = np.fromiter(map(float, columns[3 + j]), float, b)
            rewards[lo:hi] = np.fromiter(map(float, columns[-1]), float, b)
        except ValueError:
            raise _RowFault(width, d) from None
        flags = list(map(str.strip, columns[2]))
        if not {"0", "1"}.issuperset(flags):
            raise _RowFault(width, d)
        ones.append(np.array(flags) == "1")
        row_numbers[lo:hi] = rows
        a_columns = columns[3 + d:3 + d + m]
        if raw_actions is None:
            try:
                for j, column in enumerate(a_columns):
                    actions[lo:hi, j] = np.fromiter(map(float, column), float, b)
            except ValueError:
                raw_actions = numeric[:lo].tolist()
        if raw_actions is not None:
            raw_actions.extend(zip(*a_columns) if m > 1 else a_columns[0])
        n = hi
    if not n:
        raise TraceFormatError("CSV trace has no data rows")

    # a row starts an episode when its id differs from the previous row's;
    # each row's t must then be its offset from that start (exact for ids
    # and steps of any size, where np.diff of int64 could wrap)
    episode = np.concatenate(ids)
    new = np.ones(n, dtype=bool)
    new[1:] = episode[1:] != episode[:-1]
    starts = np.flatnonzero(new)
    offsets = np.arange(n) - np.repeat(starts, np.diff(starts, append=n))
    if ((episode[starts[1:]] < episode[starts[1:] - 1]).any()
            or (np.concatenate(steps) != offsets).any()):
        raise _RowFault(width, d)
    terminal = np.concatenate(ones)[np.append(starts[1:], n) - 1]
    kind, actions = _parse_actions(
        numeric[:n] if raw_actions is None else raw_actions, m, action_kind,
        row_numbers.__getitem__)
    return TraceDataset(states[:n], actions, rewards[:n], starts, terminal,
                        kind, feature_names)


def _csv_blocks(data: bytes, ends, errors: str):
    """Tokenise non-empty CSV input, UTF-8 ``data`` whose lines end at
    ``ends``, a block of ``_BLOCK_ROWS`` lines at a time: yield the header's
    fields, then for each block the file row numbers of its non-blank rows
    (blank rows counted), their field counts and all their fields in one
    flat list.

    Input with no quote, carriage return or NUL and no line longer than
    ``csv.field_size_limit()`` (counted in bytes, which are at least its
    characters) is cut on newlines and commas, which is what ``csv.reader``
    makes of it.  Any other input goes through ``csv.reader``, and a fault
    it finds names the row it was reading."""
    view = memoryview(data)  # blocks are decoded without a copy of their bytes
    if (not any(c in data for c in (b'"', b"\r", b"\0"))
            and np.diff(ends, prepend=0, append=len(data)).max()
            <= csv.field_size_limit()):
        cuts = ends[::_BLOCK_ROWS].tolist()  # the header, then each block
        if not cuts or cuts[-1] < len(data):
            cuts.append(len(data))
        pos = line = 0  # where the next block starts, and the lines before it
        for end in cuts:
            lines = _text(view[pos:end], data, errors).split("\n")
            if lines[-1] == "":
                lines.pop()  # the newline that ends the block's last line
            if not line:
                yield lines[0].split(",") if lines[0] else []
            else:
                body = list(filter(None, lines))
                yield (_row_numbers(lines, line),
                       np.fromiter(map(str.count, body, repeat(",")),
                                   dtype=int, count=len(body)) + 1,
                       ",".join(body).split(","))
            line += len(lines)
            pos = end
        return
    reader = csv.reader(_lines(_text(view, data, errors)))
    record = 0  # records read so far
    while True:
        try:
            records = list(islice(reader, _BLOCK_ROWS if record else 1))
        except csv.Error as exc:
            raise TraceFormatError(f"row {reader.line_num}: {exc}") from None
        if not records:
            return
        if not record:
            yield records[0]
        else:
            body = list(filter(None, records))
            yield (_row_numbers(records, record),
                   np.fromiter(map(len, body), dtype=int, count=len(body)),
                   list(chain.from_iterable(body)))
        record += len(records)


def _lines(text: str):
    """The lines of ``text``, cut after each newline as ``io.StringIO`` cuts
    them, one at a time."""
    pos = 0
    while pos < len(text):
        end = text.find("\n", pos) + 1 or len(text)
        yield text[pos:end]
        pos = end


def _row_numbers(rows, before: int) -> np.ndarray:
    """The file row numbers of the non-blank ``rows``, which follow
    ``before`` rows."""
    return np.flatnonzero(np.fromiter(map(bool, rows), dtype=bool,
                                      count=len(rows))) + before + 1


def _int_column(column) -> np.ndarray:
    """``int()`` of every field: int64, or Python ints past its range."""
    values = list(map(int, column))
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


def _csv_row_fault(text: str, width: int, d: int) -> TraceFormatError:
    """The error naming the first faulty row of a CSV trace whose column
    checks failed, from the row-by-row checks in row order."""
    cur_ep = prev_t = None
    reader = csv.reader(_lines(text))
    next(reader)  # the header
    for idx, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            return TraceFormatError(
                f"row {idx}: expected {width} fields, got {len(row)}")
        try:
            ep_id = int(row[0])
            t = int(row[1])
            term = row[2].strip()
            for v in row[3:3 + d] + row[-1:]:
                float(v)
        except ValueError as exc:
            return TraceFormatError(f"row {idx}: {exc}")
        if term not in ("0", "1"):
            return TraceFormatError(f"row {idx}: terminal flag must be 0 or 1")
        if cur_ep is None or ep_id != cur_ep:
            if cur_ep is not None and ep_id < cur_ep:
                return TraceFormatError(f"row {idx}: episodes out of order")
            if t != 0:
                return TraceFormatError(f"row {idx}: episode {ep_id} must start at t=0")
            cur_ep = ep_id
        elif t != prev_t + 1:
            return TraceFormatError(f"row {idx}: non-consecutive t within episode {ep_id}")
        prev_t = t


def _load_json(payload, action_kind: str | None) -> TraceDataset:
    if not isinstance(payload, list) or not payload:
        raise TraceFormatError("JSON trace must be a non-empty array of episodes")
    states, actions, rewards, starts, terminals = [], [], [], [], []
    d = None
    vector = None
    for i, ep in enumerate(payload):
        if not isinstance(ep, dict) or "steps" not in ep:
            raise TraceFormatError(f"episode {i}: expected object with 'steps'")
        steps = ep["steps"]
        if not isinstance(steps, list):
            raise TraceFormatError(f"episode {i}: 'steps' must be an array")
        if not steps:
            raise TraceFormatError(f"episode {i} is empty")
        starts.append(len(states))
        for j, step in enumerate(steps):
            try:
                s = [float(v) for v in step["s"]]
                r = float(step["r"])
                a = step["a"]
                for v in a if isinstance(a, list) else [a]:
                    if isinstance(v, int):
                        float(v)  # an integer past the float range overflows
            except OverflowError:
                raise TraceFormatError(f"episode {i} step {j}: number "
                                       f"outside the float range") from None
            except (KeyError, TypeError, ValueError):
                raise TraceFormatError(
                    f"episode {i} step {j}: malformed step record") from None
            if d is None:
                d = len(s)
            elif len(s) != d:
                raise TraceFormatError(
                    f"episode {i} step {j}: state has {len(s)} features, expected {d}")
            is_vec = isinstance(a, (list, tuple))
            if vector is None:
                vector = is_vec
            elif vector != is_vec:
                raise TraceFormatError(
                    f"episode {i} step {j}: mixed scalar and vector actions")
            states.append(s)
            actions.append(a)
            rewards.append(r)
        terminals.append(bool(ep.get("terminal", False)))
    m = len(actions[0]) if vector else 1
    if m == 0:
        raise TraceFormatError("record 1: action vector is empty")
    if vector:
        for k, a in enumerate(actions):
            if len(a) != m:
                raise TraceFormatError(
                    f"record {k + 1}: action vector length {len(a)}, expected {m}")
        if m == 1:  # as a CSV with one a1 column
            actions = [a[0] for a in actions]
    kind, actions = _parse_actions(actions, m, action_kind, lambda k: k + 1)
    return TraceDataset(np.asarray(states, dtype=float), actions,
                        np.asarray(rewards, dtype=float), starts, terminals,
                        kind, [f"f{k}" for k in range(d)])


def _numeric(value) -> bool:
    try:
        float(value)
    except (TypeError, ValueError):
        return False
    return True


def _parse_actions(raw, m, action_kind, row_of):
    """Decide the action kind and parse the action column once: (n, m)
    floats for several columns, else floats when every action is numeric
    and string labels when none is.  ``raw`` holds the actions as read (a
    tuple of them per sample for several columns), or their float array
    when every one is a number.  ``row_of(k)`` names sample k's input row in
    error messages."""
    if m > 1 and action_kind not in (None, CONTINUOUS_VECTOR):
        raise TraceFormatError(
            f"multiple action columns are incompatible with {action_kind!r}")
    kind = CONTINUOUS_VECTOR if m > 1 else action_kind or DISCRETE
    try:
        values = raw if isinstance(raw, np.ndarray) else np.array(
            [[float(v) for v in a] for a in raw] if m > 1
            else [float(a) for a in raw])
    except (TypeError, ValueError):
        numeric = [all(map(_numeric, a)) if m > 1 else _numeric(a) for a in raw]
        bad = numeric.index(False)
        if m > 1:
            raise TraceFormatError(
                f"row {row_of(bad)}: vector action entries must be numeric") from None
        if any(numeric):
            raise TraceFormatError(f"row {row_of(bad)}: non-numeric action "
                                   f"label mixed with numeric actions") from None
        if kind in (CONTINUOUS_SCALAR, CONTINUOUS_VECTOR):
            raise TraceFormatError(
                f"row {row_of(bad)}: continuous actions must be numeric") from None
        return kind, np.array([str(a) for a in raw], dtype=object)
    return kind, values.reshape(-1, 1) if m == 1 and kind == CONTINUOUS_VECTOR \
        else values


def trace_to_csv_bytes(data: TraceDataset) -> bytes:
    """Serialise a trace in the CSV format accepted by ``load_trace``.

    The text is what ``csv.writer`` writes for one row per sample, numbers
    as ``repr(float)`` and a field holding a lone carriage return quoted
    like one holding a newline (so that the reader takes it back).  It is
    built an episode at a time and, within it, a column at a time: each
    column is formatted once, and only the header and the string labels go
    through the writer for its quoting.  Each episode's text is encoded as
    soon as it is built, so only one episode's columns are held as strings
    at once."""
    eps = data.episodes
    vector = data.action_kind == CONTINUOUS_VECTOR
    if vector:
        a_names = [f"a{k}" for k in range(1, eps[0].actions.shape[1] + 1)]
    else:
        a_names = ["a"]
        strings = list({a for ep in eps for a in np.asarray(ep.actions).tolist()
                        if isinstance(a, str)})
        quoted = dict(zip(strings, _csv_fields(strings)))
    header = _csv_fields(["episode", "t", "terminal"] + list(data.feature_names)
                         + a_names + ["r"])

    chunks = [(",".join(header) + "\n").encode("utf-8")]
    steps = list(map(str, range(max(map(len, eps)))))
    for ei, ep in enumerate(eps):
        T = len(ep)
        if vector:
            a_columns = [_float_texts(column) for column in ep.actions.T]
        else:
            a_columns = [[quoted[a] if isinstance(a, str) else repr(float(a))
                          for a in np.asarray(ep.actions).tolist()]]
        rows = zip(repeat(str(ei), T), steps[:T],
                   ["0"] * (T - 1) + ["1" if ep.terminal else "0"],
                   *[_float_texts(column) for column in ep.states.T],
                   *a_columns, _float_texts(ep.rewards))
        chunks.append(("\n".join(map(",".join, rows)) + "\n").encode("utf-8"))
    return b"".join(chunks)


def _csv_fields(strings) -> list[str]:
    """Each string as ``csv.writer`` writes it in a row of several fields,
    quoted also when it holds a lone carriage return, as it is quoted when
    it holds a newline.  (With "\\r\\n" as its line terminator the writer
    quotes both; each string is written beside an empty field because the
    writer quotes an empty string that is alone in its row.)"""
    lines = []
    writer = csv.writer(SimpleNamespace(write=lines.append),
                        lineterminator="\r\n")
    writer.writerows([s, ""] for s in strings)
    return [line[:-3] for line in lines]


def _float_texts(column) -> list[str]:
    return list(map(repr, np.asarray(column, dtype=float).tolist()))


def trace_to_json_bytes(data: TraceDataset) -> bytes:
    vector = data.action_kind == CONTINUOUS_VECTOR
    eps = [{"terminal": ep.terminal,
            "steps": [{"s": [float(v) for v in s],
                       "a": ([float(v) for v in a] if vector
                             else a if isinstance(a, str) else float(a)),
                       "r": float(r)}
                      for s, a, r in zip(ep.states, ep.actions, ep.rewards)]}
           for ep in data.episodes]
    return json_bytes(eps)


def json_document(raw, what: str):
    """The JSON value in ``raw``, UTF-8 bytes or text: the one JSON reader of
    the package, for traces, trees, road configs and policies.  Bytes that
    are not UTF-8 and text that is not JSON, nesting past Python's limits
    included, raise one TraceFormatError naming ``what``."""
    text = _text(raw, raw, what=what)  # a ValueError too: decoded outside
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError included
        raise TraceFormatError(f"invalid JSON {what}: {exc}") from None


def json_bytes(obj) -> bytes:
    """``obj`` in the one JSON encoding of every file the package writes:
    sorted keys, no spaces, and a newline at the end."""
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode()
