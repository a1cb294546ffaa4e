"""File formats: X-state files, dynamics configs, reports, trajectories,
campaign statistics, and run manifests.

All numbers are emitted with 17 significant digits so parsed values
round-trip bit-for-bit. Writes go to a temporary file in the target
directory followed by an atomic rename; failures leave no partial output.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from json.encoder import encode_basestring_ascii

import numpy as np

from .core import XState, from_matrix, stack, unstack, validate
from .dynamics import KrausSet, LindbladSpec, pauli_string_matrix
from .errors import ValidationError


def format_float(x: float) -> str:
    return format(float(x), ".17g")


class _KeyCache(dict):
    """``_KEYS[k]`` is the encoding of dict key ``k`` with its separator.
    Reports and states repeat a few string keys, so up to 1024 of them are
    kept; other keys are encoded each time (1, 1.0 and True are equal as
    dict keys but encode differently)."""

    def __missing__(self, k) -> str:
        encoded = encode_basestring_ascii(str(k)) + ": "
        if type(k) is str and len(self) < 1024:
            self[k] = encoded
        return encoded


_KEYS = _KeyCache()


def _emit(obj) -> str:
    # finite floats, dicts, lists and strings first: report and state dicts
    # hold little else. x - x is NaN for NaN and infinities, which fall
    # through to the refusal below.
    if type(obj) is float and obj - obj == 0.0:
        return "%.17g" % obj
    if isinstance(obj, dict):
        return "{" + ", ".join([
            _KEYS[k] + ("%.17g" % v if type(v) is float and v - v == 0.0 else _emit(v))
            for k, v in obj.items()
        ]) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join([
            "%.17g" % v if type(v) is float and v - v == 0.0 else _emit(v) for v in obj
        ]) + "]"
    if isinstance(obj, str):
        # the bytes of json.dumps(obj), without building an encoder
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError(f"cannot serialize the non-finite number {obj!r}")
        return format_float(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits; NaN and infinities
    raise ValueError, since JSON has no token for them."""
    return _emit(obj)


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 to a new file beside ``path`` and rename it to
    ``path``, so a failure leaves no partial output. The file gets the mode
    that ``open(path, "w")`` gives under the process umask."""
    data = memoryview(str.encode(text))  # TypeError for anything but a str
    directory = os.path.dirname(os.path.abspath(path)) or "."
    while True:
        tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}.part")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json(path: str, obj) -> None:
    atomic_write(path, dumps(obj) + "\n")


# ---------------------------------------------------------------------------
# X-state files
# ---------------------------------------------------------------------------


def _complex_to_obj(v: complex) -> dict:
    v = complex(v)
    return {"re": v.real, "im": v.imag}


def _obj_to_complex(obj, key: str) -> complex:
    if isinstance(obj, dict):
        return complex(_number(obj.get("re", 0.0), key, float),
                       _number(obj.get("im", 0.0), key, float))
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(_number(obj[0], key, float), _number(obj[1], key, float))
    return complex(_number(obj, key, float))


def _finite(values, what: str) -> np.ndarray:
    """``values`` as a complex array; raises ValueError on NaN or infinity."""
    arr = np.asarray(values, dtype=np.complex128)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} must be finite")
    return arr


def _require_object(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


# JSON text to Python values. dumps writes the float -0.0 as "-0", which
# reads as -0.0 here rather than as the integer 0, so every float written
# reads back with its bits
_decode = json.JSONDecoder(parse_int=lambda t: -0.0 if t == "-0" else int(t)).decode


def _read_object(path: str, what: str) -> dict:
    """The JSON object in file ``path``. Text nested too deeply to parse is
    malformed input (ValueError), like any other unparseable text."""
    with open(path) as fh:
        try:
            obj = _decode(fh.read())
        except RecursionError as exc:
            raise ValueError(f"{what} is nested too deeply to parse") from exc
    return _require_object(obj, what)


@contextlib.contextmanager
def _parsing(what: str):
    """Reports a JSON value of the wrong type or a number out of range, which
    surface as a TypeError or an OverflowError while parsing, as malformed
    input (ValueError)."""
    try:
        yield
    except (TypeError, OverflowError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def state_to_obj(x: XState) -> dict:
    return {
        "a": x.a,
        "b": x.b,
        "c": x.c,
        "d": x.d,
        "z": _complex_to_obj(x.z),
        "w": _complex_to_obj(x.w),
    }


def state_from_obj(obj: dict) -> XState:
    _require_object(obj, "state")
    if "matrix" in obj:
        rows = obj["matrix"]
        m = np.array(
            [[_obj_to_complex(cell, "matrix entry") for cell in row] for row in rows],
            dtype=np.complex128,
        )
        return from_matrix(m)
    return validate(*_state_params(obj))


def _state_params(obj: dict) -> tuple:
    """The parameters (a, b, c, d, z, w) of a state object, not validated."""
    missing = [k for k in ("a", "b", "c", "d") if k not in obj]
    if missing:
        raise ValueError(f"state object lacks keys {missing}")
    return (
        _number(obj["a"], "a", float),
        _number(obj["b"], "b", float),
        _number(obj["c"], "c", float),
        _number(obj["d"], "d", float),
        _obj_to_complex(obj.get("z", 0.0), "z"),
        _obj_to_complex(obj.get("w", 0.0), "w"),
    )


def load_state(path: str) -> XState:
    obj = _read_object(path, "state")
    with _parsing("state"):
        return state_from_obj(obj)


def save_state(path: str, x: XState) -> None:
    write_json(path, state_to_obj(x))


# dumps(state_to_obj(x)) of a state x, written from its eight real numbers
_CORPUS_LINE = ('{"a": %.17g, "b": %.17g, "c": %.17g, "d": %.17g, '
                '"z": {"re": %.17g, "im": %.17g}, "w": {"re": %.17g, "im": %.17g}}')


def save_corpus(path: str, states) -> None:
    """One JSON state object per line, each the bytes of
    ``dumps(state_to_obj(x))``. ``states`` is a batch (see
    :func:`~xstates.core.stack`) or a sequence of states; the lines are
    written from the batch's columns with one template."""
    batch = states if isinstance(states, XState) else stack(list(states))
    z, w = batch.z, batch.w
    columns = np.array([batch.a, batch.b, batch.c, batch.d, z.real, z.imag, w.real, w.imag],
                       dtype=float)
    if not np.isfinite(columns).all():
        raise ValueError("cannot serialize a state with non-finite parameters")
    lines = [_CORPUS_LINE % row for row in zip(*columns.tolist())]
    atomic_write(path, "\n".join(lines) + "\n")


def load_corpus(path: str) -> list:
    """The states of a corpus file, one JSON state object per line, blank
    lines skipped. Lines in the parameter form are parsed into columns and
    validated as one batch; a line in the matrix form is taken as
    :func:`load_state` takes it. The first bad line raises a ValueError
    (for an invalid state, its :class:`~xstates.errors.ValidationError`)
    whose message begins with its 1-based line number."""
    columns = ([], [], [], [], [], [])
    numbers = []  # the line number of each row of the columns
    matrix_states = {}  # position in the corpus -> state of a matrix line
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = _require_object(_decode(line), "state")
                if "matrix" in obj:
                    matrix_states[len(numbers) + len(matrix_states)] = state_from_obj(obj)
                    continue
                for column, value in zip(columns, _state_params(obj)):
                    column.append(value)
            except ValueError as exc:
                _validate_rows(columns, numbers)  # an earlier invalid state goes first
                exc.args = (f"corpus line {number}: {exc}",)
                raise
            except (TypeError, OverflowError, RecursionError) as exc:
                _validate_rows(columns, numbers)
                raise ValueError(f"corpus line {number}: malformed state: {exc}") from exc
            numbers.append(number)
    states = unstack(_validate_rows(columns, numbers))
    for position, x in matrix_states.items():  # in increasing position
        states.insert(position, x)
    return states


def _validate_rows(columns: tuple, numbers: list) -> XState:
    """The batch of the rows of ``columns``; an invalid row's error is
    prefixed with its corpus line from ``numbers``."""
    try:
        return validate(*map(np.array, columns))
    except ValidationError as exc:
        exc.args = (f"corpus line {numbers[exc.index]}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# operators and dynamics configs
# ---------------------------------------------------------------------------


def operator_from_obj(obj) -> np.ndarray:
    """An operator given as a Pauli string, a {string: coeff} combination,
    or a nested 4x4 matrix with [re, im] (or plain real) entries."""
    if isinstance(obj, str):
        return pauli_string_matrix(obj)
    if isinstance(obj, dict):
        coeffs = _finite([_number(c, "operator coefficient", float) for c in obj.values()],
                         "operator coefficients")
        m = np.zeros((4, 4), dtype=np.complex128)
        for label, coeff in zip(obj, coeffs):
            m += coeff * pauli_string_matrix(label)
        return m
    m = np.array(
        [[_obj_to_complex(c, "operator entry") for c in row] for row in obj], dtype=np.complex128
    )
    if m.shape != (4, 4):
        raise ValueError(f"operator must be 4x4, got shape {m.shape}")
    return _finite(m, "operator entries")


def _coupling_from_obj(obj, k: int) -> np.ndarray:
    if obj is None:
        raise ValueError("dynamics config needs either 'h' or 'rates'")
    arr = _finite([[_obj_to_complex(c, "h entry") for c in row] for row in obj], "coupling h")
    if arr.shape != (k, k):
        raise ValueError(f"coupling must be {k}x{k}, got shape {arr.shape}")
    return arr


def lindblad_from_obj(obj: dict) -> LindbladSpec:
    _require_object(obj, "lindblad spec")
    ops = tuple(operator_from_obj(o) for o in obj.get("operators", []))
    if "h" in obj:
        coupling = _coupling_from_obj(obj["h"], len(ops))
    elif "rates" in obj:
        rates = _finite([_number(r, "rate", float) for r in obj["rates"]], "rates")
        if len(rates) != len(ops):
            raise ValueError(f"{len(rates)} rates for {len(ops)} operators")
        coupling = np.diag(rates)
    else:
        coupling = np.zeros((len(ops), len(ops)), dtype=complex)
    ham = obj.get("hamiltonian")
    return LindbladSpec(
        operators=ops,
        coupling=coupling,
        hamiltonian=None if ham is None else operator_from_obj(ham),
    )


def load_dynamics_config(path: str) -> dict:
    """Returns {'spec', 'initial_state', 'dt', 't_max', 'sample_every',
    'measures'} from an evolve config file."""
    obj = _read_object(path, "dynamics config")
    for key in ("initial_state", "dt", "t_max"):
        if key not in obj:
            raise ValueError(f"dynamics config lacks key {key!r}")
    measures = obj.get("measures", ["concurrence"])
    if not isinstance(measures, list):
        raise ValueError(f"measures must be a list of names, got {measures!r}")
    with _parsing("dynamics config"):
        return {
            "spec": lindblad_from_obj(obj),
            "initial_state": state_from_obj(obj["initial_state"]),
            "dt": _number(obj["dt"], "dt", float),
            "t_max": _number(obj["t_max"], "t_max", float),
            "sample_every": _number(obj.get("sample_every", 1), "sample_every", int),
            "measures": tuple(measures),
        }


def _number(value, key: str, kind):
    """``kind(value)`` of a JSON number, refusing bools and lost fractions."""
    if type(value) is kind:  # most values, and the fast path of a corpus line
        return value
    if type(value) not in (int, float):
        raise ValueError(f"{key} must be a number, got {value!r}")
    if kind is int and int(value) != value:
        raise ValueError(f"{key} must be a whole number, got {value!r}")
    return kind(value)


def load_check_config(path: str):
    """Returns ('kraus', KrausSet) or ('lindblad', LindbladSpec)."""
    obj = _read_object(path, "check config")
    with _parsing("check config"):
        if "kraus" in obj:
            return "kraus", KrausSet(tuple(operator_from_obj(o) for o in obj["kraus"]))
        if "lindblad" in obj:
            return "lindblad", lindblad_from_obj(obj["lindblad"])
    raise ValueError("check config needs a 'kraus' or 'lindblad' key")


# ---------------------------------------------------------------------------
# reports, trajectories, campaigns
# ---------------------------------------------------------------------------


def report_to_csv(report_dict: dict) -> str:
    keys = []
    values = []
    for key, val in report_dict.items():
        if isinstance(val, (list, tuple)):
            for i, item in enumerate(val):
                keys.append(f"{key}_{i + 1}")
                values.append(item)
        else:
            keys.append(key)
            values.append(val)
    cells = []
    for val in values:
        if val is None:
            cells.append("")
        elif isinstance(val, bool) or isinstance(val, str):
            cells.append(str(val))
        elif isinstance(val, (int, np.integer)):
            cells.append(str(int(val)))
        else:
            cells.append(format_float(val))
    return ",".join(keys) + "\n" + ",".join(cells) + "\n"


def trajectory_to_csv(traj) -> str:
    """One row per sample: time, the state's parameters and the recorded
    measures, each value at 17 significant digits."""
    names = sorted(traj.measures)
    header = "time,a,b,c,d,z_re,z_im,w_re,w_im" + "".join("," + n for n in names)
    s = traj.samples
    columns = [traj.times, s.a, s.b, s.c, s.d, s.z.real, s.z.imag, s.w.real, s.w.imag]
    columns += [traj.measures[n] for n in names]
    row = ",".join(["%.17g"] * len(columns))
    return "\n".join([header] + [row % r for r in zip(*(c.tolist() for c in columns))]) + "\n"


def save_trajectory(path: str, traj) -> None:
    atomic_write(path, trajectory_to_csv(traj))
