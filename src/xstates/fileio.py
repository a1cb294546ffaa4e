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
import tempfile

import numpy as np

from .core import XState, from_matrix, validate
from .dynamics import KrausSet, LindbladSpec, pauli_string_matrix


def format_float(x: float) -> str:
    return format(float(x), ".17g")


class _KeyCache(dict):
    """``_KEYS[k]`` is the encoding of dict key ``k`` with its separator.
    Reports and states repeat a few string keys, so up to 1024 of them are
    kept; other keys are encoded each time (1, 1.0 and True are equal as
    dict keys but encode differently)."""

    def __missing__(self, k) -> str:
        encoded = json.dumps(str(k)) + ": "
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
        return json.dumps(obj)
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
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
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


def _obj_to_complex(obj) -> complex:
    if isinstance(obj, dict):
        return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    return complex(float(obj))


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


def _read_object(path: str, what: str) -> dict:
    """The JSON object in file ``path``. Text nested too deeply to parse is
    malformed input (ValueError), like any other unparseable text."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
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
            [[_obj_to_complex(cell) for cell in row] for row in rows],
            dtype=np.complex128,
        )
        return from_matrix(m)
    missing = [k for k in ("a", "b", "c", "d") if k not in obj]
    if missing:
        raise ValueError(f"state object lacks keys {missing}")
    return validate(
        float(obj["a"]),
        float(obj["b"]),
        float(obj["c"]),
        float(obj["d"]),
        _obj_to_complex(obj.get("z", 0.0)),
        _obj_to_complex(obj.get("w", 0.0)),
    )


def load_state(path: str) -> XState:
    obj = _read_object(path, "state")
    with _parsing("state"):
        return state_from_obj(obj)


def save_state(path: str, x: XState) -> None:
    write_json(path, state_to_obj(x))


def save_corpus(path: str, states) -> None:
    """One JSON state object per line."""
    lines = [dumps(state_to_obj(x)) for x in states]
    atomic_write(path, "\n".join(lines) + "\n")


def load_corpus(path: str):
    states = []
    with open(path) as fh, _parsing("corpus"):
        for line in fh:
            line = line.strip()
            if line:
                states.append(state_from_obj(json.loads(line)))
    return states


# ---------------------------------------------------------------------------
# operators and dynamics configs
# ---------------------------------------------------------------------------


def operator_from_obj(obj) -> np.ndarray:
    """An operator given as a Pauli string, a {string: coeff} combination,
    or a nested 4x4 matrix with [re, im] (or plain real) entries."""
    if isinstance(obj, str):
        return pauli_string_matrix(obj)
    if isinstance(obj, dict):
        coeffs = _finite([float(c) for c in obj.values()], "operator coefficients")
        m = np.zeros((4, 4), dtype=np.complex128)
        for label, coeff in zip(obj, coeffs):
            m += coeff * pauli_string_matrix(label)
        return m
    m = np.array(
        [[_obj_to_complex(cell) for cell in row] for row in obj], dtype=np.complex128
    )
    if m.shape != (4, 4):
        raise ValueError(f"operator must be 4x4, got shape {m.shape}")
    return _finite(m, "operator entries")


def _coupling_from_obj(obj, k: int) -> np.ndarray:
    if obj is None:
        raise ValueError("dynamics config needs either 'h' or 'rates'")
    arr = _finite([[_obj_to_complex(cell) for cell in row] for row in obj], "coupling h")
    if arr.shape != (k, k):
        raise ValueError(f"coupling must be {k}x{k}, got shape {arr.shape}")
    return arr


def lindblad_from_obj(obj: dict) -> LindbladSpec:
    _require_object(obj, "lindblad spec")
    ops = tuple(operator_from_obj(o) for o in obj.get("operators", []))
    if "h" in obj:
        coupling = _coupling_from_obj(obj["h"], len(ops))
    elif "rates" in obj:
        rates = _finite([float(r) for r in obj["rates"]], "rates")
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
    with _parsing("dynamics config"):
        return {
            "spec": lindblad_from_obj(obj),
            "initial_state": state_from_obj(obj["initial_state"]),
            "dt": float(obj["dt"]),
            "t_max": float(obj["t_max"]),
            "sample_every": int(obj.get("sample_every", 1)),
            "measures": tuple(obj.get("measures", ["concurrence"])),
        }


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


def save_report(path: str, report_dict: dict, fmt: str = "json") -> None:
    if fmt == "json":
        write_json(path, report_dict)
    elif fmt == "csv":
        atomic_write(path, report_to_csv(report_dict))
    else:
        raise ValueError(f"unknown format {fmt!r}")


def trajectory_to_csv(traj) -> str:
    names = sorted(traj.measures)
    header = "time,a,b,c,d,z_re,z_im,w_re,w_im" + "".join("," + n for n in names)
    lines = [header]
    for i, t in enumerate(traj.times):
        s = traj.states[i]
        z, w = complex(s.z), complex(s.w)
        row = [t, s.a, s.b, s.c, s.d, z.real, z.imag, w.real, w.imag]
        row.extend(traj.measures[n][i] for n in names)
        lines.append(",".join(format_float(v) for v in row))
    return "\n".join(lines) + "\n"


def save_trajectory(path: str, traj) -> None:
    atomic_write(path, trajectory_to_csv(traj))
