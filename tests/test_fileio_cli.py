"""File formats, manifests, determinism, and CLI exit codes."""

import contextlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xstates as xs
from xstates import fileio
from xstates.cli import _ERRORS, EXIT_PARSE, main
from test_output_bytes import edge_states


def run_cli(*args):
    return main(list(args))


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        x = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.1 + 0.05j, w=0.12 - 0.03j)
        path = tmp_path / "state.json"
        fileio.save_state(str(path), x)
        y = fileio.load_state(str(path))
        assert y == x  # 17 significant digits round-trip exactly

    def test_matrix_form_accepted(self, tmp_path):
        x = xs.werner(0.5)
        m = x.to_matrix()
        obj = {"matrix": [[[v.real, v.imag] for v in row] for row in m]}
        path = tmp_path / "matrix.json"
        path.write_text(json.dumps(obj))
        y = fileio.load_state(str(path))
        assert y.a == pytest.approx(x.a, abs=1e-15)
        assert complex(y.w) == pytest.approx(complex(x.w), abs=1e-15)

    def test_corpus_round_trip(self, tmp_path):
        # real and complex coherences, and the edge states (Bell, product
        # |00>, zero coherences) with negative zeros in the coherences
        states = [xs.random_xstate(3, i) for i in range(20)]
        states += [xs.random_xstate(3, i, complex_phases=True) for i in range(20)]
        states += edge_states()
        states += [xs.validate(0.4, 0.3, 0.2, 0.1, z=complex(-0.0, -0.0), w=complex(0.0, -0.0)),
                   xs.validate(0.25, 0.25, 0.25, 0.25, z=complex(-0.1, 0.0), w=-0.0)]
        path = tmp_path / "corpus.jsonl"
        fileio.save_corpus(str(path), states)
        loaded = fileio.load_corpus(str(path))
        assert loaded == states
        assert [state_bits(x) for x in loaded] == [state_bits(x) for x in states]
        lines = path.read_text().splitlines()
        assert lines == [fileio.dumps(fileio.state_to_obj(x)) for x in states]
        batch_path = tmp_path / "batch.jsonl"
        fileio.save_corpus(str(batch_path), xs.stack(states))
        assert batch_path.read_bytes() == path.read_bytes()

    def test_empty_corpus_round_trip(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        fileio.save_corpus(str(path), [])
        assert fileio.load_corpus(str(path)) == []
        path.write_text("")
        assert fileio.load_corpus(str(path)) == []

    def test_seventeen_digit_floats(self):
        text = fileio.dumps({"x": 1.0 / 3.0})
        assert json.loads(text)["x"] == 1.0 / 3.0
        assert "0.33333333333333331" in text

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), np.nan])
    def test_non_finite_floats_rejected(self, value):
        with pytest.raises(ValueError, match="non-finite"):
            fileio.dumps({"x": [0.5, value]})


def state_bits(x) -> bytes:
    """The eight real numbers of a state as IEEE doubles, negative zeros
    included."""
    z, w = complex(x.z), complex(x.w)
    return struct.pack("<8d", x.a, x.b, x.c, x.d, z.real, z.imag, w.real, w.imag)


CORPUS = [fileio.dumps(fileio.state_to_obj(xs.random_xstate(9, i))) for i in range(5)]


class TestAtomicWrite:
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002], ids=oct)
    def test_mode_is_that_of_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            fileio.atomic_write(str(tmp_path / "atomic.txt"), "x\n")
            with open(tmp_path / "plain.txt", "w") as fh:
                fh.write("x\n")
        finally:
            os.umask(old)
        modes = [os.stat(tmp_path / name).st_mode for name in ("atomic.txt", "plain.txt")]
        assert modes[0] == modes[1] == 0o100666 & ~umask

    def test_cli_outputs_get_the_mode_of_open(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert run_cli("gen", "--n", "3", "--seed", "1", "--out", str(out)) == 0
        with open(tmp_path / "plain.txt", "w"):
            pass
        mode = os.stat(tmp_path / "plain.txt").st_mode
        assert os.stat(out).st_mode == mode
        assert os.stat(tmp_path / "c.jsonl.manifest.json").st_mode == mode

    def test_failure_leaves_no_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old\n")
        with pytest.raises(TypeError):
            fileio.atomic_write(str(target), b"not text")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]
        assert target.read_text() == "old\n"


class TestCorpusErrors:
    """A bad corpus line raises a ValueError (the CLI's exit 2) whose message
    names the line, counted from 1 with blank lines included."""

    @staticmethod
    def write(tmp_path, lines) -> str:
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @pytest.mark.parametrize("bad, error, message", [
        ('{"a": 0.5, "b": 0.5,', json.JSONDecodeError, "Expecting property name"),
        ('{"a": "0.25", "b": 0.25, "c": 0.25, "d": 0.25}', ValueError,
         "a must be a number, got '0.25'"),
        ('[0.25, 0.25, 0.25, 0.25]', ValueError, "state must be a JSON object"),
        ('{"a": 0.25, "b": 0.25, "c": 0.25}', ValueError, "lacks keys ['d']"),
        ('{"a": -0.1, "b": 0.5, "c": 0.4, "d": 0.2}', xs.errors.NegativePopulation,
         "population a = -0.1 is negative"),
        ('{"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25, "z": {"re": 0.3, "im": 0.0}}',
         xs.errors.CoherenceBoundViolated, "|z| = 0.3 exceeds its positivity bound"),
        ('{"matrix": 5}', ValueError, "malformed state"),
        ('{"matrix": [[0.5, 0, 0, 0], [0, 0.5, 0, 0.1], [0, 0, 0, 0], [0, 0.1, 0, 0]]}',
         xs.errors.NotXShaped, "off-pattern entry (1, 3)"),
    ])
    def test_bad_line_is_named(self, tmp_path, bad, error, message):
        path = self.write(tmp_path, CORPUS[:2] + [bad] + CORPUS[2:4])
        with pytest.raises(error) as exc:
            fileio.load_corpus(path)
        code = next(c for cls, c, _ in _ERRORS if isinstance(exc.value, cls))
        assert code == EXIT_PARSE
        assert str(exc.value).startswith("corpus line 3: ")
        assert message in str(exc.value)

    def test_first_invalid_state_is_named(self, tmp_path):
        bad = '{"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5}'
        path = self.write(tmp_path, CORPUS[:3] + [bad, CORPUS[3], bad])
        with pytest.raises(xs.errors.TraceError, match=r"^corpus line 4: populations sum to 2"):
            fileio.load_corpus(path)

    @pytest.mark.parametrize("later", [
        '{"a": 0.5, "b": 0.5,',
        '{"a": 0.25, "b": 0.25, "c": 0.25}',
        '{"matrix": 5}',
        '{"matrix": [[0.5, 0, 0, 0], [0, 0.5, 0, 0.1], [0, 0, 0, 0], [0, 0.1, 0, 0]]}',
    ])
    def test_invalid_state_is_named_before_a_later_bad_line(self, tmp_path, later):
        bad = '{"a": -0.1, "b": 0.5, "c": 0.4, "d": 0.2}'
        path = self.write(tmp_path, [CORPUS[0], bad, CORPUS[1], later, CORPUS[2]])
        with pytest.raises(xs.errors.NegativePopulation, match=r"^corpus line 2: population a"):
            fileio.load_corpus(path)

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        lines = ["", CORPUS[0], "   ", "", CORPUS[1], "\t"]
        assert fileio.load_corpus(self.write(tmp_path, lines)) == fileio.load_corpus(
            self.write(tmp_path, CORPUS[:2]))
        path = self.write(tmp_path, lines + ['{"a": 1.5, "b": 0.0, "c": 0.0, "d": -0.5}'])
        with pytest.raises(xs.errors.NegativePopulation, match=r"^corpus line 7: "):
            fileio.load_corpus(path)

    def test_matrix_line_loads_as_a_state_file(self, tmp_path):
        m = xs.random_xstate(4, 1, complex_phases=True).to_matrix()
        matrix_line = json.dumps({"matrix": [[[v.real, v.imag] for v in row] for row in m]})
        (tmp_path / "state.json").write_text(matrix_line)
        expected = fileio.load_state(str(tmp_path / "state.json"))
        loaded = fileio.load_corpus(self.write(tmp_path, [CORPUS[0], matrix_line, CORPUS[1]]))
        assert [state_bits(x) for x in loaded] == [
            state_bits(x) for x in (fileio.load_corpus(self.write(tmp_path, CORPUS[:1]))[0],
                                    expected,
                                    fileio.load_corpus(self.write(tmp_path, CORPUS[1:2]))[0])]


class TestOperatorParsing:
    def test_pauli_string(self):
        m = fileio.operator_from_obj("ZI")
        assert np.abs(m - np.kron(np.diag([1.0, -1.0]), np.eye(2))).max() == 0.0

    def test_pauli_combination(self):
        m = fileio.operator_from_obj({"ZZ": 1.0, "XX": 0.5})
        expected = xs.pauli_string_matrix("ZZ") + 0.5 * xs.pauli_string_matrix("XX")
        assert np.abs(m - expected).max() == 0.0

    def test_nested_matrix(self):
        obj = [[[1, 0], [0, 0], [0, 0], [0, 0]],
               [[0, 0], [1, 0], [0, 0], [0, 0]],
               [[0, 0], [0, 0], [1, 0], [0, 0]],
               [[0, 0], [0, 0], [0, 0], [1, 0]]]
        assert np.abs(fileio.operator_from_obj(obj) - np.eye(4)).max() == 0.0

    def test_bad_string_rejected(self):
        with pytest.raises(ValueError):
            fileio.operator_from_obj("QQ")


class TestMeasuresCommand:
    def test_report_file_and_manifest(self, tmp_path):
        state = tmp_path / "w.json"
        fileio.save_state(str(state), xs.werner(0.5))
        out = tmp_path / "report.json"
        rc = run_cli("measures", "--in", str(state), "--out", str(out))
        assert rc == 0
        rep = json.loads(out.read_text())
        assert rep["concurrence"] == pytest.approx(0.25)
        assert rep["schmidt_number"] == 4
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["subcommand"] == "measures"
        assert manifest["status"] == "ok"

    def test_csv_format(self, tmp_path):
        state = tmp_path / "w.json"
        fileio.save_state(str(state), xs.bell(0))
        out = tmp_path / "report.csv"
        assert run_cli("measures", "--in", str(state), "--out", str(out), "--format", "csv") == 0
        header, row = out.read_text().strip().split("\n")
        assert header.split(",")[0] == "concurrence"
        assert float(row.split(",")[0]) == 1.0

    def test_csv_leaves_missing_mmm_empty(self, tmp_path):
        state = tmp_path / "generic.json"
        fileio.save_state(str(state), xs.validate(0.4, 0.3, 0.2, 0.1, z=0.1))
        out = tmp_path / "report.csv"
        assert run_cli("measures", "--in", str(state), "--out", str(out), "--format", "csv") == 0
        header, row = out.read_text().strip().split("\n")
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["mmm_discord"] == ""
        assert cells["side"] == "B"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_bytes_equal_out_file_bytes(self, tmp_path, capsysbinary, fmt):
        state = tmp_path / "s.json"
        fileio.save_state(str(state), xs.validate(0.4, 0.3, 0.2, 0.1, z=0.1 + 0.02j, w=0.05))
        out = tmp_path / f"report.{fmt}"
        assert run_cli("measures", "--in", str(state), "--format", fmt) == 0
        printed = capsysbinary.readouterr().out
        assert run_cli("measures", "--in", str(state), "--out", str(out), "--format", fmt) == 0
        assert printed and printed == out.read_bytes()

    def test_side_flag_switches_measured_subsystem(self, tmp_path):
        x = xs.validate(0.4, 0.3, 0.2, 0.1, z=0.1, w=0.05)
        state = tmp_path / "s.json"
        fileio.save_state(str(state), x)
        out = tmp_path / "report.json"
        assert run_cli("measures", "--in", str(state), "--out", str(out), "--side", "A") == 0
        rep = json.loads(out.read_text())
        assert rep["side"] == "A"
        assert rep["approx_discord"] == pytest.approx(xs.approx_discord(x, side="A").q)
        assert rep["approx_discord"] != pytest.approx(xs.approx_discord(x, side="B").q)

    def test_missing_output_directory_exits_3(self, tmp_path, capsys):
        state = tmp_path / "s.json"
        fileio.save_state(str(state), xs.werner(0.5))
        out = tmp_path / "missing" / "r.json"
        assert run_cli("measures", "--in", str(state), "--out", str(out)) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("i/o error: ")
        assert not out.parent.exists()

    def test_invalid_state_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25,
                                   "z": {"re": 0.3, "im": 0.0}}))
        assert run_cli("measures", "--in", str(bad)) == 2
        assert "positivity bound" in capsys.readouterr().err

    def test_unparseable_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        proc = subprocess.run(
            [sys.executable, "-m", "xstates.cli", "measures", "--in", str(bad)],
            capture_output=True,
        )
        assert proc.returncode == 2


class TestGenCommand:
    def test_deterministic_output_bytes(self, tmp_path):
        out1 = tmp_path / "c1.jsonl"
        out2 = tmp_path / "c2.jsonl"
        assert run_cli("gen", "--n", "50", "--seed", "7", "--out", str(out1)) == 0
        assert run_cli("gen", "--n", "50", "--seed", "7", "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_all_valid_and_manifest_fraction(self, tmp_path):
        out = tmp_path / "c.jsonl"
        assert run_cli("gen", "--n", "100", "--seed", "1", "--out", str(out)) == 0
        states = fileio.load_corpus(str(out))
        assert len(states) == 100
        manifest = json.loads((tmp_path / "c.jsonl.manifest.json").read_text())
        measured = sum(1 for s in states if xs.concurrence(s) > 0) / 100
        assert manifest["frac_entangled"] == pytest.approx(measured)

    def test_zero_states_exits_2(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        with pytest.raises(SystemExit) as exc:
            run_cli("gen", "--n", "0", "--out", str(out))
        assert exc.value.code == 2
        assert "argument --n: must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()


class TestValidateApproxCommand:
    def test_small_campaign(self, tmp_path):
        out = tmp_path / "stats.json"
        assert run_cli("validate-approx", "--n", "100", "--seed", "1",
                       "--grid", "48", "--out", str(out)) == 0
        stats = json.loads(out.read_text())
        assert stats["n"] == 100
        assert stats["max_err"] < 1e-3
        rerun = tmp_path / "stats2.json"
        assert run_cli("validate-approx", "--n", "100", "--seed", "1",
                       "--grid", "48", "--out", str(rerun)) == 0
        assert out.read_bytes() == rerun.read_bytes()

    def test_progress_logged_only_when_verbose(self, tmp_path, capsys):
        quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
        assert run_cli("validate-approx", "--n", "2000", "--out", str(quiet)) == 0
        assert capsys.readouterr() == ("", "")
        assert run_cli("-v", "validate-approx", "--n", "2000", "--out", str(loud)) == 0
        assert capsys.readouterr() == ("", "1000/2000 states\n2000/2000 states\n")
        assert quiet.read_bytes() == loud.read_bytes()
        manifests = [_DURATION.sub(b"", (tmp_path / f"{p.name}.manifest.json").read_bytes())
                     for p in (quiet, loud)]
        assert manifests[0] == manifests[1].replace(b"loud.json", b"quiet.json")

    @pytest.mark.parametrize("n, grid, message", [
        ("0", "64", "argument --n: must be >= 1, got 0"),
        ("10", "1", "argument --grid: must be >= 2, got 1"),
    ])
    def test_out_of_range_exits_2(self, tmp_path, capsys, n, grid, message):
        out = tmp_path / "stats.json"
        with pytest.raises(SystemExit) as exc:
            run_cli("validate-approx", "--n", n, "--grid", grid, "--out", str(out))
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestEvolveCommand:
    def write_config(self, tmp_path, **overrides):
        cfg = {
            "initial_state": {"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5,
                              "w": {"re": 0.5, "im": 0.0}},
            "operators": ["ZI"],
            "rates": [1.0],
            "dt": 1e-3,
            "t_max": 0.1,
            "sample_every": 10,
            "measures": ["concurrence"],
        }
        cfg.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_dephasing_trajectory(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "traj.csv"
        assert run_cli("evolve", "--in", str(cfg), "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "time,a,b,c,d,z_re,z_im,w_re,w_im,concurrence"
        for line in lines[1:]:
            vals = [float(v) for v in line.split(",")]
            t, w_re, conc = vals[0], vals[7], vals[9]
            assert w_re == pytest.approx(0.5 * math.exp(-4.0 * t), abs=1e-8)
            assert conc == pytest.approx(math.exp(-4.0 * t), abs=1e-8)
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["esd_time"] is None
        assert manifest["max_leakage"] <= 1e-10

    def test_zero_rate_constant_columns(self, tmp_path):
        cfg = self.write_config(tmp_path, rates=[0.0])
        out = tmp_path / "traj.csv"
        assert run_cli("evolve", "--in", str(cfg), "--out", str(out)) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        w_values = {row[7] for row in rows}
        assert len(w_values) == 1

    def test_esd_reported_in_manifest(self, tmp_path):
        def as_obj(m):
            return [[[v.real, v.imag] for v in row] for row in m]

        sm = np.array([[0, 1], [0, 0]], dtype=complex)
        cfg = self.write_config(
            tmp_path,
            initial_state={"a": 0.475, "b": 0.025, "c": 0.025, "d": 0.475,
                           "w": {"re": 0.45, "im": 0.0}},
            operators=[as_obj(np.kron(sm, np.eye(2))), as_obj(np.kron(np.eye(2), sm))],
            rates=[1.0, 1.0],
            t_max=2.0,
            sample_every=100,
        )
        out = tmp_path / "esd.csv"
        assert run_cli("evolve", "--in", str(cfg), "--out", str(out)) == 0
        manifest = json.loads((tmp_path / "esd.csv.manifest.json").read_text())
        t_exact = -math.log(1.0 - (0.45 - 0.025) / 0.475) / 2.0
        assert manifest["esd_time"] == pytest.approx(t_exact, abs=1e-4)

    def test_cross_grade_config_exits_4(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            operators=["ZI", "XI"],
            h=[[1.0, 0.5], [0.5, 1.0]],
        )
        cfg_obj = json.loads(cfg.read_text())
        del cfg_obj["rates"]
        cfg.write_text(json.dumps(cfg_obj))
        out = tmp_path / "traj.csv"
        assert run_cli("evolve", "--in", str(cfg), "--out", str(out)) == 4
        assert not out.exists()
        manifest = json.loads((tmp_path / "traj.csv.manifest.json").read_text())
        assert manifest["status"] == "error"


class TestCheckCommand:
    def test_damping_kraus_preserving(self, tmp_path):
        g = 0.3
        k0 = np.kron(np.diag([1.0, math.sqrt(1 - g)]), np.eye(2))
        k1 = np.kron(math.sqrt(g) * np.array([[0, 1], [0, 0]]), np.eye(2))
        obj = {"kraus": [[[[v.real, v.imag] for v in row] for row in k] for k in (k0, k1)]}
        path = tmp_path / "ad.json"
        path.write_text(json.dumps(obj))
        assert run_cli("check", "--in", str(path)) == 0

    def test_hadamard_channel_not_preserving(self, tmp_path):
        h2 = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        k = np.kron(h2, np.eye(2))
        obj = {"kraus": [[[[v, 0.0] for v in row] for row in k]]}
        path = tmp_path / "had.json"
        path.write_text(json.dumps(obj))
        assert run_cli("check", "--in", str(path)) == 1

    def test_incomplete_kraus_exits_2(self, tmp_path):
        obj = {"kraus": [[[[0.5, 0], [0, 0], [0, 0], [0, 0]],
                          [[0, 0], [0.5, 0], [0, 0], [0, 0]],
                          [[0, 0], [0, 0], [0.5, 0], [0, 0]],
                          [[0, 0], [0, 0], [0, 0], [0.5, 0]]]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run_cli("check", "--in", str(path)) == 2

    def test_lindblad_config(self, tmp_path):
        obj = {"lindblad": {"operators": ["ZI"], "rates": [0.5]}}
        path = tmp_path / "lb.json"
        path.write_text(json.dumps(obj))
        assert run_cli("check", "--in", str(path)) == 0


class TestMalformedInput:
    """Malformed files exit 2 with one line on stderr, never as a verdict."""

    @staticmethod
    def run(tmp_path, command, text):
        path = tmp_path / "in.json"
        path.write_text(text)
        extra = ["--out", str(tmp_path / "out.csv")] if command == "evolve" else []
        return run_cli(command, "--in", str(path), *extra)

    @pytest.mark.parametrize("command", ["measures", "evolve", "check"])
    @pytest.mark.parametrize("text", ["5", "[1, 2]", '"ZI"', "null"])
    def test_non_object_exits_2(self, tmp_path, capsys, command, text):
        assert self.run(tmp_path, command, text) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "must be a JSON object" in err

    @pytest.mark.parametrize("command, text", [
        ("measures", '{"a": [1], "b": 0, "c": 0, "d": 0}'),
        ("evolve", '{"initial_state": {"a": 1, "b": 0, "c": 0, "d": 0}, '
                   '"dt": 0.001, "t_max": 0.01, "operators": 5}'),
        ("evolve", '{"initial_state": {"a": 1, "b": 0, "c": 0, "d": 0}, '
                   '"dt": 0.001, "t_max": 0.01, "sample_every": [10]}'),
        ("check", '{"kraus": 5}'),
        ("check", '{"kraus": [[1, 2]]}'),
        ("check", '{"lindblad": {"operators": ["ZI"], "rates": 1}}'),
    ])
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, command, text):
        assert self.run(tmp_path, command, text) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("state", [
        {"a": float("nan"), "b": 0.25, "c": 0.25, "d": 0.25},
        {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25, "z": {"re": float("nan"), "im": 0.0}},
        {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25, "w": {"re": 0.0, "im": float("inf")}},
        {"matrix": [[[0.25, 0]] * 4] * 3 + [[[float("nan"), 0]] * 4]},
    ])
    def test_non_finite_state_exits_2(self, tmp_path, capsys, state):
        assert self.run(tmp_path, "measures", json.dumps(state)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    def test_nan_kraus_entry_exits_2(self, tmp_path, capsys):
        k = np.eye(4).tolist()
        k[0][3] = float("nan")
        assert self.run(tmp_path, "check", json.dumps({"kraus": [k]})) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("overrides", [
        {"rates": [float("nan")]},
        {"h": [[float("nan")]]},
        {"operators": [{"ZI": float("inf")}]},
        {"initial_state": {"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5,
                           "w": {"re": float("nan"), "im": 0.0}}},
        {"initial_state": 5},
        {"t_max": float("inf")},
    ])
    def test_non_finite_dynamics_config_exits_2(self, tmp_path, capsys, overrides):
        cfg = {
            "initial_state": {"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5},
            "operators": ["ZI"],
            "dt": 1e-3,
            "t_max": 0.01,
        }
        cfg.update(overrides)
        if "h" not in overrides:
            cfg.setdefault("rates", [1.0])
        assert self.run(tmp_path, "evolve", json.dumps(cfg)) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()


_DURATION = re.compile(rb'"duration_s": [^,}]+')

_BAD_STATE = {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25, "z": {"re": 0.3, "im": 0.0}}
_DEPHASING = {
    "initial_state": {"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5, "w": {"re": 0.5, "im": 0.0}},
    "operators": ["ZI"], "rates": [1.0], "dt": 1e-3, "t_max": 0.01,
}
_INPUTS = {
    "bad.json": json.dumps(_BAD_STATE),
    "bad_evolve.json": json.dumps({**_DEPHASING, "initial_state": _BAD_STATE}),
    "unknown_measure.json": json.dumps({**_DEPHASING, "measures": ["nonsense"]}),
    "cross.json": json.dumps({**{k: v for k, v in _DEPHASING.items() if k != "rates"},
                              "operators": ["ZI", "XI"], "h": [[1.0, 0.5], [0.5, 1.0]]}),
    "incomplete.json": json.dumps({"kraus": [(0.5 * np.eye(4)).tolist()]}),
    "deep.json": "[" * 200_000 + "]" * 200_000,
    "nested_measure.json": json.dumps({**_DEPHASING, "measures": [["concurrence"]]}),
    "huge_kraus.json": json.dumps({"kraus": [(1e200 * np.eye(4)).tolist()]}),
    "huge_sample_every.json": json.dumps({**_DEPHASING, "sample_every": 1.0}).replace(
        '"sample_every": 1.0', '"sample_every": 1e999'),
    "negative_t_max.json": json.dumps({**_DEPHASING, "t_max": -5}),
    "infinite_steps.json": json.dumps({**_DEPHASING, "dt": 1e-300, "t_max": 1e300}),
    "too_many_samples.json": json.dumps({**_DEPHASING, "t_max": 100.0}),
    "fractional_sample_every.json": json.dumps({**_DEPHASING, "sample_every": 2.7}),
    "bool_sample_every.json": json.dumps({**_DEPHASING, "sample_every": True}),
    "bool_dt.json": json.dumps({**_DEPHASING, "dt": True}),
    "string_measures.json": json.dumps({**_DEPHASING, "measures": "concurrence"}),
    "string_state.json": json.dumps({"a": "0.5", "b": False, "c": 0, "d": "0.5",
                                     "w": ["0.5", False]}),
    "string_coherence.json": json.dumps({"a": 0.5, "b": 0.0, "c": 0.0, "d": 0.5,
                                         "w": {"re": "0.5", "im": 0.0}}),
    "bool_matrix_entry.json": json.dumps(
        {"matrix": [[[0.5, 0], [0, 0], [0, 0], [0.5, 0]], [[0, 0]] * 4, [[0, 0]] * 4,
                    [[0.5, False], [0, 0], [0, 0], [0.5, 0]]]}),
    "string_rate.json": json.dumps({**_DEPHASING, "rates": ["1.0"]}),
}


def _error_manifest(subcommand, error, inputs=(), seed="null", n="null", grid="null") -> bytes:
    """The bytes of an error manifest, ``duration_s`` blanked."""
    return (
        f'{{"subcommand": "{subcommand}", "inputs": {json.dumps(list(inputs))}, '
        f'"outputs": [], "seed": {seed}, "n": {n}, "grid": {grid}, "dt": null, '
        f'"t_max": null, "version": "0.1.0", "duration_s": null, "status": "error", '
        f'"error": {json.dumps(error)}}}\n'
    ).encode()


_BAD_Z = "|z| = 0.3 exceeds its positivity bound 0.25 by 0.05"
_ERROR_CASES = [
    # argv, exit code, stderr label, error manifest (None: none may be written)
    pytest.param("measures --in bad.json --out out.json", 2, "error",
                 _error_manifest("measures", _BAD_Z, ["bad.json"]),
                 id="measures-invalid-state"),
    pytest.param("evolve --in bad_evolve.json --out out.csv", 2, "error",
                 _error_manifest("evolve", _BAD_Z, ["bad_evolve.json"]),
                 id="evolve-invalid-state"),
    pytest.param("evolve --in unknown_measure.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "unknown measure 'nonsense'; available: "
                                 "['approx_discord', 'concurrence', 'entropy', 'fef', "
                                 "'mid', 'negativity', 'purity']", ["unknown_measure.json"]),
                 id="evolve-unknown-measure"),
    pytest.param("evolve --in cross.json --out out.csv", 4, "not preserving",
                 _error_manifest("evolve", "generator mixes the two support patterns: "
                                 "XX->ZX, XY->ZY, ZI->XI, ZZ->XZ", ["cross.json"]),
                 id="evolve-not-preserving"),
    pytest.param("measures --in missing.json --out out.json", 3, "i/o error", None,
                 id="measures-missing-input"),
    pytest.param("evolve --in missing.json --out out.csv", 3, "i/o error", None,
                 id="evolve-missing-input"),
    pytest.param("check --in missing.json", 3, "i/o error", None, id="check-missing-input"),
    pytest.param("check --in incomplete.json", 2, "completeness violated", None,
                 id="check-incomplete-kraus"),
    # malformed input that must not end in a traceback
    pytest.param("measures --in deep.json --out out.json", 2, "error",
                 _error_manifest("measures", "state is nested too deeply to parse",
                                 ["deep.json"]),
                 id="measures-too-deep"),
    pytest.param("evolve --in deep.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "dynamics config is nested too deeply to parse",
                                 ["deep.json"]),
                 id="evolve-too-deep"),
    pytest.param("check --in deep.json", 2, "error", None, id="check-too-deep"),
    pytest.param("gen --n 2 --seed -1 --out out.jsonl", 2, "error",
                 _error_manifest("gen", "seed -1 is outside [0, 2**64)", seed="-1", n="2"),
                 id="gen-negative-seed"),
    pytest.param("validate-approx --n 2 --seed 18446744073709551616 --out out.json", 2, "error",
                 _error_manifest("validate-approx",
                                 "seed 18446744073709551616 is outside [0, 2**64)",
                                 seed="18446744073709551616", n="2", grid="64"),
                 id="validate-approx-seed-too-large"),
    pytest.param("evolve --in huge_sample_every.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "malformed dynamics config: "
                                 "cannot convert float infinity to integer",
                                 ["huge_sample_every.json"]),
                 id="evolve-overflowing-integer"),
    pytest.param("evolve --in nested_measure.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "unknown measure ['concurrence']; available: "
                                 "['approx_discord', 'concurrence', 'entropy', 'fef', "
                                 "'mid', 'negativity', 'purity']", ["nested_measure.json"]),
                 id="evolve-unhashable-measure"),
    pytest.param("check --in huge_kraus.json", 2, "error", None, id="check-overflow"),
    pytest.param("evolve --in negative_t_max.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "t_max must be >= 0, got -5.0",
                                 ["negative_t_max.json"]),
                 id="evolve-negative-t-max"),
    pytest.param("evolve --in infinite_steps.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "t_max / dt = 1e+300 / 1e-300 is not a finite "
                                 "step count", ["infinite_steps.json"]),
                 id="evolve-infinite-step-count"),
    pytest.param("evolve --in too_many_samples.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "100000 steps sampled every 1 give "
                                 "100001 samples, more than 100000",
                                 ["too_many_samples.json"]),
                 id="evolve-too-many-samples"),
    # config values are taken as given, never coerced: 2.7 ran as 2, true as
    # 1 or 1.0, and a string of measure names was split into characters
    pytest.param("evolve --in fractional_sample_every.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "sample_every must be a whole number, got 2.7",
                                 ["fractional_sample_every.json"]),
                 id="evolve-fractional-sample-every"),
    pytest.param("evolve --in bool_sample_every.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "sample_every must be a number, got True",
                                 ["bool_sample_every.json"]),
                 id="evolve-bool-sample-every"),
    pytest.param("evolve --in bool_dt.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "dt must be a number, got True", ["bool_dt.json"]),
                 id="evolve-bool-dt"),
    pytest.param("evolve --in string_measures.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "measures must be a list of names, "
                                 "got 'concurrence'", ["string_measures.json"]),
                 id="evolve-string-measures"),
    # state values and rates are JSON numbers, never coerced: each of these
    # ran as a Bell state or at rate 1.0
    pytest.param("measures --in string_state.json --out out.json", 2, "error",
                 _error_manifest("measures", "a must be a number, got '0.5'",
                                 ["string_state.json"]),
                 id="measures-string-population"),
    pytest.param("measures --in string_coherence.json --out out.json", 2, "error",
                 _error_manifest("measures", "w must be a number, got '0.5'",
                                 ["string_coherence.json"]),
                 id="measures-string-coherence"),
    pytest.param("measures --in bool_matrix_entry.json --out out.json", 2, "error",
                 _error_manifest("measures", "matrix entry must be a number, got False",
                                 ["bool_matrix_entry.json"]),
                 id="measures-bool-matrix-entry"),
    pytest.param("evolve --in string_rate.json --out out.csv", 2, "error",
                 _error_manifest("evolve", "rate must be a number, got '1.0'",
                                 ["string_rate.json"]),
                 id="evolve-string-rate"),
    # the error manifest cannot be written; the error still exits as itself
    pytest.param("measures --in bad.json --out nodir/out.json", 2, "error", None,
                 id="measures-invalid-state-missing-out-dir"),
    pytest.param("evolve --in bad_evolve.json --out nodir/out.csv", 2, "error", None,
                 id="evolve-invalid-state-missing-out-dir"),
]


class TestErrorPaths:
    """Golden error paths: exit code, one labelled stderr line, and the
    error manifest's bytes with ``duration_s`` blanked."""

    @pytest.mark.parametrize("argv, code, label, manifest", _ERROR_CASES)
    def test_error_path(self, tmp_path, monkeypatch, capsys, argv, code, label, manifest):
        monkeypatch.chdir(tmp_path)
        for name, text in _INPUTS.items():
            (tmp_path / name).write_text(text)
        args = argv.split()
        assert run_cli(*args) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith(label + ": ")
        out = tmp_path / args[args.index("--out") + 1] if "--out" in args else None
        written = {p.name for p in tmp_path.iterdir()} - set(_INPUTS)
        if manifest is None:
            assert written == set()
            return
        assert written == {out.name + ".manifest.json"}
        raw = (tmp_path / (out.name + ".manifest.json")).read_bytes()
        assert _DURATION.sub(b'"duration_s": null', raw) == manifest


FUZZ = settings(max_examples=300, deadline=None, derandomize=True)

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# dt and t_max keep an evolve run to at most 1000 steps, or make evolve
# reject it before the first step (1e-300 and 1e300 ask for a step count that
# is not finite or for too many samples)
_STEP_VALUES = st.sampled_from(
    [1e-3, 0.5, "0.5", True, 0, -1.0, math.nan, math.inf, -math.inf, None, "x", [0.5], {},
     1e-300, 1e300]
)
_SAMPLE_DOCUMENTS = {
    "measures": [
        {"a": 0.4, "b": 0.3, "c": 0.2, "d": 0.1, "z": {"re": 0.1, "im": 0.0},
         "w": {"re": 0.1, "im": 0.05}},
        {"matrix": [[[0.5, 0], [0, 0], [0, 0], [0.4, 0]], [[0, 0]] * 4, [[0, 0]] * 4,
                    [[0.4, 0], [0, 0], [0, 0], [0.5, 0]]]},
    ],
    "evolve": [
        {**_DEPHASING, "sample_every": 2, "measures": ["concurrence", "purity"]},
        {"initial_state": {"a": 0.45, "b": 0.05, "c": 0.05, "d": 0.45, "w": [0.4, 0.0]},
         "operators": ["ZI", {"IZ": 1.0, "ZZ": 0.5}], "h": [[1.0, 0.2], [0.2, 1.0]],
         "hamiltonian": "ZZ", "dt": 0.5, "t_max": 0.5},
    ],
    "check": [
        {"kraus": [np.diag([1.0, 1.0, 0.6, 0.6]).tolist(),
                   (0.8 * np.eye(4, k=2)).tolist()]},
        {"lindblad": {"operators": ["ZI", "XX"], "rates": [0.5, 0.1], "hamiltonian": "ZZ"}},
        {"kraus": [(np.kron([[1, 1], [1, -1]], np.eye(2)) / math.sqrt(2)).tolist()]},
    ],
}


@st.composite
def _mutated(draw, doc, steps):
    """``doc`` with one value, at any depth, replaced by a random JSON value
    (dt and t_max of an evolve config only by values from ``_STEP_VALUES``)."""
    if isinstance(doc, (dict, list)) and doc and draw(st.integers(0, 3)):
        copy = dict(doc) if isinstance(doc, dict) else list(doc)
        key = draw(st.sampled_from(list(doc) if isinstance(doc, dict) else range(len(doc))))
        bounded = steps and key in ("dt", "t_max")
        copy[key] = draw(_STEP_VALUES if bounded else _mutated(doc[key], False))
        return copy
    return draw(_JSON_VALUES)


@st.composite
def _fuzz_input(draw, command):
    """The text of an ``--in`` file: a sample document with a mutated value,
    a random JSON value, or a sample document cut short."""
    doc = draw(st.sampled_from(_SAMPLE_DOCUMENTS[command]))
    kind = draw(st.sampled_from(["mutated", "random", "truncated"]))
    if kind == "mutated":
        return json.dumps(draw(_mutated(doc, command == "evolve")))
    if kind == "random":
        return json.dumps(draw(_JSON_VALUES))
    text = json.dumps(doc)
    return text[:draw(st.integers(0, len(text) - 1))]


class TestParserFuzz:
    """``main`` never raises on a malformed ``--in`` file: an error exits
    with one stderr line and leaves no output file behind."""

    @staticmethod
    def check_run(command, text):
        with tempfile.TemporaryDirectory() as tmp:
            path, out = os.path.join(tmp, "in.json"), os.path.join(tmp, "out")
            with open(path, "w") as fh:
                fh.write(text)
            argv = [command, "--in", path] + (["--out", out] if command != "check" else [])
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            err = stderr.getvalue()
            if command == "check" and code in (0, 1):  # a verdict, on stdout
                assert err == ""
            elif code == 0:
                assert err == "" and os.path.exists(out)
            else:
                assert code in (2, 3, 4, 5)
                assert err.count("\n") == 1 and err.endswith("\n")
                assert set(os.listdir(tmp)) <= {"in.json", "out.manifest.json"}

    @FUZZ
    @given(_fuzz_input("measures"))
    def test_measures(self, text):
        self.check_run("measures", text)

    @FUZZ
    @given(_fuzz_input("evolve"))
    def test_evolve(self, text):
        self.check_run("evolve", text)

    @FUZZ
    @given(_fuzz_input("check"))
    def test_check(self, text):
        self.check_run("check", text)
