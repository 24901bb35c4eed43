import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from dphotelling import cli, decision, randkit, simbench
from dphotelling.decision import (TestConfig, asymptotic_threshold,
                                  bootstrap_threshold, private_whitener)
from dphotelling.errors import NumericalError
from dphotelling.mechanisms import compute_summary, privatize_summaries
from dphotelling.randkit import chi2_quantile
from dphotelling.simbench import read_table_csv


def reference_read_matrix_csv(path):
    """The csv.reader + float() reader that read_matrix_csv must match."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = list(csv.reader(fh))
    first = next((i for i, row in enumerate(rows) if row), None)
    if first is None:
        raise cli.CsvFormatError(f"{path}: file is empty")
    start = first
    try:
        [float(f) for f in rows[first]]
    except ValueError:
        start = first + 1
    data = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if not row:
            continue
        try:
            vals = [float(f) for f in row]
        except ValueError:
            raise cli.CsvFormatError(f"{path}: line {i}: non-numeric field")
        if data and len(vals) != len(data[0]):
            raise cli.CsvFormatError(
                f"{path}: line {i}: expected {len(data[0])} columns, "
                f"got {len(vals)}")
        data.append(vals)
    if not data:
        raise cli.CsvFormatError(f"{path}: no data rows")
    out = np.array(data, dtype=float)
    if not np.isfinite(out).all():
        r, c = np.argwhere(~np.isfinite(out))[0]
        line = [i for i in range(start, len(rows)) if rows[i]][r] + 1
        raise cli.CsvFormatError(
            f"{path}: line {line}, column {c + 1}: non-finite value "
            f"{rows[line - 1][c]!r}")
    return out


def read_both(path):
    """(array or error message) from read_matrix_csv and from the reference."""
    results = []
    for reader in (cli.read_matrix_csv, reference_read_matrix_csv):
        try:
            results.append(reader(path))
        except cli.CsvFormatError as exc:
            results.append(str(exc))
    return results


def assert_same_bytes(a, b):
    assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


_NUMBER_FORMATS = {
    "repr": repr,
    "%.17g": lambda v: "%.17g" % v,
    "%.6e": lambda v: "%.6e" % v,
    "integer": lambda v: str(round(v * 1000)),
    "negative_zero": lambda v: "-0.0" if v < 0 else repr(v),
}


def _lines(rows, end="\n"):
    return "".join(",".join(row) + end for row in rows)


_LAYOUTS = {
    "plain": _lines,
    "header": lambda rows: "u,v,w\n" + _lines(rows),
    "blank_start": lambda rows: "\n\n" + _lines(rows),
    "blank_middle": lambda rows: _lines(rows[:3]) + "\n\n" + _lines(rows[3:]),
    "blank_end": lambda rows: _lines(rows) + "\n\n",
    "crlf": lambda rows: "u,v,w\r\n\r\n" + _lines(rows, "\r\n"),
    "quoted": lambda rows: _lines([[f'"{f}"' for f in row] for row in rows]),
    "spaces": lambda rows: _lines([[f" {f}\t" for f in row] for row in rows]),
    "single_row": lambda rows: _lines(rows[:1]),
    "single_column": lambda rows: _lines([row[:1] for row in rows]),
}


def write_csv(path, array, header=None):
    lines = [] if header is None else [header]
    for row in np.atleast_2d(array):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def h0_pair(tmp_path):
    gen = np.random.default_rng(0)
    x = write_csv(tmp_path / "x.csv", gen.uniform(-1, 1, (200, 2)))
    y = write_csv(tmp_path / "y.csv", gen.uniform(-1, 1, (220, 2)))
    return x, y


class TestReadMatrixCsv:
    def test_plain(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(cli.read_matrix_csv(p), [[1.0, 2.0], [3.0, 4.0]])

    def test_header_detected(self, tmp_path):
        p = write_csv(tmp_path / "a.csv", [[1.0, 2.0]], header="u,v")
        assert np.array_equal(cli.read_matrix_csv(p), [[1.0, 2.0]])

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(cli.CsvFormatError, match="columns"):
            cli.read_matrix_csv(str(p))

    def test_garbage_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\nx,y\n")
        with pytest.raises(cli.CsvFormatError, match="non-numeric"):
            cli.read_matrix_csv(str(p))

    def test_line_numbers_count_blank_lines(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("\nu,v\n1,2\n\n3,x\n")
        with pytest.raises(cli.CsvFormatError, match="line 5: non-numeric"):
            cli.read_matrix_csv(str(p))
        p.write_text("1,2\n\n\n3,nan\n")
        with pytest.raises(cli.CsvFormatError,
                           match="line 4, column 2: non-finite value 'nan'"):
            cli.read_matrix_csv(str(p))

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("fmt", sorted(_NUMBER_FORMATS))
    def test_matches_reference_reader(self, tmp_path, fmt, layout):
        gen = np.random.default_rng([sorted(_NUMBER_FORMATS).index(fmt),
                                     sorted(_LAYOUTS).index(layout)])
        for trial in range(5):
            values = gen.uniform(-10.0, 10.0, (8, 3)) * 10.0 ** gen.integers(
                -5, 6, (8, 3))
            rows = [[_NUMBER_FORMATS[fmt](float(v)) for v in row]
                    for row in values]
            p = tmp_path / f"{trial}.csv"
            p.write_bytes(_LAYOUTS[layout](rows).encode("utf-8"))
            assert_same_bytes(*read_both(str(p)))

    @pytest.mark.parametrize("text", [
        " \n", "1,,2\n", "1,2,\n", '"",3\n', ' "1",2\n', '"1" ,2\n',
        "1;2\n", "1,2 #c\n", "#c\n1,2\n", "1d5,2\n", "0x1p3,1\n",
        "nan(1),2\n", "1,2\n \n3,4\n", "1,2\r3,4\r", "u,v\n1,2\nx,3\n",
        "1,2\n3\n", "1,2\n3,4,5\n", "u\nv\n1\n", "1e999,1\n",
        "NaN,1\n", "1,-Infinity\n", "\n\nu,v\n\n1,2\n\n3,nan\n",
        "1,2\n\n3,nan\n4,inf\n", "\x0c1,2\u2003\n", "1\x00,2\n",
    ])
    def test_matches_reference_on_edge_cases(self, tmp_path, text):
        p = tmp_path / "a.csv"
        p.write_bytes(text.encode("utf-8"))
        new, ref = read_both(str(p))
        if isinstance(ref, str):
            assert new == ref
        else:
            assert_same_bytes(new, ref)

    def test_byte_order_mark_keeps_first_row(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
        assert np.array_equal(cli.read_matrix_csv(str(p)),
                              [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])

    def test_byte_order_mark_before_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_bytes(b"\xef\xbb\xbfu,v\n1,2\n3,4\n")
        assert np.array_equal(cli.read_matrix_csv(str(p)),
                              [[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("field", ["1_0", "\u0661"])
    def test_float_only_syntax_rejected(self, tmp_path, field):
        # float() reads these; numpy's parser does not, and neither may we.
        p = tmp_path / "a.csv"
        p.write_text(f"u,v\n1,2\n3,{field}\n", encoding="utf-8")
        with pytest.raises(cli.CsvFormatError, match=field):
            cli.read_matrix_csv(str(p))

    @pytest.mark.parametrize("text, where", [
        ("u,v\n1,2\n3,1_0\n", "line 3, column 2"),
        ("\nu,v\n\n1,2\n\n3,4\n1_0,5\n", "line 7, column 1"),
        ("1,2\n\n\"3\", 4\n5,\u0661\n", "line 4, column 2"),
    ])
    def test_float_only_syntax_names_line_and_column(self, tmp_path, text,
                                                      where):
        p = tmp_path / "a.csv"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(cli.CsvFormatError, match=f"{where}: unsupported"):
            cli.read_matrix_csv(str(p))

    @pytest.mark.parametrize("data, line", [
        (b"\xff\xfeu,v\n1,2\n", 1),
        (b"u,v\n\n1,2\n3,\xe94\n", 4),
        (b"1,2\n" * 5000 + b"3,\xff\n", 5001),
    ], ids=["first-line", "after-header", "inside-numeric-parse"])
    def test_not_utf8_names_file_and_line(self, tmp_path, data, line):
        p = tmp_path / "a.csv"
        p.write_bytes(data)
        with pytest.raises(cli.CsvFormatError,
                           match=f"a.csv: line {line}: not UTF-8 text"):
            cli.read_matrix_csv(str(p))

    def test_header_only_rejected(self, tmp_path, recwarn):
        p = tmp_path / "a.csv"
        p.write_text("u,v\n\n")
        with pytest.raises(cli.CsvFormatError, match="no data rows"):
            cli.read_matrix_csv(str(p))
        assert not recwarn.list

    def test_blank_only_rejected(self, tmp_path, recwarn):
        p = tmp_path / "a.csv"
        p.write_text("\n\r\n\n")
        with pytest.raises(cli.CsvFormatError, match="file is empty"):
            cli.read_matrix_csv(str(p))
        assert not recwarn.list

    def test_ragged_line_reported_before_later_nan(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("1,2\nnan,3\n4\n5,nan\n")
        with pytest.raises(cli.CsvFormatError,
                           match="line 3: expected 2 columns, got 1"):
            cli.read_matrix_csv(str(p))

    def test_empty_rejected(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("")
        with pytest.raises(cli.CsvFormatError, match="empty"):
            cli.read_matrix_csv(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(cli.CsvFormatError):
            cli.read_matrix_csv(str(tmp_path / "nope.csv"))


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_pair(x, y, *opts, command="test"):
    """(exit code, stdout, stderr) of ``main`` on the pair x, y.

    ``test`` runs with ``--json``; ``opts`` come last, so they override the
    defaults ``--epsilon 1 --bound-m 1``.
    """
    argv = [command, x, y, "--epsilon", "1", "--bound-m", "1",
            *(["--json"] if command == "test" else []), *opts]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def flags(a):
    return {k: a.flags[k] for k in ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA",
                                    "WRITEABLE", "ALIGNED")}


_RELEASES = ("mean_x_dp", "mean_y_dp", "cov_x_dp", "cov_y_dp")


class TestForkedRead:
    """``_run_pair`` releases y in a forked child; nothing else may change."""

    @pytest.fixture
    def forks(self, monkeypatch, call_count):
        """Send files of any size to the helper; list the forks it makes."""
        monkeypatch.setattr(cli, "_FORK_MIN_BYTES", 0)
        return call_count(os, "fork")

    @pytest.fixture
    def summaries(self, monkeypatch):
        """The ``PrivatizedSummary`` of each test that reaches its decision."""
        seen = []
        outcome = decision._outcome

        def spy(rng, ps, cfg):
            seen.append(ps)
            return outcome(rng, ps, cfg)

        monkeypatch.setattr(decision, "_outcome", spy)
        return seen

    @pytest.fixture
    def payloads(self, tmp_path, monkeypatch):
        """Log "shape nbytes" of each payload a child writes; read the lines."""
        # The spy runs in the child, so it logs to a file.
        log = tmp_path / "payloads.txt"
        write = cli._write_array

        def spy(fd, arr):
            with open(log, "a", encoding="utf-8") as fh:
                fh.write(f"{arr.shape} {arr.nbytes}\n")
            write(fd, arr)

        monkeypatch.setattr(cli, "_write_array", spy)
        return lambda: log.read_text().splitlines() if log.exists() else []

    @staticmethod
    def serial(monkeypatch, x, y, *opts, command="test"):
        """``run_pair`` with the helper path made to fail the test."""
        def no_fork():
            raise AssertionError("forked on the serial path")

        with monkeypatch.context() as m:
            m.setattr(os, "fork", no_fork)
            return run_pair(x, y, *opts, command=command)

    @classmethod
    def reference(cls, monkeypatch, x, y, *opts, command="test"):
        """``run_pair`` with every file below the floor."""
        with monkeypatch.context() as m:
            m.setattr(cli, "_FORK_MIN_BYTES", math.inf)
            return cls.serial(m, x, y, *opts, command=command)

    @pytest.mark.parametrize("layout", sorted(_LAYOUTS))
    @pytest.mark.parametrize("fmt", sorted(_NUMBER_FORMATS))
    def test_same_array_as_serial_read(self, tmp_path, monkeypatch, forks,
                                       summaries, fmt, layout):
        gen = np.random.default_rng([sorted(_NUMBER_FORMATS).index(fmt),
                                     sorted(_LAYOUTS).index(layout)])
        values = gen.uniform(-10.0, 10.0, (8, 3)) * 10.0 ** gen.integers(
            -5, 6, (8, 3))
        rows = [[_NUMBER_FORMATS[fmt](float(v)) for v in row] for row in values]
        p = tmp_path / "a.csv"
        p.write_bytes(_LAYOUTS[layout](rows).encode("utf-8"))
        # The parent releases the file as x, the child the same file as y.
        got = run_pair(str(p), str(p), "--bound-m", "1e10")
        assert len(forks) == 1
        assert_no_child()
        assert got == self.reference(monkeypatch, str(p), str(p),
                                     "--bound-m", "1e10")
        if layout == "single_row":  # one observation: both paths fail alike
            assert got[0] == cli.EXIT_USAGE and not summaries
            return
        assert got[0] == 0
        forked, serial = summaries
        for name in _RELEASES:
            a, b = getattr(forked, name), getattr(serial, name)
            assert_same_bytes(a, b)
            assert flags(a) == flags(b)
        assert (forked.n1, forked.n2) == (serial.n1, serial.n2)

    def test_same_json_stdout(self, h0_pair, monkeypatch, forks, capsys):
        argv = ["test", *h0_pair, "--epsilon", "0.7", "--bound-m", "1",
                "--seed", "5", "--json"]
        assert cli.main(argv) == 0
        forked = capsys.readouterr().out
        assert len(forks) == 1
        monkeypatch.setattr(cli, "_FORK_MIN_BYTES", math.inf)
        assert cli.main(argv) == 0
        assert len(forks) == 1
        assert capsys.readouterr().out == forked
        assert_no_child()

    @pytest.mark.parametrize("d", [1, 3, 30])
    @pytest.mark.parametrize("command, opts", [
        ("test", ["--json"]),
        ("test", []),
        ("test", ["--mode", "asymptotic", "--clamp"]),
        ("calibrate", []),
        ("test", ["--json", "--epsilon", "inf", "--unsafe-no-privacy"]),
        ("test", ["--epsilon", "inf", "--unsafe-no-privacy"]),
        ("calibrate", ["--epsilon", "inf", "--unsafe-no-privacy"]),
    ], ids=["json", "plain", "asymptotic-clamp", "calibrate", "json-inf",
            "plain-inf", "calibrate-inf"])
    def test_same_stdout_at_any_floor(self, tmp_path, monkeypatch, forks,
                                      call_count, d, command, opts):
        gen = np.random.default_rng(d)
        x, y = (write_csv(tmp_path / f"{g}.csv",
                          gen.uniform(-1, 1, (n, d)))
                for g, n in (("x", 120), ("y", 90)))
        argv = [command, x, y, "--epsilon", "0.9", "--bound-m", "1",
                "--seed", "6", *opts]
        serial_runs = call_count(cli, "run_test")
        forked = run_pair(x, y, *argv[3:], command=command)
        assert len(forks) == 1 and not serial_runs  # the child delivered
        assert_no_child()
        assert forked[0] == 0 and forked[2] == ""
        assert forked == self.reference(monkeypatch, x, y, *argv[3:],
                                        command=command)
        assert len(serial_runs) == 1

    @pytest.mark.parametrize("x_text, y_text", [
        ("1,2\nx,3\n", "1,2\n3,nan\n"),
        ("", "\n\n"),
        ("0.1,0.2\n", "1,2\n\n3\n"),
        ("0.1,0.2\n", "1,2\n3,nan\n"),
        ("0.1,0.2\n", "u,v\n"),
        ("0.1,0.2\n", "1,2\n3,1_0\n"),
        ("0.1,0.2\n", b"1,2\n3,\xff\n"),
        ("0.1,0.2\n", "0.1,0.2,0.3\n"),
    ], ids=["both-bad", "both-empty", "y-ragged", "y-nan", "y-header-only",
            "y-float-only-syntax", "y-not-utf8", "column-mismatch"])
    def test_errors_as_in_serial_read(self, tmp_path, monkeypatch, forks,
                                      x_text, y_text):
        x, y = tmp_path / "x.csv", tmp_path / "y.csv"
        x.write_text(x_text)
        if isinstance(y_text, bytes):
            y.write_bytes(y_text)
        else:
            y.write_text(y_text)
        got = run_pair(str(x), str(y))
        assert len(forks) == 1
        assert_no_child()
        assert got == self.reference(monkeypatch, str(x), str(y))
        code, _, err = got
        assert code == cli.EXIT_USAGE
        if x_text.startswith("0.1"):
            assert str(y) in err
        else:
            assert str(x) in err

    @pytest.mark.parametrize("y_width", [3, 1], ids=["y-wider", "y-narrower"])
    def test_column_mismatch_after_the_child_delivers(self, tmp_path,
                                                      monkeypatch, forks,
                                                      payloads, y_width):
        # Unlike the one-row column-mismatch case above, y can be released:
        # the child sends a whole payload of y's width, and only its length
        # tells the parent that the widths differ.
        gen = np.random.default_rng(y_width)
        x = write_csv(tmp_path / "x.csv", gen.uniform(-1, 1, (5, 2)))
        y = write_csv(tmp_path / "y.csv", gen.uniform(-1, 1, (4, y_width)))
        got = run_pair(x, y)
        assert len(forks) == 1
        assert_no_child()
        assert payloads() == [
            f"{(y_width + 2, y_width)} {8 * y_width * (y_width + 2)}"]
        assert got == self.reference(monkeypatch, x, y)
        assert got == (cli.EXIT_USAGE, "", f"error: column mismatch: {x} has "
                       f"2, {y} has {y_width}\n")

    @pytest.mark.parametrize("x_rows, y_text, code, named", [
        ([[0.1, 0.2], [0.3, 1.5]], "0.1,0.2\n0.3,oops\n", cli.EXIT_USAGE, "y"),
        ([[0.1, 0.2], [0.3, 0.4]], "0.1,0.2\n0.3,1.5\n", cli.EXIT_BOUNDS,
         None),
        ([[0.1, 0.2], [0.3, 1.5]], "0.1,0.2\n0.3,1.5\n", cli.EXIT_BOUNDS,
         None),
        ([[0.1, 0.2]], "0.1,0.2\n0.3,1.5\n", cli.EXIT_USAGE, None),
    ], ids=["x-bound-y-csv", "y-bound", "both-bound", "x-one-row-y-bound"])
    def test_mixed_faults_keep_the_serial_order(self, tmp_path, monkeypatch,
                                                forks, x_rows, y_text, code,
                                                named):
        x = write_csv(tmp_path / "x.csv", x_rows)
        y = tmp_path / "y.csv"
        y.write_text(y_text)
        got = run_pair(x, str(y))
        assert len(forks) == 1
        assert_no_child()
        assert got == self.reference(monkeypatch, x, str(y))
        assert got[0] == code and got[1] == ""
        if named == "y":
            assert got[2] == f"error: {y}: line 2: non-numeric field\n"

    def test_bad_y_exit_code_through_main(self, tmp_path, forks, capsys):
        x = write_csv(tmp_path / "x.csv", [[0.1, 0.2], [0.3, 0.4]])
        y = tmp_path / "y.csv"
        y.write_text("0.1,0.2\n0.3,inf\n")
        code = cli.main(["test", x, str(y), "--epsilon", "1", "--bound-m", "1"])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {y}: line 2, column 2: non-finite value 'inf'\n")
        assert len(forks) == 1
        assert_no_child()

    def test_payload_size_does_not_depend_on_n(self, tmp_path, forks,
                                               payloads):
        gen = np.random.default_rng(2)
        for n in (10, 1000):
            x, y = (write_csv(tmp_path / f"{g}{n}.csv",
                              gen.uniform(-1, 1, (n, 3))) for g in "xy")
            assert run_pair(x, y)[0] == 0
        assert len(forks) == 2
        assert_no_child()
        assert payloads() == ["(5, 3) 120"] * 2

    def test_child_warning_goes_back_to_the_serial_path(self, h0_pair,
                                                        monkeypatch, forks,
                                                        call_count):
        # A warning in the child would be printed twice if the serial path
        # printed it again; the child gives up instead and prints nothing.
        release = cli.release_group

        def warn_in_child(rng, data, cfg, group):
            if group == 1:
                warnings.warn("from the child", RuntimeWarning)
            return release(rng, data, cfg, group)

        expected = self.reference(monkeypatch, *h0_pair)
        monkeypatch.setattr(cli, "release_group", warn_in_child)
        serial_runs = call_count(cli, "run_test")
        assert run_pair(*h0_pair) == expected
        assert len(forks) == 1 and len(serial_runs) == 1
        assert_no_child()

    @pytest.mark.parametrize("failure", [
        lambda fd, arr: os._exit(0),
        lambda fd, arr: os.kill(os.getpid(), signal.SIGKILL),
        lambda fd, arr: os.write(fd, b"\0" * 7),
        lambda fd, arr: os.write(fd, arr.tobytes()[:arr.nbytes // 2]),
        lambda fd, arr: os.write(fd, arr.tobytes() + b"\0" * 8),
    ], ids=["exits-before-writing", "killed", "short-header", "short-payload",
            "long-payload"])
    def test_helper_failure_falls_back_to_serial_read(self, h0_pair,
                                                      monkeypatch, forks,
                                                      call_count, failure):
        expected = self.reference(monkeypatch, *h0_pair)
        monkeypatch.setattr(cli, "_write_array", failure)
        serial_runs = call_count(cli, "run_test")
        got = run_pair(*h0_pair)
        assert len(forks) == 1 and len(serial_runs) == 1
        assert got == expected and got[0] == 0
        assert_no_child()

    def test_x_fault_kills_the_child(self, tmp_path, monkeypatch, forks):
        # A child that would take a minute; x's error must not wait for it.
        y = write_csv(tmp_path / "y.csv", [[0.1, 0.2], [0.3, 0.4]])
        x = tmp_path / "x.csv"
        x.write_text("1,2\nbroken\n")
        monkeypatch.setattr(cli, "_write_array", lambda fd, arr: time.sleep(60))
        start = time.monotonic()
        code, _, err = run_pair(str(x), y)
        assert time.monotonic() - start < 20
        assert len(forks) == 1
        assert code == 2 and str(x) in err
        assert_no_child()

    def test_x_release_fault_kills_the_child(self, tmp_path, monkeypatch,
                                             forks):
        # x parses but leaves the bound; the serial path reads y and
        # raises x's bound fault without waiting for the child.
        y = write_csv(tmp_path / "y.csv", [[0.1, 0.2], [0.3, 0.4]])
        x = write_csv(tmp_path / "x.csv", [[0.1, 0.2], [0.3, 4.0]])
        monkeypatch.setattr(cli, "_write_array", lambda fd, arr: time.sleep(60))
        start = time.monotonic()
        code, _, err = run_pair(x, y)
        assert time.monotonic() - start < 20
        assert len(forks) == 1
        assert code == cli.EXIT_BOUNDS and "outside [-1.0, 1.0]" in err
        assert_no_child()

    def test_below_floor_reads_serially(self, h0_pair, monkeypatch):
        assert os.path.getsize(h0_pair[1]) < cli._FORK_MIN_BYTES
        code, out, _ = self.serial(monkeypatch, *h0_pair)
        assert code == 0 and json.loads(out)["n2"] == 220

    def test_one_cpu_reads_serially(self, h0_pair, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        code, out, _ = self.serial(monkeypatch, *h0_pair)
        assert code == 0 and json.loads(out)["n2"] == 220
        assert not forks

    def test_non_regular_file_reads_serially(self, h0_pair, monkeypatch,
                                             forks):
        # A character device: the serial read finds it empty.
        code, _, err = self.serial(monkeypatch, h0_pair[0], os.devnull)
        assert (code, err) == (2, f"error: {os.devnull}: file is empty\n")
        assert not forks

    def test_module_invocation_above_the_floor(self, tmp_path, monkeypatch,
                                               capsys):
        gen = np.random.default_rng(8)
        paths = [write_csv(tmp_path / f"{g}.csv", gen.uniform(-1, 1, (6000, 10)))
                 for g in "xy"]
        assert min(map(os.path.getsize, paths)) >= cli._FORK_MIN_BYTES
        argv = ["test", *paths, "--epsilon", "1", "--bound-m", "1",
                "--seed", "4", "--json"]
        proc = subprocess.run([sys.executable, "-m", "dphotelling.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        monkeypatch.setattr(cli, "_FORK_MIN_BYTES", math.inf)
        assert cli.main(argv) == 0
        assert proc.stdout == capsys.readouterr().out


class TestCmdTest:
    def test_identical_files_no_rejection(self, tmp_path, capsys):
        data = np.linspace(-0.9, 0.9, 50)[:, None]
        x = write_csv(tmp_path / "x.csv", data)
        y = write_csv(tmp_path / "y.csv", data)
        code = cli.main(["test", x, y, "--epsilon", "inf",
                         "--unsafe-no-privacy", "--bound-m", "1",
                         "--mode", "asymptotic"])
        out = capsys.readouterr().out
        assert code == 0
        assert "statistic      : 0" in out
        assert "keep H0" in out
        assert "WARNING" in out

    def test_inf_requires_unsafe_flag(self, h0_pair, capsys):
        x, y = h0_pair
        code = cli.main(["test", x, y, "--epsilon", "inf", "--bound-m", "1"])
        assert code == 2
        assert "unsafe-no-privacy" in capsys.readouterr().err

    def test_small_bootstrap_rejected(self, h0_pair, capsys):
        x, y = h0_pair
        code = cli.main(["test", x, y, "--epsilon", "1", "--bound-m", "1",
                         "--alpha", "0.05", "--bootstrap-B", "10"])
        err = capsys.readouterr().err
        assert code == 2
        assert "floor((1-alpha) B) = 9" in err
        assert "need B >= 200" in err

    def test_asymptotic_mode_ignores_bootstrap_b(self, h0_pair, capsys):
        # floor(0.001 * 200) = 0, which only the bootstrap rule would read.
        x, y = h0_pair
        code = cli.main(["test", x, y, "--epsilon", "1", "--bound-m", "1",
                         "--alpha", "0.999", "--mode", "asymptotic"])
        assert code == 0
        assert "asymptotic, alpha=0.999" in capsys.readouterr().out

    def test_bound_violation_exit_code(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", [[0.5], [2.0]])
        y = write_csv(tmp_path / "y.csv", [[0.1], [0.2]])
        code = cli.main(["test", x, y, "--epsilon", "1", "--bound-m", "1"])
        assert code == 3

    def test_clamp_recovers_bound_violation(self, tmp_path):
        x = write_csv(tmp_path / "x.csv", [[0.5], [2.0], [-0.3]])
        y = write_csv(tmp_path / "y.csv", [[0.1], [0.2], [0.4]])
        code = cli.main(["test", x, y, "--epsilon", "1", "--bound-m", "1",
                         "--clamp"])
        assert code == 0

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("1,2\nbroken\n")
        y = write_csv(tmp_path / "y.csv", [[0.1, 0.2]])
        code = cli.main(["test", str(p), y, "--epsilon", "1", "--bound-m", "1"])
        assert code == 2

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("clamp", [[], ["--clamp"]])
    def test_non_finite_csv_exit_code(self, tmp_path, capsys, field, clamp):
        p = tmp_path / "x.csv"
        p.write_text(f"u,v\n0.1,0.2\n0.3,{field}\n0.5,0.6\n")
        y = write_csv(tmp_path / "y.csv", [[0.1, 0.2], [0.3, 0.4]])
        code = cli.main(["test", str(p), y, "--epsilon", "1", "--bound-m", "1",
                         *clamp])
        err = capsys.readouterr().err
        assert code == 2
        assert f"line 3, column 2: non-finite value '{field}'" in err

    def test_not_utf8_csv_exit_code(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_bytes(b"0.1,0.2\n0.3,0.4\n\xff\n")
        y = write_csv(tmp_path / "y.csv", [[0.1, 0.2], [0.3, 0.4]])
        code = cli.main(["test", str(p), y, "--epsilon", "1", "--bound-m", "1"])
        assert code == 2
        assert f"{p}: line 3: not UTF-8 text" in capsys.readouterr().err

    def test_numeric_failure_exit_code(self, h0_pair, monkeypatch, capsys):
        x, y = h0_pair

        def boom(*args, **kwargs):
            raise NumericalError("synthetic numerical failure")

        monkeypatch.setattr(cli, "run_test", boom)
        code = cli.main(["test", x, y, "--epsilon", "1", "--bound-m", "1"])
        assert code == 4

    def test_chi2_non_convergence_exit_code(self, h0_pair, monkeypatch, capsys):
        x, y = h0_pair
        monkeypatch.setattr(randkit, "_GAMMA_MAX_ITER", 1)
        cli.asymptotic_threshold.cache_clear()  # d = 2 may be cached already
        code = cli.main(["test", x, y, "--epsilon", "1", "--bound-m", "1",
                         "--mode", "asymptotic"])
        assert code == 4
        assert "did not converge" in capsys.readouterr().err

    def test_arithmetic_error_exit_code(self, h0_pair, monkeypatch, capsys):
        x, y = h0_pair

        def overflow(*args, **kwargs):
            raise OverflowError("synthetic overflow")

        monkeypatch.setattr(cli, "run_test", overflow)
        code = cli.main(["test", x, y, "--epsilon", "1", "--bound-m", "1"])
        assert code == 4
        assert "synthetic overflow" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["bootstrap", "asymptotic"])
    @pytest.mark.parametrize("case, x_text, y_shape, expected", [
        ("empty", "", (5, 2), 2),
        ("blank_only", "\n\n", (5, 2), 2),
        ("header_only", "u,v\n", (5, 2), 2),
        ("n1", "0.1,0.2\n", (5, 2), 2),
        ("n2", "0.1,0.2\n-0.3,0.4\n", (2, 2), 0),
        ("constant_column", "0.1,0.5\n-0.3,0.5\n0.2,0.5\n", (5, 2), 0),
        ("all_constant", "0.5,0.5\n0.5,0.5\n0.5,0.5\n", None, 0),
        ("d_greater_than_n", "0.1,0.2,-0.3,0.4\n0.5,-0.6,0.7,0.8\n"
                             "-0.9,0.1,0.2,0.3\n", (3, 4), 0),
    ])
    def test_exit_code_table(self, tmp_path, capsys, mode, case, x_text,
                             y_shape, expected):
        x = tmp_path / "x.csv"
        x.write_text(x_text)
        y = tmp_path / "y.csv"
        if y_shape is None:  # the same data in both samples
            y.write_text(x_text)
        else:
            write_csv(y, np.random.default_rng(0).uniform(-1, 1, y_shape))
        code = cli.main(["test", str(x), str(y), "--epsilon", "1",
                         "--bound-m", "1", "--mode", mode])
        assert code == expected, capsys.readouterr().err

    def test_json_schema(self, h0_pair, capsys):
        x, y = h0_pair
        code = cli.main(["test", x, y, "--epsilon", "0.8", "--bound-m", "1",
                         "--seed", "7", "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"statistic", "threshold", "threshold_kind",
                            "reject", "dim", "n1", "n2", "alpha", "epsilon",
                            "budget_split"}
        assert set(doc["budget_split"]) == {"mean_x", "mean_y", "cov_x",
                                            "cov_y"}
        assert doc["dim"] == 2 and doc["n1"] == 200 and doc["n2"] == 220
        assert doc["epsilon"] == 0.8
        assert isinstance(doc["reject"], bool)

    def test_byte_identical_reruns(self, h0_pair, capsys):
        x, y = h0_pair
        args = ["test", x, y, "--epsilon", "0.5", "--bound-m", "1",
                "--seed", "3", "--json"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_column_mismatch(self, tmp_path, capsys):
        x = write_csv(tmp_path / "x.csv", [[0.1, 0.2], [0.3, 0.4]])
        y = write_csv(tmp_path / "y.csv", [[0.1], [0.2]])
        code = cli.main(["test", x, y, "--epsilon", "1", "--bound-m", "1"])
        assert code == 2

    @pytest.mark.filterwarnings("error")
    def test_pool_overflow_exit_code(self, tmp_path, capsys):
        # Every release is finite; their private-corrected pool is not.
        m = 6e153
        x = write_csv(tmp_path / "x.csv", [[m], [-m]])
        y = write_csv(tmp_path / "y.csv", [[m], [0.0]])
        code = cli.main(["test", x, y, "--epsilon", "4", "--bound-m",
                         repr(m), "--seed", "5", "--json"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: private pooled covariance overflows for epsilon=4.0, "
            "bound_m=6e+153, n1=2, n2=2, d=1\n")


class TestConfigurationArguments:
    """``test`` and ``calibrate`` check alpha and the bound before any draw."""

    @pytest.mark.parametrize("command", ["test", "calibrate"])
    @pytest.mark.parametrize("alpha", ["0", "-0.1", "1"])
    def test_alpha_outside_unit_interval(self, h0_pair, capsys, command,
                                         alpha):
        x, y = h0_pair
        code = cli.main([command, x, y, "--epsilon", "1", "--bound-m", "1",
                         "--alpha", alpha])
        err = capsys.readouterr().err
        assert code == 2
        assert "alpha must lie in (0, 1)" in err

    @pytest.mark.parametrize("command", ["test", "calibrate"])
    def test_negative_seed_before_reading_files(self, tmp_path, capsys,
                                                command):
        missing = str(tmp_path / "missing.csv")
        code = cli.main([command, missing, missing, "--epsilon", "1",
                         "--bound-m", "1", "--seed", "-1"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --seed must be a non-negative integer\n")

    def test_negative_seed_simulate(self, tmp_path, capsys):
        out = tmp_path / "ex.csv"
        code = cli.main(["simulate", "--example32", "--reps", "2", "--seed",
                         "-3", "--out", str(out), "--quiet"])
        assert code == 2
        assert "seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["test", "calibrate"])
    def test_infinite_bound(self, h0_pair, capsys, command):
        x, y = h0_pair
        code = cli.main([command, x, y, "--epsilon", "1", "--bound-m", "inf"])
        err = capsys.readouterr().err
        assert code == 2
        assert "bound_m must be positive and finite" in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("args, fault", [
        (["--epsilon", "1e-320", "--bound-m", "1"], "mean release"),
        (["--epsilon", "1e-300", "--bound-m", "1"], "mean release"),
        (["--epsilon", "1", "--bound-m", "1e200"], "mean release"),
        (["--epsilon", "1", "--bound-m", "1e-300", "--clamp"],
         "covariance release"),
    ], ids=["eps-1e-320", "eps-1e-300", "bound-1e200", "bound-1e-300"])
    def test_noise_scale_out_of_range(self, tmp_path, capsys, args, fault):
        gen = np.random.default_rng(0)
        x = write_csv(tmp_path / "x.csv", gen.uniform(-1, 1, (50, 3)))
        y = write_csv(tmp_path / "y.csv", gen.uniform(-1, 1, (40, 3)))
        code = cli.main(["test", x, y, *args])
        err = capsys.readouterr().err
        assert code == 2
        assert fault in err
        for name in ("eps_part=", "bound_m=", "n=50", "d=3"):
            assert name in err


class TestCmdCalibrate:
    def test_reports_chi2_reference(self, tmp_path, capsys):
        gen = np.random.default_rng(1)
        x = write_csv(tmp_path / "x.csv", gen.uniform(-1, 1, (100, 10)))
        y = write_csv(tmp_path / "y.csv", gen.uniform(-1, 1, (100, 10)))
        code = cli.main(["calibrate", x, y, "--epsilon", "1", "--bound-m", "1",
                         "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        ref = float(out.split("chi2 quantile")[1].split(":")[1].split("(")[0])
        assert ref == pytest.approx(chi2_quantile(0.95, 10), rel=1e-9)
        assert "order statistic 190 of 200" in out

    def test_thresholds_match_public_composition(self, tmp_path, capsys):
        gen = np.random.default_rng(4)
        x = write_csv(tmp_path / "x.csv", gen.uniform(-1, 1, (80, 3)))
        y = write_csv(tmp_path / "y.csv", gen.uniform(-1, 1, (60, 3)))
        code = cli.main(["calibrate", x, y, "--epsilon", "1", "--bound-m", "1",
                         "--seed", "6", "--alpha", "0.1", "--bootstrap-B", "150"])
        out = capsys.readouterr().out
        assert code == 0

        rng = randkit.RngStream(6)
        sx = compute_summary(cli.read_matrix_csv(x), 1.0)
        sy = compute_summary(cli.read_matrix_csv(y), 1.0)
        ps = privatize_summaries(rng.substream(1), sx, sy, 1.0)
        cfg = TestConfig(epsilon=1.0, bound_m=1.0, alpha=0.1, bootstrap_b=150)
        q_star = bootstrap_threshold(rng.substream(2), ps, cfg,
                                     private_whitener(ps))
        q_chi2 = asymptotic_threshold(0.1, 3)
        assert out == (
            f"bootstrap threshold : {q_star:.10g} (order statistic 135 of 150)\n"
            f"chi2 quantile       : {q_chi2:.10g} (d=3, alpha=0.1)\n"
        )

    def test_alpha_half_index(self, tmp_path, capsys):
        gen = np.random.default_rng(2)
        x = write_csv(tmp_path / "x.csv", gen.uniform(-1, 1, (50, 1)))
        y = write_csv(tmp_path / "y.csv", gen.uniform(-1, 1, (50, 1)))
        code = cli.main(["calibrate", x, y, "--epsilon", "1", "--bound-m", "1",
                         "--alpha", "0.5", "--bootstrap-B", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "order statistic 100 of 200" in out

    @pytest.mark.slow
    def test_privacy_off_near_chi2(self, tmp_path, capsys):
        gen = np.random.default_rng(3)
        x = write_csv(tmp_path / "x.csv", gen.uniform(-1, 1, (50000, 1)))
        y = write_csv(tmp_path / "y.csv", gen.uniform(-1, 1, (50000, 1)))
        code = cli.main(["calibrate", x, y, "--epsilon", "inf",
                         "--unsafe-no-privacy", "--bound-m", "1",
                         "--bootstrap-B", "20000", "--seed", "5"])
        out = capsys.readouterr().out
        assert code == 0
        q_star = float(out.split("bootstrap threshold :")[1].split("(")[0])
        ref = chi2_quantile(0.95, 1)
        assert abs(q_star - ref) / ref <= 0.05


class TestCmdSimulate:
    def test_example32_csv(self, tmp_path, capsys):
        out_path = tmp_path / "ex.csv"
        code = cli.main(["simulate", "--example32", "--reps", "20",
                         "--out", str(out_path), "--seed", "1", "--quiet"])
        assert code == 0
        table = read_table_csv(out_path)
        assert len(table.rows) == 2
        assert [r.eps for r in table.rows] == [4.0, 1.0]
        assert all(r.reps == 20 for r in table.rows)

    def test_summary_json(self, tmp_path):
        out_path = tmp_path / "ex.csv"
        summary = tmp_path / "s.json"
        code = cli.main(["simulate", "--example32", "--reps", "10",
                         "--out", str(out_path), "--summary-json",
                         str(summary), "--quiet"])
        assert code == 0
        doc = json.loads(summary.read_text())
        assert doc["artifact"] == "example32"
        assert len(doc["rows"]) == 2

    def test_requires_exactly_one_artifact(self, capsys):
        assert cli.main(["simulate", "--quiet"]) == 2
        assert cli.main(["simulate", "--table1", "--power", "--quiet"]) == 2

    def test_full_option_removed(self, capsys):
        # --reps 1000 gives the cells that --full used to give.
        with pytest.raises(SystemExit) as info:
            cli.main(["simulate", "--table1", "--full", "--quiet"])
        assert info.value.code == 2
        assert "--full" in capsys.readouterr().err

    def test_unwritable_path(self, capsys):
        code = cli.main(["simulate", "--example32", "--reps", "5",
                         "--out", "/nonexistent-dir/x.csv", "--quiet"])
        assert code == 2

    @pytest.mark.parametrize("artifact", ["--table1", "--table2", "--power",
                                          "--example32"])
    def test_reps_replaces_every_cells_count(self, monkeypatch, artifact):
        seen = []

        def fake_run_grid(cells, reps, **kwargs):
            seen.extend(cells)
            return simbench.RejectionTable(rows=())

        monkeypatch.setattr(simbench, "run_grid", fake_run_grid)
        monkeypatch.setattr(simbench, "write_table_csv", lambda *args: None)
        assert cli.main(["simulate", artifact, "--reps", "7", "--quiet"]) == 0
        assert seen and all(cell.reps == 7 for cell in seen)

    @pytest.mark.parametrize("counts, message", [
        (["--reps", "0"], "reps must be positive"),
        (["--reps", "-3"], "reps must be positive"),
        (["--reps", "2", "--threads", "0"], "n_jobs must be at least 1"),
        (["--reps", "2", "--threads", "-4"], "n_jobs must be at least 1"),
    ])
    def test_counts_below_one_rejected(self, tmp_path, capsys, counts,
                                       message):
        out = tmp_path / "ex.csv"
        code = cli.main(["simulate", "--example32", *counts, "--out",
                         str(out), "--quiet"])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_output_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert cli.main(["simulate", "--example32", "--reps", "15",
                             "--out", str(path), "--seed", "9",
                             "--threads", "2", "--quiet"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestParserReuse:
    """``main`` parses with one parser per process, built on first use."""

    @staticmethod
    def call(argv):
        """(exit code, stdout, stderr) of ``main(argv)``, usage errors too."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = ("SystemExit", exc.code)
        return code, out.getvalue(), err.getvalue()

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_consecutive_calls_print_what_fresh_calls_print(self, h0_pair,
                                                            tmp_path):
        x, y = h0_pair
        gen = np.random.default_rng(3)
        wide = write_csv(tmp_path / "wide.csv", gen.uniform(-1.5, 1.5, (60, 2)))
        opts = ["--epsilon", "1", "--bound-m", "1"]
        argvs = [
            ["test", wide, y, *opts, "--clamp"],
            ["test", wide, y, *opts],                        # exit 3
            ["test", x, y, *opts, "--json", "--mode", "asymptotic"],
            ["test", x, y, *opts],
            ["test", x, y, "--epsilon", "oops", "--bound-m", "1"],  # exit 2
            ["test", x, y, *opts, "--alpha"],               # usage error
            ["calibrate", x, y, *opts, "--seed", "4"],
            ["test", x, y, *opts, "--seed", "4"],
        ]
        fresh = []
        for argv in argvs:
            cli.build_parser.cache_clear()
            fresh.append(self.call(argv))
        cli.build_parser.cache_clear()
        assert [self.call(argv) for argv in argvs] == fresh
        codes = [code for code, _, _ in fresh]
        assert codes == [0, cli.EXIT_BOUNDS, 0, 0, cli.EXIT_USAGE,
                         ("SystemExit", 2), 0, 0]
        assert fresh[2][1].startswith("{") and "statistic" in fresh[3][1]


class TestScriptedLevel:
    @pytest.mark.slow
    def test_null_rejection_rate_over_many_invocations(self, tmp_path, capsys):
        # Fresh null data per invocation, varying --seed; the rejection
        # rate stays near the nominal 5% (d=1, n=1e3, eps=0.5, bootstrap).
        gen = np.random.default_rng(20)
        reps = 200
        hits = 0
        x_path, y_path = tmp_path / "x.csv", tmp_path / "y.csv"
        bound = math.sqrt(3.0)
        for seed in range(reps):
            write_csv(x_path, gen.uniform(-bound, bound, (1000, 1)))
            write_csv(y_path, gen.uniform(-bound, bound, (1000, 1)))
            code = cli.main(["test", str(x_path), str(y_path),
                             "--epsilon", "0.5", "--bound-m", repr(bound),
                             "--seed", str(seed), "--json"])
            assert code == 0
            hits += json.loads(capsys.readouterr().out)["reject"]
        sigma = math.sqrt(0.05 * 0.95 / reps)
        assert 0.05 - 3 * sigma <= hits / reps <= 0.05 + 3 * sigma


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        data = np.linspace(-0.5, 0.5, 20)[:, None]
        x = write_csv(tmp_path / "x.csv", data)
        y = write_csv(tmp_path / "y.csv", data)
        proc = subprocess.run(
            [sys.executable, "-m", "dphotelling.cli", "test", x, y,
             "--epsilon", "1", "--bound-m", "1", "--seed", "0", "--json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["threshold_kind"] == "bootstrap"
