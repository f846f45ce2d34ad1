import contextlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import numfac
from numfac import cli
from numfac.cli import main
from numfac.verify import PropertyResult


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class _ByteSink(io.TextIOBase):
    """A text stream that keeps only the number of bytes written to it."""

    nbytes = 0

    def writable(self):
        return True

    def write(self, text):
        self.nbytes += len(text.encode())
        return len(text)


class TestBasics:
    def test_delta_set_json_payload(self, capsys):
        code, out, _ = run(capsys, "delta-set", "--gens", "6,9,20", "--bound", "144",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["payload"] == {"delta_set": [1, 2, 3, 4]}
        assert doc["monoid"] == {"generators": [6, 9, 20], "frobenius": 43}
        assert doc["command"] == "delta-set"
        assert doc["timing_ms"] >= 0

    def test_omega_plain(self, capsys):
        code, out, _ = run(capsys, "omega", "--gens", "6,9,20", "--n", "1000")
        assert code == 0
        assert out.strip() == "170"

    def test_empty_factorizations_exit_zero(self, capsys):
        code, out, _ = run(capsys, "factorizations", "--gens", "6,9,20", "--n", "43",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["payload"] == {"n": 43, "count": 0, "factorizations": []}

    def test_factorizations_descending_lex(self, capsys):
        code, out, _ = run(capsys, "factorizations", "--gens", "6,9,20", "--n", "60")
        assert code == 0
        assert out.splitlines() == ["10,0,0", "7,2,0", "4,4,0", "1,6,0", "0,0,3"]

    def test_info_reports_reduction(self, capsys):
        code, out, _ = run(capsys, "info", "--gens", "6,9,15,20", "--format", "json")
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["generators"] == [6, 9, 20]
        assert payload["removed_generators"] == [15]
        assert payload["frobenius"] == 43
        assert payload["period_hint"] == 60


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        assert run(capsys, "no-such-command")[0] == 1
        assert run(capsys, "omega", "--gens", "6,9,20")[0] == 1  # missing --n
        assert run(capsys, "omega", "--gens", "a,b", "--n", "1")[0] == 1
        assert run(capsys, "bench", "--gens", "6,9,20")[:2] == (1, "")  # no such command

    def test_invalid_monoid_is_2(self, capsys):
        assert run(capsys, "info", "--gens", "4,6")[0] == 2
        assert run(capsys, "info", "--gens", "")[0] == 2
        assert run(capsys, "info", "--gens", "0,3")[0] == 2

    def test_overflow_is_3(self, capsys):
        code, _, err = run(capsys, "omega", "--gens", "6,9,20", "--n",
                           "99999999999999999999")
        assert code == 3

    @pytest.mark.parametrize("argv", [["omega-up-to", "--stream"],
                                      ["omega-up-to", "--format", "csv"]])
    def test_huge_scan_target_is_3_with_empty_stdout(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--gens", "6,9,20", "--n", "1000000000000")
        assert (code, out) == (3, "")
        assert err.startswith("numfac: overflow:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("argv", [["quasilinear"], ["omega", "--n", "1000000000"]])
    def test_oversized_model_is_3_before_allocating(self, capsys, argv):
        # the model of <1000,1001> would take a 7.5 GiB table; what is traced
        # is mostly the monoid's membership table of F(S) + 1 = 999,000 bytes
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--gens", "1000,1001")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err.startswith("numfac: overflow:") and "model table cap" in err
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("argv", [["lengths", "--n", "1000000000000"],
                                      ["bullets", "--n", "1000000000"]])
    def test_long_element_queries_are_3_before_allocating(self, capsys, argv):
        # L(10**12) holds about 1.2e11 lengths; a bullet scan to 10**9 takes about a day
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv, "--gens", "6,9,20")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err.startswith("numfac: overflow:") and len(err.splitlines()) == 1
        assert peak < 1_000_000

    @pytest.mark.parametrize("argv", [
        ["delta-set", *form] for form in ([], ["--format", "csv"], ["--format", "json"])] + [
        ["plotdata", "delta", "--horizon", "10000000000", *form]
        for form in ([], ["--format", "csv"], ["--format", "json"], ["--stream"])])
    def test_delta_scans_past_the_budget_are_3_at_once(self, capsys, argv):
        # <1000,2001> skips the certificate (2 p H is about 1.2e10 bits), so
        # no Delta scan may pass the budget's reach of about 1.4e7 elements
        code, out, err = run(capsys, *argv, "--gens", "1000,2001")
        assert (code, out) == (3, "")
        assert err.startswith("numfac: overflow:") and "scan budget" in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_not_in_monoid_is_4(self, capsys):
        assert run(capsys, "apery", "--gens", "6,9,20", "--n", "7")[0] == 4

    @pytest.mark.parametrize("error, expected", [(MemoryError, 3), (KeyboardInterrupt, 130)])
    def test_memory_error_and_interrupt_exit_without_traceback(self, capsys, monkeypatch,
                                                                error, expected):
        def fail(S, args):
            raise error

        monkeypatch.setitem(cli.COMMANDS, "info", cli._Command(fail))
        code, out, err = run(capsys, "info", "--gens", "6,9,20")
        assert (code, out) == (expected, "")
        assert len(err.splitlines()) == 1 and "Traceback" not in err


# the options each command takes besides --gens and --format, and a value
# for each option (--stream takes none)
TAKES = {
    "info": [], "contains": ["--n"], "apery": ["--n"], "pseudo-frobenius": [],
    "factorizations": ["--n"], "factorizations-up-to": ["--n", "--stream"],
    "lengths": ["--n"], "delta": ["--n"], "delta-set": ["--bound"],
    "delta-periodicity": ["--horizon"], "omega": ["--n"],
    "omega-up-to": ["--n", "--domain", "--stream"], "bullets": ["--n", "--method"],
    "quasilinear": [], "dissonance": [], "plotdata": ["--horizon", "--stream"],
    "verify": ["--n"],
}
VALUES = {"--n": ["60"], "--horizon": ["120"], "--bound": ["144"], "--domain": ["quotient"],
          "--stream": [], "--method": ["brute"]}


def _taking_all(command):
    """An argv of ``command`` on <6,9,20> with every option it takes."""
    argv = [command, *(["delta"] if command == "plotdata" else []), "--gens", "6,9,20"]
    for option in TAKES[command]:
        argv += [option, *VALUES[option]]
    return argv


class TestOptions:
    def test_the_table_names_every_command(self):
        assert set(TAKES) == set(cli.COMMANDS)
        assert sum(map(len, TAKES.values())) + len(TAKES) == 35  # --format too

    @pytest.mark.parametrize("command", sorted(TAKES))
    def test_each_command_takes_its_options(self, capsys, command):
        assert run(capsys, *_taking_all(command), "--format", "csv")[0] == 0

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, takes in TAKES.items()
        for option in VALUES if option not in takes])
    def test_any_other_option_is_a_usage_error(self, capsys, command, option):
        assert run(capsys, *_taking_all(command), option, *VALUES[option])[:2] == (1, "")

    def test_plotdata_n_is_not_a_horizon(self, capsys):
        assert run(capsys, "plotdata", "delta", "--gens", "6,9,20", "--n", "100")[:2] == (1, "")

    def test_an_option_not_taken_is_reported_with_the_command_usage(self, capsys):
        code, out, err = run(capsys, "omega", "--gens", "6,9,20", "--n", "5", "--horizon", "9")
        assert (code, out) == (1, "")
        usage, *_, message = err.splitlines()
        assert usage.startswith("usage: numfac omega ") and "--n N" in usage
        assert message == "numfac omega: error: unrecognized arguments: --horizon 9"


class TestElementQueries:
    def test_far_delta_answers_from_the_certificate(self, capsys):
        assert run(capsys, "delta", "--gens", "6,9,20", "--n", "1000000000000")[:2] == (0, "1 4\n")

    def test_delta_of_a_gap_is_empty(self, capsys):
        assert run(capsys, "delta", "--gens", "6,9,20", "--n", "43")[:2] == (0, "\n")


class TestFormats:
    def test_json_round_trips_canonically(self, capsys):
        _, out, _ = run(capsys, "lengths", "--gens", "6,9,20", "--n", "60",
                        "--format", "json")
        raw = out.strip()
        assert json.dumps(json.loads(raw), sort_keys=True, separators=(",", ":")) == raw

    def test_same_numbers_in_all_formats(self, capsys):
        _, plain, _ = run(capsys, "lengths", "--gens", "6,9,20", "--n", "60")
        _, as_csv, _ = run(capsys, "lengths", "--gens", "6,9,20", "--n", "60",
                           "--format", "csv")
        _, as_json, _ = run(capsys, "lengths", "--gens", "6,9,20", "--n", "60",
                            "--format", "json")
        expected = [3, 7, 8, 9, 10]
        assert [int(v) for v in plain.split()] == expected
        assert [int(r) for r in as_csv.splitlines()[1:]] == expected
        assert json.loads(as_json)["payload"]["lengths"] == expected

    def test_csv_has_header(self, capsys):
        _, out, _ = run(capsys, "contains", "--gens", "6,9,20", "--n", "43",
                        "--format", "csv")
        assert out.splitlines() == ["n,member", "43,0"]

    def test_quasilinear_offsets_are_fractions(self, capsys):
        _, out, _ = run(capsys, "quasilinear", "--gens", "6,9,20", "--format", "json")
        payload = json.loads(out)["payload"]
        assert payload["threshold"] == 104
        assert payload["dissonance"] == 12
        assert all("/" in o for o in payload["offsets"])
        assert len(payload["offsets"]) == 6


class TestStreaming:
    def test_factorizations_stream_is_json_lines(self, capsys):
        code, out, _ = run(capsys, "factorizations-up-to", "--gens", "6,9,20",
                           "--n", "20", "--stream")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [d["m"] for d in lines] == [0, 6, 9, 12, 15, 18, 20]
        assert lines[-1]["factorizations"] == [[0, 0, 1]]

    def test_omega_stream(self, capsys):
        code, out, _ = run(capsys, "omega-up-to", "--gens", "6,9,20", "--n", "0",
                           "--domain", "quotient", "--stream")
        first = json.loads(out.splitlines()[0])
        assert first == {"m": -43, "omega": 1}


    def test_omega_stream_runs_in_bounded_memory(self):
        # rows leave as the scan yields them: no dict of the range, no sorted copy
        sink = _ByteSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(["omega-up-to", "--gens", "6,9,20", "--n", "50000", "--stream"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.nbytes > 1_000_000
        assert peak < 2**20

    @pytest.mark.parametrize("argv, bound", [
        # 25,000 lies below N0 + 2 * n1 = 25,915 here, so every row comes
        # from the scan, whose own window takes about 2.4 MiB
        (["omega-up-to", "--gens", "100,121,142,163,284", "--n", "25000", "--stream"], 3 * 2**20),
        # 162,781 rows: a rendered batch of 2,048 rows peaks near 0.5 MiB,
        # one of 8,192 rows above 1 MiB
        (["factorizations-up-to", "--gens", "6,9,20", "--n", "1000", "--format", "csv"],
         2**20),
    ])
    def test_sweep_renders_in_bounded_memory(self, argv, bound):
        sink = _ByteSink()
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.nbytes > 500_000
        assert peak < bound

    def test_omega_up_to_is_ascending(self, capsys):
        code, out, _ = run(capsys, "omega-up-to", "--gens", "6,9,20", "--n", "30")
        assert code == 0
        rows = [tuple(map(int, line.split())) for line in out.splitlines()]
        assert [m for m, _ in rows] == [0, 6, 9, 12, 15, 18, 20, 21, 24, 26, 27, 29, 30]
        assert rows == list(numfac.omega_up_to(numfac.NumericalMonoid([6, 9, 20]), 30).items())

    @pytest.mark.parametrize("form", [["--format", "plain"], ["--format", "csv"],
                                      ["--format", "json"], ["--stream"]])
    def test_refused_omega_up_to_prints_nothing(self, capsys, form):
        code, out, _ = run(capsys, "omega-up-to", "--gens", "6,9,20", "--n", "-44",
                           "--domain", "quotient", *form)
        assert (code, out) == (1, "")


int64s = st.integers(-2**63, 2**63 - 1)
# 0, every digit count of either sign, and both ends of int64
EDGES = [0, 2**63 - 1, -2**63, *(s * 10**d + e for d in range(19) for s in (1, -1)
                                   for e in (0, -s))]


class TestRenderer:
    @given(st.lists(st.tuples(int64s, int64s, int64s), max_size=40),
           st.sampled_from([",", " ", ',"omega":']))
    @example([(v, -v if v > -2**63 else v, 7) for v in EDGES], ",")
    @settings(max_examples=60, deadline=None)
    def test_rows_match_str(self, rows, sep):
        columns = np.array(rows, dtype=np.int64).reshape(-1, 3).T
        expected = "".join("[" + sep.join(map(str, row)) + "]\n" for row in rows)
        assert cli._rows(columns, "[", sep, "]\n") == expected

    # one and two 4-digit groups, with each group boundary and both signs
    @given(st.lists(st.tuples(st.integers(-10**9, 10**9), st.integers(0, 10**4)), max_size=40))
    @example([(s * v, min(v, 10**4)) for v in (0, 9999, 10000, 99999999, 100000000)
              for s in (1, -1)])
    @settings(max_examples=60, deadline=None)
    def test_small_and_group_boundary_rows_match_str(self, rows):
        columns = np.array(rows, dtype=np.int64).reshape(-1, 2).T
        expected = "".join(",".join(map(str, row)) + "\n" for row in rows)
        assert cli._rows(columns, "", ",", "\n") == expected

    @given(st.lists(st.tuples(int64s, st.booleans()), min_size=1, max_size=40))
    def test_fields_a_row_does_not_carry_are_left_out(self, rows):
        values = np.array([v for v, _ in rows], dtype=np.int64)
        shown = np.array([s for _, s in rows])
        text = cli._text(len(rows), [values, (";", shown), ("\n", ~shown)])
        assert text == "".join(str(v) + (";" if s else "\n") for v, s in rows)


class TestPlotData:
    def test_delta_rows_include_worked_example(self, capsys):
        _, out, _ = run(capsys, "plotdata", "delta", "--gens", "6,9,20",
                        "--horizon", "62", "--format", "csv")
        rows = {tuple(map(int, line.split(","))) for line in out.splitlines()[1:]}
        assert (60, 1) in rows and (60, 4) in rows

    def test_omega_rows_include_zero_tail(self, capsys):
        _, out, _ = run(capsys, "plotdata", "omega", "--gens", "6,9,20",
                        "--horizon", "5", "--format", "csv")
        lines = out.splitlines()
        assert lines[0] == "n,omega,in_monoid"
        rows = {tuple(map(int, line.split(","))) for line in lines[1:]}
        assert (-44, 0, 0) in rows
        assert (-43, 1, 0) in rows
        assert (0, 0, 1) in rows

    @pytest.mark.parametrize("horizon", ["492", "493", "640"])
    @pytest.mark.parametrize("form", [["--format", "csv"], ["--stream"]])
    def test_delta_rows_past_the_certificate_unchanged(self, capsys, monkeypatch, horizon, form):
        # the certificate fires at 493 on <6,9,20>; rows from 493 on come from its slots
        argv = ["plotdata", "delta", "--gens", "6,9,20", "--horizon", horizon, *form]
        certified = run(capsys, *argv)
        monkeypatch.setattr("numfac.delta._CERTIFICATE_BITS", 0)
        assert run(capsys, *argv) == certified

    def test_empty_range_header_only(self, capsys):
        _, out, _ = run(capsys, "plotdata", "delta", "--gens", "6,9,20",
                        "--horizon", "0", "--format", "csv")
        assert out.splitlines() == ["n,d"]


class TestVerify:
    def test_verify_passes_on_small_monoid(self, capsys):
        code, out, _ = run(capsys, "verify", "--gens", "2,3", "--n", "100")
        assert code == 0
        assert "FAIL" not in out
        assert "PASS" in out

    def test_verify_passes_on_mcnugget(self, capsys):
        # no --n: verify checks up to 200, as the benchmark's verify query does
        code, out, _ = run(capsys, "verify", "--gens", "6,9,20")
        assert code == 0
        assert "FAIL" not in out

    def test_naturals_monoid_works(self, capsys):
        code, out, _ = run(capsys, "delta-set", "--gens", "1", "--format", "json")
        assert code == 0
        assert json.loads(out)["payload"] == {"delta_set": []}
        code, out, _ = run(capsys, "verify", "--gens", "1")
        assert code == 0
        assert "FAIL" not in out

    def test_verify_rejects_bad_monoid(self, capsys):
        assert run(capsys, "verify", "--gens", "4,6")[0] == 2

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        failing = [PropertyResult("a check", 5, 2)]
        monkeypatch.setattr("numfac.cli.run_suite", lambda S, n: failing)
        argv = ["verify", "--gens", "6,9,20"]
        assert run(capsys, *argv) == (1, "FAIL a check: checked 5, failures 2\n", "")
        assert run(capsys, *argv, "--format", "csv") == (
            1, "property,checked,failures\na check,5,2\n", "")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 1 and '"ok":false' in out


class TestClosedPipe:
    def test_reader_closing_early_exits_1_without_traceback(self):
        # the reader takes one line and closes the pipe, as ``| head -1`` does
        src = str(Path(numfac.__file__).parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "numfac", "factorizations-up-to", "--gens", "6,9,20",
             "--n", "3000", "--stream"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            assert proc.stdout.readline().startswith(b'{"count":1,')
            proc.stdout.close()
            assert proc.wait(timeout=120) == 1
        finally:
            proc.kill()
        err = proc.stderr.read()
        proc.stderr.close()
        assert b"Traceback" not in err
        assert b"BrokenPipeError" not in err
