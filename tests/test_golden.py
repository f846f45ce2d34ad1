"""Byte-for-byte golden outputs of the numfac command line.

Every case runs ``numfac.cli.main`` in-process and compares its exit
code and its stdout with the files under ``tests/golden/``: stdout in
``<case>.out`` and every exit code in ``exit_codes.json``.  In JSON
output only the ``timing_ms`` field is masked.  Each command of a
monoid is passed only the options it takes (``numfac.cli.COMMANDS``).

After an intended change of output, record the files again with

    PYTHONPATH=src python tests/test_golden.py [case ...]

which records only the named cases when any are given.
"""

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from numfac import cli

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# per monoid: its tag, its --gens and a value for each option; a command
# gets --gens and those of the options that it takes
MONOIDS = [
    ("6-9-20", "6,9,20", {"--n": "60", "--horizon": "120"}),
    ("10-17-19-25-31", "10,17,19,25,31", {"--n": "40", "--horizon": "400", "--bound": "300"}),
    ("1", "1", {"--n": "5", "--horizon": "10"}),
]
COMMANDS = [
    ["info"], ["contains"], ["apery"], ["pseudo-frobenius"], ["factorizations"],
    ["factorizations-up-to"], ["lengths"], ["delta"], ["delta-set"],
    ["delta-periodicity"], ["omega"], ["omega-up-to"], ["bullets"], ["quasilinear"],
    ["dissonance"], ["plotdata", "delta"], ["plotdata", "omega"], ["verify"],
]
STREAMED = [["factorizations-up-to"], ["omega-up-to"], ["plotdata", "delta"],
            ["plotdata", "omega"], ["omega-up-to", "--domain", "quotient"]]
# variants that only the first monoid runs
EXTRA = [
    ["bullets", "--method", "apery"],
    ["bullets", "--method", "brute"],
    ["omega-up-to", "--domain", "quotient"],
]
# single calls: a target far past the scan range, then the failing calls
CALLS = {
    "omega-huge-target": ["omega", "--gens", "6,9,20", "--n", "1000000000000"],
    "exit1-missing-n": ["omega", "--gens", "6,9,20"],
    "exit1-stream-unsupported": ["apery", "--gens", "6,9,20", "--n", "7", "--stream"],
    "exit1-negative-target-csv": ["factorizations-up-to", "--gens", "6,9,20", "--n", "-1",
                                  "--format", "csv"],
    "exit1-plotdata-no-horizon": ["plotdata", "delta", "--gens", "6,9,20", "--format", "csv"],
    "exit1-plotdata-delta-negative-horizon-csv": ["plotdata", "delta", "--gens", "6,9,20",
                                                  "--horizon", "-5", "--format", "csv"],
    "exit2-invalid-monoid": ["info", "--gens", "4,6"],
    "exit3-overflow": ["omega", "--gens", "6,9,20", "--n", "99999999999999999999"],
    "exit3-apery-huge-base": ["apery", "--gens", "6,9,20", "--n", "1000000000000000"],
    "exit3-delta-periodicity-huge-horizon": ["delta-periodicity", "--gens", "6,9,20",
                                             "--horizon", "10000000000000"],
    "exit3-plotdata-delta-horizon-overflow-csv": ["plotdata", "delta", "--gens", "6,9,20",
                                                  "--horizon", "99999999999999999999",
                                                  "--format", "csv"],
    "exit3-bullets-huge-target": ["bullets", "--gens", "6,9,20", "--n", "1000000000000"],
    "exit4-not-in-monoid": ["apery", "--gens", "6,9,20", "--n", "7"],
}


def _cases():
    cases = dict(CALLS)
    for tag, gens, values in MONOIDS:
        commands = COMMANDS + (EXTRA if tag == MONOIDS[0][0] else [])
        for command in commands:
            name = f"{tag}." + "-".join(a.lstrip("-") for a in command)
            options = cli.COMMANDS[command[0]].options
            flags = ["--gens", gens]
            for flag, value in values.items():
                if flag in options:
                    flags += [flag, value]
            for fmt in ("plain", "csv", "json"):
                cases[f"{name}.{fmt}"] = command + flags + ["--format", fmt]
            if command in STREAMED:
                cases[f"{name}.stream"] = command + flags + ["--stream"]
    return cases


CASES = _cases()


def run_case(argv):
    """(exit code, stdout with ``timing_ms`` masked) of one CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, re.sub(r'"timing_ms":\d+', '"timing_ms":0', out.getvalue())


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    code, out = run_case(CASES[case])
    assert code == json.loads(EXIT_CODES.read_text())[case]
    assert out.encode() == (GOLDEN / f"{case}.out").read_bytes()


def record(names):
    codes = json.loads(EXIT_CODES.read_text()) if EXIT_CODES.exists() else {}
    for case in names:
        codes[case], out = run_case(CASES[case])
        (GOLDEN / f"{case}.out").write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    record(sys.argv[1:] or sorted(CASES))
