"""Command-line interface.

    numfac <command> --gens <comma-separated positive ints>
           [--format plain|json|csv] <options of the command>

    contains, apery, factorizations, lengths, delta, omega   --n INT
    factorizations-up-to      --n INT [--stream]
    omega-up-to               --n INT [--domain monoid|quotient] [--stream]
    bullets                   --n INT [--method dp|apery|brute]
    delta-set                 [--bound INT]
    delta-periodicity         [--horizon INT]
    plotdata delta|omega      --horizon INT [--stream]
    verify                    [--n INT]  (default 200)
    info, pseudo-frobenius, quasilinear, dissonance   no other option

Each command takes only the options listed for it (``COMMANDS``
declares them); any other is a usage error.  Results are printed to
stdout; diagnostics go to stderr.  JSON output is one canonical
document (sorted keys, no whitespace) wrapping the command payload in
an envelope that echoes the minimal generators and the Frobenius
number.  ``--stream`` switches a sweep to JSON Lines, one element per
line.  All numbers are integers except the quasilinear offsets, which
are exact fractions rendered as "p/q".

Tables of integers (the sweeps, factorizations, bullets) leave as text a
batch of rows at a time: ``_text`` renders int columns and the literal
separators around them in one vectorized pass, with no Python object
per row, and writes each batch to stdout as the scan yields it.  An int
is read four digits at a time from one table of the 10**4 groups, not
one division per digit, and every byte a row does not use, such as a
leading zero, holds NUL; the rendered block drops its NULs with one
``bytes.translate``, so no mask marks the bytes in use.

Exit codes (``_EXITS`` maps exceptions onto them): 0 success, 1 usage or
precondition error, a failed ``verify`` check, or stdout closed before
the output was complete (as by ``| head``), 2 invalid monoid, 3
arithmetic overflow or out of memory, 4 required element not in the
monoid, 130 interrupted.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple

import numpy as np

from . import __version__
from .delta import _delta_at, _deltas_up_to, delta_periodicity, delta_set, length_set
from .errors import Int64Overflow, MonoidInputError, NotInMonoid
from .factorization import factorizations, factorizations_up_to
from .monoid import NumericalMonoid
from .omega import (
    _omegas,
    bullets_brute_force,
    bullets_via_apery,
    dynamic_bullets,
    omega,
    quasilinear_model,
)
from .verify import run_suite


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 (argparse defaults to 2, which is reserved
    # for invalid monoids)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _ints(text):
    return [int(p) for p in text.split(",") if p.strip()]


@functools.cache  # built once: main looks up each command's run in COMMANDS at call time
def _build_parser():
    parser = _Parser(prog="numfac", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"numfac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, prog=f"numfac {name}")
        p.add_argument("--gens", type=_ints, required=True,
                       help="comma-separated positive integers")
        for flag, spec in command.options.items():
            p.add_argument(flag, **spec)
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    return parser, sub.choices


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _desc_lex(vectors):
    return sorted(vectors, reverse=True)


def _columns(prefix, k):
    return [f"{prefix}{i + 1}" for i in range(k)]


class _Output(NamedTuple):
    """A command's result, with each output form described once.

    Only the form that ``--format`` or ``--stream`` selects is rendered.
    Each text form is an iterable of whole lines of text.  A sweep's
    forms are generators over one shared scan, so that form alone runs
    the scan and its batches reach stdout as they come.  Payload values
    that are iterators are listed when the JSON document is built.
    """

    payload: dict
    header: list  # CSV header
    csv: Iterable  # CSV text, without the header
    plain: Iterable  # plain text
    stream: Iterable = ()  # JSON Lines text for --stream
    ok: bool = True  # exit 1 when false


def _lines(rows, sep=","):
    """Each row of values as one line of text, its values joined by ``sep``."""
    return [sep.join(map(str, row)) + "\n" for row in rows]


def _column(payload, key, header):
    """payload[key] as one CSV column, and on one plain line."""
    values = payload[key]
    return _Output(payload, [header], _lines([v] for v in values), _lines([values], " "))


def _table(payload, key, header, batches, sep=",", stream=("[", ",", "]\n")):
    """Batches of int columns as one table in every form.

    The JSON document lists the rows under payload[key]; the text forms
    render a batch at a time: CSV rows, plain rows joined by ``sep``, and
    JSON Lines rows framed by ``stream`` (prefix, between, suffix).
    """
    payload[key] = (row for columns in batches for row in np.column_stack(columns).tolist())
    return _Output(
        payload,
        header,
        (_rows(columns, "", ",", "\n") for columns in batches),
        (_rows(columns, "", sep, "\n") for columns in batches),
        (_rows(columns, *stream) for columns in batches),
    )


def _record(fields, keys=None):
    """``key: value`` lines in plain, one CSV row of the fields in ``keys``.

    ``keys`` (default: every field) also selects the fields shown.  List
    values are joined by ";" in CSV and by spaces in plain.
    """
    keys = list(keys or fields)
    shown = {k: v for k, v in fields.items() if k in keys}
    return _Output(
        shown,
        keys,
        _lines([[_joined(fields[k], ";") for k in keys]]),
        [f"{k}: {_joined(v, ' ')}\n" for k, v in shown.items()],
    )


def _joined(value, sep):
    return sep.join(map(str, value)) if isinstance(value, list) else value


# ---------------------------------------------------------------- rendering

# rows per rendered batch: rendering peaks at about 150 bytes a row, so a
# sweep's stdout costs a few hundred KiB of memory at any length
_BATCH = 2048


def _text(rows, fields):
    """``rows`` lines of text, each the concatenation of ``fields``, in one pass.

    A field is an int array with one number per row, a str, or a pair
    (str, shown) whose bool array marks the rows that carry the str.
    Each field is written once into one (width, rows) uint8 block, with
    NUL in every byte a row does not use; the NULs are deleted from the
    rows' bytes at the end, so no Python object is made per row.  No
    str field holds a NUL.
    """
    pieces = []
    for field in fields:
        if isinstance(field, np.ndarray):
            pieces.append(_digits(field).T)
        else:
            text, shown = field if isinstance(field, tuple) else (field, True)
            pieces.append(np.frombuffer(text.encode(), np.uint8)[:, None] * shown)
    chars = np.empty((sum(map(len, pieces)), rows), np.uint8)
    at = 0
    for c in pieces:
        chars[at:at + len(c)] = c
        at += len(c)
    return chars.T.tobytes().translate(None, b"\0").decode()


@functools.cache  # on first use: commands that render no int column never build them
def _quad_table():
    """uint32 table of 4 ASCII bytes over r < 2 * 10**4.

    At r < 10**4 the digits of r with NUL for its leading zeros (all
    NUL at 0), and at r >= 10**4 all four digits of r - 10**4.
    """
    r, places = np.arange(2 * 10**4, dtype=np.uint16), (1000, 100, 10, 1)
    chars = np.stack([(r // p % 10 + ord("0")) * ((r >= p) | (r >= 10**4)) for p in places],
                     axis=1).astype(np.uint8)
    return np.frombuffer(chars.tobytes(), np.uint32)  # read-only


def _digits(values):
    """The sign and digits of int values, right-aligned, with NUL in the bytes not in use.

    Negation in uint64 is exact for every int64, -2**63 included.
    """
    quads = _quad_table()
    negative = values < 0
    signed = bool(negative.any())
    mag = values.astype(np.uint64)
    np.negative(mag, out=mag, where=negative)
    top = int(mag.max(initial=0))
    if top < 2**32:  # a faster division
        mag = mag.astype(np.uint32)
    width = len(str(top)) + signed
    groups = -(-width // 4)  # of four digits, the first holding the sign and leading digits
    chars = np.empty((len(values), groups), np.uint32)
    for g in range(groups - 1, 0, -1):
        rest = mag // 10**4
        low = mag - rest * 10**4
        # all 4 digits below a nonzero digit (mag >= low + 10**4), else leading zeros as NUL
        chars[:, g] = quads.take(np.minimum(mag, low + 10**4))
        mag = rest
    chars[:, 0] = quads.take(mag)
    chars = chars.view(np.uint8)[:, 4 * groups - width:]
    chars[:, -1] |= ord("0")  # 0 shows one digit
    if signed:
        rows = np.flatnonzero(negative)
        sign = width - 1 - np.count_nonzero(chars[rows], axis=1)
        chars[rows, sign] = ord("-")
    return chars


def _rows(columns, prefix, between, *suffix):
    """Rows of int columns as prefix + between.join(row) and then the ``suffix`` fields."""
    fields = [between] * (2 * len(columns) + 1)
    fields[1::2] = list(columns)
    fields[0], fields[-1:] = prefix, suffix
    return _text(len(columns[0]), fields)


def _grouped(scan):
    """(ms, parts) of consecutive items of an (m, part) scan, parts of _BATCH rows or more.

    A part is an element's rows or a block's column; the last group may be smaller.
    """
    ms, parts, size = [], [], 0
    for m, part in scan:
        ms.append(m)
        parts.append(part)
        size += len(part)
        if size >= _BATCH:
            yield ms, parts
            ms, parts, size = [], [], 0
    if ms:
        yield ms, parts


# ---------------------------------------------------------------- handlers
# each takes (monoid, args) and returns an _Output


def _cmd_info(S, args):
    return _record({
        "generators": list(S.generators),
        "k": S.k,
        "frobenius": S.frobenius,
        "period_hint": S.period_hint,
        "removed_generators": list(S.removed_generators),
    })


def _cmd_contains(S, args):
    member = S.contains(args.n)
    return _Output({"n": args.n, "member": member}, ["n", "member"],
                   _lines([[args.n, int(member)]]), [f"{str(member).lower()}\n"])


def _cmd_apery(S, args):
    ap = S.apery_set(args.n)
    return _column({"base": ap.base, "elements": list(ap.elements)}, "elements", "element")


def _cmd_pseudo_frobenius(S, args):
    return _column({"pseudo_frobenius": list(S.pseudo_frobenius())}, "pseudo_frobenius", "value")


def _cmd_factorizations(S, args):
    Z = _desc_lex(factorizations(S, args.n))
    return _table({"n": args.n, "count": len(Z)}, "factorizations", _columns("a", S.k),
                  [np.reshape(Z, (-1, S.k)).T])


def _cmd_factorizations_up_to(S, args):
    scan = factorizations_up_to(S, args.n)
    groups = _grouped(scan)
    return _Output(
        {"elements": ({"m": m, "count": len(Z), "factorizations": Z.tolist()} for m, Z in scan)},
        ["m", *_columns("a", S.k)],
        (_rows([np.repeat(ms, list(map(len, Zs))), *np.concatenate(Zs).T], "", ",", "\n")
         for ms, Zs in groups),
        ("".join(f"{m}: {b}\n" for m, b in zip(ms, _bodies(Zs, " "))) for ms, Zs in groups),
        ("".join(f'{{"count":{len(Z)},"factorizations":[[{b}]],"m":{m}}}\n'
                 for m, Z, b in zip(ms, Zs, _bodies(Zs, "],["))) for ms, Zs in groups),
    )


def _bodies(Zs, sep):
    """The rows of each Z(m) as one string, a,b,c per row, rows joined by ``sep``."""
    last = np.zeros(sum(map(len, Zs)), bool)
    last[np.cumsum(list(map(len, Zs))) - 1] = True
    return _rows(np.concatenate(Zs).T, "", ",", (sep, ~last), ("\n", last)).split("\n")


def _cmd_lengths(S, args):
    return _column({"n": args.n, "lengths": list(length_set(S, args.n))}, "lengths", "length")


def _cmd_delta(S, args):
    return _column({"n": args.n, "delta": list(_delta_at(S, args.n))}, "delta", "gap")


def _cmd_delta_set(S, args):
    d = delta_set(S, bound_override=args.bound)
    return _column({"delta_set": list(d)}, "delta_set", "gap")


def _cmd_delta_periodicity(S, args):
    horizon = args.horizon
    if horizon is None:
        horizon = S.period_hint + S.generators[-1]
    return _record(dataclasses.asdict(delta_periodicity(S, horizon)))


def _cmd_omega(S, args):
    w = omega(S, args.n)
    return _Output({"n": args.n, "omega": w}, ["n", "omega"], _lines([[args.n, w]]), [f"{w}\n"])


def _cmd_omega_up_to(S, args):
    batches = ((np.concatenate(m), np.concatenate(w))
               for m, w in _grouped(_omegas(S, args.n, args.domain)))
    return _table({}, "values", ["n", "omega"], batches, " ", ('{"m":', ',"omega":', "}\n"))


def _cmd_bullets(S, args):
    if args.method == "dp":
        pairs = dynamic_bullets(S, args.n)
        payload = {"n": args.n, "method": "dp", "omega": max(l for _, l in pairs)}
        return _table(payload, "dynamic_bullets", ["value", "length"],
                      [np.reshape(pairs, (-1, 2)).T])
    fn = bullets_via_apery if args.method == "apery" else bullets_brute_force
    bullets = _desc_lex(fn(S, args.n))
    payload = {"n": args.n, "method": args.method, "omega": max(sum(b) for b in bullets)}
    return _table(payload, "bullets", _columns("b", S.k), [np.reshape(bullets, (-1, S.k)).T])


# ``keys`` are the CSV columns, offsets last; ``dissonance`` selects two of them
def _cmd_quasilinear(S, args, keys=("n1", "threshold", "dissonance", "dissonance_in_monoid",
                                     "offsets")):
    model = quasilinear_model(S)
    return _record({
        "n1": model.n1,
        "threshold": model.threshold,
        "offsets": [f"{o.numerator}/{o.denominator}" for o in model.offsets],
        "dissonance": model.dissonance,
        "dissonance_in_monoid": model.dissonance_in_monoid,
    }, keys)


def _cmd_plotdata(S, args):
    if args.kind == "delta":
        batches = ((np.repeat(ms, [len(g) for g in gaps]),
                    np.fromiter(itertools.chain.from_iterable(gaps), np.int64))
                   for ms, gaps in _grouped(_deltas_up_to(S, args.horizon)))
        header = ["n", "d"]
    else:
        batches = _omega_rows(S, args.horizon)
        header = ["n", "omega", "in_monoid"]
    return _table({"kind": args.kind}, "rows", header, batches, " ")


def _omega_rows(S, horizon):
    """Batches (m, omega(m), m in S) from m = -F(S) - 1 to the horizon, as the scan yields them."""
    omegas = _omegas(S, horizon, "quotient")
    first = next(omegas)  # checks the horizon before any row is out
    if S.frobenius >= 0:  # the scan starts at -F(S); omega(-F(S) - 1) = 0
        yield np.array([-S.frobenius - 1]), np.zeros(1, np.int64), np.zeros(1, np.int64)
    for ms, ws in _grouped(itertools.chain([first], omegas)):
        m = np.concatenate(ms)
        yield m, np.concatenate(ws), S.contains_array(m).astype(np.int64)


def _cmd_verify(S, args):
    results = run_suite(S, n=args.n)
    ok = all(r.ok for r in results)
    return _Output(
        {"properties": [{"name": r.name, "checked": r.checked, "failures": r.failures}
                        for r in results],
         "ok": ok},
        ["property", "checked", "failures"],
        _lines([r.name, r.checked, r.failures] for r in results),
        [f"{'PASS' if r.ok else 'FAIL'} {r.name}: checked {r.checked}, failures {r.failures}\n"
         for r in results],
        ok=ok,
    )


class _Command(NamedTuple):
    run: Callable  # (monoid, args) -> _Output
    options: dict = {}  # argument -> add_argument keywords, besides --gens and --format


_N = {"--n": {"type": int, "required": True}}
_STREAM = {"--stream": {"action": "store_true"}}

COMMANDS = {
    "info": _Command(_cmd_info),
    "contains": _Command(_cmd_contains, _N),
    "apery": _Command(_cmd_apery, _N),
    "pseudo-frobenius": _Command(_cmd_pseudo_frobenius),
    "factorizations": _Command(_cmd_factorizations, _N),
    "factorizations-up-to": _Command(_cmd_factorizations_up_to, _N | _STREAM),
    "lengths": _Command(_cmd_lengths, _N),
    "delta": _Command(_cmd_delta, _N),
    "delta-set": _Command(_cmd_delta_set, {"--bound": {"type": int}}),
    "delta-periodicity": _Command(_cmd_delta_periodicity, {"--horizon": {"type": int}}),
    "omega": _Command(_cmd_omega, _N),
    "omega-up-to": _Command(_cmd_omega_up_to, _N | _STREAM | {
        "--domain": {"choices": ("monoid", "quotient"), "default": "monoid"}}),
    "bullets": _Command(_cmd_bullets, _N | {
        "--method": {"choices": ("dp", "apery", "brute"), "default": "dp"}}),
    "quasilinear": _Command(_cmd_quasilinear),
    "dissonance": _Command(
        functools.partial(_cmd_quasilinear, keys=("dissonance", "dissonance_in_monoid"))
    ),
    "plotdata": _Command(_cmd_plotdata, {
        "kind": {"choices": ("delta", "omega")},
        "--horizon": {"type": int, "required": True}} | _STREAM),
    "verify": _Command(_cmd_verify, {"--n": {"type": int, "default": 200}}),
}


def _render(out, args, S, started):
    stream = getattr(args, "stream", False)  # only the sweeps take --stream
    if args.format == "json" and not stream:
        payload = {k: list(v) if isinstance(v, Iterator) else v for k, v in out.payload.items()}
        print(_dumps({
            "command": args.command,
            "monoid": {"generators": list(S.generators), "frobenius": S.frobenius},
            "payload": payload,
            "timing_ms": int((time.perf_counter() - started) * 1000),
        }))
        return
    csv = args.format == "csv" and not stream
    text = iter(out.stream if stream else out.csv if csv else out.plain)
    # the first piece runs a sweep's input checks, so a refused input
    # prints no header
    first = next(text, "")
    if csv:
        first = ",".join(out.header) + "\n" + first
    for piece in itertools.chain([first], text):
        sys.stdout.write(piece)


# (exception type, exit code, stderr prefix): the first match wins, so a
# subclass comes before its base
_EXITS = (
    (MonoidInputError, 2, "invalid monoid"),
    (Int64Overflow, 3, "overflow"),
    (MemoryError, 3, "out of memory"),
    (NotInMonoid, 4, ""),
    (ValueError, 1, ""),
    (KeyboardInterrupt, 130, "interrupted"),
)


def main(argv=None):
    parser, commands = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:  # with the usage line of the command, which lists what it takes
            commands[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return exc.code or 0

    started = time.perf_counter()
    try:
        S = NumericalMonoid(args.gens)
        out = COMMANDS[args.command].run(S, args)
        _render(out, args, S, started)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout closed early (``| head``): the flush at exit must not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except tuple(kind for kind, _, _ in _EXITS) as exc:
        _, code, prefix = next(row for row in _EXITS if isinstance(exc, row[0]))
        print("numfac: " + ": ".join(filter(None, (prefix, str(exc)))), file=sys.stderr)
        return code
    return 0 if out.ok else 1


if __name__ == "__main__":
    sys.exit(main())
