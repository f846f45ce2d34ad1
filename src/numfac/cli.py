"""Command-line interface.

    numfac <command> --gens <comma-separated positive ints>
           [--n INT] [--horizon INT] [--bound INT]
           [--domain monoid|quotient] [--format plain|json|csv]
           [--stream] [--method dp|apery|brute]

Results are printed to stdout; diagnostics go to stderr.  JSON output is
one canonical document (sorted keys, no whitespace) wrapping the
command payload in an envelope that echoes the minimal generators and
the Frobenius number.  ``--stream`` switches the sweep commands
(factorizations-up-to, omega-up-to, plotdata) to JSON Lines, one element
per line.  All numbers are integers except the
quasilinear offsets, which are exact fractions rendered as "p/q".

Exit codes (``_EXITS`` maps exceptions onto them): 0 success, 1 usage or
precondition error (or stdout closed before the output was complete, as
by ``| head``), 2 invalid monoid, 3 arithmetic overflow or out of memory,
4 required element not in the monoid, 130 interrupted.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import json
import os
import sys
import time
from collections.abc import Callable, Iterable, Iterator
from typing import NamedTuple

from . import __version__
from .delta import _deltas_up_to, delta_of_lengths, delta_periodicity, delta_set
from .errors import Int64Overflow, MonoidInputError, NotInMonoid
from .factorization import (
    _sorted_grid,
    brute_force_factorizations,
    factorizations,
    factorizations_up_to,
    length_set,
)
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


def _build_parser():
    parser = _Parser(prog="numfac", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"numfac {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def ints(text):
        return [int(p) for p in text.split(",") if p.strip()]

    for name, command in COMMANDS.items():
        p = sub.add_parser(name, prog=f"numfac {name}")
        if name == "plotdata":
            p.add_argument("kind", choices=("delta", "omega"))
        p.add_argument("--gens", type=ints, required=True,
                       help="comma-separated positive integers")
        p.add_argument("--n", type=int, default=None, required=command.needs_n)
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--bound", type=int, default=None)
        p.add_argument("--domain", choices=("monoid", "quotient"), default="monoid")
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
        p.add_argument("--stream", action="store_true")
        p.add_argument("--method", choices=("dp", "apery", "brute"), default="dp")
    return parser


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _desc_lex(vectors):
    return sorted(vectors, reverse=True)


def _columns(prefix, k):
    return [f"{prefix}{i + 1}" for i in range(k)]


class _Output(NamedTuple):
    """A command's result, with each output form described once.

    Only the form that ``--format`` or ``--stream`` selects is rendered.
    A sweep's forms are generators over one shared scan, so that form
    alone runs the scan and its rows reach stdout as they come.  Payload
    values that are iterators are listed when the JSON document is built.
    """

    payload: dict
    header: list  # CSV header
    rows: Iterable  # CSV rows
    lines: Iterable  # plain lines
    items: Iterable = ()  # JSON Lines documents for --stream
    ok: bool = True  # exit 1 when false


def _column(payload, key, header):
    """payload[key] as one CSV column, and on one plain line."""
    values = payload[key]
    return _Output(payload, [header], ([v] for v in values), [" ".join(map(str, values))])


def _table(payload, key, header, sep=","):
    """payload[key] as CSV rows, one plain line per row joined by ``sep``, one JSON line each."""
    rows = payload[key]
    return _Output(payload, header, rows, (sep.join(map(str, r)) for r in rows), rows)


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
        [[_joined(fields[k], ";") for k in keys]],
        [f"{k}: {_joined(v, ' ')}" for k, v in shown.items()],
    )


def _joined(value, sep):
    return sep.join(map(str, value)) if isinstance(value, list) else value


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
    return _Output({"n": args.n, "member": member}, ["n", "member"], [[args.n, int(member)]],
                   [str(member).lower()])


def _cmd_apery(S, args):
    ap = S.apery_set(args.n)
    return _column({"base": ap.base, "elements": list(ap.elements)}, "elements", "element")


def _cmd_pseudo_frobenius(S, args):
    return _column({"pseudo_frobenius": list(S.pseudo_frobenius())}, "pseudo_frobenius", "value")


def _cmd_factorizations(S, args):
    Z = _desc_lex(factorizations(S, args.n))
    payload = {"n": args.n, "count": len(Z), "factorizations": Z}
    return _table(payload, "factorizations", _columns("a", S.k))


def _cmd_factorizations_up_to(S, args):
    elements = ({"m": m, "count": len(Z), "factorizations": Z.tolist()}
                for m, Z in factorizations_up_to(S, args.n))
    return _Output(
        {"elements": elements},
        ["m", *_columns("a", S.k)],
        ([e["m"], *a] for e in elements for a in e["factorizations"]),
        (f"{e['m']}: " + " ".join(",".join(map(str, a)) for a in e["factorizations"])
         for e in elements),
        elements,
    )


def _cmd_lengths(S, args):
    return _column({"n": args.n, "lengths": list(length_set(S, args.n))}, "lengths", "length")


def _cmd_delta(S, args):
    L = length_set(S, args.n)
    return _column({"n": args.n, "delta": list(delta_of_lengths(L) if L else ())}, "delta", "gap")


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
    return _Output({"n": args.n, "omega": w}, ["n", "omega"], [[args.n, w]], [str(w)])


def _cmd_omega_up_to(S, args):
    pairs = _omegas(S, args.n, args.domain)
    out = _table({"values": pairs}, "values", ["n", "omega"], " ")
    return out._replace(items=({"m": m, "omega": w} for m, w in pairs))


def _cmd_bullets(S, args):
    if args.method == "dp":
        pairs = dynamic_bullets(S, args.n)
        payload = {"n": args.n, "method": "dp", "omega": max(l for _, l in pairs),
                   "dynamic_bullets": pairs}
        return _table(payload, "dynamic_bullets", ["value", "length"])
    fn = bullets_via_apery if args.method == "apery" else bullets_brute_force
    bullets = _desc_lex(fn(S, args.n))
    payload = {"n": args.n, "method": args.method, "omega": max(sum(b) for b in bullets),
               "bullets": bullets}
    return _table(payload, "bullets", _columns("b", S.k))


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
    horizon = args.horizon
    if horizon is None:
        horizon = args.n
    if horizon is None:
        raise ValueError("plotdata requires --horizon")
    if args.kind == "delta":
        rows = ((m, d) for m, gaps in _deltas_up_to(S, horizon) for d in gaps)
        header = ["n", "d"]
    else:
        rows = _omega_rows(S, horizon)
        header = ["n", "omega", "in_monoid"]
    return _table({"kind": args.kind, "rows": rows}, "rows", header, " ")


def _omega_rows(S, horizon):
    """(m, omega(m), m in S) from m = -F(S) - 1 to the horizon, as the scan yields them."""
    omegas = _omegas(S, horizon, "quotient")
    first = next(omegas)  # checks the horizon before any row is out
    if S.frobenius >= 0:  # the scan starts at -F(S); omega(-F(S) - 1) = 0
        yield -S.frobenius - 1, 0, 0
    for m, w in itertools.chain([first], omegas):
        yield m, w, int(S.contains(m))


def _cmd_verify(S, args):
    n = args.n if args.n is not None else 200
    results = run_suite(S, n=n)
    ok = all(r.ok for r in results)
    return _Output(
        {"properties": [{"name": r.name, "checked": r.checked, "failures": r.failures}
                        for r in results],
         "ok": ok},
        ["property", "checked", "failures"],
        [[r.name, r.checked, r.failures] for r in results],
        [f"{'PASS' if r.ok else 'FAIL'} {r.name}: checked {r.checked}, failures {r.failures}"
         for r in results],
        ok=ok,
    )


def _naive_factorizations(S, n):
    # the naive route restarts per element: drop the memoized
    # enumeration grid each time so the restart is real
    for m in range(n + 1):
        _sorted_grid.cache_clear()
        yield brute_force_factorizations(S, m)


def _cmd_bench(S, args):
    n = args.n if args.n is not None else 300
    routes = {
        "factorizations dynamic": lambda: factorizations_up_to(S, n),
        "factorizations naive": lambda: _naive_factorizations(S, n),
        "omega dynamic": lambda: dynamic_bullets(S, n),
        "omega naive": lambda: (bullets_brute_force(S, x) for x in range(-S.frobenius, n + 1)),
    }
    seconds = {}
    for name, route in routes.items():
        t0 = time.perf_counter()
        for _ in route():
            pass
        seconds[name] = time.perf_counter() - t0

    results = [{"name": name, "ms": int(s * 1000)} for name, s in seconds.items()]
    faster = all(seconds[f"{what} dynamic"] < seconds[f"{what} naive"]
                 for what in ("factorizations", "omega"))
    return _Output(
        {"results": results, "dynamic_faster": faster},
        ["name", "ms"],
        [[r["name"], r["ms"]] for r in results],
        [f"{r['name']}: {r['ms']} ms" for r in results]
        + [f"dynamic_faster: {str(faster).lower()}"],
        ok=faster,
    )


class _Command(NamedTuple):
    run: Callable  # (monoid, args) -> _Output
    needs_n: bool = False
    streams: bool = False


COMMANDS = {
    "info": _Command(_cmd_info),
    "contains": _Command(_cmd_contains, needs_n=True),
    "apery": _Command(_cmd_apery, needs_n=True),
    "pseudo-frobenius": _Command(_cmd_pseudo_frobenius),
    "factorizations": _Command(_cmd_factorizations, needs_n=True),
    "factorizations-up-to": _Command(_cmd_factorizations_up_to, needs_n=True, streams=True),
    "lengths": _Command(_cmd_lengths, needs_n=True),
    "delta": _Command(_cmd_delta, needs_n=True),
    "delta-set": _Command(_cmd_delta_set),
    "delta-periodicity": _Command(_cmd_delta_periodicity),
    "omega": _Command(_cmd_omega, needs_n=True),
    "omega-up-to": _Command(_cmd_omega_up_to, needs_n=True, streams=True),
    "bullets": _Command(_cmd_bullets, needs_n=True),
    "quasilinear": _Command(_cmd_quasilinear),
    "dissonance": _Command(
        functools.partial(_cmd_quasilinear, keys=("dissonance", "dissonance_in_monoid"))
    ),
    "plotdata": _Command(_cmd_plotdata, streams=True),
    "verify": _Command(_cmd_verify),
    "bench": _Command(_cmd_bench),
}


def _render(out, args, S, started):
    if args.stream:
        for item in out.items:
            print(_dumps(item))
    elif args.format == "json":
        payload = {k: list(v) if isinstance(v, Iterator) else v for k, v in out.payload.items()}
        print(_dumps({
            "command": args.command,
            "monoid": {"generators": list(S.generators), "frobenius": S.frobenius},
            "payload": payload,
            "timing_ms": int((time.perf_counter() - started) * 1000),
        }))
    elif args.format == "csv":
        # the first row runs a sweep's input checks, so a refused input
        # prints no header
        rows = iter(out.rows)
        first = next(rows, None)
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        if first is not None:
            writer.writerow(first)
        writer.writerows(rows)
    else:
        for line in out.lines:
            print(line)


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
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code or 0
    command = COMMANDS[args.command]

    started = time.perf_counter()
    try:
        S = NumericalMonoid(args.gens)
        if args.stream and not command.streams:
            raise ValueError(f"--stream is not supported for {args.command}")
        out = command.run(S, args)
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
