"""The three query mixes, built from the acceptance tables.

Every query carries its exact expected answer.  Library answers are the
acceptance-table values (plus, for the factorization sweeps and the
periodicity reports, values recorded at the commit that introduced the
benchmark).  A CLI query answers ``(exit code, stdout bytes, stdout
sha256)``; none of the chosen commands prints a JSON envelope, so no
``timing_ms`` field reaches the digest.

Each query counts toward one of two time slots of its mix, ``a`` or
``b`` (see ``SLOTS``), reported as ``kind_a_s`` and ``kind_b_s``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from typing import Callable

# (slot a, slot b) query kinds per workload
SLOTS = {
    "delta": ("delta_set", "delta_periodicity"),
    "omega": ("omega", "quasilinear"),
    "sweep": ("factorizations", "cli"),
}


@dataclass(frozen=True)
class Query:
    slot: str  # "a" or "b"
    label: str
    gens: tuple
    call: Callable  # (numfac module, monoid) -> answer
    expected: object
    omega_to: int | None = None  # top of the omega scan the query asks for
    cli: bool = False


class ByteSink(io.TextIOBase):
    """A text stream that keeps only the byte count and sha256 of what it gets."""

    def __init__(self):
        self.nbytes = 0
        self._hash = hashlib.sha256()

    def writable(self):
        return True

    def write(self, text):
        data = text.encode()
        self.nbytes += len(data)
        self._hash.update(data)
        return len(text)

    def hexdigest(self):
        return self._hash.hexdigest()


def _cli(argv):
    def call(nf, S):
        sink = ByteSink()
        with contextlib.redirect_stdout(sink):
            code = nf.cli.main(list(argv))
        return code, sink.nbytes, sink.hexdigest()

    return call


def _delta_set(bound=None):
    return lambda nf, S: nf.delta_set(S, bound_override=bound)


def _periodicity(horizon):
    def call(nf, S):
        report = nf.delta_periodicity(S, horizon)
        return report.dissonance_start, report.period

    return call


def _omega(n):
    return lambda nf, S: nf.omega(S, n)


def _quasilinear(nf, S):
    model = nf.quasilinear_model(S)
    return model.threshold, model.dissonance


def _extrapolate(nf, S):
    return nf.omega_extrapolate(nf.quasilinear_model(S), 50000)


def _sweep(n):
    def call(nf, S):
        rows = 0
        count = None
        for m, Z in nf.factorizations_up_to(S, n):
            rows += len(Z)
            if m == n:
                count = len(Z)
        return count, rows

    return call


def _delta_mix():
    a = [
        ((6, 9, 20), None, (1, 2, 3, 4)),
        ((7, 15, 17, 18, 20), None, (1, 2, 3)),
        ((51, 53, 55, 117), 9699, (2, 4, 6)),
        ((11, 53, 73, 87), 14381, (2, 4, 6, 8, 10, 22)),
        ((31, 73, 77, 87, 91), 31364, (2, 4, 6)),
        ((100, 121, 142, 163, 284), 24850, (21,)),
    ]
    # horizons: B + lcm(n1, nk) for <6,9,20>, known start + 2 lcm otherwise
    b = [
        ((6, 9, 20), 21780, (91, 20)),
        ((10, 17, 19, 25, 31), 1800, (76, 310)),
        ((51, 53, 55, 117), 13677, (1006, 117)),
        ((7, 15, 17, 18, 20), 2215, (46, 7)),
    ]
    return [
        Query("a", f"delta_set {g} bound={bound}", g, _delta_set(bound), want)
        for g, bound, want in a
    ] + [
        Query("b", f"delta_periodicity {g} horizon={h}", g, _periodicity(h), want)
        for g, h, want in b
    ]


def _omega_mix():
    a = [
        ((6, 9, 20), 1000, 170),
        ((11, 13, 15), 1000, 97),
        ((11, 13, 15), 3000, 279),
        ((11, 13, 15), 10000, 915),
        ((15, 27, 32, 35), 1000, 69),
        ((10, 12, 15, 16, 17), 500, 52),
        ((10, 12, 15, 16, 17), 50000, 5002),
        ((100, 121, 142, 163, 284), 25715, 308),
    ]
    b = [
        ((6, 9, 20), 104, 12),
        ((10, 12, 15), 325, 190),
        ((10, 12, 15, 16, 17), 175, 10),
        ((10, 12, 13, 14, 15, 16, 17, 18, 19, 21), 115, 10),
        ((100, 121, 142, 163, 284), 25715, 100),
    ]
    return (
        [Query("a", f"omega {g} n={n}", g, _omega(n), want, omega_to=n) for g, n, want in a]
        + [
            Query("b", f"quasilinear_model {g}", g, _quasilinear, (th, dis), omega_to=th + 2 * g[0])
            for g, th, dis in b
        ]
        + [
            Query("b", "omega_extrapolate (10,12,15,16,17) n=50000",
                  (10, 12, 15, 16, 17), _extrapolate, 5002, omega_to=175 + 20)
        ]
    )


_CLI_GENS = (6, 9, 20)
_CLI = [
    (("factorizations-up-to", "--n", "1000", "--stream"), None,
     1696699,
     "20b34d66680894118c7757ec8934ee2c2475db573b9cc9f2266198bcd44717f1"),
    (("factorizations-up-to", "--n", "1000", "--format", "csv"), None,
     1982963,
     "7347ed08f9c1848c5c2fb123da9ca7a3a862fcfba5a20d2c74dbdf1dd45daf9b"),
    (("omega-up-to", "--n", "20000", "--stream"), 20000,
     481919,
     "ad1be3cb13b8b194eee5477a8e5158bd72709559fc05bd19d7041120df3acf6d"),
    (("plotdata", "delta", "--horizon", "10000", "--format", "csv"), None,
     123535,
     "19b8f4fefa64b2bd33fc13d11f679c3fbeb2435b741efe84cc9f4813c0f7abe4"),
    (("verify",), None,
     449,
     "12c88429862c178cef4d155ac76991e8049ddadfc6cdf8077e6f4d70e3970767"),
]


def _sweep_mix():
    gens_arg = ("--gens", ",".join(map(str, _CLI_GENS)))
    a = [
        ((10, 17, 19, 25, 31), 1000, (20293, 4271651)),
        ((51, 53, 55, 117), 5000, (1299, 1669397)),
        ((7, 15, 17, 18, 20), 1000, (75375, 15686420)),
    ]
    return [
        Query("a", f"factorizations_up_to {g} n={n}", g, _sweep(n), want)
        for g, n, want in a
    ] + [
        Query("b", "numfac " + " ".join(argv), _CLI_GENS, _cli(argv + gens_arg),
              (0, nbytes, digest), omega_to=omega_to, cli=True)
        for argv, omega_to, nbytes, digest in _CLI
    ]


MIXES = {"delta": _delta_mix, "omega": _omega_mix, "sweep": _sweep_mix}


def build(workload):
    """The queries of one workload, in table order."""
    return MIXES[workload]()
