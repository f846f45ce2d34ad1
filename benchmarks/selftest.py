"""Self-test of the benchmark, which also records its baseline.

    python3 benchmarks/selftest.py > benchmarks/baseline.json

Checks, exiting non-zero on the first failure:

  * a wrong expected value and a query that raises are both counted as
    failed, and lower ``ok_frac`` below 1;
  * every mix's traced run at two seeds, each in a fresh process run
    one after another, is correct and reports identical exact counters
    (calls, yields, rows, bytes).

Prints to stdout the baseline document: the machine and version stamp,
each mix's reason, its time slots and the per-layer metrics that
should move its end-to-end metrics, and the traced numbers of the first
seed.  Progress goes to stderr.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import random
import subprocess
import sys
from pathlib import Path

import reference
import run
from mixes import SLOTS, build
from spans import ENTRY_POINTS, UNWRAPPED_METHODS

SEEDS = (1, 2)
TRACE_SECONDS = 1  # one untraced and one traced pass per run

# per-layer metric -> end-to-end metrics (and per-kind slots) it should move
_BOTH = ["wall_s", "wall_raw_s", "kind_a_s", "kind_b_s"]
_CLI = ["wall_s", "wall_raw_s", "kind_b_s", "peak_rss_mb"]
_SETUP = ["setup_s"]
LAYER_MAP = {
    "delta": {
        "factorization.length_masks.self_s": _BOTH,
        "factorization.length_masks.yields": _BOTH,
        "factorization.mask_to_lengths.calls": _BOTH,
        "factorization.mask_to_lengths.self_s": _BOTH,
        "delta.self_s": _BOTH,
        "delta.us_per_element": _BOTH,
        "delta.mask_bits_max": _BOTH,
        "monoid.init.calls": _SETUP,
        "monoid.init.self_s": _SETUP,
    },
    "omega": {
        "omega.self_s": _BOTH,
        "omega.us_per_element": _BOTH,
        "omega.entry_width_max": ["wall_s", "wall_raw_s", "kind_a_s"],
        "monoid.contains_array.calls": _BOTH,
        "monoid.contains_array.self_s": _BOTH,
        "monoid.contains_array.us_per_call": _BOTH,
        "monoid.init.calls": _SETUP,
        "monoid.init.self_s": _SETUP,
    },
    "sweep": {
        "factorization.length_masks.self_s": ["wall_s", "wall_raw_s", "kind_b_s"],
        "factorization.length_masks.yields": ["wall_s", "wall_raw_s", "kind_b_s"],
        "omega.self_s": ["wall_s", "wall_raw_s", "kind_b_s"],
        "monoid.contains_array.calls": ["wall_s", "wall_raw_s", "kind_b_s"],
        "monoid.contains_array.self_s": ["wall_s", "wall_raw_s", "kind_b_s"],
        "factorization.factorizations_up_to.self_s": _BOTH,
        "factorization.rows": _BOTH,
        "factorization.bytes_computed": _BOTH,
        "factorization.rows_per_s": _BOTH,
        "cli.self_s": _CLI,
        "cli.bytes_out": _CLI,
        "cli.bytes_per_s": _CLI,
        "verify.self_s": _CLI,
        "monoid.init.calls": _SETUP,
        "monoid.init.self_s": _SETUP,
    },
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def check_failures_counted(nf):
    """A wrong expected value and a raising query both count as failed."""
    good = build("omega")[0]  # omega(<6,9,20>, 1000), a few milliseconds
    wrong = dataclasses.replace(good, label="wrong expected", expected=good.expected + 1)

    def boom(nf, S):
        return nf.omega(S, "not a target")

    raising = dataclasses.replace(good, label="raising", call=boom)
    p = run.run_pass(nf, [good, wrong, raising], random.Random(0), reference.Meter())
    e2e = run.end_to_end([p], [1.0])
    assert (p.attempted, p.failed) == (3, 2), (p.attempted, p.failed)
    assert e2e["ok_frac"] < 1, e2e
    log(f"ok   failures counted: {p.failed} of {p.attempted}, ok_frac {e2e['ok_frac']:.3f}")


def traced_run(workload, seed):
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(TRACE_SECONDS), "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, (workload, seed, result)
    return {name: m["value"] for name, m in result["metrics"].items()}


def stamp(nf):
    import numpy

    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numfac": nf.__version__,
        "commit": commit,
    }


def main():
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import numfac as nf

    check_failures_counted(nf)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        runs = [traced_run(name, seed) for seed in SEEDS]
        for counter in run.EXACT_COUNTERS:
            values = [r[counter] for r in runs]
            assert len(set(values)) == 1, (name, counter, values)
        log(f"ok   {name}: exact counters equal at seeds {SEEDS}")
        workloads[name] = {
            "why": w["why"],
            "slots": dict(zip(("kind_a_s", "kind_b_s"), SLOTS[name])),
            "layer_map": LAYER_MAP[name],
            "per_layer": runs[0],
        }
    delta, omega = workloads["delta"]["per_layer"], workloads["omega"]["per_layer"]
    reduction = delta["factorization.mask_to_lengths.self_s"] + delta["delta.self_s"]
    print(json.dumps({
        "stamp": stamp(nf),
        "shares": {
            "delta: per-element reduction / length-mask recurrence":
                reduction / delta["factorization.length_masks.self_s"],
            "delta: per-element reduction share": delta["delta.reduction_share"],
            "omega: contains_array share of omega time": omega["omega.contains_array_share"],
        },
        # end-to-end times are at this speed: a slice of STEPS takes SLICE_S
        "reference_speed": {
            "steps": reference.STEPS,
            "slice_s": reference.SLICE_S,
            "period_s": reference.PERIOD_S,
        },
        "unwrapped_boundaries": [f"NumericalMonoid.{m}" for m in UNWRAPPED_METHODS]
        + ["omega.bullets_via_apery -> factorization.brute_force_factorizations "
           "(imported inside the function)"],
        "entry_points": [f"{module}.{attr}" for module, attr in ENTRY_POINTS],
        "workloads": workloads,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
