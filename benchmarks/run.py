"""Benchmark for numfac: three query mixes from the acceptance tables.

    python3 benchmarks/run.py --workload delta|omega|sweep --seed N \
        --seconds S --trace 0|1

Runs from the root of a checkout and imports the package from its
``src`` directory.  One process runs one workload, single-threaded
(numpy's thread pools are capped at 1) and pinned to one CPU.  The
first pass runs the queries in table order; the seed permutes their
order in every later pass.  The package sees only the queries.  Passes repeat while the next one fits in ``--seconds``,
each starting from empty memo caches, and every answer is checked
exactly.

Times are given at the reference speed of ``reference.py``: while a
query runs, a timer takes a slice of fixed reference work every 0.2 s;
the slices' time is taken back out of the query's, and the pass's time
is scaled by ``SLICE_S`` over the mean slice time of the pass.  This
takes out the host's changes of speed, which move raw times by 25% and
more between runs of the same code.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics
of ``BENCHMARK.json``: ``wall_s``, the median over the passes of the
mix's time at the reference speed; ``setup_s``, the median at the
reference speed over fresh processes, started after the passes, of
importing numfac and building every monoid of the mix; ``peak_rss_mb``,
the process's high-water mark at the end of the first pass, which runs
the queries in table order; and
``ok_frac``.  With ``--trace 1`` untraced passes alternate with
passes traced at the module boundaries (see ``spans.py``), and the line
holds the per-layer metrics instead, with the raw wall time
``wall_raw_s``, the mean reference slice time ``ref_slice_s`` and the
raw per-kind times ``kind_a_s`` and ``kind_b_s`` of the untraced
passes.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import mixes
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_MIN = 6  # set-up samples per untraced run, taken after the passes
SETUP_REF_SLICES = 4  # reference slices before and after each set-up sample
SETUP_CHILD = """\
import json, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numfac
for gens in json.loads(sys.argv[2]):
    numfac.NumericalMonoid(gens)
print(time.perf_counter() - start)
"""


@dataclass
class PassResult:
    wall_s: float  # the queries' time, without the reference slices taken during them
    ref_s: float  # mean time of a reference slice during the pass (0.0 if traced)
    slot_s: dict
    attempted: int
    failed: int
    cli_bytes: int
    omega_elements: int
    peak_rss_mb: float  # the process's high-water mark so far
    layers: dict = field(default_factory=dict)

    @property
    def at_ref_s(self):
        """The queries' time at the reference speed."""
        return self.wall_s * reference.SLICE_S / self.ref_s


def measure_setup(child):
    """One fresh process's time for ``import numfac`` plus building the mix's monoids.

    The child runs on the CPU this process is pinned to, between reference
    slices, and its time is given at the reference speed.
    """
    before = [reference.slice_s() for _ in range(SETUP_REF_SLICES)]
    out = subprocess.run(child, capture_output=True, text=True, check=True, timeout=120)
    after = [reference.slice_s() for _ in range(SETUP_REF_SLICES)]
    return float(out.stdout) * reference.SLICE_S / statistics.mean(before + after)


def run_pass(nf, queries, rng, meter=None, tracer=None):
    """Run every query once, in a seeded order (table order without
    ``rng``), and check each answer.

    With a meter, reference slices are taken while each query runs (see
    ``reference.py``) and their time is taken back out of the query's.
    With a tracer the pass is traced, monoid construction included, and
    its per-layer numbers are kept in ``layers``.
    """
    order = list(queries)
    if rng is not None:
        rng.shuffle(order)
    spans.clear_caches()
    slot_s = {"a": 0.0, "b": 0.0}
    failed = cli_bytes = omega_elements = 0
    first = len(meter.slices) if meter is not None else 0
    with tracer if tracer is not None else contextlib.nullcontext():
        monoids = {}
        for q in queries:
            if q.gens not in monoids:
                monoids[q.gens] = nf.NumericalMonoid(q.gens)
        for q in order:
            S = monoids[q.gens]
            t0 = time.perf_counter()
            if meter is not None:
                meter.arm()
            try:
                got = q.call(nf, S)
            except Exception:  # a query that raises counts as failed, like a wrong answer
                traceback.print_exc()
                got = None
            finally:
                if meter is not None:
                    meter.disarm()
            t1 = time.perf_counter()
            slot_s[q.slot] += t1 - t0 - (meter.within(t0, t1) if meter is not None else 0.0)
            if got != q.expected:
                failed += 1
                print(f"WRONG {q.label}: got {got!r}, expected {q.expected!r}", file=sys.stderr)
            if q.cli and got is not None:
                cli_bytes += got[1]
            if q.omega_to is not None:
                omega_elements += q.omega_to + S.frobenius + 1
    ref_s = 0.0
    if meter is not None:
        if len(meter.slices) == first:
            meter.take()
        ref_s = meter.mean_s(first)
    wall = slot_s["a"] + slot_s["b"]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = PassResult(wall, ref_s, slot_s, len(order), failed, cli_bytes, omega_elements, peak)
    if tracer is not None:
        result.layers = layer_metrics(tracer, result)
        print(f"traced pass: wall {wall:.3f} s, failed {failed}", file=sys.stderr, flush=True)
    else:
        print(f"untraced pass: wall {wall:.3f} s, slice {ref_s * 1e3:.3f} ms, "
              f"at reference speed {result.at_ref_s:.3f} s, a {slot_s['a']:.3f} s, "
              f"b {slot_s['b']:.3f} s, failed {failed}", file=sys.stderr, flush=True)
    return result


def run_for(nf, queries, rng, seconds, trace):
    """Repeat rounds while the next one fits in ``seconds``, at least one.

    A round is an untraced pass followed, when tracing, by a traced pass,
    so that both see the same machine state.  The first pass runs the
    queries in table order, so that the high-water mark after it does not
    depend on the seed; the others run them in seeded order.  An untraced run then fills
    the time left with set-up measurements, ``SETUP_MIN`` at least.
    Returns the untraced passes, the traced passes and the set-up times.
    """
    meter = reference.Meter()
    tracer = spans.Tracer() if trace else None
    gens = json.dumps(sorted({q.gens for q in queries}))
    child = [sys.executable, "-c", SETUP_CHILD, str(SRC), gens]
    untraced, traced, setup = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        untraced.append(run_pass(nf, queries, rng if untraced else None, meter))
        if tracer is not None:
            traced.append(run_pass(nf, queries, rng, tracer=tracer))
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    if tracer is None:
        while len(setup) < SETUP_MIN or time.perf_counter() < deadline:
            setup.append(measure_setup(child))
    return untraced, traced, setup


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr, p):
    """Per-layer numbers of one traced pass (times in s, counts exact)."""
    lm = "factorization._length_masks_up_to"
    mtl = "factorization._mask_to_lengths"
    fz = "factorization.factorizations_up_to"
    ca = "monoid.NumericalMonoid.contains_array"
    init = "monoid.NumericalMonoid.__init__"
    lm_yields = sum(n for (name, _), n in tr.yields.items() if name == lm)
    delta_self = tr.layer_self_s("delta")
    omega_self = tr.layer_self_s("omega")
    reduction = tr.self_s[mtl] + delta_self
    cli_self = tr.layer_self_s("cli")
    return {
        "factorization.length_masks.self_s": tr.self_s[lm],
        "factorization.length_masks.yields": lm_yields,
        "factorization.mask_to_lengths.calls": tr.calls[mtl],
        "factorization.mask_to_lengths.self_s": tr.self_s[mtl],
        "factorization.factorizations_up_to.self_s": tr.self_s[fz],
        "factorization.rows": tr.rows,
        "factorization.bytes_computed": tr.bytes_computed,
        "factorization.rows_per_s": _ratio(tr.rows, tr.self_s[fz]),
        "factorization.self_s": tr.layer_self_s("factorization"),
        "delta.self_s": delta_self,
        "delta.us_per_element": 1e6 * _ratio(delta_self, tr.yields_into(lm, "delta")),
        "delta.mask_bits_max": tr.mask_bits_max,
        "delta.reduction_share": _ratio(reduction, reduction + tr.self_s[lm]),
        "omega.self_s": omega_self,
        "omega.us_per_element": 1e6 * _ratio(omega_self, p.omega_elements),
        "omega.contains_array_share": _ratio(tr.self_s[ca], tr.self_s[ca] + omega_self),
        "monoid.contains_array.calls": tr.calls[ca],
        "monoid.contains_array.self_s": tr.self_s[ca],
        "monoid.contains_array.us_per_call": 1e6 * _ratio(tr.self_s[ca], tr.calls[ca]),
        "monoid.init.calls": tr.calls[init],
        "monoid.init.self_s": tr.self_s[init],
        "monoid.self_s": tr.layer_self_s("monoid"),
        "cli.self_s": cli_self,
        "cli.bytes_out": p.cli_bytes,
        "cli.bytes_per_s": _ratio(p.cli_bytes, cli_self),
        "verify.self_s": tr.layer_self_s("verify"),
    }


EXACT_COUNTERS = (
    "factorization.length_masks.yields",
    "factorization.mask_to_lengths.calls",
    "factorization.rows",
    "factorization.bytes_computed",
    "delta.mask_bits_max",
    "monoid.contains_array.calls",
    "monoid.init.calls",
    "cli.bytes_out",
    "omega.entry_width_max",
)


def entry_width_max(nf, queries):
    """Widest final dynamic-bullet entry over the omega scan targets of the mix."""
    widths = [0]
    for gens, n in sorted({(q.gens, q.omega_to) for q in queries if q.omega_to is not None}):
        widths.append(len(nf.dynamic_bullets(nf.NumericalMonoid(gens), n)))
    return max(widths)


def end_to_end(passes, setup):
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "wall_s": statistics.median([p.at_ref_s for p in passes]),
        "setup_s": statistics.median(setup),
        # after the table-order pass: later passes and other orders move it
        # by heap fragmentation alone
        "peak_rss_mb": passes[0].peak_rss_mb,
        "ok_frac": 1 - failed / attempted,
    }


def per_layer(untraced, traced, width):
    metrics = {
        name: (traced[0].layers[name] if name in EXACT_COUNTERS
               else statistics.median([p.layers[name] for p in traced]))
        for name in traced[0].layers
    }
    metrics["omega.entry_width_max"] = width
    # wall and per-kind times come from the untraced passes
    metrics["wall_raw_s"] = statistics.median([p.wall_s for p in untraced])
    metrics["ref_slice_s"] = statistics.median([p.ref_s for p in untraced])
    metrics["kind_a_s"] = statistics.median([p.slot_s["a"] for p in untraced])
    metrics["kind_b_s"] = statistics.median([p.slot_s["b"] for p in untraced])
    traced_wall = statistics.median([p.wall_s for p in traced])
    untraced_wall = statistics.median([p.wall_s for p in untraced])
    metrics["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return metrics


def load_spec(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(mixes.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "numfac" / "__init__.py").is_file():
        print(f"run.py: no numfac sources under {SRC}", file=sys.stderr)
        return 2
    units = load_spec(args.trace)
    reference.pin()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    queries = mixes.build(args.workload)
    rng = random.Random(args.seed)

    sys.path.insert(0, str(SRC))
    import numfac as nf
    import numfac.cli  # noqa: F401  (the CLI queries call nf.cli.main)

    if SRC not in Path(nf.__file__).resolve().parents:
        print(f"run.py: imported numfac from {nf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    untraced, traced, setup = run_for(nf, queries, rng, args.seconds, args.trace)
    if args.trace:
        metrics = per_layer(untraced, traced, entry_width_max(nf, queries))
    else:
        metrics = end_to_end(untraced, setup)
    passes = untraced + traced

    if set(metrics) != set(units):
        print(f"run.py: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 2
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
