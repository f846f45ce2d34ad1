"""Spans and counts at the boundaries between numfac's modules.

A boundary is a name that one numfac module binds to a function defined
in another numfac module (found by scanning every module's namespace,
so renamed or folded helpers are picked up without edits here), plus
the methods of ``NumericalMonoid`` and the CLI entry point ``cli.main``
that the benchmark calls.  ``Tracer.install`` swaps each binding for a
wrapper that records a span; ``Tracer.uninstall`` restores the
originals.  No file of the package is edited.

Spans nest on one stack, so a layer's self time is its span time minus
the time of the spans it caused.  A generator is timed on each resume
and its yields are counted per consuming layer.

``NumericalMonoid.contains`` stays unwrapped: the ring-buffer loops call
it several times per element, and a wrapper would cost more than the
call, so its time stays in the caller.  The function-level import of
``brute_force_factorizations`` inside ``omega.bullets_via_apery`` is not
a namespace binding, so that call is also counted in the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from collections import Counter, defaultdict

UNWRAPPED_METHODS = ("contains",)
ENTRY_POINTS = (("numfac.cli", "main"),)
_LRU_ATTRS = ("cache_clear", "cache_info", "cache_parameters")


def numfac_modules():
    """The numfac package and every submodule except ``__main__``."""
    package = importlib.import_module("numfac")
    names = ["numfac"] + [
        f"numfac.{info.name}"
        for info in pkgutil.iter_modules(package.__path__)
        if info.name != "__main__"
    ]
    return [importlib.import_module(name) for name in names]


def clear_caches():
    """Empty every memo cache the package holds, so each pass does equal work."""
    for module in numfac_modules():
        for obj in list(vars(module).values()):
            home = getattr(obj, "__module__", None) or ""
            if home.startswith("numfac") and callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def _layer(module_name):
    return module_name.rsplit(".", 1)[-1]


class Tracer:
    """Records spans and boundary counts for one pass at a time."""

    def __init__(self):
        self._saved = []
        self.reset()

    def reset(self):
        self._stack = []  # [span name, start, time in child spans]
        self.self_s = defaultdict(float)  # span name -> self time
        self.calls = Counter()  # span name -> calls or resumes
        self.yields = Counter()  # (span name, consuming layer) -> items
        self.rows = 0
        self.bytes_computed = 0
        self.mask_bits_max = 0

    # ---------------------------------------------------------------- spans

    def _enter(self, name):
        self.calls[name] += 1
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self):
        name, start, child = self._stack.pop()
        spent = time.perf_counter() - start
        self.self_s[name] += spent - child
        if self._stack:
            self._stack[-1][2] += spent

    def _consumer(self):
        return self._stack[-1][0].split(".", 1)[0] if self._stack else "bench"

    def _observe_rows(self, item):
        self.rows += len(item[1])
        self.bytes_computed += item[1].nbytes

    def _observe_mask(self, item):
        self.mask_bits_max = max(self.mask_bits_max, item[1].bit_length())

    def _wrap(self, fn, name):
        tracer = self
        if inspect.isgeneratorfunction(fn):
            # per-item counts for the two scans whose items carry a size
            observe = {
                "factorization.factorizations_up_to": self._observe_rows,
                "factorization._length_masks_up_to": self._observe_mask,
            }.get(name)

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer._resumed(fn(*args, **kwargs), name, observe)

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer._enter(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._exit()

        for attr in _LRU_ATTRS:
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _resumed(self, gen, name, observe):
        # the layer that asked for the generator consumes its items
        consumer = self._consumer()
        resumes = items = 0
        try:
            while True:
                resumes += 1
                self._stack.append([name, time.perf_counter(), 0.0])
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit()
                items += 1
                if observe is not None:
                    observe(item)
                yield item
        finally:
            self.calls[name] += resumes
            self.yields[name, consumer] += items
            gen.close()

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr, name):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name))

    def install(self):
        """Wrap every cross-module binding, the monoid methods and the entry points."""
        modules = numfac_modules()
        monoid = importlib.import_module("numfac.monoid")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                home = getattr(obj, "__module__", None) or ""
                if (
                    callable(obj)
                    and not inspect.isclass(obj)
                    and home.startswith("numfac.")
                    and home != module.__name__
                ):
                    self._patch(module, attr, f"{_layer(home)}.{attr}")
        cls = monoid.NumericalMonoid
        for attr, obj in list(vars(cls).items()):
            if not inspect.isfunction(obj) or attr in UNWRAPPED_METHODS:
                continue
            if attr.startswith("__") and attr != "__init__":
                continue
            self._patch(cls, attr, f"monoid.NumericalMonoid.{attr}")
        for module_name, attr in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            self._patch(module, attr, f"{_layer(module_name)}.{attr}")

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.reset()
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------- readout

    def layer_self_s(self, layer):
        return sum(
            (s for name, s in self.self_s.items() if name.split(".", 1)[0] == layer), 0.0
        )

    def yields_into(self, name, layer):
        return self.yields[name, layer]
