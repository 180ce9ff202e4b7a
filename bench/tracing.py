"""Layer spans recorded from outside the library.

``Tracer.install()`` replaces every public function of the five fpsum layers
with a timing wrapper, under its name in every ``fpsum`` module that holds it
(``fpsum.random_sums.mm_fit`` and ``fpsum.distributions.mittag_leffler`` are
the same objects as their definitions, so calls inside the library are
caught), and public methods on their classes.  ``restore()`` puts the
originals back.  Benchmark code must reach the library through ``fpsum``
module attributes, never through names it imported itself.

A span opens when control enters a layer from outside it.  A public function
called from inside its own layer (``h_inverse`` -> ``h``) is counted but opens
no span, so a layer's time is counted once.  A layer's self time is the total
length of its spans minus the part covered by spans of other layers opened
inside them.  Work counters (points, draws) count what callers outside a
layer ask of it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("special_functions", "distributions", "estimation", "random_sums", "cli")

# functions whose second argument (z, x, u, n, s) holds the evaluation points
_POINT_FUNCTIONS = {
    "special_functions.mittag_leffler",
    "distributions.MittagLefflerLaw.density",
    "distributions.FractionalPoissonLaw.pmf",
    "distributions.FractionalPoissonLaw.pgf",
    "distributions.NmlLaw.density",
    "distributions.CompLaw.pmf",
}


def _public_functions(module):
    """(qualified name, owner, attribute, raw attribute) for each public
    function defined in ``module`` and each public method of its classes."""
    layer = module.__name__.rsplit(".", 1)[-1]
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((f"{layer}.{name}", module, name, obj))
        elif inspect.isclass(obj):
            for attr, raw in vars(obj).items():
                if not attr.startswith("_") and (
                    inspect.isfunction(raw) or isinstance(raw, (classmethod, staticmethod))
                ):
                    out.append((f"{layer}.{name}.{attr}", obj, attr, raw))
    return out


def _argument(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs.get(name)


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self):
        self.spans = []  # (layer, function, start, end, parent span index or -1)
        self.self_s = defaultdict(float)
        self.entries = Counter()  # spans opened per layer
        self.errors = Counter()  # exceptions leaving a layer
        self.fn_calls = Counter()  # every call, nested or not
        self.points = Counter()
        self.draws = 0
        self.interior_fits = 0
        self.ks_points = 0
        self._stack = []  # [layer, start, seconds covered by child spans, span index]
        self._patched = []
        self._cache_base = {}

    def install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"fpsum.{layer}")
            for qualname, owner, attr, raw in _public_functions(module):
                if inspect.isclass(owner):
                    if isinstance(raw, (classmethod, staticmethod)):
                        new = type(raw)(self._wrap(layer, qualname, raw.__func__))
                    else:
                        new = self._wrap(layer, qualname, raw)
                    self._patched.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                wrapper = self._wrap(layer, qualname, raw)
                for name, holder in list(sys.modules.items()):
                    if name.split(".")[0] == "fpsum" and getattr(holder, attr, None) is raw:
                        self._patched.append((holder, attr, raw))
                        setattr(holder, attr, wrapper)
        self._cache_base = self.cache_misses()

    def restore(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def _wrap(self, layer, qualname, fn):
        tracer = self
        counts_points = qualname in _POINT_FUNCTIONS
        arg_name = list(inspect.signature(fn).parameters)[1] if counts_points else None
        is_sample = qualname.endswith(".sample")
        is_fit = qualname == "estimation.mm_fit"
        is_ks = qualname == "random_sums.ks_distance"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.fn_calls[qualname] += 1
            stack = tracer._stack
            if stack and stack[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                if counts_points:
                    tracer.points[layer] += int(np.size(_argument(args, kwargs, 1, arg_name)))
                if is_sample:
                    size = _argument(args, kwargs, 2, "size")
                    tracer.draws += 1 if size is None else int(size)
                index = len(tracer.spans)
                tracer.spans.append(None)
                frame = [layer, time.perf_counter(), 0.0, index]
                parent = stack[-1][3] if stack else -1
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    tracer.errors[layer] += 1
                    raise
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    duration = end - frame[1]
                    tracer.self_s[layer] += duration - frame[2]
                    tracer.entries[layer] += 1
                    if stack:
                        stack[-1][2] += duration
                    tracer.spans[index] = (layer, qualname, frame[1], end, parent)
            if is_fit and result.boundary_flag.value == "interior":
                tracer.interior_fits += 1
            elif is_ks:
                tracer.ks_points += int(np.size(_argument(args, kwargs, 1, "cdf_values_sorted")))
            return result

        return wrapper

    @staticmethod
    def cache_misses() -> dict:
        """Sum of ``cache_info().misses`` over each layer's lru caches."""
        out = {}
        for layer in LAYERS:
            module = sys.modules.get(f"fpsum.{layer}")
            infos = [getattr(obj, "cache_info", None) for obj in vars(module).values()] if module else []
            out[layer] = sum(info().misses for info in infos if callable(info))
        return out

    def summary(self) -> dict:
        """Per-layer counters of this pass; additive across processes."""
        misses = self.cache_misses()
        return {
            "self_s": {layer: self.self_s[layer] for layer in LAYERS},
            "calls": {layer: self.entries[layer] for layer in LAYERS},
            "errors": {layer: self.errors[layer] for layer in LAYERS},
            "points": {layer: self.points[layer] for layer in LAYERS},
            "cache_misses": {layer: misses[layer] - self._cache_base.get(layer, 0)
                             for layer in LAYERS},
            "fn_calls": dict(self.fn_calls),
            "draws": self.draws,
            "interior_fits": self.interior_fits,
            "ks_points": self.ks_points,
        }


def merge_summaries(parts) -> dict:
    """Add up the summaries of several processes (the cli children)."""
    out = {key: Counter() for key in ("self_s", "calls", "errors", "points",
                                      "cache_misses", "fn_calls")}
    scalars = Counter()
    for part in parts:
        for key, counter in out.items():
            counter.update(part[key])
        for key in ("draws", "interior_fits", "ks_points"):
            scalars[key] += part[key]
    merged = {key: {layer: counter.get(layer, 0) for layer in LAYERS}
              for key, counter in out.items() if key != "fn_calls"}
    merged["fn_calls"] = dict(out["fn_calls"])
    merged.update({key: scalars[key] for key in ("draws", "interior_fits", "ks_points")})
    return merged
