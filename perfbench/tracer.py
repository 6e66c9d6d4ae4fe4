"""Run the sortkern CLI with its numeric layers wrapped in timing spans.

    python3 perfbench/tracer.py SPANS.json CLI-ARG...

Every public function defined in sortkern.geometry, rng, kernels,
interpolation, spectral and bounds is replaced, wherever a sortkern module
holds a reference to it, by a wrapper that records a span. Three more
boundaries get spans: InvariantTarget.value (the target's values),
scipy's eigh as called by spectral, and each draw from a generator that
rng.stream returns (through a proxy). experiments.run is the root span.

A span is [name, parent index or null, start, end, counts or null], times
from time.perf_counter. The spans are kept in memory and written to
SPANS.json, with the CLI's exit code, wall time and CPU time, when the
CLI returns. The wrappers only observe arguments and results, so the CSV
the CLI writes is the one an unwrapped run writes.
"""

import functools
import inspect
import json
import sys
import time

import sortkern.cli
from sortkern import bounds, experiments, geometry, interpolation, kernels, rng, spectral

LAYER_MODULES = (geometry, rng, kernels, interpolation, spectral, bounds)
# Generator methods that draw values; only these get spans
DRAW_METHODS = frozenset({"random", "uniform", "normal", "standard_normal", "integers",
                          "choice", "permutation", "shuffle"})


def _bound(fn, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _fill_counts(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    n, d = a["X"].shape
    return {"domain": a["domain"].value, "d": d, "n": n, "pairs": n * len(a["candidates"])}


def _cross_counts(fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    return {"mode": a["mode"].value, "pairs": len(a["W"]) * len(a["Z"])}


def _fit_counts(fn, args, kwargs, out):
    return {"failed": out is None, "jitter": None if out is None else out.jitter_used}


def _points(out):
    return {"points": 1 if isinstance(out, float) else len(out)}


# work counts recorded with a span: (wrapped function, args, kwargs, result
# or None when it raised) -> dict
COUNTERS = {
    "geometry.fill_distance_estimate": _fill_counts,
    "geometry.sort_points": lambda fn, a, kw, out: {"rows": 0 if out is None else len(out)},
    "kernels.kernel_cross": _cross_counts,
    "interpolation.fit": _fit_counts,
    "interpolation.evaluate": lambda fn, a, kw, out: _points(out) if out is not None else {},
    "interpolation.target_value": lambda fn, a, kw, out: _points(out) if out is not None else {},
    "rng.draw": lambda fn, a, kw, out: {"values": 0 if out is None else int(getattr(out, "size", 1))},
}


class Tracer:
    """In-memory span recorder; spans nest by call order."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else None, 0.0, 0.0, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            out = None
            span[2] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                if counter is not None:
                    span[4] = counter(fn, args, kwargs, out)

        return wrapper


class GeneratorProxy:
    """A numpy Generator whose draws are recorded as rng.draw spans."""

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if attr in DRAW_METHODS:
            return self._tracer.wrap("rng.draw", value)
        return value


def _replace_everywhere(original, wrapped):
    # modules bind imported names at import time, so every sortkern module
    # that holds the original function gets the wrapper
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("sortkern"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)


def install(tracer):
    """Wrap the layer boundaries of the imported sortkern package."""
    for mod in LAYER_MODULES:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, value in list(vars(mod).items()):
            if (inspect.isfunction(value) and value.__module__ == mod.__name__
                    and not attr.startswith("_")):
                _replace_everywhere(value, tracer.wrap(f"{layer}.{attr}", value))
    interpolation.InvariantTarget.value = tracer.wrap(
        "interpolation.target_value", interpolation.InvariantTarget.value)
    spectral.eigh = tracer.wrap("spectral.eigh", spectral.eigh)
    stream = rng.stream  # already wrapped by the loop above

    @functools.wraps(stream)
    def proxied_stream(*args, **kwargs):
        return GeneratorProxy(stream(*args, **kwargs), tracer)

    _replace_everywhere(stream, proxied_stream)
    _replace_everywhere(experiments.run, tracer.wrap("experiments.run", experiments.run))


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    code = sortkern.cli.main(cli_args)
    wall_s, cpu_s = time.perf_counter() - wall0, time.process_time() - cpu0
    with open(out_path, "w") as fh:
        json.dump({"exit": code, "wall_s": wall_s, "cpu_s": cpu_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
