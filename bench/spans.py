"""Spans around grosslat's public functions, recorded from outside the package.

`install("grosslat")` replaces every public module-level function of the
layer modules with a wrapper.  Modules import each other's functions with
`from .x import y`, so a wrapper is bound in place of the original under
every name that holds it in every loaded `grosslat.*` module.  Calls made
through a module attribute, a name imported from another module, or a
module's own globals all reach the wrapper.

A span is (name, start, end, parent, size): the parent is the index of the
enclosing span (-1 at the top) and size is a per-function count of work
produced, or None.  Spans stay in memory and are written by `Tracer.write`
once the traced command has returned.  The quaternion kernels are called
~10^5 times per run, so they get a call counter and no span.

`aggregate` turns a written spans file into per-function totals.
"""

import json
import sys
import time

# Layer modules whose public functions are traced, in pipeline order.
LAYERS = (
    "exact", "quat", "lattice", "orders", "classify",
    "gramgross", "oracle", "cm", "verify", "cli",
)
# Layers whose functions are counted, not timed.
COUNT_ONLY = frozenset({"quat"})


# Work produced per call, for the functions whose output size is reported.
SIZES = {
    "lattice.short_vectors": len,
    "gramgross.gram_gross": len,
    "oracle.supersingular_j_set": lambda res: len(res.js),
}


def _fresh_types(fn):
    """Size of an enumerate_types call: the types it computed, 0 on a hit."""
    info = getattr(fn, "cache_info", None)
    if info is None:
        return len
    last = [info().misses]

    def size(res):
        misses = info().misses
        fresh = misses != last[0]
        last[0] = misses
        return len(res) if fresh else 0

    return size


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}

    def timed(self, name, fn, size=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, None)
                stack.pop()
                raise
            end = clock()
            stack.pop()
            spans[idx] = (name, start, end, parent, size(res) if size else None)
            return res

        return _like(wrapper, fn)

    def counted(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return _like(wrapper, fn)

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as f:
            json.dump(
                {
                    "names": names,
                    "spans": [[index[n], a, b, p, k] for n, a, b, p, k in self.spans],
                    "counts": {n: c[0] for n, c in sorted(self.counts.items())},
                },
                f,
                separators=(",", ":"),
            )


def _like(wrapper, fn):
    wrapper.__name__ = getattr(fn, "__name__", "wrapper")
    wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


def _public_functions(mod):
    for attr, obj in vars(mod).items():
        if (
            not attr.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__
        ):
            yield attr, obj


def install(package, layers=LAYERS):
    """Wrap the public functions of `package.<layer>`; returns the Tracer."""
    tracer = Tracer()
    loaded = [
        m for n, m in sorted(sys.modules.items())
        if m is not None and (n == package or n.startswith(package + "."))
    ]
    for layer in layers:
        mod = sys.modules[f"{package}.{layer}"]
        for attr, fn in list(_public_functions(mod)):
            name = f"{layer}.{attr}"
            if layer in COUNT_ONLY:
                wrapper = tracer.counted(name, fn)
            elif name == "orders.enumerate_types":
                wrapper = tracer.timed(name, fn, _fresh_types(fn))
            else:
                wrapper = tracer.timed(name, fn, SIZES.get(name))
            for m in loaded:
                for a in [a for a, v in vars(m).items() if v is fn]:
                    setattr(m, a, wrapper)
    return tracer


def aggregate(path):
    """Per-function totals from a spans file.

    Returns {name: {"calls", "s", "self_s", "size"}} plus the call counters.
    `s` is inclusive time, counted once for a recursive call chain; `self_s`
    is each span's time minus the time of its direct child spans.
    """
    with open(path) as f:
        data = json.load(f)
    names, spans = data["names"], data["spans"]
    child_time = [0.0] * len(spans)
    for n, a, b, p, _ in spans:
        if p >= 0:
            child_time[p] += b - a
    out = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0} for n in names}
    for i, (n, a, b, p, k) in enumerate(spans):
        rec = out[names[n]]
        rec["calls"] += 1
        rec["self_s"] += (b - a) - child_time[i]
        if k:
            rec["size"] += k
        while p >= 0 and spans[p][0] != n:
            p = spans[p][3]
        if p < 0:
            rec["s"] += b - a
    return out, data["counts"]
