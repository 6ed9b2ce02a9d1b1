"""One cold grosslat CLI invocation, timed against a host-speed reference.

The parent (`bench/run.py`) starts this script once per measured run, so
every run pays the same cold start: a fresh interpreter, a fresh import of
`grosslat` and an empty `enumerate_types` cache.

    python3 bench/child.py SRC_DIR setup
    python3 bench/child.py SRC_DIR run REF ARG...
    python3 bench/child.py SRC_DIR trace REF SPANS_PATH ARG...

Every mode times the import of `grosslat.cli`; `setup` stops there.  `run`
and `trace` then call `grosslat.cli.main(ARG...)` with stdout and stderr
captured in memory, while a reference snippet of kind REF (see SNIPPETS)
is timed every RUN_SAMPLE_EVERY_S.  `trace` first wraps the package's
public functions (see `bench/spans.py`) and writes the spans to SPANS_PATH
once the command has returned.  The report is one JSON object on this
process's own stdout.
"""

import sys
import time

_t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import grosslat.cli  # noqa: E402  (the import is the measured set-up)

SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402  (already loaded by grosslat.oracle)

RUN_SAMPLE_EVERY_S = 0.05
RSS_UNIT_BYTES = 1024  # ru_maxrss is in KiB on Linux


class DriftSampler:
    """Times a reference snippet at a fixed interval while code runs.

    The host's speed drifts within seconds, and by different factors for
    interpreted code and for numpy, so the snippet runs from a SIGALRM
    handler, interleaved with the measured code on the same core, and is of
    that code's dominant kind.  One snippet runs at the start, so there is
    always one.  `normalised` cuts the snippets out and divides each stretch
    after a snippet by that snippet's time.
    """

    def __init__(self, snippet, expect, every):
        self.snippet, self.expect, self.every = snippet, expect, every
        self.marks = []  # (start, end) of each snippet
        self.wrong = 0  # snippets that returned a wrong value

    def _tick(self, signum, frame):
        t = time.perf_counter()
        if self.snippet() != self.expect:
            self.wrong += 1
        self.marks.append((t, time.perf_counter()))

    def __enter__(self):
        self.old = signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc):
        self.end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old)

    def check(self):
        if self.wrong:
            raise SystemExit(f"{self.wrong} of {len(self.marks)} reference snippets wrong")

    def snippet_s(self):
        return [b - a for a, b in self.marks]

    def elapsed(self):
        """Wall time of the measured code alone."""
        return self.end - self.start - sum(self.snippet_s())

    def normalised(self):
        """The measured code's time in units of the snippet time before it."""
        ends = [a for a, _ in self.marks[1:]] + [self.end]
        return sum((e - b) / (b - a) for (a, b), e in zip(self.marks, ends))


def fraction_snippet():
    """Ten 4x4 determinants by Fraction elimination; about 1 ms.

    Integer and Fraction work like grosslat's exact layers, standard
    library only.
    """
    x = 12345
    check = 0
    for _ in range(10):
        m = []
        for _ in range(4):
            row = []
            for _ in range(4):
                x = (x * 1103515245 + 12345) % 2147483648
                row.append(Fraction(x % 201 - 100, x % 7 + 1))
            m.append(row)
        det = Fraction(1)
        for c in range(4):
            piv = next((r for r in range(c, 4) if m[r][c]), None)
            if piv is None:
                det = Fraction(0)
                break
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                det = -det
            det *= m[c][c]
            for r in range(c + 1, 4):
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        check = (check + det.numerator % 1000003 + det.denominator) % 1000003
    return check


def numpy_snippet():
    """Horner steps mod a prime over an int64 array; about 1.5 ms.

    The same kind of vector work as the oracle's lambda-sweep.
    """
    u = np.arange(1, 2 ** 16, dtype=np.int64)
    acc = np.zeros_like(u)
    for c in range(4):
        acc = (acc * u + c) % 1009
    return int(acc.sum())


# REF kind -> (snippet, the value it must return)
SNIPPETS = {
    "fraction": (fraction_snippet, 8485),
    "numpy": (numpy_snippet, 32906734),
}


def cache_state(fn):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None
    i = info()
    return {"hits": i.hits, "misses": i.misses}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = grosslat.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # the report records the failure
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
            code = 1
    return code, out.getvalue(), err.getvalue()


def main():
    mode = sys.argv[2]
    report = {"setup_s": SETUP_S}
    if mode == "setup":
        print(json.dumps(report))
        return
    kind, argv = sys.argv[3], sys.argv[4:]
    types_fn = grosslat.orders.enumerate_types
    tracer = None
    if mode == "trace":
        import spans  # bench/spans.py; the script's directory is on sys.path

        spans_path, argv = argv[0], argv[1:]
        tracer = spans.install("grosslat")
    cache_before = cache_state(types_fn)
    with DriftSampler(*SNIPPETS[kind], RUN_SAMPLE_EVERY_S) as sampler:
        code, out, err = run_cli(argv)
    if tracer is not None:
        tracer.write(spans_path)
    sampler.check()
    data = out.encode()
    report.update(
        {
            "exit": code,
            "run_s": sampler.elapsed(),
            "run_ref": sampler.normalised(),
            "snippet_s": sampler.snippet_s(),
            "stdout": out,
            "stdout_sha256": hashlib.sha256(data).hexdigest(),
            "stdout_bytes": len(data),
            "stderr_tail": err[-2000:],
            "cache_before": cache_before,
            "cache_after": cache_state(types_fn),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            * RSS_UNIT_BYTES / 1e6,
            "numpy": np.__version__,
        }
    )
    print(json.dumps(report))


if __name__ == "__main__":
    main()
