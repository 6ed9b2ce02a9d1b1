"""grosslat benchmark: cold CLI runs, drift-normalised time, traced layers.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                         [--trace 0|1] [--out FILE]

Run from the repository root; the package is imported from `src/`.  Each
measured run is a fresh child process (`bench/child.py`) that makes one
`grosslat.cli.main` call, one child at a time.  Runs repeat until
`--seconds` would be exceeded, with at least MIN_RUNS of them.

With `--trace 0` the end-to-end metrics are printed:

  run_ref      median over runs of the command's time in units of a
               reference snippet's time.  The child times the snippet every
               50 ms during the command, on the same core, and divides each
               stretch of the command by the snippet time just before it,
               so host drift cancels out (see bench/README.md).
  setup_s      import time of grosslat at the reference host speed: the
               median over SETUP_SAMPLES pairs of import-only children of
               (grosslat import time / numpy import time), times
               NUMPY_IMPORT_NOMINAL_S.  numpy is most of grosslat's import
               and drifts with it (see bench/README.md).
  peak_rss_mb  median peak resident set size of the measured children.

With `--trace 1`, untraced and traced children alternate and the per-layer
metrics (calls, inclusive and self time, work counts) come from the traced
ones; see `bench/spans.py`.  Every run's stdout is checked against the
digest and semantic check in `bench/workloads.py`, whether traced or not.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it are the same
metrics for reading, the raw `bench.run_s` and `bench.ref_s`, `fail_ratio`,
the reference snippet's spread and a stamp of the commit, Python, numpy
and core count.  `--workload all` (the default) runs the four workloads in
turn, and its last line holds every workload's metrics under
`<workload>.<metric>`.  `--out FILE` also writes the full result as JSON.

Exit code 0 once a result is printed, failed runs included; 2, with no
result, when the package cannot be found or imported.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
OUT_DIR = BENCH / "out"

MIN_RUNS = 3
SETUP_SAMPLES = 7
# About numpy's import time on the 2-core x86 host the benchmark was written on;
# turns the import ratio back into seconds.
NUMPY_IMPORT_NOMINAL_S = 0.1
NUMPY_IMPORT = "import time; t = time.perf_counter(); import numpy; print(time.perf_counter() - t)"
DEADLINE_S = 170  # per workload; the whole invocation must end within 180 s

# (span name, per-function metrics reported for it)
LAYER_FIELDS = (
    ("exact.hnf", ("calls", "s")),
    ("exact.hnf_solve", ("calls", "s")),
    ("quat.mul4", ("calls",)),
    ("quat.nrd4", ("calls",)),
    ("quat.conj4", ("calls",)),
    ("orders.left_ideals_of_norm", ("calls", "s", "self_s")),
    ("orders.right_order", ("calls", "s", "self_s")),
    ("orders.enumerate_types", ("calls", "s")),
    ("lattice.short_vectors", ("calls", "s", "self_s")),
    ("lattice.minima_triple", ("calls", "s", "self_s")),
    ("lattice.minimal_basis", ("calls", "s", "self_s")),
    ("lattice.greedy_reduce", ("calls", "s", "self_s")),
    ("classify.classify_type", ("calls", "s")),
    ("classify.embedded_discriminants", ("calls", "s")),
    ("gramgross.gram_gross", ("calls", "s")),
    ("oracle.supersingular_j_set", ("calls", "s")),
    ("cm.locate_embedding_type", ("calls", "s", "self_s")),
    ("verify.verify_prime", ("calls", "self_s")),
    ("cli.main", ("s",)),
)
# Work produced, summed from the spans' sizes: metric name -> span name.
SIZE_METRICS = {
    "lattice.short_vectors.vectors": "lattice.short_vectors",
    "gramgross.gram_gross.candidates": "gramgross.gram_gross",
    "oracle.supersingular_j_set.js": "oracle.supersingular_j_set",
}
FIELD_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
OTHER_UNITS = {
    "orders.dedupe_yield": "ratio",
    "orders.enumerate_types.cache_hits": "count",
    "orders.enumerate_types.cache_misses": "count",
    "cli.stdout_bytes": "bytes",
    "bench.trace_overhead": "ratio",
}
END_TO_END_UNITS = {"run_ref": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_units():
    units = {
        f"{span}.{field}": FIELD_UNITS[field]
        for span, fields in LAYER_FIELDS
        for field in fields
    }
    units.update({name: "count" for name in SIZE_METRICS})
    units.update(OTHER_UNITS)
    return units


class BenchError(Exception):
    """The benchmark cannot run here: no result is printed."""


def child(mode, args, timeout):
    """Run one child; returns (report or None, error or None)."""
    cmd = [sys.executable, str(CHILD), str(SRC), mode, *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (json.JSONDecodeError, IndexError):
        return None, f"child printed no report: {proc.stdout[-300:]!r}"


def numpy_import_s(timeout):
    """Import time of numpy alone, in a fresh interpreter."""
    try:
        proc = subprocess.run(
            [sys.executable, "-c", NUMPY_IMPORT],
            capture_output=True, text=True, timeout=timeout, check=True,
        )
        return float(proc.stdout)
    except (subprocess.SubprocessError, ValueError) as e:
        raise BenchError(f"cannot time the numpy import: {e}") from e


def check_run(w, p, rep):
    """Error messages for one child report; empty when the run passed."""
    errors = []
    if rep["exit"] != 0:
        errors.append(f"exit code {rep['exit']}: {rep['stderr_tail'][-300:]}")
    want = w.digests.get(p)
    if rep["stdout_sha256"] != want:
        errors.append(f"stdout sha256 {rep['stdout_sha256']} != recorded {want}")
    cold = rep["cache_before"]
    if cold is not None and (cold["hits"], cold["misses"]) != (0, 0):
        errors.append(f"enumerate_types cache not cold at start: {cold}")
    try:
        msg = w.check(rep["stdout"], p)
    except (ValueError, KeyError, TypeError) as e:
        msg = f"output does not parse: {type(e).__name__}: {e}"
    if msg:
        errors.append(msg)
    return errors


def median(values):
    """The median; a count stays a whole number."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def spread(values):
    """(q3 - q1) / median, or 0.0 for fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def commit():
    """HEAD of the checkout's git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Measurement:
    """One workload at one seed: the child reports and what failed."""

    def __init__(self, w, seed):
        self.w = w
        self.seed = seed
        self.p, self.argv = w.inputs(seed)
        self.deadline = time.monotonic() + DEADLINE_S
        self.setup_s = []  # raw import times, setup-only and measured children
        self.setup_ratio = []  # grosslat import / adjacent numpy import
        self.runs = []  # untraced child reports
        self.traced = []  # (child report, spans aggregate, counters)
        self.attempted = 0
        self.errors = []

    def remaining(self):
        return self.deadline - time.monotonic()

    def import_once(self):
        """Import time of one setup-only child."""
        rep, err = child("setup", [], self.remaining())
        if err:
            raise BenchError(f"cannot import grosslat from {SRC}: {err}")
        return rep["setup_s"]

    def one_run(self, traced):
        """One checked child run; returns its report, or None if it failed."""
        self.attempted += 1
        args = [self.w.ref, *self.argv]
        spans_path = OUT_DIR / f"spans-{self.w.name}.json"
        if traced:
            OUT_DIR.mkdir(exist_ok=True)
            args.insert(1, str(spans_path))
        rep, err = child("trace" if traced else "run", args, max(1.0, self.remaining()))
        errors = [err] if err else check_run(self.w, self.p, rep)
        if errors:
            kind = "traced run" if traced else "run"
            self.errors.append(f"{kind} {self.attempted}: " + "; ".join(errors))
            return None
        self.setup_s.append(rep["setup_s"])
        if traced:
            self.traced.append((rep, *spans.aggregate(spans_path)))
        else:
            self.runs.append(rep)
        return rep

    def repeat(self, seconds, step, min_steps):
        """Call step() until the next one would end after `seconds`."""
        start = time.monotonic()
        done, last = 0, 0.0
        while self.remaining() > 0 and (
            done < min_steps or time.monotonic() - start + last <= seconds
        ):
            t = time.monotonic()
            if not step():
                break
            last = time.monotonic() - t
            done += 1

    def end_to_end(self, seconds):
        self.import_once()  # untimed: compiles the bytecode
        for _ in range(SETUP_SAMPLES):
            own = self.import_once()
            self.setup_s.append(own)
            self.setup_ratio.append(own / numpy_import_s(self.remaining()))
        self.repeat(seconds, lambda: self.one_run(False), MIN_RUNS)
        if not self.runs:
            return {}
        return {
            "run_ref": statistics.median(r["run_ref"] for r in self.runs),
            "setup_s": statistics.median(self.setup_ratio) * NUMPY_IMPORT_NOMINAL_S,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in self.runs),
        }

    def per_layer(self, seconds):
        self.import_once()  # untimed: compiles the bytecode
        self.repeat(
            seconds,
            lambda: self.one_run(False) is not None and self.one_run(True) is not None,
            1,
        )
        if not self.runs or not self.traced:
            return {}
        per_child = [layer_metrics(*t) for t in self.traced]
        out = {k: median([m[k] for m in per_child]) for k in per_child[0]}
        out["bench.trace_overhead"] = statistics.median(
            rep["run_ref"] for rep, _, _ in self.traced
        ) / statistics.median(r["run_ref"] for r in self.runs)
        return out

    def readings(self):
        """Raw figures printed beside the metrics; not gated."""
        reps = self.runs + [t[0] for t in self.traced]
        refs = [x for r in reps for x in r["snippet_s"]]
        out = {
            "bench.run_s": statistics.median(r["run_s"] for r in self.runs) if self.runs else None,
            "bench.setup_raw_s": statistics.median(self.setup_s) if self.setup_s else None,
            "bench.ref_s": statistics.median(refs) if refs else None,
            "bench.ref_spread": spread(refs),
            "bench.ref_share": sum(refs) / (sum(refs) + sum(r["run_s"] for r in reps)) if reps else None,
            "fail_ratio": (self.attempted - len(reps)) / self.attempted if self.attempted else None,
        }
        # Every run starts cold (check_run fails it otherwise); this is where
        # each one ended.
        out["enumerate_types.cache_info"] = [r["cache_after"] for r in reps]
        return out

    def stamp(self):
        reps = self.runs + [t[0] for t in self.traced]
        return {
            "commit": commit(),
            "python": platform.python_version(),
            "numpy": reps[0]["numpy"] if reps else None,
            "nproc": os.cpu_count(),
            "workload": self.w.name,
            "seed": self.seed,
            "p": self.p,
            "argv": self.argv,
            "runs": len(self.runs),
            "traced_runs": len(self.traced),
        }


def layer_metrics(rep, agg, counts):
    """Per-layer metrics of one traced child."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "size": 0}
    out = {}
    for span, fields in LAYER_FIELDS:
        rec = agg.get(span, empty)
        for field in fields:
            out[f"{span}.{field}"] = counts[span] if span in counts else rec[field]
    for name, span in SIZE_METRICS.items():
        out[name] = agg.get(span, empty)["size"]
    found = agg.get("orders.enumerate_types", empty)["size"]
    calls = agg.get("orders.right_order", empty)["calls"]
    out["orders.dedupe_yield"] = found / calls if calls else 0.0
    cache = rep["cache_after"] or {"hits": 0, "misses": 0}
    out["orders.enumerate_types.cache_hits"] = cache["hits"]
    out["orders.enumerate_types.cache_misses"] = cache["misses"]
    out["cli.stdout_bytes"] = rep["stdout_bytes"]
    return out


def measure(name, seed, seconds, trace):
    m = Measurement(WORKLOADS[name], seed)
    if trace:
        values, units = m.per_layer(seconds), layer_units()
    else:
        values, units = m.end_to_end(seconds), END_TO_END_UNITS
    failed = m.attempted - len(m.runs) - len(m.traced)
    return {
        "correct": failed == 0 and bool(values),
        "attempted": m.attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
        "readings": m.readings(),
        "stamp": m.stamp(),
        "errors": m.errors,
        "samples": {
            "setup_s": m.setup_s,
            "setup_ratio": m.setup_ratio,
            "run_s": [r["run_s"] for r in m.runs],
            "run_ref": [r["run_ref"] for r in m.runs],
        },
    }


def show(name, res):
    for err in res["errors"]:
        print(f"[{name}] FAILED {err}")
    for key, m in res["metrics"].items():
        print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}")
    for key, v in res["readings"].items():
        print(f"[{name}] {key} = {v if not isinstance(v, float) else f'{v:.6g}'}")
    print(f"[{name}] stamp = {json.dumps(res['stamp'], sort_keys=True)}")


def summary(res):
    return {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=16)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", type=Path, help="also write the full result here as JSON")
    args = ap.parse_args(argv)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if not (SRC / "grosslat" / "cli.py").is_file():
        print(f"error: no grosslat package under {SRC}", file=sys.stderr)
        return 2
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            show(name, results[name])
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n")
    if len(names) == 1:
        final = summary(results[names[0]])
    else:
        for name in names:
            print(json.dumps({"workload": name, **summary(results[name])}))
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{k}": v
                for name, r in results.items()
                for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
