#!/usr/bin/env python3
"""Benchmark for resposet: one seeded workload, every answer checked.

Run from the repository root:

    python3 bench/run.py --workload census --seed 1 --seconds 30 --trace 0

Workloads: census, mine, construct (see workloads.py and README.md).  The
run sets up SETUP_REPS times and reports the median, then repeats whole
passes over the workload's seeded op schedule until ``--seconds`` have
elapsed.  End-to-end times are in reference units (see REF_MS).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it carries the details: failed ratio, tail percentile, wall-clock times,
versions, seed.
"""

import os

# One thread in numpy's BLAS/OpenMP pools, here and in every CLI child;
# this must happen before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from math import exp, lgamma, log  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from spans import Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPS = 5
LAYERS = (
    "catalog", "involution", "order", "constructions", "residuation",
    "miner", "classify", "files", "render", "cli",
)
PRUNE_RULES = (
    "associativity", "monotonicity", "empty-cell",
    "residual-missing", "verification", "negation-mismatch",
)
CLI_SUBCOMMANDS = ("extend", "verify", "mine", "classify", "involutions", "show", "diff")
# per-layer counts of one pass, with their units
COUNTED = {
    "catalog.posets": "count",
    "involution.found": "count",
    "order.calls": "count",
    "constructions.calls": "count",
    "constructions.elements": "count",
    "residuation.calls": "count",
    "residuation.triples": "count",
    "residuation.cube_mb": "MB",
    "miner.searches": "count",
    "miner.nodes": "count",
    "miner.structures": "count",
    **{f"miner.prunes.{rule}": "count" for rule in PRUNE_RULES},
    "classify.calls": "count",
    "files.bytes": "B",
    "render.bytes": "B",
}
# CPython keeps its frames in a stack of chunks and frees a chunk as soon as
# the frame that opened it returns, so a deep recursion that keeps crossing a
# chunk boundary pays an allocation per call.  Whether an op does depends on
# how deep it is called: the miner on the 11-element Theorem-2 extension of N5
# took 57 ms at most call depths and 112 ms at one of 40 depths tried.  Each
# op therefore runs under 0..STACK_SPREAD-1 extra frames (a span wider than
# one 16 KiB chunk), drawn afresh per run of the op, and its latency is the
# median of its runs over the passes.
STACK_SPREAD = 256
# The speed of a shared machine drifts by up to 1.75x over seconds to minutes
# (other tenants' load on the same cores and caches), and it drifts much alike
# for the program and for any other pure-Python work.  So before every op the
# benchmark times a fixed reference loop, once plus once for every REF_EVERY_S
# the previous op took (at most REF_MOST_RUNS), and each time it reports is expressed in reference
# milliseconds: wall time divided by the reference loop's local time (the
# mean of its runs near the op) times REF_MS.  The wall-clock figures are in
# the detail line.
REF_MS = 1.0
REF_ROWS = 120  # about 1 ms per reference run on a 2020s x86 core
REF_EVERY_S = 0.05
REF_MOST_RUNS = 40
REF_WINDOW_S = 1.0  # reference runs within this many seconds of an op ...
REF_NEIGHBOURS = 8  # ... and at least this many on either side count
REF_CLIP = 3.0  # a reference run over 3x the run's median was preempted; clipped
REF_BURST = 40  # reference runs after the imports and after each set-up


def _mix(a, b):
    return (a * 7 + b) % 13


def reference_work():
    """The fixed reference loop, in the style of the miner's inner loops:
    tuple-keyed dict updates, set membership, small lists, calls and a sort."""
    table = {}
    seen = set()
    total = 0
    for r in range(REF_ROWS):
        row = list(range(r % 7, r % 7 + 8))
        for c, v in enumerate(row):
            key = (r % 11, c)
            table[key] = _mix(v, table.get(key, 0))
            if key not in seen:
                seen.add(key)
            total += table[key]
    return total + len(sorted(table.items(), key=lambda kv: kv[1]))


def reference_seconds():
    start = perf_counter()
    reference_work()
    return perf_counter() - start


def reference_burst():
    """REF_BURST back-to-back reference run times."""
    return [reference_seconds() for _ in range(REF_BURST)]


def burst_mean(runs):
    return clipped_mean(runs, statistics.median(runs))


def clipped_mean(times, median):
    """Mean of times with each clipped to REF_CLIP x median.

    The mean, not the median: between moments of full speed and of
    contention, an op is slowed by the average of the two, and single
    reference runs fall on one side or the other.
    """
    return statistics.fmean(min(t, REF_CLIP * median) for t in times)


def at_depth(extra, fn):
    """fn() called under ``extra`` more Python frames."""
    return at_depth(extra - 1, fn) if extra else fn()


class Recorder:
    """Times ops, runs their answer checks and sums layer counts per pass.

    Counts of one op must equal those of its first run with the same key;
    a difference fails the op (the determinism gate within a run).
    """

    def __init__(self, tracer):
        self.tracer = tracer
        self.samples = []  # (pass index, op key, start, seconds, reference seconds)
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.passes = []  # per pass: {count name: value}
        self._pass = {}
        self._op = None
        self._first = {}
        self._ops = 0
        self._depth = random.Random(0)
        self.refs = []  # (start, seconds) of every reference run
        self._last = 0.0  # seconds of the previous op

    def call(self, layer, fn, *args, **kwargs):
        return self.tracer.call(layer, fn, *args, **kwargs)

    def span(self, layer, tag=None):
        return self.tracer.span(layer, tag)

    def count(self, name, value):
        for counts in (self._pass, self._op):
            if counts is not None:
                counts[name] = counts.get(name, 0) + value

    def peak(self, name, value):
        for counts in (self._pass, self._op):
            if counts is not None:
                counts[name] = max(counts.get(name, 0), value)

    def begin_pass(self, index):
        self._pass = {}
        self.passes.append(self._pass)
        self.tracer.pass_index = index

    def fail(self, reason):
        self.attempted += 1
        self.failed += 1
        self.reasons.append(reason)

    def op(self, key, fn, check):
        self._op = {}
        self.tracer.op_id = self._ops
        self._ops += 1
        reason = answer = None
        extra = self._depth.randrange(STACK_SPREAD)
        ref = 0.0
        for _ in range(min(1 + int(self._last / REF_EVERY_S), REF_MOST_RUNS)):
            self.refs.append((perf_counter(), reference_seconds()))
            ref += self.refs[-1][1]
        start = perf_counter()
        try:
            with self.tracer.span("op", tag=key):
                answer = at_depth(extra, fn)
        except Exception as exc:  # a request that raises is a failed op
            reason = f"{type(exc).__name__}: {exc}"
        elapsed = self._last = perf_counter() - start
        counts, self._op = self._op, None
        self.tracer.op_id = None
        if reason is None and check is not None:
            try:
                reason = check(answer)
            except Exception as exc:  # an answer the check cannot read is wrong
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is None and self._first.setdefault(key, counts) != counts:
            reason = f"layer counts {counts} differ from the first run {self._first[key]}"
        self.samples.append((self.tracer.pass_index, key, start, elapsed, ref))
        if reason:
            self.fail(f"{key}: {reason}")
        else:
            self.attempted += 1


def local_reference(samples, ref_runs):
    """Per sample, the mean time of the reference runs near its start (see REF_MS)."""
    starts = [t for t, _ in ref_runs]
    refs = [seconds for _, seconds in ref_runs]
    median = statistics.median(refs or [0.0])
    out = []
    for sample in samples:
        t = sample[2]
        i = bisect.bisect_left(starts, t)
        lo = min(bisect.bisect_left(starts, t - REF_WINDOW_S), max(i - REF_NEIGHBOURS, 0))
        hi = max(bisect.bisect_right(starts, t + REF_WINDOW_S), i + REF_NEIGHBOURS)
        out.append(clipped_mean(refs[lo:hi], median))
    return out


def op_times(samples, scale):
    """{op key: the median of its runs' times}, each run's seconds times its scale.

    Every pass runs the same ops, so this is each op's typical cost; the
    percentiles are then taken over the op mix.
    """
    runs = {}
    for (_, key, _, seconds, _), factor in zip(samples, scale):
        runs.setdefault(key, []).append(seconds * factor)
    return {key: statistics.median(times) for key, times in runs.items()}


def timing(samples, pass_times, scale, pct):
    """(op_p50_ms, op_tail_ms, ops_per_s, per-op seconds) under per-sample scales.

    ops_per_s is for one typical pass: every op at its median time, plus
    the median per-pass work outside the ops (building the catalog in
    census, the answer checks), each pass's share scaled by its own
    samples' median scale.
    """
    times = op_times(samples, scale)
    inside = [0.0] * len(pass_times)
    factors = [[] for _ in pass_times]
    for (index, _, _, seconds, ref), factor in zip(samples, scale):
        inside[index] += seconds + ref
        factors[index].append(factor)
    outside = [
        (s - ops) * statistics.median(f)
        for (_, s), ops, f in zip(pass_times, inside, factors)
        if f
    ]
    per_pass = sum(times.values()) + statistics.median(outside or [0.0])
    return (
        1000 * quantile(times.values(), 0.5),
        1000 * quantile(times.values(), pct / 100),
        len(times) / per_pass if per_pass else 0.0,
        times,
    )


def quantile(values, p, steps=64):
    """Harrell-Davis estimate of the p-quantile of values.

    A mean of all order statistics weighted by the Beta((n+1)p, (n+1)(1-p))
    mass over each one's share of [0, 1].  Where the plain percentile is one
    or two order statistics, and so one or two ops of the mix and their
    noise, this estimate averages the ops around the percentile.
    """
    x = sorted(values)
    n = len(x)
    if n < 2:
        return x[0] if x else 0.0
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    weights = [
        sum(exp(norm + (a - 1) * log(t) + (b - 1) * log(1 - t))
            for t in ((i + (j + 0.5) / steps) / n for j in range(steps)))
        for i in range(n)
    ]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def run(name, seed, seconds, trace, import_s, root=ROOT):
    """Set up, measure and check one workload; returns (metrics, detail, recorder)."""
    from workloads import WORKLOADS

    before = reference_burst()
    import_ref = burst_mean(before)
    setup_times = []  # (wall seconds, reference seconds of the bursts before and after)
    workload = None
    for _ in range(SETUP_REPS):
        if workload is not None:
            workload.close()
        start = perf_counter()
        workload = WORKLOADS[name](seed, root)
        workload.setup(Recorder(Tracer()))
        elapsed = perf_counter() - start
        after = reference_burst()
        setup_times.append((elapsed, burst_mean(before + after)))
        before = after

    tracer = Tracer()
    rec = Recorder(tracer)
    pass_times = []  # (traced, seconds)
    try:
        workload.answer_key()
        start = perf_counter()
        while True:
            # a traced run alternates traced and untraced passes, which
            # gives the tracing overhead from one process
            tracer.enabled = bool(trace) and len(pass_times) % 2 == 0
            rec.begin_pass(len(pass_times))
            t = perf_counter()
            try:
                workload.run_pass(rec)
            except Exception as exc:  # keep measuring; the pass counts as a failure
                rec.fail(f"pass {len(pass_times)}: {type(exc).__name__}: {exc}")
            pass_times.append((tracer.enabled, perf_counter() - t))
            elapsed = perf_counter() - start
            if elapsed >= seconds and len(pass_times) >= workload.MIN_PASSES:
                break
        tracer.enabled = bool(trace)
        extras = workload.layer_extras(rec) if trace else {}
        tracer.enabled = False
    finally:
        workload.close()

    if any(counts != rec.passes[0] for counts in rec.passes):
        rec.fail("layer counts differ between passes")
    src_hash = source_hash(root)
    gate = determinism_gate(root, name, seed, src_hash, rec.passes[0])
    if gate:
        rec.fail(gate)

    pct = workload.TAIL_PERCENTILE
    to_ref = REF_MS / 1000
    refs = local_reference(rec.samples, rec.refs)
    p50, tail_value, per_s, times = timing(
        rec.samples, pass_times, [to_ref / r for r in refs], pct)
    wall = timing(rec.samples, pass_times, [1.0] * len(refs), pct)
    latencies = [times[key] for _, key, *_ in rec.samples]
    beyond = sum(1000 * x > tail_value for x in latencies)
    # the imports and each set-up in reference seconds, from the bursts around them
    setup_s = to_ref * (import_s / import_ref + statistics.median(s / r for s, r in setup_times))
    if trace:
        pass_refs = [[] for _ in pass_times]
        for sample, r in zip(rec.samples, refs):
            pass_refs[sample[0]].append(r)
        scaled = [(traced, s / statistics.median(r))
                  for (traced, s), r in zip(pass_times, pass_refs) if r]
        metrics = layer_metrics(tracer, rec.passes[0], pass_times, scaled, extras)
        out = root / ".bench_run" / "spans"
        out.mkdir(parents=True, exist_ok=True)
        tracer.dump(out / f"{name}-seed{seed}.json")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ms": (p50, "ms"),
            "op_tail_ms": (tail_value, "ms"),
            "ops_per_s": (per_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(pass_times),
        "ops": len(rec.samples),
        "timed_s": elapsed,
        "failed_ratio": {"value": rec.failed / max(rec.attempted, 1), "unit": "ratio"},
        "op_tail": {"percentile": pct, "value_ms": tail_value,
                    "samples_beyond": beyond, "samples": len(latencies)},
        "reference_ms": {"import": 1000 * import_ref,
                         "setups": [1000 * r for _, r in setup_times],
                         "ops_mean": 1000 * statistics.fmean(refs or [0.0]),
                         "runs": len(rec.refs)},
        "wall": {
            "setup_s": import_s + statistics.median(s for s, _ in setup_times),
            "op_p50_ms": wall[0],
            "op_tail_ms": wall[1],
            "ops_per_s": wall[2],
        },
        "import_s": import_s,
        "setup_reps_s": [s for s, _ in setup_times],
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                "MKL_NUM_THREADS")},
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "commit": git_commit(root),
        "sources_sha256": src_hash,
        "op_ms": {k: 1000 * v for k, v in times.items()},
        "failures": rec.reasons[:10],
    }
    return metrics, detail, rec


def layer_metrics(tracer, counts, pass_times, scaled_passes, extras):
    """Per-layer metrics for one pass; busy (self) seconds from the fastest traced pass.

    The tracing overhead compares the median traced and untraced pass,
    each pass in reference time (``scaled_passes``).
    """
    traced = [i for i, (t, _) in enumerate(pass_times) if t]
    per_pass = {(layer, i): 0.0 for layer in LAYERS for i in traced}
    calls = {sub: [] for sub in CLI_SUBCOMMANDS}
    for name, tag, index, self_s, duration in tracer.self_times():
        if (name, index) in per_pass:
            per_pass[name, index] += self_s
        if name == "cli":
            calls[tag].append(duration)
    busy = {layer: min(per_pass[layer, i] for i in traced) for layer in LAYERS}

    def c(name):
        return counts.get(name, 0)

    leaves = c("miner.structures") + sum(
        c(f"miner.prunes.{r}") for r in ("residual-missing", "verification", "negation-mismatch")
    )
    m = {f"{layer}.busy_s": (busy[layer], "s") for layer in LAYERS if layer != "cli"}
    m.update((name, (c(name), unit)) for name, unit in COUNTED.items())
    m["miner.nodes_per_s"] = (c("miner.nodes") / busy["miner"] if busy["miner"] else 0.0, "1/s")
    m["miner.leaf_accept_ratio"] = (c("miner.structures") / leaves if leaves else 0.0, "ratio")
    m["cli.import_ms"] = (extras.get("cli.import_ms", 0.0), "ms")
    for sub in CLI_SUBCOMMANDS:
        ms = 1000 * statistics.median(calls[sub]) if calls[sub] else 0.0
        m[f"cli.call_ms.{sub}"] = (ms, "ms")
    typical = {t: statistics.median(s for traced, s in scaled_passes if traced == t)
               for t in (True, False)}
    overhead = 100 * (typical[True] / typical[False] - 1)
    m["trace.overhead_pct"] = (overhead, "%")
    return m


def source_hash(root):
    """Hash of the program's and the benchmark's sources: what the layer counts depend on."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "resposet").glob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def determinism_gate(root, name, seed, src_hash, counts):
    """Compare one pass's layer counts with an earlier run of the same seed and code."""
    state = root / ".bench_run" / "state"
    state.mkdir(parents=True, exist_ok=True)
    path = state / f"{name}-seed{seed}-{src_hash[:16]}.json"
    if path.exists():
        before = json.loads(path.read_text(encoding="utf-8"))
        if before != counts:
            return f"layer counts {counts} differ from an earlier run of seed {seed}: {before}"
        return None
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return None


def git_commit(root):
    """HEAD's commit read from .git, or "unknown" outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("census", "mine", "construct"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "resposet" / "__init__.py").is_file():
        print(f"error: no resposet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import workloads  # noqa: F401  (imports numpy and resposet)

    import_s = perf_counter() - start

    metrics, detail, rec = run(args.workload, args.seed, args.seconds, args.trace, import_s)
    for reason in detail["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
