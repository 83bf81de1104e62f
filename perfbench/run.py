"""dynbc benchmark: one workload per process, one closed-loop caller.

Usage, from the repository root:

    python3 perfbench/run.py --workload edge-dense --seed 1 --seconds 20 --trace 0

Every input comes from ``--seed``: the graph from ``gen_graph`` and the
update stream from the generator in ``streams.py``, which is built before
timing starts.  The stream has ``max(100, seconds * events_per_s)`` events,
where ``events_per_s`` is set so that the run lasts about ``--seconds``
on an uncontended machine, while the stream's length, and so every count,
depends only on the arguments.  The caller waits for each update before
sending the next; nothing else runs while it measures.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` replays the
stream twice from the same initial state, interleaved event by event: one
copy untraced, one with spans around every traced module boundary (see
``tracing.py``).  It prints the per-layer totals, the work counts, and the
tracing overhead, writes the spans under ``.perfbench-out/``, and fails if
the two copies disagree on any count.

Correctness is checked outside the timed region: after each eighth of the
stream the engine's state must equal a fresh ``brandes_bc`` build of the
graph the generator expects, and a ``static_bc`` build and a build in the
other mode must agree with it (see ``Gate.check``); their times give the
``build_*_s`` metrics.  Spreading the checks through the stream spreads
every metric's samples over the run, so that a burst of load on the
machine moves few of them.  With ``--trace 0`` every reported time is
scaled for the speed of the host, which a timer signal samples every 50 ms
with a fixed probe (see ``HostSpeed``); the measured times are printed on
``measured`` lines before the result.
An operation fails if it raises or if the check closing its segment fails.
Further setups, timed for ``setup_s``, run after every check but the last.
The last line of stdout is one JSON object; the exit status is nonzero on
any failure.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import heapq
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import streams  # noqa: E402
from tracing import Tracer  # noqa: E402

MIN_EVENTS = 100  # p90 needs at least 10 samples beyond it
CHECKPOINTS = 8
BC_TOL = 1e-9

# Host speed.  On a shared machine, other tenants slow a core by up to
# about 2x, in stretches from under a second to minutes, and how much of a
# run falls in such stretches varies from run to run; that moves every
# timing far more than the program's own variation does.  So the run samples
# the host's speed all along: every SAMPLE_S seconds a timer signal runs a
# fixed probe and records its time.  Each timed operation is reported as
#     reported time = measured time * PROBE_REF_NS / probe time
# where the probe time is the median of the samples taken during the
# operation, or of the MIN_SAMPLES nearest to it when fewer fell inside, and
# the measured time leaves out the time the samples took from it.
# PROBE_REF_NS is about the probe's time on an uncontended vCPU of the
# machine the workloads were sized on (Intel Xeon VM, 2 vCPUs, Python
# 3.11.7), so reported times read as times on that machine.  The probe is
# the benchmark's own code, so no change to the program moves it; it mixes
# a dict loop with a heap-based Dijkstra search, which together track the
# program's slowdown better than either alone.  It runs twice and the second
# run is timed, so it runs on warm caches whatever the program left in them,
# and the collector is off inside it, so the program's heap does not move
# it either.  Measured times are printed beside the reported ones.
PROBE_LOOPS = 4000
PROBE_N = 200
PROBE_REF_NS = 530_000
SAMPLE_S = 0.05
MIN_SAMPLES = 5
_rng = random.Random(0)
PROBE_ADJ = [[(_rng.randrange(PROBE_N), _rng.randint(1, 50)) for _ in range(6)]
             for _ in range(PROBE_N)]
del _rng


def _probe_work():
    d = dict.fromkeys(range(256), 0)
    for i in range(PROBE_LOOPS):
        d[i & 255] += i
    dist = {0: 0}
    heap = [(0, 0)]
    done = set()
    while heap:
        du, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in PROBE_ADJ[u]:
            if du + w < dist.get(v, du + w + 1):
                dist[v] = du + w
                heapq.heappush(heap, (du + w, v))


def probe_ns() -> int:
    gc.disable()
    try:
        _probe_work()
        t0 = perf_counter_ns()
        _probe_work()
        return perf_counter_ns() - t0
    finally:
        gc.enable()


class HostSpeed:
    """Times operations and, while sampling, the host's speed around them.

    An operation is recorded as (start, end, time) in perf_counter_ns,
    where time is end - start less the time samples took from it.
    """

    def __init__(self, sampling: bool):
        self.sampling = sampling
        self.at = []       # end of each sample
        self.probe = []    # probe time of each sample
        self.taken_ns = 0  # time spent sampling
        self._busy = False

    def _sample(self, signum, frame):
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        start = perf_counter_ns()
        self.probe.append(probe_ns())
        end = perf_counter_ns()
        self.at.append(end)
        self.taken_ns += end - start
        self._busy = False

    @contextmanager
    def running(self):
        if not self.sampling:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn, ops: list):
        """Return ``fn()``; append its (start, end, time) to ``ops``."""
        taken = self.taken_ns
        t0 = perf_counter_ns()
        try:
            return fn()
        finally:
            t1 = perf_counter_ns()
            ops.append((t0, t1, t1 - t0 - (self.taken_ns - taken)))

    def scaled(self, op) -> float:
        """The time of ``op`` in ns, scaled for the host speed around it."""
        t0, t1, t = op
        at = self.at
        lo, hi = bisect.bisect_left(at, t0), bisect.bisect_right(at, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(at)):
            if hi == len(at) or (lo > 0 and t0 - at[lo - 1] <= at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return t * PROBE_REF_NS / statistics.median(self.probe[lo:hi])


@dataclass(frozen=True)
class Workload:
    model: str
    n: int
    p: float | None
    wmax: int          # weight range of the graph and of inserted edges
    mode: str          # state mode of the initial build and the stream
    mix: str           # event mix, see streams.make_stream
    events_per_s: float


# Why each workload exists is recorded in BENCHMARK.json.  ``events_per_s``
# is set so that a whole run, correctness checks included, lasts about
# ``--seconds`` on an uncontended 2-vCPU x86-64 VM under Python 3.11.
WORKLOADS = {
    "edge-dense": Workload("complete", 144, None, 144 * 144, "edge-fast",
                           "decrease", 7.5),
    "edge-sparse-insert": Workload("gnp", 256, 0.02, 4, "edge-fast", "insert", 6.5),
    "vertex-mixed-full": Workload("gnp", 192, 0.05, 100, "full", "vertex-mixed", 8.0),
}

# Metric names and units are those BENCHMARK.json declares.
with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _fh:
    SPEC = json.load(_fh)

# Per-layer metrics that read 0 on a state mode because their layer is not
# used there (name prefixes).  Every other per-layer metric but the
# tracing overhead must be nonzero, or the trace lost a layer boundary.
NOT_APPLICABLE = {
    "edge-fast": ("vertex_update.", "graph.Graph.reverse.", "report.r_total",
                  "report.rdag_"),
    "full": ("edge_update.classify_pairs.", "edge_update.update_dag."),
}


def load_program():
    """Import dynbc from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    names = ["graph", "generate", "apsp", "edge_update", "vertex_update",
             "oracle", "cli"]
    mods = {name: importlib.import_module(f"dynbc.{name}") for name in names}
    origin = Path(mods["apsp"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"dynbc was imported from {origin}, not from {src}")
    return mods


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "peak_rss_method": "resource.getrusage(RUSAGE_SELF).ru_maxrss / 1024 "
                           "(KiB to MiB), read before the first correctness check",
        "timing": "wall clock (perf_counter_ns); reported times are scaled by "
                  f"{PROBE_REF_NS} ns / the median time of a fixed probe "
                  f"sampled every {SAMPLE_S} s during or next to each timing; "
                  "measured times are printed as well",
        "uncontrolled": "CPU frequency, caches and other tenants of the "
                        "shared machine are not controlled; the probe "
                        "corrects only for their effect on the core's speed",
    }


class Lineage:
    """One copy of the engine state driven through the stream."""

    def __init__(self, state, n: int, host: HostSpeed):
        self.state = state
        self.n = n
        self.host = host
        self.start_counters = state.counters.copy()
        self.ops = []  # (start, end, time) of each event, see HostSpeed
        self.raised = set()
        self.affected = 0
        self.report = dict.fromkeys(
            ["dag_sum_post", "r_total", "rdag_insert_attempts", "rdag_unique_inserts"], 0)

    def step(self, i: int, event, mods):
        if isinstance(event, mods["vertex_update"].VertexUpdate):
            update = mods["vertex_update"].incremental_bc_vertex
        else:
            update = mods["edge_update"].incremental_bc_edge
        old = self.state
        try:
            new = self.host.time(lambda: update(old, event), self.ops)
        except Exception:  # a failed operation; the stream goes on
            print(f"event {i} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            self.raised.add(i)
            return
        self.state = new
        self.affected += sum(1 for s in range(self.n)
                             if old.dist[s] != new.dist[s] or old.sigma[s] != new.sigma[s])
        for key in self.report:
            self.report[key] += getattr(new.report, key)

    def counts(self, events: int) -> dict:
        c, c0 = self.state.counters, self.start_counters
        attempts = self.report["rdag_insert_attempts"]
        return {
            "counters.edges_examined": c.edges_examined - c0.edges_examined,
            "counters.pairs_touched": c.pairs_touched - c0.pairs_touched,
            "counters.dag_edges_emitted": c.dag_edges_emitted - c0.dag_edges_emitted,
            "report.dag_sum_post": self.report["dag_sum_post"],
            "report.r_total": self.report["r_total"],
            "report.rdag_insert_attempts": attempts,
            "report.rdag_unique_over_attempts":
                self.report["rdag_unique_inserts"] / attempts if attempts else 0.0,
            "stream.affected_sources_frac": self.affected / (events * self.n),
        }


def same_forward(a, b) -> bool:
    return a.dist == b.dist and a.sigma == b.sigma and a.dags == b.dags


def bc_text(state) -> list:
    return [f"{x:.12f}" for x in state.bc]


class Gate:
    """Correctness checks at the stream checkpoints, outside timing.

    At most the reference build and one other are alive at a time, and
    each build starts after a full collection, so builds are timed on a
    heap that holds little besides the stream state.
    """

    def __init__(self, wl: Workload, mods, scope, host: HostSpeed):
        self.wl = wl
        self.mods = mods
        self.scope = scope
        self.host = host
        self.builds = {"brandes": [], "dagged": [], "full": []}  # timed ops
        self.attempted = 0
        self.failed = 0
        self.mstar_over_m = 0.0

    def _build(self, kind, g):
        apsp = self.mods["apsp"]
        build = {"brandes": lambda: apsp.brandes_bc(g),
                 "dagged": lambda: apsp.static_bc(g),
                 "full": lambda: apsp.brandes_bc(g, mode="full")}[kind]
        self.attempted += 1
        gc.collect()
        with self.scope():
            try:
                out = self.host.time(build, self.builds[kind])
            except Exception:
                print(f"{kind} build raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                return None
        if out.inexact:
            print(f"{kind} build tripped the inexact flag", file=sys.stderr)
            return None
        return out

    def _compare(self, label, state, expect) -> bool:
        with self.scope():
            report = self.mods["oracle"].compare_states(state, expect, tol=BC_TOL)
        if not report.passed:
            print(f"{label}: state differs from rebuild: {report}", file=sys.stderr)
        return report.passed

    def check(self, index: int, state, snapshot: str, last: bool) -> bool:
        """Check checkpoint ``index``; returns whether the stream state passed.

        The reference build is ``brandes_bc`` in the workload's mode, and
        the stream state must equal it.  The other two kinds must agree with
        the reference: ``static_bc`` on dist, sigma and DAGs with BC equal
        to 12 decimal places, and the other mode of ``brandes_bc`` exactly
        on the forward part.  A build that raises or disagrees counts as one
        failed operation of its own.
        """
        mods, wl = self.mods, self.wl
        label = f"checkpoint {index}"
        scale = mods["graph"].WEIGHT_SCALE
        edges = []
        for line in snapshot.splitlines():
            u, v, w = line.split()
            edges.append((int(u), int(v), int(w) * scale))
        g = mods["graph"].Graph(wl.n, edges)
        del edges
        ok = state.graph == g and not state.inexact
        if not ok:
            print(f"{label}: graph differs from the generated one, or the "
                  "inexact flag is set", file=sys.stderr)
        ref_kind = "full" if wl.mode == "full" else "brandes"
        ref = self._build(ref_kind, g)
        if ref is None:
            self.failed += 1
            return False
        ok = self._compare(label, state, ref) and ok
        if last:
            # m*: edges on some shortest path, the union of forward DAGs
            self.mstar_over_m = len(set().union(*ref.dags)) / g.m
        for kind in ("brandes", "dagged", "full"):
            if kind == ref_kind:
                continue
            other = self._build(kind, g)
            if other is None or not same_forward(other, ref) or (
                    bc_text(other) != bc_text(ref) if kind == "dagged"
                    else other.bc != ref.bc):
                print(f"{label}: {kind} build failed or disagrees with the "
                      f"{ref_kind} build", file=sys.stderr)
                self.failed += 1
            del other
        return ok


def p90(values):
    """Nearest-rank 90th percentile."""
    s = sorted(values)
    return s[math.ceil(0.9 * len(s)) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, mods) -> dict:
    wl = WORKLOADS[name]
    tracer = Tracer(mods) if trace else None

    def scope(request=-1):
        return tracer.installed(request) if tracer else nullcontext()

    apsp, generate, graph = mods["apsp"], mods["generate"], mods["graph"]
    host = HostSpeed(sampling=not trace)
    setups = []  # timed ops

    def build_initial():
        text = generate.gen_graph(wl.model, wl.n, p=wl.p, wmax=wl.wmax, seed=seed)
        return text, apsp.brandes_bc(graph.parse_graph(text), mode=wl.mode)

    def setup():
        gc.collect()
        with scope():
            return host.time(build_initial, setups)

    with host.running():
        text, state = setup()
        count = max(MIN_EVENTS, round(seconds * wl.events_per_s))
        checkpoints = [count * k // CHECKPOINTS for k in range(1, CHECKPOINTS + 1)]
        stream_text, snapshots = streams.make_stream(
            wl.mix, wl.n, streams.read_weights(text), wl.wmax, count, checkpoints,
            random.Random(f"{name}:{seed}"))
        with scope():
            events = mods["cli"].parse_update_stream(stream_text)

        lineages = [Lineage(state, wl.n, host)]
        if trace:
            lineages.append(Lineage(state, wl.n, host))
        checked = lineages[-1]
        del text, state
        gate = Gate(wl, mods, scope, host)
        failed = 0
        start = 0
        peak_rss_mb = None
        gc.collect()
        for i, event in enumerate(events):
            # in a traced run, alternate which copy goes first
            for lin in (lineages if i % 2 == 0 else lineages[::-1]):
                with scope(i) if trace and lin is checked else nullcontext():
                    lin.step(i, event, mods)
            if i + 1 not in snapshots:
                continue
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            cp = i + 1
            ok = gate.check(checkpoints.index(cp), checked.state, snapshots[cp], cp == count)
            segment = range(start, cp)
            failed += len(segment) if not ok else sum(1 for j in segment if j in checked.raised)
            start = cp
            if cp < count:
                setup()
    attempted = count + gate.attempted
    failed += gate.failed

    counts = checked.counts(count)
    counts["static.mstar_over_m"] = gate.mstar_over_m
    trace_ok = True
    if trace:
        first = lineages[0].counts(count)
        first["static.mstar_over_m"] = gate.mstar_over_m
        if first != counts:
            trace_ok = False
            print(f"counts differ between the two copies: {first} != {counts}",
                  file=sys.stderr)

    measured = {}
    if not trace:
        ok_events = count - len(lineages[0].raised)

        def timings(ns):
            """The timing metrics, with ``ns(op)`` the time of an op in ns."""
            times_ms = [ns(op) / 1e6 for op in lineages[0].ops]
            return {
                "setup_s": statistics.median(ns(op) for op in setups) / 1e9,
                "update_ms_p50": statistics.median(times_ms),
                "update_ms_p90": p90(times_ms),
                "updates_per_s": ok_events / (sum(times_ms) / 1e3),
                **{f"build_{k}_s": statistics.median(ns(op) for op in ops) / 1e9
                   for k, ops in gate.builds.items()},
            }

        metrics = timings(host.scaled)
        metrics["peak_rss_mb"] = peak_rss_mb
        measured = timings(lambda op: op[2])
        measured["probe_ms_p50"] = statistics.median(host.probe) / 1e6
        measured["probe_samples"] = len(host.probe)
    else:
        metrics = {}
        for span, agg in tracer.totals().items():
            for field, value in agg.items():
                metrics[f"{span}.{field}"] = value
        metrics.update(counts)
        untraced = statistics.median(op[2] for op in lineages[0].ops) / 1e6
        traced = statistics.median(op[2] for op in checked.ops) / 1e6
        metrics["trace.update_ms_p50_untraced"] = untraced
        metrics["trace.update_ms_p50_traced"] = traced
        metrics["trace.overhead_ms_p50"] = traced - untraced
        lost = [k for k, v in metrics.items()
                if v == 0 and not k.startswith(("trace.",) + NOT_APPLICABLE[wl.mode])]
        if lost:
            trace_ok = False
            print(f"metrics read 0 on {name}, where their layer is used: {lost}",
                  file=sys.stderr)
        out_dir = ROOT / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        tracer.dump(out_dir / f"trace-{name}-{seed}.json",
                    {"workload": name, "seed": seed, "events": count,
                     "environment": environment(), "metrics": metrics})
    return {
        "correct": failed == 0 and trace_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mods = load_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    result, measured = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), mods)
    declared = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result["metrics"]]
    if missing:
        print(f"error: declared metrics not produced: {missing}", file=sys.stderr)
        return 1
    result["metrics"] = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
                         for m in declared}
    print("env " + json.dumps(environment()))
    for k, v in result["metrics"].items():
        print(f"metric {k} {v['value']} {v['unit']}")
    print(f"metric ops_failed_frac {result['failed'] / result['attempted']} ratio")
    for k, v in measured.items():
        print(f"measured {k} {v}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
