"""Paired A/B replays: two trees of dynbc timed on the same events.

Usage, from the repository root:

    python tests/paired.py --parent DIR --change DIR --workload W [W ...] \\
        --seeds 1 2 3 [--events N] [--n N]

Each DIR is a tree holding ``src/dynbc`` (a ``git archive`` of a commit
will do).  Both are loaded into one process under distinct package names.
For each workload of ``perfbench/run.py`` and each seed, the graph comes
from ``gen_graph`` and the stream from perfbench's ``streams.make_stream``,
with the benchmark's parameters and its ``f"{name}:{seed}"`` stream seed;
``--n`` replaces the workload's vertex count, and ``--events`` the
benchmark's event count.  Each side builds with ``brandes_bc`` in the
workload's mode and parses the stream itself.  Every event is timed on
both sides back to back, and the side that goes first alternates.
Automatic collection is off; each side's timing ends with a
``gc.collect(0)``, so young garbage is paid for by the side that made it.
The state built second replays a few percent faster (on edge-dense, two
identical trees read 0.96-0.97 one way round and 1.02-1.04 the other), so
each seed is replayed twice, once with each side's state built first, and
every ratio is the geometric mean of its two replays.

One line per workload and seed gives the median of the per-event ratios
(change over parent), on how many events the change was faster, and the
ratio of the totals.  The two final states must be equal field by field,
counters and every ``UpdateReport`` field included, and each must equal a
fresh ``brandes_bc`` at ``tol=0.0``; the script exits 1 otherwise.
The ratios are comparable across runs; the absolute times, which the
per-event collections shift, are not printed.

Nothing is written: bytecode writing is off, and the perfbench sources are
executed from where they are.  This script is not part of the test suite;
``tests/test_paired.py`` runs it on two copies of this tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import importlib
import importlib.util
import math
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns

sys.dont_write_bytecode = True
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import run as bench  # noqa: E402
import streams  # noqa: E402

MODULES = ("apsp", "cli", "edge_update", "generate", "graph", "oracle", "vertex_update")


def load_tree(root: str, name: str) -> dict:
    """The modules of ``root``'s ``src/dynbc``, imported as package ``name``."""
    src = Path(root).resolve() / "src" / "dynbc"
    spec = importlib.util.spec_from_file_location(
        name, src / "__init__.py", submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {m: importlib.import_module(f"{name}.{m}") for m in MODULES}


def _plain(x):
    """``x`` as builtin values, so that objects of the two packages compare."""
    if dataclasses.is_dataclass(x):
        return {f.name: _plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    slots = getattr(type(x), "__slots__", ())
    return {k: _plain(getattr(x, k)) for k in slots} if slots else x


def differing_fields(a, b) -> list:
    """The names of the fields in which states ``a`` and ``b`` differ."""
    return [f.name for f in dataclasses.fields(a)
            if _plain(getattr(a, f.name)) != _plain(getattr(b, f.name))]


def _step(mods, event):
    if isinstance(event, mods["vertex_update"].VertexUpdate):
        return mods["vertex_update"].incremental_bc_vertex
    return mods["edge_update"].incremental_bc_edge


def replay(sides, name: str, seed: int, events: int | None, n: int | None,
           first: int) -> tuple:
    """Replay one workload and seed on both sides, building the state of
    side ``first`` first; returns the per-event times (ns) of each side and
    the final state of each."""
    wl = bench.WORKLOADS[name]
    if n is not None:
        wl = dataclasses.replace(wl, n=n)
    if events is None:
        events = max(bench.MIN_EVENTS, round(bench.SPEC["run_seconds"] * wl.events_per_s))
    text = sides[0]["generate"].gen_graph(wl.model, wl.n, p=wl.p, wmax=wl.wmax, seed=seed)
    stream, _ = streams.make_stream(wl.mix, wl.n, streams.read_weights(text), wl.wmax,
                                    events, [], random.Random(f"{name}:{seed}"))
    states = [None, None]
    for k in (first, 1 - first):
        m = sides[k]
        states[k] = m["apsp"].brandes_bc(m["graph"].parse_graph(text), mode=wl.mode)
    lists = [m["cli"].parse_update_stream(stream) for m in sides]
    times = ([], [])
    gc.collect()
    gc.disable()
    try:
        for i, pair in enumerate(zip(*lists)):
            for k in ((0, 1) if i % 2 == 0 else (1, 0)):
                step = _step(sides[k], pair[k])
                start = perf_counter_ns()
                states[k] = step(states[k], pair[k])
                gc.collect(0)
                times[k].append(perf_counter_ns() - start)
    finally:
        gc.enable()
    return times, states


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="paired", description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--workload", nargs="+", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--events", type=int, default=None)
    parser.add_argument("--n", type=int, default=None)
    args = parser.parse_args(argv)
    sides = [load_tree(args.parent, "dynbc_parent"), load_tree(args.change, "dynbc_change")]
    failed = False
    for name in args.workload:
        for seed in args.seeds:
            runs = []
            for first in (0, 1):
                states = None  # the first replay's states go before the second
                times, states = replay(sides, name, seed, args.events, args.n, first)
                runs.append(times)
            (p0, c0), (p1, c1) = runs
            ratios = [math.sqrt(c / p * d / q) for p, c, q, d in zip(p0, c0, p1, c1)]
            faster = sum(r < 1 for r in ratios)
            total = math.sqrt(sum(c0) / sum(p0) * sum(c1) / sum(p1))
            differ = differing_fields(*states)
            fresh = [m["oracle"].compare_states(
                st, m["apsp"].brandes_bc(st.graph, mode=st.mode), tol=0.0).passed
                for m, st in zip(sides, states)]
            ok = not differ and all(fresh)
            failed |= not ok
            verdict = "states equal, both equal a fresh build" if ok else (
                f"FAIL: states differ in {differ or 'no field'}, "
                f"fresh build equal {fresh[0]} (parent) {fresh[1]} (change)")
            print(f"{name} seed {seed}: {len(ratios)} events; median change/parent "
                  f"{statistics.median(ratios):.3f}; change faster on {faster} of "
                  f"{len(ratios)}; total {total:.3f}; {verdict}",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
