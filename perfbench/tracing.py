"""Span tracing around the calls into each dynbc module.

The program is not changed: the tracer replaces public functions at the
module attributes their callers look up at call time (for example
``apsp.topo_order``, which ``_bc_pass`` resolves on every call, and
``vertex_update.transpose``), and restores them afterwards.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter_ns

# (module, attribute path) of every traced boundary; the span name is
# "<module>.<attribute path>".
TRACED = [
    ("generate", "gen_graph"),
    ("graph", "parse_graph"),
    ("graph", "Graph.with_updates"),
    ("graph", "Graph.reverse"),
    ("apsp", "brandes_bc"),
    ("apsp", "static_bc"),
    ("apsp", "counting_dijkstra"),
    ("apsp", "topo_order"),
    ("apsp", "accumulate_dependency"),
    ("apsp", "derive_rdags"),
    ("edge_update", "incremental_bc_edge"),
    ("edge_update", "classify_pairs"),
    ("edge_update", "update_dag"),
    ("vertex_update", "incremental_bc_vertex"),
    ("vertex_update", "update_dag_vertex"),
    ("vertex_update", "build_r_sets"),
    ("vertex_update", "transpose"),
    ("oracle", "compare_states"),
    ("cli", "parse_update_stream"),
]

# span record fields
NAME, START, END, PARENT, REQUEST = range(5)


class Tracer:
    """Records one span per call of a traced function while installed.

    A span is (name, start_ns, end_ns, parent span index, request id); the
    request id is the stream event index, or -1 outside the stream.
    """

    def __init__(self, modules: dict):
        self.spans = []
        self._stack = []
        self._request = -1
        self._patches = []
        for mod_name, path in TRACED:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)  # a lost boundary fails the run
            name = f"{mod_name}.{path}"
            self._patches.append((owner, attr, original, self._wrap(name, original)))

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                # a tuple of atoms, which the garbage collector stops tracking
                spans[index] = (name, start, end, parent, self._request)
        return traced

    @contextmanager
    def installed(self, request: int = -1):
        """Trace calls made inside the block, tagged with ``request``."""
        self._request = request
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self._request = -1

    def totals(self) -> dict:
        """Per traced boundary: inclusive seconds, self seconds, call count.

        Self time is a span's duration minus the durations of the spans
        nested directly inside it (one thread, so children never overlap).
        A boundary that was never called reads 0 on all three.
        """
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        out = {f"{mod_name}.{path}": [0, 0, 0] for mod_name, path in TRACED}
        for i, rec in enumerate(self.spans):
            dur = rec[END] - rec[START]
            agg = out[rec[NAME]]
            agg[0] += dur
            agg[1] += dur - child[i]
            agg[2] += 1
        return {name: {"s": s / 1e9, "self_s": self_ns / 1e9, "calls": calls}
                for name, (s, self_ns, calls) in out.items()}

    def dump(self, path, header: dict):
        """Write the header and every span as JSON, names interned."""
        names = sorted({rec[NAME] for rec in self.spans})
        index = {name: i for i, name in enumerate(names)}
        doc = dict(header)
        doc["span_fields"] = ["name", "start_ns", "end_ns", "parent", "request"]
        doc["span_names"] = names
        doc["spans"] = [[index[r[NAME]], r[START], r[END], r[PARENT], r[REQUEST]]
                        for r in self.spans]
        with open(path, "w", encoding="ascii") as fh:
            json.dump(doc, fh, separators=(",", ":"))
