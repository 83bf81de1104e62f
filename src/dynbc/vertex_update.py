"""Incremental vertex update: batch weight decreases / insertions on edges
incident to one vertex.

Incoming updates are processed first; outgoing updates are then the
incoming updates of the same vertex in the reversed graph, so one phase
routine serves both directions.  Each phase runs the kernel of
``edge_update`` (pair reclassification and forward-DAG repair, of which a
single edge update is the one-entry case), then repairs the reverse DAG
of every target with a changed pair from per-vertex sets of reversed
shortest-path edges into v.  The graph is built once per event; both
phases read it, the second reversed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .apsp import INF, ApspState, UpdateReport, WorkCounters, transpose
from .edge_update import (
    FlagMatrix,
    PairFlag,
    UpdateError,
    _dist_to_v,
    _finish,
    _reclassify,
    _updated_graph,
    update_dag_vertex,
)
from .graph import Graph


@dataclass(frozen=True)
class VertexUpdate:
    """Updates on edges incident to ``v``: ``incoming`` holds (u, w') for
    edges u->v, ``outgoing`` holds (x, w') for edges v->x.  Every entry is
    a strict decrease or an insertion."""

    v: int
    incoming: tuple = ()
    outgoing: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "incoming", tuple(self.incoming))
        object.__setattr__(self, "outgoing", tuple(self.outgoing))


@dataclass(frozen=True)
class DistToV:
    """One source's view of the updated vertex: new distance, new path
    count, and the count of new-graph shortest paths that use an updated
    incoming edge (meaningful when the distance did not change)."""

    dist: int
    sigma: float
    sigma_via_updates: float


def compute_dist_to_v(s: int, v: int, entries, state: ApspState) -> DistToV:
    """Distance-to-v entry for source ``s`` after updating the incoming
    edges in ``entries``; runs in O(|entries|)."""
    d, sig, sig_hat = _dist_to_v(s, v, entries, state.dist, state.sigma)
    return DistToV(d, sig, sig_hat)


def classify_pair_vertex(s: int, t: int, v: int, state: ApspState,
                         entry: DistToV):
    """New (distance, path count, flag) for pair (s, t) given the updated
    distance-to-v entry of source s.  Pairs (s, v) are read directly from
    the entry and must not be classified here."""
    if t == v:
        raise ValueError("pairs (s, v) come directly from the distance-to-v entry")
    d = state.dist[s][t]
    sig = state.sigma[s][t]
    dv2 = entry.dist
    dvt = state.dist[v][t]
    if dv2 >= INF or dvt >= INF:
        return d, sig, PairFlag.UNCHANGED
    detour = dv2 + dvt
    if d < detour:
        return d, sig, PairFlag.UNCHANGED
    if d == detour:
        mult = entry.sigma_via_updates if state.dist[s][v] == dv2 else entry.sigma
        add = mult * state.sigma[v][t]
        if add == 0.0:
            return d, sig, PairFlag.UNCHANGED
        return d, sig + add, PairFlag.NUM_CHANGED
    return detour, entry.sigma * state.sigma[v][t], PairFlag.WT_CHANGED


def build_r_sets(graph: Graph, dist: list, v: int,
                 counters: WorkCounters | None = None) -> list:
    """Per-vertex sets of reversed edges that start a shortest path to v.

    ``dist`` must already reflect the updated graph.  R[t] holds (a, t)
    whenever w(t, a) + d(a, v) = d(t, v).  Then d(t, a) = w(t, a), as
    d(t, v) <= d(t, a) + d(a, v), so (t, a) is in the DAG rooted at t.
    """
    n = graph.n
    r_sets = [set() for _ in range(n)]
    scanned = 0
    for t in range(n):
        if t == v:
            continue
        dtv = dist[t][v]
        if dtv >= INF:
            continue
        rt = r_sets[t]
        row = graph.adj[t]
        scanned += len(row)
        for a, w in row:
            dav = dist[a][v]
            if dav < INF and w + dav == dtv:
                rt.add((a, t))
    if counters is not None:
        counters.edges_examined += scanned
    return r_sets


def _update_reverse_dag(s, flags, rdag_s, heads, r_sets, counters):
    """Reverse-DAG repair from ``heads``, every b != s in ascending order
    whose pair (b, s) changed (none: ``rdag_s`` itself is kept).  Returns
    the new edge set and the number of insertion attempts (each edge can be
    attempted at most twice: once as a survivor, once from the R set of its
    head)."""
    x = {edge for edge in rdag_s if flags[edge[1]][s] != 2} if heads else rdag_s
    attempts = len(x)
    for b in heads:
        rb = r_sets[b]
        attempts += len(rb)
        x |= rb
    if counters is not None:
        counters.edges_examined += len(rdag_s)
        counters.dag_edges_emitted += len(x)
    return x, attempts


def update_reverse_dag(s: int, flags: FlagMatrix, rdag_s: set, r_sets: list,
                       counters: WorkCounters | None = None) -> set:
    """Repair the reverse DAG rooted at ``s``: survivors are edges whose
    (head, s) pair kept its distance; for every pair that changed, the
    head's R set joins wholesale."""
    heads = [b for b, frow in enumerate(flags.flags) if b != s and frow[s]]
    x, _ = _update_reverse_dag(s, flags.flags, rdag_s, heads, r_sets, counters)
    return x


def _apply_incoming(g, dist, sigma, dags, rdags, v, entries, counters, report):
    """One phase: apply updated incoming edges of ``v`` to the given state
    coordinates; ``g`` is the graph the R sets read.  Adds the reverse-DAG
    tallies to ``report`` and returns (dist, sigma, dags, rdags, inexact)."""
    n = g.n
    counters.edges_examined += n * len(entries)  # the distance-to-v table
    fm, inexact = _reclassify(dist, sigma, v, entries, counters)

    # forward DAG repair (reads pre-update DAGs only)
    dag_v = dags[v]
    new_dags = [
        update_dag_vertex(s, v, entries, fm, dags[s], dag_v, counters)
        for s in range(n)
    ]

    # reverse DAG repair from the new distances; only the rows the pair
    # scan flagged at v can hold a changed pair
    r_sets = build_r_sets(g, fm.dist, v, counters)
    report.r_total += sum(len(r) for r in r_sets)
    heads = [[] for _ in range(n)]
    for b, frow in enumerate(fm.flags):
        if frow[v]:
            for t in compress(range(n), frow):
                heads[t].append(b)
    new_rdags = []
    for s in range(n):
        x, attempts = _update_reverse_dag(s, fm.flags, rdags[s], heads[s],
                                          r_sets, counters)
        new_rdags.append(x)
        report.rdag_insert_attempts += attempts
        report.rdag_unique_inserts += len(x)
    return fm.dist, fm.sigma, new_dags, new_rdags, inexact


def incremental_bc_vertex(state: ApspState, upd: VertexUpdate) -> ApspState:
    """Apply a vertex update and return the post-update state.

    The post-update graph is built once.  Phase 1 applies the incoming
    entries.  Phase 2 applies the outgoing entries on the reversed
    coordinates (reversed graph, transposed matrices, forward and reverse
    DAGs swapped), where they are incoming again; un-mirroring its output
    yields the final forward and reverse DAGs.  The R sets of both phases
    read only rows t != v, and the other side's updates sit in row v.  BC
    is re-accumulated from the final DAGs and path counts.
    """
    if state.rdags is None:
        raise UpdateError("vertex updates require a state built in 'full' mode")
    v = upd.v
    g_new = _updated_graph(state.graph, v, upd.incoming, upd.outgoing)
    counters = state.counters.copy()
    report = UpdateReport(dag_sum_pre=state.dag_sum(),
                          dag_v_pre=state.dag_v_size(v))

    dist, sigma = state.dist, state.sigma
    dags, rdags = state.dags, state.rdags
    inexact = False

    if upd.incoming:
        dist, sigma, dags, rdags, inexact = _apply_incoming(
            g_new, dist, sigma, dags, rdags, v, upd.incoming, counters, report)

    report.dag_sum_mid = sum(len(d) for d in dags) + sum(len(d) for d in rdags)
    report.dag_v_mid = len(dags[v]) + len(rdags[v])

    if upd.outgoing:
        # outgoing edges of v are incoming to v in the reversed graph
        dist_t, sigma_t, rdags, dags, out_inexact = _apply_incoming(
            g_new.reverse(), transpose(dist), transpose(sigma), rdags, dags, v,
            upd.outgoing, counters, report)
        dist = transpose(dist_t)
        sigma = transpose(sigma_t)
        inexact |= out_inexact

    return _finish(state, v, g_new, dist, sigma, dags, rdags, counters,
                   inexact, report)
