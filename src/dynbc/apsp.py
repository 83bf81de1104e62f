"""All-pairs shortest-path state: counting Dijkstra, shortest-path DAGs,
dependency accumulation, betweenness centrality, and work counters.

Distances are exact integers with a saturating infinity sentinel; path
counts are exact ints, flagged ``inexact`` above 2**53 (``_exceeds``).
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import reduce
from heapq import heappush, heappop
from itertools import repeat
from operator import add

from .graph import Graph

INF = 2**63 - 1
SIGMA_EXACT_LIMIT = float(2**53)


def _exceeds(rows) -> bool:
    """Whether a path-count row holds a count above 2**53, the rule by
    which every builder and update sets ``ApspState.inexact``."""
    return any(max(row) > SIGMA_EXACT_LIMIT for row in rows)


@dataclass
class WorkCounters:
    """Tallies of algorithmic work, used to check complexity claims.

    edges_examined counts edge touches by shortest-path and DAG-repair
    scans; pairs_touched counts per-pair reclassification work;
    dag_edges_emitted counts edges written into materialized DAGs.
    Updates charge these in the paper's accounting, once per phase: the
    forward repair costs |dag_s| + |dag_v| + k for every source s and
    emits every DAG's edges; a full phase adds the n * k distance-to-v
    table, the R-set scan's row of every other vertex reaching v, and
    every reverse DAG's edges.  Only the sources the pair scan flagged
    (and their changed targets) are folded and repaired, and only their
    rows are read for R sets, so the counters are upper bounds on the
    Python work.
    """

    edges_examined: int = 0
    pairs_touched: int = 0
    dag_edges_emitted: int = 0

    def copy(self) -> "WorkCounters":
        return WorkCounters(self.edges_examined, self.pairs_touched,
                            self.dag_edges_emitted)


@dataclass
class UpdateReport:
    """Per-operation accounting attached to the state an update produced.

    ``edges_examined``: this operation's edge touches.
    ``pairs_touched``: this operation's pair reclassifications, n * n a phase.
    DAG totals (forward plus reverse DAGs) are taken at three checkpoints
    so work-bound assertions can be formed from real sizes: ``*_pre``
    before the first phase, at its vertex; ``*_mid`` before the second
    phase, at its vertex, which covers the n * |dag_x| charge of that
    phase's repair (a one-phase update has mid = post); ``*_post`` after
    the last phase, at its vertex.
    ``r_total``: edges of the reverse DAG rooted at each full phase's
    vertex after the phase, summed: the union of every vertex's R set.
    ``rdag_insert_attempts``: edges offered to reverse DAGs, summed over phases.
    ``rdag_unique_inserts``: edges in the reverse DAGs after each phase, summed.
    ``accum_sources``: sources whose dependency row was recomputed.
    """

    edges_examined: int = 0
    pairs_touched: int = 0
    dag_sum_pre: int = 0
    dag_sum_mid: int = 0
    dag_sum_post: int = 0
    dag_v_pre: int = 0
    dag_v_mid: int = 0
    dag_v_post: int = 0
    r_total: int = 0
    rdag_insert_attempts: int = 0
    rdag_unique_inserts: int = 0
    accum_sources: int = 0


@dataclass
class SsspResult:
    """One source's shortest-path data.

    ``dag`` holds every edge on some shortest path from the source;
    ``order`` is ``topo_order(dist)``, the reachable vertices by
    nondecreasing (distance, id): the settle order, and a topological order
    of the DAG.  ``preds[v]`` lists v's in-neighbours in the DAG.
    """

    source: int
    dist: list
    sigma: list
    dag: set
    order: list
    preds: list


@dataclass
class ApspState:
    """Full all-pairs state: distance and exact int path-count matrices,
    one forward DAG per source, optional reverse DAGs, one dependency row
    per source, and the BC vector; ``inexact`` once a count passed 2**53.

    DAGs share their edge tuples: a build holds one ``(a, b)`` object per
    edge and orientation across all ``dags`` and one across all ``rdags``.
    An update keeps every surviving tuple and makes one new tuple per
    updated edge per phase, plus one per R-set edge per head per phase
    (see ``vertex_update.build_r_sets``).

    A full state is the state of ``graph`` plus that of ``graph.reverse()``:
    ``rdags`` are the reversed graph's DAGs, and ``rdist`` and ``rsigma``
    its matrices, the transposes of ``dist`` and ``sigma`` sharing their
    entries (``rdist[t][s]`` is ``dist[s][t]``).  Builders leave the two
    matrices None; the first update of a full state transposes them once,
    and every update keeps both orientations (see ``edge_update._update``).

    ``deltas[s]`` is the ``array('d')`` of the dependency of s on every
    vertex, 0.0 at s itself, as ``accumulate_dependency`` and ``_fold``
    compute it.  ``bc`` is their column sum in source order (see
    ``_column_sum``).  An update keeps the row object of every source whose
    sigma row and DAG are equal in value to the old ones and in whose DAG
    no updated edge reorders its tail's successors by (weight, id), and
    refolds every other row (see ``edge_update._finish``).  ``fwd_edges``
    and ``rev_edges`` are the edge totals of ``dags`` and ``rdags`` (0 in
    edge-fast mode): the builders count them and updates keep them by
    difference.  States are never mutated; rows are shared.
    """

    graph: Graph
    dist: list
    sigma: list
    dags: list
    rdags: list | None
    deltas: list
    bc: list
    counters: WorkCounters
    fwd_edges: int
    rev_edges: int
    inexact: bool = False
    report: UpdateReport | None = None
    rdist: list | None = None
    rsigma: list | None = None

    @property
    def mode(self) -> str:
        return "full" if self.rdags is not None else "edge-fast"


def counting_dijkstra(adj, s: int, counters: WorkCounters, edge: dict) -> SsspResult:
    """Dijkstra from ``s`` over the out-rows ``adj``, with path counting and
    DAG collection: the one counting search both builders run.

    Binary heap with lazy deletion.  Each edge is relaxed exactly once,
    from its settled tail, so predecessor lists are final when collected.
    The DAG's tuples come from ``edge``, the build's table of edge tuples,
    so every DAG of a build shares one tuple per edge.
    """
    n = len(adj)
    dist = [INF] * n
    sigma = [0] * n
    preds = [()] * n
    dist[s] = 0
    sigma[s] = 1
    heap = [(0, s)]
    examined = 0
    while heap:
        du, u = heappop(heap)
        if du > dist[u]:
            continue  # stale entry: u settled at a shorter distance
        su = sigma[u]  # final: every predecessor of u settled earlier
        row = adj[u]
        examined += len(row)
        for v, w in row:
            nd = du + w
            dv = dist[v]
            if nd < dv:
                dist[v] = nd
                sigma[v] = su
                preds[v] = [u]
                heappush(heap, (nd, v))
            elif nd == dv:
                sigma[v] += su
                preds[v].append(u)
    order = topo_order(dist)
    fresh = [(p, v) for v in order for p in preds[v]]
    dag = set(map(edge.setdefault, fresh, fresh))
    counters.edges_examined += examined
    counters.dag_edges_emitted += len(dag)
    return SsspResult(s, dist, sigma, dag, order, preds)


def topo_order(dist_row) -> list:
    """The reachable vertices of a distance row in (distance, id) order.

    That is the order counting Dijkstra settles them in, and, as weights
    are positive, a topological order of every shortest-path DAG on the
    row.  The builders accumulate dependencies in its reverse.
    """
    return sorted([t for t, d in enumerate(dist_row) if d < INF],
                  key=dist_row.__getitem__)


def accumulate_dependency(s: int, order, sigma, preds) -> list:
    """Propagate dependency shares backward through a shortest-path DAG.

    ``order`` must be a topological order of the DAG (processed in
    reverse); ``preds`` maps each vertex to its DAG in-neighbors.  Returns
    the dependency vector of source ``s``, with the entry for ``s`` set to
    0.0.
    """
    delta = [0.0] * len(sigma)
    for w in reversed(order):
        ps = preds[w]
        if ps:
            sw = sigma[w]
            if sw <= 0.0:
                raise ValueError(
                    f"zero path count at vertex {w} despite predecessors: state corrupted")
            coeff = (1.0 + delta[w]) / sw
            for p in ps:
                delta[p] += sigma[p] * coeff
    delta[s] = 0.0
    return delta


def _fold(row, edges, sigma_row) -> None:
    """Add the share ``sigma[a] * ((1.0 + row[b]) / sigma[b])`` of each DAG
    edge (a, b), given as (d(s, b), b, a), into ``row[a]``, by descending
    (distance, id) of b.  Edges out of b have farther heads, so ``row[b]``
    is final when read, and each entry adds its successors' shares in the
    order of ``accumulate_dependency``: from 0.0, the same bits."""
    for _, b, a in sorted(edges, reverse=True):
        row[a] += sigma_row[a] * ((1.0 + row[b]) / sigma_row[b])


def _bc_pass(s: int, dag: set, dist_row, sigma_row) -> array:
    """One source's dependency row: ``_fold`` of all of ``dag`` from 0.0,
    then 0.0 at ``s``; equal inputs give equal bits, whatever the set's
    iteration order.  A DAG edge that does not increase the distance, or
    whose head has no path, means a corrupted state: ValueError."""
    edges = [(dist_row[b], b, a) for a, b in dag]
    for db, b, a in edges:
        if dist_row[a] >= db or sigma_row[b] <= 0.0:
            raise ValueError(f"DAG edge ({a}, {b}) does not increase the distance "
                             "or ends at a zero path count: state corrupted")
    row = array("d", bytes(8 * len(dist_row)))
    _fold(row, edges, sigma_row)
    row[s] = 0.0
    return row


# before Python 3.12, sum() of floats is a plain left fold
_PLAIN_SUM = sys.version_info < (3, 12)


def _column_sum(deltas) -> list:
    """BC from the dependency rows: a left fold from 0.0 per column, in
    source order 0..n-1, so every route adds the same terms in the same
    order.  The 0.0 entries (a row's own source, unreachable vertices) leave
    the bits alone, as BC is never negative.  Before Python 3.12 ``sum()``
    is that fold, at C speed; from 3.12 it compensates float sums and would
    change bits, so there the fold is ``reduce``.
    """
    if _PLAIN_SUM:
        return list(map(sum, zip(*deltas), repeat(0.0)))
    return list(map(reduce, repeat(add), zip(*deltas), repeat(0.0)))


def derive_rdags(g: Graph, dist) -> list:
    """Reverse DAGs read off the distance matrix: (a, b) is in the reverse
    DAG rooted at x iff forward edge (b, a) lies on a shortest b-to-x path.
    Every reverse DAG holding the edge shares one tuple."""
    n = g.n
    rdags = [set() for _ in range(n)]
    for u, v, w in g.edges():
        du = dist[u]
        if du[v] != w:
            continue  # a longer edge than d(u, v) lies on no shortest path
        dv = dist[v]
        edge = (v, u)
        for x in range(n):
            dvx = dv[x]
            if dvx < INF and du[x] == dvx + w:
                rdags[x].add(edge)
    return rdags


def _built(g: Graph, mode: str, dist, sigma, dags, deltas, counters) -> ApspState:
    """The state a build holds: in full mode the reverse DAGs, then BC, both
    edge totals and ``inexact``, read off the rows each builder made."""
    rdags = derive_rdags(g, dist) if mode == "full" else None
    return ApspState(g, dist, sigma, dags, rdags, deltas, _column_sum(deltas), counters,
                     sum(map(len, dags)), sum(map(len, rdags or ())), _exceeds(sigma))


def brandes_bc(g: Graph, mode: str = "edge-fast") -> ApspState:
    """Betweenness centrality by n counting-Dijkstra runs over the whole
    graph, each handing its order and predecessor lists straight to
    ``accumulate_dependency``; BC is the column sum of the dependency rows.
    The order is ``topo_order(dist)``, so each row is bit-identical to the
    one ``_bc_pass`` folds from the stored DAG.  It is the oracle that
    ``dynbc stream --verify`` checks the engine's states against."""
    if mode not in ("edge-fast", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    counters = WorkCounters()
    dist = []
    sigma = []
    dags = []
    deltas = []
    edge = {}
    for s in range(g.n):
        r = counting_dijkstra(g.adj, s, counters, edge)
        dist.append(r.dist)
        sigma.append(r.sigma)
        dags.append(r.dag)
        deltas.append(array("d", accumulate_dependency(s, r.order, r.sigma, r.preds)))
    return _built(g, mode, dist, sigma, dags, deltas, counters)


def static_bc(g: Graph, mode: str = "edge-fast") -> ApspState:
    """Betweenness centrality restricted to shortest-path edges: the
    paper's static algorithm and the engine's builder.

    ``counting_dijkstra`` runs once per source over rows that always hold
    E*(u), the edges on any shortest path out of u.  An edge outside E* is
    longer than the distance between its ends, so from any source it
    reaches its head only by a longer route, whose count and predecessor
    list a shorter one replaces: the search counts the same paths, lists
    the same predecessors and has the same order as over the whole
    graph.  After source s, ``rows[s]`` becomes E*(s) and each later
    in-neighbour t of s drops its edges (t, x, w) with w > w(t, s) + d(s, x),
    charging each row it scans to cut.  So dist, sigma, DAGs, dependency
    rows and ``dag_edges_emitted`` are bit-identical to ``brandes_bc``'s,
    and ``mode`` is as there: both end in ``_built``.
    """
    if mode not in ("edge-fast", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    counters = WorkCounters()
    into = g.radj
    rows = list(g.adj)
    dist = []
    sigma = []
    dags = []
    deltas = []
    edge = {}
    for s in range(g.n):
        r = counting_dijkstra(rows, s, counters, edge)
        drow = r.dist
        dist.append(drow)
        sigma.append(r.sigma)
        dags.append(r.dag)
        deltas.append(array("d", accumulate_dependency(s, r.order, r.sigma, r.preds)))
        counters.edges_examined += len(rows[s])
        rows[s] = [(x, w) for x, w in rows[s] if drow[x] == w]
        for t, wt in into[s]:
            if t > s:
                counters.edges_examined += len(rows[t])
                rows[t] = [(x, w) for x, w in rows[t] if wt + drow[x] >= w]
    return _built(g, mode, dist, sigma, dags, deltas, counters)


@dataclass
class StarStats:
    """Shortest-path edge statistics.

    ``per_vertex[x]`` counts edges on shortest paths through x (edges of
    the forward DAG rooted at x unioned with edges on shortest paths into
    x); ``dag_sizes[x]`` is the plain forward DAG size.
    """

    m_star: int
    m_star_avg: float
    per_vertex: list = field(default_factory=list)
    dag_sizes: list = field(default_factory=list)


def star_stats(state: ApspState) -> StarStats:
    n = state.graph.n
    union = set()
    for dag in state.dags:
        union |= dag
    rdags = state.rdags
    if rdags is None:
        rdags = derive_rdags(state.graph, state.dist)
    per = []
    for x in range(n):
        through = {(b, a) for (a, b) in rdags[x]}
        through |= state.dags[x]
        per.append(len(through))
    return StarStats(
        m_star=len(union),
        m_star_avg=sum(per) / n,
        per_vertex=per,
        dag_sizes=[len(d) for d in state.dags],
    )
