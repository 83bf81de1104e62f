"""All-pairs shortest-path state: counting Dijkstra, shortest-path DAGs,
dependency accumulation, betweenness centrality, and work counters.

Distances are exact integers with a saturating infinity sentinel; path
counts are doubles, exact up to 2**53 (an ``inexact`` flag trips beyond).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from heapq import heappush, heappop
from operator import add

from .graph import Graph

INF = 2**63 - 1
SIGMA_EXACT_LIMIT = float(2**53)


def transpose(mat):
    return [list(row) for row in zip(*mat)]


@dataclass
class WorkCounters:
    """Tallies of algorithmic work, used to check complexity claims.

    edges_examined counts edge touches by shortest-path and DAG-repair
    scans; pairs_touched counts per-pair reclassification work;
    dag_edges_emitted counts edges written into materialized DAGs.
    Updates charge these in the paper's accounting: a DAG repair costs
    |dag_s| + |dag_v| + k and emits every edge of the repaired DAG even
    when the source's old set is shared untouched, so both counters are
    upper bounds on the Python work.
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

    DAG totals are taken at the checkpoints before, between, and after the
    update phases so work-bound assertions can be formed from real sizes.
    ``accum_sources`` counts the sources whose dependency row was
    recomputed.
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

    def merged(self, later: "UpdateReport") -> "UpdateReport":
        """Combine with the report of an immediately following update."""
        return UpdateReport(
            edges_examined=self.edges_examined + later.edges_examined,
            pairs_touched=self.pairs_touched + later.pairs_touched,
            dag_sum_pre=self.dag_sum_pre,
            dag_sum_mid=max(self.dag_sum_mid, self.dag_sum_post,
                            later.dag_sum_pre, later.dag_sum_mid),
            dag_sum_post=later.dag_sum_post,
            dag_v_pre=self.dag_v_pre,
            dag_v_mid=max(self.dag_v_mid, self.dag_v_post,
                          later.dag_v_pre, later.dag_v_mid),
            dag_v_post=later.dag_v_post,
            r_total=self.r_total + later.r_total,
            rdag_insert_attempts=self.rdag_insert_attempts + later.rdag_insert_attempts,
            rdag_unique_inserts=self.rdag_unique_inserts + later.rdag_unique_inserts,
            accum_sources=self.accum_sources + later.accum_sources,
        )


@dataclass
class SsspResult:
    """One source's shortest-path data.

    ``dag`` holds every edge on some shortest path from the source;
    ``order`` lists reachable vertices in settle order, by nondecreasing
    (distance, id): a topological order of the DAG, equal to
    ``topo_order(dist)``.
    """

    source: int
    dist: list
    sigma: list
    dag: set
    order: list
    inexact: bool = False


@dataclass
class ApspState:
    """Full all-pairs state: distance and path-count matrices, one forward
    DAG per source, optional reverse DAGs, one dependency row per source,
    and the BC vector.

    ``deltas[s]`` is the ``array('d')`` of the dependency of s on every
    vertex, 0.0 at s itself, as ``_bc_pass`` computes it.  ``bc`` is their
    column sum in source order (see ``_column_sum``).  An update keeps the
    row object of every source whose sigma row and DAG are equal in value
    to the old ones and whose distance changes leave every vertex's
    successors in the same order (see ``_same_successor_order``).  States
    are never mutated; rows are shared.
    """

    graph: Graph
    dist: list
    sigma: list
    dags: list
    rdags: list | None
    deltas: list
    bc: list
    counters: WorkCounters
    inexact: bool = False
    report: UpdateReport | None = None

    @property
    def mode(self) -> str:
        return "full" if self.rdags is not None else "edge-fast"

    def dag_sum(self) -> int:
        total = sum(len(d) for d in self.dags)
        if self.rdags is not None:
            total += sum(len(d) for d in self.rdags)
        return total

    def dag_v_size(self, v: int) -> int:
        total = len(self.dags[v])
        if self.rdags is not None:
            total += len(self.rdags[v])
        return total


def counting_dijkstra(g: Graph, s: int, counters: WorkCounters | None = None) -> SsspResult:
    """Dijkstra from ``s`` with path counting and DAG collection.

    Binary heap with lazy deletion.  Each edge is relaxed exactly once,
    from its settled tail, so predecessor lists are final when collected.
    """
    n = g.n
    dist = [INF] * n
    sigma = [0.0] * n
    preds = [()] * n
    settled = [False] * n
    order = []
    dist[s] = 0
    sigma[s] = 1.0
    heap = [(0, s)]
    adj = g.adj
    inexact = False
    examined = 0
    while heap:
        _, u = heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        order.append(u)
        du = dist[u]
        su = sigma[u]
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
                sv = sigma[v] + su
                if sv > SIGMA_EXACT_LIMIT:
                    inexact = True
                sigma[v] = sv
                preds[v].append(u)
    dag = set()
    for v in order:
        for p in preds[v]:
            dag.add((p, v))
    if counters is not None:
        counters.edges_examined += examined
        counters.dag_edges_emitted += len(dag)
    return SsspResult(s, dist, sigma, dag, order, inexact)


def topo_order(dist_row) -> list:
    """The reachable vertices of a distance row in (distance, id) order.

    That is the order counting Dijkstra settles them in, and, as weights
    are positive, a topological order of every shortest-path DAG on the
    row.  Every dependency pass takes its vertices in this order.
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


def _bc_pass(s: int, dag: set, dist_row, sigma_row) -> array:
    """One source's dependency row from a stored DAG: the pass that
    ``brandes_bc`` and every update run.

    Returns an ``array('d')`` holding the dependency of ``s`` on every
    vertex, with the entry for ``s`` set to 0.0.  Reachable vertices are
    taken in ``topo_order(dist_row)``, so each entry sums its DAG
    successors' shares in the same order whatever the set's iteration
    order: the row depends only on the values of ``dag``, ``dist_row`` and
    ``sigma_row``, and equal inputs give a bit-identical row.  That order
    is topological only if every DAG edge strictly increases the distance;
    an edge that does not raises ValueError.
    """
    preds = [[] for _ in dist_row]
    for a, b in dag:
        if dist_row[a] >= dist_row[b]:
            raise ValueError(
                f"DAG edge ({a}, {b}) does not increase the distance: state corrupted")
        preds[b].append(a)
    return array("d", accumulate_dependency(s, topo_order(dist_row), sigma_row, preds))


def _same_successor_order(dag: set, old_drow, new_drow) -> bool:
    """Whether every vertex of ``dag`` has its successors in the same
    (distance, id) order under ``new_drow`` as under ``old_drow``.

    ``_bc_pass`` adds the shares of a vertex's DAG successors in
    descending (distance, id) order, and nothing else in its row depends
    on distances.  So with the DAG and sigma row unchanged, the row is
    bit-identical whenever this holds.  Only a vertex with a successor
    whose distance moved can change its order.
    """
    moved = {t for t, d in enumerate(old_drow) if d != new_drow[t]}
    succ = {a: [] for a, b in dag if b in moved}
    for a, b in dag:
        if a in succ:
            succ[a].append(b)
    for ws in succ.values():
        if len(ws) > 1:
            ws.sort()  # ids break distance ties in both stable sorts below
            if (sorted(ws, key=old_drow.__getitem__)
                    != sorted(ws, key=new_drow.__getitem__)):
                return False
    return True


def _column_sum(deltas) -> list:
    """BC from the dependency rows: one vectorised add per row, in source
    order 0..n-1, so every route adds the same terms in the same order.
    The 0.0 entries (a row's own source, unreachable vertices) leave the
    bits alone, as BC is never negative.  ``sum()`` is avoided on purpose:
    from Python 3.12 it compensates float sums and would change bits.
    """
    bc = [0.0] * len(deltas)
    for row in deltas:
        bc = list(map(add, bc, row))
    return bc


def derive_rdags(g: Graph, dist) -> list:
    """Reverse DAGs read off the distance matrix: (a, b) is in the reverse
    DAG rooted at x iff forward edge (b, a) lies on a shortest b-to-x path."""
    n = g.n
    rdags = [set() for _ in range(n)]
    for u, v, w in g.edges():
        du = dist[u]
        if du[v] != w:
            continue  # a longer edge than d(u, v) lies on no shortest path
        dv = dist[v]
        for x in range(n):
            dvx = dv[x]
            if dvx < INF and du[x] == dvx + w:
                rdags[x].add((v, u))
    return rdags


def brandes_bc(g: Graph, mode: str = "edge-fast") -> ApspState:
    """Betweenness centrality by n counting-Dijkstra runs plus dependency
    accumulation in nonincreasing-distance order; BC is the column sum of
    the dependency rows."""
    if mode not in ("edge-fast", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    n = g.n
    counters = WorkCounters()
    dist = []
    sigma = []
    dags = []
    deltas = []
    inexact = False
    for s in range(n):
        r = counting_dijkstra(g, s, counters)
        inexact |= r.inexact
        dist.append(r.dist)
        sigma.append(r.sigma)
        dags.append(r.dag)
        deltas.append(_bc_pass(s, r.dag, r.dist, r.sigma))
    rdags = derive_rdags(g, dist) if mode == "full" else None
    return ApspState(g, dist, sigma, dags, rdags, deltas, _column_sum(deltas),
                     counters, inexact)


def static_bc(g: Graph, mode: str = "edge-fast") -> ApspState:
    """Betweenness centrality restricted to shortest-path edges.

    Phase 1 finds distances and E*, the edges on any shortest path, by a
    distance-only Dijkstra per source over rows that always hold E*(u):
    after source s, ``rows[s]`` becomes E*(s) and each later in-neighbour
    t of s drops its edges (t, x, w) with w > w(t, s) + d(s, x).  Phase 2
    walks each source's reachable vertices once, in ``topo_order``, and
    scans only their E* rows: every tight edge (u, x) joins the DAG, adds
    u's path count to x's and makes u a predecessor of x.  The same order
    and predecessor lists then feed ``accumulate_dependency``, so sigma,
    DAGs and dependency rows are bit-identical to ``brandes_bc``.  The
    attached report counts phase 2's edge touches: the E* row entries of
    every reachable vertex plus one visit per DAG edge, summed over sources.
    """
    if mode not in ("edge-fast", "full"):
        raise ValueError(f"unknown mode {mode!r}")
    n = g.n
    counters = WorkCounters()
    into = g.reverse().adj
    rows = list(g.adj)
    dist = []
    for s in range(n):
        drow = [INF] * n
        drow[s] = 0
        heap = [(0, s)]
        while heap:
            du, u = heappop(heap)
            if du > drow[u]:
                continue  # stale entry: u settled at a shorter distance
            row = rows[u]
            counters.edges_examined += len(row)
            for v, w in row:
                nd = du + w
                if nd < drow[v]:
                    drow[v] = nd
                    heappush(heap, (nd, v))
        dist.append(drow)
        counters.edges_examined += len(rows[s])
        rows[s] = [(x, w) for x, w in rows[s] if drow[x] == w]
        for t, wt in into[s]:
            if t > s:
                counters.edges_examined += len(rows[t])
                rows[t] = [(x, w) for x, w in rows[t] if wt + drow[x] >= w]

    inexact = False
    sigma = []
    dags = []
    deltas = []
    rebuild_scans = 0
    for s in range(n):
        drow = dist[s]
        order = topo_order(drow)
        srow = [0.0] * n
        srow[s] = 1.0
        preds = [[] for _ in range(n)]
        dag = set()
        for u in order:
            du = drow[u]
            su = srow[u]  # final: every predecessor of u came earlier
            row = rows[u]
            rebuild_scans += len(row)
            for x, w in row:
                if du + w == drow[x]:
                    dag.add((u, x))
                    srow[x] += su
                    preds[x].append(u)
        rebuild_scans += len(dag)  # accumulation visits each DAG edge once
        counters.dag_edges_emitted += len(dag)
        # counts only grow, so a sum passed 2**53 iff a final count is above it
        inexact |= max(srow) > SIGMA_EXACT_LIMIT
        deltas.append(array("d", accumulate_dependency(s, order, srow, preds)))
        sigma.append(srow)
        dags.append(dag)
    counters.edges_examined += rebuild_scans

    rdags = derive_rdags(g, dist) if mode == "full" else None
    state = ApspState(g, dist, sigma, dags, rdags, deltas, _column_sum(deltas),
                      counters, inexact)
    state.report = UpdateReport(edges_examined=rebuild_scans)
    return state


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
