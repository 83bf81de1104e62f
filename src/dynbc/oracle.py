"""Independent ground truth: exhaustive path enumeration for tiny graphs,
the per-pair classification of an update, and exact state comparison.
Deliberately naive and sharing no code with the update kernel; used only
by tests and the stream verifier.  The other reference, ``brandes_bc``,
lives with the builders in ``apsp``."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

from .apsp import INF, ApspState
from .edge_update import EdgeUpdate
from .graph import Graph

MAX_ENUM_VERTICES = 12


class PairFlag(IntEnum):
    """How one (source, target) pair reacted to an update."""

    UNCHANGED = 0      # same distance, same number of shortest paths
    NUM_CHANGED = 1    # same distance, strictly more shortest paths
    WT_CHANGED = 2     # strictly smaller distance


def classify_pair(s: int, t: int, state: ApspState, upd: EdgeUpdate):
    """New (distance, path count, flag) for one pair after the edge update.

    The detour value d(s,u) + w' + d(v,t) decides the case; pairs the
    updated edge cannot serve (unreachable legs, targets at or before u,
    sources at or after v) fall out as UNCHANGED automatically.
    """
    d = state.dist[s][t]
    sig = state.sigma[s][t]
    dsu = state.dist[s][upd.u]
    dvt = state.dist[upd.v][t]
    if dsu >= INF or dvt >= INF:
        return d, sig, PairFlag.UNCHANGED
    detour = dsu + upd.weight + dvt
    if d < detour:
        return d, sig, PairFlag.UNCHANGED
    add = state.sigma[s][upd.u] * state.sigma[upd.v][t]
    if d == detour:
        return d, sig + add, PairFlag.NUM_CHANGED
    return detour, add, PairFlag.WT_CHANGED


def classify_pair_vertex(s: int, t: int, v: int, state: ApspState, entries):
    """New (distance, path count, flag) for pair (s, t) after the incoming
    edges (u, v) of ``entries``, each given as (u, w'), were updated.

    The detour d'(s, v) + d(v, t) decides the case.  The new distance to v,
    its path count and the count of those paths that end in an updated
    edge are folded here from the entries: a closer candidate replaces both
    counts, a tied one adds to both.  Pair (s, v) is the case t = v, whose
    leg d(v, v) = 0 carries one path.
    """
    dist, sigma = state.dist, state.sigma
    dsv, ssv, via = dist[s][v], sigma[s][v], 0
    for u, w in entries:
        cand = dist[s][u] + w
        if cand < dsv:
            dsv, ssv, via = cand, sigma[s][u], sigma[s][u]
        elif cand == dsv:
            ssv += sigma[s][u]
            via += sigma[s][u]
    d = dist[s][t]
    sig = sigma[s][t]
    dvt = dist[v][t]
    if dsv >= INF or dvt >= INF:
        return d, sig, PairFlag.UNCHANGED
    detour = dsv + dvt
    if d < detour or d == detour and not via:
        return d, sig, PairFlag.UNCHANGED
    if d == detour:
        return d, sig + via * sigma[v][t], PairFlag.NUM_CHANGED
    return detour, ssv * sigma[v][t], PairFlag.WT_CHANGED


def enumerate_paths_bc(g: Graph):
    """Distances, shortest-path counts, and betweenness by enumerating all
    simple paths and summing pair dependencies directly.

    Positive weights make every shortest path simple, so the enumeration
    is exhaustive.  Limited to n <= 12.
    """
    n = g.n
    if n > MAX_ENUM_VERTICES:
        raise ValueError(f"enumeration oracle limited to n <= {MAX_ENUM_VERTICES}")
    dist = [[INF] * n for _ in range(n)]
    sigma = [[0.0] * n for _ in range(n)]
    adj = g.adj

    for s in range(n):
        best = dist[s]
        cnt = sigma[s]
        best[s] = 0
        cnt[s] = 1.0

        def walk(u, wsum, mask):
            for x, w in adj[u]:
                bit = 1 << x
                if mask & bit:
                    continue
                nw = wsum + w
                if nw < best[x]:
                    best[x] = nw
                    cnt[x] = 1.0
                elif nw == best[x]:
                    cnt[x] += 1.0
                walk(x, nw, mask | bit)

        walk(s, 0, 1 << s)

    bc = [0.0] * n
    for s in range(n):
        ds = dist[s]
        ss = sigma[s]
        for t in range(n):
            if t == s or ss[t] == 0.0:
                continue
            dst = ds[t]
            for v in range(n):
                if v == s or v == t:
                    continue
                dsv = ds[v]
                dvt = dist[v][t]
                if dsv < INF and dvt < INF and dsv + dvt == dst:
                    bc[v] += ss[v] * sigma[v][t] / ss[t]
    return dist, sigma, bc


@dataclass
class OracleReport:
    """Outcome of comparing two states entry by entry."""

    max_bc_abs_err: float
    dist_mismatches: int
    sigma_mismatches: int
    dag_mismatches: int
    delta_mismatches: int
    passed: bool


def compare_states(a: ApspState, b: ApspState, tol: float = 1e-9) -> OracleReport:
    """Exact comparison of distance, path-count, DAG and dependency-row
    data; BC compared within an absolute per-vertex tolerance.  Reverse
    DAGs are compared when both states carry them.  An entry of a state's
    ``rdist`` or ``rsigma`` that differs from the transposed entry of its
    own ``dist`` or ``sigma`` counts as a dist or sigma mismatch, so a
    stale mirror fails before a flipped phase reads it.  Dependency rows
    are compared row by row, so a stale reused row fails even at a BC
    tolerance that would hide it."""
    n = a.graph.n
    if n != b.graph.n:
        raise ValueError("dimension mismatch")
    dist_mism = 0
    sigma_mism = 0
    for s in range(n):
        ra, rb = a.dist[s], b.dist[s]
        sa, sb = a.sigma[s], b.sigma[s]
        for t in range(n):
            if ra[t] != rb[t]:
                dist_mism += 1
            if sa[t] != sb[t]:
                sigma_mism += 1
    for x in (a, b):  # a carried mirror must be the transpose of its state
        if x.rdist is not None:
            for t in range(n):
                dist_mism += sum(d != row[t] for d, row in zip(x.rdist[t], x.dist))
                sigma_mism += sum(c != row[t] for c, row in zip(x.rsigma[t], x.sigma))
    dag_mism = sum(1 for s in range(n) if a.dags[s] != b.dags[s])
    if a.rdags is not None and b.rdags is not None:
        dag_mism += sum(1 for s in range(n) if a.rdags[s] != b.rdags[s])
    delta_mism = sum(1 for s in range(n) if a.deltas[s] != b.deltas[s])
    max_err = max(abs(x - y) for x, y in zip(a.bc, b.bc))
    passed = (dist_mism == 0 and sigma_mism == 0 and dag_mism == 0
              and delta_mism == 0 and max_err <= tol)
    return OracleReport(max_err, dist_mism, sigma_mism, dag_mism, delta_mism,
                        passed)
