"""Incremental updates: the phase kernel, the one update routine, and the
edge update.

A phase updates a batch of incoming edges of one vertex v.  Its pair scan,
``classify_pairs``, is the one place that decides which sources the phase
changes, by two triangle bounds (proved there); every later step reads its
list: ``update_dag`` repairs the forward DAG of each scanned source, and in
full mode ``vertex_update.repair_reverse_dags`` the reverse DAG of each
target with a changed pair.  Every update is a list of phases, its only
description: ``_update`` alone derives, checks and applies its edges from
it, on a graph built once, then runs one BC pass in ``_finish``.  A directed
edge update (u, v) is one phase at v with the entry (u, w'); an undirected
one adds the twin's phase at u; a vertex update (``vertex_update``) is its
incoming phase plus its outgoing one, flipped: an incoming phase of the
reversed graph.  Every other source keeps its rows and DAG as the same
objects, and ``_finish`` reads only the repaired ones: it refolds the
dependency rows of those whose sigma row or DAG changed in value, or in
whose DAG an updated edge reorders its tail's successors by weight, with
one fold, ``apsp._fold``, over the DAG ancestors of what changed or over
the whole DAG, whichever reads less.  It sums the rows into BC in source
order, so BC stays bit-identical to a fresh build.  Updates are strict
weight decreases or insertions (treated as decreases from infinity);
increases and deletions are out of scope.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import add, is_not, itemgetter, le

from .apsp import (
    INF,
    ApspState,
    UpdateReport,
    _bc_pass,
    _column_sum,
    _exceeds,
    _fold,
)
from .graph import Graph, GraphFormatError


class UpdateError(ValueError):
    """Invalid incremental update."""


@dataclass(frozen=True)
class EdgeUpdate:
    """Set edge (u, v) to ``weight`` (scaled); must strictly decrease an
    existing weight, or insert a missing edge."""

    u: int
    v: int
    weight: int


@dataclass
class FlagMatrix:
    """Post-update per-pair data: new distances, new path counts, and the
    ascending targets t with w' + d(v, t) <= d(u, t) for an entry with
    w' <= d(u, v), the only columns a source can flag (``classify_pairs``);
    ``changed`` maps each scanned source, ascending, to its ascending
    flagged columns, v among them, and ``closer`` to those that got closer;
    ``live`` holds (u, w', (u, v)) for each of those entries, the one edge
    tuple every repaired DAG of the phase admits."""

    dist: list
    sigma: list
    changed: dict
    closer: dict
    targets: list
    live: tuple = ()


def _updated_graph(g: Graph, phases) -> tuple:
    """``(g_new, changes)``: the update's edges, (u, x, w') for each entry
    (u, w') of a phase at x, or (x, u, w') if it is flipped, and the graph
    with them set, derived and checked once, before any state work.
    ``Graph.with_updates`` checks each change and, on an undirected graph,
    its mirror; the rules a graph cannot know are checked here, in this
    order: per phase, x in range and no endpoint twice (only a phase of two
    or more entries is scanned), then every weight a strict decrease.  With
    no endpoint repeated, each change names its own edge, so one read of
    the old graph gives its old weight."""
    changes = [(x, u, w) if flipped else (u, x, w)
               for x, entries, flipped in phases for u, w in entries]
    try:
        g_new = g.with_updates(changes)
    except GraphFormatError as exc:
        raise UpdateError(str(exc)) from None
    for x, entries, _ in phases:
        if not 0 <= x < g.n:
            raise UpdateError(f"updated vertex out of range: {x}")
        if len(entries) > 1:
            seen = set()
            for u, _ in entries:
                if u in seen:
                    raise UpdateError(f"duplicate endpoint {u} in vertex update")
                seen.add(u)
    for a, b, w in changes:
        old = g.weight(a, b)
        if old is not None and w >= old:
            raise UpdateError(f"update must strictly decrease the weight of ({a}, {b})")
    return g_new, changes


def _dist_to_v(s, v, entries, dist, sigma):
    """Fold the updated incoming edges into (d', sigma', sigma_hat) for one
    source.  A strictly better candidate replaces the count and clears the
    via-updates tally; an equal one accumulates both (INF + w' never counts)."""
    drow = dist[s]
    srow = sigma[s]
    currdist = drow[v]
    sig = srow[v]
    sig_hat = 0
    for u, w in entries:
        cand = drow[u] + w
        if cand == currdist:
            sig += srow[u]
            sig_hat += srow[u]
        elif cand < currdist:
            currdist = cand
            sig = srow[u]
            sig_hat = 0
    return currdist, sig, sig_hat


def _within(a, w, b):
    """The indices i with a[i] + w <= b[i], ascending, at C speed."""
    return compress(count(), map(le, map(add, a, repeat(w)), b))


def classify_pairs(dist, sigma, v, entries):
    """Classify every pair after the incoming edges of ``v`` in ``entries``
    were updated; returns the flag matrix.

    This scan alone decides which sources a phase changes: s is scanned
    when some entry (u, w') has d(s, u) + w' <= d(s, v) (INF + w' beats no
    distance); otherwise no detour through v can reach any old distance.
    Only an entry with w' <= d(u, v) can scan s, as d(s, u) + w' <= d(s, v)
    <= d(s, u) + d(u, v), so a phase with none returns its input lists
    uncopied.  Pair (s, t) can change only if w' + d(v, t) <= d(u, t) for
    such an entry, as d(s, u) + w' + d(v, t) <= d(s, t) <= d(s, u) + d(u, t),
    so a scanned source visits only these targets, which hold v.  Only the
    scanned sources get the distance-to-v fold, which gives pair (s, v),
    and lists of flagged columns; the others share their dist and sigma
    rows with the input.  A scanned source whose d(s, v) kept its value
    shares its dist row too, as then no pair of it gets closer.
    """
    live = [(u, w) for u, w in entries if w <= dist[u][v]]
    if not live:
        return FlagMatrix(dist, sigma, {}, {}, [])
    new_dist = list(dist)
    new_sigma = list(sigma)
    changed, closer = {}, {}
    dv_row = dist[v]
    sv_row = sigma[v]
    scanned = sorted(set().union(*[
        _within(map(itemgetter(u), dist), w, map(itemgetter(v), dist)) for u, w in live]))
    targets = sorted(set().union(*[_within(dv_row, w, dist[u]) for u, w in live]))
    for s in scanned:
        dv2, sv2, shat2 = _dist_to_v(s, v, live, dist, sigma)
        drow = dist[s]
        srow = sigma[s]
        if dv2 < drow[v]:
            mult = sv2
            ndrow = new_dist[s] = drow[:]
        else:  # d(s, v) + d(v, t) >= d(s, t): no pair gets closer
            mult, ndrow = shat2, drow
        nsrow = new_sigma[s] = srow[:]
        ch = changed[s] = []
        cl = closer[s] = []
        for t in targets:
            detour = dv2 + dv_row[t]
            dst = drow[t]
            if dst < detour:
                continue
            ch.append(t)
            if dst == detour:
                nsrow[t] = srow[t] + mult * sv_row[t]
            else:
                ndrow[t] = detour
                nsrow[t] = sv2 * sv_row[t]
                cl.append(t)
    return FlagMatrix(new_dist, new_sigma, changed, closer, targets,
                      tuple((u, w, (u, v)) for u, w in live))


def _survivors(dag: set, closer, rows) -> set:
    """The edges (a, b) of ``dag`` whose head b is not in ``closer``, as a
    new set.  ``rows[b]`` lists an (a, w) for every a an edge (a, b) of
    ``dag`` can come from, so while those rows hold fewer entries than
    ``dag`` it is copied less their edges; otherwise it is filtered."""
    if sum(len(rows[b]) for b in closer) < len(dag):
        return dag - {(a, b) for b in closer for a, _ in rows[b]}
    gone = set(closer)
    return {edge for edge in dag if edge[1] not in gone}


def update_dag(s: int, v: int, flags: FlagMatrix, dag_s: set, into_v: dict, radj) -> set:
    """Repair the shortest-path DAG rooted at a source ``s`` that
    ``classify_pairs`` scanned (a key of ``flags.changed``) after incoming
    edges of ``v`` were updated; ``into_v`` maps each of ``flags.targets``,
    in order, to its in-edges in the DAG rooted at v, and ``radj`` holds
    the in-rows of the updated graph.

    Edges of the old DAG survive when their target pair kept its distance;
    edges of the DAG rooted at v join when the target pair gained paths or
    got closer, ``flags.changed[s]``.  ``_survivors`` drops the in-edges
    of those that got closer, ``flags.closer[s]``, read from their in-rows
    where that is cheaper.  An updated edge (u, v) in the old DAG never
    survives: d'(s, v) <= d(s, u) + w' < d(s, v), so pair (s, v) got
    closer.  Updated edges are admitted under the new distances: (u, v)
    joins when d'(s, u) + w' = d'(s, v), as the tuple in ``flags.live``.
    An entry with w' > d(u, v) never joins, as d'(s, v) <= d'(s, u) +
    d(u, v), so the live entries are all that can.
    ``_update`` charges the repairs of a phase.
    """
    h = _survivors(dag_s, flags.closer[s], radj)
    h.update(*map(into_v.__getitem__, flags.changed[s]))
    ndrow = flags.dist[s]
    dv2 = ndrow[v]
    for u, w, edge in flags.live:
        if ndrow[u] + w == dv2:
            h.add(edge)
    return h


def _reorders(a: int, dag: set, old_row, new_row) -> bool:
    """Whether the successors of ``a`` in ``dag`` change their (weight, id)
    order from the adjacency row ``old_row`` of a to ``new_row``; both are
    in id order, so a stable sort by weight breaks ties by id."""
    old_w, new_w = dict(old_row), dict(new_row)
    succ = [b for b in new_w if (a, b) in dag]
    return sorted(succ, key=old_w.__getitem__) != sorted(succ, key=new_w.__getitem__)


def _refold(s: int, dag: set, frames, old: ApspState, graph: Graph, drow,
            srow):
    """Source ``s``'s new dependency row: ``old``'s row, refolded only over
    the new-DAG ancestors of what changed, or None once the in-row entries
    read reach ``len(dag)``, where ``_bc_pass`` is cheaper.

    An entry depends only on its sigma and on the (distance, id) order,
    sigma and entry of each DAG successor.  Distances only fall, so a DAG
    loses an edge (a, b) only when b got closer, and gains one only into a
    b that gained paths or got closer; an updated edge in the old DAG
    always loses its head.  So an entry can change only if it is a new-DAG
    ancestor of a column some phase in ``frames`` flagged (listed under s
    in that phase's mapping), or of an old-DAG predecessor of one that got
    closer (read from the old graph's in-row under the old distances).
    Those entries restart from 0.0, and one ``_fold`` of their new-DAG
    out-edges over the old row, whose other entries are final, recomputes
    them bit for bit.
    """
    seen = set()
    for cols in frames:
        seen.update(cols.get(s, ()))
    odrow, radj = old.dist[s], graph.radj
    stack = list(seen)
    reads = 0
    while stack:
        b = stack.pop()
        db, ob = drow[b], odrow[b]
        old_in = old.graph.radj[b] if db < ob else ()
        reads += len(radj[b]) + len(old_in)
        if reads >= len(dag):
            return None
        for row, d, dt in ((radj[b], drow, db), (old_in, odrow, ob)):
            for a, w in row:
                if d[a] + w == dt and a not in seen:
                    seen.add(a)
                    stack.append(a)
    seen.discard(s)
    new = array("d", old.deltas[s])
    for x in seen:
        new[x] = 0.0
    adj = graph.adj
    _fold(new, [(drow[x] + w, b, x) for x in seen for b, w in adj[x]
                if drow[x] + w == drow[b]], srow)
    return new


def _finish(old: ApspState, graph: Graph, dist, sigma, dags, changes, frames) -> tuple:
    """Tail of ``_update``: refresh the dependency rows and sum them into
    BC; returns ``(deltas, bc, inexact, refolded)``, where ``refolded``
    counts the recomputed rows.  ``changes`` lists the updated edges as
    (a, b, w'), and ``frames`` holds, for each phase, its flagged columns
    by source (see ``_update``).

    A source's row is a function of the values of its DAG and sigma row
    and of the order of each vertex's DAG successors by (distance, id)
    (see ``_fold``).  Along a DAG edge (a, b), d(s, b) - d(s, a) =
    w(a, b), so that order is a's successors by (weight, id), and only the
    edges of ``changes`` changed weight.  Every repair makes a new
    DAG set, and a source whose sigma row changed or whose DAG holds an
    updated edge has a flagged pair, so it is repaired: a DAG that is still
    the object in ``old`` keeps its row unread, and if ``dags`` is
    ``old.dags``, every row and BC are kept at once, with no edge listed.
    A repaired source keeps its row when its DAG and sigma row equal the
    old ones in value and the tail a of every updated edge (a, b) in the
    DAG keeps its successor order from ``old.graph``'s row of a to
    ``graph``'s.  Every other repaired source refolds its row by
    ``_refold``, or by ``_bc_pass`` where that is cheaper.  BC is then the
    column sum of the rows in source order, as in a fresh build; with no
    row recomputed that is ``old.bc``.  ``inexact`` holds if it holds for
    ``old`` or a repaired sigma row (the others are ``old``'s) passed 2**53.
    """
    deltas, inexact, refolded = old.deltas, old.inexact, 0
    if dags is not old.dags:
        updated = {(a, b) for a, b, _ in changes}
        deltas = list(deltas)
        inexact = inexact or _exceeds(compress(sigma, map(is_not, dags, old.dags)))
        for s, dag in compress(enumerate(dags), map(is_not, dags, old.dags)):
            if sigma[s] == old.sigma[s] and dag == old.dags[s] and not any(
                    _reorders(a, dag, old.graph.adj[a], graph.adj[a])
                    for a in {a for a, _ in dag & updated}):
                continue
            row = _refold(s, dag, frames, old, graph, dist[s], sigma[s])
            deltas[s] = _bc_pass(s, dag, dist[s], sigma[s]) if row is None else row
            refolded += 1
    bc = _column_sum(deltas) if refolded else old.bc
    return deltas, bc, inexact, refolded


def _at(dags, rdags, x):
    """Edges in the DAGs rooted at ``x``: forward plus, in full mode, reverse."""
    return len(dags[x]) + (len(rdags[x]) if rdags is not None else 0)


def _update(state: ApspState, phases) -> ApspState:
    """Run the update ``phases`` describe: derive and check its edges and
    graph once (``_updated_graph``), run every phase (x, entries, flipped)
    in order, then ``_finish`` once, then the state, once its report is full.

    A phase applies the updated incoming edges (u, x) of ``entries``; a
    flipped phase applies the outgoing edges (x, u) as incoming edges of x
    in the reversed graph.  ``g_new`` holds every updated edge.  Phases
    stay exact on it: a phase reads the graph's weights only in the R sets
    of the heads it scanned, never in row x, where the other phases' edges
    at x sit.
    Every phase runs ``classify_pairs`` and the forward repair of the DAG
    of every source it scanned; every other source keeps its DAG object.
    On full states ``vertex_update.repair_reverse_dags`` then repairs the
    reverse DAGs and mirrors the changed pairs into ``rdist`` and
    ``rsigma``, the reversed graph's matrices, which a full state carries
    (transposed once, for a state fresh from a builder).  So a flipped
    phase swaps the matrices, DAGs and edge totals of the two orientations,
    runs the same body on ``g_new.reverse()``, and swaps back; no phase
    transposes.  The steps return what they did, and only this function
    writes the update's ``WorkCounters`` and ``UpdateReport``: every charge
    (the paper's, once per phase) and tally reads the edge totals of the
    two DAG families, which the state carries, kept by difference.
    """
    g_new, changes = _updated_graph(state.graph, phases)
    counters = state.counters.copy()
    report = UpdateReport()
    dist, sigma, dags, rdags = state.dist, state.sigma, state.dags, state.rdags
    rdist, rsigma, fwd, rev = state.rdist, state.rsigma, state.fwd_edges, state.rev_edges
    if rdags is not None and rdist is None:  # a built full state, mirrored once
        rdist, rsigma = map(vertex_update.transpose, (dist, sigma))
    report.dag_sum_pre, report.dag_v_pre = fwd + rev, _at(dags, rdags, phases[0][0])
    # perfbench's traced run fails when a boundary its mode uses reads 0:
    # classify_pairs resolves here in both modes, the forward repair here
    # on edge-fast states and as vertex_update.update_dag_vertex on full ones
    repair = update_dag if rdags is None else vertex_update.update_dag_vertex
    last = phases[-1][0]
    frames = []
    for i, (x, entries, flipped) in enumerate(phases):
        if entries:
            g = g_new
            if flipped:
                g = g_new.reverse()
                (dist, sigma, dags, fwd), (rdist, rsigma, rdags, rev) = (
                    (rdist, rsigma, rdags, rev), (dist, sigma, dags, fwd))
            fm = classify_pairs(dist, sigma, x, entries)
            dag_x = dags[x]
            counters.pairs_touched += g.n * g.n
            counters.edges_examined += fwd + g.n * (len(dag_x) + len(entries))
            if fm.changed:  # dag_x's in-edges of each target, grouped once
                dags, into_x = list(dags), {t: [] for t in fm.targets}
                for edge in dag_x:
                    if edge[1] in into_x:
                        into_x[edge[1]].append(edge)
            for s in fm.changed:
                old = dags[s]
                dags[s] = repair(s, x, fm, old, into_x, g.radj)
                fwd += len(dags[s]) - len(old)
            if rdags is not None:
                # the paper's n * k distance-to-v table, the R-set scan of every
                # other row reaching x (both read only scanned rows), and every
                # reverse DAG's edges
                counters.edges_examined += g.n * len(entries) + rev + sum(
                    len(row) for t, row in enumerate(g.adj) if t != x and fm.dist[t][x] < INF)
                rdist, rsigma, rdags, rev, attempts, heads = vertex_update.repair_reverse_dags(
                    g, fm, rdist, rsigma, rdags, rev, x)
                # the union of every vertex's R set, which is the reverse DAG rooted at x
                report.r_total += len(rdags[x])
                report.rdag_insert_attempts += attempts
                report.rdag_unique_inserts += rev
            counters.dag_edges_emitted += fwd + rev
            frames.append(heads if flipped else fm.changed)
            dist, sigma = fm.dist, fm.sigma
            if flipped:
                (dist, sigma, dags, fwd), (rdist, rsigma, rdags, rev) = (
                    (rdist, rsigma, rdags, rev), (dist, sigma, dags, fwd))
        if i == 0:  # before the second phase, or after a one-phase update
            report.dag_sum_mid, report.dag_v_mid = fwd + rev, _at(dags, rdags, last)
    deltas, bc, inexact, report.accum_sources = _finish(
        state, g_new, dist, sigma, dags, changes, frames)
    report.dag_sum_post, report.dag_v_post = fwd + rev, _at(dags, rdags, last)
    report.edges_examined = counters.edges_examined - state.counters.edges_examined
    report.pairs_touched = counters.pairs_touched - state.counters.pairs_touched
    return ApspState(g_new, dist, sigma, dags, rdags, deltas, bc, counters, fwd,
                     rev, inexact, report, rdist, rsigma)


def incremental_bc_edge(state: ApspState, upd: EdgeUpdate) -> ApspState:
    """Apply one incremental edge update and return the post-update state.

    A directed update is one phase at v.  On an undirected state the
    update sets both twins (u, v) and (v, u): one phase at v, then one at
    u, on a graph built once, with one BC pass.  Full-mode states run the
    same phases with the reverse-DAG repair.
    """
    u, v, w = upd.u, upd.v, upd.weight
    phases = [(v, ((u, w),), False)]
    if state.graph.undirected:
        phases.append((u, ((v, w),), False))
    return _update(state, phases)


# the full-mode step lives in vertex_update, which imports this module
from . import vertex_update  # noqa: E402
