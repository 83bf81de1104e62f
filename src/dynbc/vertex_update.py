"""Incremental vertex update: batch weight decreases / insertions on edges
incident to one vertex, and the full-mode reverse-DAG step.

A vertex update is two phases of ``edge_update._update``: the incoming
updates, then the outgoing ones, which are the incoming updates of the
same vertex in the reversed graph, whose DAGs and matrices a full state
carries (``transpose`` makes the matrices once, on a state fresh from a
builder).  On a full state every phase, edge updates' too, is the
edge-fast phase plus one step, ``repair_reverse_dags``.  It inverts the
pair scan's two lists, ``FlagMatrix.changed`` and ``.closer``, into the
heads of each target (the sources with a changed pair into it) and those
of them that got closer; these drive the repair of its reverse DAG from
the heads' R sets (each head's reversed shortest-path edges into v) and
the mirror of its changed pairs into the reversed graph's matrices, and
in a flipped phase the heads seed ``_refold``.  An event passes only
its two phases; ``_update`` derives its edges from them and builds the
graph once, and every phase reads it, a flipped one reversed.  The pair
scan's per-pair reference, ``classify_pair_vertex``, is in ``oracle``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .apsp import ApspState
from .edge_update import (
    FlagMatrix,
    UpdateError,
    _survivors,
    _update,
    update_dag as update_dag_vertex,
)
from .graph import Graph


def transpose(mat):
    return [list(row) for row in zip(*mat)]


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


def build_r_sets(graph: Graph, dist: list, v: int, heads: list) -> dict:
    """The R set of each head b in ``heads``: the reversed edges (a, b)
    that start a shortest path to v, w(b, a) + d(a, v) = d(b, v).

    ``dist`` must already reflect the updated graph.  Then d(b, a) =
    w(b, a), as d(b, v) <= d(b, a) + d(a, v), so (b, a) is in the DAG
    rooted at b.  Only the out-rows of ``heads`` are read.
    """
    r_sets = {}
    for b in heads:
        dbv = dist[b][v]
        r_sets[b] = {(a, b) for a, w in graph.adj[b] if w + dist[a][v] == dbv}
    return r_sets


def repair_reverse_dags(g: Graph, fm: FlagMatrix, rdist: list, rsigma: list,
                        rdags: list, rev: int, v: int) -> tuple:
    """The full-mode step of a phase at ``v`` on graph ``g``: for every
    target t with a changed pair, whose heads b list t in ``fm.changed``,
    repair the reverse DAG rooted at t, keeping the edges (a, b) of the
    heads that do not list t in ``fm.closer`` (``_survivors``) and adding
    every head's R set, and mirror the new pairs (b, t) into row t of the
    transposed matrices ``rsigma`` and, for the closer heads only (a tied
    head keeps its distance), ``rdist``, whose entries are never read
    here.  Other targets keep their row objects, and so does the rdist
    row of a t with no closer head, as ``classify_pairs`` keeps dist rows.
    Returns the three lists, the new edge total of ``rdags``, kept by
    difference from ``rev``, the edges offered to the reverse DAGs (a kept
    one's; a repaired one's survivors, then its heads' R sets), and the
    ascending heads of each target t, which in a flipped phase are the
    flagged columns of forward source t."""
    r_sets = build_r_sets(g, fm.dist, v, fm.changed)
    heads, closer = {}, {}
    for b, cols in fm.changed.items():
        for t in cols:
            heads.setdefault(t, []).append(b)
        for t in fm.closer[b]:
            closer.setdefault(t, []).append(b)
    rsigma, new_rdags = (list(rsigma), list(rdags)) if heads else (rsigma, rdags)
    attempts = rev
    for t, hs in heads.items():
        rdag = new_rdags[t] = _survivors(rdags[t], closer.get(t, ()), g.adj)
        attempts += len(rdag) - len(rdags[t])
        srow = rsigma[t] = rsigma[t][:]
        for b in hs:
            attempts += len(r_sets[b])
            rdag |= r_sets[b]
            srow[b] = fm.sigma[b][t]
        rev += len(rdag) - len(rdags[t])
    if closer:
        rdist = list(rdist)
        for t, bs in closer.items():
            drow = rdist[t] = rdist[t][:]
            for b in bs:
                drow[b] = fm.dist[b][t]
    return rdist, rsigma, new_rdags, rev, attempts, heads


def incremental_bc_vertex(state: ApspState, upd: VertexUpdate) -> ApspState:
    """Apply a vertex update and return the post-update state.

    After the mode check, the update is two phases of ``_update``: the
    incoming entries, then the outgoing ones as a flipped phase.  The R
    sets of both phases read only the rows of scanned heads, never row v,
    where the other side's updates sit.  BC is re-accumulated once, from
    the final DAGs and path counts.
    """
    if state.rdags is None:
        raise UpdateError("vertex updates require a state built in 'full' mode")
    return _update(state, [(upd.v, upd.incoming, False), (upd.v, upd.outgoing, True)])
