"""Dependency rows recomputed by an update: whichever route a source takes,
the ancestor repair ``_refold`` or the full ``_bc_pass``, its new row is
byte-identical to ``_bc_pass`` over the new DAG, sigma and distances."""

import collections
import random

import pytest

import dynbc.edge_update as edge_update
import dynbc.vertex_update as vertex_update
from dynbc import (
    EdgeUpdate,
    VertexUpdate,
    brandes_bc,
    compare_states,
    gen_graph,
    incremental_bc_edge,
    incremental_bc_vertex,
    parse_graph,
)
from dynbc.apsp import _bc_pass
from helpers import (
    W,
    apply_random_event,
    build,
    count_calls,
    gnp,
    random_mirrored_vertex_update,
    random_vertex_update,
)


def _record_rows(monkeypatch):
    """Patch ``_refold`` to record (source, its row or None, ``_bc_pass``'s
    row, whether only flipped phases seed it) for every row an update
    recomputes."""
    rows = []
    groupings = []  # every heads grouping repair_reverse_dags returned
    real = edge_update._refold
    real_repair = vertex_update.repair_reverse_dags

    def repairing(*args):
        out = real_repair(*args)
        groupings.append(out[-1])
        return out

    def recording(s, dag, frames, old, graph, drow, srow):
        row = real(s, dag, frames, old, graph, drow, srow)
        # which kinds of phase flag a column of s: a flipped phase's frame
        # is the heads grouping its reverse step returned
        flipped = {any(cols is h for h in groupings) for cols in frames if s in cols}
        rows.append((s, row, _bc_pass(s, dag, drow, srow), flipped == {True}))
        return row

    monkeypatch.setattr(edge_update, "_refold", recording)
    monkeypatch.setattr(vertex_update, "repair_reverse_dags", repairing)
    return rows


def _record_routes(monkeypatch):
    """Patch ``_survivors`` where the forward repair (edge_update) and the
    reverse repair (vertex_update) call it, to tally per module the route
    each call takes: a copy less the edges read from the closer heads'
    rows (True), or a filter over the whole DAG (False)."""
    routes = collections.Counter()
    real = edge_update._survivors
    for module in (edge_update, vertex_update):
        def recording(dag, closer, rows, name=module.__name__.split(".")[-1]):
            routes[name, sum(len(rows[b]) for b in closer) < len(dag)] += 1
            return real(dag, closer, rows)
        monkeypatch.setattr(module, "_survivors", recording)
    return routes


def _check(rows):
    for s, row, ref, _ in rows:
        if row is not None:
            assert row.tobytes() == ref.tobytes(), s


@pytest.mark.parametrize("mode", ["edge-fast", "full"])
def test_every_recomputed_row_is_bitwise_a_fresh_pass(monkeypatch, mode):
    rows = _record_rows(monkeypatch)
    routes = _record_routes(monkeypatch)
    rng = random.Random(61)
    for trial in range(9):
        # the last three streams draw whole units, so many detours tie
        unit = W if trial >= 6 else 1
        g = gnp(rng.randrange(30, 45), 0.08, rng.choice([1, 4]),
                seed=rng.randrange(10**6), undirected=trial % 3 == 2)
        st = brandes_bc(g, mode=mode)
        for _ in range(6):
            st = apply_random_event(st, rng, unit) or st
        if mode == "full":
            st = _one_and_two_sided_events(st, random.Random(trial), unit=unit)
        assert compare_states(st, brandes_bc(st.graph, mode=mode), tol=0.0).passed
    _check(rows)
    refolded = sum(row is not None for _, row, _, _ in rows)
    # both routes run on these streams, in full mode also for the sources
    # only a flipped phase seeds
    assert refolded >= 20 and len(rows) - refolded >= 20
    repairs = ["edge_update"] + (["vertex_update"] if mode == "full" else [])
    assert min(routes[name, copy] for name in repairs for copy in (True, False)) >= 5
    if mode == "full":
        flipped = [row is not None for _, row, _, only in rows if only]
        assert min(flipped.count(True), flipped.count(False)) >= 20


def _one_and_two_sided_events(st, rng, rounds=3, unit=1):
    """``st`` after ``rounds`` pairs of vertex events: an outgoing-only one,
    whose flipped phase alone seeds its rows, then a two-sided one.  An
    undirected graph takes only two-sided (mirrored) events, as an edge
    updated on one side lacks its mirror."""
    for one_sided in (True, False) * rounds:
        g = st.graph
        if g.undirected:
            upd = random_mirrored_vertex_update(g, rng, unit=unit)
        else:
            upd = random_vertex_update(g, rng, allow_empty_side=False, unit=unit)
            if one_sided:
                upd = VertexUpdate(upd.v, (), upd.outgoing)
        st = incremental_bc_vertex(st, upd)
    return st


def _ballast(n, edges, length=8):
    """``edges`` plus a chain of ``length`` unit edges out of vertex 0
    through new vertices: source 0's DAG grows and no in-row it reads
    does, so its rows can take the ancestor repair."""
    chain = [0] + list(range(n, n + length))
    return build(n + length, edges + [(a, b, 1) for a, b in zip(chain, chain[1:])])


def _repaired(rows, s):
    got = [row for t, row, _, _ in rows if t == s]
    assert len(got) == 1 and got[0] is not None
    return got[0]


def test_old_predecessor_losing_its_only_successor(monkeypatch):
    # 1 is on every shortest 0 -> 2 path until (3, 2) drops to 0.5; then
    # 1 has no DAG successor, and only the old in-row of 2 reaches it
    g = _ballast(4, [(0, 1, 1), (1, 2, 1), (0, 3, 1), (3, 2, 3)])
    rows = _record_rows(monkeypatch)
    new = incremental_bc_edge(brandes_bc(g), EdgeUpdate(3, 2, W // 2))
    row = _repaired(rows, 0)
    assert row[1] == 0.0 and row[3] == 1.0 and new.deltas[0] is row
    _check(rows)
    assert compare_states(new, brandes_bc(new.graph), tol=0.0).passed


def test_updated_edges_tail(monkeypatch):
    # 5 and 6 share the paths into 1 until (5, 1) drops; 5 then carries
    # all of them and 6 none.  The inserted edge (7, 2) brings 2 closer, so
    # its tail gains a successor that only the new in-row of 2, read under
    # the new distances, shows
    g = _ballast(8, [(0, 5, 1), (5, 1, 3), (0, 6, 1), (6, 1, 3), (1, 3, 1),
                     (0, 2, 2), (0, 7, 1)])
    rows = _record_rows(monkeypatch)
    old = brandes_bc(g)
    mid = incremental_bc_edge(old, EdgeUpdate(5, 1, 2 * W))
    row = _repaired(rows, 0)
    assert (row[5], row[6]) == (2.0, 0.0) and old.deltas[0][5] == 1.0
    rows.clear()
    new = incremental_bc_edge(mid, EdgeUpdate(7, 2, W // 2))
    row = _repaired(rows, 0)
    assert row[7] == 1.0 and mid.deltas[0][7] == 0.0
    _check(rows)
    for state in (mid, new):
        assert compare_states(state, brandes_bc(state.graph), tol=0.0).passed


def test_flipped_phase_columns(monkeypatch):
    # the outgoing phase of vertex 1 brings 2 and 3 closer to 0, which it
    # flags in the reversed graph's rows; there is no incoming side
    g = _ballast(4, [(0, 1, 1), (1, 2, 3), (0, 2, 2), (2, 3, 1)])
    full = brandes_bc(g, mode="full")
    rows = _record_rows(monkeypatch)
    new = incremental_bc_vertex(full, VertexUpdate(1, (), ((2, W // 2),)))
    row = _repaired(rows, 0)
    assert row[1] == 2.0 and full.deltas[0][1] == 0.0
    _check(rows)
    assert compare_states(new, brandes_bc(new.graph, mode="full"), tol=0.0).passed


def test_complete_digraph_takes_the_full_pass(monkeypatch):
    # every in-row holds n - 1 edges, as many as a DAG: each recomputed row
    # falls back before any partial work, and folds its whole DAG
    st = brandes_bc(parse_graph(gen_graph("complete", 9, wmax=100, seed=3)))
    rows = _record_rows(monkeypatch)
    passes = count_calls(monkeypatch, edge_update, "_bc_pass")
    new = incremental_bc_edge(st, EdgeUpdate(2, 5, W // 2))
    assert new.report.accum_sources == len(rows) == len(passes) >= 3
    assert all(row is None for _, row, _, _ in rows)
    assert compare_states(new, brandes_bc(new.graph), tol=0.0).passed
