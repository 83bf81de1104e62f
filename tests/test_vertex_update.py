import copy
import random

import pytest

import dynbc.apsp as apsp
import dynbc.edge_update as edge_update
import dynbc.vertex_update as vertex_update
from dynbc import (
    DIST_LIMIT,
    EdgeUpdate,
    Graph,
    PairFlag,
    UpdateError,
    VertexUpdate,
    brandes_bc,
    build_r_sets,
    classify_pair,
    classify_pair_vertex,
    classify_pairs,
    compare_states,
    compute_dist_to_v,
    derive_rdags,
    incremental_bc_edge,
    incremental_bc_vertex,
    update_dag,
    update_dag_vertex,
    update_reverse_dag,
)
from dynbc.apsp import INF, WorkCounters
from dynbc.edge_update import FlagMatrix
from helpers import (
    W,
    build,
    diamond,
    g1,
    gnp,
    random_edge_update,
    random_vertex_update,
)


def test_dist_to_v_replace_then_ignore():
    st = brandes_bc(g1(), mode="full")
    entry = compute_dist_to_v(0, 3, ((1, 3 * W), (0, 3 * W + W // 2)), st)
    assert entry.dist == 3 * W + W // 2
    assert entry.sigma == 1.0
    assert entry.sigma_via_updates == 0.0


def test_dist_to_v_accumulates_tied_entry():
    st = brandes_bc(g1(), mode="full")
    entry = compute_dist_to_v(0, 3, ((1, 3 * W),), st)
    assert entry.dist == 4 * W
    assert entry.sigma == 3.0
    assert entry.sigma_via_updates == 1.0


def test_dist_to_v_empty_is_identity():
    st = brandes_bc(g1(), mode="full")
    entry = compute_dist_to_v(0, 3, (), st)
    assert entry.dist == st.dist[0][3]
    assert entry.sigma == st.sigma[0][3]
    assert entry.sigma_via_updates == 0.0


def test_single_entry_classification_reduces_to_edge_case():
    rng = random.Random(4)
    trials = 0
    for _ in range(40):
        n = rng.choice([5, 8, 11])
        g = gnp(n, rng.choice([0.3, 0.6]), rng.choice([1, 4, 25]),
                seed=rng.randrange(10**6))
        decr = [(u, v, w) for u, v, w in g.edges() if w > 1]
        if decr and rng.random() < 0.7:
            u, v, w = decr[rng.randrange(len(decr))]
            upd = EdgeUpdate(u, v, rng.randint(1, w - 1))
        else:
            upd = None
            for _ in range(200):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v and g.weight(u, v) is None:
                    upd = EdgeUpdate(u, v, rng.randint(1, 25 * W))
                    break
            if upd is None:
                continue
        trials += 1
        st = brandes_bc(g, mode="full")
        entry = compute_dist_to_v(0, upd.v, ((upd.u, upd.weight),), st)
        for s in range(n):
            entry = compute_dist_to_v(s, upd.v, ((upd.u, upd.weight),), st)
            for t in range(n):
                expect = classify_pair(s, t, st, upd)
                if t == upd.v:
                    flag = PairFlag.UNCHANGED
                    if entry.dist < st.dist[s][t]:
                        flag = PairFlag.WT_CHANGED
                    elif entry.sigma > st.sigma[s][t]:
                        flag = PairFlag.NUM_CHANGED
                    got = (entry.dist, entry.sigma, flag)
                else:
                    got = classify_pair_vertex(s, t, upd.v, st, entry)
                assert got == expect
    assert trials >= 20


def test_classified_pair_toward_updated_vertex():
    st = brandes_bc(g1(), mode="full")
    entry = compute_dist_to_v(0, 3, ((1, 3 * W),), st)
    assert (entry.dist, entry.sigma) == (4 * W, 3.0)


def test_classify_pair_vertex_unreachable_stays_unchanged():
    g = build(3, [(0, 1, 1)])
    st = brandes_bc(g, mode="full")
    entry = compute_dist_to_v(2, 1, ((0, W // 2),), st)
    d, sig, flag = classify_pair_vertex(2, 0, 1, st, entry)
    assert flag is PairFlag.UNCHANGED and d == INF and sig == 0.0


def test_update_dag_vertex_batch_rebuild():
    st = brandes_bc(g1(), mode="full")
    entries = ((1, 3 * W), (0, 3 * W + W // 2))
    flags = _flags_for(st, 3, entries)
    h = update_dag_vertex(0, 3, entries, flags, st.dags[0], st.dags[3])
    assert h == {(0, 1), (0, 2), (0, 3)}


def _flags_for(st, v, entries):
    n = st.graph.n
    new_dist = [row[:] for row in st.dist]
    new_sigma = [row[:] for row in st.sigma]
    flags = [bytearray(n) for _ in range(n)]
    for s in range(n):
        entry = compute_dist_to_v(s, v, entries, st)
        if entry.dist < st.dist[s][v]:
            flags[s][v] = 2
        elif entry.sigma > st.sigma[s][v]:
            flags[s][v] = 1
        new_dist[s][v] = entry.dist
        new_sigma[s][v] = entry.sigma
        for t in range(n):
            if t == v:
                continue
            d, sig, fl = classify_pair_vertex(s, t, v, st, entry)
            new_dist[s][t] = d
            new_sigma[s][t] = sig
            flags[s][t] = int(fl)
    return FlagMatrix(new_dist, new_sigma, flags)


def test_update_dag_vertex_singleton_matches_edge_repair():
    rng = random.Random(19)
    for _ in range(10):
        g = gnp(8, 0.5, rng.choice([1, 9]), seed=rng.randrange(10**6))
        decr = [(u, v, w) for u, v, w in g.edges() if w > 1]
        if not decr:
            continue
        u, v, w = decr[rng.randrange(len(decr))]
        upd = EdgeUpdate(u, v, rng.randint(1, w - 1))
        st = brandes_bc(g, mode="full")
        fm, _ = classify_pairs(st, upd, WorkCounters())
        entries = ((u, upd.weight),)
        for s in range(g.n):
            a = update_dag(s, upd, fm, st.dags[s], st.dags[v])
            b = update_dag_vertex(s, v, entries, fm, st.dags[s], st.dags[v])
            assert a == b


def test_update_dag_vertex_identity_when_unchanged():
    g = build(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 3, 5)])
    st = brandes_bc(g, mode="full")
    entries = ((0, 3 * W),)
    flags = _flags_for(st, 3, entries)
    assert all(not any(row) for row in flags.flags)
    for s in range(4):
        h = update_dag_vertex(s, 3, entries, flags, st.dags[s], st.dags[3])
        assert h == st.dags[s]


def test_r_sets_on_updated_diamond():
    st = brandes_bc(diamond(), mode="full")
    entries = ((1, W // 2),)
    flags = _flags_for(st, 3, entries)
    g_new = st.graph.with_updates([(1, 3, W // 2)])
    r_sets = build_r_sets(g_new, flags.dist, 3)
    assert r_sets[1] == {(3, 1)}
    assert r_sets[3] == set()
    # vertex 2's direct edge is still tight, so it contributes its own R entry
    assert r_sets[2] == {(3, 2)}


def test_r_sets_unreachable_vertex_is_empty():
    g = build(3, [(0, 1, 1)])
    st = brandes_bc(g, mode="full")
    r_sets = build_r_sets(g, st.dist, 1)
    assert r_sets[2] == set()


def test_update_reverse_dag_identity_without_changes():
    st = brandes_bc(diamond(), mode="full")
    n = 4
    flags = FlagMatrix([row[:] for row in st.dist],
                       [row[:] for row in st.sigma],
                       [bytearray(n) for _ in range(n)])
    empty = [set() for _ in range(n)]
    for s in range(n):
        assert update_reverse_dag(s, flags, st.rdags[s], empty) == st.rdags[s]


def test_update_reverse_dag_rebuilds_routes_into_source():
    st = brandes_bc(diamond(), mode="full")
    entries = ((1, W // 2),)
    flags = _flags_for(st, 3, entries)
    g_new = st.graph.with_updates([(1, 3, W // 2)])
    r_sets = build_r_sets(g_new, flags.dist, 3)
    x = update_reverse_dag(3, flags, st.rdags[3], r_sets)
    # vertex 2 still reaches 3 through its own edge; only the 2-leg route
    # into 0 is dropped
    assert x == {(3, 1), (3, 2), (1, 0)}
    assert x == derive_rdags(g_new, brandes_bc(g_new).dist)[3]


def test_vertex_update_single_incoming_matches_edge_update():
    rng = random.Random(61)
    for _ in range(12):
        g = gnp(9, 0.45, rng.choice([1, 8]), seed=rng.randrange(10**6))
        decr = [(u, v, w) for u, v, w in g.edges() if w > 1]
        if not decr:
            continue
        u, v, w = decr[rng.randrange(len(decr))]
        new_w = rng.randint(1, w - 1)
        fast = incremental_bc_edge(brandes_bc(g), EdgeUpdate(u, v, new_w))
        full = incremental_bc_vertex(brandes_bc(g, mode="full"),
                                     VertexUpdate(v, ((u, new_w),), ()))
        assert fast.dist == full.dist
        assert fast.sigma == full.sigma
        assert fast.dags == full.dags
        assert fast.bc == full.bc


def test_vertex_update_diamond_incoming_only():
    st = brandes_bc(diamond(), mode="full")
    new = incremental_bc_vertex(st, VertexUpdate(3, ((1, W // 2),), ()))
    assert new.bc == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-9)
    assert compare_states(new, brandes_bc(new.graph, mode="full"), tol=0.0).passed


def test_vertex_update_outgoing_only():
    st = brandes_bc(g1(), mode="full")
    new = incremental_bc_vertex(st, VertexUpdate(0, (), ((3, 3 * W),)))
    assert new.graph.weight(0, 3) == 3 * W
    assert compare_states(new, brandes_bc(new.graph, mode="full"), tol=0.0).passed


def test_vertex_update_empty_is_noop():
    st = brandes_bc(diamond(), mode="full")
    new = incremental_bc_vertex(st, VertexUpdate(2, (), ()))
    assert new.dist == st.dist and new.sigma == st.sigma
    assert new.dags == st.dags and new.rdags == st.rdags
    assert new.graph == st.graph


def test_vertex_update_requires_full_mode():
    st = brandes_bc(diamond())
    with pytest.raises(UpdateError, match="full"):
        incremental_bc_vertex(st, VertexUpdate(3, ((1, W // 2),), ()))


@pytest.mark.parametrize("upd,fragment", [
    (VertexUpdate(3, ((3, W),), ()), "self-loop at vertex 3"),
    (VertexUpdate(3, ((1, 5 * W),), ()), "strictly decrease"),
    (VertexUpdate(3, ((1, W), (1, 2 * W)), ()), "duplicate"),
    (VertexUpdate(3, ((9, W),), ()), "out of range"),
    (VertexUpdate(3, (), ((1, 0),)), "positive"),
    (VertexUpdate(9, (), ()), "out of range"),
    (VertexUpdate(0, (), ((0, W),)), "self-loop at vertex 0"),
    (VertexUpdate(3, (), ((1, -W),)), "positive"),
    (VertexUpdate(3, ((1, DIST_LIMIT // 4 + 1),), ()), "overflow"),
    (VertexUpdate(0, (), ((3, W), (3, 2 * W))), "duplicate"),
    (VertexUpdate(0, (), ((3, 4 * W),)), "strictly decrease"),
    (VertexUpdate(3, (), ((9, W),)), "out of range"),
    (VertexUpdate(9, ((0, W),), ()), "out of range"),
])
def test_vertex_update_validation(upd, fragment):
    st = brandes_bc(g1(), mode="full")
    before = copy.deepcopy(st)
    with pytest.raises(UpdateError, match=fragment):
        incremental_bc_vertex(st, upd)
    assert st == before and st.graph.adj == before.graph.adj


def test_vertex_update_randomized_oracle_equivalence():
    rng = random.Random(71)
    checked = 0
    for _ in range(30):
        n = 16
        g = gnp(n, rng.choice([0.2, 0.45]), rng.choice([1, 6, n * n]),
                seed=rng.randrange(10**6))
        upd = random_vertex_update(g, rng)
        if upd is None:
            continue
        checked += 1
        st = brandes_bc(g, mode="full")
        new = incremental_bc_vertex(st, upd)
        fresh = brandes_bc(new.graph, mode="full")
        assert compare_states(new, fresh, tol=0.0).passed
        # forward/reverse duality of the maintained reverse DAGs
        assert new.rdags == derive_rdags(new.graph, new.dist)
    assert checked >= 15


def test_incoming_phase_work_is_exactly_the_table_and_dag_scans():
    # n*k for the distance-to-v table, the forward repair, the R-set scan of
    # every vertex that reaches v, and one pass over each old reverse DAG
    rng = random.Random(89)
    checked = 0
    for _ in range(20):
        g = gnp(12, rng.choice([0.2, 0.5]), rng.choice([1, 10]),
                seed=rng.randrange(10**6))
        upd = random_vertex_update(g, rng, allow_empty_side=False)
        if upd is None or not upd.incoming:
            continue
        v, k, n = upd.v, len(upd.incoming), g.n
        st = brandes_bc(g, mode="full")
        new = incremental_bc_vertex(st, VertexUpdate(v, upd.incoming, ()))
        r_scan = sum(len(new.graph.adj[t]) for t in range(n)
                     if t != v and new.dist[t][v] < INF)
        assert new.report.edges_examined == (
            2 * n * k + sum(len(d) for d in st.dags) + n * len(st.dags[v])
            + r_scan + sum(len(d) for d in st.rdags))
        checked += 1
    assert checked >= 10


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_updates_call_the_traced_layer_boundaries(monkeypatch):
    # perfbench's traced run patches these module attributes and fails when
    # a layer its mode uses is never called
    fast = brandes_bc(diamond())
    full = brandes_bc(g1(), mode="full")
    classify = _count_calls(monkeypatch, edge_update, "classify_pairs")
    repair = _count_calls(monkeypatch, edge_update, "update_dag")
    repair_v = _count_calls(monkeypatch, vertex_update, "update_dag_vertex")
    r_sets = _count_calls(monkeypatch, vertex_update, "build_r_sets")
    # BC re-accumulation: one settle-order pass per source whose dist row,
    # sigma row or DAG changed; each recomputed row orders its vertices once
    orders = _count_calls(monkeypatch, apsp, "topo_order")
    accum = _count_calls(monkeypatch, apsp, "accumulate_dependency")

    # one graph build per update: with_updates once, reverse only for an
    # outgoing phase
    patch = _count_calls(monkeypatch, Graph, "with_updates")
    flip = _count_calls(monkeypatch, Graph, "reverse")

    new = incremental_bc_edge(fast, EdgeUpdate(0, 1, W // 2))
    assert len(classify) == 1 and len(repair) == 4
    assert not repair_v and not r_sets
    assert len(patch) == 1 and not flip
    # only source 0 reaches 1 more cheaply; 1, 2 and 3 keep their rows
    assert len(orders) == len(accum) == new.report.accum_sources == 1
    expected = Graph(4, [(0, 1, W // 2), (0, 2, W), (1, 3, W), (2, 3, W)])
    assert new.graph == expected and new.graph.adj == expected.adj

    for calls in (classify, repair, patch, orders, accum):
        calls.clear()
    new = incremental_bc_vertex(full, VertexUpdate(3, ((1, 3 * W),), ((1, W),)))
    assert len(repair_v) == 8 and len(r_sets) == 2
    assert not classify and not repair
    assert len(patch) == 1 and len(flip) == 1
    # source 1 only reaches 3 more cheaply along the DAG edge it already
    # used, so its row is kept; 0, 2 and 3 gain DAG edges
    assert len(orders) == len(accum) == new.report.accum_sources == 3
    expected = Graph(4, [(0, 1, W), (1, 3, 3 * W), (0, 2, 2 * W), (2, 3, 2 * W),
                         (0, 3, 4 * W), (3, 1, W)])
    assert new.graph == expected and new.graph.adj == expected.adj


def test_unchanged_rows_keep_their_dags_and_reverse_dags():
    # a source the pair scan skips shares its dist row, and then its DAG and
    # its dependency row; a target none of whose pairs (b, s) changed keeps
    # its reverse DAG; after a two-sided vertex event, whose outgoing phase
    # makes every dist row a new object, a source whose rows and DAG are
    # equal in value still keeps its dependency row
    rng = random.Random(103)
    shared_dags = shared_rdags = kept_by_value = 0
    for _ in range(8):
        g = gnp(16, 0.3, 10, seed=rng.randrange(10**6))
        upd = random_edge_update(g, rng)
        vupd = random_vertex_update(g, rng, allow_empty_side=False)
        fast = brandes_bc(g)
        pairs = [(fast, incremental_bc_edge(fast, upd))]
        if vupd is not None and vupd.incoming:
            full = brandes_bc(g, mode="full")
            pairs.append((full, incremental_bc_vertex(
                full, VertexUpdate(vupd.v, vupd.incoming, ()))))
        for old, new in pairs:
            for s in range(g.n):
                if new.dist[s] is old.dist[s]:
                    assert new.dags[s] is old.dags[s]
                    assert new.deltas[s] is old.deltas[s]
                    shared_dags += 1
                if old.rdags is not None and all(
                        new.dist[b][s] == old.dist[b][s]
                        and new.sigma[b][s] == old.sigma[b][s] for b in range(g.n)):
                    assert new.rdags[s] is old.rdags[s]
                    shared_rdags += 1
            assert compare_states(new, brandes_bc(new.graph, mode=new.mode),
                                  tol=0.0).passed
        if vupd is not None and vupd.incoming and vupd.outgoing:
            new = incremental_bc_vertex(full, vupd)
            for s in range(g.n):
                if (new.dist[s] == full.dist[s] and new.sigma[s] == full.sigma[s]
                        and new.dags[s] == full.dags[s]):
                    assert new.deltas[s] is full.deltas[s]
                    kept_by_value += new.dist[s] is not full.dist[s]
            assert compare_states(new, brandes_bc(new.graph, mode="full"),
                                  tol=0.0).passed
    assert shared_dags and shared_rdags and kept_by_value


def _successor_orders(dag, drow):
    succ = {}
    for a, b in sorted(dag, key=lambda e: (drow[e[1]], e[1])):
        succ.setdefault(a, []).append(b)
    return succ


def _changed_sources(old, new):
    # a row can change only with its sigma row, its DAG, or the distance
    # order of some vertex's DAG successors
    return sum(1 for s in range(new.graph.n)
               if new.sigma[s] != old.sigma[s] or new.dags[s] != old.dags[s]
               or _successor_orders(new.dags[s], old.dist[s])
               != _successor_orders(new.dags[s], new.dist[s]))


@pytest.mark.parametrize("mode", ["edge-fast", "full"])
def test_accum_sources_counts_the_sources_whose_rows_changed(mode):
    rng = random.Random(107)
    events = 0
    for _ in range(6):
        state = brandes_bc(gnp(14, 0.3, 10, seed=rng.randrange(10**6)), mode=mode)
        for _ in range(6):
            g = state.graph
            if mode == "full" and rng.random() < 0.5:
                upd = random_vertex_update(g, rng, allow_empty_side=False)
                if upd is None or not (upd.incoming and upd.outgoing):
                    continue
                new = incremental_bc_vertex(state, upd)
            else:
                upd = random_edge_update(g, rng)
                if upd is None:
                    continue
                new = incremental_bc_edge(state, upd)
            assert new.report.accum_sources == _changed_sources(state, new)
            state = new
            events += 1
    assert events >= 30


def test_distance_only_change_keeps_the_row_unless_successors_reorder():
    # 0 -> 1 -> 3 and 0 -> 2 -> 4: lowering (0, 1) shortens only paths that
    # already used it, so source 0 keeps its DAG and sigma row; its row is
    # kept while 1 stays behind 2 in distance and recomputed once 1 passes 2
    g = Graph(5, [(0, 1, 3 * W), (0, 2, 2 * W), (1, 3, W), (2, 4, W)])
    old = brandes_bc(g)
    kept = incremental_bc_edge(old, EdgeUpdate(0, 1, 5 * W // 2))
    assert kept.dags[0] == old.dags[0] and kept.dist[0] != old.dist[0]
    assert kept.deltas[0] is old.deltas[0] and kept.report.accum_sources == 0
    moved = incremental_bc_edge(kept, EdgeUpdate(0, 1, W))
    assert moved.dags[0] == old.dags[0]
    assert moved.deltas[0] is not kept.deltas[0] and moved.report.accum_sources == 1
    for state in (kept, moved):
        assert compare_states(state, brandes_bc(state.graph), tol=0.0).passed


def test_vertex_update_reverse_dag_insert_attempts_bounded():
    rng = random.Random(83)
    saw_attempts = False
    for _ in range(10):
        g = gnp(12, 0.5, rng.choice([1, 10]), seed=rng.randrange(10**6))
        upd = random_vertex_update(g, rng, allow_empty_side=False)
        if upd is None:
            continue
        st = brandes_bc(g, mode="full")
        new = incremental_bc_vertex(st, upd)
        rep = new.report
        assert rep.rdag_insert_attempts <= 2 * rep.rdag_unique_inserts
        saw_attempts |= rep.rdag_insert_attempts > 0
    assert saw_attempts


def test_undirected_mirrored_vertex_update():
    tri = [(0, 1, 4), (1, 2, 4), (0, 2, 4), (2, 3, 4)]
    g = build(4, tri + [(v, u, w) for u, v, w in tri], undirected=True)
    st = brandes_bc(g, mode="full")
    upd = VertexUpdate(2, ((0, 2 * W), (3, 3 * W)), ((0, 2 * W), (3, 3 * W)))
    new = incremental_bc_vertex(st, upd)
    assert new.graph.weight(0, 2) == new.graph.weight(2, 0) == 2 * W
    assert compare_states(new, brandes_bc(new.graph, mode="full"), tol=0.0).passed


def test_forward_reverse_totals_match_on_undirected_graphs():
    rng = random.Random(97)
    for seed in range(4):
        g = gnp(8, 0.5, 6, seed=seed, undirected=True)
        st = brandes_bc(g, mode="full")
        for s in range(g.n):
            assert len(st.dags[s]) == len(st.rdags[s])
