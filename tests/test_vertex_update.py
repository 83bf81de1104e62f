import copy
import dataclasses
import operator
import random
import re

import pytest

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
    derive_rdags,
    incremental_bc_edge,
    incremental_bc_vertex,
    static_bc,
    update_dag,
    update_dag_vertex,
)
from dynbc.apsp import INF
from dynbc.edge_update import FlagMatrix
from helpers import (
    OVER_BY_ONE,
    W,
    apply_random_event,
    build,
    count_calls,
    diamond,
    g1,
    gnp,
    in_edges,
    layered_doubling_graph,
    layered_graph,
    random_edge_update,
    random_mirrored_vertex_update,
    random_vertex_update,
)


def test_dist_to_v_replace_then_ignore():
    st = brandes_bc(g1(), mode="full")
    entries = ((1, 3 * W), (0, 3 * W + W // 2))
    fold = edge_update._dist_to_v(0, 3, entries, st.dist, st.sigma)
    assert fold == (3 * W + W // 2, 1, 0)
    assert classify_pair_vertex(0, 3, 3, st, entries) == (
        3 * W + W // 2, 1, PairFlag.WT_CHANGED)


def test_dist_to_v_accumulates_tied_entry():
    st = brandes_bc(g1(), mode="full")
    entries = ((1, 3 * W),)
    assert edge_update._dist_to_v(0, 3, entries, st.dist, st.sigma) == (4 * W, 3, 1)
    assert classify_pair_vertex(0, 3, 3, st, entries) == (4 * W, 3, PairFlag.NUM_CHANGED)


def test_dist_to_v_empty_is_identity():
    st = brandes_bc(g1(), mode="full")
    expect = (st.dist[0][3], st.sigma[0][3])
    assert edge_update._dist_to_v(0, 3, (), st.dist, st.sigma) == (*expect, 0)
    assert classify_pair_vertex(0, 3, 3, st, ()) == (*expect, PairFlag.UNCHANGED)


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
        entries = ((upd.u, upd.weight),)
        for s in range(n):
            for t in range(n):
                expect = classify_pair(s, t, st, upd)
                assert classify_pair_vertex(s, t, upd.v, st, entries) == expect
    assert trials >= 20


def test_classified_pair_toward_updated_vertex():
    st = brandes_bc(g1(), mode="full")
    fm = classify_pairs(st.dist, st.sigma, 3, ((1, 3 * W),))
    assert (fm.dist[0][3], fm.sigma[0][3]) == (4 * W, 3)


def test_classify_pair_vertex_unreachable_stays_unchanged():
    g = build(3, [(0, 1, 1)])
    st = brandes_bc(g, mode="full")
    d, sig, flag = classify_pair_vertex(2, 0, 1, st, ((0, W // 2),))
    assert flag is PairFlag.UNCHANGED and d == INF and sig == 0.0


def test_update_dag_vertex_batch_rebuild():
    st = brandes_bc(g1(), mode="full")
    entries = ((1, 3 * W), (0, 3 * W + W // 2))
    flags = _flags_for(st, 3, entries)
    h = update_dag_vertex(0, 3, flags, st.dags[0],
                          in_edges(st.dags[3], flags.targets), _radj(st, 3, entries))
    assert h == {(0, 1), (0, 2), (0, 3)}


def _radj(st, v, entries):
    """The in-rows of the graph after the incoming ``entries`` of v."""
    return st.graph.with_updates([(u, v, w) for u, w in entries]).radj


def _flags_for(st, v, entries):
    """The per-pair reference of ``classify_pairs``: every pair by
    ``classify_pair_vertex``, and every column a candidate target."""
    n = st.graph.n
    new_dist = [row[:] for row in st.dist]
    new_sigma = [row[:] for row in st.sigma]
    changed, closer = {}, {}
    for s in range(n):
        flags = [PairFlag.UNCHANGED] * n
        for t in range(n):
            new_dist[s][t], new_sigma[s][t], flags[t] = classify_pair_vertex(
                s, t, v, st, entries)
        cols = [t for t in range(n) if flags[t]]
        if cols:
            changed[s] = cols
            closer[s] = [t for t in cols if flags[t] is PairFlag.WT_CHANGED]
    return FlagMatrix(new_dist, new_sigma, changed, closer, list(range(n)),
                      tuple((u, w, (u, v)) for u, w in entries if w <= st.dist[u][v]))


def test_classify_pairs_matches_the_per_pair_reference_on_batches():
    # the bulk scan against the per-pair reference on random batches of
    # incoming edges, and of outgoing ones on the reversed graph, most of
    # them multi-entry; whole-unit weights make detours tie
    rng = random.Random(37)
    batches = ties = 0
    for trial in range(60):
        g = gnp(rng.randrange(6, 11), rng.choice([0.3, 0.5]), rng.choice([1, 4, 9]),
                seed=rng.randrange(10**6), undirected=trial % 4 == 3)
        upd = random_vertex_update(g, rng, kmax=4, unit=W if trial % 2 else 1)
        if upd is None:
            continue
        for graph, entries in ((g, upd.incoming), (g.reverse(), upd.outgoing)):
            st = brandes_bc(graph)
            fm = classify_pairs(st.dist, st.sigma, upd.v, entries)
            ref = _flags_for(st, upd.v, entries)
            assert fm.dist == ref.dist and fm.sigma == ref.sigma
            assert list(fm.changed.items()) == list(ref.changed.items())
            assert list(fm.closer.items()) == list(ref.closer.items())
            batches += len(entries) > 1
            ties += sum(len(c) - len(fm.closer[s]) for s, c in fm.changed.items())
    assert batches >= 40 and ties >= 40


def test_update_dag_vertex_singleton_matches_edge_repair():
    # the bulk classifier and the per-pair reference route give one repair
    rng = random.Random(19)
    for _ in range(10):
        g = gnp(8, 0.5, rng.choice([1, 9]), seed=rng.randrange(10**6))
        decr = [(u, v, w) for u, v, w in g.edges() if w > 1]
        if not decr:
            continue
        u, v, w = decr[rng.randrange(len(decr))]
        st = brandes_bc(g, mode="full")
        entries = ((u, rng.randint(1, w - 1)),)
        fm = classify_pairs(st.dist, st.sigma, v, entries)
        ref = _flags_for(st, v, entries)
        radj = _radj(st, v, entries)
        assert list(fm.changed) == list(ref.changed)
        for s in fm.changed:
            a = update_dag(s, v, fm, st.dags[s],
                           in_edges(st.dags[v], fm.targets), radj)
            b = update_dag_vertex(s, v, ref, st.dags[s],
                                  in_edges(st.dags[v], ref.targets), radj)
            assert a == b


def test_update_dag_vertex_identity_when_unchanged():
    g = build(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 3, 5)])
    st = brandes_bc(g, mode="full")
    entries = ((0, 3 * W),)
    assert not _flags_for(st, 3, entries).changed
    new = incremental_bc_vertex(st, VertexUpdate(3, entries))
    assert all(h is dag for h, dag in zip(new.dags, st.dags))


def test_r_sets_on_updated_diamond():
    st = brandes_bc(diamond(), mode="full")
    entries = ((1, W // 2),)
    flags = _flags_for(st, 3, entries)
    g_new = st.graph.with_updates([(1, 3, W // 2)])
    r_sets = build_r_sets(g_new, flags.dist, 3, [0, 1, 2])
    assert set(r_sets) == {0, 1, 2}
    assert r_sets[0] == {(1, 0)}
    assert r_sets[1] == {(3, 1)}
    # vertex 2's direct edge is still tight, so it contributes its own R entry
    assert r_sets[2] == {(3, 2)}


def test_r_sets_unreachable_vertex_is_empty():
    g = build(3, [(0, 1, 1), (2, 0, 1)])
    st = brandes_bc(g, mode="full")
    assert build_r_sets(g, st.dist, 2, [0, 1]) == {0: set(), 1: set()}
    assert build_r_sets(g, st.dist, 1, []) == {}


def test_repair_reverse_dags_keeps_every_rdag_without_changes():
    # a flag matrix with no flagged column gives no target a head: the
    # transposed matrices and the reverse DAGs come back as the input
    # lists, the heads grouping is empty, and every DAG's edges count once
    # as attempted
    st = brandes_bc(diamond(), mode="full")
    n = 4
    flags = FlagMatrix(st.dist, st.sigma, {}, {}, [])
    total = sum(map(len, st.rdags))
    rdist, rsigma = vertex_update.transpose(st.dist), vertex_update.transpose(st.sigma)
    rdist2, rsigma2, rdags, rev, attempts, heads = vertex_update.repair_reverse_dags(
        st.graph, flags, rdist, rsigma, st.rdags, total, 3)
    assert rdist2 is rdist and rsigma2 is rsigma and rdags is st.rdags
    assert heads == {}
    assert len(rdags) == n and all(x is r for x, r in zip(rdags, st.rdags))
    assert attempts == rev == total


def test_repair_reverse_dags_rebuilds_routes_into_source():
    st = brandes_bc(diamond(), mode="full")
    entries = ((1, W // 2),)
    flags = _flags_for(st, 3, entries)
    g_new = st.graph.with_updates([(1, 3, W // 2)])
    r_sets = build_r_sets(g_new, flags.dist, 3, flags.changed)
    assert list(r_sets) == list(flags.changed) == [0, 1]
    rdist, rsigma = vertex_update.transpose(st.dist), vertex_update.transpose(st.sigma)
    _, _, rdags, _, _, heads = vertex_update.repair_reverse_dags(
        g_new, flags, rdist, rsigma, st.rdags, sum(map(len, st.rdags)), 3)
    assert heads[3] == [b for b, cols in flags.changed.items() if 3 in cols]
    # vertex 2 still reaches 3 through its own edge; only the 2-leg route
    # into 0 is dropped
    assert rdags[3] == {(3, 1), (3, 2), (1, 0)}
    assert rdags[3] == derive_rdags(g_new, brandes_bc(g_new).dist)[3]


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
    # the mode rule comes before validation: an out-of-range vertex on an
    # edge-fast state still names the mode
    with pytest.raises(UpdateError, match="full"):
        incremental_bc_vertex(st, VertexUpdate(9, ((1, W),), ()))


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
    (VertexUpdate(3, ((1, 3 * W),), ()), "mirror"),
    (VertexUpdate(4, (), ()), "out of range"),  # v = n
])
def test_vertex_update_validation(upd, fragment):
    g = g1()
    if fragment == "mirror":
        # g1 doubled: one-sided entries break the undirected mirror rule
        g = Graph(g.n, g.edges() + [(v, u, w) for u, v, w in g.edges()],
                  undirected=True)
    st = brandes_bc(g, mode="full")
    before = copy.deepcopy(st)
    with pytest.raises(UpdateError, match=fragment):
        incremental_bc_vertex(st, upd)
    assert st == before and st.graph.adj == before.graph.adj


@pytest.mark.parametrize("undirected, upd, message", [
    # a repeated endpoint wins over a non-decrease, on its own side or the other
    (False, VertexUpdate(3, ((1, 6 * W), (1, W)), ()),
     "duplicate endpoint 1 in vertex update"),
    (False, VertexUpdate(0, (), ((3, 5 * W), (3, W))),
     "duplicate endpoint 3 in vertex update"),
    (False, VertexUpdate(3, ((1, 6 * W),), ((0, W), (0, 2 * W))),
     "duplicate endpoint 0 in vertex update"),
    # an out-of-range v wins over a bad weight: the first edge check names it
    (False, VertexUpdate(9, ((0, 0),), ()), "vertex id out of range in edge (0, 9)"),
    (False, VertexUpdate(9, (), ((1, -W),)), "vertex id out of range in edge (9, 1)"),
    (False, EdgeUpdate(0, 9, 0), "vertex id out of range in edge (0, 9)"),
    (True, EdgeUpdate(0, 9, -W), "vertex id out of range in edge (0, 9)"),
    # with non-decreases on both sides, the first change is named
    (False, VertexUpdate(2, ((0, 3 * W),), ((3, 2 * W),)),
     "update must strictly decrease the weight of (0, 2)"),
    (True, VertexUpdate(3, ((1, 5 * W),), ((1, 5 * W),)),
     "update must strictly decrease the weight of (1, 3)"),
    (True, EdgeUpdate(1, 3, 5 * W), "update must strictly decrease the weight of (1, 3)"),
    (True, EdgeUpdate(3, 1, 6 * W), "update must strictly decrease the weight of (3, 1)"),
])
def test_update_with_two_faults_names_the_same_one(undirected, upd, message):
    g = g1()
    if undirected:
        g = Graph(g.n, g.edges() + [(v, u, w) for u, v, w in g.edges()],
                  undirected=True)
    st = brandes_bc(g, mode="full")
    update = incremental_bc_vertex if isinstance(upd, VertexUpdate) else incremental_bc_edge
    with pytest.raises(UpdateError, match=f"^{re.escape(message)}$"):
        update(st, upd)


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
    # every vertex that reaches v, and one pass over each old reverse DAG;
    # an outgoing phase runs in the reversed graph, so there the two DAG
    # families trade places and the R-set scan reads in-rows of vertices v
    # reaches
    rng = random.Random(89)
    checked = 0
    for _ in range(20):
        g = gnp(12, rng.choice([0.2, 0.5]), rng.choice([1, 10]),
                seed=rng.randrange(10**6))
        upd = random_vertex_update(g, rng, allow_empty_side=False)
        if upd is None or not upd.incoming or not upd.outgoing:
            continue
        v, n = upd.v, g.n
        st = brandes_bc(g, mode="full")
        for flipped, side in ((False, upd.incoming), (True, upd.outgoing)):
            one_sided = VertexUpdate(v, (), side) if flipped else VertexUpdate(v, side, ())
            new = incremental_bc_vertex(st, one_sided)
            dags, rdags = (st.rdags, st.dags) if flipped else (st.dags, st.rdags)
            rows = new.graph.radj if flipped else new.graph.adj
            r_scan = sum(len(rows[t]) for t in range(n) if t != v
                         and (new.dist[v][t] if flipped else new.dist[t][v]) < INF)
            assert new.report.edges_examined == (
                2 * n * len(side) + sum(len(d) for d in dags) + n * len(dags[v])
                + r_scan + sum(len(d) for d in rdags))
        checked += 1
    assert checked >= 10


def _r_total(g, dist, v):
    """Edges in the R sets of every vertex t != v: the reversed edges (a, t)
    with w(t, a) + d(a, v) = d(t, v), recounted over every row of ``g``."""
    return sum(1 for t in range(g.n) if t != v and dist[t][v] < INF
               for a, w in g.adj[t] if dist[a][v] < INF and w + dist[a][v] == dist[t][v])


def test_r_total_counts_every_vertex_r_set():
    # the reverse DAG rooted at a phase's vertex is the union of every
    # vertex's R set, though the step builds R sets only for scanned heads;
    # a vertex event's incoming phase sees the graph with only its incoming
    # edges updated (the outgoing ones sit in row v, which no R set reads),
    # and its outgoing phase runs on the reversed final graph
    rng = random.Random(97)
    checked = one_phase = 0
    for _ in range(60):
        g = gnp(12, rng.choice([0.2, 0.4]), rng.choice([1, 10]),
                seed=rng.randrange(10**6))
        st = brandes_bc(g, mode="full")
        if rng.random() < 0.5:
            upd = random_edge_update(g, rng)
            if upd is None:
                continue
            v, incoming, outgoing = upd.v, ((upd.u, upd.weight),), ()
            new = incremental_bc_edge(st, upd)
        else:
            upd = random_vertex_update(g, rng)
            if upd is None:
                continue
            v, incoming, outgoing = upd.v, upd.incoming, upd.outgoing
            new = incremental_bc_vertex(st, upd)
        expected = 0
        if incoming:
            g_in = g.with_updates([(u, v, w) for u, w in incoming])
            expected += _r_total(g_in, brandes_bc(g_in).dist, v)
        if outgoing:
            rev = new.graph.reverse()
            expected += _r_total(rev, brandes_bc(rev).dist, v)
        assert new.report.r_total == expected
        if not (incoming and outgoing):  # a flipped phase swaps the families
            assert new.report.r_total == len((new.rdags if incoming else new.dags)[v])
            one_phase += 1
        checked += 1
    assert checked >= 50 and one_phase >= 35


def test_r_set_charge_skips_vertices_that_cannot_reach_v():
    # vertex 2 has an out-edge but no path to 1, so the R-set charge counts
    # only the 3 edges of row 0: 6 forward DAG edges, 4 * (1 + 1) for the
    # DAG rooted at 1 and the entry, 4 * 1 for the distance-to-v table, 3,
    # and 6 reverse DAG edges (see WorkCounters); row 2 would add 1
    st = brandes_bc(g1(), mode="full")
    new = incremental_bc_edge(st, EdgeUpdate(0, 1, W // 2))
    assert new.dist[2][1] == INF and new.graph.adj[2]
    assert new.report.edges_examined == 27


def test_updates_call_the_traced_layer_boundaries(monkeypatch):
    # perfbench's traced run patches these module attributes and fails when
    # a layer its mode uses is never called; both modes run one phase body,
    # whose forward repair full states reach under the traced alias, once
    # per source the pair scan flagged
    assert vertex_update.update_dag_vertex is edge_update.update_dag
    fast = brandes_bc(diamond())
    full = brandes_bc(g1(), mode="full")
    classify = count_calls(monkeypatch, edge_update, "classify_pairs")
    repair = count_calls(monkeypatch, edge_update, "update_dag")
    repair_v = count_calls(monkeypatch, vertex_update, "update_dag_vertex")
    r_sets = count_calls(monkeypatch, vertex_update, "build_r_sets")
    flip_rows = count_calls(monkeypatch, vertex_update, "transpose")
    # BC re-accumulation: a recomputed row takes the whole-DAG fold when its
    # ancestor repair would read as many in-row entries as its DAG has
    # edges, as every row does on these 4-vertex graphs
    passes = count_calls(monkeypatch, edge_update, "_bc_pass")

    # one graph build per update: with_updates once, reverse only for an
    # outgoing phase
    patch = count_calls(monkeypatch, Graph, "with_updates")
    flip = count_calls(monkeypatch, Graph, "reverse")

    new = incremental_bc_edge(fast, EdgeUpdate(0, 1, W // 2))
    # only source 0 reaches 1 more cheaply
    assert len(classify) == 1 and len(repair) == 1
    assert not repair_v and not r_sets
    assert len(patch) == 1 and not flip
    # 1, 2 and 3 keep their rows
    assert len(passes) == new.report.accum_sources == 1
    expected = Graph(4, [(0, 1, W // 2), (0, 2, W), (1, 3, W), (2, 3, W)])
    assert new.graph == expected and new.graph.adj == expected.adj

    for calls in (classify, repair, patch, passes):
        calls.clear()
    # the first update of a built full state transposes dist and sigma once
    # into the reversed graph's matrices, which every update then carries
    mid = incremental_bc_edge(full, EdgeUpdate(0, 1, W // 2))
    assert len(classify) == 1 and len(repair_v) == 1 and len(r_sets) == 1
    assert not repair and len(flip_rows) == 2 and not flip

    for calls in (classify, repair_v, r_sets, patch, passes, flip_rows):
        calls.clear()
    new = incremental_bc_vertex(full, VertexUpdate(3, ((1, 3 * W),), ((1, W),)))
    # the incoming phase scans sources 0 and 1, the outgoing one target 1
    assert len(classify) == 2 and len(repair_v) == 3 and len(r_sets) == 2
    assert not repair and len(flip_rows) == 2
    assert len(patch) == 1 and len(flip) == 1
    # source 1 only reaches 3 more cheaply along the DAG edge it already
    # used, so its row is kept; 0, 2 and 3 gain DAG edges
    assert len(passes) == new.report.accum_sources == 3
    expected = Graph(4, [(0, 1, W), (1, 3, 3 * W), (0, 2, 2 * W), (2, 3, 2 * W),
                         (0, 3, 4 * W), (3, 1, W)])
    assert new.graph == expected and new.graph.adj == expected.adj

    # an updated state already carries them: no update of it transposes
    flip_rows.clear()
    incremental_bc_vertex(mid, VertexUpdate(3, ((1, 3 * W),), ((1, W),)))
    assert not flip_rows and len(flip) == 2


def _changed_pairs(old, new):
    n = new.graph.n
    return {(s, t) for s in range(n) for t in range(n)
            if new.dist[s][t] != old.dist[s][t] or new.sigma[s][t] != old.sigma[s][t]}


def test_work_follows_the_sources_the_pair_scan_flagged(monkeypatch):
    # the pair scan decides once which sources a phase changes: the
    # distance-to-v fold runs for exactly the sources whose forward DAG is
    # repaired, and the reverse step repairs exactly the targets with a
    # changed pair, one ``_survivors`` call per target with a head (in a
    # flipped phase, the sources of the forward frame)
    full = brandes_bc(g1(), mode="full")
    inc, out = ((1, 3 * W),), ((1, W),)
    mid = incremental_bc_vertex(full, VertexUpdate(3, inc, ()))
    fold = count_calls(monkeypatch, edge_update, "_dist_to_v")
    repair = count_calls(monkeypatch, edge_update, "update_dag")
    repair_v = count_calls(monkeypatch, vertex_update, "update_dag_vertex")
    rrepair = count_calls(monkeypatch, vertex_update, "_survivors")

    def clear():
        for calls in (fold, repair, repair_v, rrepair):
            calls.clear()

    new = incremental_bc_edge(full, EdgeUpdate(0, 1, W // 2))
    assert len(fold) == len(repair_v) == 1 and not repair
    assert len(rrepair) == len({t for _, t in _changed_pairs(full, new)}) == 1
    clear()
    new = incremental_bc_vertex(full, VertexUpdate(3, inc, out))
    assert len(fold) == len(repair_v) == 3
    assert len(rrepair) == (len({t for _, t in _changed_pairs(full, mid)})
                            + len({s for s, _ in _changed_pairs(mid, new)})) == 3

    rng = random.Random(109)
    events = 0
    for mode in ("edge-fast", "full"):
        for _ in range(4):
            state = brandes_bc(gnp(12, 0.3, 10, seed=rng.randrange(10**6)),
                               mode=mode)
            for _ in range(5):
                clear()
                new = apply_random_event(state, rng)
                if new is None:
                    continue
                assert len(fold) == len(repair) + len(repair_v)
                state = new
                events += 1
    assert events >= 30


def _edges(dags):
    return sum(map(len, dags))


def _dag_tallies(state, x):
    """Recount: edges in every DAG of ``state``, and in the DAGs rooted at
    ``x`` (forward plus, in full mode, reverse)."""
    families = [f for f in (state.dags, state.rdags) if f is not None]
    return sum(map(_edges, families)), sum(len(f[x]) for f in families)


def test_dag_tallies_equal_recounts():
    # the report's running totals against recounts: pre on the old state,
    # mid on the state after the first phase alone, post on the new state,
    # and the unique reverse inserts on the reverse family after each phase
    # (the forward DAGs, in a flipped phase's frame).  An undirected
    # update's first phase alone runs on the directed double of the graph,
    # whose state holds the same distances and DAGs
    rng = random.Random(83)
    seen = set()
    for _ in range(24):
        undirected = rng.random() < 0.5
        g = gnp(rng.choice([6, 9, 12]), rng.choice([0.3, 0.6]),
                rng.choice([1, 9]), seed=rng.randrange(10**6),
                undirected=undirected)
        double = Graph(g.n, g.edges())
        for mode in ("edge-fast", "full"):
            st, half_st = brandes_bc(g, mode=mode), brandes_bc(double, mode=mode)
            events = []
            e = random_edge_update(g, rng)
            if e is not None:
                new = incremental_bc_edge(st, e)
                half = incremental_bc_edge(half_st, e)
                inserts = mode == "full" and (
                    (_edges(half.rdags) if undirected else 0) + _edges(new.rdags))
                events.append(("edge", new, half, e.v, e.u if undirected else e.v,
                               inserts))
            vu = mode == "full" and (
                random_mirrored_vertex_update(g, rng) if undirected
                else random_vertex_update(g, rng, allow_empty_side=False))
            if vu:
                new = incremental_bc_vertex(st, vu)
                half = incremental_bc_vertex(half_st, VertexUpdate(vu.v, vu.incoming, ()))
                inserts = _edges(half.rdags) + _edges(new.dags)
                events.append(("vertex", new, half, vu.v, vu.v, inserts))
            for kind, new, half, first, last, inserts in events:
                rep = new.report
                assert (rep.dag_sum_pre, rep.dag_v_pre) == _dag_tallies(st, first)
                assert (rep.dag_sum_mid, rep.dag_v_mid) == _dag_tallies(half, last)
                assert (rep.dag_sum_post, rep.dag_v_post) == _dag_tallies(new, last)
                if kind == "edge" and not undirected:
                    assert (rep.dag_sum_mid, rep.dag_v_mid) == (rep.dag_sum_post,
                                                               rep.dag_v_post)
                if mode == "full":
                    assert rep.rdag_unique_inserts == inserts
                seen.add((kind, mode, undirected))
    assert len(seen) == 6


def test_unchanged_rows_keep_their_dags_and_reverse_dags():
    # a source the pair scan skips shares its dist row, and then its DAG and
    # its dependency row; a target none of whose pairs (b, s) changed keeps
    # its reverse DAG; after a two-sided vertex event, whose outgoing phase
    # writes the reversed graph's matrices, a source whose dist and sigma
    # rows are equal in value (these states are exact) still keeps both row
    # objects and its dependency row.  _finish keeps the row of every DAG
    # that is the same object unread, so each shared DAG must have an equal
    # sigma row and hold no updated edge
    rng = random.Random(103)
    shared_dags = shared_rdags = kept_rows = 0

    def check_shared_dags(old, new, updated):
        for s, dag in enumerate(new.dags):
            if dag is old.dags[s]:
                assert new.sigma[s] == old.sigma[s] and dag.isdisjoint(updated)

    for _ in range(8):
        g = gnp(16, 0.3, 10, seed=rng.randrange(10**6))
        upd = random_edge_update(g, rng)
        vupd = random_vertex_update(g, rng, allow_empty_side=False)
        fast = brandes_bc(g)
        pairs = [(fast, incremental_bc_edge(fast, upd), {(upd.u, upd.v)})]
        if vupd is not None and vupd.incoming:
            full = brandes_bc(g, mode="full")
            pairs.append((full, incremental_bc_vertex(
                full, VertexUpdate(vupd.v, vupd.incoming, ())),
                {(x, vupd.v) for x, _ in vupd.incoming}))
        for old, new, updated in pairs:
            check_shared_dags(old, new, updated)
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
            check_shared_dags(full, new, {(x, vupd.v) for x, _ in vupd.incoming}
                              | {(vupd.v, x) for x, _ in vupd.outgoing})
            for s in range(g.n):
                if new.dist[s] == full.dist[s] and new.sigma[s] == full.sigma[s]:
                    assert new.dist[s] is full.dist[s] and new.sigma[s] is full.sigma[s]
                    assert new.deltas[s] is full.deltas[s]
                    kept_rows += 1
            assert compare_states(new, brandes_bc(new.graph, mode="full"),
                                  tol=0.0).passed
    assert shared_dags and shared_rdags and kept_rows


def _successor_orders(dag, drow):
    succ = {}
    for a, b in sorted(dag, key=lambda e: (drow[e[1]], e[1])):
        succ.setdefault(a, []).append(b)
    return succ


def _changed_sources(old, new):
    # a row can change only with its sigma row, its DAG, or the distance
    # order of some vertex's DAG successors; this reads the dist rows, an
    # independent formulation of the edge-weight rule _finish applies
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
    assert kept.bc is old.bc
    moved = incremental_bc_edge(kept, EdgeUpdate(0, 1, W))
    assert moved.dags[0] == old.dags[0]
    assert moved.deltas[0] is not kept.deltas[0] and moved.report.accum_sources == 1
    for state in (kept, moved):
        assert compare_states(state, brandes_bc(state.graph), tol=0.0).passed
    # both out-edges of 1 drop at once: the first event keeps 2 ahead of 3,
    # though each new weight is below its sibling's old one; the second
    # swaps them, so sources 0 and 1 recompute their rows
    full = brandes_bc(Graph(4, [(0, 1, W), (1, 2, 10 * W), (1, 3, 11 * W)]),
                      mode="full")
    kept = incremental_bc_vertex(full, VertexUpdate(1, (), ((2, 4 * W), (3, 5 * W))))
    assert kept.report.accum_sources == 0 and kept.bc is full.bc
    swapped = incremental_bc_vertex(kept, VertexUpdate(1, (), ((2, 3 * W), (3, 2 * W))))
    assert swapped.report.accum_sources == 2
    for state in (kept, swapped):
        assert compare_states(state, brandes_bc(state.graph, mode="full"),
                              tol=0.0).passed


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


def test_update_turns_exact_state_inexact():
    # z is fed by last-layer vertex 107 alone, so sigma(0, z) = 2**53 is
    # still exact; inserting the tied edge (108, z) doubles it past 2**53
    base = layered_doubling_graph(54)
    z = base.n
    g = Graph(z + 1, list(base.edges()) + [(107, z, W)])
    fast = brandes_bc(g)
    full = brandes_bc(g, mode="full")
    assert not fast.inexact and not full.inexact
    assert fast.sigma[0][z] == float(2**53)
    upd = EdgeUpdate(108, z, W)
    for after in (incremental_bc_edge(fast, upd),
                  incremental_bc_edge(full, upd),
                  incremental_bc_vertex(full, VertexUpdate(z, ((108, W),))),
                  incremental_bc_vertex(full, VertexUpdate(108, (), ((z, W),)))):
        assert after.inexact
        assert after.sigma[0][z] == float(2**54)
        fresh = brandes_bc(after.graph, mode=after.mode)
        assert fresh.inexact
        assert after.dist == fresh.dist and after.sigma == fresh.sigma
    # an update that scans source 0 and leaves its largest count at exactly
    # 2**53 stays exact: 108 keeps its count, and 107, now reached more
    # cheaply through 105 alone, drops to 2**52
    limit = static_bc(base)
    kept = incremental_bc_edge(limit, EdgeUpdate(105, 107, W // 2))
    assert max(kept.sigma[0]) == float(2**53) and not kept.inexact
    assert kept.sigma == brandes_bc(kept.graph).sigma


def test_update_to_one_path_beyond_two_to_the_53_is_flagged():
    # inserting the side path's last edge (110, 109) of OVER_BY_ONE gives
    # 109 2**53 + 1 paths, which a double would round to 2**53
    g = layered_doubling_graph(54, 2, OVER_BY_ONE[:2])
    fast, full = brandes_bc(g), brandes_bc(g, mode="full")
    assert not fast.inexact and not full.inexact
    upd = EdgeUpdate(110, 109, 54 * W)
    for after in (incremental_bc_edge(fast, upd),
                  incremental_bc_edge(full, upd),
                  incremental_bc_vertex(full, VertexUpdate(109, ((110, 54 * W),))),
                  incremental_bc_vertex(full, VertexUpdate(110, (), ((109, 54 * W),)))):
        assert after.sigma[0][109] == 2**53 + 1 and after.inexact
        fresh = brandes_bc(after.graph, mode=after.mode)
        assert compare_states(after, fresh, tol=0.0).passed


def test_updates_past_two_to_the_53_equal_a_fresh_build():
    # layer k of a 39-layer tripling graph carries 3**(k-1) paths, past
    # 2**53 from layer 35; a tied shortcut (0, x) of weight k into each
    # vertex x of layers 2-37 adds one path to x and to every vertex after
    # it, so no count stays a power of three; both modes run the same
    # stream, and one fresh full build checks both
    g = layered_graph(39, 3)
    fast, state = brandes_bc(g), brandes_bc(g, mode="full")
    for x in range(4, 3 * 37 + 1):
        upd = EdgeUpdate(0, x, ((x + 2) // 3) * W)
        fast, state = incremental_bc_edge(fast, upd), incremental_bc_edge(state, upd)
        fresh = brandes_bc(state.graph, mode="full")
        assert compare_states(fast, fresh, tol=0.0).passed, x
        assert compare_states(state, fresh, tol=0.0).passed, x
    assert fast.inexact and state.inexact and fresh.inexact
    # vertex events on the full state add tied routes two or three layers
    # long into and out of the middle layers
    for x in (50, 80, 100):
        for upd in (VertexUpdate(x, ((x - 6, 2 * W),)),
                    VertexUpdate(x, (), ((x + 6, 2 * W),)),
                    VertexUpdate(x, ((x - 9, 3 * W),), ((x + 9, 3 * W),))):
            state = incremental_bc_vertex(state, upd)
            fresh = brandes_bc(state.graph, mode="full")
            assert compare_states(state, fresh, tol=0.0).passed, upd


def _slack_entry(g, dist, rng):
    """An edge (u, v) inserted or decreased to a weight above d(u, v): the
    entry test fails, so the phase scans nothing.  None if there is none."""
    cands = [(u, v) for u in range(g.n) for v in range(g.n)
             if u != v and dist[u][v] < INF
             and (g.weight(u, v) or INF) > dist[u][v] + 1]
    if not cands:
        return None
    u, v = rng.choice(cands)
    return u, v, rng.randint(dist[u][v] + 1, min(g.weight(u, v) or INF, 2 * dist[u][v]) - 1)


def _check_carried_matrices(old, new, before):
    # the reversed graph's matrices are the transposes of the state's own;
    # a row (of either orientation) none of whose pairs changed keeps its
    # object, a dist row whose pairs kept their distances too; the old
    # state's rows are untouched
    assert new.rdist == vertex_update.transpose(new.dist)
    assert new.rsigma == vertex_update.transpose(new.sigma)
    assert (old.dist, old.sigma, old.rdist, old.rsigma) == before
    sides = [(new.dist, old.dist, new.sigma, old.sigma)]
    if old.rdist is not None:
        sides.append((new.rdist, old.rdist, new.rsigma, old.rsigma))
    for dist, odist, sigma, osigma in sides:
        for x in range(new.graph.n):
            if dist[x] == odist[x]:
                assert dist[x] is odist[x]
                if sigma[x] == osigma[x]:
                    assert sigma[x] is osigma[x]
    assert compare_states(new, brandes_bc(new.graph, mode="full"), tol=0.0).passed


def test_full_states_carry_the_reversed_graphs_matrices():
    # seeded full-mode streams of every event kind, on directed and
    # undirected graphs, and on the doubling graph past 2**53
    rng = random.Random(131)
    kinds = set()

    def step(state, kind):
        g = state.graph
        if kind == "edge":
            upd = random_edge_update(g, rng)
            return upd and (lambda st: incremental_bc_edge(st, upd))
        if kind == "slack":
            entry = _slack_entry(g, state.dist, rng)
            if entry is None:
                return None
            u, v, w = entry
            if g.undirected:
                return lambda st: incremental_bc_edge(st, EdgeUpdate(u, v, w))
            return lambda st: incremental_bc_vertex(st, VertexUpdate(v, ((u, w),)))
        upd = (random_mirrored_vertex_update(g, rng) if g.undirected
               else random_vertex_update(g, rng, allow_empty_side=kind == "two-sided"))
        if upd is None:
            return None
        if kind == "incoming":
            upd = VertexUpdate(upd.v, upd.incoming, ())
        elif kind == "outgoing":
            upd = VertexUpdate(upd.v, (), upd.outgoing)
        return (upd.incoming or upd.outgoing) and (
            lambda st: incremental_bc_vertex(st, upd))

    def check(state, kind, apply):
        before = copy.deepcopy((state.dist, state.sigma, state.rdist, state.rsigma))
        new = apply(state)
        _check_carried_matrices(state, new, before)
        if kind == "slack" and state.rdist is not None:
            # a phase that scans nothing keeps every list object
            assert all(map(operator.is_, (new.dist, new.sigma, new.rdist, new.rsigma),
                           (state.dist, state.sigma, state.rdist, state.rsigma)))
            kind = "kept"
        kinds.add((kind, state.graph.undirected, state.inexact))
        return new

    every = ["edge", "incoming", "outgoing", "two-sided", "slack"]
    for undirected in (False, True):
        for _ in range(4):
            state = brandes_bc(gnp(rng.choice([9, 12, 14]), rng.choice([0.25, 0.45]),
                                   rng.choice([1, 6]), seed=rng.randrange(10**6),
                                   undirected=undirected), mode="full")
            for kind in every + [rng.choice(every) for _ in range(10)]:
                if undirected and kind in ("incoming", "outgoing"):
                    kind = "two-sided"
                apply = step(state, kind)
                if apply:
                    state = check(state, kind, apply)
    # vertex 0 reaches the last layers of a 60-layer doubling graph along
    # 2**58 tied paths; the events add tied routes into its middle
    state = brandes_bc(layered_doubling_graph(60), mode="full")
    for v in (50, 90, 111):
        for kind, upd in (("incoming", VertexUpdate(v, ((v - 4, 2 * W),))),
                          ("outgoing", VertexUpdate(v, (), ((v + 4, 2 * W),))),
                          ("two-sided", VertexUpdate(v, ((v - 6, 3 * W),),
                                                     ((v + 6, 3 * W),)))):
            state = check(state, kind, lambda st: incremental_bc_vertex(st, upd))
    assert state.inexact and max(state.sigma[0]) > 2**53
    assert {(k, False, False) for k in every[:-1] + ["kept"]} <= kinds
    assert {(k, True, False) for k in ("edge", "two-sided", "kept")} <= kinds
    assert {(k, False, True) for k in ("incoming", "outgoing", "two-sided")} <= kinds


def test_unflipped_phases_read_no_reverse_distance():
    # an edge event runs only unflipped phases, whose reverse repair takes
    # the closer heads from the pair scan's closer lists: a carried rdist
    # of zeros (the transpose of no real state) changes no DAG, count or row
    rng = random.Random(353)
    wrong = []
    for trial in range(30):
        g = gnp(14, rng.choice([0.25, 0.4]), rng.choice([1, 6]),
                seed=rng.randrange(10**6), undirected=trial % 3 == 0)
        state = incremental_bc_edge(brandes_bc(g, mode="full"), random_edge_update(g, rng))
        assert state.rdist is not None
        state = dataclasses.replace(state, rdist=[[0] * g.n for _ in range(g.n)])
        state = incremental_bc_edge(state, random_edge_update(state.graph, rng))
        fresh = brandes_bc(state.graph, mode="full")
        if (state.dags, state.rdags, state.sigma, state.deltas, state.bc) != (
                fresh.dags, fresh.rdags, fresh.sigma, fresh.deltas, fresh.bc):
            wrong.append(trial)
    assert wrong == []
