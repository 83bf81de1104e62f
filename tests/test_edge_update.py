import copy
import dataclasses
import random

import pytest

from dynbc import (
    DIST_LIMIT,
    EdgeUpdate,
    PairFlag,
    UpdateError,
    brandes_bc,
    classify_pair,
    classify_pairs,
    compare_states,
    derive_rdags,
    gen_graph,
    incremental_bc_edge,
    parse_graph,
    serialize_graph,
    update_dag,
)
import dynbc.edge_update as edge_update
from helpers import (
    W,
    apply_random_event,
    build,
    count_calls,
    diamond,
    g1,
    gnp,
    in_edges,
    random_edge_update,
    shares_edge_tuples,
)


def _phase(upd):
    """The one-phase (v, entries) arguments of a directed edge update."""
    return upd.v, ((upd.u, upd.weight),)


def _radj(st, upd):
    """The in-rows of the graph after a directed edge update."""
    return st.graph.with_updates([(upd.u, upd.v, upd.weight)]).radj


def test_classify_gains_a_tied_route():
    st = brandes_bc(g1())
    d, sig, flag = classify_pair(0, 3, st, EdgeUpdate(1, 3, 3 * W))
    assert (d, sig, flag) == (4 * W, 3.0, PairFlag.NUM_CHANGED)


def test_classify_shortens_a_pair():
    st = brandes_bc(diamond())
    d, sig, flag = classify_pair(0, 3, st, EdgeUpdate(0, 1, W // 2))
    assert (d, sig, flag) == (3 * W // 2, 1.0, PairFlag.WT_CHANGED)


def test_classify_pairs_into_tail_and_out_of_head_unchanged():
    st = brandes_bc(g1())
    upd = EdgeUpdate(1, 3, 3 * W)
    for s in range(4):
        d, sig, flag = classify_pair(s, upd.u, st, upd)
        assert flag is PairFlag.UNCHANGED
        assert d == st.dist[s][upd.u] and sig == st.sigma[s][upd.u]
    for t in range(4):
        _, _, flag = classify_pair(upd.v, t, st, upd)
        assert flag is PairFlag.UNCHANGED


def test_classify_bulk_matches_single_pair():
    rng = random.Random(2)
    for _ in range(10):
        g = gnp(9, 0.4, rng.choice([1, 8]), seed=rng.randrange(10**6))
        upd = random_edge_update(g, rng)
        if upd is None:
            continue
        st = brandes_bc(g)
        fm = classify_pairs(st.dist, st.sigma, *_phase(upd))
        changed, closer = {}, {}
        for s in range(g.n):
            for t in range(g.n):
                d, sig, flag = classify_pair(s, t, st, upd)
                assert fm.dist[s][t] == d
                assert fm.sigma[s][t] == sig
                if flag is not PairFlag.UNCHANGED:
                    changed.setdefault(s, []).append(t)
                    closer.setdefault(s, [])
                if flag is PairFlag.WT_CHANGED:
                    closer[s].append(t)
        assert list(fm.changed.items()) == list(changed.items())
        assert list(fm.closer.items()) == list(closer.items())


def test_classify_pairs_bounds_each_phase_by_its_entries(monkeypatch):
    # every phase of seeded streams, vertex events' flipped phases included:
    # only entries with w' <= d(u, v) scan, a scanned row flags only the
    # targets t with w' + d(v, t) <= d(u, t) for such an entry, and a
    # phase with no such entry hands back its input lists
    phases = []
    real = edge_update.classify_pairs

    def recording(dist, sigma, v, entries):
        out = real(dist, sigma, v, entries)
        phases.append((dist, sigma, v, entries, out))
        return out

    monkeypatch.setattr(edge_update, "classify_pairs", recording)
    rng = random.Random(71)
    for _ in range(12):
        n = rng.randrange(8, 25)
        g = gnp(n, rng.choice([0.2, 0.5]), rng.choice([1, 9]),
                seed=rng.randrange(10**6), undirected=rng.random() < 0.4)
        for mode in ("edge-fast", "full"):
            st = brandes_bc(g, mode=mode)
            for _ in range(6):
                st = apply_random_event(st, rng) or st
    idle = 0
    for dist, sigma, v, entries, fm in phases:
        live = [(u, w) for u, w in entries if w <= dist[u][v]]
        n = len(dist)
        assert list(fm.changed) == [s for s in range(n) if any(
            dist[s][u] + w <= dist[s][v] for u, w in entries)]
        assert fm.closer.keys() == fm.changed.keys()
        assert fm.targets == [t for t in range(n)
                              if any(w + dist[v][t] <= dist[u][t] for u, w in live)]
        if not live:
            assert fm.dist is dist and fm.sigma is sigma and not fm.targets
            idle += 1
        for s in range(n):
            cols, closer = fm.changed.get(s, []), fm.closer.get(s, [])
            # ascending targets, v among them exactly when s is scanned
            assert cols == sorted(set(cols) & set(fm.targets))
            assert (v in cols) == (s in fm.changed)
            assert closer == [t for t in cols if fm.dist[s][t] < dist[s][t]]
            # a dist row is copied exactly when one of its pairs got closer
            assert (fm.dist[s] is dist[s]) == (not closer)
    assert 0 < idle < len(phases)


def test_classify_pairs_copies_only_dist_rows_that_get_closer():
    # (1, 3) at 3: source 0 gains a route of its old length 4 to 3, and
    # source 1 gets closer (5 -> 3); both are scanned, and only 1's dist
    # row is a new object, while both sigma rows are
    st = brandes_bc(g1())
    fm = classify_pairs(st.dist, st.sigma, 3, ((1, 3 * W),))
    assert fm.changed == {0: [3], 1: [3]} and fm.closer == {0: [], 1: [3]}
    assert fm.dist[0] is st.dist[0] and fm.dist[1] is not st.dist[1]
    assert fm.dist[1][3] == 3 * W and st.dist[1][3] == 5 * W
    assert fm.sigma[0] is not st.sigma[0] and fm.sigma[1] is not st.sigma[1]


def test_update_dag_diamond_rebuild():
    st = brandes_bc(diamond())
    upd = EdgeUpdate(0, 1, W // 2)
    fm = classify_pairs(st.dist, st.sigma, *_phase(upd))
    h = update_dag(0, upd.v, fm, st.dags[0], in_edges(st.dags[1], fm.targets), _radj(st, upd))
    assert h == {(0, 2), (1, 3), (0, 1)}


def test_update_dag_source_is_edge_head():
    # the head v is never scanned, as d(v, u) + w' > 0 = d(v, v), so the
    # update keeps its DAG object
    st = brandes_bc(diamond())
    upd = EdgeUpdate(0, 1, W // 2)
    fm = classify_pairs(st.dist, st.sigma, *_phase(upd))
    assert 1 not in fm.changed
    assert incremental_bc_edge(st, upd).dags[1] is st.dags[1]


def test_update_dag_identity_when_nothing_changes():
    # diamond plus a slack direct edge; decreasing it to 3 leaves every
    # pair untouched (the two-hop route still wins at 2)
    g = build(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 3, 5)])
    st = brandes_bc(g)
    upd = EdgeUpdate(0, 3, 3 * W)
    fm = classify_pairs(st.dist, st.sigma, *_phase(upd))
    assert not fm.changed and not fm.closer
    new = incremental_bc_edge(st, upd)
    assert all(h is dag for h, dag in zip(new.dags, st.dags))


def test_edge_update_diamond_shifts_bc():
    st = brandes_bc(diamond())
    new = incremental_bc_edge(st, EdgeUpdate(0, 1, W // 2))
    assert new.bc == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=1e-9)
    assert compare_states(new, brandes_bc(new.graph), tol=0.0).passed


def test_edge_update_adds_third_route():
    st = brandes_bc(g1())
    new = incremental_bc_edge(st, EdgeUpdate(1, 3, 3 * W))
    assert new.bc[1] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert new.bc[2] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert new.sigma[0][3] == 3.0
    assert compare_states(new, brandes_bc(new.graph), tol=0.0).passed


def test_edge_update_noop_when_edge_stays_slack():
    g = build(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1), (0, 3, 5)])
    st = brandes_bc(g)
    new = incremental_bc_edge(st, EdgeUpdate(0, 3, 3 * W))
    assert new.dist == st.dist and new.sigma == st.sigma
    assert new.dags == st.dags
    assert new.bc == st.bc
    assert new.graph.weight(0, 3) == 3 * W


def test_edge_update_on_sole_route_still_shortens_its_own_pair():
    # 1 -> 3 has no alternative, so decreasing it always tightens (1, 3)
    # even though no pair dependency (and hence no BC value) moves
    st = brandes_bc(g1())
    new = incremental_bc_edge(st, EdgeUpdate(1, 3, 4_900_000))
    assert new.dist[1][3] == 4_900_000
    assert new.bc == st.bc
    assert compare_states(new, brandes_bc(new.graph), tol=0.0).passed


@pytest.mark.parametrize("upd,fragment", [
    (EdgeUpdate(1, 3, 5 * W), "strictly decrease"),
    (EdgeUpdate(1, 3, 6 * W), "strictly decrease"),
    (EdgeUpdate(1, 1, W), "self-loop"),
    (EdgeUpdate(0, 9, W), "out of range"),
    (EdgeUpdate(0, 1, 0), "positive"),
    (EdgeUpdate(9, 0, W), "out of range"),
    (EdgeUpdate(0, 1, -W), "positive"),
    (EdgeUpdate(3, 0, DIST_LIMIT // 4 + 1), "overflow"),
    (EdgeUpdate(0, 1, 1.5), "non-integer"),
])
def test_edge_update_validation(upd, fragment):
    for mode in ("edge-fast", "full"):
        st = brandes_bc(g1(), mode=mode)
        before = copy.deepcopy(st)
        with pytest.raises(UpdateError, match=fragment):
            incremental_bc_edge(st, upd)
        assert st == before and st.graph.adj == before.graph.adj


def test_insertion_behaves_as_decrease_from_infinity():
    g = build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    st = brandes_bc(g)
    new = incremental_bc_edge(st, EdgeUpdate(0, 3, 3 * W))
    fresh = brandes_bc(new.graph)
    assert compare_states(new, fresh, tol=0.0).passed
    assert new.sigma[0][3] == 2.0


def test_update_leaves_tail_column_and_head_row_bitwise_unchanged():
    rng = random.Random(13)
    for _ in range(20):
        g = gnp(10, 0.4, rng.choice([1, 9, 100]), seed=rng.randrange(10**6))
        upd = random_edge_update(g, rng)
        if upd is None:
            continue
        st = brandes_bc(g)
        new = incremental_bc_edge(st, upd)
        for x in range(g.n):
            assert new.dist[x][upd.u] == st.dist[x][upd.u]
            assert new.sigma[x][upd.u] == st.sigma[x][upd.u]
            assert new.dist[upd.v][x] == st.dist[upd.v][x]
            assert new.sigma[upd.v][x] == st.sigma[upd.v][x]
        assert new.dags[upd.v] == st.dags[upd.v]


def test_edge_update_work_is_exactly_the_dag_scans():
    # a directed update is one phase; an undirected one adds the phase of
    # the twin, charged from the totals before it
    rng = random.Random(29)
    for undirected in (False, True):
        checked = 0
        for _ in range(10):
            g = gnp(12, 0.5, rng.choice([1, 20]), seed=rng.randrange(10**6),
                    undirected=undirected)
            upd = random_edge_update(g, rng, insert_prob=0.0)
            if upd is None:
                continue
            st = brandes_bc(g)
            rep = incremental_bc_edge(st, upd).report
            charge = rep.dag_sum_pre + g.n * rep.dag_v_pre + g.n
            if undirected:
                charge += rep.dag_sum_mid + g.n * rep.dag_v_mid + g.n
            assert rep.edges_examined == charge
            checked += 1
        assert checked >= 8


def test_slack_decrease_scans_nothing_and_charges_as_before(monkeypatch):
    # w' > d(u, v) fails the entry test: no source gets the distance-to-v
    # fold or a forward repair, while the paper's charges stay whole.  An
    # undirected update runs two such phases, at v and then at u (its
    # twin (v, u) is as slack), and neither scans a source either.
    folds = count_calls(monkeypatch, edge_update, "_dist_to_v")
    repairs = count_calls(monkeypatch, edge_update, "update_dag")
    scans = count_calls(monkeypatch, edge_update, "classify_pairs")
    for undirected in (False, True):
        g = parse_graph(gen_graph("complete", 10, wmax=100, seed=5, undirected=undirected))
        st = brandes_bc(g)
        u, v, w = next((u, v, w) for u, v, w in g.edges() if w > st.dist[u][v] + 1)
        scans.clear()
        new = incremental_bc_edge(st, EdgeUpdate(u, v, w - 1))
        phases = (v, u) if undirected else (v,)
        assert not folds and not repairs and len(scans) == len(phases)
        # every matrix, and so every row, is the input's object
        for name in ("dist", "sigma", "dags", "deltas", "bc"):
            assert getattr(new, name) is getattr(st, name), name
        assert new.rdags is None and new.rdist is None and new.rsigma is None
        # the graph copies only the out-rows and in-rows it patched
        assert [new.graph.adj[x] is g.adj[x] for x in range(g.n)] == [
            x not in (u, v) if undirected else x != u for x in range(g.n)]
        assert [new.graph.radj[x] is g.radj[x] for x in range(g.n)] == [
            x not in (u, v) if undirected else x != v for x in range(g.n)]
        fwd, n = sum(map(len, st.dags)), g.n
        delta = {f.name: getattr(new.counters, f.name) - getattr(st.counters, f.name)
                 for f in dataclasses.fields(new.counters)}
        assert delta["edges_examined"] == sum(fwd + n * (len(st.dags[x]) + 1)
                                              for x in phases)
        assert delta["pairs_touched"] == len(phases) * n * n
        assert delta["dag_edges_emitted"] == len(phases) * fwd
        assert (new.report.edges_examined, new.report.pairs_touched) == (
            delta["edges_examined"], delta["pairs_touched"])


def test_edge_update_randomized_both_modes():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.choice([6, 9, 14])
        g = gnp(n, rng.choice([0.25, 0.6]), rng.choice([1, 7, n * n]),
                seed=rng.randrange(10**6))
        upd = random_edge_update(g, rng)
        if upd is None:
            continue
        for mode in ("edge-fast", "full"):
            st = brandes_bc(g, mode=mode)
            new = incremental_bc_edge(st, upd)
            fresh = brandes_bc(new.graph, mode=mode)
            assert compare_states(new, fresh, tol=0.0).passed


@pytest.mark.parametrize("undirected", [False, True])
def test_updates_keep_one_tuple_per_edge(undirected):
    # survivors and the DAG rooted at v bring their tuples along; an
    # updated edge joins every DAG it now lies on as one tuple per phase
    rng = random.Random(41)
    st = brandes_bc(gnp(20, 0.15, 6, seed=9, undirected=undirected))
    spread = 0
    for _ in range(40):
        upd = random_edge_update(st.graph, rng)
        st = incremental_bc_edge(st, upd)
        assert shares_edge_tuples(st.dags)
        spread += sum((upd.u, upd.v) in dag for dag in st.dags) > 1
    assert spread >= 10


def test_full_mode_edge_update_keeps_reverse_dags_current():
    g = gnp(10, 0.5, 9, seed=44)
    upd = random_edge_update(g, random.Random(1), insert_prob=0.0)
    st = brandes_bc(g, mode="full")
    new = incremental_bc_edge(st, upd)
    assert new.rdags == derive_rdags(new.graph, new.dist)


def test_undirected_update_on_path_keeps_bc():
    g = build(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)], undirected=True)
    for mode in ("edge-fast", "full"):
        st = brandes_bc(g, mode=mode)
        assert st.bc == [0.0, 2.0, 0.0]
        new = incremental_bc_edge(st, EdgeUpdate(0, 1, W // 2))
        assert new.bc == pytest.approx([0.0, 2.0, 0.0], abs=1e-9)
        assert new.graph.weight(0, 1) == W // 2 and new.graph.weight(1, 0) == W // 2
        assert compare_states(new, brandes_bc(new.graph, mode=mode), tol=0.0).passed
        # an insertion sets both twins: m = 6 in the state and in its text
        new = incremental_bc_edge(st, EdgeUpdate(0, 2, W))
        assert new.graph.m == 6
        assert new.graph.weight(0, 2) == new.graph.weight(2, 0) == W
        text = serialize_graph(new.graph)
        assert parse_graph(text) == new.graph and serialize_graph(parse_graph(text)) == text
        assert compare_states(new, brandes_bc(new.graph, mode=mode), tol=0.0).passed


def test_undirected_update_rejects_non_strict():
    tri = [(0, 1, 1), (1, 2, 1), (0, 2, 1)]
    g = build(3, tri + [(v, u, w) for u, v, w in tri], undirected=True)
    st = brandes_bc(g)
    with pytest.raises(UpdateError, match="strictly decrease"):
        incremental_bc_edge(st, EdgeUpdate(0, 1, W))


def test_undirected_randomized_updates():
    rng = random.Random(53)
    for _ in range(15):
        n = rng.choice([5, 8, 12])
        g = gnp(n, rng.choice([0.3, 0.7]), rng.choice([1, 11]),
                seed=rng.randrange(10**6), undirected=True)
        upd = random_edge_update(g, rng)
        if upd is None:
            continue
        for mode in ("edge-fast", "full"):
            st = brandes_bc(g, mode=mode)
            new = incremental_bc_edge(st, upd)
            assert new.graph.weight(upd.u, upd.v) == new.graph.weight(upd.v, upd.u)
            assert parse_graph(serialize_graph(new.graph)) == new.graph
            assert compare_states(new, brandes_bc(new.graph, mode=mode),
                                  tol=0.0).passed
