import itertools
import random
import sys

import pytest

from dynbc import (
    INF,
    accumulate_dependency,
    brandes_bc,
    compare_states,
    counting_dijkstra,
    enumerate_paths_bc,
    gen_graph,
    parse_graph,
    star_stats,
    static_bc,
    topo_order,
)
import dynbc.apsp as apsp
from dynbc.apsp import _bc_pass
from helpers import (OVER_BY_ONE, RESET_TIE, W, build, count_calls, diamond, g1, gnp, k4,
                     layered_doubling_graph, pairwise_estar, path3,
                     shares_edge_tuples)


def dijkstra(g, s):
    return counting_dijkstra(g.adj, s, {})


def test_dijkstra_unique_path():
    r = dijkstra(path3(), 0)
    assert r.dist == [0, W, 2 * W]
    assert r.sigma == [1.0, 1.0, 1.0]
    assert r.dag == {(0, 1), (1, 2)}
    assert r.order == [0, 1, 2]


def test_dijkstra_diamond_counts_two_paths():
    r = dijkstra(diamond(), 0)
    dist, sigma, _ = enumerate_paths_bc(diamond())
    assert r.dist == dist[0]
    assert r.sigma == sigma[0]
    assert r.sigma[3] == 2.0
    assert r.dag == {(0, 1), (0, 2), (1, 3), (2, 3)}


def test_dijkstra_skips_slack_edge():
    r = dijkstra(g1(), 0)
    dist, sigma, _ = enumerate_paths_bc(g1())
    assert r.dist == dist[0] and r.sigma == sigma[0]
    assert r.dist[3] == 4 * W and r.sigma[3] == 2.0
    assert (1, 3) not in r.dag


def test_dijkstra_unreachable_sentinels():
    g = build(3, [(0, 1, 1)])
    r = dijkstra(g, 1)
    assert r.dist == [INF, 0, INF]
    assert r.sigma == [0.0, 1.0, 0.0]
    assert r.order == [1]


def _check_source(g, r):
    n = g.n
    # DAG recomputation identity
    expect = set()
    for u, v, w in g.edges():
        if r.dist[u] < INF and r.dist[u] + w == r.dist[v]:
            expect.add((u, v))
    assert r.dag == expect
    # the predecessor lists hold each DAG edge exactly once
    listed = [(a, b) for b in range(n) for a in r.preds[b]]
    assert len(listed) == len(r.dag) and set(listed) == r.dag
    # path-count consistency and strictly increasing distance along DAG edges
    for a, b in r.dag:
        assert r.dist[a] < r.dist[b]
    for t in range(n):
        if t != r.source and r.dist[t] < INF:
            assert r.sigma[t] == sum(r.sigma[a] for a in r.preds[t])
    # order is topological and nondecreasing in distance
    pos = {v: i for i, v in enumerate(r.order)}
    for a, b in r.dag:
        assert pos[a] < pos[b]
    assert all(r.dist[r.order[i]] <= r.dist[r.order[i + 1]]
               for i in range(len(r.order) - 1))
    # settle order is the (distance, id) order every dependency pass uses
    assert topo_order(r.dist) == r.order


def test_dijkstra_invariants_random():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.choice([4, 6, 9, 14])
        g = gnp(n, rng.choice([0.2, 0.5, 0.9]), rng.choice([1, 3, n * n]),
                seed=rng.randrange(10**6))
        for s in range(n):
            _check_source(g, dijkstra(g, s))


@pytest.mark.parametrize("undirected", [False, True])
def test_dijkstra_over_tight_edges_equals_the_whole_graph(undirected):
    # the lemma static_bc rests on: every edge of a shortest path is tight,
    # w(u, x) = d(u, x), so a search over the tight edges alone counts the
    # same paths and lists the same predecessors in the same order.  At
    # wmax 1 every edge is tight, and paths tie; at wmax 4 and on the
    # complete graph the tight rows lose edges
    graphs = [gnp(n, p, wmax, seed=n, undirected=undirected)
              for n, p in ((8, 0.5), (14, 0.3), (20, 0.2)) for wmax in (1, 4)]
    graphs.append(parse_graph(gen_graph("complete", 9, wmax=5, seed=3, undirected=undirected)))
    cut = []
    for g in graphs:
        whole = [dijkstra(g, s) for s in range(g.n)]
        tight = [[(x, w) for x, w in g.adj[u] if whole[u].dist[x] == w]
                 for u in range(g.n)]
        cut.append(len(g.edges()) - sum(map(len, tight)))
        for s in range(g.n):
            r = counting_dijkstra(tight, s, {})
            assert r == whole[s]
            assert r.examined == sum(len(tight[u]) for u in r.order)
            assert whole[s].examined == sum(len(g.adj[u]) for u in r.order)
    assert cut[:6:2] == [0, 0, 0] and all(cut[1::2]) and cut[-1]


def test_accumulate_diamond_dependencies():
    g = diamond()
    r = dijkstra(g, 0)
    delta = accumulate_dependency(0, r.order, r.sigma, r.preds)
    assert delta == [0.0, 0.5, 0.5, 0.0]
    assert brandes_bc(g).bc == [0.0, 0.5, 0.5, 0.0]


def test_accumulate_single_chain():
    r = dijkstra(path3(), 0)
    delta = accumulate_dependency(0, r.order, r.sigma, r.preds)
    assert delta[1] == 1.0


def test_accumulate_empty_dag_is_all_zero():
    delta = accumulate_dependency(0, [0], [1.0, 0.0], [[], []])
    assert delta == [0.0, 0.0]


def test_accumulate_rejects_zero_count_with_predecessors():
    with pytest.raises(ValueError, match="corrupted"):
        accumulate_dependency(0, [0, 1], [1.0, 0.0], [[], [0]])


def test_accumulate_matches_pair_dependency_sums():
    rng = random.Random(9)
    for _ in range(8):
        g = gnp(7, 0.5, rng.choice([1, 9]), seed=rng.randrange(10**6))
        dist, sigma, _ = enumerate_paths_bc(g)
        for s in range(g.n):
            r = dijkstra(g, s)
            delta = accumulate_dependency(s, r.order, r.sigma, r.preds)
            for v in range(g.n):
                if v == s:
                    continue
                expect = sum(
                    sigma[s][v] * sigma[v][t] / sigma[s][t]
                    for t in range(g.n)
                    if t not in (s, v) and sigma[s][t] > 0
                    and dist[s][v] < INF and dist[v][t] < INF
                    and dist[s][v] + dist[v][t] == dist[s][t])
                assert delta[v] == pytest.approx(expect, abs=1e-9)


def test_brandes_small_examples():
    assert brandes_bc(path3()).bc == [0.0, 1.0, 0.0]
    assert brandes_bc(diamond()).bc == [0.0, 0.5, 0.5, 0.0]
    assert brandes_bc(k4()).bc == [0.0, 0.0, 0.0, 0.0]


def test_brandes_counts_relaxations_and_dag_edges():
    st = brandes_bc(k4())
    assert st.counters.edges_examined == 4 * 12
    assert st.counters.dag_edges_emitted == sum(len(d) for d in st.dags)
    # each search reads the row of every vertex it reaches; sparse gnp
    # graphs leave some vertices unreachable from some sources
    graphs = [k4()] + [gnp(n, p, wmax, seed=n) for n, p, wmax in
                       ((9, 0.15, 3), (16, 0.1, 1), (24, 0.08, 5))]
    for g in graphs:
        st = brandes_bc(g)
        assert st.counters.edges_examined == sum(
            len(g.adj[u]) for row in st.dist for u in range(g.n) if row[u] < INF)
        assert st.counters.dag_edges_emitted == st.fwd_edges
        assert st.counters.pairs_touched == 0
        # full mode adds the reverse DAGs and charges nothing more
        assert brandes_bc(g, "full").counters == st.counters
        assert static_bc(g, "full").counters == static_bc(g).counters
        assert g is graphs[0] or any(INF in row for row in st.dist)


def test_brandes_matches_enumeration():
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice([5, 7, 9])
        g = gnp(n, rng.choice([0.3, 0.7]), rng.choice([1, 5, n * n]),
                seed=rng.randrange(10**6))
        st = brandes_bc(g)
        dist, sigma, bc = enumerate_paths_bc(g)
        assert st.dist == dist and st.sigma == sigma
        assert max(abs(a - b) for a, b in zip(st.bc, bc)) <= 1e-9


def test_full_mode_reverse_dag_duality():
    g = gnp(12, 0.4, 6, seed=8)
    st = brandes_bc(g, mode="full")
    for x in range(g.n):
        expect = set()
        for u, v, w in g.edges():
            if st.dist[v][x] < INF and st.dist[u][x] == st.dist[v][x] + w:
                expect.add((v, u))
        assert st.rdags[x] == expect


def test_unknown_mode_runs_no_search(monkeypatch):
    # _built checks the mode before it draws the first search
    calls = count_calls(monkeypatch, apsp, "counting_dijkstra")
    g = gnp(8, 0.4, 3, seed=1)
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        brandes_bc(g, "fast")
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        static_bc(g, "bogus")
    assert calls == []
    brandes_bc(g)
    assert len(calls) == g.n


def test_static_equals_brandes_bitwise():
    rng = random.Random(23)
    graphs = []
    for _ in range(12):
        n = rng.choice([6, 10, 16])
        und = rng.random() < 0.5
        graphs.append(gnp(n, rng.choice([0.2, 0.6]), rng.choice([1, 4, n * n]),
                          seed=rng.randrange(10**6), undirected=und))
    # complete graphs: at wmax 1 every edge is a shortest path, so phase 1
    # of static_bc cuts no row; at wmax n*n most rows are cut
    for n in (7, 16):
        for wmax in (1, n * n):
            for und in (False, True):
                graphs.append(parse_graph(gen_graph("complete", n, wmax=wmax,
                                                    seed=n + wmax, undirected=und)))
    # counts past 2**53: 2**53 + 1 paths to vertex 109
    graphs.append(layered_doubling_graph(54, 2, OVER_BY_ONE))
    for g in graphs:
        a = brandes_bc(g)
        b = static_bc(g)
        assert a.dist == b.dist
        assert a.sigma == b.sigma
        assert a.dags == b.dags
        assert a.bc == b.bc
        assert compare_states(a, b, tol=0.0).passed
        assert b.rdags is None and b.rev_edges == 0
        # full mode: the same build plus the reverse DAGs and their total
        a, b = brandes_bc(g, "full"), static_bc(g, "full")
        assert (a.dist, a.sigma, a.dags, a.rdags) == (b.dist, b.sigma, b.dags, b.rdags)
        assert [r.tobytes() for r in a.deltas] == [r.tobytes() for r in b.deltas]
        assert list(map(float.hex, a.bc)) == list(map(float.hex, b.bc))
        assert (a.fwd_edges, a.rev_edges, a.inexact) == (b.fwd_edges, b.rev_edges, b.inexact)
        assert b.rev_edges == sum(map(len, b.rdags)) and b.mode == "full"
    assert graphs[-1].n == 111 and b.inexact
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        static_bc(graphs[0], "bogus")
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        brandes_bc(graphs[0], "fast")


def test_stored_dag_pass_matches_build_rows_bitwise():
    # brandes_bc and static_bc accumulate from their own predecessor lists;
    # the updates rerun _bc_pass from the stored DAG, and all three routes
    # must give the same bits
    rng = random.Random(29)
    for _ in range(10):
        n = rng.choice([6, 11, 18])
        g = gnp(n, rng.choice([0.2, 0.5, 0.9]), rng.choice([1, 3, n * n]),
                seed=rng.randrange(10**6), undirected=rng.random() < 0.5)
        for st in (brandes_bc(g), static_bc(g)):
            for s in range(n):
                row = _bc_pass(s, st.dags[s], st.dist[s], st.sigma[s])
                assert row.tobytes() == st.deltas[s].tobytes()


@pytest.mark.parametrize("undirected", [False, True])
def test_builds_share_one_tuple_per_edge_and_orientation(undirected):
    # every forward DAG of a build reads one table of edge tuples, and every
    # reverse DAG another
    graphs = [gnp(14, 0.25, 3, seed=4, undirected=undirected),
              gnp(24, 0.15, 1, seed=6, undirected=undirected),
              parse_graph(gen_graph("complete", 10, wmax=6, seed=2, undirected=undirected))]
    for g in graphs:
        full = brandes_bc(g, mode="full")
        static_full = static_bc(g, "full")
        for st in (brandes_bc(g), full, static_bc(g), static_full):
            assert shares_edge_tuples(st.dags)
        assert shares_edge_tuples(full.rdags)
        assert shares_edge_tuples(static_full.rdags)


@pytest.mark.parametrize("plain", [False, True])
def test_column_sum_routes_are_the_left_fold(monkeypatch, plain):
    # both routes of _column_sum add each column from 0.0 in row order: on
    # rows with 0.0 entries, on rows where a compensated sum would differ
    # (1e16 + 1.0 + 1.0), and on a built state's rows
    if plain and sys.version_info >= (3, 12):
        pytest.skip("sum() compensates float sums from Python 3.12")
    monkeypatch.setattr(apsp, "_PLAIN_SUM", plain)

    def fold(rows):
        out = [0.0] * len(rows[0])
        for row in rows:
            out = [a + b for a, b in zip(out, row)]
        return out

    rows = [[0.0, 1e16, 0.1, 0.0], [0.0, 1.0, 0.2, 0.0], [0.5, 1.0, 0.3, 0.0]]
    st = brandes_bc(gnp(18, 0.2, 3, seed=12))
    for deltas in (rows, st.deltas):
        got = apsp._column_sum(deltas)
        assert list(map(float.hex, got)) == list(map(float.hex, fold(deltas)))
    assert apsp._column_sum(rows)[1] == 1e16
    assert apsp._column_sum(st.deltas) == st.bc


def test_static_counts_one_search_per_source():
    # each source charges its search over the shrinking rows plus the rows
    # it cuts; the build attaches no per-operation report
    for g, examined, emitted in ((g1(), 12, 6), (diamond(), 10, 6), (path3(), 5, 3)):
        st = static_bc(g)
        assert st.counters.edges_examined == examined
        assert st.counters.dag_edges_emitted == emitted
        assert st.report is None


def test_star_stats_examples():
    st = brandes_bc(path3())
    stats = star_stats(st)
    assert stats.m_star == 2
    assert stats.per_vertex == [2, 2, 2]
    assert stats.m_star_avg == pytest.approx(2.0)
    assert stats.dag_sizes == [2, 1, 0]

    edgeless = build(3, [])
    assert star_stats(brandes_bc(edgeless)).m_star == 0


def test_star_stats_g1_counts_every_tight_edge():
    g = g1()
    st = brandes_bc(g)
    stats = star_stats(st)
    dist, _, _ = enumerate_paths_bc(g)
    estar = pairwise_estar(g, dist)
    assert stats.m_star == len(estar) == 5


def test_star_union_equals_pairwise_estar_random():
    rng = random.Random(31)
    for _ in range(8):
        g = gnp(8, 0.5, rng.choice([1, 12]), seed=rng.randrange(10**6))
        st = brandes_bc(g)
        dist, _, _ = enumerate_paths_bc(g)
        assert set().union(*st.dags) == pairwise_estar(g, dist)


def test_inexact_flag_trips_beyond_exact_float_counts():
    # layer k carries 2**(k-1) tied shortest paths
    ok = brandes_bc(layered_doubling_graph(50))
    assert not ok.inexact
    assert ok.sigma[0][2 * 50] == float(2**49)
    over = brandes_bc(layered_doubling_graph(56))
    assert over.inexact
    assert not static_bc(layered_doubling_graph(50)).inexact
    # a largest count of exactly 2**53 is still exact
    limit = static_bc(layered_doubling_graph(54))
    assert max(limit.sigma[0]) == float(2**53) and not limit.inexact
    assert static_bc(layered_doubling_graph(56)).inexact


def test_inexact_flag_reads_the_exact_final_counts():
    # 2**53 + 1 paths, which a double rounds to 2**53, trip the flag; a
    # tied count that passes 2**53 before a shorter path resets it does not
    over = layered_doubling_graph(54, 2, OVER_BY_ONE)
    reset = layered_doubling_graph(54, 2, RESET_TIE)
    for builder, mode in itertools.product((brandes_bc, static_bc), ("edge-fast", "full")):
        st = builder(over, mode)
        assert st.sigma[0][109] == 2**53 + 1 and st.inexact
        st = builder(reset, mode)
        assert st.sigma[0][109] == 1 and max(st.sigma[0]) == 2**53
        assert not st.inexact


def test_bc_pass_rejects_edges_that_do_not_increase_distance():
    # the fold's order is topological only when every DAG edge moves
    # farther from the source: an edge between equidistant vertices, or a
    # 2-cycle, means the state is corrupted
    with pytest.raises(ValueError, match="corrupted"):
        _bc_pass(0, {(0, 1), (0, 2), (1, 2)}, [0, W, W], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="corrupted"):
        _bc_pass(0, {(0, 1), (1, 2), (2, 1)}, [0, W, 2 * W], [1.0, 1.0, 1.0])
    # a DAG head with no path would divide by zero in the fold
    with pytest.raises(ValueError, match="corrupted"):
        _bc_pass(0, {(0, 1), (1, 2)}, [0, W, 2 * W], [1.0, 1.0, 0.0])


def test_dense_random_graph_has_sparse_shortest_path_set():
    g = parse_graph(gen_graph("complete", 64, wmax=64 * 64, seed=1))
    st = static_bc(g)
    stats = star_stats(st)
    assert stats.m_star < g.m / 4
