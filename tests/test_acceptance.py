"""End-to-end acceptance suite.

Runs the full contract: static equivalence across the three BC routes,
randomized incremental edge/vertex correctness against from-scratch
recomputation, stream soundness, counter-level work bounds, and the
sparse shortest-path-edge phenomenon on dense random graphs.  Each check
prints one ``acceptance <name>: pass`` line on success.
"""

import math
import random
import time
from dataclasses import dataclass

import pytest

from dynbc import (
    EdgeUpdate,
    OracleReport,
    UpdateReport,
    brandes_bc,
    classify_pair,
    classify_pair_vertex,
    compare_states,
    enumerate_paths_bc,
    gen_graph,
    incremental_bc_edge,
    incremental_bc_vertex,
    parse_graph,
    star_stats,
    static_bc,
)
from helpers import (
    W,
    apply_random_event,
    every_candidate_vertex_update,
    gnp,
    random_edge_update,
    random_mirrored_vertex_update,
    random_vertex_update,
)

PS = (0.1, 0.3, 0.8)


def _wmax_cycle(n, i):
    return (1, 10, n * n)[i % 3]


def _corpus(counts):
    """Seeded gnp corpus: cycles p, directedness, and weight scale."""
    out = []
    seed = 1000
    for n, total in counts.items():
        for i in range(total):
            seed += 1
            out.append((n, PS[i % 3], (i // 3) % 2 == 1, _wmax_cycle(n, i // 6), seed))
    return out


# ---------------------------------------------------------------------------
# static equivalence

def test_static_equivalence():
    start = time.monotonic()
    graphs = _corpus({8: 70, 16: 18, 32: 6, 64: 6})
    assert len(graphs) == 100
    enum_checked = 0
    for n, p, und, wmax, seed in graphs:
        g = gnp(n, p, wmax, seed=seed, undirected=und)
        a = brandes_bc(g)
        b = static_bc(g)
        assert [f"{x:.12f}" for x in a.bc] == [f"{x:.12f}" for x in b.bc]
        assert a.dist == b.dist and a.sigma == b.sigma and a.dags == b.dags
        if n <= 10:
            dist, sigma, bc = enumerate_paths_bc(g)
            assert a.dist == dist and a.sigma == sigma
            assert max(abs(x - y) for x, y in zip(a.bc, bc)) <= 1e-9
            enum_checked += 1
    elapsed = time.monotonic() - start
    assert enum_checked == 70
    assert elapsed < 30.0, f"static equivalence took {elapsed:.1f}s"
    print(f"acceptance static-equivalence: pass ({elapsed:.1f}s, 100 graphs)")


# ---------------------------------------------------------------------------
# incremental edge correctness (shared with the work-bound check)

@dataclass
class EdgeTrial:
    n: int
    undirected: bool
    ok_fast: OracleReport
    ok_full: OracleReport
    rep_fast: UpdateReport
    rep_full: UpdateReport
    endpoint_invariance: bool


def _endpoint_invariance(old, new, upd):
    n = old.graph.n
    for x in range(n):
        if (new.dist[x][upd.u] != old.dist[x][upd.u]
                or new.sigma[x][upd.u] != old.sigma[x][upd.u]
                or new.dist[upd.v][x] != old.dist[upd.v][x]
                or new.sigma[upd.v][x] != old.sigma[upd.v][x]):
            return False
    return True


@pytest.fixture(scope="module")
def edge_trials():
    rng = random.Random(20_240_001)
    counts = {8: 260, 16: 140, 32: 70, 64: 30}
    records = []
    start = time.monotonic()
    for n, total in counts.items():
        per_graph = 10
        graphs = (total + per_graph - 1) // per_graph
        done = 0
        gi = 0
        while done < total:
            gi += 1
            und = gi % 5 == 0
            p = PS[gi % 3]
            wmax = _wmax_cycle(n, gi)
            g = gnp(n, p, wmax, seed=7000 + 97 * n + gi, undirected=und)
            base_fast = brandes_bc(g)
            base_full = brandes_bc(g, mode="full")
            for _ in range(min(per_graph, total - done)):
                upd = random_edge_update(g, rng)
                if upd is None:
                    break
                new_fast = incremental_bc_edge(base_fast, upd)
                new_full = incremental_bc_edge(base_full, upd)
                # two-sided updates touch both directions
                invariance = und or _endpoint_invariance(base_fast, new_fast, upd)
                ok_fast = compare_states(new_fast, brandes_bc(new_fast.graph), tol=0.0)
                ok_full = compare_states(
                    new_full, brandes_bc(new_full.graph, mode="full"), tol=0.0)
                records.append(EdgeTrial(n, und, ok_fast, ok_full,
                                         new_fast.report, new_full.report,
                                         invariance))
                done += 1
            assert gi < graphs * 40, "update generation stalled"
    return {"records": records, "elapsed": time.monotonic() - start}


def test_incremental_edge_correctness(edge_trials):
    records = edge_trials["records"]
    assert len(records) >= 500
    for rec in records:
        assert rec.ok_fast.passed, rec
        assert rec.ok_full.passed, rec
    elapsed = edge_trials["elapsed"]
    assert elapsed < 120.0, f"edge trials took {elapsed:.1f}s"
    print(f"acceptance edge-update-correctness: pass "
          f"({len(records)} trials, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# incremental vertex correctness (shared with the work-bound check)

@dataclass
class VertexTrial:
    n: int
    undirected: bool
    ok: OracleReport
    rep: UpdateReport
    fwd_edges_post: int
    rev_edges_post: int
    rdags_are_reversed_graph_dags: bool


@pytest.fixture(scope="module")
def vertex_trials():
    rng = random.Random(20_240_002)
    counts = {8: 160, 16: 80, 32: 40, 64: 20}
    records = []
    start = time.monotonic()
    for n, total in counts.items():
        done = 0
        gi = 0
        while done < total:
            gi += 1
            und = gi % 6 == 0
            g = gnp(n, PS[gi % 3], _wmax_cycle(n, gi), seed=8000 + 131 * n + gi,
                    undirected=und)
            base = brandes_bc(g, mode="full")
            for _ in range(5):
                if done >= total:
                    break
                if und:
                    upd = random_mirrored_vertex_update(g, rng)
                else:
                    upd = random_vertex_update(g, rng)
                if upd is None:
                    break
                new = incremental_bc_vertex(base, upd)
                ok = compare_states(new, brandes_bc(new.graph, mode="full"), tol=0.0)
                records.append(VertexTrial(
                    n, und, ok, new.report,
                    sum(len(d) for d in new.dags),
                    sum(len(d) for d in new.rdags),
                    new.rdags == brandes_bc(new.graph.reverse()).dags))
                done += 1
            assert gi < 500, "update generation stalled"
    return {"records": records, "elapsed": time.monotonic() - start}


def test_incremental_vertex_correctness(vertex_trials):
    records = vertex_trials["records"]
    assert len(records) >= 300
    for rec in records:
        assert rec.ok.passed, rec
    elapsed = vertex_trials["elapsed"]
    assert elapsed < 120.0, f"vertex trials took {elapsed:.1f}s"
    print(f"acceptance vertex-update-correctness: pass "
          f"({len(records)} trials, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# sequential streams

def test_stream_soundness():
    start = time.monotonic()
    for stream_id in range(20):
        rng = random.Random(30_000 + stream_id)
        g = gnp(32, PS[stream_id % 3], _wmax_cycle(32, stream_id),
                seed=40_000 + stream_id)
        state = brandes_bc(g, mode="full")
        # states share unchanged rows with their predecessors, so an update
        # that wrote into a shared row would corrupt the previous state
        prev, prev_fresh = state, brandes_bc(g, mode="full")
        prev_adj = [row[:] for row in g.adj]
        events = 0
        while events < 50:
            if rng.random() < 0.5:
                upd = random_edge_update(state.graph, rng)
                if upd is None:
                    continue
                state = incremental_bc_edge(state, upd)
            else:
                upd = random_vertex_update(state.graph, rng, kmax=2)
                if upd is None:
                    continue
                state = incremental_bc_vertex(state, upd)
            events += 1
            fresh = brandes_bc(state.graph, mode="full")
            rep = compare_states(state, fresh, tol=0.0)
            assert rep.passed, (stream_id, events, rep)
            rep = compare_states(prev, prev_fresh, tol=0.0)
            assert rep.passed and prev.graph.adj == prev_adj, (stream_id, events, rep)
            prev, prev_fresh = state, fresh
            prev_adj = [row[:] for row in state.graph.adj]
    elapsed = time.monotonic() - start
    assert elapsed < 180.0, f"streams took {elapsed:.1f}s"
    print(f"acceptance stream-soundness: pass (20 streams x 50 events, {elapsed:.1f}s)")


def test_incremental_bc_is_bitwise_a_fresh_build():
    """Updates accumulate dependencies in the order a fresh build settles
    vertices, so while path counts are exact an incremental state's BC is
    bit-identical to a fresh brandes_bc, not merely close to it."""
    start = time.monotonic()
    states = 0
    for stream_id in range(8):
        rng = random.Random(60_000 + stream_id)
        mode = ("edge-fast", "full")[stream_id % 2]
        und = stream_id % 4 >= 2
        state = brandes_bc(gnp(24, PS[stream_id % 3], _wmax_cycle(24, stream_id),
                               seed=61_000 + stream_id, undirected=und), mode=mode)
        events = 0
        while events < 20:
            new = apply_random_event(state, rng)
            if new is None:
                continue
            state = new
            events += 1
            assert not state.inexact
            assert state.bc == brandes_bc(state.graph, mode=state.mode).bc, (
                stream_id, events)
            states += 1
    elapsed = time.monotonic() - start
    print(f"acceptance incremental-bc-bitwise: pass ({states} states, {elapsed:.1f}s)")


@pytest.mark.parametrize("mode", ["edge-fast", "full"])
def test_long_stream_soak(mode):
    """1000 mixed events at n=64: every 50th state must equal a fresh build,
    and after every event the last checked state is compared with its fresh
    build again, so an update that writes into a set or row it shares with
    an earlier state fails."""
    start = time.monotonic()
    rng = random.Random(70_000)
    state = brandes_bc(gnp(64, 0.1, 8, seed=71_000), mode=mode)
    checked, checked_fresh = state, brandes_bc(state.graph, mode=mode)
    checked_adj = [row[:] for row in state.graph.adj]
    events = 0
    while events < 1000:
        new = apply_random_event(state, rng)
        if new is None:
            continue
        state = new
        events += 1
        assert not state.inexact, events
        rep = compare_states(checked, checked_fresh, tol=0.0)
        assert rep.passed and checked.graph.adj == checked_adj, (events, rep)
        if events % 50 == 0:
            checked, checked_fresh = state, brandes_bc(state.graph, mode=mode)
            checked_adj = [row[:] for row in state.graph.adj]
            rep = compare_states(checked, checked_fresh, tol=0.0)
            assert rep.passed, (events, rep)
    elapsed = time.monotonic() - start
    print(f"acceptance long-stream-soak {mode}: pass ({events} events, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# work bounds

def _work_bound_holds(n, rep):
    dag_sum = max(rep.dag_sum_pre, rep.dag_sum_mid, rep.dag_sum_post)
    dag_v = max(rep.dag_v_pre, rep.dag_v_mid, rep.dag_v_post)
    rhs = 2 * (dag_sum + n * dag_v) + rep.r_total + 8 * n * n
    return rep.edges_examined <= rhs, rhs


def test_update_work_bound(edge_trials, vertex_trials):
    checked = 0
    for rec in edge_trials["records"]:
        for rep in (rec.rep_fast, rec.rep_full):
            ok, rhs = _work_bound_holds(rec.n, rep)
            assert ok, (rec.n, rep.edges_examined, rhs)
            checked += 1
    for rec in vertex_trials["records"]:
        ok, rhs = _work_bound_holds(rec.n, rec.rep)
        assert ok, (rec.n, rec.rep.edges_examined, rhs)
        checked += 1
    print(f"acceptance update-work-bound: pass ({checked} update reports)")


def test_update_work_bound_at_any_k():
    """The bound has no k in it: vertex events that update every candidate
    edge on both sides of v, in scaled and in whole units (whose detours
    tie), stay within it.  A corpus of its own, so the shared trials and
    the counts read from them stay as they are."""
    rng = random.Random(20_240_018)
    worst = 0.0
    for i in range(60):
        n = 8 + i % 17
        state = brandes_bc(gnp(n, 0.2, _wmax_cycle(n, i), seed=9000 + i), mode="full")
        for v in rng.sample(range(n), 4):
            upd = every_candidate_vertex_update(state.graph, rng, v, unit=(1, W)[i % 2])
            rep = incremental_bc_vertex(state, upd).report
            ok, rhs = _work_bound_holds(n, rep)
            assert ok, (n, v, rep.edges_examined, rhs)
            worst = max(worst, rep.edges_examined / rhs)
    print(f"acceptance update-work-bound-any-k: pass (240 vertex events, "
          f"worst {worst:.3f} of the bound)")


# ---------------------------------------------------------------------------
# dense random graphs: sparse shortest-path edge set

# static_bc's edges_examined on complete n = 128, wmax n * n, seeds 1-5
EXAMINED = {1: 279097, 2: 266837, 3: 273910, 4: 275346, 5: 265847}


def test_dense_mstar_phenomenon():
    start = time.monotonic()
    n = 128
    bound = 8 * n * math.log(n)
    for seed in range(1, 6):
        g = parse_graph(gen_graph("complete", n, wmax=n * n, seed=seed))
        st = static_bc(g)
        stats = star_stats(st)
        assert stats.m_star <= bound, (seed, stats.m_star, bound)
        # the searches run over rows that shrink toward E*: a quarter of
        # one full relaxation sweep per source at most
        examined = st.counters.edges_examined
        assert examined == EXAMINED[seed] <= n * g.m // 4, (seed, examined, n * g.m)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"dense static runs took {elapsed:.1f}s"
    print(f"acceptance dense-mstar-phenomenon: pass ({elapsed:.1f}s)")


def test_single_update_advantage_on_dense_graph():
    start = time.monotonic()
    n = 128
    good = 0
    ratios = []
    for seed in range(1, 6):
        g = parse_graph(gen_graph("complete", n, wmax=n * n, seed=seed))
        base = brandes_bc(g)
        rng = random.Random(seed)
        edges = g.edges()
        u, v, w = edges[rng.randrange(len(edges))]
        while w <= 1:
            u, v, w = edges[rng.randrange(len(edges))]
        new = incremental_bc_edge(base, EdgeUpdate(u, v, rng.randint(1, w - 1)))
        ratio = new.report.edges_examined / base.counters.edges_examined
        ratios.append(ratio)
        if ratio <= 0.05:
            good += 1
    elapsed = time.monotonic() - start
    assert good >= 4, ratios
    assert elapsed < 60.0, f"dense update runs took {elapsed:.1f}s"
    print(f"acceptance single-update-advantage: pass "
          f"(ratios {['%.3f' % r for r in ratios]}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# exact structural checks

def test_endpoint_invariance_is_bitwise(edge_trials):
    directed = [r for r in edge_trials["records"] if not r.undirected]
    assert len(directed) >= 300
    assert all(r.endpoint_invariance for r in directed)
    print(f"acceptance endpoint-invariance: pass ({len(directed)} directed trials)")


def test_single_entry_batch_reduction_is_bitwise():
    # a batch of one entry (u, w') at v classifies every pair, v included,
    # exactly as the edge update (u, v, w') does
    rng = random.Random(50_001)
    pairs_checked = 0
    for _ in range(25):
        n = rng.choice([6, 10])
        g = gnp(n, 0.5, rng.choice([1, 6, n * n]), seed=rng.randrange(10**6))
        upd = random_edge_update(g, rng)
        if upd is None:
            continue
        st = brandes_bc(g, mode="full")
        entries = ((upd.u, upd.weight),)
        for s in range(n):
            for t in range(n):
                expect = classify_pair(s, t, st, upd)
                assert classify_pair_vertex(s, t, upd.v, st, entries) == expect
                pairs_checked += 1
    assert pairs_checked >= 1500
    print(f"acceptance single-entry-reduction: pass ({pairs_checked} pairs)")


def test_reverse_dag_dedup_bound(vertex_trials):
    saw_inserts = False
    for rec in vertex_trials["records"]:
        assert rec.rep.rdag_insert_attempts <= 2 * rec.rep.rdag_unique_inserts, rec
        saw_inserts |= rec.rep.rdag_insert_attempts > 0
    assert saw_inserts
    print("acceptance reverse-dag-dedup: pass")


def test_reverse_dags_are_forward_dags_of_reversed_graph(vertex_trials):
    """The directed invariant behind the reverse DAGs: the one rooted at x
    equals the forward DAG rooted at x of the reversed graph."""
    records = vertex_trials["records"]
    bad = [(r.n, r.undirected) for r in records
           if not r.rdags_are_reversed_graph_dags]
    assert not bad, bad
    print(f"acceptance reverse-dags-of-reversed-graph: pass ({len(records)} trials)")


def test_dag_edge_count_conservation(vertex_trials):
    """Exact equality of the forward and reverse per-source DAG edge totals
    after every vertex update, zero tolerance.

    Holds for undirected (symmetric) inputs, where the reversed graph equals
    the graph.  For directed graphs the two totals count different incidence
    sets (source-side vs target-side usefulness of each edge) and genuinely
    differ: on 0->1, 0->2, 1->3, 2->3, 3->4 with unit weights the forward
    total is 10 but the reverse total is 11.  The check is asserted as
    specified and is expected to fail on the directed part of the corpus.
    """
    records = vertex_trials["records"]
    mismatched = [(r.n, r.undirected, r.fwd_edges_post, r.rev_edges_post)
                  for r in records if r.fwd_edges_post != r.rev_edges_post]
    undirected_bad = [m for m in mismatched if m[1]]
    assert not undirected_bad, undirected_bad
    assert not mismatched, (
        f"forward/reverse DAG edge totals differ on {len(mismatched)} of "
        f"{len(records)} trials (all directed; first: {mismatched[:3]}); "
        "the totals count source-side vs target-side edge incidences and "
        "are not conserved on directed graphs")
    print("acceptance dag-edge-count-conservation: pass")
