"""Shared builders: named small graphs, seeded random corpora, and random
update generators used across the suite."""

from dynbc import (
    INF,
    EdgeUpdate,
    Graph,
    VertexUpdate,
    WEIGHT_SCALE,
    gen_graph,
    incremental_bc_edge,
    incremental_bc_vertex,
    parse_graph,
    parse_weight,
)

W = WEIGHT_SCALE


def wt(x):
    return parse_weight(str(x))


def build(n, edges, undirected=False):
    return Graph(n, [(u, v, wt(w)) for u, v, w in edges], undirected=undirected)


def path3():
    return build(3, [(0, 1, 1), (1, 2, 1)])


def diamond():
    return build(4, [(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)])


def g1():
    return build(4, [(0, 1, 1), (1, 3, 5), (0, 2, 2), (2, 3, 2), (0, 3, 4)])


def k4():
    return build(4, [(u, v, 1) for u in range(4) for v in range(4) if u != v])


def layered_graph(layers, width, extra=0, more=()):
    """Vertex 0, then a chain of ``width``-wide layers joined by unit
    edges; layer k (vertices width*(k-1)+1 to width*k) lies at distance k
    and carries width**(k-1) tied shortest paths from vertex 0.  ``extra``
    vertices follow the last layer, and ``more`` lists further (u, v, w)
    edges, weights in units."""
    edges = [(0, x, 1) for x in range(1, width + 1)]
    for k in range(1, layers):
        lo = width * (k - 1) + 1
        edges += [(a, b, 1) for a in range(lo, lo + width)
                  for b in range(lo + width, lo + 2 * width)]
    return build(width * layers + 1 + extra, edges + list(more))


def layered_doubling_graph(layers, extra=0, more=()):
    """``layered_graph`` of 2-wide layers: layer k (vertices 2k-1, 2k)
    carries 2**(k-1) tied shortest paths from vertex 0."""
    return layered_graph(layers, 2, extra, more)


# more edges for layered_doubling_graph(54, 2, ...), whose vertices 107
# and 108 hold 2**53 paths at distance 54.  OVER_BY_ONE gives vertex 109
# 2**53 + 1 paths of length 55: through 107, and one side path through 110.
# RESET_TIE ties 109 at 64 through 107 and 108 (2**54 paths) before 110,
# settled after them at 54, resets it to one path of length 55.
OVER_BY_ONE = ((107, 109, 1), (0, 110, 1), (110, 109, 54))
RESET_TIE = ((107, 109, 10), (108, 109, 10), (0, 110, 54), (110, 109, 1))


def gnp(n, p, wmax, seed, undirected=False):
    return parse_graph(gen_graph("gnp", n, p=p, wmax=wmax, seed=seed, undirected=undirected))


def count_calls(monkeypatch, module, name):
    """Patch ``module.name`` to record each call; returns the record."""
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def in_edges(dag, targets):
    """Each vertex of ``targets``, in order, to its in-edges in ``dag``:
    the grouping ``update_dag`` takes for the DAG rooted at v."""
    return {t: [e for e in dag if e[1] == t] for t in targets}


def shares_edge_tuples(dags):
    """Whether ``dags`` hold one tuple object per distinct edge, and some
    edge lies in more than one DAG, so that sharing is tested at all."""
    union = set().union(*dags)
    objects = {id(edge) for dag in dags for edge in dag}
    return len(objects) == len(union) < sum(map(len, dags))


def pairwise_estar(g, dist):
    """Edges on at least one shortest path, from a distance matrix alone."""
    estar = set()
    for u, v, w in g.edges():
        for s in range(g.n):
            du = dist[s][u]
            if du < INF and du + w == dist[s][v]:
                estar.add((u, v))
                break
    return estar


# Every random_* helper draws a new weight as a multiple of ``unit`` in
# [unit, hi]: the default, 1, draws in scaled units, so a detour through an
# updated edge almost never ties; W draws whole units, so many do.


def _draw(rng, hi, unit):
    return unit * rng.randint(1, hi // unit)


def random_edge_update(g, rng, insert_prob=0.3, unit=1):
    """A strict decrease of an existing edge, or an insertion; on an
    undirected graph each edge is drawn as its twin (u, v) with u < v."""
    decr = [(u, v, w) for u, v, w in g.edges()
            if w > unit and (u < v or not g.undirected)]
    if decr and rng.random() > insert_prob:
        u, v, w = decr[rng.randrange(len(decr))]
        return EdgeUpdate(u, v, _draw(rng, w - 1, unit))
    cap = max((w for _, _, w in g.edges()), default=W)
    for _ in range(400):
        u, v = rng.randrange(g.n), rng.randrange(g.n)
        if u != v and g.weight(u, v) is None:
            return EdgeUpdate(u, v, _draw(rng, cap, unit))
    if decr:
        u, v, w = decr[rng.randrange(len(decr))]
        return EdgeUpdate(u, v, _draw(rng, w - 1, unit))
    return None


def _new_weight(old, rng, cap, unit):
    return _draw(rng, cap if old is None else old - 1, unit)


def random_mirrored_vertex_update(g, rng, kmax=3, unit=1):
    """Vertex update for a doubled undirected graph: every touched edge is
    updated in both directions."""
    n = g.n
    cap = max((w for _, _, w in g.edges()), default=W)
    for _ in range(200):
        v = rng.randrange(n)
        cands = [x for x in range(n)
                 if x != v and (g.weight(x, v) is None or g.weight(x, v) > unit)]
        k = min(rng.randint(1, kmax), len(cands))
        if k == 0:
            continue
        entries = tuple((x, _new_weight(g.weight(x, v), rng, cap, unit))
                        for x in rng.sample(cands, k))
        return VertexUpdate(v, entries, entries)
    return None


def random_vertex_update(g, rng, kmax=3, allow_empty_side=True, unit=1):
    """Random batch of strict decreases / insertions around one vertex."""
    n = g.n
    cap = max((w for _, _, w in g.edges()), default=W)
    for _ in range(200):
        v = rng.randrange(n)
        ins = [u for u in range(n)
               if u != v and (g.weight(u, v) is None or g.weight(u, v) > unit)]
        outs = [x for x in range(n)
                if x != v and (g.weight(v, x) is None or g.weight(v, x) > unit)]
        ki = min(rng.randint(0, kmax), len(ins))
        ko = min(rng.randint(0, kmax), len(outs))
        if not allow_empty_side:
            ki = max(ki, 1) if ins else ki
            ko = max(ko, 1) if outs else ko
        if ki + ko == 0:
            continue
        incoming = tuple((u, _new_weight(g.weight(u, v), rng, cap, unit))
                         for u in rng.sample(ins, ki))
        outgoing = tuple((x, _new_weight(g.weight(v, x), rng, cap, unit))
                         for x in rng.sample(outs, ko))
        return VertexUpdate(v, incoming, outgoing)
    return None


def every_candidate_vertex_update(g, rng, v, unit=1):
    """A vertex update at v on every edge into and out of v that can take
    a strict decrease or an insertion: each side holds every candidate."""
    cap = max((w for _, _, w in g.edges()), default=W)

    def side(weight):
        return tuple((x, _new_weight(weight(x), rng, cap, unit)) for x in range(g.n)
                     if x != v and (weight(x) is None or weight(x) > unit))

    return VertexUpdate(v, side(lambda x: g.weight(x, v)), side(lambda x: g.weight(v, x)))


def event_graph(g, upd):
    """The graph an event must leave, built afresh from a weight map of
    ``g``'s edges with the event's edges set: an edge event sets both
    twins on an undirected graph, a vertex event (x, v) for each incoming
    entry (x, w') and (v, x) for each outgoing one."""
    weights = {(a, b): w for a, b, w in g.edges()}
    if isinstance(upd, EdgeUpdate):
        weights[upd.u, upd.v] = upd.weight
        if g.undirected:
            weights[upd.v, upd.u] = upd.weight
    else:
        weights.update(((x, upd.v), w) for x, w in upd.incoming)
        weights.update(((upd.v, x), w) for x, w in upd.outgoing)
    return Graph(g.n, [(a, b, w) for (a, b), w in weights.items()], undirected=g.undirected)


def apply_random_event(state, rng, unit=1):
    """One random event of a kind the state accepts (vertex events on half
    the steps of a full-mode state, mirrored updates on undirected graphs);
    returns the post-update state, or None when no update was found.  The
    new state's graph, out-rows and in-rows, must equal ``event_graph``,
    read from the event itself rather than from the phases the update
    derives from it."""
    g = state.graph
    und = g.undirected
    if state.mode == "full" and rng.random() < 0.5:
        upd = (random_mirrored_vertex_update(g, rng, unit=unit) if und
               else random_vertex_update(g, rng, unit=unit))
        step = incremental_bc_vertex
    else:
        upd = random_edge_update(g, rng, unit=unit)
        step = incremental_bc_edge
    if upd is None:
        return None
    new = step(state, upd)
    expected = event_graph(g, upd)
    assert new.graph == expected and new.graph.radj == expected.radj
    return new
