"""Differential check against networkx, an independent implementation, on
graphs beyond the n <= 12 reach of the enumeration oracle."""

import random

import pytest

from dynbc import brandes_bc, static_bc
from helpers import apply_random_event, gnp

nx = pytest.importorskip("networkx")


def _nx_bc(g):
    """Unnormalized networkx BC of the directed graph of scaled integer
    weights; an undirected graph goes in as its doubled edges."""
    G = nx.DiGraph()
    G.add_nodes_from(range(g.n))
    G.add_weighted_edges_from(g.edges())
    bc = nx.betweenness_centrality(G, weight="weight", normalized=False)
    return [bc[x] for x in range(g.n)]


def _assert_matches_networkx(state):
    assert not state.inexact
    assert state.bc == pytest.approx(_nx_bc(state.graph), rel=1e-9, abs=0.0)


GRAPHS = [(60, 0.1, 3, False, 1), (90, 0.05, 5, True, 2),
          (120, 0.04, 2, False, 3), (150, 0.02, 4, True, 4)]


# both builders run one counting search, so each is held against networkx;
# static_bc's cases carry the prefix "static"
@pytest.mark.parametrize("builder,n,p,wmax,undirected,seed", [
    pytest.param(builder, *case, id="-".join(map(str, (*prefix, *case))))
    for builder, prefix in ((brandes_bc, ()), (static_bc, ("static",)))
    for case in GRAPHS])
def test_brandes_matches_networkx(builder, n, p, wmax, undirected, seed):
    _assert_matches_networkx(builder(gnp(n, p, wmax, seed, undirected=undirected)))


@pytest.mark.parametrize("undirected", [False, True])
def test_stream_state_matches_networkx(undirected):
    rng = random.Random(71)
    state = brandes_bc(gnp(60, 0.08, 3, 5, undirected=undirected), mode="full")
    events = 0
    while events < 20:
        new = apply_random_event(state, rng)
        if new is not None:
            state = new
            events += 1
    _assert_matches_networkx(state)
