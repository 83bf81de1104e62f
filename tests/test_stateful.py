"""Hypothesis stateful test: mixed edge and vertex streams in full mode on
directed and undirected graphs of at most 10 vertices.  On an undirected
graph an edge event sets both twins and a vertex event mirrors its
incoming entries.  After every event the state must equal a
fresh ``brandes_bc`` exactly (dependency rows and BC bits included), and
its distances, path counts and BC must match exhaustive path enumeration.
A failing stream is shrunk to a minimal one."""

import pytest
from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from dynbc import (
    EdgeUpdate,
    VertexUpdate,
    brandes_bc,
    compare_states,
    enumerate_paths_bc,
    incremental_bc_edge,
    incremental_bc_vertex,
)
from helpers import build, wt

MAX_N = 10
weights = st.integers(1, 3)  # small weights, so many shortest paths tie
side = st.lists(st.tuples(st.integers(0, MAX_N - 1), weights), max_size=3)


class MixedStream(RuleBasedStateMachine):

    @initialize(n=st.integers(2, MAX_N), undirected=st.booleans(),
                edges=st.lists(st.tuples(st.integers(0, MAX_N - 1),
                                         st.integers(0, MAX_N - 1), weights),
                               max_size=2 * MAX_N))
    def start(self, n, undirected, edges):
        chosen = {}
        for u, v, w in edges:
            u, v = u % n, v % n
            if u != v:
                chosen[(min(u, v), max(u, v)) if undirected else (u, v)] = w
        edges = [(u, v, w) for (u, v), w in chosen.items()]
        if undirected:
            edges += [(v, u, w) for u, v, w in edges]
        g = build(n, edges, undirected=undirected)
        self.state = brandes_bc(g, mode="full")

    def _decrease(self, a, b, w):
        """A valid new weight for edge (a, b): ``w`` scaled when that is an
        insertion or a strict decrease, else half the old weight; None when
        the old weight cannot drop."""
        old = self.state.graph.weight(a, b)
        new = wt(w)
        if old is not None and new >= old:
            new = old // 2
        return new if new >= 1 else None

    @rule(u=st.integers(0, MAX_N - 1), v=st.integers(0, MAX_N - 1), w=weights)
    def edge_event(self, u, v, w):
        n = self.state.graph.n
        u, v = u % n, v % n
        if u == v:
            return
        new = self._decrease(u, v, w)
        if new is not None:
            self.state = incremental_bc_edge(self.state, EdgeUpdate(u, v, new))

    @rule(v=st.integers(0, MAX_N - 1), incoming=side, outgoing=side)
    def vertex_event(self, v, incoming, outgoing):
        v %= self.state.graph.n
        sides = []
        for entries, edge in ((incoming, lambda x: (x, v)), (outgoing, lambda x: (v, x))):
            picked = {}
            for x, w in entries:
                x %= self.state.graph.n
                new = self._decrease(*edge(x), w) if x != v else None
                if new is not None:
                    picked.setdefault(x, new)
            sides.append(tuple(picked.items()))
        if self.state.graph.undirected:
            sides[1] = sides[0]
        if sides[0] or sides[1]:
            self.state = incremental_bc_vertex(self.state, VertexUpdate(v, *sides))

    @invariant()
    def equals_fresh_build_and_enumeration(self):
        state = self.state
        rep = compare_states(state, brandes_bc(state.graph, mode="full"), tol=0.0)
        assert rep.passed, rep
        dist, sigma, bc = enumerate_paths_bc(state.graph)
        assert state.dist == dist and state.sigma == sigma
        assert state.bc == pytest.approx(bc, rel=1e-9, abs=1e-12)


MixedStream.TestCase.settings = settings(
    max_examples=100, stateful_step_count=15, derandomize=True, database=None,
    deadline=None, suppress_health_check=[HealthCheck.too_slow])
TestMixedStream = MixedStream.TestCase
