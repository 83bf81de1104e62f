import copy
from array import array

import pytest

from dynbc import (
    INF,
    EdgeUpdate,
    brandes_bc,
    compare_states,
    enumerate_paths_bc,
    incremental_bc_edge,
)
from helpers import W, build, diamond, g1, path3


def test_enumeration_path_graph():
    dist, sigma, bc = enumerate_paths_bc(path3())
    assert dist[0] == [0, W, 2 * W]
    assert sigma[0] == [1.0, 1.0, 1.0]
    assert bc == [0.0, 1.0, 0.0]


def test_enumeration_diamond():
    dist, sigma, bc = enumerate_paths_bc(diamond())
    assert sigma[0][3] == 2.0
    assert bc == [0.0, 0.5, 0.5, 0.0]


def test_enumeration_g1():
    dist, sigma, bc = enumerate_paths_bc(g1())
    assert dist[0][3] == 4 * W
    assert sigma[0][3] == 2.0
    assert bc[2] == 0.5
    # the 1->3 edge is itself the unique shortest 1->3 path
    assert dist[1][3] == 5 * W and sigma[1][3] == 1.0


def test_enumeration_counts_all_tied_routes():
    g = build(4, [(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1), (0, 3, 2)])
    dist, sigma, bc = enumerate_paths_bc(g)
    assert sigma[0][3] == 3.0
    assert bc[1] == pytest.approx(1.0 / 3.0)


def test_enumeration_rejects_large_graphs():
    g = build(13, [(0, 1, 1)])
    with pytest.raises(ValueError, match="n <= 12"):
        enumerate_paths_bc(g)


def test_compare_states_reflexive_and_sensitive():
    st = brandes_bc(diamond())
    assert compare_states(st, st, tol=0.0).passed

    other = brandes_bc(diamond())
    other.sigma = [row[:] for row in other.sigma]
    other.sigma[0][3] = 3.0
    rep = compare_states(st, other)
    assert not rep.passed and rep.sigma_mismatches == 1

    other = brandes_bc(diamond())
    other.dist = [row[:] for row in other.dist]
    other.dist[0][3] = INF
    assert compare_states(st, other).dist_mismatches == 1

    other = brandes_bc(diamond())
    other.dags = [set(d) for d in other.dags]
    other.dags[0].discard((1, 3))
    assert compare_states(st, other).dag_mismatches == 1

    other = brandes_bc(diamond())
    other.deltas = [array("d", row) for row in other.deltas]
    other.deltas[0][1] += 1e-6
    rep = compare_states(st, other, tol=1.0)
    assert not rep.passed and rep.delta_mismatches == 1

    # a full state's carried mirror must be the transpose of its matrices
    full = incremental_bc_edge(brandes_bc(diamond(), mode="full"),
                               EdgeUpdate(0, 1, W // 2))
    assert full.rdist is not None and compare_states(full, full, tol=0.0).passed
    other = copy.copy(full)
    other.rsigma = [row[:] for row in full.rsigma]
    other.rsigma[3][0] = 3.0
    rep = compare_states(full, other)
    assert not rep.passed and (rep.sigma_mismatches, rep.dist_mismatches) == (1, 0)
    other = copy.copy(full)
    other.rdist = [row[:] for row in full.rdist]
    other.rdist[3][0] = INF
    rep = compare_states(other, full)
    assert not rep.passed and (rep.sigma_mismatches, rep.dist_mismatches) == (0, 1)

    other = brandes_bc(diamond())
    other.bc = list(other.bc)
    other.bc[1] += 1e-6
    rep = compare_states(st, other, tol=1e-9)
    assert not rep.passed and rep.max_bc_abs_err == pytest.approx(1e-6)


def test_compare_states_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        compare_states(brandes_bc(diamond()), brandes_bc(path3()))


def test_compare_states_checks_reverse_dags_when_present():
    a = brandes_bc(diamond(), mode="full")
    b = brandes_bc(diamond(), mode="full")
    b.rdags = [set(d) for d in b.rdags]
    b.rdags[3].add((9, 9))
    assert compare_states(a, b).dag_mismatches == 1
