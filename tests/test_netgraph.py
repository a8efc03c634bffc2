import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbfgs.netgraph import (
    Graph,
    build_d_regular_cycle,
    build_weight_matrix,
)
from oracles import is_connected, validate_weight_matrix


def test_cycle_n4_d2_structure():
    g = build_d_regular_cycle(4, 2)
    assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})
    assert g.neighborhoods[0] == (0, 1, 3)


def test_cycle_n50_d4_neighborhood_sizes():
    g = build_d_regular_cycle(50, 4)
    assert all(mi == 5 for mi in g.m)


def test_cycle_n5_d4_is_complete():
    g = build_d_regular_cycle(5, 4)
    assert len(g.edges) == 10
    assert all(mi == 5 for mi in g.m)


@pytest.mark.parametrize("n,d", [(10, 3), (10, 0), (4, 4), (4, 6)])
def test_cycle_rejects_bad_connectivity(n, d):
    with pytest.raises(ValueError):
        build_d_regular_cycle(n, d)


@pytest.mark.parametrize("n,d", [(4, 2), (9, 2), (12, 4), (7, 6)])
def test_graph_invariants(n, d):
    g = build_d_regular_cycle(n, d)
    for i in range(n):
        nb = g.neighborhoods[i]
        assert i in nb
        assert list(nb) == sorted(nb)
        assert g.m[i] == sum(i in e for e in g.edges) + 1
        # adjacency symmetry through neighborhoods
        for j in nb:
            assert i in g.neighborhoods[j]


@pytest.mark.parametrize("n,d", [(5, 4), (7, 6), (50, 4), (400, 4), (1000, 4),
                                 (1000, 10)])
def test_cycle_equals_the_graph_of_its_edges(n, d):
    edges = [(i, (i + k) % n) for i in range(n) for k in range(1, d // 2 + 1)]
    assert build_d_regular_cycle(n, d) == Graph.from_edges(n, edges)


def test_from_edges_rejects_disconnected_and_bad_edges():
    with pytest.raises(ValueError, match="not connected"):
        Graph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="self-loop"):
        Graph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edges(3, [(0, 5)])


@pytest.mark.parametrize("n", [0, -1])
def test_from_edges_rejects_a_node_count_below_one(n):
    with pytest.raises(ValueError, match=f"node count must be positive, got {n}"):
        Graph.from_edges(n, [])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_from_edges_accepts_exactly_the_connected_edge_lists(data):
    n = data.draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = data.draw(st.lists(st.sampled_from(pairs), max_size=2 * n) if pairs
                      else st.just([]))
    if is_connected(n, edges):
        g = Graph.from_edges(n, edges)
        assert g.edges == frozenset((min(e), max(e)) for e in edges)
    else:
        with pytest.raises(ValueError, match="not connected"):
            Graph.from_edges(n, edges)


def test_weight_matrix_reference_values_d4():
    g = build_d_regular_cycle(50, 4)
    w = build_weight_matrix(g, 4)
    assert np.allclose(w.diagonal(), 0.6)
    i, j = 0, 1
    assert w[i, j] == pytest.approx(0.1)
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12


@pytest.mark.parametrize("n,d", [(4, 2), (10, 2), (50, 4), (9, 6)])
def test_weight_matrix_rows_sum_to_one(n, d):
    g = build_d_regular_cycle(n, d)
    w = build_weight_matrix(g, d).toarray()
    assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12
    assert np.array_equal(w, w.T)


def test_weight_matrix_simple_unit_eigenvalue_4cycle():
    # dense eigensolver oracle on the 4x4 circulant
    g = build_d_regular_cycle(4, 2)
    w = build_weight_matrix(g, 2).toarray()
    evals = np.linalg.eigvalsh(w)
    assert np.sum(np.abs(evals - 1.0) < 1e-10) == 1


@pytest.mark.parametrize("n,d", [(4, 2), (9, 2), (7, 6)])
def test_weight_matrix_is_stored_on_the_layout(n, d):
    g = build_d_regular_cycle(n, d)
    lay = g.layout
    w = build_weight_matrix(g, d)
    assert np.array_equal(w.indptr, lay.indptr)
    assert np.array_equal(w.indices, lay.cols)
    assert np.array_equal(lay.rows, np.repeat(np.arange(n), g.m))
    assert np.array_equal(lay.cols[lay.own], np.arange(n))
    assert np.array_equal(lay.rows[lay.mirror], lay.cols)
    assert np.array_equal(lay.cols[lay.mirror], lay.rows)


def test_weight_matrix_rejects_non_regular():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])  # path: degrees 1, 2, 1
    assert g.is_regular() is None
    with pytest.raises(ValueError, match="regular"):
        build_weight_matrix(g, 2)


def test_weight_matrix_rejects_wrong_degree():
    g = build_d_regular_cycle(8, 2)
    with pytest.raises(ValueError):
        build_weight_matrix(g, 4)


def test_validate_default_scheme_passes():
    g = build_d_regular_cycle(12, 4)
    report = validate_weight_matrix(build_weight_matrix(g, 4))
    assert report.symmetric and report.row_stochastic and report.connectivity
    assert report.ok


def test_validate_identity_fails_nullspace():
    report = validate_weight_matrix(np.eye(5))
    assert report.symmetric and report.row_stochastic
    assert not report.connectivity


def test_validate_asymmetric_perturbation_fails():
    g = build_d_regular_cycle(6, 2)
    w = build_weight_matrix(g, 2)
    w[0, 1] += 1e-6
    report = validate_weight_matrix(w)
    assert not report.symmetric
