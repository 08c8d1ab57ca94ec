import numpy as np
import pytest

from dbfnet.errors import Disconnected, DomainError, NotSymmetric, WeightRowInvalid
from dbfnet.topology import (
    _weight_rows,
    AdjacencyMatrix,
    AdjacencySchedule,
    check_assumption1,
    load_edge_list,
    local_degree_weights,
    metropolis_weights,
    random_connected_graph,
    random_schedule,
    schedule_gamma,
    second_singular_value,
    sigma_m,
    sigma_m_bound,
    strongly_connected,
    window_product,
    window_union,
    Digraph,
)


def path3():
    return Digraph.undirected(3, [(0, 1), (1, 2)])


def pairing_matrix(n, pairs):
    # lazy pairing: half self, half the partner
    a = np.eye(n)
    for i, j in pairs:
        a[i, i] = a[j, j] = 0.5
        a[i, j] = a[j, i] = 0.5
    return AdjacencyMatrix(a)


# ------------------------------------------------------------------ Digraph


def test_digraph_validation():
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(0, 0)}))
    with pytest.raises(ValueError):
        Digraph(2, frozenset({(0, 2)}))
    with pytest.raises(ValueError):
        Digraph(0, frozenset())


def test_digraph_undirected_and_neighbors():
    g = path3()
    assert g.is_symmetric()
    np.testing.assert_array_equal(g.adjacency_bool(), [[1, 1, 0], [1, 1, 1], [0, 1, 1]])
    directed = Digraph(2, frozenset({(0, 1)}))
    assert not directed.is_symmetric()


def test_strong_connectivity():
    one_way = Digraph(3, frozenset({(1, 0), (2, 1)}))
    assert not strongly_connected(one_way)
    cycle = Digraph(3, frozenset({(1, 0), (2, 1), (0, 2)}))
    assert strongly_connected(cycle)
    assert strongly_connected(Digraph(1, frozenset()))


# ---------------------------------------------------------- AdjacencyMatrix


def test_adjacency_validation():
    with pytest.raises(ValueError):
        AdjacencyMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        AdjacencyMatrix(np.array([[1.5, -0.5], [-0.5, 1.5]]))
    with pytest.raises(ValueError):
        AdjacencyMatrix(np.array([[0.9, 0.0], [0.0, 0.9]]))


def test_weight_rows_drop_entries_at_or_below_zero():
    a = np.array([[1.0, -1e-16], [0.5, 0.5]])
    out = _weight_rows(a)
    assert out.tolist() == [[1.0, 0.0], [0.5, 0.5]]
    assert not np.signbit(out).any()
    w = metropolis_weights(path3())
    np.testing.assert_array_equal(_weight_rows(w), w.values)
    for bad in ([[1.0, -1e-14]], [[0.5, 0.5 + 2e-9]], [[np.nan, 1.0]], [[0.0, 0.0]]):
        with pytest.raises(WeightRowInvalid):
            _weight_rows(bad)


def test_adjacency_support_and_min_positive():
    a = pairing_matrix(4, [(0, 1)])
    g = a.support()
    assert (0, 1) in g.edges and (1, 0) in g.edges
    assert (0, 0) not in g.edges
    assert a.min_positive() == pytest.approx(0.5)


# ------------------------------------------------------------- weight rules


def test_local_degree_path_graph():
    a = local_degree_weights(path3()).values
    expected = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.5, 0.0, 0.5],
            [0.0, 0.5, 0.5],
        ]
    )
    np.testing.assert_allclose(a, expected)


def test_local_degree_complete_graph():
    n = 5
    g = Digraph.undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    a = local_degree_weights(g).values
    off = a[~np.eye(n, dtype=bool)]
    np.testing.assert_allclose(off, 1.0 / (n - 1))
    np.testing.assert_allclose(np.diag(a), 0.0, atol=1e-15)


def test_local_degree_single_agent():
    a = local_degree_weights(Digraph(1, frozenset()))
    np.testing.assert_allclose(a.values, [[1.0]])


def test_weight_rules_reject_bad_graphs():
    directed = Digraph(2, frozenset({(0, 1)}))
    with pytest.raises(NotSymmetric):
        local_degree_weights(directed)
    disconnected = Digraph.undirected(4, [(0, 1)])
    with pytest.raises(Disconnected):
        local_degree_weights(disconnected)
    with pytest.raises(Disconnected):
        metropolis_weights(disconnected)


def test_metropolis_entries_below_half():
    g = random_connected_graph(8, np.random.default_rng(0))
    a = metropolis_weights(g)
    off = a.values[~np.eye(8, dtype=bool)]
    assert off[off > 0].max() < 0.5


# ----------------------------------------------------------- window algebra


def test_window_product_length_one():
    s = AdjacencySchedule.static(local_degree_weights(path3()))
    np.testing.assert_array_equal(window_product(s, 3, 1).values, s.matrices[0].values)


def test_window_product_static_power():
    a = local_degree_weights(path3())
    s = AdjacencySchedule.static(a)
    np.testing.assert_allclose(
        window_product(s, 0, 3).values,
        a.values @ a.values @ a.values,
        atol=1e-14,
    )


def test_window_product_orders_later_on_left():
    a0 = AdjacencyMatrix(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    a1 = AdjacencyMatrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]))
    s = AdjacencySchedule((a0, a1), b=2)
    expected = np.array(
        [
            [0.5, 0.5, 0.0],
            [0.25, 0.25, 0.5],
            [0.25, 0.25, 0.5],
        ]
    )
    np.testing.assert_allclose(window_product(s, 0, 2).values, expected)


def test_window_product_stays_doubly_stochastic():
    rng = np.random.default_rng(5)
    s = random_schedule(6, rng, slots=3)
    p = window_product(s, 1, 7).values
    np.testing.assert_allclose(p.sum(axis=0), 1.0, atol=1e-10)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-10)
    assert np.all(p >= -1e-12)


# --------------------------------------------------------- assumption check


def test_check_static_connected_ok():
    s = AdjacencySchedule.static(metropolis_weights(path3()))
    report = check_assumption1(s)
    assert report.ok
    assert report.b == 1
    assert 0.0 < report.gamma < 0.5


def test_check_alternating_halves_ok_with_b2():
    # each slot alone is disconnected; consecutive slots union to a 4-cycle
    a0 = pairing_matrix(4, [(0, 1), (2, 3)])
    a1 = pairing_matrix(4, [(1, 2), (0, 3)])
    s = AdjacencySchedule((a0, a1), b=2)
    assert not strongly_connected(window_union(s, 0, 1))
    report = check_assumption1(s)
    assert report.ok
    assert report.b == 2
    assert report.gamma == pytest.approx(0.25)


def test_check_permanently_disconnected_fails_clause_i():
    a = pairing_matrix(4, [(0, 1), (2, 3)])
    s = AdjacencySchedule((a,), b=1)
    report = check_assumption1(s)
    assert not report.ok
    assert any("clause (i)" in f for f in report.failures)


def test_check_flags_gamma_at_half_as_warning():
    s = AdjacencySchedule.static(local_degree_weights(Digraph.undirected(2, [(0, 1)])))
    report = check_assumption1(s)
    assert report.ok
    assert not report.gamma_ok
    assert any("clause (iii)" in w for w in report.warnings)


# -------------------------------------------------------- spectral measures


def test_second_singular_identity():
    assert second_singular_value(AdjacencyMatrix(np.eye(4))) == pytest.approx(1.0)


def test_second_singular_uniform():
    a = AdjacencyMatrix(np.full((5, 5), 0.2))
    assert second_singular_value(a) == pytest.approx(0.0, abs=1e-12)


def test_second_singular_matches_eigen_oracle():
    a = local_degree_weights(path3())
    gram_eigs = np.sort(np.linalg.eigvalsh(a.values.T @ a.values))[::-1]
    assert second_singular_value(a) == pytest.approx(np.sqrt(gram_eigs[1]))


def test_sigma_m_bound_worked_value():
    # N=2, gamma=0.4: 1 - 4*(0.4-0.16)/0.6 * sin^2(pi/4) = 1 - 1.6*0.5 = 0.2
    assert sigma_m_bound(2, 0.4) == pytest.approx(np.sqrt(0.2))


def test_sigma_m_bound_domain():
    with pytest.raises(DomainError):
        sigma_m_bound(1, 0.3)
    with pytest.raises(DomainError):
        sigma_m_bound(3, 0.5)
    with pytest.raises(DomainError):
        sigma_m_bound(3, 0.0)


def test_sigma_m_bound_properties():
    for n in (2, 3, 5, 10):
        for gamma in (0.05, 0.2, 0.4, 0.49):
            assert sigma_m_bound(n, gamma) < 1.0
    assert sigma_m_bound(4, 1e-12) == pytest.approx(1.0, abs=1e-9)


def test_sigma_m_static_is_window_power():
    a = metropolis_weights(path3())
    s = AdjacencySchedule.static(a)
    expected = second_singular_value(window_product(s, 0, 2))
    assert sigma_m(s) == pytest.approx(expected)


def test_sigma_m_uniform_complete_graph():
    a = AdjacencyMatrix(np.full((4, 4), 0.25))
    assert sigma_m(AdjacencySchedule.static(a)) == pytest.approx(0.0, abs=1e-12)


def test_sigma_m_within_bound_on_random_schedules():
    rng = np.random.default_rng(11)
    for trial in range(10):
        n = int(rng.integers(3, 7))
        b = int(rng.integers(1, 3))
        s = random_schedule(n, rng, b=b, slots=b, require_gamma_below_half=True)
        report = check_assumption1(s)
        assert report.ok and report.gamma_ok
        assert sigma_m(s) <= sigma_m_bound(n, report.gamma) + 1e-12


def test_passing_schedules_have_positive_long_windows():
    rng = np.random.default_rng(23)
    for trial in range(5):
        n = int(rng.integers(3, 6))
        b = int(rng.integers(1, 3))
        s = random_schedule(n, rng, b=b, slots=b)
        length = s.b * (n - 1)
        for k in range(s.period):
            assert window_product(s, k, length).values.min() > 0.0


def test_local_degree_passes_assumption1():
    rng = np.random.default_rng(31)
    for trial in range(5):
        g = random_connected_graph(int(rng.integers(3, 9)), rng)
        s = AdjacencySchedule.static(local_degree_weights(g))
        assert check_assumption1(s).ok


# ---------------------------------------------------------------- edge list


def test_load_edge_list(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("# a path\n0 1\n\n1 2  # middle\n")
    g = load_edge_list(path)
    assert g.n == 3
    assert g.edges == path3().edges
    padded = load_edge_list(path, n=5)
    assert padded.n == 5


def test_load_edge_list_malformed(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 2\n")
    with pytest.raises(ValueError):
        load_edge_list(path)
