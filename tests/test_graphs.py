import numpy as np
import pytest

from phmid.graphs import (DisconnectedGraphError, GenerationFailedError, Graph,
                          complete, cycle, erdos_renyi, from_spec, star)

from oracles import (d2_minus_a2, erdos_renyi_edges, incidence, is_psd,
                     metropolis_weights, min_eigenvalue_symmetric, neighbors,
                     tau_upper_bound)


def _edge(n=2):
    return Graph(n, [(0, 1)])


def test_construction_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(0, 0), (0, 1), (1, 2)])


def test_neighbors_match_an_edge_scan():
    for g in (cycle(7), star(5), complete(4), erdos_renyi(12, 0.3, seed=4)):
        for v in range(g.n):
            scan = ({j for i, j in g.edges if i == v}
                    | {i for i, j in g.edges if j == v})
            assert neighbors(g, v) == tuple(sorted(scan))


def test_construction_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        Graph(4, [(0, 1), (2, 3)])


def test_adjacency_examples():
    assert np.array_equal(cycle(3).adjacency(), complete(3).adjacency())
    assert np.array_equal(_edge().adjacency(), [[0.0, 1.0], [1.0, 0.0]])
    g = erdos_renyi(7, 0.5, seed=1)
    a = g.adjacency()
    assert np.array_equal(a, a.T)
    assert np.all(np.diag(a) == 0)


def test_laplacian_examples():
    assert np.array_equal(_edge().laplacian(), [[1.0, -1.0], [-1.0, 1.0]])
    lap4 = cycle(4).laplacian()
    assert np.array_equal(np.diag(lap4), [2.0, 2.0, 2.0, 2.0])
    assert np.array_equal(lap4.sum(axis=1), np.zeros(4))
    g = erdos_renyi(8, 0.4, seed=0)
    e = incidence(g)
    assert np.abs(e @ e.T - g.laplacian()).max() <= 1e-12


def test_incidence_examples():
    assert np.array_equal(incidence(_edge()), [[1.0], [-1.0]])
    g3 = cycle(3)
    assert np.array_equal(incidence(g3) @ incidence(g3).T, g3.laplacian())
    g = erdos_renyi(10, 0.4, seed=3)
    assert np.array_equal(incidence(g) @ incidence(g).T, g.laplacian())


def test_q_matrix_examples():
    assert np.array_equal(_edge().q_matrix(), [[0.5, 0.5], [0.5, 0.5]])
    g3 = cycle(3)
    assert np.array_equal(g3.q_matrix(), (2 * np.eye(3) + g3.adjacency()) / 2)
    for seed in range(10):
        g = erdos_renyi(9, 0.4, seed=seed)
        # diagonally dominant, hence PSD
        assert min_eigenvalue_symmetric(g.q_matrix()) >= -1e-12


def test_erdos_renyi_examples():
    assert erdos_renyi(2, 1.0, seed=0).edges == frozenset({(0, 1)})
    g1 = erdos_renyi(10, 0.4, seed=42)
    g2 = erdos_renyi(10, 0.4, seed=42)
    assert g1 == g2


def _bfs_connected(edges, n):
    adj = {i: set() for i in range(n)}
    for i, j in edges:
        adj[i].add(j)
        adj[j].add(i)
    seen, stack = {0}, [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_erdos_renyi_always_connected():
    for seed in range(100):
        g = erdos_renyi(10, 0.4, seed=seed)
        assert _bfs_connected(g.edges, g.n)


def test_erdos_renyi_generation_failure():
    with pytest.raises(GenerationFailedError):
        erdos_renyi(9, 1e-9, seed=0, max_attempts=50)


def test_standard_topologies():
    assert cycle(3) == complete(3)
    assert np.array_equal(complete(4).degrees, [3.0, 3.0, 3.0, 3.0])
    assert np.array_equal(star(4).degrees, [3.0, 1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        star(1)


def test_d2_minus_a2_examples():
    assert is_psd(d2_minus_a2(cycle(6)), 1e-10)
    assert is_psd(d2_minus_a2(complete(5)), 1e-10)
    eigs = np.sort(np.linalg.eigvalsh(d2_minus_a2(star(4))))
    assert np.allclose(eigs, [-2.0, 1.0, 1.0, 6.0], atol=1e-10)
    assert not is_psd(d2_minus_a2(star(4)), 1e-10)


def test_tau_upper_bound_examples():
    # spectral norm of star(4)'s D^2 - A^2 is 6 (eigenvalues {6, -2, 1, 1})
    assert tau_upper_bound(star(4), 1.0) == pytest.approx(1.0 / 6.0, abs=1e-12)
    # single edge: D = I and A^2 = I, so D^2 - A^2 = 0
    assert tau_upper_bound(_edge(), 2.0) == np.inf
    g = erdos_renyi(8, 0.5, seed=2)
    assert tau_upper_bound(g, 2.0) == pytest.approx(2 * tau_upper_bound(g, 1.0),
                                                   rel=1e-14)
    with pytest.raises(ValueError):
        tau_upper_bound(g, 0.0)


def test_laplacian_spectral_invariants():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        g = erdos_renyi(n, 0.5, seed=int(rng.integers(10000)))
        lap = g.laplacian()
        assert np.array_equal(lap.sum(axis=1), np.zeros(n))
        assert np.array_equal(incidence(g) @ incidence(g).T, lap)
        eigs = np.sort(np.linalg.eigvalsh(lap))
        assert abs(eigs[0]) <= 1e-10
        assert eigs[1] > 1e-10  # zero eigenvalue simple: connected


def test_q_laplacian_anticommutator_identity():
    # Q L + L Q = D^2 - A^2 holds exactly for every graph
    rng = np.random.default_rng(10)
    for _ in range(50):
        n = int(rng.integers(3, 12))
        g = erdos_renyi(n, 0.5, seed=int(rng.integers(10000)))
        qmat, lap = g.q_matrix(), g.laplacian()
        assert np.abs(qmat @ lap + lap @ qmat - d2_minus_a2(g)).max() <= 1e-12


def test_graph_from_spec():
    assert from_spec("cycle:5") == cycle(5)
    assert from_spec("complete:4") == complete(4)
    assert from_spec("star:6") == star(6)
    assert from_spec("er:10:0.4:42") == erdos_renyi(10, 0.4, 42)
    with pytest.raises(ValueError):
        from_spec("ring:4")
    with pytest.raises(ValueError):
        from_spec("cycle:x")


def test_construction_accepts_any_pair_iterable():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert Graph(4, ((i, i + 1) for i in range(3))) == path
    assert Graph(4, np.array([[1, 0], [2, 1], [3, 2], [0, 1]])) == path
    assert Graph(3, [(1, 0), (0, 1), (2, 1)]).edges == frozenset({(0, 1), (1, 2)})
    with pytest.raises(ValueError):
        Graph(3, [0, 1, 2])
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 3)])


_EXCHANGE_GRAPHS = [cycle(3), cycle(7), cycle(10), star(6), complete(5),
                    erdos_renyi(12, 0.4, seed=3), erdos_renyi(30, 0.15, seed=1),
                    Graph(1, [])]


@pytest.mark.parametrize("g", _EXCHANGE_GRAPHS, ids=lambda g: f"n{g.n}e{len(g.edges)}")
def test_edge_exchange_equals_the_dense_products(g):
    # neighbour sums and Metropolis mixing over the edge arrays against
    # A @ x and W @ x: bitwise neighbour sums on cycles, and otherwise
    # within 1e-14 of the summed magnitudes, on (N, m) and (T, N, m) stacks.
    # Graph(1, []) has no edges: its sum is exactly zero, its self weight 1.
    rng = np.random.default_rng(g.n)
    adj, w = g.adjacency(), metropolis_weights(g)
    own, edge = g.metropolis
    is_cycle = g.n >= 3 and all(d == 2 for d in g.degrees) and len(g.edges) == g.n
    for shape in ((g.n, 3), (4, g.n, 2)):
        x = rng.standard_normal(shape)
        got = g.neighbor_sum(x)
        assert got.shape == x.shape
        if is_cycle:
            assert np.array_equal(got, adj @ x)
        assert np.all(np.abs(got - adj @ x) <= 1e-14 * (adj @ np.abs(x)))
        mixed = own[:, None] * x + g.neighbor_sum(x, edge)
        assert np.all(np.abs(mixed - w @ x) <= 1e-14 * (w @ np.abs(x)))
    assert np.abs(own + g.neighbor_sum(np.ones((g.n, 1)), edge)[:, 0] - 1.0).max() <= 1e-15


@pytest.mark.parametrize("n, p, seed", [(2, 1.0, 0), (10, 0.4, 42), (10, 0.2, 5),
                                        (12, 0.3, 4), (30, 0.1, 7), (40, 0.2, 1),
                                        (60, 0.05, 3)])
def test_erdos_renyi_draws_the_edges_of_the_pair_loop(n, p, seed):
    assert erdos_renyi(n, p, seed).edges == erdos_renyi_edges(n, p, seed)
