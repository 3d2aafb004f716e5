"""
Undirected communication topologies and their spectral objects.

Graphs are immutable after construction and connectivity is enforced at
construction time: every stability statement downstream assumes a
connected network, so a disconnected graph is rejected early.
"""

import math

import numpy as np

from .numerics import spectral_norm_symmetric


class DisconnectedGraphError(ValueError):
    """The requested edge set does not form a connected graph."""


class GenerationFailedError(RuntimeError):
    """Random graph generation failed to produce a connected sample."""


class Graph:
    """Fixed undirected connected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n : int
        Number of agents (>= 1).
    edges : iterable of (i, j)
        Unordered vertex pairs, no self loops.
    """

    def __init__(self, n, edges):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one vertex")
        canon = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i},{j}) out of range for n={n}")
            canon.add((min(i, j), max(i, j)))
        self.n = n
        self.edges = frozenset(canon)
        adjacent = [[] for _ in range(n)]
        for i, j in self.edges:
            adjacent[i].append(j)
            adjacent[j].append(i)
        self._neighbors = tuple(tuple(sorted(nb)) for nb in adjacent)
        if not self._connected():
            raise DisconnectedGraphError(
                f"graph on {n} vertices with {len(self.edges)} edges is not connected")

    def _connected(self):
        if self.n == 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in self._neighbors[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def neighbors(self, i):
        """Sorted tuple of neighbors of vertex i."""
        return self._neighbors[i]

    @property
    def degrees(self):
        """Vertex degrees as an (n,) array."""
        return np.array([len(nb) for nb in self._neighbors], dtype=float)

    def adjacency(self):
        """Symmetric 0-1 adjacency matrix with zero diagonal."""
        a = np.zeros((self.n, self.n))
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a

    def laplacian(self):
        """L = diag(A 1) - A; rows sum to zero and L is PSD."""
        a = self.adjacency()
        return np.diag(a.sum(axis=1)) - a

    def incidence(self):
        """n x |edges| incidence matrix E with E @ E.T equal to the Laplacian.

        Columns are ordered by sorted edge; orientation puts +1 at the
        smaller vertex index mostly so tests are bit-stable (the product
        E @ E.T does not depend on it).
        """
        cols = sorted(self.edges)
        e = np.zeros((self.n, len(cols)))
        for k, (i, j) in enumerate(cols):
            e[i, k] = 1.0
            e[j, k] = -1.0
        return e

    def q_matrix(self):
        """(D + A) / 2, the symmetric coupling of the mixed implicit analysis.

        Diagonally dominant with nonnegative diagonal, hence PSD.
        """
        a = self.adjacency()
        return (np.diag(a.sum(axis=1)) + a) / 2.0

    def d2_minus_a2(self):
        """D^2 - A^2; PSD exactly when the step-size-free certificate applies."""
        a = self.adjacency()
        d = np.diag(a.sum(axis=1))
        out = d @ d - a @ a
        return (out + out.T) / 2.0

    def tau_upper_bound(self, mu):
        """Step-size bound mu / ||D^2 - A^2|| valid on any connected graph.

        Returns +inf when the norm vanishes (e.g. a single edge).
        """
        if not mu > 0:
            raise ValueError("mu must be > 0")
        norm = spectral_norm_symmetric(self.d2_minus_a2())
        if norm <= 0.0:
            return math.inf
        return float(mu) / norm


def cycle(n):
    """Cycle on n >= 3 vertices."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n):
    """Complete graph on n >= 2 vertices."""
    if n < 2:
        raise ValueError("complete graph needs n >= 2")
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star(n):
    """Star with center 0 and n - 1 leaves, n >= 2."""
    if n < 2:
        raise ValueError("star needs n >= 2")
    return Graph(n, [(0, i) for i in range(1, n)])


def erdos_renyi(n, p, seed, max_attempts=10000):
    """Erdos-Renyi sample conditioned on connectivity by resampling.

    Each pair is included independently with probability `p`; disconnected
    draws are discarded and redrawn from the same seeded stream, so the
    output is deterministic in (n, p, seed).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for _ in range(max_attempts):
        draws = rng.random(len(pairs))
        edges = [pair for pair, x in zip(pairs, draws) if x < p]
        try:
            return Graph(n, edges)
        except DisconnectedGraphError:
            continue
    raise GenerationFailedError(
        f"no connected sample in {max_attempts} draws (n={n}, p={p})")


def from_spec(spec):
    """Build a graph from a CLI spec string.

    Formats: ``cycle:N``, ``complete:N``, ``star:N``, ``er:N:p:seed``.
    """
    parts = str(spec).split(":")
    kind = parts[0].lower()
    try:
        if kind == "cycle" and len(parts) == 2:
            return cycle(int(parts[1]))
        if kind == "complete" and len(parts) == 2:
            return complete(int(parts[1]))
        if kind == "star" and len(parts) == 2:
            return star(int(parts[1]))
        if kind == "er" and len(parts) == 4:
            return erdos_renyi(int(parts[1]), float(parts[2]), int(parts[3]))
    except ValueError as exc:
        raise ValueError(f"bad graph spec {spec!r}: {exc}") from exc
    raise ValueError(f"unrecognized graph spec {spec!r}")
