"""
Undirected communication topologies and their spectral objects.

Graphs are immutable after construction and connectivity is enforced at
construction time: every stability statement downstream assumes a
connected network, so a disconnected graph is rejected early.

A graph keeps its edges as arrays built once at construction: every
vertex's neighbours, grouped by vertex in ascending order, and the offset
where each vertex's group starts. The neighbour exchange of the schemes
runs on them (`Graph.neighbor_sum`), so a step costs O(|E|) rather than
the O(n^2) of a dense adjacency product.
"""

import functools

import numpy as np


class DisconnectedGraphError(ValueError):
    """The requested edge set does not form a connected graph."""


class GenerationFailedError(RuntimeError):
    """Random graph generation failed to produce a connected sample."""


def _read_only(a):
    a.flags.writeable = False
    return a


class Graph:
    """Fixed undirected connected graph on vertices ``0 .. n-1``.

    Parameters
    ----------
    n : int
        Number of agents (>= 1).
    edges : iterable of (i, j), or an (E, 2) integer array
        Unordered vertex pairs, no self loops; repeats collapse.
    """

    def __init__(self, n, edges):
        n = int(n)
        if n < 1:
            raise ValueError("need at least one vertex")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        pairs = np.asarray(edges, dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError(f"edges must be vertex pairs, got shape {pairs.shape}")
        loops = pairs[:, 0] == pairs[:, 1]
        outside = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if (loops | outside).any():
            i, j = pairs[np.argmax(loops | outside)].tolist()
            if i == j:
                raise ValueError(f"self loop at vertex {i}")
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        keys = np.sort(pairs.min(axis=1) * n + pairs.max(axis=1))
        keys = keys[np.diff(keys, prepend=-1) > 0]  # each edge once
        lo, hi = keys // n, keys % n
        self.n = n
        # every edge once from each end: vertex owners[k] has neighbour ends[k]
        owners = np.concatenate([lo, hi])
        ends = np.concatenate([hi, lo])
        order = np.lexsort((ends, owners))
        counts = np.bincount(owners, minlength=n)
        self._owners = _read_only(owners[order])
        self._neighbors = _read_only(ends[order])
        self._starts = _read_only(np.cumsum(counts) - counts)
        self._degrees = _read_only(counts.astype(float))
        if not self._connected():
            raise DisconnectedGraphError(
                f"graph on {n} vertices with {lo.size} edges is not connected")
        self.edges = frozenset(zip(lo.tolist(), hi.tolist()))

    def _connected(self):
        neighbors = self._neighbors.tolist()
        starts = self._starts.tolist() + [len(neighbors)]
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        while stack:
            v = stack.pop()
            for w in neighbors[starts[v]:starts[v + 1]]:
                if not seen[w]:
                    seen[w] = 1
                    stack.append(w)
        return all(seen)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    @property
    def degrees(self):
        """Vertex degrees as a read-only (n,) array."""
        return self._degrees

    def neighbor_sum(self, x, weights=None):
        """Row i of the result is the sum of the rows x[..., j, :] over the
        neighbours j of vertex i.

        `x` is an (..., n, m) stack. With `weights`, one per neighbour
        entry in the order of the edge arrays (as `metropolis` gives
        them), each row is scaled by its edge's weight first. One gather
        and one `np.add.reduceat`, so the cost is O(|E|) per (n, m)
        slice. A graph without edges sums to zero.
        """
        if not self._neighbors.size:
            return np.zeros(np.shape(x))
        terms = np.take(x, self._neighbors, axis=-2)
        if weights is not None:
            terms *= weights[:, None]
        return np.add.reduceat(terms, self._starts, axis=-2)

    @functools.cached_property
    def metropolis(self):
        """Metropolis mixing as (self weights, edge weights), built once.

        w_ij = 1 / (1 + max(deg_i, deg_j)) on each edge, one per entry of
        the edge arrays, and w_ii = 1 - sum_j w_ij, so the doubly
        stochastic product W x is ``w_ii x_i + neighbor_sum(x, w_ij)``.
        A single vertex keeps itself: w_00 = 1.
        """
        edge = 1.0 / (1.0 + np.maximum(self._degrees[self._owners],
                                        self._degrees[self._neighbors]))
        own = 1.0 - self.neighbor_sum(np.ones((self.n, 1)), edge)[:, 0]
        return _read_only(own), _read_only(edge)

    def adjacency(self):
        """Symmetric 0-1 adjacency matrix with zero diagonal."""
        a = np.zeros((self.n, self.n))
        a[self._owners, self._neighbors] = 1.0
        return a

    def laplacian(self):
        """L = diag(A 1) - A; rows sum to zero and L is PSD."""
        a = self.adjacency()
        return np.diag(a.sum(axis=1)) - a

    def q_matrix(self):
        """(D + A) / 2, the symmetric coupling of the mixed implicit analysis.

        Diagonally dominant with nonnegative diagonal, hence PSD.
        """
        a = self.adjacency()
        return (np.diag(a.sum(axis=1)) + a) / 2.0


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

    Each pair i < j, taken in row-major order, is included independently
    with probability `p`; disconnected draws are discarded and redrawn from
    the same seeded stream, so the output is deterministic in (n, p, seed).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    rng = np.random.default_rng(seed)
    pairs = np.column_stack(np.triu_indices(n, k=1))
    for _ in range(max_attempts):
        try:
            return Graph(n, pairs[rng.random(len(pairs)) < p])
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
