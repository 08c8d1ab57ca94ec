"""Communication graphs, consensus weight matrices, and schedule checks.

The fusion analysis needs three things from the network: doubly stochastic
weight matrices compatible with the instantaneous graph, joint strong
connectivity of every length-b window, and the second largest singular value
of window products, which controls the consensus contraction rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import Disconnected, DomainError, NotSymmetric, WeightRowInvalid

_DS_TOL = 1e-12
_EDGE_TOL = 1e-12
_ROW_TOL = 1e-9
_EXTRA_EDGE_PROB = 0.3
_SCHEDULE_TRIES = 200


@dataclass(frozen=True)
class Digraph:
    """Directed communication graph; edge (i, j) means i receives from j."""

    n: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one node")
        edges = frozenset((int(i), int(j)) for i, j in self.edges)
        for i, j in edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) outside node range")
            if i == j:
                raise ValueError("self loops are implicit, do not list them")
        object.__setattr__(self, "edges", edges)

    @classmethod
    def undirected(cls, n: int, pairs: Sequence[tuple[int, int]]) -> "Digraph":
        e = set()
        for i, j in pairs:
            e.add((int(i), int(j)))
            e.add((int(j), int(i)))
        return cls(n, frozenset(e))

    def is_symmetric(self) -> bool:
        return all((j, i) in self.edges for i, j in self.edges)

    def adjacency_bool(self) -> np.ndarray:
        m = np.eye(self.n, dtype=bool)
        for i, j in self.edges:
            m[i, j] = True
        return m

    def union(self, other: "Digraph") -> "Digraph":
        if other.n != self.n:
            raise ValueError("graphs have different node counts")
        return Digraph(self.n, self.edges | other.edges)


def strongly_connected(g: Digraph) -> bool:
    """Reachability closure by repeated boolean products."""
    reach = g.adjacency_bool()
    for _ in range(int(np.ceil(np.log2(max(g.n, 2))))):
        reach = reach | (reach @ reach)
    return bool(reach.all())


@dataclass(frozen=True, eq=False)
class AdjacencyMatrix:
    """Square nonnegative matrix with unit row and column sums."""

    values: np.ndarray = field(repr=False)
    tol: float = _DS_TOL

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if np.any(v < -self.tol) or np.any(np.isnan(v)):
            raise ValueError("entries must be nonnegative")
        rows = np.abs(v.sum(axis=1) - 1.0)
        cols = np.abs(v.sum(axis=0) - 1.0)
        if rows.max() > self.tol or cols.max() > self.tol:
            raise ValueError(
                f"matrix is not doubly stochastic (row residual {rows.max():.3g}, "
                f"column residual {cols.max():.3g})"
            )
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def support(self) -> Digraph:
        """Graph of strictly positive off-diagonal entries."""
        idx = np.argwhere(self.values > _EDGE_TOL)
        edges = frozenset((int(i), int(j)) for i, j in idx if i != j)
        return Digraph(self.n, edges)

    def min_positive(self) -> float:
        pos = self.values[self.values > _EDGE_TOL]
        return float(pos.min()) if pos.size else 0.0


def _weight_rows(adjacency: AdjacencyMatrix | np.ndarray) -> np.ndarray:
    """Fusion weight rows with entries <= 0 set to 0.

    Every entry must be finite and at least -1e-15, and every row must sum to
    1 within 1e-9; anything else raises ``WeightRowInvalid``.
    """
    a = np.asarray(getattr(adjacency, "values", adjacency), dtype=float)
    rows = np.where(a > 0.0, a, 0.0)
    # a NaN entry fails the first test, since every comparison with NaN is
    # false, and a +inf entry fails the row sum
    if not (a.min(initial=0.0) >= -1e-15 and np.abs(rows.sum(axis=1) - 1.0).max(initial=0.0) <= _ROW_TOL):
        raise WeightRowInvalid("fusion weights must be finite, at least -1e-15 and sum to 1 in each row")
    return rows


def _degree_weights(g: Digraph, extra: float, require_connected: bool) -> AdjacencyMatrix:
    """Weights A[i, j] = 1 / (extra + max(d_i, d_j)) on an undirected graph's edges.

    The diagonal takes whatever is left so each row sums to one.
    """
    if not g.is_symmetric():
        raise NotSymmetric("degree-based weights need an undirected graph")
    if require_connected and g.n > 1 and not strongly_connected(g):
        raise Disconnected("communication graph is not connected")
    deg = np.zeros(g.n)
    for i, j in g.edges:
        deg[i] += 1
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i, j] = 1.0 / (extra + max(deg[i], deg[j]))
    np.fill_diagonal(a, 1.0 - a.sum(axis=1))
    return AdjacencyMatrix(a)


def local_degree_weights(g: Digraph, require_connected: bool = True) -> AdjacencyMatrix:
    """Doubly stochastic weights A[i, j] = 1 / max(d_i, d_j) on an undirected graph.

    The diagonal takes whatever is left so each row sums to one. Pass
    require_connected=False for one slot of a schedule whose connectivity
    only holds over a window of slots.
    """
    return _degree_weights(g, 0.0, require_connected)


def metropolis_weights(g: Digraph, require_connected: bool = True) -> AdjacencyMatrix:
    """Doubly stochastic weights A[i, j] = 1 / (1 + max(d_i, d_j)).

    Keeps every positive entry strictly below one half on connected graphs,
    which the window-product entry bound needs. Pass require_connected=False
    for one slot of a schedule whose connectivity only holds over a window.
    """
    return _degree_weights(g, 1.0, require_connected)


@dataclass(frozen=True)
class AdjacencySchedule:
    """Periodic sequence of weight matrices with connectivity period b.

    ``matrices[k % len(matrices)]`` is the weight matrix of tick k (0 based);
    every window of b consecutive ticks must have a jointly strongly connected
    support union.
    """

    matrices: tuple
    b: int

    def __post_init__(self) -> None:
        mats = tuple(self.matrices)
        if len(mats) == 0:
            raise ValueError("schedule needs at least one matrix")
        n = mats[0].n
        if any(m.n != n for m in mats):
            raise ValueError("all matrices must share one size")
        if self.b < 1:
            raise ValueError("period b must be positive")
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "b", int(self.b))

    @property
    def n(self) -> int:
        return self.matrices[0].n

    @property
    def period(self) -> int:
        return len(self.matrices)

    def matrix_at(self, k: int) -> AdjacencyMatrix:
        return self.matrices[k % self.period]

    @classmethod
    def static(cls, a: AdjacencyMatrix) -> "AdjacencySchedule":
        return cls((a,), 1)


def window_product(s: AdjacencySchedule, k: int, length: int) -> AdjacencyMatrix:
    """Product of the window starting at tick k, later matrices on the left."""
    if length < 1:
        raise ValueError("window length must be positive")
    prod = s.matrix_at(k).values
    for t in range(k + 1, k + length):
        prod = s.matrix_at(t).values @ prod
    return AdjacencyMatrix(prod, tol=1e-10)


def window_union(s: AdjacencySchedule, k: int, length: int) -> Digraph:
    g = s.matrix_at(k).support()
    for t in range(k + 1, k + length):
        g = g.union(s.matrix_at(t).support())
    return g


def schedule_gamma(s: AdjacencySchedule) -> float:
    """Smallest positive entry over all b-length window products."""
    return min(window_product(s, k, s.b).min_positive() for k in range(s.period))


@dataclass(frozen=True)
class Assumption1Report:
    b: int
    gamma: float
    connectivity_ok: bool
    doubly_stochastic_ok: bool
    gamma_ok: bool
    max_row_residual: float
    max_col_residual: float
    failures: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_assumption1(s: AdjacencySchedule) -> Assumption1Report:
    """Check window connectivity, double stochasticity, and the entry bound.

    A gamma at or above one half is reported as a warning rather than a
    failure; the contraction rate bound loses its guarantee there but the
    fusion recursion itself is unaffected.
    """
    failures: list[str] = []
    warnings: list[str] = []

    conn_ok = True
    for k in range(s.period):
        if not strongly_connected(window_union(s, k, s.b)):
            conn_ok = False
            failures.append(f"clause (i): window starting at tick {k} is not jointly strongly connected")

    row_res = 0.0
    col_res = 0.0
    for m in s.matrices:
        row_res = max(row_res, float(np.abs(m.values.sum(axis=1) - 1.0).max()))
        col_res = max(col_res, float(np.abs(m.values.sum(axis=0) - 1.0).max()))
    ds_ok = row_res <= _DS_TOL and col_res <= _DS_TOL
    if not ds_ok:
        failures.append(
            f"clause (ii): double stochasticity residuals row={row_res:.3g} col={col_res:.3g}"
        )

    gamma = schedule_gamma(s)
    gamma_ok = 0.0 < gamma < 0.5
    if gamma <= 0.0:
        failures.append("clause (iii): some window product has no positive entries")
    elif gamma >= 0.5:
        warnings.append(
            f"clause (iii): smallest positive window entry {gamma:.3g} is not below 1/2; "
            "the contraction rate bound does not apply"
        )

    return Assumption1Report(
        b=s.b,
        gamma=gamma,
        connectivity_ok=conn_ok,
        doubly_stochastic_ok=ds_ok,
        gamma_ok=gamma_ok,
        max_row_residual=row_res,
        max_col_residual=col_res,
        failures=tuple(failures),
        warnings=tuple(warnings),
    )


def second_singular_value(a: AdjacencyMatrix) -> float:
    """Second largest singular value; zero for a single node."""
    if a.n == 1:
        return 0.0
    s = np.linalg.svd(a.values, compute_uv=False)
    return float(s[1])


def sigma_m_bound(n: int, gamma: float) -> float:
    """Closed-form bound on the window contraction rate.

    sqrt(1 - 4 (gamma - gamma^n) / (1 - gamma) * sin^2(pi / (2 n))), valid for
    doubly stochastic windows with entries in [gamma, 1] or zero, gamma in
    (0, 1/2), over windows of length b (n - 1).
    """
    if n < 2:
        raise DomainError("need at least two agents")
    if not (0.0 < gamma < 0.5):
        raise DomainError("gamma must lie in (0, 1/2)")
    inner = 1.0 - 4.0 * (gamma - gamma**n) / (1.0 - gamma) * np.sin(np.pi / (2 * n)) ** 2
    return float(np.sqrt(max(inner, 0.0)))


def sigma_m(s: AdjacencySchedule) -> float:
    """Worst second singular value over all b(n-1)-length window products."""
    if s.n == 1:
        return 0.0
    length = s.b * (s.n - 1)
    return max(second_singular_value(window_product(s, k, length)) for k in range(s.period))


def random_connected_graph(n: int, rng: np.random.Generator) -> Digraph:
    """Random undirected connected graph: a random tree plus extra edges."""
    pairs = []
    order = rng.permutation(n)
    for idx in range(1, n):
        attach = order[rng.integers(0, idx)]
        pairs.append((int(order[idx]), int(attach)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.uniform() < _EXTRA_EDGE_PROB:
                pairs.append((i, j))
    return Digraph.undirected(n, pairs)


def random_schedule(
    n: int,
    rng: np.random.Generator,
    b: int = 1,
    slots: int = 1,
    require_gamma_below_half: bool = False,
) -> AdjacencySchedule:
    """Random periodic schedule satisfying the connectivity assumption.

    With b == 1 every slot is a connected graph. With b > 1 each slot carries
    a piece of a connected graph and only windows of length b reconnect.
    """
    for _ in range(_SCHEDULE_TRIES):
        mats = []
        if b == 1:
            for _ in range(slots):
                g = random_connected_graph(n, rng)
                mats.append(metropolis_weights(g))
        else:
            g = random_connected_graph(n, rng)
            edges = sorted({(min(i, j), max(i, j)) for i, j in g.edges})
            rng.shuffle(edges)
            chunks = [edges[i::b] for i in range(b)]
            if any(len(c) == 0 for c in chunks):
                continue
            for chunk in chunks:
                sub = Digraph.undirected(n, chunk)
                mats.append(metropolis_weights(sub, require_connected=False))
        sched = AdjacencySchedule(tuple(mats), b)
        report = check_assumption1(sched)
        if not report.ok:
            continue
        if require_gamma_below_half and not report.gamma_ok:
            continue
        return sched
    raise RuntimeError("could not generate a valid schedule")


def load_edge_list(path, n: int | None = None) -> Digraph:
    """Read an undirected edge list, one 'i j' pair per line; errors name the line."""
    pairs = []
    nodes = -1
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            where = f"{path}:{number}: edge {line!r}"
            parts = line.split()
            if len(parts) != 2 or not all(p.isdecimal() for p in parts):
                raise ValueError(f"{where} is not two node indices")
            i, j = int(parts[0]), int(parts[1])
            if i == j:
                raise ValueError(f"{where} is a self loop; self loops are implicit")
            if n is not None and max(i, j) >= n:
                raise ValueError(f"{where} names a node at or beyond the {n} agents")
            pairs.append((i, j))
            nodes = max(nodes, i, j)
    if n is None and not pairs:
        raise ValueError(f"{path} lists no edges; give the agent count")
    return Digraph.undirected(nodes + 1 if n is None else n, pairs)
