"""Immutable undirected graph plus the distance, domination and component
queries that every other module consumes.

Vertex sets are plain ``frozenset[int]`` throughout; nothing here mutates a
graph after construction, so graphs and vertex sets are safe to share.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, InternalError

VertexSet = frozenset[int]


class Graph:
    """Undirected simple graph over non-negative integer node ids.

    Node ids are arbitrary non-negative integers and need not be contiguous.
    Self-loops and edges naming unknown nodes are rejected.
    """

    __slots__ = ("_adj", "_nodes", "_hash")

    # ``__new__``, so that checked and unchecked graphs alike come from ``_from_adj``.
    def __new__(cls, nodes: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()) -> Graph:
        adj: dict[int, set[int]] = {}
        for v in nodes:
            v = int(v)
            if v < 0:
                raise InputError(f"negative node id {v}")
            adj.setdefault(v, set())
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InputError(f"self-loop on node {u}")
            if u not in adj or v not in adj:
                missing = u if u not in adj else v
                raise InputError(f"edge {u}-{v} names undeclared node {missing}")
            adj[u].add(v)
            adj[v].add(u)
        return cls._from_adj({v: frozenset(ns) for v, ns in adj.items()})

    @classmethod
    def _from_adj(cls, adj: dict[int, VertexSet]) -> Graph:
        """The graph with adjacency map ``adj``, unchecked: ``adj`` must be
        symmetric, with non-negative ids and no self-loops."""
        g = object.__new__(cls)
        g._adj = adj
        g._nodes = frozenset(adj)
        g._hash = None
        return g

    @property
    def nodes(self) -> VertexSet:
        return self._nodes

    def neighbors(self, v: int) -> VertexSet:
        try:
            return self._adj[v]
        except KeyError:
            raise InputError(f"unknown node id {v}") from None

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, frozenset())

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in sorted(self._adj) for v in sorted(self._adj[u]) if u < v]

    def induced(self, keep: Iterable[int]) -> "Graph":
        keep_set = frozenset(keep)
        unknown = keep_set - self._nodes
        if unknown:
            raise InputError(f"unknown node ids {sorted(unknown)}")
        if len(keep_set) == len(self._nodes):
            return self  # graphs are immutable
        return Graph._from_adj({v: self._adj[v] & keep_set for v in keep_set})

    def __contains__(self, v: int) -> bool:
        return v in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:
        # Computed once: the graph-keyed caches hash a graph on every lookup.
        if self._hash is None:
            self._hash = hash((self._nodes, frozenset(self._adj.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph({len(self._nodes)} nodes, {len(self.edges())} edges)"


def distances_from(
    g: Graph,
    source: int | Iterable[int],
    restrict: VertexSet | None = None,
    radius: int | None = None,
    stop: VertexSet | None = None,
) -> dict[int, int]:
    """BFS hop distances from ``source``; unreachable nodes are absent.

    ``source`` is one id or a collection of ids; with a collection each
    distance is to the nearest source.  With ``restrict`` given, distances are
    measured in the subgraph induced by ``restrict`` (which must contain every
    source).  With ``radius`` given, the search stops expanding at that depth,
    so nodes farther away are absent.  A node in ``stop`` gets its distance
    but is not expanded unless it is a source.  This is the package's only BFS.
    """
    dist = {source: 0} if isinstance(source, int) else dict.fromkeys(source, 0)
    if not dist.keys() <= g.nodes:
        raise InputError(f"unknown source id {min(dist.keys() - g.nodes)}")
    if restrict is not None and not dist.keys() <= restrict:
        raise InputError(f"source {min(dist.keys() - restrict)} not in restriction set")
    limit = math.inf if radius is None else radius
    if limit < 0:
        raise InputError(f"BFS radius must be non-negative, got {radius}")
    queue = deque(dist)
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        if d > limit:
            break
        for w in g._adj[v]:
            if w not in dist and (restrict is None or w in restrict):
                dist[w] = d
                if stop is None or w not in stop:
                    queue.append(w)
    return dist


def ball(g: Graph, source: int, radius: int) -> VertexSet:
    """All nodes within ``radius`` hops of ``source``."""
    return frozenset(distances_from(g, source, radius=radius))


def connected_components(g: Graph, within: VertexSet | None = None) -> list[VertexSet]:
    """Connected components of g (or of the subgraph induced by ``within``),
    sorted by minimum node id."""
    universe = g.nodes if within is None else frozenset(within)
    seen: set[int] = set()
    comps: list[VertexSet] = []
    for v in sorted(universe):
        if v in seen:
            continue
        comp = frozenset(distances_from(g, v, universe))
        seen |= comp
        comps.append(comp)
    return comps


def diameter(g: Graph, within: VertexSet | None = None, cap: int | None = None) -> float:
    """Diameter of the (induced) subgraph; ``inf`` when disconnected, 0 for a
    single node, ``-inf`` for an empty vertex set.

    With ``cap`` given the result is ``min(diameter, cap)``: the first search
    is unbounded and doubles as the connectivity test, every later one stops
    at depth ``cap``, and the scan ends as soon as any search reaches that
    depth.  A caller that only asks "is the diameter above k?" passes
    ``cap=k + 1`` and pays one BFS on a large component, not all pairs.
    """
    if cap is not None and cap < 1:
        raise InputError(f"diameter cap must be positive, got {cap}")
    universe = g.nodes if within is None else frozenset(within)
    if not universe:
        return -math.inf
    best = 0
    radius = None
    for v in universe:
        dist = distances_from(g, v, universe, radius)
        if radius is None and len(dist) != len(universe):
            return math.inf
        radius = cap
        best = max(best, max(dist.values()))
        if cap is not None and best >= cap:
            return cap
    return best


@functools.lru_cache(maxsize=1)
def capped_diameter(g: Graph) -> float:
    """``diameter(g, cap=4)``: above 3 (or ``inf``, disconnected) sends an
    instance to the 28-step pipeline, else to the small-diameter fallback.
    Memoised for the last graph asked, since every caller asks about one
    graph several times in a row; graphs are immutable, so it never goes stale."""
    return diameter(g, cap=4)


def edge_inside(g: Graph, s: VertexSet) -> tuple[int, int] | None:
    """The smallest edge of g with both endpoints in s, as (low, high) with
    the smallest low endpoint and then the smallest high one; None if s is
    independent."""
    if all(g.neighbors(v).isdisjoint(s) for v in s):
        return None
    # The smallest node with a neighbor in s is the low end of that edge.
    low = min(v for v in s if not g.neighbors(v).isdisjoint(s))
    return (low, min(g.neighbors(low) & s))


def is_independent(g: Graph, s: VertexSet) -> bool:
    """True iff no edge of g has both endpoints in s; the empty set counts."""
    return edge_inside(g, frozenset(s)) is None


def is_d_dominating(g: Graph, s: VertexSet, d: int) -> bool:
    """True iff every node of g is within ``d`` hops of some member of s."""
    if d < 1:
        raise InputError(f"domination radius must be positive, got {d}")
    return len(distances_from(g, s, radius=d)) == len(g.nodes)


def is_mis(g: Graph, s: VertexSet) -> bool:
    """True iff s is independent and every node outside s has a neighbor in s."""
    s = frozenset(s)
    if not is_independent(g, s):
        return False
    return all(v in s or not g.neighbors(v).isdisjoint(s) for v in g.nodes)


@dataclass(frozen=True)
class ComponentInfo:
    """One connected component of alpha ∪ beta with its classification.

    ``diameter`` is measured in the subgraph induced by the component and is
    exact below 5, else 5 (``diameter(..., cap=5)``).  The 28-step pipeline
    only sorts components into bands (at most 2, 3 to 4, at least 5, the
    last getting the ruling-set cascade), so the cap keeps every band while
    a large component costs one BFS instead of all pairs.
    ``isolated`` means every adjacent epsilon-node has all of its alpha- and
    beta-neighbors inside this component.  ``alpha_covered`` holds the
    labels (minimum ids) of the other components that cover this one through
    alpha: some epsilon-node has a beta-neighbor here and an alpha-neighbor
    there.  ``beta_covered`` is the same with the sides swapped.
    """

    vertices: VertexSet
    diameter: int
    isolated: bool
    alpha_covered: frozenset[int]
    beta_covered: frozenset[int]

    @property
    def min_id(self) -> int:
        return min(self.vertices)


def components_of(g: Graph, alpha: VertexSet, beta: VertexSet) -> list[ComponentInfo]:
    """Partition alpha ∪ beta into connected components of the induced
    subgraph and annotate each with diameter, isolation and covering labels;
    the other nodes of g are the epsilon-nodes."""
    alpha, beta = frozenset(alpha), frozenset(beta)
    u = alpha | beta
    if not u <= g.nodes:
        raise InputError(f"alpha and beta contain unknown ids {sorted(u - g.nodes)}")
    by_label = {min(comp): comp for comp in connected_components(g, u)}
    label = {v: i for i, comp in by_label.items() for v in comp}

    isolated = dict.fromkeys(by_label, True)
    alpha_covered: dict[int, set[int]] = {i: set() for i in by_label}
    beta_covered: dict[int, set[int]] = {i: set() for i in by_label}
    for e in g.nodes - u:
        touched = {label[w] for w in g.neighbors(e) if w in label}
        if not touched:
            continue
        n_alpha = g.neighbors(e) & alpha
        n_beta = g.neighbors(e) & beta
        for i in touched:
            if not (n_alpha <= by_label[i] and n_beta <= by_label[i]):
                isolated[i] = False
        # e covers component j through alpha with every other component in
        # which it has an alpha-neighbor, if it has a beta-neighbor in j.
        alpha_sides = {label[w] for w in n_alpha if w in label}
        beta_sides = {label[w] for w in n_beta if w in label}
        for j in beta_sides:
            alpha_covered[j] |= alpha_sides - {j}
        for j in alpha_sides:
            beta_covered[j] |= beta_sides - {j}

    out = []
    for i, comp in by_label.items():
        diam = diameter(g, comp, cap=5)
        if diam == math.inf:
            raise InternalError("component must be connected by construction")
        out.append(
            ComponentInfo(
                vertices=comp,
                diameter=int(diam),
                isolated=isolated[i],
                alpha_covered=frozenset(alpha_covered[i]),
                beta_covered=frozenset(beta_covered[i]),
            )
        )
    return out


def parse_graph_file(text: str) -> Graph:
    """Parse the ``node <id>`` / ``edge <id> <id>`` text format.

    Blank lines, ``#`` comments and duplicate edges are ignored.  A malformed
    record, a negative id, a self-loop or an edge naming an undeclared node
    (nodes may be declared after their edges) is an error naming its line.
    """
    declared: set[int] = set()
    adj: defaultdict[int, set[int]] = defaultdict(set)
    edges: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        try:
            if parts[0] == "node" and len(parts) == 2:
                v = int(parts[1])
                if v >= 0:
                    declared.add(v)
                    continue
                problem = f"negative node id {v}"
            elif parts[0] == "edge" and len(parts) == 3:
                u, v = int(parts[1]), int(parts[2])
                if u != v:
                    adj[u].add(v)
                    adj[v].add(u)
                    edges.append((lineno, u, v))
                    continue
                problem = f"self-loop on node {u}"
            else:
                problem = f"malformed record {raw!r}"
        except ValueError:
            problem = f"malformed record {raw!r}"
        raise InputError(f"line {lineno}: {problem}")
    if not adj.keys() <= declared:
        lineno, u, v = next(e for e in edges if not declared.issuperset(e[1:]))
        missing = u if u not in declared else v
        raise InputError(f"line {lineno}: edge {u}-{v} names undeclared node {missing}")
    return Graph._from_adj({v: frozenset(adj[v]) for v in sorted(declared)})


def format_graph_file(g: Graph) -> str:
    lines = [f"node {v}" for v in sorted(g.nodes)]
    lines += [f"edge {u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"
