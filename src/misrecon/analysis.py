"""Exact existence characterization, exhaustive brute-force oracle over the
reconfiguration state graph, small-diameter scheduling, gadget families, and
the small-graph enumerator used by the equivalence test."""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import deque
from dataclasses import dataclass

from .errors import InputError, InternalError
from .graph import Graph, VertexSet, capped_diameter, connected_components, diameter, distances_from
from .schedule import PropertySpec, ReconfigInstance, Schedule, validate


@dataclass(frozen=True)
class BlockerReport:
    """Verdict of the three-condition existence test.

    A schedule fails to exist exactly when alpha and beta are fully connected,
    every epsilon-node is fully connected to alpha or to beta, and the
    complement graph on those epsilon-nodes has no path from the alpha-only
    side to the beta-only side.
    """

    blocked: bool
    cond1_fully_connected: bool
    cond2_eps_covered: bool
    cond3_no_complement_path: bool
    witness: tuple | None = None


@functools.lru_cache(maxsize=1)
def check_blocker(inst: ReconfigInstance) -> BlockerReport:
    """The three-condition test, with the first failed condition's witness:
    the smallest alpha-node a with a beta-node b off its neighbourhood (b = a
    for a node of both) and the smallest such b; the smallest free
    epsilon-node; or a shortest path between the epsilon sides whose steps
    join non-neighbours, found by ``_complement_path``.  Memoised for the
    last instance, which ``small_diameter_fallback`` asks about again."""
    g, alpha, beta = inst.graph, inst.alpha, inst.beta
    if not g.nodes:
        raise InputError("cannot classify the empty graph")

    a = next((a for a in sorted(alpha) if not beta <= g.neighbors(a)), None)
    cond1 = a is None
    witness1 = None if cond1 else ("non-adjacent-pair", a, min(beta - g.neighbors(a)))

    eps = g.nodes - alpha - beta
    eps_alpha = frozenset(e for e in eps if alpha <= g.neighbors(e))
    eps_beta = frozenset(e for e in eps if beta <= g.neighbors(e))
    uncovered = sorted(eps - eps_alpha - eps_beta)
    cond2 = not uncovered
    witness2 = ("free-epsilon-node", uncovered[0]) if uncovered else None

    path = _complement_path(g, eps_alpha | eps_beta, sorted(eps_beta - eps_alpha), eps_alpha - eps_beta)
    cond3 = path is None
    witness3 = ("complement-path", tuple(path)) if path else None

    blocked = cond1 and cond2 and cond3
    witness = None
    if not blocked:
        witness = witness1 if not cond1 else (witness2 if not cond2 else witness3)
    return BlockerReport(blocked, cond1, cond2, cond3, witness)


def _complement_path(g: Graph, keep: VertexSet, sources: list[int], targets: VertexSet) -> list[int] | None:
    """A shortest path from ``sources`` to ``targets`` in the complement of g
    on ``keep``: breadth-first, each node's non-neighbours in ascending order."""
    parent: dict[int, int | None] = {s: None for s in sources}
    queue = deque(sources)
    while queue:
        v = queue.popleft()
        if v in targets:
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return list(reversed(path))
        for w in sorted(keep - g.neighbors(v)):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    return None


@dataclass(frozen=True)
class OracleResult:
    """Ground truth from a complete breadth-first search over the state
    graph: ``min_length`` and ``witness`` are None exactly when no schedule
    exists."""

    exists: bool
    min_length: int | None
    witness: Schedule | None
    states_explored: int


ORACLE_NODE_LIMIT = 20


def brute_force_oracle(inst: ReconfigInstance, prop: PropertySpec = PropertySpec(4)) -> OracleResult:
    """Shortest schedule via BFS over all independent d-dominating sets.

    States are connected when their symmetric difference is independent, which
    permits simultaneous additions and removals in one step.  Each popped state
    scans only the states not yet reached, ascending.  The search always
    finishes: n <= ``ORACLE_NODE_LIMIT`` nodes and an edge give at most
    3·2^(n-2) independent sets, and an edgeless graph has one state.
    """
    g = inst.graph
    n = len(g.nodes)
    if n > ORACLE_NODE_LIMIT:
        raise InputError(f"oracle limited to {ORACLE_NODE_LIMIT} nodes, got {n}")
    nodes, indep, states = _state_space(g, prop.d)
    alpha_mask = sum(1 << i for i, v in enumerate(nodes) if v in inst.alpha)
    beta_mask = sum(1 << i for i, v in enumerate(nodes) if v in inst.beta)

    parent: dict[int, int | None] = {alpha_mask: None}
    unreached = [m for m in states if m != alpha_mask]
    queue = deque([alpha_mask])
    explored = 0
    while queue:
        cur = queue.popleft()
        explored += 1
        if cur == beta_mask:
            masks = [cur]
            while parent[masks[-1]] is not None:
                masks.append(parent[masks[-1]])
            masks.reverse()
            steps = tuple(frozenset(v for i, v in enumerate(nodes) if m >> i & 1) for m in masks)
            return OracleResult(True, len(masks) - 1, Schedule.from_steps(steps), explored)
        keep = []
        for nxt in unreached:
            if not indep[cur ^ nxt]:
                keep.append(nxt)
            else:
                parent[nxt] = cur
                queue.append(nxt)
        unreached = keep
    return OracleResult(False, None, None, explored)


@functools.lru_cache(maxsize=4)
def _state_space(g: Graph, d: int) -> tuple[tuple[int, ...], bytes, tuple[int, ...]]:
    """The oracle's state space, built once per (graph, d).

    Returns the sorted nodes (a node's bit is its position), the table
    ``indep[m]`` of every mask's independence, and the ascending masks of
    every independent d-dominating set.  A mask's entry follows from the mask
    without its top bit: independent iff that is and the top node has no
    neighbour in it.  Graphs are immutable, so the cache never goes stale.
    """
    nodes = tuple(sorted(g.nodes))
    bit = {v: 1 << i for i, v in enumerate(nodes)}
    adj = [sum(bit[w] for w in g.neighbors(v)) for v in nodes]
    indep = bytearray(b"\x01")
    for i in range(len(nodes)):
        indep += bytes(indep[rest] and not adj[i] & rest for rest in range(1 << i))
    balls = [sum(bit[w] for w in distances_from(g, v, radius=d)) for v in nodes]
    states = tuple(m for m in itertools.compress(range(len(indep)), indep) if all(b & m for b in balls))
    return nodes, bytes(indep), states


def small_diameter_fallback(inst: ReconfigInstance) -> Schedule | None:
    """Constructive schedule for diameter <= 3 graphs, or None when blocked.

    At this diameter any nonempty set 4-dominates the whole graph, so the
    three ways a blocking condition can fail each yield a direct template:
    insert a beta-node missing some alpha-node; route through a free
    epsilon-node; or walk a complement path between the epsilon sides.  The
    diameter guard is memoised per graph, so a pass over one graph's pairs
    pays for it once.
    """
    g = inst.graph
    if capped_diameter(g) > 3:  # inf, a disconnected graph, is above 3 too
        raise InputError("fallback applies to connected graphs of diameter at most 3")
    alpha, beta = inst.alpha, inst.beta
    if alpha == beta:
        return Schedule(alpha, ())
    report = check_blocker(inst)
    if report.blocked:
        return None

    steps: list[VertexSet]
    if not report.cond1_fully_connected:
        _, _, b = report.witness
        keep = alpha - g.neighbors(b)
        steps = [alpha, keep, keep | {b}, frozenset({b}), beta]
    elif not report.cond2_eps_covered:
        _, e = report.witness
        a = min(alpha - g.neighbors(e))
        b = min(beta - g.neighbors(e))
        steps = [alpha, {a}, {a, e}, {e}, {e, b}, {b}, beta]
    else:
        _, path = report.witness
        path = list(path)  # runs from the beta-side to the alpha-side
        if not (beta <= g.neighbors(path[0])):
            path.reverse()
        a = min(alpha - g.neighbors(path[0]))
        b = min(beta - g.neighbors(path[-1]))
        steps = [alpha, {a}, {a, path[0]}]
        for prev, nxt in zip(path, path[1:]):
            steps.append(frozenset({prev}))
            steps.append(frozenset({prev, nxt}))
        steps = steps + [{path[-1]}, {path[-1], b}, {b}, beta]
    sched = Schedule.from_steps(steps)
    violation = validate(inst, sched, PropertySpec(4))
    if violation is not None:
        raise InternalError(f"fallback schedule invalid: {violation.describe()}")
    return sched


def greedy_mis(g: Graph, order: list[int]) -> VertexSet:
    chosen: set[int] = set()
    for v in order:
        if not (g.neighbors(v) & chosen):
            chosen.add(v)
    return frozenset(chosen)


# ``random`` draws every one of its n(n - 1)/2 node pairs, so ``gen_gadget``
# refuses a larger n before any draw: 16,000 nodes already take seconds.
RANDOM_MAX_N = 32_768

# The sizes each gadget family reads, out of n, k and p.
_FAMILY_SIZES = {"threedom-blocker": "", "threedom-linear": "n", "logstar": "nk", "star": "k",
                "random": "np", "alt-path": "n", "alt-cycle": "n"}


def gen_gadget(
    family: str,
    n: int | None = None,
    k: int | None = None,
    p: float | None = None,
    seed: int = 0,
) -> ReconfigInstance:
    """Deterministic instance families used by the impossibility and scaling
    experiments.  Structural properties are verified by tests through the
    oracle, never assumed.  A size the family does not read is refused."""
    if family not in _FAMILY_SIZES:
        raise InputError(f"unknown family {family!r}")
    unread = [f"{name}={value}" for name, value in zip("nkp", (n, k, p))
              if value is not None and name not in _FAMILY_SIZES[family]]
    if unread:
        raise InputError(f"family {family} does not take {', '.join(unread)}")
    if family == "threedom-blocker":
        g = Graph(range(5), [(i, i + 1) for i in range(4)])
        return ReconfigInstance(g, frozenset({0, 2, 4}), frozenset({1, 3}))
    if family == "threedom-linear":
        if n is None or n < 7:
            raise InputError("threedom-linear needs n >= 7")
        return _threedom_linear((n + 2) // 3)
    if family == "logstar":
        if n is None or k is None or k < 3 or n // (k + 1) < 3:
            raise InputError(f"logstar needs k >= 3 and n >= 3(k + 1), got n={n}, k={k}")
        return _logstar_ring(n // (k + 1), k)
    if family == "star":
        if k is None or k < 1:
            raise InputError("star needs k >= 1")
        g = Graph(range(k + 1), [(0, i) for i in range(1, k + 1)])
        return ReconfigInstance(g, frozenset({0}), frozenset(range(1, k + 1)))
    if family == "random":
        if n is None or not 1 <= n <= RANDOM_MAX_N or (p is not None and not 0 <= p <= 1):
            raise InputError(f"random needs 1 <= n <= {RANDOM_MAX_N} and p in [0, 1], got n={n}, p={p}")
        return random_instance(n, p if p is not None else 2.5 / max(n, 2), seed)
    if family == "alt-path":
        if n is None or n < 2:
            raise InputError("alt-path needs n >= 2")
        g = Graph(range(n), [(i, i + 1) for i in range(n - 1)])
        return ReconfigInstance(g, frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))
    if n is None or n < 4 or n % 2:  # alt-cycle
        raise InputError("alt-cycle needs even n >= 4")
    g = Graph(range(n), [(i, (i + 1) % n) for i in range(n)])
    return ReconfigInstance(g, frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))


def _threedom_linear(k: int) -> ReconfigInstance:
    """Chain of k beta-hubs: the head hub can always start, each later hub can
    only follow its predecessor once 3-domination of its pendant is restored.

    Spine b_0 a_0 b_1 a_1 ... b_{k-1}; every hub except the head carries a
    pendant alpha-node reachable only through it.
    """
    hubs = [2 * i for i in range(k)]
    connectors = [2 * i + 1 for i in range(k - 1)]
    pendants = [2 * k - 1 + i for i in range(1, k)]
    edges = []
    for i in range(k - 1):
        edges.append((hubs[i], connectors[i]))
        edges.append((connectors[i], hubs[i + 1]))
    for i in range(1, k):
        edges.append((hubs[i], pendants[i - 1]))
    g = Graph(hubs + connectors + pendants, edges)
    return ReconfigInstance(g, frozenset(connectors + pendants), frozenset(hubs))


def _logstar_ring(m: int, k: int) -> ReconfigInstance:
    """Ring of m gadgets, each a (k-1)-clique holding one alpha- and one
    beta-node, flanked by two epsilon-nodes; k-regular by construction."""
    alpha, beta = set(), set()
    nodes: list[int] = []
    edges: list[tuple[int, int]] = []
    gadget_size = k + 1  # (k-1)-clique plus two outer epsilon-nodes
    for i in range(m):
        base = i * gadget_size
        clique = list(range(base, base + k - 1))
        left, right = base + k - 1, base + k
        nodes.extend(clique + [left, right])
        alpha.add(clique[0])
        beta.add(clique[1])
        for a, b in itertools.combinations(clique, 2):
            edges.append((a, b))
        for c in clique:
            edges.append((left, c))
            edges.append((right, c))
    for i in range(m):
        right = i * gadget_size + k
        nxt_left = ((i + 1) % m) * gadget_size + k - 1
        edges.append((right, nxt_left))
    g = Graph(nodes, edges)
    return ReconfigInstance(g, frozenset(alpha), frozenset(beta))


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) patched to be connected by chaining component representatives."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    g = Graph(range(n), edges)
    comps = connected_components(g)
    for first, second in zip(comps, comps[1:]):
        edges.append((min(first), min(second)))
    return Graph(range(n), edges)


def random_instance(n: int, p: float, seed: int) -> ReconfigInstance:
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    order_a = list(range(n))
    order_b = list(range(n))
    rng.shuffle(order_a)
    rng.shuffle(order_b)
    return ReconfigInstance(g, greedy_mis(g, order_a), greedy_mis(g, order_b))


def random_connected_instance(
    n: int,
    p: float,
    seed: int,
    min_diameter: int = 4,
) -> ReconfigInstance:
    """Seeded random connected instance whose diameter is at least
    ``min_diameter``; tries up to 400 derived seeds until one qualifies."""
    for t in range(400):
        inst = random_instance(n, p, seed * 100_003 + t)
        diam = diameter(inst.graph, cap=max(min_diameter, 1))
        if diam != math.inf and diam >= min_diameter:
            return inst
    raise InputError(f"no connected instance of diameter >= {min_diameter} after 400 tries")


# ---------------------------------------------------------------------------
# Isomorph-free enumeration of small graphs, by one-node extensions with a
# canonical code found by branch and bound over refinement-respecting labelings.

def _refine_colors(rows: tuple[int, ...]) -> list[int]:
    neighbours = [[j for j in range(len(rows)) if r >> j & 1] for r in rows]
    colors = [len(nb) for nb in neighbours]
    while len(set(colors)) < len(rows):
        sigs = [(colors[i], *sorted([colors[j] for j in nb])) for i, nb in enumerate(neighbours)]
        ranking = {sig: rank for rank, sig in enumerate(sorted(set(sigs)))}
        if len(ranking) == len(set(colors)):
            break
        colors = [ranking[s] for s in sigs]
    return colors


def _canonical_code(rows: tuple[int, ...]) -> tuple[int, list[tuple[int, ...]]]:
    """The least code over labelings (a vertex per position) that fill the
    positions with the refined colour classes in order, and every labeling
    that attains it.  The code reads the relabeled matrix column by column, so
    placing position b fixes each bit (a, b), a < b.  A branch whose prefix
    is above the best code's is cut and ties go on, so the first labeling
    returned maps to the others by exactly the automorphisms."""
    n = len(rows)
    colors = _refine_colors(rows)
    order = sorted(range(n), key=colors.__getitem__)
    cells = [[v for v in order if colors[v] == colors[u]] for u in order]
    total = n * (n - 1) // 2
    best, labelings, perm = 1 << total, [], []

    def place(b: int, prefix: int) -> None:
        nonlocal best, labelings
        if b == n:
            if prefix < best:
                best, labelings = prefix, []
            labelings.append(tuple(perm))
            return
        for v in cells[b]:
            if v in perm:
                continue
            code = prefix
            for u in perm:
                code = code << 1 | rows[v] >> u & 1
            if code > best >> (total - b * (b + 1) // 2):
                continue
            perm.append(v)
            place(b + 1, code)
            perm.pop()

    place(0, 0)
    return best, labelings


def enumerate_graphs(max_n: int) -> dict[int, list[tuple[int, ...]]]:
    """One representative per isomorphism class of graphs on 1..max_n nodes,
    as tuples of adjacency bitmask rows: the first graph met in its class,
    parent by parent, extension masks ascending.  A code only tells whether
    two graphs are isomorphic, so any complete canonical code gives the same
    representatives in the same order.  A mask above the least of its orbit
    under the parent's automorphisms is skipped: its graph came first."""
    levels = {1: [((0,), [(0,)])]}
    for n in range(2, max_n + 1):
        seen: dict[int, tuple[tuple[int, ...], list[tuple[int, ...]]]] = {}
        for rows, labelings in levels[n - 1]:
            met = bytearray(1 << (n - 1))
            for mask in range(1 << (n - 1)):
                if met[mask]:
                    continue
                spots = [p for p, v in enumerate(labelings[0]) if mask >> v & 1]
                for q in labelings:  # the orbit of mask: labelings[0][p] -> q[p]
                    met[sum(1 << q[p] for p in spots)] = 1
                new_rows = tuple(rows[i] | (mask >> i & 1) << (n - 1) for i in range(n - 1)) + (mask,)
                code, found = _canonical_code(new_rows)
                seen.setdefault(code, (new_rows, found))
        levels[n] = list(seen.values())
    return {n: [rows for rows, _ in level] for n, level in levels.items()}


def rows_to_graph(rows: tuple[int, ...]) -> Graph:
    n = len(rows)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1]
    return Graph(range(n), edges)


def enumerate_connected_graphs(max_n: int) -> list[Graph]:
    reps = enumerate_graphs(max_n)
    graphs = (rows_to_graph(rows) for n in range(1, max_n + 1) for rows in reps[n])
    return [g for g in graphs if len(connected_components(g)) == 1]


def all_mis(g: Graph) -> list[VertexSet]:
    """Every maximal independent set, ascending by node bitmask: the oracle's
    d = 1 states, since an MIS is exactly an independent 1-dominating set."""
    if len(g.nodes) > ORACLE_NODE_LIMIT:
        raise InputError(f"exhaustive MIS listing limited to {ORACLE_NODE_LIMIT} nodes")
    nodes, _, states = _state_space(g, 1)
    return [frozenset(v for i, v in enumerate(nodes) if m >> i & 1) for m in states]
