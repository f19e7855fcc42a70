import math
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from misrecon import graph
from misrecon.analysis import gen_gadget, random_instance
from misrecon.constlength import _component_graph, reduce_instance
from misrecon.errors import InputError
from misrecon.graph import (
    Graph,
    ball,
    components_of,
    connected_components,
    diameter,
    distances_from,
    format_graph_file,
    is_d_dominating,
    is_independent,
    is_mis,
    parse_graph_file,
)


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph(range(n), edges)


def test_construction_rejects_bad_input():
    with pytest.raises(InputError):
        Graph([0], [(0, 0)])
    with pytest.raises(InputError):
        Graph([0, 1], [(0, 2)])
    with pytest.raises(InputError):
        Graph([-1])


def test_adjacency_is_symmetric_and_deduplicated():
    g = Graph([0, 1], [(0, 1), (1, 0), (0, 1)])
    assert g.neighbors(0) == frozenset({1})
    assert g.neighbors(1) == frozenset({0})
    assert g.edges() == [(0, 1)]


def test_distances_on_path():
    g = path(4)
    assert distances_from(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3}


def test_distances_with_restriction_can_disconnect():
    g = path(4)
    assert distances_from(g, 0, frozenset({0, 2, 3})) == {0: 0}


def test_stop_nodes_get_a_distance_but_are_not_expanded():
    g = path(6)
    assert distances_from(g, 0, stop=frozenset({2})) == {0: 0, 1: 1, 2: 2}
    # A source is expanded even when it is a stop node.
    assert distances_from(g, 0, stop=frozenset({0})) == distances_from(g, 0)
    assert distances_from(g, {0, 3}, stop=frozenset({0, 3})) == {0: 0, 1: 1, 2: 1, 3: 0, 4: 1, 5: 2}
    g = cycle(8)
    # 5 is outside the restriction; 3 lies only beyond the stop node 2.
    assert distances_from(g, 0, frozenset({0, 1, 2, 3, 6, 7}), stop=frozenset({2})) == {0: 0, 1: 1, 2: 2, 6: 2, 7: 1}
    # 6 is 2 hops away through the stop node 7, and 6 hops the other way.
    assert distances_from(g, 0, radius=3, stop=frozenset({7})) == {0: 0, 1: 1, 2: 2, 3: 3, 7: 1}


def test_distances_on_cycle_matches_brute_force():
    g = cycle(6)
    dist = distances_from(g, 0)
    assert max(dist.values()) == 3


def brute_force_all_pairs(g):
    # Min-plus matrix squaring, independent of the BFS implementation.
    nodes = sorted(g.nodes)
    n = len(nodes)
    inf = math.inf
    d = [[0 if i == j else (1 if g.has_edge(nodes[i], nodes[j]) else inf) for j in range(n)] for i in range(n)]
    hops = 1
    while hops < n:
        d = [[min(d[i][k] + d[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        hops *= 2
    return {(nodes[i], nodes[j]): d[i][j] for i in range(n) for j in range(n)}


@pytest.mark.parametrize("seed", range(6))
def test_distances_agree_with_matrix_squaring(seed):
    g = random_graph(4 + seed, 0.4, seed)
    table = brute_force_all_pairs(g)
    for v in g.nodes:
        dist = distances_from(g, v)
        for w in g.nodes:
            expected = table[(v, w)]
            if expected == math.inf:
                assert w not in dist
            else:
                assert dist[w] == expected


@st.composite
def bfs_queries(draw):
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(range(n), edges)
    sources = draw(st.frozensets(st.integers(0, n - 1)))
    restrict = draw(st.none() | st.frozensets(st.integers(0, n - 1)).map(lambda r: r | sources))
    radius = draw(st.none() | st.integers(0, 5))
    return g, sources, restrict, radius


@settings(max_examples=150, deadline=None)
@given(bfs_queries())
def test_multi_source_bounded_bfs_matches_single_source_minimum(query):
    g, sources, restrict, radius = query
    expected: dict[int, int] = {}
    for s in sources:
        for v, d in distances_from(g, s, restrict).items():
            if (radius is None or d <= radius) and d < expected.get(v, math.inf):
                expected[v] = d
    assert distances_from(g, sources, restrict, radius) == expected
    if len(sources) == 1:
        (s,) = sources
        assert distances_from(g, s, restrict, radius) == expected


def test_bfs_rejects_bad_sources_and_radius():
    g = path(4)
    with pytest.raises(InputError):
        distances_from(g, {0, 9})
    with pytest.raises(InputError):
        distances_from(g, {0, 1}, frozenset({0, 2}))
    with pytest.raises(InputError):
        distances_from(g, 0, radius=-1)
    with pytest.raises(InputError):
        diameter(g, cap=0)


@st.composite
def diameter_queries(draw):
    n = draw(st.integers(0, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    if draw(st.booleans()):
        # A path backbone gives connected sets of large diameter.
        edges += [(i, i + 1) for i in range(n - 1)]
    g = Graph(range(n), edges)
    within = draw(st.none() | st.frozensets(st.integers(0, 11)).map(lambda s: s & g.nodes))
    return g, within, draw(st.integers(1, 7))


def reference_diameter(g, within):
    universe = g.nodes if within is None else within
    if not universe:
        return -math.inf
    return max(brute_force_all_pairs(g.induced(universe)).values())


@settings(max_examples=200, deadline=None)
@given(diameter_queries())
def test_capped_diameter_is_min_of_exact_and_cap(query):
    g, within, cap = query
    exact = diameter(g, within)
    assert exact == reference_diameter(g, within)
    capped = diameter(g, within, cap)
    if math.isinf(exact):
        assert capped == exact
    else:
        assert capped == min(exact, cap)
    # components_of stores min(exact, 5), which keeps every band it is
    # sorted by: at most 2, 3, 4, and 5 or more.
    universe = g.nodes if within is None else within
    for comp in components_of(g, universe, frozenset()):
        assert comp.diameter == min(diameter(g, comp.vertices), 5)


def test_capped_diameter_is_local(monkeypatch):
    """On a 4000-node path, classifying components and asking whether the
    diameter is above 3 visit O(n) nodes, counted through distances_from;
    all-pairs BFS would visit n² of them."""
    inst = gen_gadget("alt-path", n=4000)
    g = inst.graph
    visits = []
    real = graph.distances_from

    def counting(*args, **kwargs):
        dist = real(*args, **kwargs)
        visits.append(len(dist))
        return dist

    monkeypatch.setattr(graph, "distances_from", counting)
    components_of(g, inst.alpha, inst.beta)
    assert sum(visits) <= 2 * len(g)
    visits.clear()
    assert diameter(g, cap=4) == 4
    assert len(visits) == 1


def test_hash_ignores_build_order_and_is_computed_once(monkeypatch):
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]
    g = Graph(range(5), edges)
    h = Graph([4, 3, 2, 1, 0], [(v, u) for u, v in reversed(edges)])
    assert g == h and hash(g) == hash(h)
    # The graph-keyed caches hash on every lookup, so only the first hash
    # may build the frozenset of the adjacency.
    fresh = Graph(range(5), edges)
    built = []

    def counting(*args):
        built.append(args)
        return frozenset(*args)

    monkeypatch.setattr(graph, "frozenset", counting, raising=False)
    first = hash(fresh)
    assert len(built) == 1
    assert hash(fresh) == first == hash(g)
    assert len(built) == 1


def test_components_partition_and_are_maximal():
    g = Graph(range(6), [(0, 1), (2, 3)])
    comps = connected_components(g)
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2, 3], [4], [5]]
    union = frozenset().union(*comps)
    assert union == g.nodes
    # merging any two components is disconnected in the induced subgraph
    for i in range(len(comps)):
        for j in range(i + 1, len(comps)):
            merged = comps[i] | comps[j]
            assert len(connected_components(g, merged)) == 2


def test_components_of_annotations():
    g = path(4)
    alpha, beta = frozenset({0, 2}), frozenset({1, 3})
    comps = components_of(g, alpha, beta)
    assert len(comps) == 1 and comps[0].diameter == 3

    g2 = Graph(range(5), [(0, 1), (2, 3)])
    comps2 = components_of(g2, frozenset({0, 2}), frozenset({1, 3}))
    assert [c.diameter for c in comps2] == [1, 1]

    star = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    comps3 = components_of(star, frozenset({0}), frozenset({1, 2, 3}))
    assert comps3[0].diameter == 2 and comps3[0].isolated


def test_components_of_names_unknown_ids_in_alpha_or_beta():
    g = path(4)
    with pytest.raises(InputError, match=r"unknown ids \[7\]"):
        components_of(g, frozenset({0, 2, 7}), frozenset({1, 3}))
    with pytest.raises(InputError, match=r"unknown ids \[5, 9\]"):
        components_of(g, frozenset({0, 2}), frozenset({1, 3, 9, 5}))


def test_covering_labels():
    # u=4 has an alpha-neighbor in {0,1} and a beta-neighbor in {2,3}.
    g = Graph(range(5), [(0, 1), (2, 3), (4, 0), (4, 3)])
    comps = components_of(g, frozenset({0, 2}), frozenset({1, 3}))
    by_min = {c.min_id: c for c in comps}
    assert by_min[0].beta_covered and not by_min[0].alpha_covered
    assert by_min[2].alpha_covered and not by_min[2].beta_covered
    assert not by_min[0].isolated and not by_min[2].isolated
    assert (by_min[0].alpha_covered, by_min[0].beta_covered) == (frozenset(), frozenset({2}))
    assert (by_min[2].alpha_covered, by_min[2].beta_covered) == (frozenset({0}), frozenset())


def reference_covering(g, comps, alpha, beta):
    """The covering relation from its definition: an epsilon-node with an
    alpha-neighbour in component i and a beta-neighbour in component j != i
    puts i in j's alpha-covered set and j in i's beta-covered set."""
    of = {v: min(c.vertices) for c in comps for v in c.vertices}
    alpha_cov = {i: set() for i in of.values()}
    beta_cov = {i: set() for i in of.values()}
    for e in g.nodes - alpha - beta:
        for a in g.neighbors(e) & alpha:
            for b in g.neighbors(e) & beta:
                if a in of and b in of and of[a] != of[b]:
                    alpha_cov[of[b]].add(of[a])
                    beta_cov[of[a]].add(of[b])
    return alpha_cov, beta_cov


def reference_component_graph(g, comps, alpha, beta):
    """The component graph by a scan of the epsilon-nodes: an edge where one
    has an alpha-neighbour in one component and a beta-neighbour in another."""
    label = {}
    for comp in comps:
        label.update(dict.fromkeys(comp.vertices, comp.min_id))
    edges = set()
    for e in sorted(g.nodes - alpha - beta):
        alpha_sides = {label[w] for w in g.neighbors(e) & alpha if w in label}
        beta_sides = {label[w] for w in g.neighbors(e) & beta if w in label}
        edges.update((min(i, j), max(i, j)) for i in alpha_sides for j in beta_sides if i != j)
    return Graph(sorted(comp.min_id for comp in comps), sorted(edges))


@seed(20261103)
@settings(max_examples=300, deadline=None)
@given(st.integers(4, 40), st.sampled_from([0.05, 0.1, 0.2, 0.35]), st.integers(0, 10**6), st.booleans())
def test_covering_sets_match_their_definition(n, p, rng_seed, reduced):
    inst = random_instance(n, p, rng_seed)
    if reduced:
        inst = reduce_instance(inst)
    g, alpha, beta = inst.graph, inst.alpha, inst.beta
    comps = components_of(g, alpha, beta)
    alpha_cov, beta_cov = reference_covering(g, comps, alpha, beta)
    for c in comps:
        assert (c.alpha_covered, c.beta_covered) == (alpha_cov[c.min_id], beta_cov[c.min_id])
    doubly = [c for c in comps if c.alpha_covered and c.beta_covered]
    for subset in (comps, doubly):
        assert _component_graph(subset) == reference_component_graph(g, subset, alpha, beta)


def test_is_independent():
    g = path(4)
    assert is_independent(g, frozenset({0, 2}))
    assert not is_independent(g, frozenset({0, 1}))
    assert is_independent(g, frozenset())


def test_is_d_dominating():
    g = path(4)
    assert is_d_dominating(g, frozenset({0}), 4)
    g10 = path(10)
    assert not is_d_dominating(g10, frozenset({0}), 4)
    assert not is_d_dominating(g, frozenset(), 1)
    with pytest.raises(InputError):
        is_d_dominating(g, frozenset({0}), 0)


def test_is_mis():
    g = path(4)
    assert is_mis(g, frozenset({0, 2}))
    assert is_mis(g, frozenset({0, 3}))
    assert not is_mis(g, frozenset({0}))


def test_is_mis_equivalent_to_independent_plus_dominating():
    for seed in range(8):
        g = random_graph(7, 0.35, 100 + seed)
        rng = random.Random(seed)
        for _ in range(20):
            s = frozenset(v for v in g.nodes if rng.random() < 0.4)
            expected = is_independent(g, s) and is_d_dominating(g, s, 1) if s else not g.nodes
            assert is_mis(g, s) == expected


def test_diameter_and_ball():
    assert diameter(cycle(6)) == 3
    assert diameter(Graph(range(2))) == math.inf
    assert ball(path(5), 0, 2) == frozenset({0, 1, 2})


def test_graph_file_round_trip():
    g = Graph([0, 3, 7], [(0, 3), (3, 7)])
    text = format_graph_file(g)
    assert parse_graph_file(text) == g


def test_graph_file_errors():
    with pytest.raises(InputError, match="line 2"):
        parse_graph_file("node 0\nedge 0 1\n")
    with pytest.raises(InputError, match="line 1"):
        parse_graph_file("nodes 0\n")
    with pytest.raises(InputError, match="^line 3: self-loop on node 1$"):
        parse_graph_file("node 0\nnode 1\nedge 1 1\n")
    with pytest.raises(InputError, match="^line 2: negative node id -4$"):
        parse_graph_file("node 0\nnode -4\n")
    # The first edge in file order naming an undeclared node is reported,
    # after the whole file was read, since nodes may follow their edges.
    with pytest.raises(InputError, match="^line 2: edge 3-7 names undeclared node 7$"):
        parse_graph_file("edge 0 3\nedge 3 7\nedge 9 0\nnode 0\nnode 3\n")
    parsed = parse_graph_file("# comment\nnode 0\nnode 1\n\nedge 0 1\nedge 1 0\n")
    assert parsed.edges() == [(0, 1)]


@st.composite
def graph_files(draw):
    """A graph on sparse ids and a file for it with its lines shuffled, so
    that edges may come before their nodes, with every edge written once or
    twice in either direction and with comments and blank lines between."""
    ids = draw(st.lists(st.integers(0, 10**6), unique=True, max_size=12))
    pairs = [(u, v) for i, u in enumerate(ids) for v in ids[i + 1:]]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(ids, edges)
    lines = [f"node {v}" for v in ids] + ["# a comment", "", "   "]
    for u, v in edges:
        for _ in range(draw(st.integers(1, 2))):
            lines.append(f"edge {u} {v}" if draw(st.booleans()) else f"edge {v} {u}  # either way")
    return g, "\n".join(draw(st.permutations(lines))), draw(st.sets(st.sampled_from(ids)) if ids else st.just(set()))


def assert_symmetric(g):
    for v in g.nodes:
        assert v not in g.neighbors(v)
        assert all(v in g.neighbors(w) for w in g.neighbors(v))


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(graph_files())
def test_parsed_and_induced_graphs_match_the_checked_constructor(case):
    g, text, keep = case
    parsed = parse_graph_file(text)
    assert parsed == g and parse_graph_file(format_graph_file(g)) == g
    assert_symmetric(parsed)
    sub = parsed.induced(keep)
    assert sub == Graph(keep, [(u, v) for u, v in g.edges() if u in keep and v in keep])
    assert_symmetric(sub)
    assert parsed.induced(parsed.nodes) is parsed
    with pytest.raises(InputError):
        parsed.induced(keep | {10**6 + 1})
