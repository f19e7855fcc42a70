import hashlib
import itertools
import math
import random
from collections import deque

import networkx as nx
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from misrecon import analysis, graph
from misrecon.analysis import (
    BlockerReport,
    _canonical_code,
    _state_space,
    all_mis,
    brute_force_oracle,
    check_blocker,
    enumerate_connected_graphs,
    enumerate_graphs,
    gen_gadget,
    greedy_mis,
    random_connected_instance,
    rows_to_graph,
    small_diameter_fallback,
)
from misrecon.errors import InputError
from misrecon.graph import Graph, connected_components, diameter, is_d_dominating, is_independent, is_mis
from misrecon.schedule import PropertySpec, ReconfigInstance, Schedule, validate


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def p4_instance():
    return ReconfigInstance(path(4), frozenset({0, 2}), frozenset({1, 3}))


def star_instance(k=3):
    g = Graph(range(k + 1), [(0, i) for i in range(1, k + 1)])
    return ReconfigInstance(g, frozenset({0}), frozenset(range(1, k + 1)))


# --- blocker conditions ------------------------------------------------------

def test_star_is_blocked():
    report = check_blocker(star_instance())
    assert report.blocked
    assert report.cond1_fully_connected and report.cond2_eps_covered and report.cond3_no_complement_path
    assert report.witness is None


def test_p4_fails_full_connectivity():
    report = check_blocker(p4_instance())
    assert not report.blocked
    assert not report.cond1_fully_connected
    assert report.witness == ("non-adjacent-pair", 0, 3)


def test_free_epsilon_node_unblocks():
    g = Graph(range(5), [(0, 2), (0, 3), (1, 2), (1, 3), (4, 1), (4, 3)])
    inst = ReconfigInstance(g, frozenset({0, 1}), frozenset({2, 3}))
    report = check_blocker(inst)
    assert not report.blocked and report.cond1_fully_connected
    assert not report.cond2_eps_covered
    assert report.witness == ("free-epsilon-node", 4)
    assert brute_force_oracle(inst).exists


def test_complement_path_unblocks():
    g = Graph(
        range(7),
        [(0, 1), (0, 6), (5, 1), (5, 6), (2, 1), (2, 6), (2, 0), (3, 0), (3, 5), (3, 6),
         (4, 0), (4, 1), (4, 5), (4, 6)],
    )
    inst = ReconfigInstance(g, frozenset({0, 5}), frozenset({1, 6}))
    report = check_blocker(inst)
    assert not report.blocked
    assert report.cond1_fully_connected and report.cond2_eps_covered
    assert not report.cond3_no_complement_path
    assert report.witness[0] == "complement-path"
    assert brute_force_oracle(inst).exists


def reference_blocker(inst):
    """The blocker test as first written: condition 1 by a double loop over
    sorted alpha and sorted beta, condition 3 by a breadth-first search on the
    complement graph of the covered epsilon-nodes, built as a ``Graph``."""
    g, alpha, beta = inst.graph, inst.alpha, inst.beta
    witness1 = next((("non-adjacent-pair", a, b) for a in sorted(alpha) for b in sorted(beta)
                     if not g.has_edge(a, b)), None)
    eps = g.nodes - alpha - beta
    eps_alpha = frozenset(e for e in eps if alpha <= g.neighbors(e))
    eps_beta = frozenset(e for e in eps if beta <= g.neighbors(e))
    uncovered = sorted(eps - eps_alpha - eps_beta)
    witness2 = ("free-epsilon-node", uncovered[0]) if uncovered else None

    keep = sorted(eps_alpha | eps_beta)
    complement = Graph(keep, [(u, v) for i, u in enumerate(keep) for v in keep[i + 1:] if not g.has_edge(u, v)])
    sources, targets = sorted(eps_beta - eps_alpha), eps_alpha - eps_beta
    parent, queue, path = dict.fromkeys(sources), deque(sources), None
    while queue:
        v = queue.popleft()
        if v in targets:
            path = [v]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            path.reverse()
            break
        for w in sorted(complement.neighbors(v)):
            if w not in parent:
                parent[w] = v
                queue.append(w)
    witness3 = ("complement-path", tuple(path)) if path else None

    cond1, cond2, cond3 = witness1 is None, not uncovered, path is None
    blocked = cond1 and cond2 and cond3
    witness = None
    if not blocked:
        witness = witness1 if not cond1 else (witness2 if not cond2 else witness3)
    return BlockerReport(blocked, cond1, cond2, cond3, witness)


def test_blocker_matches_the_complement_graph_search_on_small_graphs():
    pairs = 0
    for g in enumerate_connected_graphs(6):
        mises = all_mis(g)
        for a, b in itertools.product(mises, repeat=2):
            inst = ReconfigInstance(g, a, b)
            assert check_blocker(inst) == reference_blocker(inst), (g.edges(), sorted(a), sorted(b))
            pairs += 1
    assert pairs > 1000


@st.composite
def blocker_instances(draw):
    """Two MIS of a graph on at most 12 nodes with ids up to 200, so that a
    set's order is not its sorted order.  Half the draws join alpha and beta
    completely and join every other node to all of one side (the first to
    alpha's, the second to beta's) and some of the other: conditions 1 and 2
    hold, and the complement path decides."""
    n = draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, 200), min_size=n, max_size=n, unique=True))
    if n < 5 or draw(st.booleans()):
        pairs = list(itertools.combinations(ids, 2))
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
        g = Graph(ids, edges)
        return ReconfigInstance(g, greedy_mis(g, draw(st.permutations(ids))), greedy_mis(g, draw(st.permutations(ids))))
    k = draw(st.integers(2, min(3, n - 3)))
    j = draw(st.integers(2, min(3, n - 1 - k)))
    alpha, beta, eps = ids[:k], ids[k:k + j], ids[k + j:]
    edges = list(itertools.product(alpha, beta))
    for i, e in enumerate(eps):
        full, part = (alpha, beta) if i == 0 or (i > 1 and draw(st.booleans())) else (beta, alpha)
        edges += [(e, v) for v in full + draw(st.lists(st.sampled_from(part), min_size=1, unique=True))]
    if len(eps) > 1:
        edges += draw(st.lists(st.sampled_from(list(itertools.combinations(eps, 2))), unique=True, max_size=len(eps)))
    return ReconfigInstance(Graph(ids, edges), alpha, beta)


@seed(20261019)
@settings(max_examples=400, deadline=None)
@given(blocker_instances())
def test_blocker_matches_the_complement_graph_search(inst):
    assert check_blocker(inst) == reference_blocker(inst)


# --- oracle -------------------------------------------------------------------

def test_oracle_p4_minimum_matches_hand_enumeration():
    # Admissible nonempty sets on P4 are all independent sets (diameter 3).
    # From {0,2}: one flip reaches {0} or {2}; {0} -> {3} is legal since 0-3
    # is a non-edge; {3} -> {1,3} finishes.  No 2-step route exists because
    # every predecessor of {1,3} is inside {1,3,union}, all of which clash
    # with {0,2} flips.  Hence the minimum is 3.
    res = brute_force_oracle(p4_instance())
    assert res.exists is True
    assert res.min_length == 3
    assert validate(p4_instance(), res.witness, PropertySpec(4)) is None


def test_oracle_star_has_no_path():
    res = brute_force_oracle(star_instance())
    assert res.exists is False and res.witness is None


def test_oracle_alpha_equals_beta():
    g = path(4)
    inst = ReconfigInstance(g, frozenset({0, 2}), frozenset({0, 2}))
    res = brute_force_oracle(inst)
    assert res.exists and res.min_length == 0


def test_oracle_rejects_oversized_graphs():
    g = path(21)
    inst = ReconfigInstance(g, frozenset(range(0, 21, 2)), frozenset(range(1, 21, 2)))
    with pytest.raises(InputError):
        brute_force_oracle(inst)


def test_oracle_witnesses_validate_on_random_instances():
    rng = random.Random(3)
    confirmed = 0
    for i in range(30):
        n = rng.randrange(4, 9)
        inst = gen_gadget("random", n=n, p=0.4, seed=900 + i)
        res = brute_force_oracle(inst)
        if res.exists:
            assert validate(inst, res.witness, PropertySpec(4)) is None
            confirmed += 1
    assert confirmed > 10


def subsets(g):
    """Every node subset, ascending by bitmask over the sorted nodes."""
    nodes = sorted(g.nodes)
    return [frozenset(v for i, v in enumerate(nodes) if m >> i & 1) for m in range(1 << len(nodes))]


def naive_oracle(inst, d):
    """BFS over frozensets: states are the independent d-dominating subsets in
    the oracle's order, and a step is legal when its flip is independent."""
    g = inst.graph
    states = [s for s in subsets(g) if is_independent(g, s) and is_d_dominating(g, s, d)]
    seen, queue, explored = {inst.alpha}, [inst.alpha], 0
    for depth in itertools.count():
        if not queue:
            return False, None, explored
        layer, queue = queue, []
        for cur in layer:
            explored += 1
            if cur == inst.beta:
                return True, depth, explored
            for nxt in states:
                if nxt not in seen and is_independent(g, cur ^ nxt):
                    seen.add(nxt)
                    queue.append(nxt)


@st.composite
def small_instances(draw):
    """A graph on at most 8 nodes with arbitrary ids (connected or not, half
    of them on a long path, where the radius matters), two of its MIS and a
    domination radius."""
    n = draw(st.integers(1, 8))
    ids = draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True))
    pairs = list(itertools.combinations(ids, 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    if draw(st.booleans()):
        edges = list(zip(ids, ids[1:])) + edges[:draw(st.integers(0, 2))]
    g = Graph(ids, edges)
    alpha = greedy_mis(g, draw(st.permutations(ids)))
    beta = greedy_mis(g, draw(st.permutations(ids)))
    return ReconfigInstance(g, alpha, beta), draw(st.integers(1, 4))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_oracle_and_all_mis_match_a_frozenset_search(case):
    inst, d = case
    res = brute_force_oracle(inst, PropertySpec(d))
    assert (res.exists, res.min_length, res.states_explored) == naive_oracle(inst, d)
    if res.exists:
        assert res.witness.length == res.min_length
        assert validate(inst, res.witness, PropertySpec(d)) is None
    assert all_mis(inst.graph) == [s for s in subsets(inst.graph) if is_mis(inst.graph, s)]


class Counted:
    """The oracle's independence table or state list, counting lookups and
    passes.  The first lookup past ``budget`` fails, so a search that rescans
    reached states stops at once."""

    def __init__(self, items, budget=0):
        self.items, self.budget, self.lookups, self.passes = items, budget, 0, 0

    def __getitem__(self, i):
        self.lookups += 1
        assert self.lookups <= self.budget, "the search looked up more states than it had not reached"
        return self.items[i]

    def __iter__(self):
        self.passes += 1
        return iter(self.items)


def rescanning_search(inst, d):
    """The oracle's search as a scan of every state per pop that skips the
    reached ones: the witness it finds, and how many unreached states its
    pops scanned."""
    nodes, indep, states = _state_space(inst.graph, d)
    alpha, beta = (sum(1 << i for i, v in enumerate(nodes) if v in s) for s in (inst.alpha, inst.beta))
    parent, queue, scanned = {alpha: None}, deque([alpha]), 0
    while queue:
        cur = queue.popleft()
        if cur == beta:
            masks = [cur]
            while parent[masks[-1]] is not None:
                masks.append(parent[masks[-1]])
            steps = [frozenset(v for i, v in enumerate(nodes) if m >> i & 1) for m in reversed(masks)]
            return Schedule.from_steps(steps), scanned
        for nxt in states:
            if nxt not in parent:
                scanned += 1
                if indep[cur ^ nxt]:
                    parent[nxt] = cur
                    queue.append(nxt)
    return None, scanned


def test_oracle_scans_only_unreached_states(monkeypatch):
    cases = [(ReconfigInstance(g, a, b), d) for g in enumerate_connected_graphs(5)
             for a, b in itertools.product(all_mis(g), repeat=2) for d in (1, 4)]
    star = star_instance(6)
    cases += [(ReconfigInstance(star.graph, star.beta, star.alpha), 4), (p4_instance(), 4)]
    for inst, d in cases:
        witness, scanned = rescanning_search(inst, d)
        nodes, indep, states = _state_space(inst.graph, d)
        table, listed = Counted(indep, scanned), Counted(states)
        monkeypatch.setattr(analysis, "_state_space", lambda g, d: (nodes, table, listed))
        res = brute_force_oracle(inst, PropertySpec(d))
        monkeypatch.undo()
        assert table.lookups == scanned and listed.passes <= 1
        assert res.witness == witness


# --- the state-space cache ------------------------------------------------------

def test_state_space_is_kept_per_radius():
    inst = gen_gadget("threedom-blocker")
    answers = [brute_force_oracle(inst, PropertySpec(d)) for d in (4, 3, 4)]
    assert [r.exists for r in answers] == [True, False, True]
    assert answers[0] == answers[2]


def test_equal_graphs_built_apart_share_results():
    g1 = Graph(range(6), [(i, i + 1) for i in range(5)])
    g2 = Graph(reversed(range(6)), [(i + 1, i) for i in reversed(range(5))])
    assert g1 == g2 and g1 is not g2
    inst1 = ReconfigInstance(g1, frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    inst2 = ReconfigInstance(g2, frozenset({0, 2, 4}), frozenset({1, 3, 5}))
    assert brute_force_oracle(inst1) == brute_force_oracle(inst2)
    assert all_mis(g1) == all_mis(g2)
    assert _state_space(g1, 4) is _state_space(g2, 4)


def test_oversized_graph_is_refused_before_any_table_is_built():
    inst = ReconfigInstance(path(21), frozenset(range(0, 21, 2)), frozenset(range(1, 21, 2)))
    misses = _state_space.cache_info().misses
    with pytest.raises(InputError):
        brute_force_oracle(inst)
    with pytest.raises(InputError):
        all_mis(inst.graph)
    assert _state_space.cache_info().misses == misses


def test_cached_state_space_cannot_be_mutated():
    g = path(5)
    expected = all_mis(g)
    nodes, indep, states = _state_space(g, 1)
    assert (type(nodes), type(indep), type(states)) == (tuple, bytes, tuple)
    with pytest.raises(TypeError):
        indep[0] = 0
    with pytest.raises(TypeError):
        states[0] = 0
    all_mis(g).clear()
    assert all_mis(g) == expected


# --- small-diameter fallback ----------------------------------------------------

def test_fallback_absent_for_star():
    assert small_diameter_fallback(star_instance()) is None


def test_fallback_reuses_the_report_its_caller_just_made():
    inst = p4_instance()
    check_blocker.cache_clear()
    report = check_blocker(inst)
    assert small_diameter_fallback(inst) is not None
    info = check_blocker.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert check_blocker(inst) is report


def test_fallback_templates_validate():
    # condition 1 fails
    sched = small_diameter_fallback(p4_instance())
    assert sched is not None and sched.steps[0] == frozenset({0, 2})
    # condition 2 fails: 6-step escape
    g = Graph(range(5), [(0, 2), (0, 3), (1, 2), (1, 3), (4, 1), (4, 3)])
    inst = ReconfigInstance(g, frozenset({0, 1}), frozenset({2, 3}))
    sched = small_diameter_fallback(inst)
    assert sched.length == 6
    # condition 3 fails: complement walk of length 2k+6
    g3 = Graph(
        range(7),
        [(0, 1), (0, 6), (5, 1), (5, 6), (2, 1), (2, 6), (2, 0), (3, 0), (3, 5), (3, 6),
         (4, 0), (4, 1), (4, 5), (4, 6)],
    )
    inst3 = ReconfigInstance(g3, frozenset({0, 5}), frozenset({1, 6}))
    sched3 = small_diameter_fallback(inst3)
    assert sched3.length == 8  # path of one complement edge: 2*1 + 6


def test_fallback_identity():
    g = path(3)
    inst = ReconfigInstance(g, frozenset({0, 2}), frozenset({0, 2}))
    assert small_diameter_fallback(inst).length == 0


def test_fallback_rejects_large_diameter():
    with pytest.raises(InputError):
        small_diameter_fallback(ReconfigInstance(path(8), frozenset(range(0, 8, 2)), frozenset(range(1, 8, 2))))


def test_fallback_guard_holds_right_after_a_small_graph():
    # The memoised guard answers for the graph asked, not the one before it.
    assert small_diameter_fallback(p4_instance()) is not None
    with pytest.raises(InputError):
        small_diameter_fallback(ReconfigInstance(path(5), frozenset({0, 2, 4}), frozenset({1, 3})))
    assert small_diameter_fallback(p4_instance()) is not None
    with pytest.raises(InputError):
        small_diameter_fallback(ReconfigInstance(Graph(range(2)), frozenset({0, 1}), frozenset({0, 1})))


def test_fallback_pass_computes_the_diameter_once(monkeypatch):
    calls = []
    monkeypatch.setattr(graph, "diameter", lambda *args, **kw: calls.append(args) or diameter(*args, **kw))
    graph.capped_diameter.cache_clear()
    g = Graph(range(6), [(i, (i + 1) % 6) for i in range(6)])
    mises = all_mis(g)
    for a, b in itertools.product(mises, repeat=2):
        small_diameter_fallback(ReconfigInstance(g, a, b))
    assert len(mises) == 5 and calls == [(g,)]


# --- gadget families -------------------------------------------------------------

def test_threedom_blocker_separates_3_from_4_domination():
    inst = gen_gadget("threedom-blocker")
    assert brute_force_oracle(inst, PropertySpec(3)).exists is False
    assert brute_force_oracle(inst, PropertySpec(4)).exists is True


def test_threedom_blocker_unblocks_after_removal():
    # Removing the first beta-node's set-neighbors leaves a set that fails to
    # 3-dominate the far pendant.
    inst = gen_gadget("threedom-blocker")
    g = inst.graph
    from misrecon.graph import is_d_dominating

    b = min(inst.beta)
    stripped = inst.alpha - g.neighbors(b)
    assert not is_d_dominating(g, stripped, 3)
    assert is_d_dominating(g, stripped, 4)


def test_threedom_linear_lengths_grow():
    lengths = []
    for n in (8, 12, 16):
        inst = gen_gadget("threedom-linear", n=n)
        res = brute_force_oracle(inst, PropertySpec(3))
        assert res.exists
        lengths.append(res.min_length)
        assert res.min_length >= n / 4
    assert lengths[0] < lengths[1] < lengths[2]


def test_logstar_family_is_regular_with_two_mis():
    for k in (3, 4):
        inst = gen_gadget("logstar", n=30, k=k)
        g = inst.graph
        assert all(g.degree(v) == k for v in g.nodes)
        assert is_mis(g, inst.alpha) and is_mis(g, inst.beta)
        assert inst.alpha.isdisjoint(inst.beta)


def test_alt_families():
    p = gen_gadget("alt-path", n=9)
    assert diameter(p.graph) == 8
    c = gen_gadget("alt-cycle", n=10)
    assert diameter(c.graph) == 5
    with pytest.raises(InputError):
        gen_gadget("alt-cycle", n=7)
    with pytest.raises(InputError):
        gen_gadget("no-such-family")


def test_gadget_families_refuse_sizes_they_do_not_read():
    for family, sizes in [("threedom-blocker", {"n": 5}), ("alt-path", {"n": 8, "k": 3}),
                          ("star", {"k": 3, "p": 0.5}), ("random", {"n": 9, "k": 2})]:
        with pytest.raises(InputError, match="does not take"):
            gen_gadget(family, **sizes)
    with pytest.raises(InputError, match="logstar needs"):
        gen_gadget("logstar", n=14, k=4)
    assert len(gen_gadget("logstar", n=19, k=4).graph) == 15


def test_random_family_produces_valid_instances():
    inst = gen_gadget("random", n=20, p=0.2, seed=4)
    assert is_mis(inst.graph, inst.alpha) and is_mis(inst.graph, inst.beta)
    assert len(connected_components(inst.graph)) == 1


def test_random_connected_instance_meets_diameter():
    inst = random_connected_instance(25, 0.1, seed=6, min_diameter=5)
    assert diameter(inst.graph) >= 5


def test_greedy_mis_is_mis():
    g = gen_gadget("random", n=15, p=0.25, seed=2).graph
    order = sorted(g.nodes)
    assert is_mis(g, greedy_mis(g, order))


# --- enumeration -----------------------------------------------------------------

def test_enumeration_counts_match_graph_atlas():
    reps = enumerate_graphs(7)
    counts = {n: len(v) for n, v in reps.items()}
    assert counts == {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
    connected = {
        n: sum(1 for rows in lst if len(connected_components(rows_to_graph(rows))) == 1)
        for n, lst in reps.items()
    }
    assert connected == {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


def test_enumeration_output_is_pinned():
    """The oracle-small bench corpus and criterion 3 read these graphs, in
    this order, with these labels."""
    digest = hashlib.sha256(repr(enumerate_graphs(7)).encode()).hexdigest()
    assert digest == "fce7fc0c34131d353f9bd1d5524b709d05077f976e31517eed9555a29e6fff16"


def rows_of(n, edges):
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows)


def relabeled(rows, perm):
    """The graph of ``rows`` with node i renamed perm[i]."""
    n = len(rows)
    return rows_of(n, [(perm[i], perm[j]) for i in range(n) for j in range(i + 1, n) if rows[i] >> j & 1])


def nx_of(rows):
    h = nx.Graph()
    h.add_nodes_from(range(len(rows)))
    h.add_edges_from((i, j) for i in range(len(rows)) for j in range(i + 1, len(rows)) if rows[i] >> j & 1)
    return h


def column_code(rows, labeling):
    """The adjacency matrix under ``labeling`` (a node per position), read
    column by column above the diagonal."""
    code = 0
    for b in range(len(rows)):
        for a in range(b):
            code = code << 1 | rows[labeling[a]] >> labeling[b] & 1
    return code


def moved_edge(rows, rng):
    """``rows`` with one edge moved onto a non-edge: the same size and often
    the same degrees, isomorphic to ``rows`` or not."""
    n = len(rows)
    pairs = list(itertools.combinations(range(n), 2))
    edges = [(i, j) for i, j in pairs if rows[i] >> j & 1]
    gaps = [p for p in pairs if p not in edges]
    if not edges or not gaps:
        return rows
    edges.remove(rng.choice(edges))
    return rows_of(n, edges + [rng.choice(gaps)])


def assert_canonical(rows, perm, other):
    code, labelings = _canonical_code(rows)
    assert labelings and all(column_code(rows, lab) == code for lab in labelings[:100])
    assert _canonical_code(relabeled(rows, perm))[0] == code
    assert (_canonical_code(other)[0] == code) == nx.is_isomorphic(nx_of(rows), nx_of(other))


@st.composite
def canonical_cases(draw):
    """A graph on at most 8 nodes, a relabeling, and a relabeled copy with
    one edge perhaps moved."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    rows = rows_of(n, draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    perm = draw(st.permutations(range(n)))
    other = moved_edge(rows, random.Random(draw(st.integers(0, 2**32)))) if draw(st.booleans()) else rows
    return rows, perm, relabeled(other, draw(st.permutations(range(n))))


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(canonical_cases())
def test_canonical_code_is_a_complete_invariant(case):
    assert_canonical(*case)


SYMMETRIC = {
    "empty-7": (rows_of(7, []), math.factorial(7)),
    "complete-7": (rows_of(7, itertools.combinations(range(7), 2)), math.factorial(7)),
    "cycle-8": (rows_of(8, [(i, (i + 1) % 8) for i in range(8)]), 16),
    "k33": (rows_of(6, itertools.product(range(3), range(3, 6))), 72),
    "cube": (rows_of(8, [(i, i ^ 1 << k) for i in range(8) for k in range(3) if i < i ^ 1 << k]), 48),
}


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_canonical_code_on_symmetric_graphs(name):
    rows, automorphisms = SYMMETRIC[name]
    assert len(set(_canonical_code(rows)[1])) == automorphisms
    rng = random.Random(name)
    for _ in range(3):
        perm = rng.sample(range(len(rows)), len(rows))
        assert_canonical(rows, perm, relabeled(moved_edge(rows, rng), perm))


def test_enumeration_matches_networkx_up_to_5_nodes():
    reps = enumerate_graphs(5)
    for n in range(1, 6):
        mine = [rows_to_graph(rows) for rows in reps[n]]
        nx_graphs = [nx.Graph([(u, v) for u, v in g.edges()]) for g in mine]
        for h in nx_graphs:
            h.add_nodes_from(range(n))
        # pairwise non-isomorphic
        for i in range(len(nx_graphs)):
            for j in range(i + 1, len(nx_graphs)):
                assert not nx.is_isomorphic(nx_graphs[i], nx_graphs[j])
        # every labeled graph on n nodes is isomorphic to one representative
        all_edges = list(itertools.combinations(range(n), 2))
        seen = 0
        for picked in itertools.chain.from_iterable(
            itertools.combinations(all_edges, k) for k in range(len(all_edges) + 1)
        ):
            h = nx.Graph(list(picked))
            h.add_nodes_from(range(n))
            assert sum(1 for mine_h in nx_graphs if nx.is_isomorphic(h, mine_h)) == 1
            seen += 1
        assert seen == 2 ** len(all_edges)


def test_all_mis_on_p4():
    assert sorted(sorted(s) for s in all_mis(path(4))) == [[0, 2], [0, 3], [1, 3]]
