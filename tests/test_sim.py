import dataclasses
import random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import misrecon.sim as sim
from misrecon import gen_gadget
from misrecon.constlength import constant_length_schedule_distributed, reduce_instance
from misrecon.errors import InputError, InternalError
from misrecon.graph import Graph, components_of, distances_from, format_graph_file, is_mis
from misrecon.schedule import format_vertex_set_file
from misrecon.sim import (
    MisColourProgram,
    MisLubyProgram,
    NodeProgram,
    SimReport,
    Trace,
    counter_rand,
    dist_mis,
    format_trace,
    reduction_plan,
    ruling_set_32,
    run,
)


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def random_graph(n, p, seed):
    rng = random.Random(seed)
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p])


def test_single_node_outputs_at_init():
    g = Graph([5])
    report = run(g, MisColourProgram, {5: None}, round_cap=10)
    assert report.rounds_used == 0 and report.outputs[5] == "in"


class SkipsANode(NodeProgram):
    """Node 0 writes to node 2, which is two hops away on a path."""

    def init(self, node_id, neighbor_ids, local_input, rand):
        self.finish(None)
        return {2: "hello"} if node_id == 0 else None


def test_run_rejects_bad_inputs_and_caps():
    with pytest.raises(InputError):
        run(path(3), MisColourProgram, {0: None}, round_cap=10)
    with pytest.raises(InputError, match="^node 0 addressed non-neighbor 2$"):
        run(path(3), SkipsANode, dict.fromkeys(range(3)))
    # On monotone ids the id MIS decides about one node per round.
    g = path(50)
    with pytest.raises(InternalError, match=r"^engine stopped after round 4 \(cap 4\): 45 of 50 nodes undecided$"):
        run(g, MisColourProgram, {v: None for v in g.nodes}, round_cap=4)


def test_determinism_byte_identical():
    g = random_graph(15, 0.25, 9)
    a = dist_mis(g, mode="luby", seed=11)
    b = dist_mis(g, mode="luby", seed=11)
    assert a[0] == b[0]
    assert repr(a[1]) == repr(b[1])


def test_counter_rand_is_stable():
    assert counter_rand(1, 2, 3) == counter_rand(1, 2, 3)
    assert counter_rand(1, 2, 3) != counter_rand(1, 2, 4)


def test_mis_id_on_path():
    selected, report = dist_mis(path(3))
    assert selected == frozenset({0, 2})
    assert report.rounds_used <= 3


def test_mis_on_clique_selects_one():
    k4 = Graph(range(4), [(i, j) for i in range(4) for j in range(i + 1, 4)])
    for mode in ("deterministic-id", "luby"):
        selected, _ = dist_mis(k4, mode=mode, seed=5)
        assert len(selected) == 1


def test_mis_modes_on_random_graph():
    g = random_graph(20, 0.2, 3)
    for mode in ("deterministic-id", "luby"):
        selected, report = dist_mis(g, mode=mode, seed=3)
        assert is_mis(g, selected)
        assert report.rounds_used <= len(g)


def test_mis_id_rounds_at_most_n_on_adversarial_chain():
    for n in (3, 6, 11):
        g = path(n)
        _, report = dist_mis(g)
        assert report.rounds_used <= n


def test_mis_invariant_under_neighbor_ordering():
    edges = [(0, 3), (3, 1), (1, 4), (4, 2)]
    g1 = Graph(range(5), edges)
    g2 = Graph([4, 3, 2, 1, 0], list(reversed([(b, a) for a, b in edges])))
    assert g1 == g2
    assert dist_mis(g1)[0] == dist_mis(g2)[0]


@st.composite
def rebuilt_graphs(draw):
    """A graph on sparse ids, and the same graph with its nodes and edges
    inserted in another order and some edges given endpoints swapped."""
    n = draw(st.integers(1, 60))
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n))
    edges = [(ids[a], ids[b]) for a, b in pairs if a != b]
    rng = draw(st.randoms(use_true_random=False))
    swapped = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in rng.sample(edges, len(edges))]
    return Graph(ids, edges), Graph(rng.sample(ids, n), swapped)


@seed(20261102)
@settings(max_examples=300, deadline=None)
@given(rebuilt_graphs(), st.integers(0, 2**31))
def test_mis_does_not_depend_on_insertion_order(case, mis_seed):
    g1, g2 = case
    assert g1 == g2
    for mode in ("deterministic-id", "luby"):
        (mis1, r1), (mis2, r2) = dist_mis(g1, mode, mis_seed), dist_mis(g2, mode, mis_seed)
        assert mis1 == mis2
        assert (r1.rounds_used, r1.messages_sent) == (r2.rounds_used, r2.messages_sent)


def test_luby_rounds_sublinear_on_random_graphs():
    # Statistical smoke check on a fixed seed, not a hard bound.
    rounds = []
    for n in (20, 40, 80):
        g = random_graph(n, 2.5 / n, 17)
        _, report = dist_mis(g, mode="luby", seed=17)
        rounds.append(report.rounds_used)
    assert all(r <= n for r, n in zip(rounds, (20, 40, 80)))
    assert rounds[-1] <= 40  # far below n=80


def test_ruling_set_on_alternating_cycle():
    g = cycle(10)
    y = frozenset(range(10))
    alpha, beta = frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2))
    trace = Trace()
    ruling = ruling_set_32(g, components_of(g, alpha, beta)[0], alpha, beta, trace)
    assert ruling == frozenset({0})
    assert list(trace.phases) == ["ruling-set"] and trace.rounds_used >= 2


def test_ruling_set_on_alternating_path():
    g = path(11)
    alpha, beta = frozenset(range(0, 11, 2)), frozenset(range(1, 11, 2))
    ruling = ruling_set_32(g, components_of(g, alpha, beta)[0], alpha, beta, Trace())
    assert ruling == frozenset({0, 6})
    # exhaustive (6,5) check in the induced subgraph
    for v in g.nodes:
        dist = distances_from(g, v)
        assert min(dist[r] for r in ruling) <= 5
    assert distances_from(g, 0)[6] >= 6


def test_ruling_set_property_exhaustively():
    for n in (12, 16, 20):
        g = cycle(n)
        alpha = frozenset(range(0, n, 2))
        beta = frozenset(range(1, n, 2))
        ruling = ruling_set_32(g, components_of(g, alpha, beta)[0], alpha, beta, Trace())
        virtual_nodes = sorted(alpha)
        virtual = Graph(
            virtual_nodes,
            [
                (u, v)
                for i, u in enumerate(virtual_nodes)
                for v in virtual_nodes[i + 1 :]
                if g.neighbors(u) & g.neighbors(v) & beta
            ],
        )
        for u in ruling:
            dist = distances_from(virtual, u)
            for w in ruling:
                assert u == w or dist[w] >= 3
        for v in virtual.nodes:
            dist = distances_from(virtual, v)
            assert min(dist[r] for r in ruling) <= 2


def test_ruling_set_single_alpha_node_rejected_below_min_diameter():
    # Diameter < 5 components are the callers' responsibility.
    g = path(4)
    alpha, beta = frozenset({0, 2}), frozenset({1, 3})
    comp = components_of(g, alpha, beta)[0]
    with pytest.raises(InputError):
        ruling_set_32(g, comp, alpha, beta, Trace())


def test_ruling_set_preconditions():
    g = path(12)
    alpha, beta = frozenset(range(12)), frozenset()
    comp = components_of(g, alpha, beta)[0]
    with pytest.raises(InputError, match="must be independent"):
        ruling_set_32(g, comp, alpha, beta, Trace())
    # Node 11 is in neither part of the component.
    alpha, beta = frozenset(range(0, 11, 2)), frozenset(range(1, 11, 2))
    with pytest.raises(InputError, match="^alpha and beta must partition the component$"):
        ruling_set_32(g, comp, alpha, beta, Trace())


def test_dist_mis_rejects_an_unknown_mode():
    with pytest.raises(InputError, match="^unknown MIS mode 'nope'$"):
        dist_mis(path(3), mode="nope")


def test_sim_report_text_block():
    trace = Trace()
    trace.charge("collect", 3, 7, path(2))
    assert format_trace(trace) == "rounds_used: 3\nmessages_sent: 7\n"


def test_trace_charges_each_phase_its_slowest_call():
    trace = Trace("luby", seed=4)
    trace.charge("ruling-set", 10, 5, path(5))
    trace.charge("collect", 4, 20, cycle(6))
    trace.charge("ruling-set", 6, 3, cycle(9))
    trace.charge("ruling-set", 10, 1, cycle(7))
    assert trace.phases == {"ruling-set": 10, "collect": 4}
    # Each phase keeps the (n, m, max degree) of its first slowest call.
    assert trace.shapes == {"ruling-set": (5, 4, 2), "collect": (6, 6, 2)}
    assert (trace.rounds_used, trace.messages_sent) == (14, 29)
    g = random_graph(15, 0.25, 9)
    selected, report = dist_mis(g, "luby", seed=4)
    assert trace.mis("blob-mis", g) == selected
    assert trace.phases["blob-mis"] == report.rounds_used
    assert trace.shapes["blob-mis"] == (len(g), len(g.edges()), max(map(g.degree, g.nodes)))
    assert trace.messages_sent == 29 + report.messages_sent


def test_trace_neither_runs_nor_charges_a_graph_with_no_nodes(monkeypatch):
    monkeypatch.setattr(sim, "dist_mis", lambda *args: pytest.fail("dist_mis ran on a graph with no nodes"))
    trace = Trace()
    assert trace.mis("escape-mis", Graph()) == frozenset()
    trace.collect(Graph(), 4)
    trace.charge("ruling-set", 3, 0, Graph())
    assert (trace.phases, trace.shapes, trace.messages_sent) == ({}, {}, 0)


def test_mis_on_alternating_cycle_seed_7():
    c6 = cycle(6)
    for mode in ("deterministic-id", "luby"):
        selected, _ = dist_mis(c6, mode=mode, seed=7)
        assert is_mis(c6, selected)


def reference_run(g, program, inputs, round_cap=10_000, seed=0):
    """The engine before it woke nodes on mail: every undone node steps
    every round, and every round rescans all nodes for completion.  A stall
    spins to the cap, where the run raises."""
    if frozenset(inputs) != g.nodes:
        raise InputError("inputs must be keyed exactly by the graph's nodes")
    order = sorted(g.nodes)
    programs = {v: program() for v in order}
    messages_sent = 0
    pending = {}

    def collect(v, outbox):
        nonlocal messages_sent
        if not outbox:
            return
        for target, msg in outbox.items():
            if target not in g.neighbors(v):
                raise InputError(f"node {v} addressed non-neighbor {target}")
            pending.setdefault(target, {})[v] = msg
            messages_sent += 1

    for v in order:
        rand = lambda counter, _v=v: counter_rand(seed, _v, counter)
        collect(v, programs[v].init(v, g.neighbors(v), inputs[v], rand))

    rounds_used = 0
    while not all(p.done for p in programs.values()):
        if rounds_used >= round_cap:
            raise InternalError(f"reference run reached its cap {round_cap}")
        rounds_used += 1
        inboxes, pending = pending, {}
        for v in order:
            if programs[v].done:
                continue
            collect(v, programs[v].on_round(rounds_used, inboxes.get(v, {})))
    outputs = {v: programs[v].output for v in order}
    return SimReport(outputs, rounds_used, messages_sent)


class _Echo(NodeProgram):
    """Sleeps until mail.  A node whose input is 0 starts at init; every
    other node logs the senders of each inbox in inbox order, echoes to all
    neighbors, and decides once its input's number of inboxes arrived.  The
    log shows the sender order the engine keeps sorted, which
    ``MisColourProgram`` reveals only through its message count.  A node that
    never hears enough stalls the run."""

    sleeps_until_mail = True

    def init(self, node_id, neighbor_ids, local_input, rand):
        self.ports = sorted(neighbor_ids)
        self.need = local_input
        self.log = []
        if self.need == 0:
            self.finish(())
            return dict.fromkeys(self.ports, "go")
        return None

    def on_round(self, round_no, inbox):
        if not inbox:
            return None
        self.log.append((round_no, tuple(inbox)))
        if len(self.log) >= self.need:
            self.finish(tuple(self.log))
        return dict.fromkeys(self.ports, "go")


class _Flood(NodeProgram):
    """The flood whose cost ``Trace.collect`` derives.  Each node sends the
    edges it knows to every neighbor each round; at round ``radius`` it
    outputs them, every edge with an end within ``radius`` hops.  It polls."""

    def __init__(self, radius):
        self.radius = radius

    def init(self, node_id, neighbor_ids, local_input, rand):
        self.ports = sorted(neighbor_ids)
        self.known = frozenset((min(node_id, w), max(node_id, w)) for w in neighbor_ids)
        return dict.fromkeys(self.ports, self.known)

    def on_round(self, round_no, inbox):
        self.known = self.known.union(*inbox.values())
        if round_no >= self.radius:
            self.finish(self.known)
            return None
        return dict.fromkeys(self.ports, self.known)


@st.composite
def sparse_id_graphs(draw, min_edges=0):
    n = draw(st.integers(1 + min_edges, 10))
    # Sparse ids whose hash order differs from their sorted order.
    ids = draw(st.lists(st.integers(0, 10**5).map(lambda k: 1000 + 37 * k), min_size=n, max_size=n, unique=True))
    pairs = [(ids[i], ids[j]) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=min_edges, unique=True)) if pairs else []
    return Graph(ids, edges)


@st.composite
def engine_runs(draw):
    g = draw(sparse_id_graphs())
    ids = sorted(g.nodes)
    kind = draw(st.sampled_from(["mis-id", "luby", "echo"]))
    if kind == "mis-id":
        # Sparse ids always give a non-empty reduction plan.
        plan = reduction_plan(ids[-1] + 1, max(map(g.degree, ids)))
        factory, inputs = MisColourProgram, dict.fromkeys(ids, plan)
    elif kind == "luby":
        factory, inputs = MisLubyProgram, dict.fromkeys(ids)
    else:
        factory, inputs = _Echo, dict(zip(ids, draw(st.lists(st.integers(0, 3), min_size=len(ids), max_size=len(ids)))))
    cap = draw(st.integers(0, 3) | st.integers(4, 40))
    return g, factory, inputs, cap, draw(st.integers(0, 5))


@seed(20261018)
@settings(max_examples=400, deadline=None)
@given(engine_runs())
def test_event_engine_matches_every_node_loop(case):
    g, factory, inputs, cap, rng_seed = case
    try:
        expected = reference_run(g, factory, inputs, round_cap=cap, seed=rng_seed)
    except InternalError:
        with pytest.raises(InternalError, match="^engine stopped"):
            run(g, factory, inputs, round_cap=cap, seed=rng_seed)
    else:
        assert run(g, factory, inputs, round_cap=cap, seed=rng_seed) == expected


@seed(20261019)
@settings(max_examples=200, deadline=None)
@given(sparse_id_graphs(min_edges=1), st.integers(1, 5))
def test_collect_cost_matches_an_executed_flood(g, radius):
    flood = reference_run(g, lambda: _Flood(radius), dict.fromkeys(g.nodes))
    trace = Trace()
    trace.collect(g, radius)
    assert (trace.phases, trace.messages_sent) == ({"collect": flood.rounds_used}, flood.messages_sent)
    for v, known in flood.outputs.items():
        near = distances_from(g, v, radius=radius)
        assert known == frozenset(e for e in g.edges() if e[0] in near or e[1] in near)


def test_stalled_run_raises_at_once():
    # Node 2 needs two inboxes but only node 1 ever writes to it, once, in
    # round 1; after round 3 no mail is in flight.
    g = path(3)
    inputs = {0: 0, 1: 1, 2: 2}
    with pytest.raises(InternalError, match=r"^engine stopped after round 3 \(cap 1000000\): 1 of 3 nodes undecided$"):
        run(g, _Echo, inputs, round_cap=10**6)
    with pytest.raises(InternalError, match=r"^engine stopped after round 0 \(cap 0\): 2 of 3 nodes undecided$"):
        run(g, _Echo, inputs, round_cap=0)


class _Chain(NodeProgram):
    """Decides once every smaller-id neighbour has, then tells the larger
    ones; on a path with monotone ids one node decides per round.  It
    sleeps until mail."""

    sleeps_until_mail = True

    def init(self, node_id, neighbor_ids, local_input, rand):
        self.waiting = {w for w in neighbor_ids if w < node_id}
        self.larger = sorted(w for w in neighbor_ids if w > node_id)
        return self._maybe_decide(0)

    def _maybe_decide(self, round_no):
        if self.waiting:
            return None
        self.finish(round_no)
        return dict.fromkeys(self.larger, "done")

    def on_round(self, round_no, inbox):
        self.waiting -= inbox.keys()
        return self._maybe_decide(round_no)


def test_engine_wakes_only_nodes_with_mail():
    calls = 0

    class Counted(_Chain):
        def on_round(self, round_no, inbox):
            nonlocal calls
            calls += 1
            return super().on_round(round_no, inbox)

    g = gen_gadget("alt-path", n=4000).graph
    report = run(g, Counted, dict.fromkeys(g.nodes))
    # Monotone ids: Theta(n) rounds, so an every-node loop makes ~n^2/2 calls.
    assert report.rounds_used > 1000
    assert 0 < calls <= len(g) + 2 * report.messages_sent


@st.composite
def bounded_degree_graphs(draw):
    """A graph of maximum degree at most 4 on ids up to 2**40."""
    n = draw(st.integers(1, 40))
    ids = draw(st.lists(st.integers(0, 2**40), min_size=n, max_size=n, unique=True))
    pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3 * n))
    cap = draw(st.integers(1, 4))
    adj = {v: set() for v in ids}
    for u, v in pairs:
        if u != v and len(adj[u]) < cap and len(adj[v]) < cap:
            adj[u].add(v)
            adj[v].add(u)
    return Graph(ids, [(u, v) for u in adj for v in adj[u] if u < v])


@seed(20261103)
@settings(max_examples=200, deadline=None)
@given(bounded_degree_graphs())
def test_colour_reduction_mis_is_deterministic_and_within_its_bound(g):
    selected, report = dist_mis(g, "deterministic-id")
    assert dist_mis(g, "deterministic-id") == (selected, report)
    plan = reduction_plan(max(g.nodes) + 1, max(map(g.degree, g.nodes)))
    colours = plan[-1][0] ** 2 if plan else max(g.nodes) + 1
    assert report.rounds_used < len(plan) + colours
    edgeless = Graph(g.nodes)
    assert dist_mis(edgeless, "deterministic-id") == (g.nodes, SimReport(dict.fromkeys(g.nodes, "in"), 0, 0))


def test_reduction_plan_shrinks_every_round():
    assert reduction_plan(250, 4) == ((11, 2),)
    assert reduction_plan(2**40, 4) == ((37, 7), (13, 2), (11, 2))
    # From at most 9 colours with Δ >= 1 no round shrinks the space, so a
    # graph with an edge on ids up to 8 keeps the id MIS.
    assert all(reduction_plan(9, d) == () for d in range(1, 9))
    for m, degree in ((16000, 4), (400, 2), (2**40, 26), (10**60, 3)):
        plan = reduction_plan(m, degree)
        spaces = [m] + [q * q for q, _ in plan]
        assert all(a > b for a, b in zip(spaces, spaces[1:]))
        assert all(q > degree * t and q ** (t + 1) >= space for (q, t), space in zip(plan, spaces))


def test_a_node_never_joins_beside_an_equal_colour():
    # A proper colouring never gives two neighbours one colour; were it to,
    # neither may join.  After its one reduction round node 5 reads its
    # neighbour's colour.
    for offset, expected in ((0, None), (1, {7: "join"})):
        node = MisColourProgram()
        node.init(5, frozenset({7}), ((11, 2),), None)
        assert node.on_round(1, {7: node.colour + offset}) == expected
        assert node.done == (expected is not None)


def reference_ruling_set(g, comp, alpha, mode, seed):
    """Reference construction: the virtual graph joins the component's
    alpha-nodes that share a beta-neighbour, and its square joins those at
    most two virtual hops apart.  Returns the ruling set, the rounds of its
    MIS scaled to real hops, and the MIS's messages."""
    y = comp.vertices
    alpha_y = sorted(alpha & y)
    edges = set()
    for b in sorted(y - alpha):
        hub = sorted(g.neighbors(b) & alpha & y)
        edges.update((u, w) for i, u in enumerate(hub) for w in hub[i + 1 :])
    virtual = Graph(alpha_y, edges)
    squared = Graph(alpha_y, [(u, w) for u in alpha_y for w in distances_from(virtual, u, radius=2) if u < w])
    ruling, report = dist_mis(squared, mode=mode, seed=seed)
    rounds = sim.VIRTUAL_SETUP_ROUNDS + sim.VIRTUAL_HOP_OVERHEAD * report.rounds_used
    return ruling, rounds, report.messages_sent


@st.composite
def big_components(draw):
    # logstar is left out: its components are single alpha-beta edges
    # (diameter 1), so it never reaches the ruling set.
    family = draw(st.sampled_from(["random", "alt-path", "alt-cycle"]))
    if family == "random":
        n = draw(st.integers(20, 120))
        inst = gen_gadget(family, n=n, p=3 / n, seed=draw(st.integers(0, 10**6)))
    elif family == "alt-path":
        inst = gen_gadget(family, n=draw(st.integers(6, 60)))
    else:
        inst = gen_gadget(family, n=2 * draw(st.integers(5, 30)))
    red = reduce_instance(inst)
    comps = components_of(red.graph, red.alpha, red.beta)
    big = [c for c in comps if c.diameter >= 5]
    assume(big)
    return red, draw(st.sampled_from(big))


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(big_components(), st.sampled_from(["deterministic-id", "luby"]), st.integers(0, 5))
def test_ruling_set_matches_the_squared_virtual_graph(case, mode, rng_seed):
    red, comp = case
    ruling, rounds, messages = reference_ruling_set(red.graph, comp, red.alpha, mode, rng_seed)
    trace = Trace(mode, rng_seed)
    assert ruling_set_32(red.graph, comp, red.alpha, red.beta, trace) == ruling
    assert (trace.phases, trace.messages_sent) == ({"ruling-set": rounds}, messages)


# --- the checks that hold the ruling-set property -----------------------------

def corrupt_ruling_run(monkeypatch, alpha_nodes, corrupt):
    """Patch the engine so that the run on a graph over exactly
    ``alpha_nodes`` (the ruling set's squared graph) selects
    ``corrupt(selected)`` instead; every other run is left as it is."""
    real_run = sim.run

    def corrupted_run(g, *args, **kwargs):
        report = real_run(g, *args, **kwargs)
        if g.nodes != alpha_nodes:
            return report
        selected = corrupt(frozenset(v for v, out in report.outputs.items() if out == "in"))
        return dataclasses.replace(report, outputs={v: "in" if v in selected else "out" for v in report.outputs})

    monkeypatch.setattr(sim, "run", corrupted_run)


# On alt-path n=13 the ruling set is {0, 6, 12}: adding 4 puts two ruling
# nodes 4 hops apart, and dropping 12 leaves alpha-node 12 six hops from the
# nearest ruling node.
RULING_CORRUPTIONS = {
    "ruling-nodes-4-hops-apart": lambda ruling: ruling | {4},
    "alpha-node-uncovered": lambda ruling: ruling - {12},
}


@pytest.mark.parametrize("corrupt", RULING_CORRUPTIONS.values(), ids=RULING_CORRUPTIONS)
def test_ruling_set_rejects_a_corrupted_mis_run(monkeypatch, corrupt):
    inst = gen_gadget("alt-path", n=13)
    comp = components_of(inst.graph, inst.alpha, inst.beta)[0]
    assert ruling_set_32(inst.graph, comp, inst.alpha, inst.beta, Trace()) == {0, 6, 12}
    corrupt_ruling_run(monkeypatch, inst.alpha, corrupt)
    with pytest.raises(InternalError, match="MIS subroutine produced a non-MIS output"):
        ruling_set_32(inst.graph, comp, inst.alpha, inst.beta, Trace())


@pytest.mark.parametrize("corrupt", RULING_CORRUPTIONS.values(), ids=RULING_CORRUPTIONS)
def test_corrupted_ruling_run_exits_3_without_traceback(monkeypatch, tmp_path, capsys, corrupt):
    inst = gen_gadget("alt-path", n=13)
    corrupt_ruling_run(monkeypatch, inst.alpha, corrupt)
    assert_const_length_stops(tmp_path, capsys, inst, "MIS subroutine produced a non-MIS output")


def assert_const_length_stops(tmp_path, capsys, inst, message):
    """``const-length`` on inst exits 3 with exactly one stderr line,
    ``internal error: <message>``, no stdout and no schedule file."""
    from misrecon.cli import EXIT_INTERNAL, main

    paths = []
    for name, text in (
        ("graph", format_graph_file(inst.graph)),
        ("alpha", format_vertex_set_file(inst.alpha)),
        ("beta", format_vertex_set_file(inst.beta)),
    ):
        (tmp_path / name).write_text(text)
        paths += [f"--{name}", str(tmp_path / name)]
    out = tmp_path / "sched.txt"
    assert main(["const-length", *paths, "--out", str(out)]) == EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"internal error: {message}"]
    assert captured.out == ""
    assert not out.exists()


def test_engine_stop_in_the_pipeline_exits_3(monkeypatch, tmp_path, capsys):
    # The ruling set's run, on the 7 alpha-nodes of alt-path n=13, gets a
    # cap of one round in place of its 8·7 + 8.
    inst = gen_gadget("alt-path", n=13)
    real_run = sim.run

    def capped_run(g, *args, round_cap, **kwargs):
        return real_run(g, *args, round_cap=1 if g.nodes == inst.alpha else round_cap, **kwargs)

    monkeypatch.setattr(sim, "run", capped_run)
    assert_const_length_stops(tmp_path, capsys, inst, "engine stopped after round 1 (cap 1): 4 of 7 nodes undecided")


def test_dist_mis_caps_each_run_at_8n_plus_8(monkeypatch):
    caps = []
    real_run = sim.run

    def spy(g, *args, **kwargs):
        caps.append((len(g), kwargs["round_cap"]))
        return real_run(g, *args, **kwargs)

    monkeypatch.setattr(sim, "run", spy)
    for g in (Graph(), path(1), cycle(6), random_graph(20, 0.2, 3)):
        for mode in ("deterministic-id", "luby"):
            dist_mis(g, mode)
    assert caps == [(n, max(16, 8 * n + 8)) for n in (0, 0, 1, 1, 6, 6, 20, 20)]
    caps.clear()
    constant_length_schedule_distributed(gen_gadget("logstar", n=60, k=4), Trace())
    assert caps and all(cap == max(16, 8 * n + 8) for n, cap in caps)
