import math
import random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from misrecon import constlength
from misrecon.analysis import gen_gadget, greedy_mis, random_connected_instance, random_instance
from misrecon.constlength import (
    constant_length_schedule_distributed,
    layer_component,
    reduce_instance,
    schedule_big_component,
    schedule_isolated,
    schedule_non_isolated,
)
from misrecon.errors import InputError, InternalError
from misrecon.graph import Graph, capped_diameter, components_of, diameter, distances_from
from misrecon.schedule import PropertySpec, ReconfigInstance, Schedule, validate
from misrecon.sim import Trace, dist_mis, ruling_set_32


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def alt(n, g=None):
    g = g if g is not None else path(n)
    return ReconfigInstance(g, frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))


# --- reduction -------------------------------------------------------------

def test_reduce_identity_when_disjoint():
    inst = alt(4)
    # With no shared core nothing is stripped, copied or checked again.
    assert not inst.alpha & inst.beta
    assert reduce_instance(inst) is inst


def test_reduce_alpha_equals_beta_strips_everything():
    g = path(5)
    a = frozenset({0, 2, 4})
    red = reduce_instance(ReconfigInstance(g, a, a))
    assert red.graph.nodes == frozenset()
    assert g.nodes - red.graph.nodes - a == frozenset({1, 3})


def test_reduce_p5_shared_endpoint():
    g = path(5)
    inst = ReconfigInstance(g, frozenset({0, 2, 4}), frozenset({1, 4}))
    red = reduce_instance(inst)
    core = inst.alpha & inst.beta
    assert core == frozenset({4})
    assert g.nodes - red.graph.nodes - core == frozenset({3})
    assert red.graph.nodes == frozenset({0, 1, 2})
    assert red.alpha == frozenset({0, 2})
    assert red.beta == frozenset({1})


@st.composite
def instances_with_a_core(draw):
    """Random connected instances of diameter > 3 whose alpha and beta both
    extend a drawn independent core of one to four nodes."""
    n = draw(st.integers(12, 60))
    g = random_connected_instance(n, 3 / n, seed=draw(st.integers(0, 10**6))).graph
    nodes = sorted(g.nodes)
    core = list(greedy_mis(g, draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=4))))
    alpha = greedy_mis(g, core + draw(st.permutations(nodes)))
    beta = greedy_mis(g, core + draw(st.permutations(nodes)))
    return ReconfigInstance(g, alpha, beta)


@seed(20261022)
@settings(max_examples=60, deadline=None)
@given(instances_with_a_core())
def test_reduction_strips_the_core_and_its_neighbours(inst):
    g, core = inst.graph, inst.alpha & inst.beta
    stripped = core | frozenset(w for v in core for w in g.neighbors(v))
    red = reduce_instance(inst)
    assert g.nodes - red.graph.nodes == stripped
    assert red.graph == g.induced(g.nodes - stripped)
    assert (red.alpha, red.beta) == (inst.alpha - stripped, inst.beta - stripped)
    # The broadcast sends one message per port of a stripped node.
    trace, charged = Trace(), {}
    real_charge = trace.charge

    def charge(phase, rounds, messages, h):
        charged.setdefault(phase, messages)
        real_charge(phase, rounds, messages, h)

    trace.charge = charge
    constant_length_schedule_distributed(inst, trace)
    assert charged["broadcast"] == sum(g.degree(v) for v in stripped)


def test_lift_preserves_validity_on_random_instances():
    rng = random.Random(5)
    lifted_checked = 0
    for i in range(60):
        inst = random_instance(rng.randrange(8, 26), 0.25, seed=400 + i)
        if math.isinf(diameter(inst.graph)) or diameter(inst.graph) <= 3:
            continue
        red = reduce_instance(inst)
        if not (red.alpha | red.beta):
            continue
        sched = constant_length_schedule_distributed(inst)[0]
        # every lifted step contains the shared core
        core = inst.alpha & inst.beta
        assert all(core <= s for s in sched.steps)
        lifted_checked += 1
    assert lifted_checked > 10


# --- layering ----------------------------------------------------------------

def test_layers_on_alternating_c12():
    g = cycle(12)
    alpha, beta = frozenset(range(0, 12, 2)), frozenset(range(1, 12, 2))
    ruling = ruling_set_32(g, components_of(g, alpha, beta)[0], alpha, beta, Trace())
    assert ruling == frozenset({0, 6})
    lp = layer_component(g, g.nodes, alpha, beta, ruling)
    assert lp[0] == frozenset({0, 6})
    assert lp[1] == frozenset({1, 5, 7, 11})
    assert lp[2] == frozenset({2, 4, 8, 10})
    assert lp[3] == frozenset({3, 9})
    assert lp[-1] == lp[-2] == lp[4] == lp[5] == frozenset()


def test_layers_on_alternating_path():
    g = path(13)
    alpha, beta = frozenset(range(0, 13, 2)), frozenset(range(1, 13, 2))
    ruling = ruling_set_32(g, components_of(g, alpha, beta)[0], alpha, beta, Trace())
    lp = layer_component(g, g.nodes, alpha, beta, ruling)
    union = frozenset().union(*lp.values())
    assert union == g.nodes
    for i in range(-2, 6):
        assert lp[i] <= (alpha if i % 2 == 0 else beta)


def test_layers_catch_all_neighbors_in_ruling_clause():
    # Node 7's only neighbor is 6, which is in the ruling set, so 7 must land
    # in layer 1 even without a distance-2 route to layer 3.
    g = path(8)
    alpha, beta = frozenset(range(0, 8, 2)), frozenset(range(1, 8, 2))
    ruling = ruling_set_32(g, components_of(g, alpha, beta)[0], alpha, beta, Trace())
    assert ruling == frozenset({0, 6})
    lp = layer_component(g, g.nodes, alpha, beta, ruling)
    assert 7 in lp[1]


def test_layers_overlap_candidate_resolves_to_layer_2():
    # Distance-2 node 2 is adjacent to both a layer-1 node (3) and a
    # layer-(-1) node (1); it must resolve to layer 2 so independence of the
    # layer-1 addition survives.
    g = Graph(range(8), [(0, 1), (1, 2), (0, 3), (3, 2), (3, 4), (4, 5), (5, 6), (6, 7)])
    alpha, beta = frozenset({0, 2, 4, 6}), frozenset({1, 3, 5, 7})
    ruling = frozenset({0})
    lp = layer_component(g, g.nodes, alpha, beta, ruling)
    assert lp[1] == frozenset({3})
    assert lp[-1] == frozenset({1})
    assert 2 in lp[2] and 2 not in lp[-2]
    inst = ReconfigInstance(g, alpha, beta)
    assert validate(inst, constant_length_schedule_distributed(inst)[0], PropertySpec(4)) is None


def test_layer_check_rejects_a_layer_1_node_next_to_layer_3():
    # 1 sits in layer 1 but touches 3 in layer 3, so adding layer 1 while
    # layer 3 is in the set would break independence.
    g = Graph(range(4), [(0, 1), (1, 3), (2, 3)])
    alpha, beta = frozenset({0, 2}), frozenset({1, 3})
    layers = {k: frozenset() for k in range(-2, 6)}
    layers.update({0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2}), 3: frozenset({3})})
    with pytest.raises(InternalError, match="layer-1 node has a neighbor outside layers 0 and 2"):
        constlength._check_layers(g, g.nodes, alpha, beta, layers)
    # The same layers pass once 1 touches layers 0 and 2 only.
    constlength._check_layers(path(4), g.nodes, alpha, beta, layers)


def test_layers_reject_a_ruling_set_that_leaves_a_node_6_hops_away():
    # The (6,5) bound is checked here, not in the ruling set: {0} leaves node
    # 6 of alt-path n=7 exactly 6 hops away, and reaches all of n=6.
    inst = gen_gadget("alt-path", n=7)
    with pytest.raises(InternalError, match=r"not a \(6,5\)-ruling set of the component"):
        layer_component(inst.graph, inst.graph.nodes, inst.alpha, inst.beta, frozenset({0}))
    with pytest.raises(InternalError, match="ruling set does not reach the whole component"):
        layer_component(inst.graph, inst.graph.nodes, inst.alpha, inst.beta, frozenset())
    inst = gen_gadget("alt-path", n=6)
    assert layer_component(inst.graph, inst.graph.nodes, inst.alpha, inst.beta, frozenset({0}))[5] == {5}


# --- big components ----------------------------------------------------------

def sets_of(start, flips):
    """The sets a fragment of flips passes through, ``start`` first."""
    return list(Schedule(start, flips).steps)


def big_fragment(inst):
    comps = components_of(inst.graph, inst.alpha, inst.beta)
    assert len(comps) == 1
    return sets_of(inst.alpha, schedule_big_component(inst.graph, comps[0], inst.alpha, inst.beta, Trace()))


def test_p4_fragment_matches_hand_execution():
    # P4 0-1-2-3 with alpha {0, 2} has diameter 3, so it cascades from one
    # anchor: the smallest alpha-node with a node 3 hops away, which is 0.
    # Distances from 0 are 1, 2, 3 for nodes 1, 2, 3.  Node 1 is 2 hops from
    # the distance-3 node 3, so it is in layer 1 and layer -1 is empty; layer
    # 2 is the non-anchor neighbors of layer 1, {2}, so layer -2 is empty.
    # L0 = {0}, L1 = {1}, L2 = {2}, L3 = {3}, the rest empty.  The cascade
    # removes L4 (nothing), adds L5 (nothing), removes L2, adds L3, removes
    # L0, adds L1, removes L-2 (nothing) and adds L-1 (nothing).
    inst = alt(4)
    frag = big_fragment(inst)
    assert frag == [
        frozenset({0, 2}),
        frozenset({0, 2}),
        frozenset({0, 2}),
        frozenset({0}),
        frozenset({0, 3}),
        frozenset({3}),
        frozenset({1, 3}),
        frozenset({1, 3}),
        frozenset({1, 3}),
    ]
    assert validate(inst, Schedule.from_steps(frag), PropertySpec(4)) is None


def test_c6_diameter_3_fragment():
    inst = alt(6, cycle(6))
    frag = big_fragment(inst)
    assert validate(inst, Schedule.from_steps(frag), PropertySpec(4)) is None
    assert len(frag) == 9


def test_long_path_cascade_fragment():
    inst = alt(14)
    frag = big_fragment(inst)
    assert len(frag) == 9
    sched = Schedule.from_steps(frag)
    assert validate(inst, sched, PropertySpec(4)) is None
    # odd steps only remove alpha-nodes, even steps only add beta-nodes
    for i in range(1, 9):
        removed = frag[i - 1] - frag[i]
        added = frag[i] - frag[i - 1]
        if i % 2 == 1:
            assert added == frozenset() and removed <= inst.alpha
        else:
            assert removed == frozenset() and added <= inst.beta


def test_big_component_rejects_small_diameter():
    inst = alt(3)  # single component of diameter 2
    comps = components_of(inst.graph, inst.alpha, inst.beta)
    with pytest.raises(InputError):
        schedule_big_component(inst.graph, comps[0], inst.alpha, inst.beta, Trace())


# --- non-isolated regime -------------------------------------------------------

def test_two_components_covering_through_one_epsilon():
    g = Graph(range(5), [(0, 1), (2, 3), (4, 0), (4, 3)])
    alpha, beta = frozenset({0, 2}), frozenset({1, 3})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha, beta)
    frag = sets_of(alpha, schedule_non_isolated(g, comps, alpha, beta, Trace()))
    assert len(frag) == 19
    assert validate(inst, Schedule.from_steps(frag), PropertySpec(4)) is None


def test_single_big_component_equals_padded_fragment():
    inst = alt(8)
    comps = components_of(inst.graph, inst.alpha, inst.beta)
    frag18 = schedule_non_isolated(inst.graph, comps, inst.alpha, inst.beta, Trace())
    frag8 = schedule_big_component(inst.graph, comps[0], inst.alpha, inst.beta, Trace())
    # parts 1-2 are no-ops (4 empty flips), then the 8-step cascade
    assert frag18[:4] == [frozenset()] * 4
    assert frag18[4:12] == frag8
    assert frag18[12:] == [frozenset()] * 6


def test_triangle_of_doubly_covered_components():
    g = Graph(
        range(9),
        [(0, 1), (2, 3), (4, 5), (6, 0), (6, 3), (7, 2), (7, 5), (8, 4), (8, 1)],
    )
    alpha, beta = frozenset({0, 2, 4}), frozenset({1, 3, 5})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha, beta)
    assert all(c.alpha_covered and c.beta_covered for c in comps)
    frag = sets_of(alpha, schedule_non_isolated(g, comps, alpha, beta, Trace()))
    assert len(frag) == 19
    assert validate(inst, Schedule.from_steps(frag), PropertySpec(4)) is None


# --- isolated regime -----------------------------------------------------------

def test_isolated_shallow_pair_with_bridge():
    g = Graph(range(7), [(0, 1), (0, 2), (3, 0), (3, 1), (4, 5), (6, 4), (6, 5), (3, 6)])
    alpha, beta = frozenset({0, 4}), frozenset({1, 2, 5})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha, beta)
    assert all(c.isolated for c in comps)
    frag = sets_of(alpha, schedule_isolated(g, comps, alpha, beta, Trace()))
    assert len(frag) == 11
    assert validate(inst, Schedule.from_steps(frag), PropertySpec(4)) is None


def test_isolated_deep_blob_six_step_gadget():
    g = Graph(range(6), [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 2), (5, 1), (5, 3)])
    alpha, beta = frozenset({0, 1}), frozenset({2, 3})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha, beta)
    frag = sets_of(alpha, schedule_isolated(g, comps, alpha, beta, Trace()))
    assert len(frag) == 11
    assert validate(inst, Schedule.from_steps(frag), PropertySpec(4)) is None
    # the selected epsilon-node enters and leaves
    assert any(4 in s for s in frag) and 4 not in frag[-1]


def test_isolated_two_deep_blobs_with_adjacent_escapes():
    edges = [
        (0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 2), (5, 1), (5, 3),
        (6, 8), (6, 9), (7, 8), (7, 9), (10, 6), (10, 8), (11, 7), (11, 9),
        (4, 10),
    ]
    g = Graph(range(12), edges)
    alpha, beta = frozenset({0, 1, 6, 7}), frozenset({2, 3, 8, 9})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha, beta)
    frag = sets_of(alpha, schedule_isolated(g, comps, alpha, beta, Trace()))
    assert validate(inst, Schedule.from_steps(frag), PropertySpec(4)) is None
    # only one escape node is parked; the skipped blob's beta-part arrives in
    # the same step as the parked blob's anchor beta-node
    assert frozenset({4, 10}) & frag[6] == frozenset({4})
    assert frozenset({8, 9}) <= frag[8] and 3 in frag[8]


def test_escape_node_misses_an_alpha_node_of_its_component():
    # Fringe node 4 misses beta-node 3 but sees both alpha-nodes, so parking
    # it would empty the set at the first step.  Node 5 misses alpha-node 0
    # and beta-node 2: it is the escape node, and 0 stays until 5 has entered.
    edges = [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 1), (4, 2), (5, 1), (5, 3), (6, 0), (6, 2)]
    g = Graph(range(7), edges)
    alpha, beta = frozenset({0, 1}), frozenset({2, 3})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha, beta)
    assert diameter(g) == 3
    flips = schedule_isolated(g, comps, alpha, beta, Trace())
    assert flips[4:] == [frozenset({v}) for v in (1, 5, 0, 2, 5, 3)]
    assert validate(inst, Schedule(alpha, tuple(flips)), PropertySpec(4)) is None


# --- full pipeline -------------------------------------------------------------

def test_alt_p8_gives_valid_28_steps():
    inst = alt(8)
    sched = constant_length_schedule_distributed(inst)[0]
    assert sched.length == 28
    assert validate(inst, sched, PropertySpec(4)) is None


def test_alpha_equals_beta_gives_constant_padding():
    g = path(8)
    a = frozenset(range(0, 8, 2))
    sched = constant_length_schedule_distributed(ReconfigInstance(g, a, a))[0]
    assert sched.length == 28
    assert all(s == a for s in sched.steps)


def test_random_100_node_instance():
    inst = random_connected_instance(100, 0.03, seed=12)
    sched = constant_length_schedule_distributed(inst)[0]
    assert sched.length == 28
    assert validate(inst, sched, PropertySpec(4)) is None


def test_random_582_node_instance_keeps_epsilon_node_covered():
    """Epsilon-node 88 of the reduced instance has one alpha-neighbor, 80, in
    layer 4 of a diameter >= 5 cascade, and one beta-neighbor, 140, in a
    diameter-4 component.  A 4-step fragment for that component once ran
    beside the cascade and left node 88 with no set member within 4 hops at
    step 7.  The component now cascades too, and after step 3 of part 3 its
    beta-nodes are within 3 hops of the set."""
    inst = gen_gadget("random", n=582, p=3 / 582, seed=186725930014)
    sched, _ = constant_length_schedule_distributed(inst)
    assert sched.length == 28
    assert validate(inst, sched, PropertySpec(4)) is None
    # Step 7 is step 3 of part 3: beta-node 140 is within 3 hops of the set.
    assert not sched.steps[7].isdisjoint(distances_from(inst.graph, 140, radius=3))


# (n, seed, modes) of gen_gadget("random", n, 3 / n, seed) instances on
# which other treatments of diameter-3/4 components broke 4-domination: a
# 4-step fragment beside the cascades (step 7; step 9 for n=400, seed
# 505247116758, when run in steps 5-8 of part 3), and a cascade from the
# component's smallest alpha-node (step 11, n=40).
REPRODUCERS = [
    (582, 186725930014, ("deterministic-id", "luby")),
    (400, 659891313703, ("luby",)),
    (500, 866353767850, ("deterministic-id",)),
    (500, 212993481164, ("deterministic-id",)),
    (582, 742707253018, ("deterministic-id",)),
    (700, 472021431947, ("deterministic-id",)),
    (700, 606927525529, ("luby",)),
    (400, 296165340652, ("deterministic-id", "luby")),
    (582, 227363839639, ("deterministic-id", "luby")),
    (120, 794843125393, ("deterministic-id",)),
    (400, 505247116758, ("deterministic-id", "luby")),
    (40, 425657604110, ("deterministic-id", "luby")),
]


@pytest.mark.parametrize(
    "n, seed, mode", [(n, seed, mode) for n, seed, modes in REPRODUCERS for mode in modes]
)
def test_random_reproducers_give_valid_28_steps(n, seed, mode):
    inst = gen_gadget("random", n=n, p=3 / n, seed=seed)
    sched, _ = constant_length_schedule_distributed(inst, Trace(mode, seed=1))
    assert sched.length == 28
    assert validate(inst, sched, PropertySpec(4)) is None


@st.composite
def deep_instances(draw):
    """Instances of diameter > 3 from the random (n 400-700, p = 3/n),
    alt-path, alt-cycle and logstar (k = 4) families."""
    family = draw(st.sampled_from(["random", "random", "alt-path", "alt-cycle", "logstar"]))
    if family == "random":
        n = draw(st.integers(400, 700))
        inst = gen_gadget("random", n=n, p=3 / n, seed=draw(st.integers(0, 2**40)))
    elif family == "alt-cycle":
        inst = gen_gadget("alt-cycle", n=2 * draw(st.integers(2, 150)))
    elif family == "alt-path":
        inst = gen_gadget("alt-path", n=draw(st.integers(2, 300)))
    else:
        inst = gen_gadget("logstar", n=draw(st.integers(15, 600)), k=4)
    assume(diameter(inst.graph, cap=4) > 3)
    return inst


@seed(20261020)
@settings(max_examples=150, deadline=None)
@given(deep_instances())
def test_every_deep_instance_gets_a_valid_28_step_schedule(inst):
    for mode in ("deterministic-id", "luby"):
        sched, _ = constant_length_schedule_distributed(inst, Trace(mode, seed=1))
        assert sched.length == 28
        assert validate(inst, sched, PropertySpec(4)) is None


def test_rejects_small_diameter_and_disconnected():
    with pytest.raises(InputError):
        constant_length_schedule_distributed(alt(4))
    g = Graph(range(4), [(0, 1), (2, 3)])
    inst = ReconfigInstance(g, frozenset({0, 2}), frozenset({1, 3}))
    with pytest.raises(InputError):
        constant_length_schedule_distributed(inst)


def test_mixed_regimes_across_densities():
    rng = random.Random(99)
    ran = 0
    for i in range(150):
        n = rng.randrange(8, 40)
        p = rng.choice([1.5 / n, 2.2 / n, 0.15, 0.3])
        inst = random_instance(n, p, seed=7000 + i)
        diam = diameter(inst.graph)
        if math.isinf(diam) or diam <= 3:
            continue
        sched = constant_length_schedule_distributed(inst)[0]
        assert sched.length == 28
        ran += 1
    assert ran > 60


# --- distributed variant ---------------------------------------------------------

def test_distributed_matches_centralized_bit_for_bit():
    # Two calls with one seed give the same schedule bit for bit.
    for n in (32, 64, 128):
        inst = random_connected_instance(n, 4.0 / n, seed=n)
        first, _ = constant_length_schedule_distributed(inst, Trace(seed=1))
        again, trace = constant_length_schedule_distributed(inst, Trace(seed=1))
        assert first == again
        assert trace.rounds_used >= 6  # broadcast + classification at least


def test_distributed_round_accounting():
    inst = alt(8)
    sched, trace = constant_length_schedule_distributed(inst)
    assert sched.length == 28
    # 2 broadcast + 4 collection + the single ruling-set call's simulated cost
    assert trace.rounds_used >= 6
    assert trace.messages_sent > 0


def test_distributed_alpha_equals_beta_stops_after_broadcast():
    g = path(8)
    a = frozenset(range(0, 8, 2))
    _, trace = constant_length_schedule_distributed(ReconfigInstance(g, a, a))
    # Every node is core or halo: one broadcast message per port, 2·7 in all.
    assert trace.phases == {"broadcast": 2} and trace.messages_sent == 14


def test_distributed_identical_across_subroutines_given_seed():
    inst = random_connected_instance(40, 0.1, seed=77)
    s1, _ = constant_length_schedule_distributed(inst, Trace("luby", seed=5))
    s2, _ = constant_length_schedule_distributed(inst, Trace("luby", seed=5))
    assert s1 == s2


def test_reduced_oracle_witness_lifts_to_valid_schedule():
    from misrecon.analysis import brute_force_oracle

    rng = random.Random(31)
    lifted = 0
    for i in range(80):
        inst = random_instance(rng.randrange(8, 13), 0.3, seed=5000 + i)
        diam = diameter(inst.graph)
        if math.isinf(diam) or diam <= 3:
            continue
        red, core = reduce_instance(inst), inst.alpha & inst.beta
        if not core or not (red.alpha | red.beta):
            continue
        res = brute_force_oracle(red, PropertySpec(4))
        if not res.exists:
            continue
        assert validate(red, res.witness, PropertySpec(4)) is None
        # Lifting adds the shared core to the start; the flips stay.
        whole = Schedule(res.witness.start | core, res.witness.flips)
        violation = validate(inst, whole, PropertySpec(4))
        assert violation is None, violation
        lifted += 1
    assert lifted >= 5


def test_distributed_on_bounded_degree_family():
    for n in (32, 64, 128):
        inst = gen_gadget("logstar", n=n, k=4)
        assert all(inst.graph.degree(v) == 4 for v in inst.graph.nodes)
        first, _ = constant_length_schedule_distributed(inst, Trace(seed=2))
        again, _ = constant_length_schedule_distributed(inst, Trace(seed=2))
        assert first == again


def test_distributed_round_accounting_constants(monkeypatch):
    # rounds_used = broadcast(2) + collection(4) + one max per subroutine
    # phase; bounded by 3 MIS phases plus 1 ruling-set phase.  Each MIS call
    # of the pipeline is a phase of its own; the ruling-set calls of all big
    # components form one phase.
    mis_phases, ruling_calls = [], []
    real_mis, real_ruling = Trace.mis, constlength.ruling_set_32

    def mis(self, phase, g, *cost):
        # The ruling set runs its MIS through Trace.mis too; it is counted
        # separately below.  A call on a graph with no nodes is no phase.
        if phase != "ruling-set" and g.nodes:
            mis_phases.append(phase)
        return real_mis(self, phase, g, *cost)

    def ruling_set(*args):
        ruling_calls.append(args[1])
        return real_ruling(*args)

    monkeypatch.setattr(Trace, "mis", mis)
    monkeypatch.setattr(constlength, "ruling_set_32", ruling_set)
    # A path whose shared core {14} splits it into two cascades, so the
    # ruling-set phase has two calls.
    two_cascades = ReconfigInstance(
        path(29), frozenset(range(0, 29, 2)), frozenset(range(1, 13, 2)) | {14} | frozenset(range(17, 29, 2))
    )
    ran_mis = []
    # The logstar ring runs blob-mis on its contact graph; the other two run
    # no MIS phase on a graph with nodes.
    for inst in (gen_gadget("logstar", n=60, k=4), random_connected_instance(40, 0.1, seed=55), two_cascades):
        mis_phases.clear()
        ruling_calls.clear()
        _, trace = constant_length_schedule_distributed(inst, Trace(seed=0))
        assert len(set(mis_phases)) == len(mis_phases)
        ran_mis += mis_phases
        phases = dict(trace.phases)
        mis_rounds = [phases.pop(tag) for tag in mis_phases]
        r32_max = phases.pop("ruling-set", 0)
        assert phases == {"broadcast": 2, "collect": 4}
        assert trace.rounds_used == 2 + 4 + sum(mis_rounds) + r32_max
        assert trace.rounds_used <= 3 * max(mis_rounds, default=0) + 1 * r32_max + 6
    assert ran_mis == ["blob-mis"]
    assert len(ruling_calls) == 2


def _report_tags(inst):
    comps = components_of(inst.graph, inst.alpha, inst.beta)
    trace = Trace()
    schedule_big_component(inst.graph, comps[0], inst.alpha, inst.beta, trace)
    return list(trace.phases)


def test_big_component_reports_only_its_ruling_set():
    assert _report_tags(alt(4)) == []  # diameter 3
    assert _report_tags(alt(6, cycle(6))) == []  # diameter 3
    assert _report_tags(alt(5)) == []  # diameter 4
    assert _report_tags(alt(6)) == ["ruling-set"]  # diameter 5
    assert _report_tags(alt(14)) == ["ruling-set"]


# The per-phase rounds and the messages of the 28-step pipeline, pinned from
# the per-call report list that the trace replaced, less the phases that ran
# on a graph with no nodes.  ``random``'s blob-mis runs on 7 nodes and no
# edge, so it decides in 0 rounds.
LEDGER = {
    ("random", "deterministic-id"): ({"broadcast": 2, "collect": 4, "ruling-set": 18, "blob-mis": 0}, 2816),
    ("random", "luby"): ({"broadcast": 2, "collect": 4, "ruling-set": 26, "blob-mis": 0}, 3182),
    ("logstar", "deterministic-id"): ({"broadcast": 2, "collect": 4, "blob-mis": 4}, 4428),
    ("logstar", "luby"): ({"broadcast": 2, "collect": 4, "blob-mis": 4}, 4333),
    ("alt-cycle", "deterministic-id"): ({"broadcast": 2, "collect": 4, "ruling-set": 18}, 2289),
    ("alt-cycle", "luby"): ({"broadcast": 2, "collect": 4, "ruling-set": 18}, 2331),
}
LEDGER_INSTANCES = {
    "random": lambda: gen_gadget("random", n=400, p=3 / 400, seed=1),
    "logstar": lambda: gen_gadget("logstar", n=260, k=4),
    "alt-cycle": lambda: gen_gadget("alt-cycle", n=200),
}


@pytest.mark.parametrize("family, mode", sorted(LEDGER))
def test_trace_ledger_is_pinned(family, mode):
    phases, messages = LEDGER[family, mode]
    _, trace = constant_length_schedule_distributed(LEDGER_INSTANCES[family](), Trace(mode))
    assert list(trace.phases.items()) == list(phases.items())
    assert (trace.rounds_used, trace.messages_sent) == (sum(phases.values()), messages)


@st.composite
def deep_instances_with_any_core(draw):
    """Random connected instances of diameter > 3: ``random_connected_instance``'s
    own, one whose alpha and beta extend a drawn core, or one with alpha = beta."""
    kind = draw(st.sampled_from(["plain", "core", "core", "equal"]))
    if kind == "core":
        return draw(instances_with_a_core())
    n = draw(st.integers(12, 80))
    inst = random_connected_instance(n, 3 / n, seed=draw(st.integers(0, 10**6)))
    return inst if kind == "plain" else ReconfigInstance(inst.graph, inst.alpha, inst.alpha)


@seed(20261023)
@settings(max_examples=100, deadline=None)
@given(deep_instances_with_any_core(), st.sampled_from(["deterministic-id", "luby"]))
def test_each_builder_picks_its_own_components(inst, mode):
    sched, trace = constant_length_schedule_distributed(inst, Trace(mode))
    assert all(trace.shapes[phase][0] >= 1 for phase in trace.phases)
    red = reduce_instance(inst)
    h, alpha, beta = red.graph, red.alpha, red.beta
    comps = components_of(h, alpha, beta)
    flips = schedule_non_isolated(h, comps, alpha, beta, Trace(mode))
    flips += schedule_isolated(h, comps, alpha, beta, Trace(mode))
    assert tuple(flips) == sched.flips
    # Given only the other regime's components, a builder has nothing to do.
    isolated = [c for c in comps if c.isolated and c.diameter <= 2]
    others = [c for c in comps if c not in isolated]
    for builder, theirs, length in ((schedule_non_isolated, isolated, 18), (schedule_isolated, others, 10)):
        alone = Trace(mode)
        assert builder(h, theirs, alpha, beta, alone) == [frozenset()] * length
        assert (alone.phases, alone.messages_sent) == ({}, 0)


def reference_part2(g, small, updated, m_comps, alpha, beta):
    """Part 2 of the 18-step fragment by a scan of each component's fringe:
    the small components not yet updated nor in the MIS with an
    epsilon-neighbour of a beta-node that has an alpha-neighbour in an MIS
    component other than itself."""
    eps = g.nodes - alpha - beta
    m_vertices = frozenset().union(*(c.vertices for c in m_comps))
    part2 = []
    for c in small:
        if c.min_id in updated or c in m_comps:
            continue
        fringe = frozenset().union(*(g.neighbors(b) for b in beta & c.vertices)) & eps
        if any(g.neighbors(e) & alpha & (m_vertices - c.vertices) for e in fringe):
            part2.append(c.vertices)
    return part2


# Random instances (n, generator seed, mode) whose part 2 is not empty and
# would differ if it were read off the beta-covered sets.
PART2_CASES = [(60, 1, "luby"), (60, 64, "deterministic-id"), (80, 35, "luby"), (120, 29, "deterministic-id")]


@pytest.mark.parametrize("n, gen_seed, mode", PART2_CASES)
def test_part_2_matches_a_fringe_scan(monkeypatch, n, gen_seed, mode):
    batches = []
    real_batch = constlength._batch_update

    def batch_update(flips, parts, alpha, beta):
        batches.append(parts)
        real_batch(flips, parts, alpha, beta)

    monkeypatch.setattr(constlength, "_batch_update", batch_update)
    inst = gen_gadget("random", n=n, p=3 / n, seed=gen_seed)
    constant_length_schedule_distributed(inst, Trace(mode))

    red = reduce_instance(inst)
    g, alpha, beta = red.graph, red.alpha, red.beta
    small = [c for c in components_of(g, alpha, beta) if c.diameter <= 2 and not c.isolated]
    c_ab = [c for c in small if c.alpha_covered and c.beta_covered]
    by_label = {c.min_id: c for c in c_ab}
    m_labels, _ = dist_mis(constlength._component_graph(c_ab), mode)
    updated = {c.min_id for c in small if c.alpha_covered and not c.beta_covered}
    expected = reference_part2(g, small, updated, [by_label[i] for i in sorted(m_labels)], alpha, beta)
    # The non-isolated fragment's second batch, after part 1's, is part 2.
    assert expected and batches[1] == expected


def reference_non_isolated(g, comps, alpha, beta, mode):
    """The 18 flips of the non-isolated fragment, and the components each of
    its five small batches updates, by filter and mark: the small
    components are listed as alpha-covered only; not in the MIS of the
    component graph but alpha-covered by one in it; in the MIS; doubly
    covered; beta-covered only.  Each is updated by the first list that
    holds it, and the big components cascade between the second and the
    third batch."""
    small = [c for c in comps if c.diameter <= 2]
    c_ab = [c for c in small if c.alpha_covered and c.beta_covered]
    labels = {c.min_id for c in c_ab}
    # An edge where an epsilon-node has an alpha-neighbour in one and a
    # beta-neighbour in the other: the other's alpha_covered holds the one.
    mis_graph = Graph(labels, [(i, c.min_id) for c in c_ab for i in c.alpha_covered if i in labels])
    m_labels, _ = dist_mis(mis_graph, mode)
    lists = [
        [c for c in small if c.alpha_covered and not c.beta_covered],
        [c for c in small if c.min_id not in m_labels and c.alpha_covered & m_labels],
        [c for c in c_ab if c.min_id in m_labels],
        c_ab,
        [c for c in small if c.beta_covered and not c.alpha_covered],
    ]
    updated, batches = set(), []
    for listed in lists:
        batches.append([c for c in listed if c.min_id not in updated])
        updated |= {c.min_id for c in batches[-1]}
    steps = []
    for batch in batches:
        vertices = frozenset().union(*(c.vertices for c in batch))
        steps.append([alpha & vertices, beta & vertices])
    big = [schedule_big_component(g, c, alpha, beta, Trace(mode)) for c in comps if c.diameter >= 3]
    cascade = [frozenset().union(*(f[j] for f in big)) for j in range(8)]
    return steps[0] + steps[1] + cascade + steps[2] + steps[3] + steps[4], batches


@st.composite
def instances_of_small_pieces(draw):
    """Alternating paths of 2 to 4 nodes (diameter 1 to 3) joined by
    epsilon-nodes, each with one or two alpha- and beta-neighbours anywhere:
    small components land in every part."""
    rng = draw(st.randoms(use_true_random=False))
    edges, alpha, beta, n = [], set(), set(), 0
    for _ in range(12):
        length, flip = rng.choice((2, 2, 3, 4)), rng.random() < 0.5
        edges += [(v, v + 1) for v in range(n, n + length - 1)]
        for v in range(n, n + length):
            (alpha if (v - n) % 2 == flip else beta).add(v)
        n += length
    for e in range(n, n + 14):
        edges += [(e, a) for a in rng.sample(sorted(alpha), rng.choice((1, 1, 2)))]
        edges += [(e, b) for b in rng.sample(sorted(beta), rng.choice((1, 1, 2)))]
    return ReconfigInstance(Graph(range(n + 14), edges), alpha, beta)


@seed(20261019)
@settings(max_examples=40, deadline=None)
@given(instances_of_small_pieces(), st.sampled_from(["deterministic-id", "luby"]))
def test_parts_match_filter_and_mark(inst, mode):
    g, alpha, beta = inst.graph, inst.alpha, inst.beta
    covered = [c for c in components_of(g, alpha, beta) if not c.isolated or c.diameter >= 3]
    expected, batches = reference_non_isolated(g, covered, alpha, beta, mode)
    # Parts 1, 2, 4, 5 and 6 each update at least one small component.
    assume(all(batches))
    assert schedule_non_isolated(g, covered, alpha, beta, Trace(mode)) == expected


# --- the virtual graphs the MIS runs on ------------------------------------------

def mis_graphs(inst, mode="deterministic-id"):
    """The graph of each ``Trace.mis`` call of the 28-step pipeline on inst,
    keyed by phase."""
    graphs = {}
    real_mis = Trace.mis

    def mis(self, phase, g, *cost):
        graphs.setdefault(phase, []).append(g)
        return real_mis(self, phase, g, *cost)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Trace, "mis", mis)
        constant_length_schedule_distributed(inst, Trace(mode))
    return graphs


def reference_virtual_graphs(inst):
    """The contact graph and the component graph of inst's reduced instance,
    from their definitions.  Contact graph: the isolated components of
    diameter at most 2 whose blob (the component with its epsilon-neighbours)
    also has diameter at most 2, two joined when a fringe node of one is
    adjacent to a fringe node of the other.  Component graph: the
    non-isolated components of diameter at most 2 that are both alpha- and
    beta-covered, two joined when an epsilon-node has an alpha-neighbour in
    one and a beta-neighbour in the other."""
    red = reduce_instance(inst)
    g, alpha, beta = red.graph, red.alpha, red.beta
    eps = g.nodes - alpha - beta
    comps = components_of(g, alpha, beta)
    label = {v: c.min_id for c in comps for v in c.vertices}

    isolated = {c.min_id: c.vertices for c in comps if c.isolated and c.diameter <= 2}
    fringes = {i: frozenset(e for e in eps if g.neighbors(e) & core) for i, core in isolated.items()}
    # No epsilon-node touches two isolated components, so blobs are disjoint.
    assert sum(map(len, fringes.values())) == len(frozenset().union(*fringes.values()))
    fringes = {i: f for i, f in fringes.items() if diameter(g, isolated[i] | f) <= 2}
    contact = Graph(fringes, [
        (i, j) for i in fringes for j in fringes
        if i < j and any(g.neighbors(e) & fringes[j] for e in fringes[i])
    ])

    # (i, j): an epsilon-node has an alpha-neighbour in i and a beta-neighbour in j.
    covers = {
        (label[a], label[b]) for e in eps for a in g.neighbors(e) & alpha for b in g.neighbors(e) & beta
        if label[a] != label[b]
    }
    small = {c.min_id for c in comps if c.diameter <= 2 and not c.isolated}
    doubly = small & {j for _, j in covers} & {i for i, _ in covers}
    component = Graph(doubly, [(i, j) for i, j in covers if i in doubly and j in doubly])
    return contact, component


@pytest.mark.parametrize("k, n", [(3, 40), (3, 100), (4, 60), (4, 260)])
def test_logstar_contact_graph_is_the_ring_of_blobs(k, n):
    inst = gen_gadget("logstar", n=n, k=k)
    contact, _ = reference_virtual_graphs(inst)
    blobs = n // (k + 1)
    assert len(contact) == blobs and all(contact.degree(v) == 2 for v in contact.nodes)
    assert mis_graphs(inst)["blob-mis"] == [contact]


@st.composite
def instances_with_virtual_graphs(draw):
    n = draw(st.integers(30, 90))
    inst = gen_gadget("random", n=n, p=3 / n, seed=draw(st.integers(0, 10**6)))
    assume(3 < capped_diameter(inst.graph) < math.inf)
    contact, component = reference_virtual_graphs(inst)
    assume(len(contact) >= 2 or len(component) >= 2)
    return inst, contact, component


@seed(20261021)
@settings(max_examples=60, deadline=None)
@given(instances_with_virtual_graphs(), st.sampled_from(["deterministic-id", "luby"]))
def test_virtual_graphs_match_their_definitions(case, mode):
    inst, contact, component = case
    graphs = mis_graphs(inst, mode)
    # A phase with nothing to run on is skipped or runs on the empty graph.
    assert graphs.get("blob-mis", [Graph()]) == [contact]
    assert graphs.get("component-mis", [Graph()]) == [component]


# --- high-degree virtual graphs ---------------------------------------------------

def hub_instance(leaves):
    """One beta-node 0 with ``leaves`` alpha-leaves and a 12-node alternating
    tail: a tree whose squared virtual graph joins every two leaves."""
    tail = range(leaves + 1, leaves + 13)
    edges = [(0, v) for v in range(1, leaves + 1)] + list(zip([0, *tail], tail))
    alpha = frozenset(range(1, leaves + 1)) | frozenset(tail[0::2])
    return ReconfigInstance(Graph(range(leaves + 13), edges), alpha, frozenset({0, *tail[1::2]}))


def epsilon_hub_instance(pairs):
    """One epsilon-node 0 adjacent to both ends of ``pairs`` alpha-beta edges
    and a 10-node alternating tail: any two of the edges cover each other,
    so the component graph is complete, and the tail takes the ruling set."""
    tail = range(2 * pairs + 1, 2 * pairs + 11)
    edges = [(0, v) for v in range(1, 2 * pairs + 1)] + [(i, pairs + i) for i in range(1, pairs + 1)]
    alpha = frozenset(range(1, pairs + 1)) | frozenset(tail[0::2])
    beta = frozenset(range(pairs + 1, 2 * pairs + 1)) | frozenset(tail[1::2])
    return ReconfigInstance(Graph(range(2 * pairs + 11), edges + list(zip([0, *tail], tail))), alpha, beta)


@pytest.mark.parametrize("inst", [hub_instance(250), epsilon_hub_instance(250)], ids=["hub", "epsilon-hub"])
def test_high_degree_virtual_graphs_match_their_definitions(inst):
    sched, _ = constant_length_schedule_distributed(inst)
    assert validate(inst, sched, PropertySpec(4)) is None
    graphs = mis_graphs(inst)
    assert graphs.get("component-mis", [Graph()]) == [reference_virtual_graphs(inst)[1]]
    red = reduce_instance(inst)
    (squared,) = graphs["ruling-set"]
    comp = next(c for c in components_of(red.graph, red.alpha, red.beta) if squared.nodes <= c.vertices)
    assert squared.nodes == red.alpha & comp.vertices
    near = {u: distances_from(red.graph, u, comp.vertices, 4).keys() & squared.nodes for u in squared.nodes}
    assert squared == Graph(squared.nodes, [(u, w) for u in squared.nodes for w in near[u] if u < w])
