import math
import random

import pytest

from misrecon.analysis import gen_gadget, random_connected_instance, random_instance
from misrecon.constlength import (
    constant_length_schedule_distributed,
    layer_component,
    reduce_instance,
    schedule_big_component,
    schedule_isolated,
    schedule_non_isolated,
)
from misrecon.errors import InputError, InternalError
from misrecon.graph import Graph, components_of, diameter
from misrecon.schedule import PropertySpec, ReconfigInstance, Schedule, validate
from misrecon.sim import ruling_set_32


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
    red = reduce_instance(inst)
    assert red.stripped_always_in == frozenset()
    assert red.kept_nodes == inst.graph.nodes
    assert red.reduced_instance.alpha == inst.alpha


def test_reduce_alpha_equals_beta_strips_everything():
    g = path(5)
    a = frozenset({0, 2, 4})
    red = reduce_instance(ReconfigInstance(g, a, a))
    assert red.stripped_always_in == a
    assert red.kept_nodes == frozenset()


def test_reduce_p5_shared_endpoint():
    g = path(5)
    inst = ReconfigInstance(g, frozenset({0, 2, 4}), frozenset({1, 4}))
    red = reduce_instance(inst)
    assert red.stripped_always_in == frozenset({4})
    assert red.stripped_never_in == frozenset({3})
    assert red.kept_nodes == frozenset({0, 1, 2})
    assert red.reduced_instance.alpha == frozenset({0, 2})
    assert red.reduced_instance.beta == frozenset({1})


def test_lift_preserves_validity_on_random_instances():
    rng = random.Random(5)
    lifted_checked = 0
    for i in range(60):
        inst = random_instance(rng.randrange(8, 26), 0.25, seed=400 + i)
        if math.isinf(diameter(inst.graph)) or diameter(inst.graph) <= 3:
            continue
        red = reduce_instance(inst)
        if not (red.reduced_instance.alpha | red.reduced_instance.beta):
            continue
        sched = constant_length_schedule_distributed(inst)[0]
        # every lifted step contains the shared core
        assert all(red.stripped_always_in <= s for s in sched.steps)
        lifted_checked += 1
    assert lifted_checked > 10


# --- layering ----------------------------------------------------------------

def test_layers_on_alternating_c12():
    g = cycle(12)
    alpha, beta = frozenset(range(0, 12, 2)), frozenset(range(1, 12, 2))
    ruling, _ = ruling_set_32(g, components_of(g, g.nodes, alpha, beta)[0], alpha, beta)
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
    ruling, _ = ruling_set_32(g, components_of(g, g.nodes, alpha, beta)[0], alpha, beta)
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
    ruling, _ = ruling_set_32(g, components_of(g, g.nodes, alpha, beta)[0], alpha, beta)
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
    assert validate(inst, constant_length_schedule_distributed(inst)[0], PropertySpec(4)).valid


# --- big components ----------------------------------------------------------

def big_fragment(inst):
    comps = components_of(inst.graph, inst.alpha | inst.beta, inst.alpha, inst.beta)
    assert len(comps) == 1
    return schedule_big_component(inst.graph, comps[0], inst.alpha, inst.beta, [])


def test_p4_fragment_matches_hand_execution():
    inst = alt(4)
    frag = big_fragment(inst)
    assert frag[:5] == [
        frozenset({0, 2}),
        frozenset({0}),
        frozenset({0, 3}),
        frozenset({3}),
        frozenset({1, 3}),
    ]
    assert len(frag) == 9 and frag[-1] == inst.beta
    assert validate(inst, Schedule(tuple(frag)), PropertySpec(4)).valid


def test_c6_diameter_3_fragment():
    inst = alt(6, cycle(6))
    frag = big_fragment(inst)
    assert validate(inst, Schedule(tuple(frag)), PropertySpec(4)).valid
    assert len(frag) == 9


def test_long_path_cascade_fragment():
    inst = alt(14)
    frag = big_fragment(inst)
    assert len(frag) == 9
    sched = Schedule(tuple(frag))
    assert validate(inst, sched, PropertySpec(4)).valid
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
    comps = components_of(inst.graph, inst.alpha | inst.beta, inst.alpha, inst.beta)
    with pytest.raises(InputError):
        schedule_big_component(inst.graph, comps[0], inst.alpha, inst.beta, [])


# --- non-isolated regime -------------------------------------------------------

def test_two_components_covering_through_one_epsilon():
    g = Graph(range(5), [(0, 1), (2, 3), (4, 0), (4, 3)])
    alpha, beta = frozenset({0, 2}), frozenset({1, 3})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha | beta, alpha, beta)
    frag = schedule_non_isolated(g, comps, alpha, beta, [])
    assert len(frag) == 19
    assert validate(inst, Schedule(tuple(frag)), PropertySpec(4)).valid


def test_single_big_component_equals_padded_fragment():
    inst = alt(8)
    comps = components_of(inst.graph, inst.alpha | inst.beta, inst.alpha, inst.beta)
    frag18 = schedule_non_isolated(inst.graph, comps, inst.alpha, inst.beta, [])
    frag8 = schedule_big_component(inst.graph, comps[0], inst.alpha, inst.beta, [])
    # parts 1-2 are no-ops (4 leading repeats), then the 8-step cascade
    assert frag18[:5] == [frag8[0]] * 5
    assert frag18[5:13] == frag8[1:]
    assert frag18[13:] == [frag8[8]] * 6


def test_triangle_of_doubly_covered_components():
    g = Graph(
        range(9),
        [(0, 1), (2, 3), (4, 5), (6, 0), (6, 3), (7, 2), (7, 5), (8, 4), (8, 1)],
    )
    alpha, beta = frozenset({0, 2, 4}), frozenset({1, 3, 5})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha | beta, alpha, beta)
    assert all(c.alpha_covered and c.beta_covered for c in comps)
    frag = schedule_non_isolated(g, comps, alpha, beta, [])
    assert len(frag) == 19
    assert validate(inst, Schedule(tuple(frag)), PropertySpec(4)).valid


# --- isolated regime -----------------------------------------------------------

def test_isolated_shallow_pair_with_bridge():
    g = Graph(range(7), [(0, 1), (0, 2), (3, 0), (3, 1), (4, 5), (6, 4), (6, 5), (3, 6)])
    alpha, beta = frozenset({0, 4}), frozenset({1, 2, 5})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha | beta, alpha, beta)
    assert all(c.isolated for c in comps)
    frag = schedule_isolated(g, comps, alpha, beta, [])
    assert len(frag) == 11
    assert validate(inst, Schedule(tuple(frag)), PropertySpec(4)).valid


def test_isolated_deep_blob_six_step_gadget():
    g = Graph(range(6), [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 2), (5, 1), (5, 3)])
    alpha, beta = frozenset({0, 1}), frozenset({2, 3})
    inst = ReconfigInstance(g, alpha, beta)
    comps = components_of(g, alpha | beta, alpha, beta)
    frag = schedule_isolated(g, comps, alpha, beta, [])
    assert len(frag) == 11
    assert validate(inst, Schedule(tuple(frag)), PropertySpec(4)).valid
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
    comps = components_of(g, alpha | beta, alpha, beta)
    frag = schedule_isolated(g, comps, alpha, beta, [])
    assert validate(inst, Schedule(tuple(frag)), PropertySpec(4)).valid
    # only one escape node is parked; the skipped blob's beta-part arrives in
    # the same step as the parked blob's anchor beta-node
    assert frozenset({4, 10}) & frag[6] == frozenset({4})
    assert frozenset({8, 9}) <= frag[8] and 3 in frag[8]


# --- full pipeline -------------------------------------------------------------

def test_alt_p8_gives_valid_28_steps():
    inst = alt(8)
    sched = constant_length_schedule_distributed(inst)[0]
    assert sched.length == 28
    assert validate(inst, sched, PropertySpec(4)).valid


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
    assert validate(inst, sched, PropertySpec(4)).valid


@pytest.mark.xfail(raises=InternalError, strict=True)
def test_random_582_node_instance_known_domination_defect():
    """Known defect: the 28-step schedule breaks 4-domination at step 7.

    In the reduced instance, epsilon-node 88 has two neighbors in alpha ∪ beta.
    Its only alpha-neighbor, 80, sits in layer 4 of a diameter-5 cascade.  Its
    only beta-neighbor, 140, sits in a diameter-4 component whose
    ``_small_diameter_fragment`` runs in parallel in part 3 of
    ``schedule_non_isolated``.  At cascade step 3 neither side keeps a set
    member within 4 hops of node 88.
    """
    inst = gen_gadget("random", n=582, p=3 / 582, seed=186725930014)
    constant_length_schedule_distributed(inst)


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
        first, _ = constant_length_schedule_distributed(inst, seed=1)
        again, report = constant_length_schedule_distributed(inst, seed=1)
        assert first == again
        assert report.rounds_used >= 6  # broadcast + classification at least


def test_distributed_round_accounting():
    inst = alt(8)
    sched, report = constant_length_schedule_distributed(inst)
    assert sched.length == 28
    # 2 broadcast + 4 collection + the single ruling-set call's simulated cost
    assert report.rounds_used >= 6
    assert report.messages_sent > 0


def test_distributed_alpha_equals_beta_stops_after_broadcast():
    g = path(8)
    a = frozenset(range(0, 8, 2))
    _, report = constant_length_schedule_distributed(ReconfigInstance(g, a, a))
    # Every node is core or halo: one broadcast message per port, 2·7 in all.
    assert report.rounds_used == 2 and report.messages_sent == 14


def test_distributed_identical_across_subroutines_given_seed():
    inst = random_connected_instance(40, 0.1, seed=77)
    s1, _ = constant_length_schedule_distributed(inst, mode="luby", seed=5)
    s2, _ = constant_length_schedule_distributed(inst, mode="luby", seed=5)
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
        red = reduce_instance(inst)
        if not red.stripped_always_in or not (red.reduced_instance.alpha | red.reduced_instance.beta):
            continue
        res = brute_force_oracle(red.reduced_instance, PropertySpec(4))
        if not res.exists:
            continue
        assert validate(red.reduced_instance, res.witness, PropertySpec(4)).valid
        lifted_steps = red.lift(list(res.witness.steps))
        report = validate(inst, Schedule(tuple(lifted_steps)), PropertySpec(4))
        assert report.valid, report.first_violation
        lifted += 1
    assert lifted >= 5


def test_distributed_on_bounded_degree_family():
    for n in (32, 64, 128):
        inst = gen_gadget("logstar", n=n, k=4)
        assert all(inst.graph.degree(v) == 4 for v in inst.graph.nodes)
        first, _ = constant_length_schedule_distributed(inst, seed=2)
        again, _ = constant_length_schedule_distributed(inst, seed=2)
        assert first == again


def test_distributed_round_accounting_constants(monkeypatch):
    # rounds_used = broadcast(2) + collection(4) + one max per subroutine
    # phase; bounded by 3 MIS phases plus 1 ruling-set phase.  Each dist_mis
    # call of the pipeline is a phase of its own; the ruling-set calls of all
    # big components form one phase.
    import misrecon.constlength as constlength

    mis_rounds, ruling_rounds = [], []

    def recording(fn, log):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            log.append(result[1].rounds_used)
            return result
        return call

    monkeypatch.setattr(constlength, "dist_mis", recording(constlength.dist_mis, mis_rounds))
    monkeypatch.setattr(constlength, "ruling_set_32", recording(constlength.ruling_set_32, ruling_rounds))
    # A path whose shared core {14} splits it into two cascades, so the
    # ruling-set phase has two calls.
    two_cascades = ReconfigInstance(
        path(29), frozenset(range(0, 29, 2)), frozenset(range(1, 13, 2)) | {14} | frozenset(range(17, 29, 2))
    )
    for inst in (random_connected_instance(40, 0.1, seed=55), two_cascades):
        mis_rounds.clear()
        ruling_rounds.clear()
        _, report = constant_length_schedule_distributed(inst, seed=0)
        assert mis_rounds
        r32_max = max(ruling_rounds, default=0)
        assert report.rounds_used == 2 + 4 + sum(mis_rounds) + r32_max
        assert report.rounds_used <= 3 * max(mis_rounds) + 1 * r32_max + 6
    assert len(ruling_rounds) == 2


def _report_tags(inst):
    comps = components_of(inst.graph, inst.alpha | inst.beta, inst.alpha, inst.beta)
    reports = []
    schedule_big_component(inst.graph, comps[0], inst.alpha, inst.beta, reports)
    return [tag for tag, _ in reports]


def test_big_component_reports_only_its_ruling_set():
    assert _report_tags(alt(4)) == []  # diameter 3
    assert _report_tags(alt(6, cycle(6))) == []  # diameter 3
    assert _report_tags(alt(5)) == []  # diameter 4
    assert _report_tags(alt(6)) == ["ruling-set"]  # diameter 5
    assert _report_tags(alt(14)) == ["ruling-set"]
