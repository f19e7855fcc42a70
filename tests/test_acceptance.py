"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import time

from misrecon.analysis import (
    all_mis,
    brute_force_oracle,
    check_blocker,
    enumerate_connected_graphs,
    gen_gadget,
    random_connected_instance,
    small_diameter_fallback,
)
from misrecon.constlength import (
    constant_length_schedule_distributed,
    schedule_big_component,
    schedule_isolated,
    schedule_non_isolated,
)
from misrecon.constrounds import (
    constant_rounds_schedule,
    greedy_power_coloring,
    plan_insertion,
)
from misrecon.graph import Graph, components_of, diameter
from misrecon.schedule import PropertySpec, ReconfigInstance, Schedule, net_flip, validate
from misrecon.sim import Trace

D4 = PropertySpec(4)
D3 = PropertySpec(3)


def test_criterion_1_constant_length_is_exactly_28():
    """200 seeded random connected instances, n <= 60, diameter > 3: every
    schedule has length exactly 28 and validates at d=4, within 10 seconds."""
    t0 = time.time()
    for i in range(200):
        n = 12 + (i * 7) % 49
        inst = random_connected_instance(n, 2.4 / n, seed=i, min_diameter=4)
        assert len(inst.graph) <= 60 and diameter(inst.graph) > 3
        sched = constant_length_schedule_distributed(inst)[0]
        assert sched.length == 28
        assert validate(inst, sched, D4) is None
    elapsed = time.time() - t0
    assert elapsed < 10.0
    print(f"criterion 1: PASS (200 instances, all length 28, {elapsed:.2f}s)")


def test_criterion_2_fragment_budgets():
    """Single-regime instances stay within the 8/18/10 step budgets and are
    validator-clean."""
    # 8-step regime: one component of diameter >= 3 (both diameter cases).
    for n, kind in ((4, "short"), (14, "cascade")):
        g = Graph(range(n), [(i, i + 1) for i in range(n - 1)])
        inst = ReconfigInstance(g, frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))
        comps = components_of(g, inst.alpha, inst.beta)
        frag = schedule_big_component(g, comps[0], inst.alpha, inst.beta, Trace())
        assert len(frag) <= 8
        assert validate(inst, Schedule(inst.alpha, frag), D4) is None

    # 18-step regime: non-isolated small components.
    g = Graph(range(5), [(0, 1), (2, 3), (4, 0), (4, 3)])
    inst = ReconfigInstance(g, frozenset({0, 2}), frozenset({1, 3}))
    comps = components_of(g, inst.alpha, inst.beta)
    frag = schedule_non_isolated(g, comps, inst.alpha, inst.beta, Trace())
    assert len(frag) <= 18
    assert validate(inst, Schedule(inst.alpha, frag), D4) is None

    # 10-step regime: isolated small components, both blob depths.
    shallow = Graph(range(7), [(0, 1), (0, 2), (3, 0), (3, 1), (4, 5), (6, 4), (6, 5), (3, 6)])
    inst_s = ReconfigInstance(shallow, frozenset({0, 4}), frozenset({1, 2, 5}))
    comps_s = components_of(shallow, inst_s.alpha, inst_s.beta)
    frag_s = schedule_isolated(shallow, comps_s, inst_s.alpha, inst_s.beta, Trace())
    assert len(frag_s) <= 10
    assert validate(inst_s, Schedule(inst_s.alpha, frag_s), D4) is None

    deep = Graph(range(6), [(0, 2), (0, 3), (1, 2), (1, 3), (4, 0), (4, 2), (5, 1), (5, 3)])
    inst_d = ReconfigInstance(deep, frozenset({0, 1}), frozenset({2, 3}))
    comps_d = components_of(deep, inst_d.alpha, inst_d.beta)
    frag_d = schedule_isolated(deep, comps_d, inst_d.alpha, inst_d.beta, Trace())
    assert len(frag_d) <= 10
    assert validate(inst_d, Schedule(inst_d.alpha, frag_d), D4) is None
    print("criterion 2: PASS (fragments within 8/18/10 budgets, validator-clean)")


def test_criterion_3_characterization_equivalence():
    """Over every connected graph with at most 7 nodes and every ordered pair
    of distinct MISes, the blocker test agrees exactly with oracle
    non-existence at d=4.  On diameter <= 3 graphs the small-diameter
    fallback returns a schedule exactly when the oracle finds one, that
    schedule validates at d=4, and it is no shorter than the oracle's."""
    t0 = time.time()
    graphs = enumerate_connected_graphs(7)
    assert len(graphs) == 996
    pairs = fallbacks = 0
    for g in graphs:
        mises = all_mis(g)
        if len(mises) < 2:
            continue
        small = diameter(g) <= 3
        for a, b in itertools.permutations(mises, 2):
            inst = ReconfigInstance(g, a, b)
            where = f"edges={g.edges()} alpha={sorted(a)} beta={sorted(b)}"
            blocked = check_blocker(inst).blocked
            oracle = brute_force_oracle(inst, D4)
            assert oracle.exists is not None
            assert blocked == (not oracle.exists), f"mismatch on {where}"
            pairs += 1
            if small:
                sched = small_diameter_fallback(inst)
                assert (sched is not None) == oracle.exists, f"fallback mismatch on {where}"
                if sched is not None:
                    assert validate(inst, sched, D4) is None, where
                    assert oracle.min_length <= sched.length, where
                fallbacks += 1
    elapsed = time.time() - t0
    assert elapsed < 300.0
    print(f"criterion 3: PASS ({pairs} ordered MIS pairs, 0 mismatches, "
          f"{fallbacks} fallback schedules checked, {elapsed:.1f}s)")


def test_criterion_4_three_domination_impossibility():
    """The blocker gadget admits no 3-dominating schedule but admits a
    4-dominating one."""
    inst = gen_gadget("threedom-blocker")
    assert brute_force_oracle(inst, D3).exists is False
    assert brute_force_oracle(inst, D4).exists is True
    print("criterion 4: PASS (3-domination blocked, 4-domination feasible)")


def test_criterion_5_linear_three_domination_cost():
    """The chained gadget's minimum 3-dominating schedule length grows
    strictly and stays above n/4.  (The n/4 floor is a desk-scale proxy; the
    source construction only asserts growth proportional to n.)"""
    lengths = []
    for n in (8, 12, 16):
        inst = gen_gadget("threedom-linear", n=n)
        res = brute_force_oracle(inst, D3)
        assert res.exists
        assert res.min_length >= n / 4
        lengths.append(res.min_length)
    assert lengths[0] < lengths[1] < lengths[2]
    print(f"criterion 5: PASS (min lengths {lengths} strictly increasing, >= n/4)")


def test_criterion_6_constant_round_property():
    """Identifier-slotted schedules take the same number of simulated rounds
    at n = 20, 40, 80, and stay within the identifier-driven length bound."""
    rounds = set()
    for n in (20, 40, 80):
        inst = gen_gadget("alt-path", n=n)
        sched, report = constant_rounds_schedule(inst)
        rounds.add(report.rounds_used)
        assert sched.length <= 6 * (max(inst.graph.nodes) + 1) + 6
        assert validate(inst, sched, D4) is None
    assert len(rounds) == 1
    print(f"criterion 6: PASS (rounds_used constant at {rounds.pop()} across n=20,40,80)")


def test_criterion_7_coloring_driven_schedule():
    """A greedy 16th-power coloring of the 60-cycle yields a schedule of
    length at most 6c+6 that validates."""
    inst = gen_gadget("alt-cycle", n=60)
    coloring = greedy_power_coloring(inst.graph)
    c = len(set(coloring.values()))
    sched = constant_rounds_schedule(inst, coloring)[0]
    assert sched.length <= 6 * c + 6
    assert validate(inst, sched, D4) is None
    print(f"criterion 7: PASS ({c} colors, length {sched.length} <= {6 * c + 6})")


def test_criterion_8_insertion_net_removal_property():
    """Across 100 random diameter > 5 instances, every insertion fragment's
    net removals are confined to the target's set-neighbors (its
    alpha-neighbors, reading alpha as the running maximal independent set)
    and the resulting set keeps alpha ∩ beta plus the target."""
    fragments = 0
    for i in range(100):
        n = 12 + (i % 10)
        inst = random_connected_instance(n, 1.9 / n, seed=2000 + i, min_diameter=6)
        shared = inst.alpha & inst.beta
        current = inst.alpha
        for k in sorted(inst.graph.nodes):
            if k in inst.beta and k not in current:
                plan = plan_insertion(inst.graph, current, inst.alpha, inst.beta, k)
                end = current ^ net_flip(plan.six_flips)
                net_removed = current - end
                assert net_removed <= (inst.graph.neighbors(k) & current)
                assert shared <= end and k in end
                current = end
                fragments += 1
        assert current == inst.beta
    assert fragments >= 100
    print(f"criterion 8: PASS ({fragments} fragments over 100 instances)")


def test_criterion_9_oracle_confirms_constructive_schedules():
    """For instances with n <= 12, the oracle confirms existence and its
    minimum never exceeds any constructed schedule's length."""
    checked = 0

    def confirm(inst, sched):
        nonlocal checked
        res = brute_force_oracle(inst, D4)
        assert res.exists is True
        assert res.min_length <= sched.length
        checked += 1

    for n in (8, 10, 12):
        inst = gen_gadget("alt-path", n=n)
        confirm(inst, constant_length_schedule_distributed(inst)[0])
        if diameter(inst.graph) > 5:
            sched, _ = constant_rounds_schedule(inst)
            confirm(inst, sched)

    for i in range(12):
        inst = random_connected_instance(9 + (i % 4), 0.25, seed=600 + i, min_diameter=4)
        confirm(inst, constant_length_schedule_distributed(inst)[0])

    # coloring-driven schedule on a small cycle
    ring = gen_gadget("alt-cycle", n=12)
    confirm(ring, constant_rounds_schedule(ring, greedy_power_coloring(ring.graph))[0])

    # small-diameter constructions
    p4 = ReconfigInstance(Graph(range(4), [(0, 1), (1, 2), (2, 3)]), frozenset({0, 2}), frozenset({1, 3}))
    confirm(p4, small_diameter_fallback(p4))
    escape = ReconfigInstance(
        Graph(range(5), [(0, 2), (0, 3), (1, 2), (1, 3), (4, 1), (4, 3)]),
        frozenset({0, 1}),
        frozenset({2, 3}),
    )
    confirm(escape, small_diameter_fallback(escape))
    print(f"criterion 9: PASS ({checked} schedules confirmed by the oracle)")


def test_criterion_10_mis_rounds_flat_in_n_on_bounded_degree():
    """The paper's O(log* n) rounds on bounded degree, measured: under
    ``deterministic-id``, as n grows 64x from 250 to 16,000 on alt-cycle and
    logstar (k = 4), each MIS phase's rounds stay within an additive band
    (8 rounds for the ruling set, which charges 4 real hops per engine
    round, 1 for every other MIS phase), the max degree of the graph each
    phase ran on stays the same, and every schedule validates."""
    bands = {"ruling-set": 8}
    for family, k in (("alt-cycle", None), ("logstar", 4)):
        rounds, degrees = {}, {}
        for n in (250, 1000, 4000, 16000):
            inst = gen_gadget(family, n=n, k=k)
            sched, trace = constant_length_schedule_distributed(inst, Trace("deterministic-id"))
            assert validate(inst, sched, D4) is None
            for phase in trace.phases.keys() - {"broadcast", "collect"}:
                rounds.setdefault(phase, []).append(trace.phases[phase])
                degrees.setdefault(phase, set()).add(trace.shapes[phase][2])
        for phase, counts in rounds.items():
            assert len(counts) == 4 and max(counts) - min(counts) <= bands.get(phase, 1), (phase, counts)
            assert len(degrees[phase]) == 1, (phase, degrees[phase])
        print(f"criterion 10: PASS ({family}: {rounds} rounds at n = 250..16000)")
