import random

import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from misrecon import constrounds, graph, schedule
from misrecon.analysis import gen_gadget, greedy_mis, random_connected_instance
from misrecon.constrounds import (
    _complete,
    constant_rounds_schedule,
    greedy_power_coloring,
    format_coloring_file,
    parse_coloring_file,
    plan_insertion,
)
from misrecon.errors import InputError, InternalError
from misrecon.graph import Graph, ball, is_mis
from misrecon.schedule import PropertySpec, ReconfigInstance, Schedule, net_flip, validate


def path(n):
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def alt(n, g=None):
    g = g if g is not None else path(n)
    return ReconfigInstance(g, frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))


# --- greedy completion -----------------------------------------------------

def test_greedy_complete_beta_already_maximal():
    inst = alt(4)
    g, alpha, beta = inst.graph, inst.alpha, inst.beta
    assert beta | _complete(g, beta, g.nodes, alpha, beta) == beta


def test_greedy_complete_prefers_beta():
    inst = alt(4)
    g, alpha, beta = inst.graph, inst.alpha, inst.beta
    partial = frozenset({3})
    assert partial | _complete(g, partial, g.nodes, alpha, beta) == frozenset({1, 3})


def test_greedy_complete_on_triangle():
    g = Graph(range(3), [(0, 1), (1, 2), (0, 2)])
    partial = frozenset()
    assert partial | _complete(g, partial, g.nodes, frozenset({0}), frozenset({1})) == frozenset({1})


# --- insertion plans ---------------------------------------------------------

def test_p8_first_beta_node_uses_distance3_partners():
    inst = alt(8)
    plan = plan_insertion(inst.graph, inst.alpha, inst.alpha, inst.beta, 1)
    assert plan.case_tag == "case4"
    assert 1 in inst.alpha ^ net_flip(plan.six_flips)
    steps = Schedule(inst.alpha, plan.six_flips).steps
    assert steps[3] == frozenset({4, 6})  # both blockers of 1 gone, partner 4 kept


def test_alpha_at_distance_2_branch():
    # 0(a)-1(b)-2(e)-3(a)-4(b)-5(a)-6(b)-7(a)-8(b): alpha-node 3 at distance 2 from 1
    g = path(9)
    alpha = frozenset({0, 3, 5, 7})
    beta = frozenset({1, 4, 6, 8})
    inst = ReconfigInstance(g, alpha, beta)
    plan = plan_insertion(g, alpha, alpha, beta, 1)
    assert plan.case_tag == "alpha-at-2"
    assert plan.six_flips[0] == {0}
    assert 1 in alpha ^ net_flip(plan.six_flips)


def test_case1_private_helper_enters_and_leaves():
    g = Graph(
        range(10),
        [(0, 1), (0, 2), (2, 1), (2, 3), (3, 4), (3, 5), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9)],
    )
    alpha, beta = frozenset({1, 4, 6, 8}), frozenset({0, 5, 7, 9})
    inst = ReconfigInstance(g, alpha, beta)
    plan = plan_insertion(g, alpha, alpha, beta, 0)
    assert plan.case_tag == "case1"
    steps = Schedule(alpha, plan.six_flips).steps
    assert len(set(steps[1:])) == 6
    assert any(3 in s for s in steps) and 3 not in alpha ^ net_flip(plan.six_flips)


def test_case_dispatch_covers_random_instances():
    tags = set()
    for i in range(120):
        n = 12 + (i % 12)
        inst = random_connected_instance(n, 2.0 / n, seed=3000 + i, min_diameter=6)
        current = inst.alpha
        for k in sorted(inst.graph.nodes):
            if k in inst.beta and k not in current:
                plan = plan_insertion(inst.graph, current, inst.alpha, inst.beta, k)
                tags.add(plan.case_tag)
                current = current ^ net_flip(plan.six_flips)
    assert {"alpha-at-2", "case1", "case2", "case3", "case4"} <= tags


def test_net_removal_confined_to_target_neighbors():
    for i in range(40):
        inst = random_connected_instance(14, 0.14, seed=500 + i, min_diameter=6)
        current = inst.alpha
        for k in sorted(inst.graph.nodes):
            if k in inst.beta and k not in current:
                plan = plan_insertion(inst.graph, current, inst.alpha, inst.beta, k)
                end = current ^ net_flip(plan.six_flips)
                assert is_mis(inst.graph, end)
                removed = current - end
                assert removed <= (inst.graph.neighbors(k) & current)
                assert (inst.alpha & inst.beta) <= end
                assert k in end
                current = end


def test_plan_is_9_hop_local():
    inst = random_connected_instance(24, 0.09, seed=88, min_diameter=7)
    g = inst.graph
    current = inst.alpha
    checked = 0
    for k in sorted(g.nodes):
        if k in inst.beta and k not in current:
            plan = plan_insertion(g, current, inst.alpha, inst.beta, k)
            hood = ball(g, k, 9)
            local = g.induced(hood)
            local_plan = plan_insertion(
                local, current & hood, inst.alpha & hood, inst.beta & hood, k
            )
            assert local_plan.case_tag == plan.case_tag
            assert [s & hood for s in plan.six_flips] == [
                s & hood for s in local_plan.six_flips
            ]
            end = current ^ net_flip(plan.six_flips)
            assert end & hood == (current & hood) ^ net_flip(local_plan.six_flips)
            current = end
            checked += 1
    assert checked >= 3


def test_bfs_work_per_node_is_constant_on_id_slotted_alt_path(monkeypatch):
    visited = 0
    real = graph.distances_from

    def counted(*args, **kwargs):
        nonlocal visited
        dist = real(*args, **kwargs)
        visited += len(dist)
        return dist

    for module in (graph, schedule, constrounds):
        monkeypatch.setattr(module, "distances_from", counted)
    work = []
    for n in (1000, 2000):
        visited = 0
        constant_rounds_schedule(gen_gadget("alt-path", n=n))
        work.append(visited)
    # Local checks visit a bounded ball per step: doubling n about doubles
    # the work.  A whole-graph search per plan or per step would quadruple it.
    assert work[1] <= 2.1 * work[0]


def test_step_checks_search_only_past_nodes_outside_the_step(monkeypatch):
    visited = calls = 0
    real_bfs, real_lost_cover = schedule.distances_from, schedule.lost_cover

    def counted(*args, **kwargs):
        nonlocal visited
        dist = real_bfs(*args, **kwargs)
        visited += len(dist)
        return dist

    def lost_cover(g, removed, step, d):
        nonlocal calls
        calls += bool(removed)
        return real_lost_cover(g, removed, step, d)

    monkeypatch.setattr(schedule, "distances_from", counted)
    for module in (schedule, constrounds):
        monkeypatch.setattr(module, "lost_cover", lost_cover)
    constant_rounds_schedule(gen_gadget("alt-path", n=1000))
    # The region search stops at the step's nodes, so a call's two searches
    # see about 10 nodes of the path; expanding step nodes, they see about 22.
    assert calls > 0
    assert visited / calls <= 12


def test_plan_rejects_bad_targets():
    inst = alt(8)
    with pytest.raises(InputError):
        plan_insertion(inst.graph, inst.alpha, inst.alpha, inst.beta, 0)  # alpha node
    with pytest.raises(InputError):
        plan_insertion(inst.graph, inst.beta, inst.alpha, inst.beta, 1)  # already in


# --- id-slot schedules -------------------------------------------------------

def test_p8_schedule_valid_and_constant_rounds():
    inst = alt(8)
    sched, report = constant_rounds_schedule(inst)
    assert sched.length == 6 * 8
    assert sched.steps[-1] == inst.beta
    assert report.rounds_used == 9
    assert validate(inst, sched, PropertySpec(4)) is None


def test_schedule_length_tracks_largest_identifier():
    ids = [0, 111, 222, 333, 444, 555, 666, 777, 888, 1000]
    g = Graph(ids, [(ids[i], ids[i + 1]) for i in range(9)])
    inst = ReconfigInstance(g, frozenset(ids[0::2]), frozenset(ids[1::2]))
    sched, _ = constant_rounds_schedule(inst)
    assert sched.length == 6 * (1000 + 1)


def test_sparse_ids_share_every_step_outside_insertion_windows():
    ids = [0, 111, 222, 333, 444, 555, 666, 777, 888, 1000]
    g = Graph(ids, [(ids[i], ids[i + 1]) for i in range(9)])
    inst = ReconfigInstance(g, frozenset(ids[0::2]), frozenset(ids[1::2]))
    sched = constant_rounds_schedule(inst)[0]
    assert sum(bool(f) for f in sched.flips) <= 6 * len(inst.beta - inst.alpha)
    assert sched.start == inst.alpha and not any(sched.flips[: 6 * 111])


def test_alpha_equals_beta_collapses_to_padding():
    g = path(8)
    a = frozenset(range(0, 8, 2))
    inst = ReconfigInstance(g, a, a)
    sched, _ = constant_rounds_schedule(inst)
    assert all(s == a for s in sched.steps)


def test_rounds_identical_across_sizes():
    rounds = set()
    for n in (20, 40, 80):
        _, report = constant_rounds_schedule(alt(n))
        rounds.add(report.rounds_used)
    assert len(rounds) == 1


def test_rejects_shallow_diameter():
    with pytest.raises(InputError):
        constant_rounds_schedule(alt(6))  # diameter 5 is not enough


# --- coloring schedules --------------------------------------------------------

def test_identity_coloring_reproduces_id_slots():
    inst = alt(12)
    by_id, _ = constant_rounds_schedule(inst)
    by_color, _ = constant_rounds_schedule(inst, {v: v + 1 for v in inst.graph.nodes})
    assert by_id == by_color


def test_cycle_coloring_schedule_length(monkeypatch):
    # On 68 nodes the greedy colouring of the 16th power has 17 colours, and
    # a class holds two beta-nodes, so windows merge two plans side by side.
    inst = gen_gadget("alt-cycle", n=68)
    coloring = greedy_power_coloring(inst.graph)
    k = len(set(coloring.values()))
    merged, real = [], constrounds.run_side_by_side

    def counted(plans, length):
        merged.append(len(plans))
        return real(plans, length)

    monkeypatch.setattr(constrounds, "run_side_by_side", counted)
    sched = constant_rounds_schedule(inst, coloring)[0]
    assert sched.length == 6 * k < 6 * max(inst.graph.nodes)
    assert max(merged) == 2
    assert validate(inst, sched, PropertySpec(4)) is None


def test_improper_coloring_rejected_with_witness():
    inst = alt(12)
    with pytest.raises(InputError) as err:
        constant_rounds_schedule(inst, {v: 1 + (v % 2) for v in inst.graph.nodes})
    assert str(err.value) == "coloring not proper on the 16th power: nodes 0 and 2 share color 1"
    # On a path, one shared colour clashes at 16 hops and not at 17.
    inst = alt(40)
    with pytest.raises(InputError) as err:
        constant_rounds_schedule(inst, {v: v + 1 for v in inst.graph.nodes} | {16: 1})
    assert str(err.value) == "coloring not proper on the 16th power: nodes 0 and 16 share color 1"
    constant_rounds_schedule(inst, {v: v + 1 for v in inst.graph.nodes} | {17: 1})


def power_refusal(g, coloring):
    """The refusal the definition gives: the least v with a same-colour node
    in ``ball(v, COLOR_POWER)``, and the least such node; None if none."""
    for v in sorted(g.nodes):
        same = [w for w in ball(g, v, constrounds.COLOR_POWER) if w != v and coloring[w] == coloring[v]]
        if same:
            return f"coloring not proper on the {constrounds.COLOR_POWER}th power: nodes {v} and {min(same)} share color {coloring[v]}"
    return None


@st.composite
def coloured_instances(draw):
    """A path of up to 60 nodes with a few chords, relabelled, so that
    distances around 16 occur; alpha and beta are greedy MISs.  The colouring
    is arbitrary, or the greedy colouring of the power, perhaps with one
    node given the colour of another at a drawn distance."""
    n = draw(st.integers(8, 60))
    label = draw(st.permutations(range(n)))
    chords = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    edges = {(label[i], label[i + 1]) for i in range(n - 1)}
    edges |= {(label[a], label[b]) for a, b in chords if abs(a - b) > 1}
    g = Graph(range(n), edges)
    assume(graph.diameter(g) > 5)
    alpha = greedy_mis(g, draw(st.permutations(range(n))))
    beta = greedy_mis(g, draw(st.permutations(range(n))))
    kind = draw(st.sampled_from(("arbitrary", "greedy", "planted")))
    if kind == "arbitrary":
        colours = st.integers(1, draw(st.integers(1, n)))
        coloring = {v: draw(colours) for v in range(n)}
    else:
        coloring = greedy_power_coloring(g)
    if kind == "planted":
        v = draw(st.integers(0, n - 1))
        dist = graph.distances_from(g, v)
        d = draw(st.integers(1, 2 * constrounds.COLOR_POWER))
        w = draw(st.sampled_from(sorted(dist, key=lambda u: (abs(dist[u] - d), u))[:2]))
        coloring[w] = coloring[v]
    return ReconfigInstance(g, alpha, beta), coloring


@seed(20261022)
@settings(max_examples=300, deadline=None)
@given(coloured_instances())
def test_coloring_check_refuses_exactly_as_its_definition(case):
    inst, coloring = case
    expected = power_refusal(inst.graph, coloring)
    if expected is None:
        constant_rounds_schedule(inst, coloring)
    else:
        with pytest.raises(InputError) as err:
            constant_rounds_schedule(inst, coloring)
        assert str(err.value) == expected


def test_power_coloring_is_proper_on_power():
    g = gen_gadget("alt-cycle", n=40).graph
    coloring = greedy_power_coloring(g)
    for v in g.nodes:
        for w in ball(g, v, constrounds.COLOR_POWER) - {v}:
            assert coloring[v] != coloring[w]


def test_coloring_file_round_trip():
    coloring = {0: 3, 5: 1}
    text = format_coloring_file(coloring)
    assert parse_coloring_file(text) == coloring
    with pytest.raises(InputError, match="line 1"):
        parse_coloring_file("color x 1\n")


def test_coloring_windows_round_trip_parked_helpers():
    # These seeds produce windows whose plan removes a blocker of a parked
    # helper and restores it at the end; the merged steps must round-trip
    # that node (regression for a diff-against-base merge bug).
    from misrecon.schedule import validate as _validate

    for seed in (6, 10, 17):
        inst = random_connected_instance(18, 0.11, seed=seed, min_diameter=6)
        coloring = greedy_power_coloring(inst.graph)
        current = inst.alpha
        saw_round_trip = False
        for color in sorted(set(coloring.values())):
            active = sorted(
                v for v in inst.graph.nodes
                if coloring[v] == color and v in inst.beta and v not in current
            )
            for v in active:
                plan = plan_insertion(inst.graph, current, inst.alpha, inst.beta, v)
                if plan.six_flips[0] & plan.six_flips[-1]:
                    saw_round_trip = True
                current = current ^ net_flip(plan.six_flips)
        assert saw_round_trip
        sched = constant_rounds_schedule(inst, coloring)[0]
        assert sched.steps[-1] == inst.beta
        assert _validate(inst, sched, PropertySpec(4)) is None


# --- window loop ---------------------------------------------------------------

def every_window_schedule(inst, coloring=None):
    """The schedule built the earlier way: every window in turn, the empty
    ones too, each window's flips appended to a growing list."""
    g = inst.graph
    if coloring is None:
        windows = ([k] for k in range(max(g.nodes) + 1))
    else:
        classes = {}
        for v in sorted(g.nodes):
            classes.setdefault(coloring[v], []).append(v)
        windows = (classes[c] for c in sorted(classes))
    current, flips = inst.alpha, []
    for window in windows:
        plans = [
            plan_insertion(g, current, inst.alpha, inst.beta, v)
            for v in window
            if v in inst.beta and v not in current
        ]
        window_flips = schedule.run_side_by_side([p.six_flips for p in plans], constrounds.SLOT)
        flips += window_flips
        if plans:
            current = current ^ schedule.net_flip(window_flips)
    return Schedule(inst.alpha, tuple(flips))


def relabelled(inst, seed, spread=30):
    """``inst`` on random ids below ``spread`` times its size, the top one included."""
    rng = random.Random(seed)
    n = len(inst.graph.nodes)
    ids = rng.sample(range(spread * n - 1), n - 1) + [spread * n - 1]
    rng.shuffle(ids)
    new = dict(zip(sorted(inst.graph.nodes), ids))
    g = Graph(new.values(), [(new[u], new[v]) for u, v in inst.graph.edges()])
    return ReconfigInstance(g, frozenset(new[v] for v in inst.alpha), frozenset(new[v] for v in inst.beta))


@pytest.mark.parametrize("inst", [
    relabelled(alt(20), 1),
    relabelled(gen_gadget("alt-cycle", n=24), 2),
    relabelled(random_connected_instance(25, 0.08, seed=3, min_diameter=6), 4),
], ids=["alt-path", "alt-cycle", "random"])
def test_sparse_id_windows_match_every_window_loop(inst):
    sched = constant_rounds_schedule(inst)[0]
    assert sched == every_window_schedule(inst)
    assert sched.length == 6 * (max(inst.graph.nodes) + 1)


@pytest.mark.parametrize("inst", [
    gen_gadget("alt-cycle", n=60),
    random_connected_instance(18, 0.11, seed=10, min_diameter=6),
    relabelled(alt(24), 5),
], ids=["alt-cycle", "random", "sparse-path"])
def test_colour_windows_match_every_window_loop(inst):
    greedy = greedy_power_coloring(inst.graph)
    # Colour values 7, 14, ...: not contiguous, so a window is a colour's rank.
    spread = {v: 7 * c for v, c in greedy.items()}
    # One alpha-only node alone in colour 10: a class with no beta-node,
    # whose window stays empty but keeps its place.
    lone = min(inst.graph.nodes - inst.beta)
    hollow = {**spread, lone: 10}
    for coloring in (spread, hollow):
        sched = constant_rounds_schedule(inst, coloring)[0]
        assert sched == every_window_schedule(inst, coloring)
        assert sched.length == 6 * len(set(coloring.values()))
    ranks = sorted(set(hollow.values()))
    k = ranks.index(10)
    assert not any(constant_rounds_schedule(inst, hollow)[0].flips[6 * k:6 * (k + 1)])


# --- the window check ------------------------------------------------------------

@pytest.mark.parametrize("coloured", [False, True], ids=["id-slotted", "colour-slotted"])
def test_window_check_rejects_a_window_that_ends_short_of_an_mis(monkeypatch, coloured):
    """With every completion empty, a plan ends at ``(current - blockers) |
    {v}``, which its own checks accept but which leaves nodes uncovered: the
    window check must say so.  In the colour-slotted run the failing window
    holds two plans side by side."""
    inst = random_connected_instance(60, 2 / 60, 2, min_diameter=6)
    coloring = greedy_power_coloring(inst.graph) if coloured else None
    window_sizes = []
    real_side_by_side = constrounds.run_side_by_side

    def side_by_side(fragments, length):
        window_sizes.append(len(fragments))
        return real_side_by_side(fragments, length)

    monkeypatch.setattr(constrounds, "run_side_by_side", side_by_side)
    monkeypatch.setattr(constrounds, "_complete", lambda *args: frozenset())
    with pytest.raises(InternalError, match="window did not end at a maximal independent set"):
        constant_rounds_schedule(inst, coloring)
    assert window_sizes[-1] >= (2 if coloured else 1)


def test_window_check_failure_exits_3_without_traceback(monkeypatch, tmp_path, capsys):
    from misrecon.cli import EXIT_INTERNAL, main

    inst = random_connected_instance(40, 2 / 40, 0, min_diameter=6)
    paths = []
    for name, text in (
        ("graph", graph.format_graph_file(inst.graph)),
        ("alpha", schedule.format_vertex_set_file(inst.alpha)),
        ("beta", schedule.format_vertex_set_file(inst.beta)),
    ):
        path = tmp_path / name
        path.write_text(text)
        paths += [f"--{name}", str(path)]
    monkeypatch.setattr(constrounds, "_complete", lambda *args: frozenset())
    out = tmp_path / "sched.txt"
    assert main(["const-rounds", *paths, "--out", str(out)]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "window did not end at a maximal independent set" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_window_loop_ends_at_beta_or_raises(monkeypatch):
    """With every plan empty, each window ends where it began, at an MIS, so
    only the end check can see that the schedule never reaches beta."""
    monkeypatch.setattr(
        constrounds, "plan_insertion", lambda *args: constrounds.InsertionPlan("direct", (schedule.NO_FLIP,) * 6)
    )
    with pytest.raises(InternalError, match="constructed schedule ends off beta at node 0$"):
        constant_rounds_schedule(alt(12))


# --- each step checked once ------------------------------------------------------

def test_planner_falls_through_a_rejected_candidate(monkeypatch):
    """Node 2's early candidates break 4-domination at their fifth step; the
    planner must reject them and fall through to the need-driven rung.  No
    later pass re-checks the accepted steps, so an unvetted candidate would
    reach the schedule."""
    inst = random_connected_instance(30, 2 / 30, 174, min_diameter=6)
    tags, rejected = {}, []
    real_plan, real_check = constrounds.plan_insertion, constrounds.first_violation

    def plan(g, current, alpha, beta, v):
        result = real_plan(g, current, alpha, beta, v)
        tags[v] = result.case_tag
        return result

    def check(*args):
        violation = real_check(*args)
        if violation is not None:
            rejected.append(violation)
        return violation

    monkeypatch.setattr(constrounds, "plan_insertion", plan)
    monkeypatch.setattr(constrounds, "first_violation", check)
    sched = constant_rounds_schedule(inst)[0]
    assert tags[2] == "direct"
    assert rejected and all(v.condition == "domination" for v in rejected)
    assert validate(inst, sched, PropertySpec(4)) is None


def test_each_constant_round_step_is_checked_once(monkeypatch):
    """Every window's steps are checked once, as the planner vetted each plan
    alone: id-slotted, one d = 4 step check per non-empty flip, none
    repeated.  The colour-slotted count, where a window's plans share steps,
    is pinned too."""
    counts = []
    real = schedule.step_defect

    def counted(g, step, flip, d):
        counts[-1] += d == 4
        return real(g, step, flip, d)

    monkeypatch.setattr(schedule, "step_defect", counted)
    inst = gen_gadget("alt-path", n=80)
    counts.append(0)
    sched = constant_rounds_schedule(inst)[0]
    assert counts[-1] == sum(1 for flip in sched.flips if flip) == 78
    counts.append(0)
    constant_rounds_schedule(inst, greedy_power_coloring(inst.graph))
    assert counts[-1] == 70


# --- same-colour plans at the 16th power ---------------------------------------

# Random instances on which a greedy colouring of the 10th power put two plans
# in one window close enough to uncover a node between them.
POWER_10_REPRODUCERS = [(69, 1.5 / 69, 700090976), (87, 1.2 / 87, 503282023)]


@pytest.mark.parametrize("n, p, seed", POWER_10_REPRODUCERS, ids=["n69", "n87"])
def test_colour_slotted_reproducers_give_valid_schedules(tmp_path, capsys, n, p, seed):
    from misrecon.cli import EXIT_OK, main

    inst = random_connected_instance(n, p, seed, min_diameter=6)
    paths = []
    for name, text in (
        ("graph", graph.format_graph_file(inst.graph)),
        ("alpha", schedule.format_vertex_set_file(inst.alpha)),
        ("beta", schedule.format_vertex_set_file(inst.beta)),
        ("coloring", format_coloring_file(greedy_power_coloring(inst.graph))),
    ):
        path = tmp_path / name
        path.write_text(text)
        paths += [f"--{name}", str(path)]
    out = tmp_path / "sched.txt"
    assert main(["const-rounds", *paths, "--out", str(out)]) == EXIT_OK
    assert main(["validate", *paths[:6], "--schedule", str(out)]) == EXIT_OK
    assert capsys.readouterr().out.endswith("valid\n")


def test_plans_11_hops_apart_fail_when_merged(monkeypatch):
    """Targets 25 and 53 share a colour of the greedy 10th-power colouring.
    Each plan passes alone, but merged they leave node 42 uncovered: it lost
    covers 32 and 41 to plan 25 and cover 47 to plan 53."""
    inst = random_connected_instance(*POWER_10_REPRODUCERS[0], min_diameter=6)
    g = inst.graph
    monkeypatch.setattr(constrounds, "COLOR_POWER", 10)
    coloring = greedy_power_coloring(g)
    assert coloring[25] == coloring[53] == 5 and graph.distances_from(g, 25)[53] == 11
    merged_schedule = every_window_schedule(inst, coloring)
    violation = validate(inst, merged_schedule, PropertySpec(4))
    assert violation.describe() == "domination violated at step 29: node 42"
    start = merged_schedule.steps[24]
    plans = [plan_insertion(g, start, inst.alpha, inst.beta, v).six_flips for v in (25, 53)]
    assert all(schedule.first_violation(g, start, flips, 4) is None for flips in plans)
    merged = schedule.run_side_by_side(plans, constrounds.SLOT)
    assert schedule.first_violation(g, start, merged, 4).describe() == "domination violated at step 5: node 42"


@st.composite
def far_plan_pairs(draw):
    """A random connected instance, an MIS on its way from alpha to beta (a
    window end of the id-slotted schedule) and two beta-nodes outside it
    more than ``COLOR_POWER`` hops apart, the second among the three nearest
    such to the first, where plans come closest to interacting."""
    n = draw(st.integers(40, 110))
    inst = random_connected_instance(n, 1.2 / n, draw(st.integers(0, 10**6)), min_diameter=constrounds.COLOR_POWER + 1)
    sched = constant_rounds_schedule(inst)[0]
    start = sched.steps[constrounds.SLOT * draw(st.integers(0, sched.length // constrounds.SLOT - 1))]
    targets = sorted(inst.beta - start)
    assume(targets)
    a = draw(st.sampled_from(targets))
    dist = graph.distances_from(inst.graph, a)
    far = sorted((v for v in targets if dist[v] > constrounds.COLOR_POWER), key=dist.get)[:3]
    assume(far)
    return inst, start, a, draw(st.sampled_from(far))


@seed(20261021)
@settings(max_examples=200, deadline=None)
@given(far_plan_pairs())
def test_plans_beyond_the_colour_power_merge_into_valid_steps(case):
    inst, start, a, b = case
    plans = [plan_insertion(inst.graph, start, inst.alpha, inst.beta, v).six_flips for v in (a, b)]
    merged = schedule.run_side_by_side(plans, constrounds.SLOT)
    assert schedule.first_violation(inst.graph, start, merged, 4) is None
    assert is_mis(inst.graph, start ^ net_flip(merged))
