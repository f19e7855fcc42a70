import dataclasses
import random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from misrecon.errors import InputError
from misrecon.graph import Graph, distances_from, is_mis
from misrecon.schedule import (
    PropertySpec,
    ReconfigInstance,
    Schedule,
    Violation,
    format_schedule_file,
    format_vertex_set_file,
    lost_cover,
    net_flip,
    parse_schedule_file,
    parse_vertex_set_file,
    run_side_by_side,
    step_defect,
    validate,
)


def p4_instance():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    return ReconfigInstance(g, frozenset({0, 2}), frozenset({1, 3}))


def test_instance_requires_mis():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InputError):
        ReconfigInstance(g, frozenset({0}), frozenset({1, 3}))
    with pytest.raises(InputError):
        ReconfigInstance(g, frozenset({0, 2}), frozenset({0, 1}))


def test_validate_accepts_hand_built_schedule():
    inst = p4_instance()
    sched = Schedule.from_steps(({0, 2}, {0}, {0, 3}, {3}, {1, 3}))
    assert validate(inst, sched, PropertySpec(4)) is None


def test_validate_flip_independence_violation():
    inst = p4_instance()
    v = validate(inst, Schedule.from_steps(({0, 2}, {1, 3})), PropertySpec(4))
    assert v.step == 1 and v.condition == "flip-independence" and v.witness == (0, 1)


def test_validate_domination_violation():
    inst = p4_instance()
    v = validate(inst, Schedule.from_steps(({0, 2}, frozenset(), {1, 3})), PropertySpec(4))
    assert v.step == 1 and v.condition == "domination"


def test_validate_endpoint_violation():
    inst = p4_instance()
    v = validate(inst, Schedule.from_steps(({0, 2}, {0}, {0, 3})), PropertySpec(4))
    assert v.condition == "endpoints" and v.step == 2


def test_validate_rejects_empty_and_unknown():
    inst = p4_instance()
    with pytest.raises(InputError):
        validate(inst, Schedule.from_steps(()), PropertySpec(4))
    with pytest.raises(InputError):
        validate(inst, Schedule.from_steps(({0, 2}, {9})), PropertySpec(4))


def test_length_zero_schedule_iff_alpha_equals_beta():
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    same = ReconfigInstance(g, frozenset({0, 2}), frozenset({0, 2}))
    assert validate(same, Schedule.from_steps(({0, 2},)), PropertySpec(4)) is None
    diff = p4_instance()
    assert validate(diff, Schedule.from_steps(({0, 2},)), PropertySpec(4)) is not None


def smallest_edge(g, s):
    edges = [(u, w) for u in s for w in s if u < w and w in g.neighbors(u)]
    return min(edges) if edges else None


def undominated(g, s, d):
    """Every node with no member of s within d hops, ascending, by a fresh
    BFS from each node."""
    missing = []
    for v in sorted(g.nodes):
        frontier, seen, dist, ok = {v}, {v}, 0, v in s
        while not ok and dist < d:
            frontier = {w for u in frontier for w in g.neighbors(u)} - seen
            seen |= frontier
            dist += 1
            ok = bool(frontier & s)
        if not ok:
            missing.append(v)
    return missing


def naive_check(inst, sched, d):
    """Independent re-implementation: full rescans with no shared helpers.

    Returns the earliest violation as ``(step, condition, witness)``, or None.
    Every step is checked, including steps that repeat their predecessor."""
    g = inst.graph
    steps = [set(s) for s in sched.steps]
    last = len(steps) - 1

    if steps[0] != set(inst.alpha):
        return (0, "endpoints", min(steps[0] ^ set(inst.alpha)))
    for i in range(1, last + 1):
        edge = smallest_edge(g, steps[i] ^ steps[i - 1])
        if edge is not None:
            return (i, "flip-independence", edge)
        if i < last:
            edge = smallest_edge(g, steps[i])
            if edge is not None:
                return (i, "independence", edge)
            missing = undominated(g, steps[i], d)
            if missing:
                return (i, "domination", missing[0])
    if steps[last] != set(inst.beta):
        return (last, "endpoints", min(steps[last] ^ set(inst.beta)))
    return None


def reported(v):
    return None if v is None else (v.step, v.condition, v.witness)


def test_validator_matches_naive_checker_on_randomized_schedules():
    rng = random.Random(42)
    g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (1, 4)])
    alpha, beta = frozenset({0, 2, 5}), frozenset({1, 3, 5})
    inst = ReconfigInstance(g, alpha, beta)
    agreements = 0
    for _ in range(300):
        steps = [alpha]
        for _ in range(rng.randrange(1, 5)):
            steps.append(frozenset(v for v in g.nodes if rng.random() < 0.4))
        steps.append(beta)
        sched = Schedule.from_steps(steps)
        assert reported(validate(inst, sched, PropertySpec(4))) == naive_check(inst, sched, 4)
        agreements += 1
    assert agreements == 300


def greedy_mis(g, order):
    chosen = set()
    for v in order:
        if not (g.neighbors(v) & chosen):
            chosen.add(v)
    return frozenset(chosen)


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(range(n), edges)
    alpha = greedy_mis(g, draw(st.permutations(range(n))))
    beta = greedy_mis(g, draw(st.permutations(range(n))))
    nodes = st.integers(0, n - 1)
    # Mostly well-formed endpoints, so later steps are reached.
    steps = [draw(st.frozensets(nodes)) if draw(st.integers(0, 3)) == 0 else alpha]
    for kind in draw(st.lists(st.sampled_from(["repeat", "empty", "random", "mis", "drop", "add"]), max_size=6)):
        prev = steps[-1]
        if kind == "repeat":
            steps.append(prev)
        elif kind == "empty":
            steps.append(frozenset())
        elif kind == "random":
            steps.append(draw(st.frozensets(nodes)))
        elif kind == "mis":
            steps.append(greedy_mis(g, draw(st.permutations(range(n)))))
        elif kind == "drop":
            steps.append(prev - {draw(nodes)})
        else:
            steps.append(prev | {draw(nodes)})
    steps.append(draw(st.frozensets(nodes)) if draw(st.integers(0, 3)) == 0 else beta)
    d = draw(st.integers(1, 4))
    return ReconfigInstance(g, alpha, beta), Schedule.from_steps(steps), d


@settings(max_examples=400, deadline=None)
@given(schedules())
def test_validator_reports_the_naive_first_violation(case):
    inst, sched, d = case
    assert reported(validate(inst, sched, PropertySpec(d))) == naive_check(inst, sched, d)


@st.composite
def flipped_steps(draw):
    """A graph, a radius d, a ``prev`` that is independent and d-dominating,
    and ``prev`` with a few random nodes flipped or with the flip to another
    such set."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)) if pairs else []
    g = Graph(range(n), edges)
    d = draw(st.integers(1, 4))

    def ruling_set():
        # An MIS thinned while it stays d-dominating.
        s = greedy_mis(g, draw(st.permutations(range(n))))
        for v in draw(st.permutations(sorted(s))):
            if draw(st.booleans()) and not undominated(g, s - {v}, d):
                s -= {v}
        return s

    prev = ruling_set()
    if draw(st.booleans()):
        return g, d, prev, ruling_set()
    return g, d, prev, prev ^ draw(st.frozensets(st.integers(0, n - 1), min_size=1, max_size=3))


@seed(20261020)
@settings(max_examples=400, deadline=None)
@given(flipped_steps())
def test_step_defect_matches_a_whole_graph_check(case):
    g, d, prev, step = case
    missing = undominated(g, step, d)
    edge = smallest_edge(g, step)
    if edge is not None:
        expected = ("independence", edge)
    else:
        expected = ("domination", missing[0]) if missing else None
    assert step_defect(g, step, prev ^ step, d) == expected
    assert lost_cover(g, prev - step, step, d) == missing
    if d == 1:
        assert (step_defect(g, step, prev ^ step, 1) is None) == is_mis(g, step)


@st.composite
def cover_queries(draw):
    """A graph of up to 40 nodes, often a long path with a few chords, so
    that shortest paths run past 2d; a radius d; and disjoint removed and
    step sets with no domination precondition."""
    n = draw(st.integers(1, 40))
    spine = [(i, i + 1) for i in range(n - 1)] if draw(st.booleans()) else []
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chords = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n)) if pairs else []
    g = Graph(range(n), spine + chords)
    removed = draw(st.frozensets(st.integers(0, n - 1), max_size=4))
    step = draw(st.frozensets(st.integers(0, n - 1), max_size=n // 3 + 1)) - removed
    return g, removed, step, draw(st.integers(1, 4))


@seed(20261021)
@settings(max_examples=400, deadline=None)
@given(cover_queries())
def test_lost_cover_is_its_definition(case):
    g, removed, step, d = case
    to_removed, to_step = distances_from(g, removed), distances_from(g, step)
    expected = sorted(u for u, k in to_removed.items() if k <= d and to_step.get(u, d + 1) > d)
    assert lost_cover(g, removed, step, d) == expected


def test_schedule_is_its_start_and_one_flip_per_step():
    assert [f.name for f in dataclasses.fields(Schedule)] == ["start", "flips"]
    sched = Schedule({0, 2}, ({2}, (), {3}))
    assert sched.length == 3
    steps = sched.steps
    assert steps == tuple(map(frozenset, ({0, 2}, {0}, {0}, {0, 3})))
    assert steps[2] is steps[1]  # an empty flip costs no new set
    assert Schedule.from_steps(steps) == sched
    with pytest.raises(InputError, match="empty schedule"):
        Schedule.from_steps([])


def test_net_flip_of_no_change_is_empty():
    assert net_flip([]) == frozenset()
    assert net_flip([frozenset()] * 4) == frozenset()


def test_net_flip_cancels_a_node_flipped_twice():
    assert net_flip([{1, 2}, frozenset(), {2, 3}]) == frozenset({1, 3})
    assert net_flip([{5}, {5}]) == frozenset()


def test_net_flip_of_disjoint_flips_is_their_union():
    assert net_flip([{0}, {2, 4}, frozenset(), {7}]) == frozenset({0, 2, 4, 7})


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(schedules())
def test_net_flip_takes_the_start_to_the_last_step(case):
    _, sched, _ = case
    assert sched.start ^ net_flip(sched.flips) == sched.steps[-1]


def test_run_side_by_side_without_fragments_repeats_start():
    start = frozenset({1, 4})
    flips = run_side_by_side([], 5)
    assert flips == [frozenset()] * 5
    assert all(s is start for s in Schedule(start, flips).steps)


def test_run_side_by_side_equals_sequential_steps():
    # Two fragments on disjoint nodes; the shorter flips nothing once done.
    start = frozenset({0, 2, 9})
    long = [frozenset({0}), frozenset(), frozenset({1}), frozenset({3})]
    short = [frozenset({2, 5})]
    flips = run_side_by_side([long, short], 4)
    assert flips == [frozenset({0, 2, 5}), frozenset(), frozenset({1}), frozenset({3})]
    assert Schedule(start, flips).steps == (
        start,
        frozenset({5, 9}),
        frozenset({5, 9}),
        frozenset({1, 5, 9}),
        frozenset({1, 3, 5, 9}),
    )


def side_by_side_formula(start, fragments, length):
    """Every step built anew from each fragment's sets, no object shared."""
    sets = [Schedule(frozenset(), f).steps for f in fragments]
    return [
        start ^ frozenset().union(*(s[min(j, len(s) - 1)] for s in sets))
        for j in range(length + 1)
    ]


def test_run_side_by_side_shares_steps_where_no_fragment_moves():
    x, y, z = frozenset({0}), frozenset(), frozenset({1})
    start = frozenset({0, 9})
    flips = run_side_by_side([(x, y, z)], 6)
    assert flips == [x, y, z, y, y, y]
    steps = Schedule(start, flips).steps
    assert list(steps) == side_by_side_formula(start, [(x, y, z)], 6)
    assert [steps[j] is steps[j - 1] for j in range(1, 7)] == [False, True, False, True, True, True]
    # A second fragment that keeps moving breaks the run of shared steps.
    other = [frozenset({5}), frozenset({5, 6}), frozenset({5, 6}), frozenset({5, 6}), frozenset({6, 7})]
    start = frozenset({0, 5, 9})
    steps = Schedule(start, run_side_by_side([(x, y, z), other], 6)).steps
    assert list(steps) == side_by_side_formula(start, [(x, y, z), other], 6)
    assert [steps[j] is steps[j - 1] for j in range(1, 7)] == [False, False, False, False, False, True]


def test_schedule_file_round_trip_bit_exact():
    sched = Schedule.from_steps(({3, 1, 2}, frozenset(), {0,}))
    text = format_schedule_file(sched)
    assert text == "1 2 3\n\n0\n"
    assert parse_schedule_file(text) == sched


def test_vertex_set_file_round_trip():
    s = frozenset({5, 1, 9})
    assert parse_vertex_set_file(format_vertex_set_file(s)) == s
    assert parse_vertex_set_file("# c\n1 5\n9\n") == s
    with pytest.raises(InputError, match="line 1"):
        parse_vertex_set_file("1 x\n")


def test_parse_schedule_shares_one_set_per_run_of_identical_lines():
    sched = parse_schedule_file("0 2\n0 2\n0\n0\n0\n0 2\n\n\n")
    assert sched.start == {0, 2}
    assert sched.flips == tuple(map(frozenset, ((), {2}, (), (), {2}, {0, 2}, ())))
    steps = sched.steps
    assert steps == tuple(map(frozenset, ({0, 2}, {0, 2}, {0}, {0}, {0}, {0, 2}, (), ())))
    runs = [steps[0], steps[2], steps[5], steps[6]]
    assert len({id(s) for s in steps}) == len({id(s) for s in runs}) == 4
    assert steps[1] is steps[0] and steps[3] is steps[4] is steps[2] and steps[7] is steps[6]


def test_parse_schedule_reports_a_repeated_bad_id_at_its_first_line():
    with pytest.raises(InputError, match="line 2:"):
        parse_schedule_file("0 2\n1 x\n1 x\n1 x\n")
    with pytest.raises(InputError, match="line 1:"):
        parse_schedule_file("0 x\n0 x\n")
    # Runs of good lines before the bad one count every line, not one per run.
    with pytest.raises(InputError, match="line 4:"):
        parse_schedule_file("0\n0\n0\n1 x\n")
    with pytest.raises(InputError, match="line 7:"):
        parse_schedule_file("0\n0\n\n\n1\n1\nx\n")


def test_validate_reports_unknown_ids_in_a_shared_step():
    inst = p4_instance()
    bad = frozenset({0, 9})
    with pytest.raises(InputError, match=r"schedule step contains unknown node ids \[9\]"):
        validate(inst, Schedule.from_steps((inst.alpha, bad, bad, inst.beta)), PropertySpec(4))


def fresh_copy(sched):
    """The same steps, each a new frozenset object."""
    return Schedule.from_steps(frozenset(set(step)) for step in sched.steps)


def written_line_by_line(sched):
    """The schedule file, each line formatted on its own."""
    return "".join(" ".join(str(v) for v in sorted(step)) + "\n" for step in sched.steps)


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(schedules())
def test_validate_does_not_depend_on_shared_steps(case):
    inst, sched, d = case
    copy = fresh_copy(sched)
    assert all(a is not b for a, b in zip(copy.steps, sched.steps))
    assert reported(validate(inst, copy, PropertySpec(d))) == reported(validate(inst, sched, PropertySpec(d)))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(schedules())
def test_schedule_file_round_trips_with_and_without_sharing(case):
    _, sched, _ = case
    text = written_line_by_line(sched)
    # Line lists, not whole texts: pytest diffs lists in linear time, and
    # splitting on "\n" loses nothing.
    for s in (sched, fresh_copy(sched)):
        assert format_schedule_file(s).split("\n") == text.split("\n")
        assert parse_schedule_file(format_schedule_file(s)) == s
    assert format_schedule_file(parse_schedule_file(text)).split("\n") == text.split("\n")


# Ids across the digit boundaries, where string order is not numeric order.
BOUNDARY_IDS = (*range(0, 12), *range(95, 104), *range(995, 1004))


@st.composite
def rendered_schedules(draw):
    """A schedule on ``BOUNDARY_IDS`` from a start set that may be empty.
    A flip may empty the running set (the next one refills it), and runs of
    empty flips between the others may be long."""
    ids = st.frozensets(st.sampled_from(BOUNDARY_IDS), max_size=12)
    step = start = draw(ids)
    flips = []
    for _ in range(draw(st.integers(0, 10))):
        flips += [frozenset()] * draw(st.sampled_from((0, 0, 1, 2, 500)))
        flip = step if draw(st.booleans()) else draw(ids)
        flips.append(flip)
        step ^= flip
    return Schedule(start, tuple(flips))


@seed(20261022)
@settings(max_examples=300, deadline=None)
@given(rendered_schedules())
def test_schedule_file_is_its_steps_rendered_one_by_one(sched):
    text = format_schedule_file(sched)
    # Compared line by line: pytest's diff of two long strings is quadratic.
    assert text.splitlines(keepends=True) == [format_vertex_set_file(step) for step in sched.steps]
    assert parse_schedule_file(text) == sched


def with_empty_runs(flips, runs):
    """``flips`` with ``runs[i]`` empty flips before the i-th, and ``runs[-1]``
    after the last."""
    padded = []
    for run, flip in zip(runs, flips):
        padded += [frozenset()] * run + [frozenset(flip)]
    return tuple(padded + [frozenset()] * runs[-1])


def test_long_empty_runs_keep_every_step_in_place():
    inst = p4_instance()  # alpha {0, 2}, beta {1, 3}
    flips = with_empty_runs(({2}, {3}, {0}, {1}), (3000, 5000, 1, 0, 2500))
    sched = Schedule(inst.alpha, flips)
    text = format_schedule_file(sched)
    assert text.split("\n") == written_line_by_line(sched).split("\n")
    assert text.count("\n") == sched.length + 1 == 10506
    assert parse_schedule_file(text) == sched
    assert validate(inst, sched, PropertySpec(4)) is None

    # {0, 2} -> {0} -> {0, 3}, then a third flip after 5,000 more empty flips:
    # {0, 1} flips an edge; {0, 3} empties the set, so node 0 is uncovered.
    for third, condition, witness in (({0, 1}, "flip-independence", (0, 1)), ({0, 3}, "domination", 0)):
        bad = Schedule(inst.alpha, with_empty_runs(({2}, {3}, third), (3000, 5000, 5000, 7)))
        assert validate(inst, bad, PropertySpec(4)) == Violation(13003, condition, witness)
        assert parse_schedule_file(format_schedule_file(bad)) == bad

    # Every step is fine but the last set is {0, 3}, not beta.
    short = Schedule(inst.alpha, with_empty_runs(({2}, {3}), (3000, 5000, 4000)))
    assert validate(inst, short, PropertySpec(4)) == Violation(12002, "endpoints", 0)
