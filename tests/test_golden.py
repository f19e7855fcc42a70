"""Golden schedules: the exact bytes every pipeline writes on a fixed corpus.

Each case pins the sha256 of the schedule file plus the (rounds, messages)
the run reports, so a refactor of how schedules are assembled must reproduce
them byte for byte.  Run ``python tests/test_golden.py`` to print the
current digests.
"""

import hashlib

import pytest

from misrecon import constlength, constrounds
from misrecon.analysis import gen_gadget
from misrecon.constlength import constant_length_schedule_distributed
from misrecon.constrounds import constant_rounds_schedule, greedy_power_coloring
from misrecon.graph import Graph, diameter
from misrecon.schedule import ReconfigInstance, Schedule, format_schedule_file, parse_schedule_file
from misrecon.sim import Trace


def _sparse(inst: ReconfigInstance) -> ReconfigInstance:
    """Relabel 0..n-1 by a non-monotone map onto ids spread from 500 upward."""
    n = len(inst.graph)
    new = {v: 500 + (7 * v % n) * 3 for v in inst.graph.nodes}
    g = Graph(new.values(), [(new[u], new[v]) for u, v in inst.graph.edges()])
    return ReconfigInstance(g, frozenset(new[v] for v in inst.alpha), frozenset(new[v] for v in inst.beta))


def _escape_blobs() -> ReconfigInstance:
    """Four isolated diameter-3 blobs, each a 4-cycle of alpha- and beta-nodes
    with two epsilon escapes; blob escapes 4-10 and 16-22 are adjacent, so
    each pair parks only one, and shared-core nodes 25 and 28 link the blobs
    to each other and to an alternating 12-node tail."""
    edges, alpha, beta = [], {25, 28}, {25, 28}
    for i in range(0, 24, 6):
        a0, a1, b0, b1, e0, e1 = range(i, i + 6)
        edges += [(a0, b0), (a0, b1), (a1, b0), (a1, b1), (e0, a0), (e0, b0), (e1, a1), (e1, b1)]
        alpha |= {a0, a1}
        beta |= {b0, b1}
    edges += [(4, 10), (16, 22), (11, 24), (24, 25), (25, 26), (26, 17), (23, 27), (27, 28), (28, 29)]
    tail = range(29, 42)
    edges += list(zip(tail, tail[1:]))
    alpha |= set(tail[1::2])
    beta |= set(tail[2::2])
    return ReconfigInstance(Graph(range(42), edges), frozenset(alpha), frozenset(beta))


def _idslot(inst):
    sched, report = constant_rounds_schedule(inst)
    return sched, (report.rounds_used, report.messages_sent)


def _coloring(inst):
    sched, report = constant_rounds_schedule(inst, greedy_power_coloring(inst.graph))
    return sched, (report.rounds_used, report.messages_sent)


def _distributed(mode):
    def build(inst):
        sched, trace = constant_length_schedule_distributed(inst, Trace(mode))
        return sched, (trace.rounds_used, trace.messages_sent)
    return build


CASES = {
    "idslot-alt-path-40": (lambda: gen_gadget("alt-path", n=40), _idslot),
    "idslot-alt-path-40-sparse": (lambda: _sparse(gen_gadget("alt-path", n=40)), _idslot),
    # At the 16th power a 40-cycle has no colour of two beta-nodes; 60 does.
    "coloring-alt-cycle-60": (lambda: gen_gadget("alt-cycle", n=60), _coloring),
}
for _n, _seed in ((60, 2), (80, 8)):
    for _mode in ("deterministic-id", "luby"):
        CASES[f"28step-random-{_n}-{_seed}-{_mode}"] = (
            lambda n=_n, seed=_seed: gen_gadget("random", n=n, p=3 / n, seed=seed),
            _distributed(_mode),
        )
for _mode in ("deterministic-id", "luby"):
    CASES[f"28step-escape-blobs-{_mode}"] = (_escape_blobs, _distributed(_mode))
    # One component of diameter exactly 5, the cap of components_of.
    CASES[f"28step-alt-path-6-{_mode}"] = (lambda: gen_gadget("alt-path", n=6), _distributed(_mode))

GOLDEN = {
    "28step-alt-path-6-deterministic-id": ("821ab22cdda434020eab8209ad50a8ce5b4e7d6cdf2ffa937913c9317a2daa4b", (12, 44)),
    "28step-alt-path-6-luby": ("41f02664f5bb25a35217f0de3bdc4ebb74ca5c96f4add00c10d237f21899fba0", (16, 50)),
    "28step-escape-blobs-deterministic-id": ("6614ece71673a6cda4614ece1c5c2148b7d0a2d51a1f47a68f11e0b432177db9", (22, 389)),
    "28step-escape-blobs-luby": ("bcd4da4e6daf1b916af1f0278cd6e632a593cc5bce21071e8fc1a1a0a087dcde", (18, 408)),
    "28step-random-60-2-deterministic-id": ("b4121b521826e01e93785c60b56381debf2f2abac69b9aec6f5de7a5d4fb5469", (20, 331)),
    "28step-random-60-2-luby": ("071ac68326b4331e39d61bab93ea3c658eb49750b341984e4fa8ea14870fa841", (16, 349)),
    "28step-random-80-8-deterministic-id": ("afc9476ade9d3e79e799916b08c9090b8df4a84518987eaac24b7ca4c2fe89b6", (20, 592)),
    "28step-random-80-8-luby": ("4bef50078493ed602c3a071f441220fb41a4d4b6945e9eb593b892531396796a", (16, 663)),
    "coloring-alt-cycle-60": ("b142cc1893514571ae3b3030b9b381efb286084e8f388899604855996fa00161", (9, 1080)),
    "idslot-alt-path-40": ("0b600ec7b0c1e45c8986546389d042442cf9f72212508ee7435f91d2e35b6a27", (9, 702)),
    "idslot-alt-path-40-sparse": ("b51f13e89145f9bd86cccdf32ea6832351636a99d575073833ec4eea68dc1581", (9, 702)),
}


def _build(name):
    make, build = CASES[name]
    return build(make())


def _digest(name):
    sched, cost = _build(name)
    return hashlib.sha256(format_schedule_file(sched).encode()).hexdigest(), cost


@pytest.mark.parametrize("name", sorted(CASES))
def test_schedule_bytes_are_pinned(name):
    sched, cost = _build(name)
    text = format_schedule_file(sched)
    assert (hashlib.sha256(text.encode()).hexdigest(), cost) == GOLDEN[name]
    # The parser and the set view give back the very flips the pipeline built.
    assert parse_schedule_file(text) == sched
    assert Schedule.from_steps(sched.steps) == sched


def test_corpus_exercises_merged_fragments(monkeypatch):
    """The corpus must still run a part-3 merge of two or more big-component
    fragments and a colour window holding two or more insertion plans."""
    big_counts = []
    window_starts = []
    real_non_isolated = constlength.schedule_non_isolated
    real_plan = constrounds.plan_insertion

    def non_isolated(g, comps, *args, **kwargs):
        big_counts.append(sum(c.diameter >= 3 for c in comps))
        return real_non_isolated(g, comps, *args, **kwargs)

    def plan(g, current, *args, **kwargs):
        window_starts.append(frozenset(current))
        return real_plan(g, current, *args, **kwargs)

    monkeypatch.setattr(constlength, "schedule_non_isolated", non_isolated)
    monkeypatch.setattr(constrounds, "plan_insertion", plan)
    _digest("28step-random-60-2-deterministic-id")
    _digest("coloring-alt-cycle-60")
    assert max(big_counts) >= 2
    # Plans of one colour window all start from the window's first set.
    assert max(window_starts.count(s) for s in window_starts) >= 2


def test_corpus_covers_every_diameter_band(monkeypatch):
    """The components the 28-step pipeline classifies, measured with the
    exact diameter, fall in every band it sorts by (at most 2, 3, 4) and on
    both sides of the cap of ``components_of`` (exactly 5, 6 or more)."""
    exact = []
    real_components_of = constlength.components_of

    def components_of(g, *args):
        comps = real_components_of(g, *args)
        exact.extend(diameter(g, c.vertices) for c in comps)
        return comps

    monkeypatch.setattr(constlength, "components_of", components_of)
    for name in CASES:
        if name.startswith("28step"):
            _digest(name)
    bands = {"<=2" if d <= 2 else ">=6" if d >= 6 else str(d) for d in exact}
    assert bands == {"<=2", "3", "4", "5", ">=6"}


if __name__ == "__main__":
    for case in sorted(CASES):
        print(f"    {case!r}: {_digest(case)!r},")
