"""Deterministic round-synchronous message-passing engine plus the two
distributed primitives the schedule constructions are parameterized by: a
maximal-independent-set subroutine (deterministic, by Linial's colour
reduction to O(Δ²) colours and so O(log* n) rounds on bounded degree, or
Luby's) and a (3,2)-ruling-set subroutine.  Only those two run on the
engine, and a pipeline charges every run to its ``Trace``.  A fixed-length
phase, in which every node collects its r-hop ball, has a closed-form cost
(``Trace.collect``), derived, not simulated.

Within a round all node steps are logically simultaneous; the engine applies
them in sorted node order, which is unobservable to the programs because
messages are only delivered at the round boundary.  Each round wakes only the
undone nodes that were sent mail plus the undone nodes whose program polls
(see ``NodeProgram.sleeps_until_mail``), so a run costs O(messages +
wake-ups), not O(rounds * n).  Per-node randomness comes from a
counter-based generator keyed by (seed, node id, counter), so results do not
depend on scheduling order.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from .errors import InputError, InternalError
from .graph import (
    ComponentInfo,
    Graph,
    VertexSet,
    is_independent,
    is_mis,
)

Message = Any
Outbox = dict[int, Message]


def counter_rand(seed: int, node: int, counter: int) -> float:
    """Deterministic uniform [0,1) value keyed by (seed, node, counter), each
    a signed 64-bit integer."""
    try:
        key = struct.pack(">qqq", seed, node, counter)
    except struct.error:
        raise InputError(f"seed {seed} and node id {node} must lie in [-2**63, 2**63)") from None
    digest = hashlib.sha256(key).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


class NodeProgram:
    """Base class for per-node state machines run by the engine.

    ``init`` may return an outbox (messages delivered in round 1) and may set
    ``self.output`` immediately.  ``on_round`` receives the messages sent to
    this node in the previous round.  Once ``output`` is set the node is never
    invoked again; the outbox returned by the deciding call is still
    delivered, after which the node is silent.

    A polling program (the default) is invoked every round until it decides.
    A program that sets ``sleeps_until_mail`` is invoked only in rounds where
    it was sent mail; set it only when a call with an empty inbox would
    change nothing and send nothing.
    """

    output: Any = None
    done: bool = False
    sleeps_until_mail: bool = False

    def init(self, node_id: int, neighbor_ids: VertexSet, local_input: Any,
             rand: Callable[[int], float]) -> Outbox | None:
        raise NotImplementedError

    def on_round(self, round_no: int, inbox: dict[int, Message]) -> Outbox | None:
        raise NotImplementedError

    def finish(self, value: Any) -> None:
        self.output = value
        self.done = True


@dataclass(frozen=True)
class SimReport:
    """Outcome of one engine run, in which every node decided."""

    outputs: dict[int, Any]
    rounds_used: int
    messages_sent: int


def run(
    g: Graph,
    program: Callable[[], NodeProgram],
    inputs: Mapping[int, Any],
    round_cap: int = 10_000,
    seed: int = 0,
) -> SimReport:
    """Execute ``program`` on every node until all produce output.

    ``inputs`` must be keyed exactly by the graph's nodes.  A run that
    reaches ``round_cap`` with a node undecided raises ``InternalError``
    naming the rounds used, the cap and the undecided count; so does a stall
    (undone nodes all asleep, no mail in flight), at once, since no later
    round could decide a node.
    """
    if frozenset(inputs) != g.nodes:
        raise InputError("inputs must be keyed exactly by the graph's nodes")
    order = sorted(g.nodes)
    programs: dict[int, NodeProgram] = {v: program() for v in order}
    messages_sent = 0
    # Only nodes that are sent a message get an inbox; senders stay in order.
    pending: dict[int, dict[int, Message]] = {}

    def collect(v: int, outbox: Outbox | None) -> None:
        nonlocal messages_sent
        if not outbox:
            return
        ports = g.neighbors(v)
        for target, msg in outbox.items():
            if target not in ports:
                raise InputError(f"node {v} addressed non-neighbor {target}")
            pending.setdefault(target, {})[v] = msg
        messages_sent += len(outbox)

    for v in order:
        rand = lambda counter, _v=v: counter_rand(seed, _v, counter)
        collect(v, programs[v].init(v, g.neighbors(v), inputs[v], rand))

    undone = [v for v in order if not programs[v].done]
    # Sorted undone nodes that act every round; the rest wake only on mail.
    polling = [v for v in undone if not programs[v].sleeps_until_mail]
    sleepers = len(polling) < len(undone)
    remaining = len(undone)
    rounds_used = 0
    while remaining:
        if rounds_used >= round_cap or not (pending or polling):
            raise InternalError(f"engine stopped after round {rounds_used} (cap {round_cap}): {remaining} of {len(order)} nodes undecided")
        rounds_used += 1
        inboxes, pending = pending, {}
        # Waking in sorted order keeps every inbox's senders in sorted order.
        wake = sorted(inboxes.keys() | polling) if sleepers else polling
        polling = []
        for v in wake:
            p = programs[v]
            if p.done:
                continue
            collect(v, p.on_round(rounds_used, inboxes.get(v, {})))
            if p.done:
                remaining -= 1
            elif not p.sleeps_until_mail:
                polling.append(v)
    outputs = {v: programs[v].output for v in order}
    return SimReport(outputs, rounds_used, messages_sent)


class MisColourProgram(NodeProgram):
    """Deterministic MIS: a colour-reduction round per (q, t) of the plan in
    its input (``reduction_plan``'s, or none), from the ids as colours, then
    a node joins once its colour is below every undecided neighbour's.  A
    round reads colour c as the polynomial p_c over F_q with c's base-q
    digits, and x·q + p_c(x) is the new colour for the least x where p_c(x)
    differs from every neighbour's value.  Round 1 reads the ids at init, so
    every non-isolated node gets mail in every reduction round: the program
    sleeps until mail."""

    sleeps_until_mail = True

    def init(self, node_id, neighbor_ids, local_input, rand):
        self.plan = local_input or ()
        self.colour = node_id
        self.colours = dict(zip(neighbor_ids, neighbor_ids))
        self.undecided = set(neighbor_ids)
        return self._recolour(0) if self.plan and self.undecided else self._maybe_join()

    def _recolour(self, k: int) -> Outbox:
        """Round k's new colour, sent to every neighbour."""
        q = self.plan[k][0]
        for x in range(q):
            mine = _poly_value(self.colour, q, x)
            if all(_poly_value(c, q, x) != mine for c in self.colours.values()):
                break
        self.colour = x * q + mine
        return dict.fromkeys(self.colours, self.colour)

    def _maybe_join(self) -> Outbox | None:
        if all(self.colour < self.colours[w] for w in self.undecided):
            out = {w: "join" for w in sorted(self.undecided)}
            self.finish("in")
            return out
        return None

    def on_round(self, round_no, inbox):
        if round_no <= len(self.plan):
            self.colours = inbox
            return self._recolour(round_no) if round_no < len(self.plan) else self._maybe_join()
        for sender, msg in inbox.items():
            if msg == "join":
                self.undecided.discard(sender)
                out = {w: "exit" for w in sorted(self.undecided)}
                self.finish("out")
                return out
            if msg == "exit":
                self.undecided.discard(sender)
        return self._maybe_join()


def _poly_value(c: int, q: int, x: int) -> int:
    """p_c(x) over F_q, by Horner's rule on c's base-q digits."""
    return (c % q + x * _poly_value(c // q, q, x)) % q if x and c >= q else c % q


@functools.lru_cache(maxsize=256)
def reduction_plan(colours: int, max_degree: int) -> tuple[tuple[int, int], ...]:
    """The (q, t) of each reduction round of ``MisColourProgram`` from a
    proper colouring with m = ``colours`` colours, on maximum degree Δ.  With
    q prime, q > Δ·t and q^(t+1) >= m, colours are distinct degree-t
    polynomials, two agreeing on at most t points, so some x < q avoids all
    Δ neighbours' values and the q² new colours are proper.  Each round takes
    the least q², about max(m^(2/(t+1)), Δ²t²), until none is below m: after
    O(log* m) rounds, at most (the least prime above 2Δ)² colours are left."""
    best: tuple[int, ...] = (colours,)
    # From the largest t down, so that the least q² cuts each search short.
    for t in reversed(range(1, colours.bit_length())):
        q = max(max_degree * t + 1, 2)
        while q * q <= best[0] and (q ** (t + 1) < colours or not all(q % d for d in range(2, math.isqrt(q) + 1))):
            q += 1
        best = min(best, (q * q, q, t))
    return () if len(best) == 1 else (best[1:],) + reduction_plan(best[0], max_degree)


class MisLubyProgram(NodeProgram):
    """Seeded randomized MIS with synchronized two-round iterations.

    Odd rounds deliver iteration values (and exit notices), even rounds
    deliver join announcements.  A node whose (value, id) key is strictly
    minimal among still-undecided neighbors joins; its neighbors exit on the
    following round.  Ties are impossible because ids break them.  It polls:
    an undecided node starts its next iteration even when no mail arrives.
    """

    def init(self, node_id, neighbor_ids, local_input, rand):
        self.node = node_id
        self.rand = rand
        self.undecided = set(neighbor_ids)
        self.iteration = 0
        if not self.undecided:
            self.finish("in")
            return None
        return self._vals()

    def _vals(self) -> Outbox:
        """Draw this iteration's key once and announce it."""
        self.key = (self.rand(self.iteration), self.node)
        return {w: ("val", self.key) for w in sorted(self.undecided)}

    def on_round(self, round_no, inbox):
        if round_no % 2 == 1:
            # Iteration comparison: every believed-undecided neighbor sent
            # either its value for this iteration or an exit notice.
            values: dict[int, tuple[float, int]] = {}
            for sender, msg in inbox.items():
                if msg == "exit":
                    self.undecided.discard(sender)
                else:
                    values[sender] = msg[1]
            if not self.undecided:
                self.finish("in")
                return None
            if all(self.key < values[w] for w in self.undecided):
                out = {w: "join" for w in sorted(self.undecided)}
                self.finish("in")
                return out
            return None
        # Even round: either a neighbor joined, or this iteration is over.
        if any(msg == "join" for msg in inbox.values()):
            self.undecided -= set(inbox)
            out = {w: "exit" for w in sorted(self.undecided)}
            self.finish("out")
            return out
        self.iteration += 1
        return self._vals()


def dist_mis(g: Graph, mode: str = "deterministic-id", seed: int = 0) -> tuple[VertexSet, SimReport]:
    """Run the pluggable MIS subroutine on g, capped at max(16, 8n + 8)
    rounds on n nodes; the result always passes is_mis.  Ids must be below
    2**63: ``luby`` keys its draws by signed 64-bit ids, and the colour
    reduction's cost grows with an id's digits.

    ``deterministic-id`` gives ``MisColourProgram`` the plan from the id
    bound max id + 1 and the maximum degree Δ, which every node knows, as
    usual in the LOCAL model.  After the plan's R rounds C colours are left
    (the q² of its last round, or the id bound), and a node of colour c
    decides by the c-th MIS round: a run takes under R + C rounds, 0 if g
    has no edge."""
    factory = {"deterministic-id": MisColourProgram, "luby": MisLubyProgram}.get(mode)
    if factory is None:
        raise InputError(f"unknown MIS mode {mode!r}")
    top = max(g.nodes, default=0)
    if top >= 2**63:
        raise InputError(f"node id {top} is not below 2**63, the MIS subroutines' id limit")
    plan = reduction_plan(top + 1, max(map(g.degree, g.nodes), default=0)) if factory is MisColourProgram else None
    report = run(g, factory, dict.fromkeys(g.nodes, plan), round_cap=max(16, 8 * len(g) + 8), seed=seed)
    selected = frozenset(v for v, out in report.outputs.items() if out == "in")
    if not is_mis(g, selected):
        raise InternalError("MIS subroutine produced a non-MIS output")
    return selected, report


@dataclass
class Trace:
    """The cost of one pipeline run, and the MIS settings it runs with.

    A phase is a named set of calls that run in parallel, so it costs the
    rounds of its slowest call; ``phases`` keeps that per phase, in the
    order the phases were first charged, and ``rounds_used`` is their sum.
    ``shapes`` keeps the (n, m, Δ) of the graph that call (the first of
    equals) ran on.  ``messages_sent`` adds up the messages of every call.
    A call on a graph with no nodes runs nothing and is not charged.
    """

    mode: str = "deterministic-id"
    seed: int = 0
    phases: dict[str, int] = field(default_factory=dict, init=False)
    shapes: dict[str, tuple[int, int, int]] = field(default_factory=dict, init=False)
    messages_sent: int = field(default=0, init=False)

    @property
    def rounds_used(self) -> int:
        return sum(self.phases.values())

    def charge(self, phase: str, rounds: int, messages: int, g: Graph) -> None:
        if g.nodes and rounds > self.phases.get(phase, -1):
            degrees = list(map(len, map(g.neighbors, g.nodes)))
            self.phases[phase] = rounds
            self.shapes[phase] = (len(g), sum(degrees) // 2, max(degrees, default=0))
        self.messages_sent += messages

    def mis(self, phase: str, g: Graph, hop: int = 1, setup: int = 0) -> VertexSet:
        """An MIS of g from ``dist_mis``, its run charged to ``phase`` as
        ``setup + hop · rounds``: on a virtual graph one round spans ``hop``
        rounds of the real one, after ``setup`` rounds to build it."""
        if not g.nodes:
            return frozenset()
        selected, report = dist_mis(g, self.mode, self.seed)
        self.charge(phase, setup + hop * report.rounds_used, report.messages_sent, g)
        return selected

    def collect(self, g: Graph, radius: int) -> None:
        """Charge every node collecting its ``radius``-hop ball of g, derived,
        not executed.

        Flooding does it: each node sends all it knows to every neighbor in
        each of ``radius`` rounds, so the phase costs ``radius`` rounds and
        ``radius`` · Σ deg(v) messages whatever the graph looks like.  Callers
        never read the balls, so the flood is not run.  The count assumes g
        has an edge; on an edgeless graph a flood ends at round 0, and on
        one with no nodes nothing is charged.
        """
        self.charge("collect", radius, radius * sum(map(g.degree, g.nodes)), g)


# One hop of the squared virtual graph spans at most this many real hops:
# two hops per virtual edge, two virtual edges per squared edge.
VIRTUAL_HOP_OVERHEAD = 4
VIRTUAL_SETUP_ROUNDS = 2


def ruling_set_32(
    g: Graph,
    comp: ComponentInfo,
    alpha: VertexSet,
    beta: VertexSet,
    trace: Trace,
) -> VertexSet:
    """A (3,2)-ruling set of the virtual graph on the component's alpha-nodes
    (two joined when they share a beta-neighbor), computed as an MIS of the
    squared virtual graph.

    Both parts of the component are independent, so G[y] is bipartite and
    every path between two alpha-nodes alternates sides: their virtual
    distance is exactly half their hop distance in G[y].  The squared
    virtual graph is therefore the graph on the alpha-nodes joining two at
    most 4 hops apart in G[y], and it is built that way: each alpha-node's
    other-side neighbours, widened three times by theirs, at O(Δ) per
    alpha-node within 4 hops (O(L²) on a hub of degree L).  In G[y] the
    result is a (6,5)-ruling set, each of whose facts is checked once:
    ``dist_mis``'s ``is_mis`` check on the squared graph puts ruling nodes
    more than 4 hops apart (independence) and every alpha-node within 4
    (maximality), and ``layer_component`` checks every node within 5.  The
    rounds charged to the trace's ``ruling-set`` phase account for
    simulating each virtual hop in g.
    """
    y = comp.vertices
    alpha_y, beta_y = frozenset(alpha) & y, frozenset(beta) & y
    if alpha_y | beta_y != y or alpha_y & beta_y:
        raise InputError("alpha and beta must partition the component")
    if not (is_independent(g, alpha_y) and is_independent(g, beta_y)):
        raise InputError("alpha and beta parts of the component must be independent")
    if comp.diameter < 5:
        raise InputError(f"component diameter must be at least 5, got {comp.diameter}")

    side = {v: g.neighbors(v) & (beta_y if v in alpha_y else alpha_y) for v in y}

    def reach(s: VertexSet) -> VertexSet:
        return frozenset().union(*map(side.get, s))

    edges = [(u, w) for u in alpha_y for w in reach(reach(reach(side[u]))) if u < w]
    return trace.mis("ruling-set", Graph(alpha_y, edges), VIRTUAL_HOP_OVERHEAD, VIRTUAL_SETUP_ROUNDS)


def format_trace(trace: Trace) -> str:
    return f"rounds_used: {trace.rounds_used}\nmessages_sent: {trace.messages_sent}\n"
