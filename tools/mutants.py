"""Mutation checks: apply each mutant to a temporary copy of the source, run
the tests named for it there, and report whether they kill it.

    python tools/mutants.py

Every mutant in ``MUTANTS`` runs.  The tests named by the mutants must
first pass on an unmutated copy; a mutant is then *killed* when its
tests fail on the mutated copy and *survives* when they pass.  Each mutant
removes or weakens one check or construction that a test is meant to hold
in place, so a survivor names a fact that no test reaches.  A pytest run
that outlasts ``RUN_LIMIT_S`` is stopped and reported as *timed out*, which
is not a kill.  The exit status is 0 when every mutant is killed, else 1.
The repository is found from this file's location, and only the temporary
copy is modified.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Seconds one pytest run may take.  A mutant can stall a test rather than
# fail it (pytest diffs two long unequal strings in quadratic time), so a run
# past this is stopped; the unmutated baseline runs well within it.
RUN_LIMIT_S = 300


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant(
        "dist-mis-without-is-mis-check",
        "src/misrecon/sim.py",
        '    if not is_mis(g, selected):\n        raise InternalError("MIS subroutine produced a non-MIS output")\n',
        "",
        (
            "tests/test_sim.py::test_ruling_set_rejects_a_corrupted_mis_run",
            "tests/test_sim.py::test_corrupted_ruling_run_exits_3_without_traceback",
        ),
    ),
    Mutant(
        "squared-graph-is-the-virtual-graph",
        "src/misrecon/sim.py",
        "for w in reach(reach(reach(side[u])))",
        "for w in reach(side[u])",
        (
            "tests/test_sim.py::test_ruling_set_matches_the_squared_virtual_graph",
            "tests/test_sim.py::test_ruling_set_on_alternating_path",
            "tests/test_constlength.py::test_high_degree_virtual_graphs_match_their_definitions",
        ),
    ),
    Mutant(
        "recolouring-ignores-a-neighbour",
        "src/misrecon/sim.py",
        "for c in self.colours.values())",
        "for c in list(self.colours.values())[1:])",
        ("tests/test_sim.py::test_colour_reduction_mis_is_deterministic_and_within_its_bound",),
    ),
    Mutant(
        "local-minimum-joins-on-a-tie",
        "src/misrecon/sim.py",
        "all(self.colour < self.colours[w] for w in self.undecided)",
        "all(self.colour <= self.colours[w] for w in self.undecided)",
        ("tests/test_sim.py::test_a_node_never_joins_beside_an_equal_colour",),
    ),
    Mutant(
        "layers-allow-distance-7",
        "src/misrecon/constlength.py",
        "if max(by_dist) > 5:",
        "if max(by_dist) > 7:",
        ("tests/test_constlength.py::test_layers_reject_a_ruling_set_that_leaves_a_node_6_hops_away",),
    ),
    Mutant(
        "contact-graph-without-fringe-contacts",
        "src/misrecon/constlength.py",
        "if owner.get(w, i) != i}",
        "if False}",
        (
            "tests/test_constlength.py::test_logstar_contact_graph_is_the_ring_of_blobs",
            "tests/test_constlength.py::test_virtual_graphs_match_their_definitions",
        ),
    ),
    Mutant(
        "component-graph-without-covering-edges",
        "src/misrecon/constlength.py",
        "for i in comp.alpha_covered if i in labels]",
        "for i in comp.alpha_covered if False]",
        ("tests/test_constlength.py::test_virtual_graphs_match_their_definitions",),
    ),
    Mutant(
        "engine-ignores-round-cap",
        "src/misrecon/sim.py",
        "if rounds_used >= round_cap or not (pending or polling):",
        "if not (pending or polling):",
        (
            "tests/test_sim.py::test_run_rejects_bad_inputs_and_caps",
            "tests/test_sim.py::test_engine_stop_in_the_pipeline_exits_3",
        ),
    ),
    Mutant(
        "mis-takes-any-node-id",
        "src/misrecon/sim.py",
        "    if top >= 2**63:\n",
        "    if False:\n",
        ("tests/test_cli.py::test_node_id_beyond_64_bits_exits_2",),
    ),
    Mutant(
        "reduction-plan-without-q-above-degree-times-t",
        "src/misrecon/sim.py",
        "q = max(max_degree * t + 1, 2)",
        "q = 2",
        ("tests/test_sim.py::test_reduction_plan_shrinks_every_round",),
    ),
    Mutant(
        "reduction-plan-without-primality",
        "src/misrecon/sim.py",
        "(q ** (t + 1) < colours or not all(q % d for d in range(2, math.isqrt(q) + 1)))",
        "q ** (t + 1) < colours",
        ("tests/test_sim.py::test_reduction_plan_shrinks_every_round",),
    ),
    Mutant(
        "validate-without-last-flip-independence",
        "src/misrecon/schedule.py",
        "        if edge is not None:\n            violation = Violation(last, ",
        "        if False:\n            violation = Violation(last, ",
        (
            "tests/test_schedule.py::test_validate_flip_independence_violation",
            "tests/test_schedule.py::test_validator_reports_the_naive_first_violation",
        ),
    ),
    Mutant(
        "validate-without-end-set-check",
        "src/misrecon/schedule.py",
        "        if end != inst.beta:",
        "        if False:",
        (
            "tests/test_schedule.py::test_validate_endpoint_violation",
            "tests/test_schedule.py::test_length_zero_schedule_iff_alpha_equals_beta",
        ),
    ),
    Mutant(
        "lost-cover-region-radius-d",
        "src/misrecon/schedule.py",
        "radius=2 * d, stop=step",
        "radius=d, stop=step",
        (
            "tests/test_schedule.py::test_lost_cover_is_its_definition",
            "tests/test_schedule.py::test_step_defect_matches_a_whole_graph_check",
            "tests/test_golden.py::test_schedule_bytes_are_pinned[idslot-alt-path-40]",
        ),
    ),
    Mutant(
        "covering-search-from-near-step-nodes-only",
        "src/misrecon/schedule.py",
        "step.intersection(near), near.keys()",
        "{s for s in step.intersection(near) if near[s] <= d}, near.keys()",
        (
            "tests/test_schedule.py::test_lost_cover_is_its_definition",
            "tests/test_schedule.py::test_step_defect_matches_a_whole_graph_check",
            "tests/test_schedule.py::test_validator_reports_the_naive_first_violation",
        ),
    ),
    Mutant(
        "planner-accepts-unvetted-candidate",
        "src/misrecon/constrounds.py",
        "if first_violation(g, current, flips, 4) is None:",
        "if True:",
        ("tests/test_constrounds.py::test_planner_falls_through_a_rejected_candidate",),
    ),
    Mutant(
        "colour-power-10",
        "src/misrecon/constrounds.py",
        "COLOR_POWER = 16",
        "COLOR_POWER = 10",
        ("tests/test_constrounds.py::test_colour_slotted_reproducers_give_valid_schedules",),
    ),
    Mutant(
        "colour-check-below-half-the-power",
        "src/misrecon/constrounds.py",
        "ball(g, s, COLOR_POWER // 2)",
        "ball(g, s, COLOR_POWER // 2 - 1)",
        (
            "tests/test_constrounds.py::test_improper_coloring_rejected_with_witness",
            "tests/test_constrounds.py::test_coloring_check_refuses_exactly_as_its_definition",
        ),
    ),
    Mutant(
        "renderer-appends-new-ids",
        "src/misrecon/schedule.py",
        "                ids.insert(k, v)\n                strs.insert(k, str(v))\n",
        "                ids.append(v)\n                strs.append(str(v))\n",
        (
            "tests/test_schedule.py::test_schedule_file_is_its_steps_rendered_one_by_one",
            "tests/test_golden.py::test_schedule_bytes_are_pinned[idslot-alt-path-40]",
        ),
    ),
    Mutant(
        "layers-without-layer-1-rule",
        "src/misrecon/constlength.py",
        "        if not (g.neighbors(v) & y) <= around:\n",
        "        if False:\n",
        ("tests/test_constlength.py::test_layer_check_rejects_a_layer_1_node_next_to_layer_3",),
    ),
    Mutant(
        "trace-charge-sums-rounds-per-phase",
        "src/misrecon/sim.py",
        "        if g.nodes and rounds > self.phases.get(phase, -1):\n"
        "            degrees = list(map(len, map(g.neighbors, g.nodes)))\n"
        "            self.phases[phase] = rounds\n",
        "        self.phases[phase] = self.phases.get(phase, 0) + rounds\n"
        "        if g.nodes:\n"
        "            degrees = list(map(len, map(g.neighbors, g.nodes)))\n",
        (
            "tests/test_sim.py::test_trace_charges_each_phase_its_slowest_call",
            "tests/test_constlength.py::test_trace_ledger_is_pinned",
        ),
    ),
    Mutant(
        "empty-phase-is-charged",
        "src/misrecon/sim.py",
        "if g.nodes and rounds > self.phases.get(phase, -1):",
        "if rounds > self.phases.get(phase, -1):",
        (
            "tests/test_sim.py::test_trace_neither_runs_nor_charges_a_graph_with_no_nodes",
            "tests/test_constlength.py::test_distributed_alpha_equals_beta_stops_after_broadcast",
            "tests/test_constlength.py::test_each_builder_picks_its_own_components",
        ),
    ),
    Mutant(
        "non-isolated-takes-every-component",
        "src/misrecon/constlength.py",
        "    comps = [c for c in comps if not c.isolated or c.diameter >= 3]\n",
        "",
        (
            "tests/test_constlength.py::test_each_builder_picks_its_own_components",
            "tests/test_constlength.py::test_trace_ledger_is_pinned",
        ),
    ),
    Mutant(
        "part-sends-mis-components-to-part-5",
        "src/misrecon/constlength.py",
        "        if c.min_id in m_labels:\n            return 4\n",
        "        if c.min_id in m_labels:\n            return 5\n",
        ("tests/test_constlength.py::test_parts_match_filter_and_mark",),
    ),
    Mutant(
        "broadcast-senders-are-the-core",
        "src/misrecon/constlength.py",
        "sum(map(g.degree, g.nodes - red.graph.nodes))",
        "sum(map(g.degree, inst.alpha & inst.beta))",
        (
            "tests/test_constlength.py::test_reduction_strips_the_core_and_its_neighbours",
            "tests/test_constlength.py::test_distributed_alpha_equals_beta_stops_after_broadcast",
        ),
    ),
    Mutant(
        "escape-node-need-not-miss-an-alpha-node",
        "src/misrecon/constlength.py",
        " and a_part - g.neighbors(u)), None)",
        "), None)",
        ("tests/test_constlength.py::test_escape_node_misses_an_alpha_node_of_its_component",),
    ),
    Mutant(
        "absorbed-diameter-3-joins-the-waves",
        "src/misrecon/constlength.py",
        "        if aug <= 2:\n",
        "        if aug <= 3:\n",
        (
            "tests/test_constlength.py::test_isolated_deep_blob_six_step_gadget",
            "tests/test_constlength.py::test_isolated_two_deep_blobs_with_adjacent_escapes",
        ),
    ),
    Mutant(
        "cascade-adds-layer-5-before-removing-layer-4",
        "src/misrecon/constlength.py",
        "for k in (4, 5, 2, 3, 0, 1, -2, -1)",
        "for k in (5, 4, 2, 3, 0, 1, -2, -1)",
        (
            "tests/test_constlength.py::test_long_path_cascade_fragment",
            "tests/test_constlength.py::test_every_deep_instance_gets_a_valid_28_step_schedule",
        ),
    ),
    Mutant(
        "lost-cover-misses-holes-at-distance-d",
        "src/misrecon/schedule.py",
        "if k <= d and u not in covered",
        "if k < d and u not in covered",
        (
            "tests/test_schedule.py::test_lost_cover_is_its_definition",
            "tests/test_schedule.py::test_step_defect_matches_a_whole_graph_check",
        ),
    ),
    Mutant(
        "collect-without-radius-factor",
        "src/misrecon/sim.py",
        "radius * sum(map(g.degree, g.nodes))",
        "sum(map(g.degree, g.nodes))",
        (
            "tests/test_sim.py::test_collect_cost_matches_an_executed_flood",
            "tests/test_constlength.py::test_trace_ledger_is_pinned",
        ),
    ),
    Mutant(
        "schedule-lines-numbered-by-run",
        "src/misrecon/schedule.py",
        "step, lineno = new, lineno + run_length",
        "step, lineno = new, lineno + 1",
        ("tests/test_schedule.py::test_parse_schedule_reports_a_repeated_bad_id_at_its_first_line",),
    ),
    Mutant(
        "canonical-bound-cuts-ties",
        "src/misrecon/analysis.py",
        "if code > best >> (total - b * (b + 1) // 2):",
        "if code >= best >> (total - b * (b + 1) // 2):",
        (
            "tests/test_analysis.py::test_canonical_code_on_symmetric_graphs",
            "tests/test_analysis.py::test_enumeration_counts_match_graph_atlas",
        ),
    ),
    Mutant(
        "orbit-keeps-its-largest-mask",
        "src/misrecon/analysis.py",
        "for mask in range(1 << (n - 1)):",
        "for mask in reversed(range(1 << (n - 1))):",
        ("tests/test_analysis.py::test_enumeration_output_is_pinned",),
    ),
    Mutant(
        "oracle-keeps-reached-states",
        "src/misrecon/analysis.py",
        "        unreached = keep\n",
        "",
        ("tests/test_analysis.py::test_oracle_scans_only_unreached_states",),
    ),
]


def run_tests(copy: Path, tests: list[str]) -> int | None:
    """pytest's exit status for ``tests`` run on the copy, or None if the run
    was stopped at ``RUN_LIMIT_S``."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(
            cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=RUN_LIMIT_S
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="misrecon-mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)

        tests = sorted({t for m in MUTANTS for t in m.tests})
        status = run_tests(copy, tests)
        if status is None:
            print(f"baseline: the mutants' tests ran past {RUN_LIMIT_S} s on the unmutated copy")
            return 1
        if status != 0:
            print(f"baseline: the mutants' tests fail on the unmutated copy (pytest exit {status})")
            return 1
        print(f"baseline: the {len(tests)} named tests pass on the unmutated copy")

        killed = 0
        for m in MUTANTS:
            target = copy / m.path
            original = target.read_text()
            if original.count(m.old) != 1:
                verdict = "stale"  # the source moved on; the mutant must be rewritten
            else:
                target.write_text(original.replace(m.old, m.new))
                status = run_tests(copy, list(m.tests))
                target.write_text(original)
                verdict = {0: "survived", 1: "killed", None: "timed out"}.get(status, f"error (pytest exit {status})")
            killed += verdict == "killed"
            print(f"{verdict:<9} {m.name} ({m.path})")
    print(f"{killed} of {len(MUTANTS)} mutants killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
