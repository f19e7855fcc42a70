import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from misrecon import graph
from misrecon.cli import EXIT_NEGATIVE, EXIT_OK, EXIT_USAGE, main
from misrecon.constrounds import parse_coloring_file
from misrecon.errors import InputError
from misrecon.graph import Graph, diameter, format_graph_file, parse_graph_file
from misrecon.schedule import (
    Schedule,
    format_schedule_file,
    format_vertex_set_file,
    parse_schedule_file,
    parse_vertex_set_file,
)


def write_instance(tmp_path, g, alpha, beta, name="inst"):
    gp = tmp_path / f"{name}.graph"
    ap = tmp_path / f"{name}.alpha"
    bp = tmp_path / f"{name}.beta"
    gp.write_text(format_graph_file(g))
    ap.write_text(format_vertex_set_file(alpha))
    bp.write_text(format_vertex_set_file(beta))
    return str(gp), str(ap), str(bp)


def p4_files(tmp_path):
    g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
    return write_instance(tmp_path, g, frozenset({0, 2}), frozenset({1, 3}))


def test_validate_accepts_good_schedule(tmp_path, capsys):
    gp, ap, bp = p4_files(tmp_path)
    sp = tmp_path / "sched.txt"
    sp.write_text(format_schedule_file(Schedule.from_steps(({0, 2}, {0}, {0, 3}, {3}, {1, 3}))))
    assert main(["validate", "--graph", gp, "--alpha", ap, "--beta", bp, "--schedule", str(sp)]) == EXIT_OK
    assert "valid" in capsys.readouterr().out


def test_validate_rejects_with_diagnostic(tmp_path, capsys):
    gp, ap, bp = p4_files(tmp_path)
    sp = tmp_path / "sched.txt"
    sp.write_text(format_schedule_file(Schedule.from_steps(({0, 2}, {1, 3}))))
    code = main(["validate", "--graph", gp, "--alpha", ap, "--beta", bp, "--schedule", str(sp)])
    assert code == EXIT_NEGATIVE
    assert "flip-independence violated at step 1: edge 0-1" in capsys.readouterr().out


def test_gen_oracle_check_flow(tmp_path, capsys):
    prefix = tmp_path / "blk"
    assert main(["gen", "--family", "threedom-blocker", "--out-prefix", str(prefix)]) == EXIT_OK
    capsys.readouterr()
    args = ["--graph", f"{prefix}.graph", "--alpha", f"{prefix}.alpha", "--beta", f"{prefix}.beta"]
    code = main(["oracle", *args, "--d", "3"])
    out = capsys.readouterr().out
    assert code == EXIT_NEGATIVE and "exists: false" in out
    code = main(["oracle", *args, "--d", "4", "--out", str(tmp_path / "wit.txt")])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "exists: true" in out and "min_length:" in out
    parse_schedule_file((tmp_path / "wit.txt").read_text())

    code = main(["check", *args])
    out = capsys.readouterr().out
    assert code == EXIT_OK and "blocked: false" in out


def test_check_blocked_star(tmp_path, capsys):
    from misrecon.analysis import gen_gadget

    inst = gen_gadget("star", k=3)
    assert inst.graph == Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    assert (inst.alpha, inst.beta) == (frozenset({0}), frozenset({1, 2, 3}))
    gp, ap, bp = write_instance(tmp_path, inst.graph, inst.alpha, inst.beta)
    code = main(["check", "--graph", gp, "--alpha", ap, "--beta", bp])
    assert code == EXIT_NEGATIVE
    assert "blocked: true" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "oracle"])
def test_domination_radius_below_one_exits_2(tmp_path, capsys, command):
    gp, ap, bp = p4_files(tmp_path)
    sp = tmp_path / "sched.txt"
    sp.write_text(format_schedule_file(Schedule.from_steps(({0, 2}, {0}, {0, 3}, {3}, {1, 3}))))
    extra = ["--schedule", str(sp)] if command == "validate" else []
    assert main([command, "--graph", gp, "--alpha", ap, "--beta", bp, *extra, "--d", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: domination radius must be positive, got 0\n" and captured.out == ""


def test_const_length_command_round_trips(tmp_path, capsys):
    g = Graph(range(8), [(i, i + 1) for i in range(7)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset(range(0, 8, 2)), frozenset(range(1, 8, 2)))
    out = tmp_path / "sched.txt"
    code = main(["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(out)])
    assert code == EXIT_OK
    sched = parse_schedule_file(out.read_text())
    assert sched.length == 28
    code = main(["validate", "--graph", gp, "--alpha", ap, "--beta", bp, "--schedule", str(out)])
    assert code == EXIT_OK


def test_const_length_distributed_reports(tmp_path, capsys):
    g = Graph(range(8), [(i, i + 1) for i in range(7)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset(range(0, 8, 2)), frozenset(range(1, 8, 2)))
    out = tmp_path / "sched.txt"
    code = main([
        "const-length", "--graph", gp, "--alpha", ap, "--beta", bp,
        "--distributed", "--subroutine", "luby", "--seed", "9", "--out", str(out),
    ])
    captured = capsys.readouterr().out
    assert code == EXIT_OK
    assert "rounds_used:" in captured and "messages_sent:" in captured


def test_distributed_flag_only_adds_the_round_report(tmp_path, capsys):
    g = Graph(range(12), [(i, i + 1) for i in range(11)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset(range(0, 12, 2)), frozenset(range(1, 12, 2)))
    base = ["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--subroutine", "luby", "--seed", "3"]
    outs, stdouts = [], []
    for flags in (["--distributed"], []):
        out = tmp_path / f"sched{len(outs)}.txt"
        assert main([*base, *flags, "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
        stdouts.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert "rounds_used:" in stdouts[0] and "messages_sent:" in stdouts[0]
    assert stdouts[1] == "schedule_length: 28\n"
    assert stdouts[0].endswith(stdouts[1])


def test_output_errors_exit_2(tmp_path, capsys):
    gp, ap, bp = write_instance(
        tmp_path, Graph(range(10), [(i, i + 1) for i in range(9)]),
        frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2)),
    )
    args = ["--graph", gp, "--alpha", ap, "--beta", bp]
    a_file = tmp_path / "plain.txt"
    a_file.write_text("")
    failing = [
        ["const-length", *args, "--out", str(tmp_path / "missing" / "x.sched")],
        ["const-rounds", *args, "--out", str(tmp_path)],
        ["gen", "--family", "alt-path", "--n", "8", "--out-prefix", str(a_file / "x")],
        ["gen", "--family", "alt-path", "--n", "8", "--out-prefix", ""],
    ]
    for argv in failing:
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
    p4 = p4_files(tmp_path)
    oracle = ["oracle", "--graph", p4[0], "--alpha", p4[1], "--beta", p4[2]]
    assert main([*oracle, "--out", str(tmp_path / "missing" / "w.txt")]) == EXIT_USAGE
    assert "cannot write" in capsys.readouterr().err
    # The search always finishes within the node limit, so it takes no cap.
    assert main([*oracle, "--cap", "1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "unrecognized arguments: --cap 1" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_const_length_small_diameter_falls_back(tmp_path, capsys):
    gp, ap, bp = p4_files(tmp_path)
    out = tmp_path / "sched.txt"
    code = main(["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(out)])
    assert code == EXIT_OK
    assert "fallback" in capsys.readouterr().out
    code = main(["validate", "--graph", gp, "--alpha", ap, "--beta", bp, "--schedule", str(out)])
    assert code == EXIT_OK


def test_const_length_disconnected_graph_exits_2(tmp_path, capsys):
    g = Graph(range(4), [(0, 1), (2, 3)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset({0, 2}), frozenset({1, 3}))
    code = main(["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(tmp_path / "s.txt")])
    assert code == EXIT_USAGE
    assert "graph must be connected" in capsys.readouterr().err


@pytest.mark.parametrize("n", [4, 8], ids=["fallback", "28-step"])
def test_const_length_computes_the_whole_graph_diameter_once(tmp_path, monkeypatch, n):
    # The 28-step pipeline also measures each component, inside a vertex set.
    calls = []
    monkeypatch.setattr(graph, "diameter", lambda *args, **kw: calls.append(args) or diameter(*args, **kw))
    graph.capped_diameter.cache_clear()
    g = Graph(range(n), [(i, i + 1) for i in range(n - 1)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset(range(0, n, 2)), frozenset(range(1, n, 2)))
    assert main(["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(tmp_path / "s.txt")]) == EXIT_OK
    assert [args for args in calls if len(args) == 1] == [(g,)]


def test_const_length_blocked_small_instance(tmp_path, capsys):
    g = Graph(range(4), [(0, 1), (0, 2), (0, 3)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset({0}), frozenset({1, 2, 3}))
    code = main(["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(tmp_path / "s.txt")])
    assert code == EXIT_NEGATIVE


def test_const_rounds_command(tmp_path, capsys):
    g = Graph(range(10), [(i, i + 1) for i in range(9)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2)))
    out = tmp_path / "sched.txt"
    code = main(["const-rounds", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(out)])
    assert code == EXIT_OK
    assert "rounds_used:" in capsys.readouterr().out
    assert parse_schedule_file(out.read_text()).length == 60


def test_const_rounds_refuses_huge_ids(tmp_path, capsys):
    # 6·(max id + 1) steps could never be built for ids near 1e9.
    ids = [10**9 + i for i in range(20)]
    g = Graph(ids, list(zip(ids, ids[1:])))
    gp, ap, bp = write_instance(tmp_path, g, frozenset(ids[0::2]), frozenset(ids[1::2]))
    out = tmp_path / "sched.txt"
    code = main(["const-rounds", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert str(ids[-1]) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_const_rounds_with_coloring(tmp_path, capsys):
    from misrecon.constrounds import format_coloring_file, greedy_power_coloring
    from misrecon.analysis import gen_gadget

    inst = gen_gadget("alt-cycle", n=40)
    gp, ap, bp = write_instance(tmp_path, inst.graph, inst.alpha, inst.beta)
    cp = tmp_path / "colors.txt"
    cp.write_text(format_coloring_file(greedy_power_coloring(inst.graph)))
    out = tmp_path / "sched.txt"
    base = ["const-rounds", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(out)]
    assert main([*base, "--coloring", str(cp)]) == EXIT_OK
    by_color = capsys.readouterr().out.splitlines()
    assert main(["validate", "--graph", gp, "--alpha", ap, "--beta", bp, "--schedule", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(base) == EXIT_OK
    by_id = capsys.readouterr().out.splitlines()
    # Both slottings pay the same derived 9-round collect.
    assert by_color[0] == "rounds_used: 9"
    assert by_color[:2] == by_id[:2] and by_color[1].startswith("messages_sent: ")


@pytest.mark.parametrize(
    "drop, extra, message",
    [
        ((3, 7), {}, "node 3 has none"),
        ((), {45: 1, 41: 2}, "node 41 is not in the graph"),
        ((5,), {0: 1, 50: 1}, "node 5 has none"),
        ((9,), {2: 1, -1: 1}, "node -1 is not in the graph"),
    ],
    ids=["missing", "unknown", "missing-below-unknown", "unknown-below-missing"],
)
def test_const_rounds_coloring_names_its_least_missing_or_unknown_node(tmp_path, capsys, drop, extra, message):
    from misrecon.analysis import gen_gadget
    from misrecon.constrounds import format_coloring_file

    inst = gen_gadget("alt-path", n=40)
    gp, ap, bp = write_instance(tmp_path, inst.graph, inst.alpha, inst.beta)
    coloring = {v: v + 1 for v in inst.graph.nodes if v not in drop} | extra
    cp = tmp_path / "colors.txt"
    cp.write_text(format_coloring_file(coloring))
    out = tmp_path / "sched.txt"
    code = main(["const-rounds", "--graph", gp, "--alpha", ap, "--beta", bp, "--coloring", str(cp), "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"coloring must assign a color to every node: {message}" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_in_process_calls_leak_no_state(tmp_path, capsys, monkeypatch):
    import misrecon.cli as cli
    from misrecon.analysis import gen_gadget
    from misrecon.constrounds import constant_rounds_schedule, format_coloring_file, greedy_power_coloring
    from misrecon.sim import format_trace

    # One parser serves every call in the process.
    assert cli.build_parser() is cli.build_parser()

    # A usage error leaves nothing behind for the next, good call.
    gp, ap, bp = p4_files(tmp_path)
    sched = tmp_path / "p4.sched"
    sched.write_text("0 2\n0\n0 3\n3\n1 3\n")
    assert main(["validate", "--graph", gp, "--alpha", ap, "--beta", bp]) == EXIT_USAGE
    assert main(["validate", "--graph", gp, "--alpha", ap, "--beta", bp, "--schedule", str(sched)]) == EXIT_OK
    assert capsys.readouterr().out == "valid\n"

    # A --coloring does not outlive its call: the id-slotted call after it
    # prints and writes exactly the id-slotted schedule.  (Up to 33 nodes,
    # every 16-ball is the whole cycle and the greedy colouring the id order.)
    inst = gen_gadget("alt-cycle", n=40)
    gp, ap, bp = write_instance(tmp_path, inst.graph, inst.alpha, inst.beta, "cycle")
    cp = tmp_path / "cycle.coloring"
    cp.write_text(format_coloring_file(greedy_power_coloring(inst.graph)))
    out = tmp_path / "cr.sched"
    base = ["const-rounds", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(out)]
    assert main([*base, "--coloring", str(cp)]) == EXIT_OK
    by_colour = out.read_text()
    capsys.readouterr()
    assert main(base) == EXIT_OK
    expected, trace = constant_rounds_schedule(inst)
    assert capsys.readouterr().out == format_trace(trace) + f"schedule_length: {expected.length}\n"
    assert out.read_text() == format_schedule_file(expected) != by_colour


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["oracle", "--graph", "missing.graph", "--alpha", "x", "--beta", "y"]) == EXIT_USAGE
    assert main(["gen", "--family", "nope", "--out-prefix", str(tmp_path / "x")]) == EXIT_USAGE
    assert main(["nonsense"]) == EXIT_USAGE


def test_graph_parse_error_names_line(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    ap = tmp_path / "a"
    ap.write_text("0\n")
    for text in ("node 0\nedge 0 9\n", "node 0\nedge 0 0\n", "node 0\nnode -1\n"):
        bad.write_text(text)
        code = main(["check", "--graph", str(bad), "--alpha", str(ap), "--beta", str(ap)])
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "line 2" in err and "Traceback" not in err


def test_round_cap_is_not_an_option(tmp_path, capsys):
    # Each MIS run's cap is max(16, 8n + 8), derived from its graph.
    gp, ap, bp = write_instance(
        tmp_path, Graph(range(10), [(i, i + 1) for i in range(9)]),
        frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2)),
    )
    out = tmp_path / "s.txt"
    base = ["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(out)]
    assert main([*base, "--round-cap", "5"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "unrecognized arguments: --round-cap 5" in captured.err and "Traceback" not in captured.err
    assert captured.out == "" and not out.exists()


def test_seed_environment_variable_is_ignored(tmp_path, monkeypatch):
    # --seed is the only way to set the seed; it defaults to 0.
    def gen(*extra):
        prefix = tmp_path / "r"
        assert main(["gen", "--family", "random", "--n", "12", *extra, "--out-prefix", str(prefix)]) == EXIT_OK
        return [prefix.with_suffix(f".{kind}").read_text() for kind in ("graph", "alpha", "beta")]

    seed_0 = gen("--seed", "0")
    assert gen("--seed", "21") != seed_0
    for garbage in ("abc", "21"):
        monkeypatch.setenv("MISRECON_SEED", garbage)
        assert gen() == seed_0


def test_cli_outputs_byte_deterministic(tmp_path):
    g = Graph(range(9), [(i, i + 1) for i in range(8)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset(range(0, 9, 2)), frozenset(range(1, 9, 2)))
    out1, out2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
    for out in (out1, out2):
        assert main([
            "const-length", "--graph", gp, "--alpha", ap, "--beta", bp,
            "--distributed", "--seed", "4", "--out", str(out),
        ]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_beyond_64_bits_exits_2(tmp_path, capsys):
    g = Graph(range(10), [(i, i + 1) for i in range(9)])
    gp, ap, bp = write_instance(tmp_path, g, frozenset(range(0, 10, 2)), frozenset(range(1, 10, 2)))
    base = ["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--subroutine", "luby",
            "--out", str(tmp_path / "s.txt")]
    huge = "99999999999999999999"
    assert main([*base, "--seed", huge]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and huge in err and "Traceback" not in err
    assert not (tmp_path / "s.txt").exists()


def test_node_id_beyond_64_bits_exits_2(tmp_path, capsys):
    # Both MIS subroutines refuse the id at once, and neither writes a
    # schedule; a 4,001-digit id would cost the colour reduction minutes.
    for top in (2**63, 10**4000):
        ids = [top, *range(1, 12)]
        g = Graph(ids, list(zip(ids, ids[1:])))
        gp, ap, bp = write_instance(tmp_path, g, frozenset(ids[0::2]), frozenset(ids[1::2]))
        argv = ["const-length", "--graph", gp, "--alpha", ap, "--beta", bp, "--out", str(tmp_path / "s.txt")]
        for mode in ("deterministic-id", "luby"):
            assert main([*argv, "--subroutine", mode]) == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and str(top) in err and "2**63" in err and "Traceback" not in err
            assert not (tmp_path / "s.txt").exists()


def test_non_utf8_input_file_exits_2(tmp_path, capsys):
    gp, ap, bp = p4_files(tmp_path)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff\xfe")
    for argv in (
        ["check", "--graph", str(bad), "--alpha", ap, "--beta", bp],
        ["validate", "--graph", gp, "--alpha", ap, "--beta", bp, "--schedule", str(bad)],
    ):
        assert main(argv) == EXIT_USAGE, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err and "Traceback" not in err


@pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-3"], ["--p", "2"], ["--p", "-1"], ["--p", "nan"]])
def test_gen_random_refuses_out_of_range_input(tmp_path, capsys, flags):
    argv = ["gen", "--family", "random", "--n", "5", *flags, "--out-prefix", str(tmp_path / "r")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: random needs") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_gen_random_refuses_n_above_its_limit_before_any_draw(tmp_path, capsys, monkeypatch):
    from misrecon import analysis

    def random_graph(*args):
        raise AssertionError("random_graph was called")

    monkeypatch.setattr(analysis, "random_graph", random_graph)
    n = analysis.RANDOM_MAX_N + 1
    argv = ["gen", "--family", "random", "--n", str(n), "--out-prefix", str(tmp_path / "r")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"n={n}" in err and str(analysis.RANDOM_MAX_N) in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flags, named", [
    (["--family", "alt-path", "--n", "8", "--p", "nan"], "p=nan"),
    (["--family", "random", "--n", "5", "--k", "-7"], "k=-7"),
    (["--family", "star", "--k", "3", "--n", "-4"], "n=-4"),
    (["--family", "threedom-linear", "--n", "7", "--p", "9"], "p=9.0"),
    (["--family", "logstar", "--n", "1", "--k", "4"], "n=1, k=4"),
    (["--family", "threedom-linear", "--n", "6"], "threedom-linear needs n >= 7"),
    (["--family", "alt-path", "--n", "1"], "alt-path needs n >= 2"),
])
def test_gen_refuses_unread_sizes_and_raised_logstar_sizes(tmp_path, capsys, flags, named):
    assert main(["gen", *flags, "--out-prefix", str(tmp_path / "g")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_gen_logstar_keeps_its_smallest_ring(tmp_path, capsys):
    argv = ["gen", "--family", "logstar", "--n", "15", "--k", "4", "--out-prefix", str(tmp_path / "g")]
    assert main(argv) == EXIT_OK
    assert (tmp_path / "g.graph").read_text().count("node ") == 15


# Pieces of the four text formats and of what breaks them: huge and negative
# ids, non-ASCII digits, digit separators, NUL and the line breaks that
# ``str.splitlines`` knows beyond newline.
FORMAT_PIECES = [
    "node", "edge", "color", "#", " ", "  ", "\t", "\n", "\n", "\r\n", "\x0b", "\x85", "\u2028", "\x00",
    "0", "1", "2", "3", "9", "-1", "+2", "1_0", "\u0663", "x", "1.5", "99999999999999999999999", "9" * 5000,
]
texts = st.one_of(st.text(), st.lists(st.sampled_from(FORMAT_PIECES), max_size=40).map("".join))
PARSERS = (parse_graph_file, parse_vertex_set_file, parse_schedule_file, parse_coloring_file)


@seed(20261101)
@settings(max_examples=400, deadline=None)
@given(texts)
def test_parsers_raise_only_input_errors(text):
    for parse in PARSERS:
        try:
            parse(text)
        except InputError:
            pass


@seed(20261101)
@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["graph", "alpha", "beta", "schedule"]), texts)
def test_validate_on_arbitrary_text_exits_0_1_or_2(which, text):
    """One of the four files of a valid P4 instance and schedule is replaced
    by arbitrary text; validate must answer with an exit code, not raise."""
    files = {
        "graph": format_graph_file(Graph(range(4), [(0, 1), (1, 2), (2, 3)])),
        "alpha": "0 2\n",
        "beta": "1 3\n",
        "schedule": "0 2\n0\n0 3\n3\n1 3\n",
        which: text,
    }
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["validate"]
        for name, content in files.items():
            path = Path(tmp) / name
            path.write_text(content, encoding="utf-8", errors="surrogatepass")
            argv += [f"--{name}", str(path)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (EXIT_OK, EXIT_NEGATIVE, EXIT_USAGE)
