import dataclasses
import hashlib
import random
from array import array

import pytest

import dynbc.cli as cli
from dynbc import (WEIGHT_SCALE, Graph, SplitMix64, gen_graph, parse_graph,
                   serialize_graph)
from dynbc.cli import parse_update_stream
from dynbc.graph import GraphFormatError
from helpers import RESET_TIE, layered_doubling_graph, layered_graph

PATH_GRAPH = "p bc 3 2 directed\ne 0 1 1\ne 1 2 1\n"
DIAMOND = "p bc 4 4 directed\ne 0 1 1\ne 0 2 1\ne 1 3 1\ne 2 3 1\n"
G1 = "p bc 4 5 directed\ne 0 1 1\ne 1 3 5\ne 0 2 2\ne 2 3 2\ne 0 3 4\n"


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_static_path_graph_output(tmp_path, capsys):
    f = tmp_path / "path.gr"
    f.write_text(PATH_GRAPH)
    rc, out, _ = run(capsys, "static", str(f))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "bc 0 0.000000000000"
    assert lines[1] == "bc 1 1.000000000000"
    assert lines[2] == "bc 2 0.000000000000"
    assert "stat mstar 2" in lines
    assert "stat mstar_avg 2.000000" in lines


def test_static_brandes_and_dagged_byte_identical(tmp_path, capsys):
    f = tmp_path / "g.gr"
    f.write_text(G1)
    rc1, out1, _ = run(capsys, "static", str(f), "--algo", "brandes")
    rc2, out2, _ = run(capsys, "static", str(f), "--algo", "dagged")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_static_counters_flag(tmp_path, capsys):
    f = tmp_path / "g.gr"
    f.write_text(PATH_GRAPH)
    _, out, _ = run(capsys, "static", str(f), "--counters")
    assert any(line.startswith("stat edges_examined ") for line in out.splitlines())


def test_static_g1_reports_all_tight_edges(tmp_path, capsys):
    f = tmp_path / "g1.gr"
    f.write_text(G1)
    _, out, _ = run(capsys, "static", str(f))
    assert "stat mstar 5" in out.splitlines()


def test_static_parse_error_exits_nonzero(tmp_path, capsys):
    f = tmp_path / "bad.gr"
    f.write_text("p bc 2 1 directed\ne 0 1 0\n")
    rc, _, err = run(capsys, "static", str(f))
    assert rc == 2
    assert "line 2" in err


def test_non_ascii_input_files_are_rejected_by_line(tmp_path, capsys):
    bad = tmp_path / "bad.gr"
    bad.write_bytes(b"p bc 2 1 directed\ne 0 1 1\xc2\xb2\n")
    rc, out, err = run(capsys, "static", str(bad))
    assert (rc, out, err) == (2, "", "error: line 2: non-ASCII byte 0xc2\n")

    good = tmp_path / "g.gr"
    good.write_text(PATH_GRAPH)
    upd = tmp_path / "u.txt"
    upd.write_bytes(b"c ok\r\nu e 0 2 \xd9\xa1\n")
    rc, out, err = run(capsys, "stream", str(good), str(upd))
    assert (rc, out, err) == (2, "", "error: line 2: non-ASCII byte 0xd9\n")


def test_stream_single_edge_event_verifies(tmp_path, capsys):
    g = tmp_path / "d2.gr"
    g.write_text(DIAMOND)
    u = tmp_path / "u.up"
    u.write_text("c one event\nu e 0 1 0.5\n")
    rc, out, _ = run(capsys, "stream", str(g), str(u), "--verify")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:4] == [
        "bc 0 0.000000000000",
        "bc 1 0.500000000000",
        "bc 2 0.500000000000",
        "bc 3 0.000000000000",
    ]
    assert "bc 1 1.000000000000" in lines[4:]
    assert "verify 0 pass" in lines
    assert any(line.startswith("stat edges_examined ") for line in lines)


def test_stream_vertex_event_needs_full_mode(tmp_path, capsys):
    g = tmp_path / "d2.gr"
    g.write_text(DIAMOND)
    u = tmp_path / "u.up"
    u.write_text("u v 3 1\ni 1 0.5\n")
    rc, _, err = run(capsys, "stream", str(g), str(u))
    assert rc == 2
    assert "mode" in err

    rc, out, _ = run(capsys, "stream", str(g), str(u), "--mode", "full", "--verify")
    assert rc == 0
    assert "verify 0 pass" in out


def test_stream_empty_updates_emits_static_bc_once(tmp_path, capsys):
    g = tmp_path / "d2.gr"
    g.write_text(DIAMOND)
    u = tmp_path / "u.up"
    u.write_text("c nothing\n")
    rc, out, _ = run(capsys, "stream", str(g), str(u))
    assert rc == 0
    assert out.splitlines() == [
        "bc 0 0.000000000000",
        "bc 1 0.500000000000",
        "bc 2 0.500000000000",
        "bc 3 0.000000000000",
    ]


def test_stream_digest_mode(tmp_path, capsys):
    g = tmp_path / "d2.gr"
    g.write_text(DIAMOND)
    u = tmp_path / "u.up"
    u.write_text("u e 0 1 0.5\n")
    rc, out1, _ = run(capsys, "stream", str(g), str(u), "--digest")
    rc2, out2, _ = run(capsys, "stream", str(g), str(u), "--digest")
    assert rc == rc2 == 0
    assert out1 == out2
    digest_lines = [l for l in out1.splitlines() if l.startswith("stat digest ")]
    assert len(digest_lines) == 2
    assert all(len(l.split()[2]) == 16 for l in digest_lines)


def test_stream_invalid_event_reports_index(tmp_path, capsys):
    g = tmp_path / "d2.gr"
    g.write_text(DIAMOND)
    u = tmp_path / "u.up"
    u.write_text("u e 0 1 0.5\nu e 0 1 0.9\n")
    rc, _, err = run(capsys, "stream", str(g), str(u))
    assert rc == 2
    assert "event 1" in err


def test_stream_rejects_a_self_loop_event_by_index(tmp_path, capsys):
    # the graph's own edge check rejects the event, reported as an update
    # error with its index rather than escaping as a bare format error
    g = tmp_path / "d2.gr"
    g.write_text(DIAMOND)
    u = tmp_path / "u.up"
    u.write_text("u e 1 1 0.5\n")
    rc, out, err = run(capsys, "stream", str(g), str(u))
    assert rc == 2
    assert err == "event 0: self-loop at vertex 1\n"
    assert out.startswith("bc 0 ")


def test_stream_undirected_edge_event_updates_both_twins(tmp_path, capsys):
    g = tmp_path / "und.gr"
    g.write_text("p bc 3 2 undirected\ne 0 1 1\ne 1 2 1\n")
    u = tmp_path / "u.up"
    u.write_text("u e 0 1 0.5\n")
    rc, out, _ = run(capsys, "stream", str(g), str(u), "--verify")
    assert rc == 0
    assert "verify 0 pass" in out


def test_stream_undirected_vertex_event_must_mirror(tmp_path, capsys):
    g = tmp_path / "und.gr"
    g.write_text("p bc 3 2 undirected\ne 0 1 1\ne 1 2 1\n")
    u = tmp_path / "u.up"
    u.write_text("u v 1 1\ni 0 0.5\n")
    rc, _, err = run(capsys, "stream", str(g), str(u), "--mode", "full")
    assert rc == 2
    assert "mirror" in err

    u.write_text("u v 1 2\ni 0 0.5\no 0 0.5\n")
    rc, out, _ = run(capsys, "stream", str(g), str(u), "--mode", "full", "--verify")
    assert rc == 0
    assert "verify 0 pass" in out


def _edge_stream(g, seed, count):
    """Seeded strict decreases and insertions with integer weights: the
    update-stream text and the graph after each event."""
    rng = random.Random(seed)
    lines = []
    graphs = []
    while len(lines) < count:
        u, v = rng.sample(range(g.n), 2)
        old = g.weight(u, v)
        if old is None:
            w = rng.randint(1, 10)
        elif old > WEIGHT_SCALE:
            w = rng.randint(1, old // WEIGHT_SCALE - 1)
        else:
            continue
        lines.append(f"u e {u} {v} {w}\n")
        g = g.with_updates([(u, v, w * WEIGHT_SCALE)])
        graphs.append(g)
    return "".join(lines), graphs


def test_stream_scores_equal_static_on_each_event_graph(tmp_path, capsys):
    # a case with many tied paths: accumulating in peel order instead of
    # settle order prints a different twelfth decimal on 14 of its 20 states
    n = 32
    gf = tmp_path / "g.gr"
    gf.write_text(gen_graph("gnp", n, p=0.3, wmax=5, seed=2))
    updates, graphs = _edge_stream(parse_graph(gf.read_text()), 2, 20)
    uf = tmp_path / "u.up"
    uf.write_text(updates)
    rc, out, _ = run(capsys, "stream", str(gf), str(uf), "--verify")
    assert rc == 0
    lines = out.splitlines()
    assert [l for l in lines if l.startswith("verify")] == [
        f"verify {i} pass" for i in range(20)]
    scores = [l for l in lines if l.startswith("bc ")]
    assert len(scores) == 21 * n
    for i, g in enumerate(graphs):
        sf = tmp_path / f"g{i}.gr"
        sf.write_text(serialize_graph(g))
        _, static_out, _ = run(capsys, "static", str(sf))
        assert scores[(i + 1) * n:(i + 2) * n] == static_out.splitlines()[:n], i


def test_verify_fails_on_injected_corruption(tmp_path, capsys, monkeypatch):
    g = tmp_path / "d2.gr"
    g.write_text(DIAMOND)
    u = tmp_path / "u.up"
    u.write_text("u e 0 1 0.5\n")
    real = cli.incremental_bc_edge

    def corrupting(state, upd):
        out = real(state, upd)
        out.sigma[0][3] += 1.0
        return out

    monkeypatch.setattr(cli, "incremental_bc_edge", corrupting)
    rc, out, _ = run(capsys, "stream", str(g), str(u), "--verify")
    assert rc == 1
    assert "verify 0 fail" in out


def test_stream_verify_is_independent_of_the_builder(tmp_path, capsys, monkeypatch):
    # the stream builds with static_bc and verifies with brandes_bc, so a
    # build fault fails --verify: here the dependency row of source 2,
    # which the event (0, 1) cannot reach, is off in the built state
    g = tmp_path / "d2.gr"
    g.write_text(DIAMOND)
    u = tmp_path / "u.up"
    u.write_text("u e 0 1 0.5\n")
    real = cli.static_bc

    def faulty(graph, mode):
        st = real(graph, mode)
        row = array("d", st.deltas[2])
        row[3] += 1.0
        return dataclasses.replace(st, deltas=[*st.deltas[:2], row, *st.deltas[3:]])

    monkeypatch.setattr(cli, "static_bc", faulty)
    for mode in ("edge-fast", "full"):
        rc, out, _ = run(capsys, "stream", str(g), str(u), "--verify", "--mode", mode)
        assert rc == 1
        assert "verify 0 fail" in out.splitlines()


def _doubling_graph_text(layers):
    """Chain of 2-wide layers whose path count doubles per layer; 56 layers
    push the counts past 2**53."""
    edges = ["e 0 1 1", "e 0 2 1"]
    for i in range(1, layers):
        a, b = 2 * i - 1, 2 * i
        edges += [f"e {a} {a + 2} 1", f"e {a} {b + 2} 1",
                  f"e {b} {a + 2} 1", f"e {b} {b + 2} 1"]
    return f"p bc {2 * layers + 1} {len(edges)} directed\n" + "\n".join(edges) + "\n"


def test_inexact_state_is_reported(tmp_path, capsys):
    clear = tmp_path / "path.gr"
    clear.write_text(PATH_GRAPH)
    _, out, err = run(capsys, "static", str(clear))
    assert not any(l.startswith("stat inexact") for l in out.splitlines())
    assert err == ""

    g = tmp_path / "doubling.gr"
    g.write_text(_doubling_graph_text(56))
    n = 2 * 56 + 1
    rc, out, err = run(capsys, "static", str(g))
    assert rc == 0
    lines = out.splitlines()
    assert lines[n - 1].startswith(f"bc {n - 1} ")
    assert lines[n] == "stat inexact 1"
    assert err.count("warning:") == 1 and "inexact" in err


def test_static_algos_agree_when_a_reset_tie_passed_2_to_the_53(tmp_path, capsys):
    # a tentative count passes 2**53 before a shorter path resets it:
    # neither builder flags the state, so their outputs stay identical
    g = tmp_path / "reset.gr"
    g.write_text(serialize_graph(layered_doubling_graph(54, 2, RESET_TIE)))
    brandes = run(capsys, "static", str(g), "--algo", "brandes")
    dagged = run(capsys, "static", str(g), "--algo", "dagged")
    assert brandes == dagged
    rc, out, err = brandes
    assert rc == 0 and err == "" and "stat inexact" not in out


def test_stream_verify_fails_inexact_states(tmp_path, capsys):
    g = tmp_path / "doubling.gr"
    g.write_text(_doubling_graph_text(56))
    u = tmp_path / "u.up"
    u.write_text("u e 0 1 0.5\nu e 0 2 0.5\n")
    rc, out, err = run(capsys, "stream", str(g), str(u), "--verify", "--digest")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0].startswith("stat digest ")
    assert lines[1] == "stat inexact 1"
    assert lines.count("stat inexact 1") == 3
    assert "verify 0 fail" in lines and "verify 1 fail" in lines
    assert err.count("warning:") == 1


@pytest.mark.parametrize("argv", [["static", "{g}", "--digest"], ["stream", "{g}", "{u}"]])
def test_more_than_2_to_the_1024_paths_exit_2(tmp_path, capsys, argv):
    # 650 layers of width 3: 3**649 shortest paths from vertex 0 to the
    # last layer, a count no float holds
    g, u = tmp_path / "layered.gr", tmp_path / "u.up"
    g.write_text(serialize_graph(layered_graph(650, 3)))
    u.write_text("")
    rc, out, err = run(capsys, *[arg.format(g=g, u=u) for arg in argv])
    assert (rc, out) == (2, "")
    assert err == ("error: a shortest-path count exceeds the float range "
                   "(int too large to convert to float)\n")


def test_stream_reports_an_update_that_makes_the_state_inexact(tmp_path, capsys):
    # z = 109 is fed by vertex 107 alone: sigma(0, z) = 2**53 is exact until
    # the tied edge (108, z) doubles it; a later event keeps the marker
    base = layered_doubling_graph(54)
    g = tmp_path / "doubling.gr"
    g.write_text(serialize_graph(
        Graph(110, list(base.edges()) + [(107, 109, WEIGHT_SCALE)])))
    u = tmp_path / "u.up"
    u.write_text("u e 108 109 1\nu e 0 109 100\n")
    rc, out, err = run(capsys, "stream", str(g), str(u))
    assert rc == 0
    lines = out.splitlines()
    first = 110 + 110  # the initial scores, then event 0's scores
    assert "stat inexact 1" not in lines[:first]
    assert lines[first] == "stat inexact 1"
    assert lines.count("stat inexact 1") == 2
    assert err.count("warning:") == 1 and "inexact" in err


def test_gen_complete_counts_and_determinism(tmp_path, capsys):
    rc, out1, _ = run(capsys, "gen", "--model", "complete", "--n", "4", "--seed", "9")
    rc2, out2, _ = run(capsys, "gen", "--model", "complete", "--n", "4", "--seed", "9")
    assert rc == rc2 == 0
    assert out1 == out2
    g = parse_graph(out1)
    assert g.n == 4 and g.m == 12
    rc3, out3, _ = run(capsys, "gen", "--model", "complete", "--n", "4", "--seed", "10")
    assert out3 != out1


def test_gen_writes_file_and_gnp_parses(tmp_path, capsys):
    out_file = tmp_path / "g.gr"
    rc, _, _ = run(capsys, "gen", "--model", "gnp", "--n", "12", "--p", "0.4",
                   "--wmax", "9", "--seed", "3", "-o", str(out_file))
    assert rc == 0
    g = parse_graph(out_file.read_text())
    assert g.n == 12
    assert all(1 <= w <= 9 * 10**6 and w % 10**6 == 0 for _, _, w in g.edges())

    rc, out, _ = run(capsys, "gen", "--model", "gnp", "--n", "8", "--p", "0.5",
                     "--seed", "1", "--undirected")
    assert parse_graph(out).undirected


@pytest.mark.parametrize("argv, message", [
    (("--model", "gnp", "--n", "8"), "gnp requires"),
    (("--model", "complete", "--n", "8", "--p", "0.01"), "complete takes no p"),
    # n * wmax * 10**6 >= 2**63 - 1, which ``dynbc static`` would reject
    (("--model", "gnp", "--n", "8", "--p", "0.5", "--wmax", str(10**13)),
     f"wmax {10**13} too large"),
    # above 2**64 no splitmix64 draw could be accepted
    (("--model", "complete", "--n", "8", "--wmax", str(2**64 + 1)), "too large"),
    (("--model", "complete", "--n", "1"), "n must be at least 2"),
    (("--model", "gnp", "--n", "8", "--p", "0.5", "--wmax", "0"), "wmax must be at least 1"),
], ids=["gnp-without-p", "complete-with-p", "wmax-overflows-distances",
        "wmax-above-2-to-64", "one-vertex", "wmax-zero"])
def test_gen_rejects_bad_parameters(capsys, argv, message):
    rc, out, err = run(capsys, "gen", *argv)
    assert rc == 2 and message in err and out == ""


def test_gen_graph_rejects_unknown_model():
    # the command line offers only the two models; the library names the third
    with pytest.raises(ValueError, match="unknown model 'grid'"):
        gen_graph("grid", 8)


def test_stats_subcommand(tmp_path, capsys):
    f = tmp_path / "g1.gr"
    f.write_text(G1)
    rc, out, _ = run(capsys, "stats", str(f), "--per-vertex")
    assert rc == 0
    lines = out.splitlines()
    assert "stat mstar 5" in lines
    assert any(l.startswith("stat mstar_avg ") for l in lines)
    assert any(l.startswith("stat mstar_x[0] ") for l in lines)
    assert any(l.startswith("stat mstar_dag[0] ") for l in lines)
    # stats builds with the oracle, so its counters are static brandes's
    _, out, _ = run(capsys, "stats", str(f), "--counters")
    _, static_out, _ = run(capsys, "static", str(f), "--algo", "brandes", "--counters")
    counters = [l for l in out.splitlines()
                if l.split()[1] in ("edges_examined", "pairs_touched", "dag_edges_emitted")]
    assert len(counters) == 3 and set(counters) <= set(static_out.splitlines())


def test_update_stream_parser_edge_and_vertex_events():
    events = parse_update_stream(
        "c s\nu e 0 1 2.5\nu v 3 3\ni 1 0.5\nc interleaved\no 2 1\ni 0 4\n")
    assert len(events) == 2
    e = events[0]
    assert (e.u, e.v, e.weight) == (0, 1, 2_500_000)
    v = events[1]
    assert v.v == 3
    assert v.incoming == ((1, 500_000), (0, 4_000_000))
    assert v.outgoing == ((2, 1_000_000),)
    # CRLF line ends, and blank and comment lines between a vertex header
    # and its entries
    events = parse_update_stream(
        "u v 3 3\r\n\r\nc between\r\n  \r\ni 1 0.5\r\nc\r\no 2 1\r\n\ti 0 4\r\n"
        "u e 0 1 2.5\r\n")
    assert events == [v, e]


@pytest.mark.parametrize("text,fragment", [
    ("x 0 1 1\n", "unrecognized"),
    ("u\n", "^line 1: unrecognized update event$"),
    ("u x\n", "^line 1: unrecognized update event$"),
    ("u e 0 1\n", "malformed edge event"),
    ("u v 3 2\ni 1 0.5\n", "entry lines"),
    ("u v 3 1\nz 1 0.5\n", "entry"),
    ("u e 0 1 1.1234567\n", "fractional"),
    # str.isdigit alone accepts these; only ASCII digits are numbers here
    ("u e \u0661 0 1\n", "line 1: malformed vertex id"),
    ("u e 0 1 \u00b2\n", "line 1: malformed weight"),
    ("u v \u0663 1\ni 1 1\n", "line 1: malformed vertex event"),
    ("u v 3 1\ni \u0661 1\n", "line 2: malformed vertex-event entry"),
    # only ASCII whitespace separates fields and lines
    ("u\u3000e 0 1 1\n", "line 1: non-ASCII separator U\\+3000"),
    ("c\nu e 0 1 1\u2028u e 1 0 1\n", "line 2: non-ASCII separator U\\+2028"),
    ("u v 3 1\ni 1\u20281\n", "line 2: non-ASCII separator U\\+2028"),
    # a vertex event names its header when only comments remain, and an
    # entry names its own line after a comment, with LF or CRLF line ends
    ("u v 3 2\ni 1 0.5\nc a\n\nc b\n",
     "^line 1: vertex event expects 2 entry lines, found 1$"),
    ("u v 3 2\ni 1 0.5\nc x\no 2 x\n", "^line 4: malformed weight 'x'$"),
    ("u e 0 1 1\r\nu v 3 1\r\nc\r\ni 1 x\r\n", "^line 4: malformed weight 'x'$"),
])
def test_update_stream_parser_errors(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_update_stream(text)


def test_splitmix_stream_is_stable():
    rng = SplitMix64(0)
    first = [rng.next_u64() for _ in range(3)]
    rng2 = SplitMix64(0)
    assert [rng2.next_u64() for _ in range(3)] == first
    draws = [SplitMix64(5).uniform_int(10) for _ in range(1)]
    assert all(1 <= d <= 10 for d in draws)
    u = SplitMix64(5).unit()
    assert 0.0 <= u < 1.0
    # the widest range accepts every draw; a wider or empty one none
    assert 1 <= SplitMix64(5).uniform_int(2**64) <= 2**64
    for k in (0, 2**64 + 1):
        with pytest.raises(ValueError, match="outside"):
            SplitMix64(5).uniform_int(k)


@pytest.mark.parametrize("model,n,p,wmax,undirected,seed,digest", [
    ("complete", 9, None, None, False, 0,
     "d5959e70c82962fea479d36342fcda2ea8d6e289a2839a16437b414de232ffa3"),
    ("complete", 9, None, None, False, 101,
     "34c17c02e0acd5d37edba1ceb84b754fdef5d14484072be5fef6e25a0a83d14f"),
    ("complete", 9, None, None, True, 7,
     "5a30bee9fda4ef0ee3018159a7bb4c7ce1a68eaf8611b28cbb524f6e44cc6701"),
    ("gnp", 20, 0.3, None, False, 7,
     "4d5067a79d7b5e3bc8c2ce262148dd958b37f0a0311f8f8eff21a23fd27017b7"),
    ("gnp", 20, 0.3, None, True, 0,
     "a074838cb51e179b3f4a4ff8e764469812ddc4e76b1700c05c224b857893dc8d"),
    ("gnp", 20, 0.3, None, True, 101,
     "f25753d34c8f7cee2d5971f1a4718081f5d84de74eca191cb97b90fbba669916"),
    ("gnp", 30, 0.1, 9, False, 0,
     "3a63c2d81b977882f3d9d9c62b18706e99fe6a9e0a53df08f0ab7f38b00fd402"),
    ("gnp", 30, 0.1, 9, True, 7,
     "9e103089420ddc2d1a74335e9c770b4194c5607f47f8480b3426b30aefbce806"),
])
def test_gen_graph_text_is_pinned(model, n, p, wmax, undirected, seed, digest):
    # benchmark graphs come from gen_graph, so its bytes must never move
    text = gen_graph(model, n, p=p, wmax=wmax, seed=seed, undirected=undirected)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == digest


def test_gen_graph_text_stable_for_seed():
    a = gen_graph("gnp", 10, p=0.3, wmax=7, seed=42)
    b = gen_graph("gnp", 10, p=0.3, wmax=7, seed=42)
    assert a == b
