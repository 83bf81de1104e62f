import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dynbc.graph as graph
from dynbc import (
    DIST_LIMIT,
    Graph,
    GraphFormatError,
    WEIGHT_SCALE,
    format_weight,
    gen_graph,
    parse_graph,
    parse_weight,
    serialize_graph,
)
from dynbc.cli import parse_update_stream
from helpers import build, count_calls, diamond, gnp

W = WEIGHT_SCALE


def test_parse_directed_decimal_weight():
    g = parse_graph("p bc 2 1 directed\ne 0 1 1.5\n")
    assert g.n == 2 and g.m == 1 and not g.undirected
    assert g.weight(0, 1) == 1_500_000


def test_parse_undirected_doubles_edges():
    g = parse_graph("p bc 2 1 undirected\ne 0 1 2\n")
    assert g.undirected
    assert g.weight(0, 1) == 2 * W and g.weight(1, 0) == 2 * W
    assert g.m == 2


def test_parse_comments_and_blank_lines():
    g = parse_graph("c header comment\n\np bc 3 1 directed\nc mid\ne 0 2 3\n")
    assert g.weight(0, 2) == 3 * W


@pytest.mark.parametrize("text,fragment", [
    ("p bc 2 1 directed\ne 0 1 0\n", "non-positive"),
    ("p bc 2 1 directed\ne 0 1 0.0\n", "non-positive"),
    ("p bc 2 2 directed\ne 0 1 1\ne 0 1 2\n", "duplicate"),
    ("p bc 2 1 undirected\ne 0 1 1\nc\n", None),  # valid; control case below
    ("p bc 2 2 undirected\ne 0 1 1\ne 1 0 1\n", "duplicate"),
    ("p bc 2 1 directed\ne 0 0 1\n", "self-loop"),
    ("p bc 2 1 directed\ne 0 2 1\n", "out of range"),
    ("p bc 2 1 directed\ne 0 1 9223372036854\n", "line 2: weights too large"),
    ("p bc 2 1 directed\ne 0 1 1.1234567\n", "fractional"),
    ("p bc 2 1 directed\ne 0 1 -3\n", "malformed"),
    ("p bc 2 1 directed\ne 0 1 x\n", "malformed"),
    # str.isdigit alone accepts these; only ASCII digits are numbers here
    ("p bc 2 1 directed\ne 0 \u0661 1\n", "line 2: malformed vertex id"),
    ("p bc 2 1 directed\ne 0 1 \u00b2\n", "line 2: malformed weight"),
    ("p bc 2 1 directed\ne 0 1 1.\u00b2\n", "line 2: malformed weight"),
    ("p bc \u0662 1 directed\ne 0 1 1\n", "line 1: malformed vertex count"),
    (b"p bc 2 1 directed\ne 0 1 1\xc2\xb2\n", "line 2: non-ASCII byte 0xc2"),
    (b"c \xff\r\np bc 2 1 directed\ne 0 1 1\n", "line 1: non-ASCII byte 0xff"),
    # only ASCII whitespace separates: U+3000 would split fields, U+2028 lines
    ("p bc 2 1 directed\ne\u30000 1 1\n", "line 2: non-ASCII separator U\\+3000"),
    ("p bc 2 1 directed\u2028e 0 1 1\n", "line 1: non-ASCII separator U\\+2028"),
    ("c\r\n\n\u00a0p bc 2 1 directed\ne 0 1 1\n", "line 3: non-ASCII separator U\\+00A0"),
    ("e 0 1 1\n", "before header"),
    ("p bc 2 1 directed\n", "expected 1 edge"),
    # a short edge count names the header's line
    ("p bc 2 2 directed\ne 0 1 1\n", "^line 1: expected 2 edge lines, found 1$"),
    ("c\n\nc x\np bc 3 2 directed\ne 0 1 1\nc\n", "^line 4: expected 2 edge lines, found 1$"),
    ("c only\np bc 2 1 undirected\n", "^line 2: expected 1 edge lines, found 0$"),
    ("p bc 2 0 directed\ne 0 1 1\n", "more than the declared"),
    ("p bc 2 1 directed\np bc 2 1 directed\ne 0 1 1\n", "duplicate header"),
    ("p bc 2 1 sideways\ne 0 1 1\n", "directedness"),
    ("q 1\n", "unrecognized"),
    ("", "missing header"),
    ("p bc 2 1\ne 0 1 1\n", "line 1: malformed header"),
    ("p bc 0 0 directed\n", "line 1: vertex count must be at least 1"),
    ("p bc 2 1 directed\ne 0 1\n", "line 2: malformed edge line"),
])
def test_parse_errors(text, fragment):
    if fragment is None:
        parse_graph(text)
        return
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(text)


def test_parse_errors_carry_line_numbers():
    with pytest.raises(GraphFormatError, match="line 3"):
        parse_graph("c\np bc 2 1 directed\ne 0 1 0\n")


def _graph_of(text):
    """The graph a valid file describes, built by ``Graph(n, edges)`` from
    its records read without ``parse_graph``."""
    records = [f for f in map(str.split, text.splitlines()) if f and f[0][0] != "c"]
    _, _, n, _, kind = records[0]
    edges = [(int(u), int(v), parse_weight(w)) for _, u, v, w in records[1:]]
    if kind == "undirected":
        edges += [(v, u, w) for u, v, w in edges]
    return Graph(int(n), edges, undirected=kind == "undirected")


# the three benchmark graphs (perfbench's workloads) at seeds 1-3, and every
# valid text of the parse tests
BENCH_GRAPHS = [("complete", 144, None, 144 * 144), ("gnp", 256, 0.02, 4),
                ("gnp", 192, 0.05, 100)]
VALID_TEXTS = [text for text, fragment in test_parse_errors.pytestmark[0].args[1]
               if fragment is None] + [
    "p bc 2 1 directed\ne 0 1 1.5\n",
    "p bc 2 1 undirected\ne 0 1 2\n",
    "c header comment\n\np bc 3 1 directed\nc mid\ne 0 2 3\n",
]


@pytest.mark.parametrize("text", VALID_TEXTS + [
    gen_graph(model, n, p=p, wmax=wmax, seed=seed)
    for model, n, p, wmax in BENCH_GRAPHS for seed in (1, 2, 3)])
def test_parse_builds_the_graph_its_edges_build(text):
    g, ref = parse_graph(text), _graph_of(text)
    assert (g.n, g.m, g.undirected) == (ref.n, ref.m, ref.undirected)
    assert g.adj == ref.adj and g.radj == ref.radj


@pytest.mark.parametrize("undirected", [False, True])
def test_parse_checks_each_edge_once(monkeypatch, undirected):
    text = gen_graph("gnp", 30, p=0.3, wmax=9, seed=4, undirected=undirected)
    m = int(text.split()[3])
    calls = count_calls(monkeypatch, graph, "_check_edge")

    def unchecked(*args, **kwargs):
        raise AssertionError("parse_graph built its graph with Graph()")

    monkeypatch.setattr(graph.Graph, "__init__", unchecked)
    g = parse_graph(text)
    assert len(calls) == m and g.m == m * (1 + undirected)


ZEROS, LONG = "0" * 5000, "9" * 5000


@pytest.mark.parametrize("parse, padded, plain", [
    (parse_graph, f"p bc 2 1 directed\ne 0 {ZEROS}1 1\n", "p bc 2 1 directed\ne 0 1 1\n"),
    (parse_graph, f"p bc {ZEROS}2 1 directed\ne 0 1 1\n", "p bc 2 1 directed\ne 0 1 1\n"),
    (parse_graph, f"p bc 2 {ZEROS}1 directed\ne 0 1 1\n", "p bc 2 1 directed\ne 0 1 1\n"),
    (parse_graph, f"p bc 2 1 directed\ne 0 1 {ZEROS}1\n", "p bc 2 1 directed\ne 0 1 1\n"),
    (parse_graph, f"p bc 2 1 directed\ne 0 1 {ZEROS}.5\n", "p bc 2 1 directed\ne 0 1 0.5\n"),
    (parse_update_stream, f"u e 0 {ZEROS}1 1\n", "u e 0 1 1\n"),
    (parse_update_stream, f"u e 0 1 {ZEROS}1.5\n", "u e 0 1 1.5\n"),
    (parse_update_stream, f"u v {ZEROS} 1\ni 1 1\n", "u v 0 1\ni 1 1\n"),
    (parse_update_stream, f"u v 0 {ZEROS}1\ni 1 1\n", "u v 0 1\ni 1 1\n"),
    (parse_update_stream, f"u v 0 1\ni {ZEROS}1 1\n", "u v 0 1\ni 1 1\n"),
], ids=["vertex-id", "vertex-count", "edge-count", "weight", "weight-fraction",
        "event-vertex-id", "event-weight", "event-v", "event-k", "entry-id"])
def test_zero_padded_numbers_read_as_their_value(parse, padded, plain):
    # CPython's int() refuses a run past 4300 digits, leading zeros counted
    assert parse(padded) == parse(plain)


@pytest.mark.parametrize("parse, text, message", [
    (parse_graph, f"p bc 2 1 directed\ne 0 {LONG} 1\n", "line 2: malformed vertex id"),
    (parse_graph, f"p bc {LONG} 1 directed\ne 0 1 1\n", "line 1: malformed vertex count"),
    (parse_graph, f"p bc 2 {LONG} directed\n", "line 1: malformed edge count"),
    (parse_graph, f"p bc 2 1 directed\ne 0 1 {LONG}\n", "line 2: malformed weight"),
    (parse_graph, f"c\np bc 2 1 directed\ne 0 1 {ZEROS}{LONG}.5\n", "line 3: malformed weight"),
    (parse_update_stream, f"u e {LONG} 1 1\n", "line 1: malformed vertex id in edge event"),
    (parse_update_stream, f"u e 0 1 {LONG}\n", "line 1: malformed weight"),
    (parse_update_stream, f"u v {LONG} 1\ni 1 1\n", "line 1: malformed vertex event"),
    (parse_update_stream, f"u v 0 {LONG}\ni 1 1\n", "line 1: malformed vertex event"),
    (parse_update_stream, f"u v 0 1\nc\ni {LONG} 1\n", "line 3: malformed vertex-event entry"),
], ids=["vertex-id", "vertex-count", "edge-count", "weight", "padded-weight",
        "event-vertex-id", "event-weight", "event-v", "event-k", "entry-id"])
def test_numbers_too_long_to_read_are_malformed_tokens(parse, text, message):
    with pytest.raises(GraphFormatError, match=f"^{message}"):
        parse(text)


# Grammar-aware random texts of both formats: well-formed records whose
# fields are each replaced, at a rate drawn per text, by a fault token.  A
# fault is a digit run of any length (leading zeros too), a near-number,
# or a mix.  A header's vertex count is never a well-formed value above
# 64, as a graph allocates its rows.
RUN_SIZES = st.sampled_from([0, 0, 1, 3, 4299, 4300, 4301, 6000])
NEAR_NUMBERS = st.sampled_from([
    "-1", "+2", "1e3", "2E-1", "1.", ".5", "1.0000001", "1.2.3", "0x1f", "1_0",
    "inf", "nan", "x", "\u0661", "\u00b2", "\uff11", "\u0e53", "\u00e9"])


def _padded(values):
    return st.builds(lambda zeros, x: "0" * zeros + str(x), RUN_SIZES, values)


LONG_RUNS = st.builds(str.__mul__, st.sampled_from("19"), st.sampled_from([4301, 6000]))
MIXES = st.tuples(_padded(st.integers(0, 99)), NEAR_NUMBERS, st.sampled_from(["", "1"])).map("".join)
FAULTS = st.one_of(NEAR_NUMBERS, MIXES, LONG_RUNS,
                   st.builds(str.__mul__, st.sampled_from("19"), RUN_SIZES.filter(bool)),
                   _padded(st.integers(0, 10**9)))
COUNT_FAULTS = st.one_of(NEAR_NUMBERS, MIXES, LONG_RUNS)
# mostly plain ASCII; now and then a separator or line end that is refused,
# or one that str.splitlines honours
SEPARATORS = [" "] * 6 + ["\t", "  ", "\x0b", "\u3000", "\u00a0"]
LINE_ENDS = ["\n"] * 6 + ["\r\n", "\r", "\x0c", "\u2028", "\x85"]


def _field(draw, rate, valid, faults=FAULTS):
    return draw(faults if draw(st.integers(0, 9)) < rate else valid)


def _record(draw, rate, fields):
    """One line of ``fields``, at the fault rate one field short or one over."""
    if draw(st.integers(0, 19)) < rate:
        fields.pop(draw(st.integers(0, len(fields) - 1)))
    elif draw(st.integers(0, 19)) < rate:
        fields.insert(draw(st.integers(0, len(fields))), draw(FAULTS))
    odd = draw(st.integers(0, 29)) < rate
    seps = [draw(st.sampled_from(SEPARATORS if odd else SEPARATORS[:8])) for _ in fields]
    return "".join(f + sep for f, sep in zip(fields, seps)).rstrip(" ")


def _text(draw, rate, lines):
    """``lines`` with comments and blank lines among them, joined by line
    ends."""
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", "c", "c " + draw(FAULTS)])))
    odd = draw(st.integers(0, 29)) < rate
    ends = [draw(st.sampled_from(LINE_ENDS if odd else LINE_ENDS[:6])) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


RATES = st.sampled_from([0, 0, 1, 3])
WEIGHTS = st.one_of(_padded(st.integers(1, 99)), _padded(st.integers(1, 9)).map(lambda w: w + ".25"))


@st.composite
def graph_texts(draw):
    rate, n = draw(RATES), draw(st.integers(1, 12))
    ids = _padded(st.integers(0, n - 1))
    edges = [_record(draw, rate, ["e", _field(draw, rate, ids), _field(draw, rate, ids),
                                  _field(draw, rate, WEIGHTS)])
             for _ in range(draw(st.integers(0, 6)))]
    header = ["p", "bc", _field(draw, rate, _padded(st.just(n)), COUNT_FAULTS),
              _field(draw, rate, _padded(st.just(len(edges)))),
              _field(draw, rate, st.sampled_from(["directed", "undirected"]), NEAR_NUMBERS)]
    if draw(st.integers(0, 19)) >= rate:  # a header, most often first
        at = len(edges) if draw(st.integers(0, 19)) < rate else 0
        edges.insert(at, _record(draw, rate, header))
    return _text(draw, rate, edges)


@st.composite
def stream_texts(draw):
    rate, lines = draw(RATES), []
    ids = _padded(st.integers(0, 9))
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            lines.append(_record(draw, rate, ["u", "e", _field(draw, rate, ids),
                                              _field(draw, rate, ids), _field(draw, rate, WEIGHTS)]))
            continue
        entries = [_record(draw, rate, [_field(draw, rate, st.sampled_from("io"), NEAR_NUMBERS),
                                        _field(draw, rate, ids), _field(draw, rate, WEIGHTS)])
                   for _ in range(draw(st.integers(0, 3)))]
        k = _field(draw, rate, _padded(st.just(len(entries))))
        lines += [_record(draw, rate, ["u", "v", _field(draw, rate, ids), k])] + entries
    return _text(draw, rate, lines)


def _parses_or_names_its_line(parse, text):
    try:
        parse(text)
    except GraphFormatError as exc:
        assert re.match(r"line \d+: ", str(exc)) or str(exc).startswith("missing header"), exc


@settings(max_examples=120, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(graph_texts(), stream_texts())
def test_every_input_parses_or_names_its_line(graph_text, stream_text):
    _parses_or_names_its_line(parse_graph, graph_text)
    _parses_or_names_its_line(parse_graph, graph_text.encode("utf-8"))
    _parses_or_names_its_line(parse_update_stream, stream_text)


def test_overflow_risk_rejected_at_load():
    huge = (2**63 - 1) // 2
    with pytest.raises(GraphFormatError, match="overflow"):
        Graph(4, [(0, 1, huge)])


@pytest.mark.parametrize("n, edges, message", [
    (0, [], "vertex count must be at least 1"),
    (2, [(0, 1, W), (0, 1, 2 * W)], r"duplicate edge \(0, 1\)"),
    (3, [(0, 1, 1.5), (1, 2, 2), (0, 2, 3.5)], r"non-integer weight on edge \(0, 1\)"),
    (2, [(0, 1, float("nan"))], r"non-integer weight on edge \(0, 1\)"),
])
def test_constructor_rejects_bad_graphs(n, edges, message):
    with pytest.raises(GraphFormatError, match=message):
        Graph(n, edges)


def test_weight_roundtrip_formats():
    for text, scaled in [("1.5", 1_500_000), ("2", 2_000_000),
                         ("0.000001", 1), ("10.25", 10_250_000)]:
        assert parse_weight(text) == scaled
        assert parse_weight(format_weight(scaled)) == scaled


def test_serialize_parse_roundtrip_directed_and_undirected():
    for seed in range(4):
        for undirected in (False, True):
            g = gnp(9, 0.4, 17, seed=seed + 10 * undirected, undirected=undirected)
            again = parse_graph(serialize_graph(g))
            assert again == g
            assert parse_graph(serialize_graph(again)) == again


def test_reverse_definition_and_involution():
    g = build(2, [(0, 1, 1)])
    r = g.reverse()
    assert r.weight(1, 0) == W and r.weight(0, 1) is None
    assert r.reverse() == g

    d = diamond()
    rd = d.reverse()
    assert {(u, v) for u, v, _ in rd.edges()} == {(1, 0), (2, 0), (3, 1), (3, 2)}
    assert rd.reverse() == d


def _in_rows(g):
    """In-rows built from scratch: for each head, its (tail, w) by tail."""
    rows = [[] for _ in range(g.n)]
    for u, v, w in g.edges():
        rows[v].append((u, w))
    return [sorted(row) for row in rows]


@pytest.mark.parametrize("undirected", [False, True])
def test_in_rows_match_the_edges_after_construction_and_updates(undirected):
    rng = random.Random(29 + undirected)
    g = gnp(12, 0.3, 9, seed=21 + undirected, undirected=undirected)
    assert g.radj == _in_rows(g)
    kinds = set()
    for _ in range(30):
        u, v = rng.sample(range(g.n), 2)
        old = g.weight(u, v)
        if old == 1:
            continue
        w = rng.randint(1, old - 1) if old else rng.randint(1, 9 * W)
        kinds.add("decrease" if old else "insert")
        # an undirected update sets both twins; the last change of a pair wins
        changes = [(u, v, w + 1), (u, v, w)] + ([(v, u, w)] if undirected else [])
        g = g.with_updates(changes)
        assert g.radj == _in_rows(g)
        if undirected:
            assert g.radj == g.adj
    assert kinds == {"decrease", "insert"}
    r = g.reverse()
    assert r.adj is g.radj and r.radj is g.adj
    assert r.reverse() == g and r.reverse().radj == g.radj


def test_reverse_preserves_weights_bijectively():
    g = gnp(10, 0.5, 50, seed=3)
    r = g.reverse()
    assert r.m == g.m
    for u, v, w in g.edges():
        assert r.weight(v, u) == w
    assert r.adj == Graph(r.n, r.edges()).adj


def _undirected_brute_dist(n, und_edges, s):
    """Simple-path enumeration over an undirected edge list; independent of
    the library's doubled representation."""
    adj = [[] for _ in range(n)]
    for u, v, w in und_edges:
        adj[u].append((v, w))
        adj[v].append((u, w))
    best = [None] * n
    best[s] = 0

    def walk(u, total, mask):
        for x, w in adj[u]:
            bit = 1 << x
            if mask & bit:
                continue
            nt = total + w
            if best[x] is None or nt < best[x]:
                best[x] = nt
            walk(x, nt, mask | bit)

    walk(s, 0, 1 << s)
    return best


def test_doubled_graph_preserves_undirected_distances():
    from dynbc import counting_dijkstra, INF

    rng = random.Random(5)
    for _ in range(6):
        n = rng.randint(3, 8)
        und = []
        seen = set()
        for _ in range(rng.randint(2, 12)):
            u, v = rng.randrange(n), rng.randrange(n)
            if u == v or (min(u, v), max(u, v)) in seen:
                continue
            seen.add((min(u, v), max(u, v)))
            und.append((u, v, rng.randint(1, 9) * W))
        if not und:
            continue
        doubled = [(u, v, w) for u, v, w in und] + [(v, u, w) for u, v, w in und]
        g = Graph(n, doubled, undirected=True)
        for s in range(n):
            res = counting_dijkstra(g.adj, s, {})
            brute = _undirected_brute_dist(n, und, s)
            for t in range(n):
                expect = brute[t] if brute[t] is not None else INF
                assert res.dist[t] == expect


def test_weight_of_absent_or_out_of_range_pairs_is_none():
    # the last row holds (0, 1), so a row lookup that wrapped u=-1 would find it
    g = build(3, [(0, 1, 1), (2, 0, 1)])
    n = g.n
    assert g.weight(0, 1) == W and g.weight(2, 0) == W and g.weight(1, 0) is None
    for u, v in [(-1, 0), (n, 0), (0, -1), (0, n)]:
        assert g.weight(u, v) is None


def test_undirected_constructor_requires_mirror():
    with pytest.raises(GraphFormatError, match="mirror"):
        Graph(2, [(0, 1, W)], undirected=True)


def test_with_updates_replaces_and_inserts():
    g = build(3, [(0, 1, 2)])
    g2 = g.with_updates([(0, 1, W), (1, 2, 3 * W)])
    assert g2.weight(0, 1) == W and g2.weight(1, 2) == 3 * W
    assert g.weight(0, 1) == 2 * W and g.weight(1, 2) is None
    assert g.adj == [[(1, 2 * W)], [], []] and g.edges() == [(0, 1, 2 * W)]
    assert g2.adj[1] == [(2, 3 * W)]
    assert g2.adj == Graph(g2.n, g2.edges()).adj


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_with_updates_patches_rows_like_a_fresh_graph(seed):
    rng = random.Random(seed)
    g = gnp(12, 0.3, 9, seed=seed)
    adj_before = [row[:] for row in g.adj]
    edges_before = g.edges()
    u, v, w = edges_before[rng.randrange(g.m)]
    a, b = rng.choice([(a, b) for a in range(g.n) for b in range(g.n)
                       if a != b and g.weight(a, b) is None])
    c = rng.choice([y for y in range(g.n) if y not in (u, v)])
    # a replacement, an insertion, a second change in row u, and (a, b)
    # given twice: the last one wins
    changes = [(u, v, w + 1), (a, b, 5 * W), (u, c, 2 * W), (a, b, 2 * W)]
    g2 = g.with_updates(changes)

    expected = {(x, y): z for x, y, z in edges_before}
    for x, y, z in changes:
        expected[(x, y)] = z
    fresh = Graph(g.n, [(x, y, z) for (x, y), z in expected.items()])
    assert g2 == fresh and g2.adj == fresh.adj and g2.m == fresh.m
    assert g2.weight(a, b) == 2 * W
    assert g.adj == adj_before and g.edges() == edges_before
    touched = {x for x, _, _ in changes}
    assert all(g2.adj[t] is g.adj[t] for t in range(g.n) if t not in touched)


# out-rows 1: [2, 3], 2: [3, 4], 3: [2], 4: [0]; in-rows 0: [4], 2: [1, 3],
# 3: [1, 2], 4: [2]
SPLICE_EDGES = [(1, 2, 5), (1, 3, 5), (2, 3, 5), (3, 2, 5), (4, 0, 5), (2, 4, 5)]


@pytest.mark.parametrize("changes", [
    [(1, 0, W)],             # inserted at the start of out-row 1 and in-row 0
    [(3, 4, W)],             # inserted at the end of out-row 3 and in-row 4
    [(2, 3, W)],             # a replacement inside out-row 2 and in-row 3
    [(1, 0, W), (1, 4, W)],  # two changes to out-row 1, at its start and end
    [(0, 2, W), (4, 2, W)],  # two changes to in-row 2, at its start and end
    [(2, 3, W), (2, 1, W)],  # a replacement and an insertion before it in one row
], ids=["start", "end", "replace", "two-in-out-row", "two-in-in-row", "replace-insert"])
def test_with_updates_copies_patched_rows_and_leaves_the_source_alone(changes):
    g = build(5, SPLICE_EDGES)
    adj, radj = list(g.adj), list(g.radj)
    adj_values, radj_values = [row[:] for row in adj], [row[:] for row in radj]
    expected = {(u, v): w for u, v, w in g.edges()}
    for patch in range(2):  # patch the source, then patch the result
        g2 = g.with_updates(changes if patch == 0 else [(u, v, w // 2) for u, v, w in changes])
        # the source graph's row objects keep their identity and values
        assert all(a is b for a, b in zip(g.adj, adj)) and g.adj == adj_values
        assert all(a is b for a, b in zip(g.radj, radj)) and g.radj == radj_values
        for u, v, w in changes:
            expected[(u, v)] = w if patch == 0 else w // 2
        fresh = Graph(g.n, [(u, v, w) for (u, v), w in expected.items()])
        assert g2 == fresh and g2.adj == fresh.adj and g2.radj == fresh.radj
        assert g2.m == fresh.m
        # the patched rows are new objects, every other row is shared
        tails, heads = {u for u, _, _ in changes}, {v for _, v, _ in changes}
        assert [g2.adj[x] is g.adj[x] for x in range(g.n)] == [x not in tails for x in range(g.n)]
        assert [g2.radj[x] is g.radj[x] for x in range(g.n)] == [x not in heads for x in range(g.n)]
        g, adj, radj = g2, list(g2.adj), list(g2.radj)
        adj_values, radj_values = [row[:] for row in adj], [row[:] for row in radj]


def test_with_updates_requires_mirror_on_undirected():
    g = build(3, [(0, 1, 1), (1, 0, 1), (1, 2, 1), (2, 1, 1)], undirected=True)
    adj_before = [row[:] for row in g.adj]
    with pytest.raises(GraphFormatError,
                       match=r"undirected graph missing equal-weight mirror of \(0, 2\)"):
        g.with_updates([(0, 2, W)])
    with pytest.raises(GraphFormatError, match=r"mirror of \(1, 0\)"):
        g.with_updates([(1, 0, W // 2), (0, 1, W // 4)])
    assert g.adj == adj_before and g.m == 4
    g2 = g.with_updates([(0, 2, W), (2, 0, W)])
    assert g2.m == 6 and g2 == Graph(3, g.edges() + [(0, 2, W), (2, 0, W)],
                                     undirected=True)


@pytest.mark.parametrize("change, message", [
    ((0, 3, W), "out of range"),
    ((1, 1, W), "self-loop"),
    ((0, 1, 0), "non-positive"),
    ((0, 1, -W), "non-positive"),
    ((0, 1, DIST_LIMIT // 3 + 1), "too large"),
])
def test_with_updates_rejects_bad_changes(change, message):
    g = build(3, [(0, 1, 2)])
    with pytest.raises(GraphFormatError, match=message):
        g.with_updates([change])
    assert g.edges() == [(0, 1, 2 * W)]
