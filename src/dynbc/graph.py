"""Weighted digraphs with exact fixed-point weights and line-oriented file I/O.

Weights are stored as positive integers scaled by 10**6, so every distance
comparison downstream is an exact integer comparison.  Undirected inputs are
doubled into two directed edges of equal weight at parse time.
"""

from __future__ import annotations

from bisect import bisect_left

WEIGHT_SCALE = 10**6
# Distances are sums of at most n-1 weights.  Loading and update validation
# enforce n * max_weight < DIST_LIMIT so no real distance ever collides with
# the infinity sentinel used by the shortest-path code.
DIST_LIMIT = 2**63 - 1


class GraphFormatError(ValueError):
    """Malformed graph or update-stream input."""


def is_digits(token: str) -> bool:
    """True for a nonempty run of ASCII digits (not other scripts' digits)."""
    return token.isascii() and token.isdigit()


def _reject_non_ascii(text: str, bad, what: str) -> str:
    """``text``, unless a non-ASCII character of it satisfies ``bad``: the
    first one raises GraphFormatError naming its line, counted as the
    parsers count lines, and ``what`` formatted with its code point."""
    if not text.isascii():
        for i, ch in enumerate(text):
            if not ch.isascii() and bad(ch):
                lineno = len((text[:i] + "x").splitlines())
                raise GraphFormatError(f"line {lineno}: non-ASCII {what.format(ord(ch))}")
    return text


def decode_ascii(data: bytes) -> str:
    """The text of an input file; a non-ASCII byte raises GraphFormatError
    naming its line.  Latin-1 maps each byte to the code point of its value."""
    return _reject_non_ascii(data.decode("latin-1"), bool, "byte 0x{:02x}")


def check_separators(text: str) -> str:
    """``text`` if only ASCII whitespace can split its lines and fields; a
    non-ASCII space or line break (U+3000, U+2028) raises GraphFormatError
    naming its line.  Token checks reject other non-ASCII characters."""
    return _reject_non_ascii(text, str.isspace, "separator U+{:04X}")


def parse_weight(text: str) -> int:
    """Parse a positive decimal with at most six fractional digits.

    Returns the weight scaled by 10**6.  Raises GraphFormatError for
    anything that is not a plain unsigned decimal literal.
    """
    s = text.strip()
    if "." in s:
        whole, _, frac = s.partition(".")
        if not is_digits(whole) or not is_digits(frac):
            raise GraphFormatError(f"malformed weight {text!r}")
        if len(frac) > 6:
            raise GraphFormatError(
                f"weight {text!r} has more than 6 fractional digits")
        return int(whole) * WEIGHT_SCALE + int(frac.ljust(6, "0"))
    if not is_digits(s):
        raise GraphFormatError(f"malformed weight {text!r}")
    return int(s) * WEIGHT_SCALE


def format_weight(scaled: int) -> str:
    """Render a scaled weight back to its shortest decimal form."""
    whole, frac = divmod(scaled, WEIGHT_SCALE)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:06d}".rstrip("0")


def _check_edge(n, u, v, w):
    """The per-edge checks of a graph on n vertices: endpoints in range,
    no self-loop, a positive weight, and no distance-sum overflow."""
    if not (0 <= u < n and 0 <= v < n):
        raise GraphFormatError(f"vertex id out of range in edge ({u}, {v})")
    if u == v:
        raise GraphFormatError(f"self-loop at vertex {u}")
    if w <= 0:
        raise GraphFormatError(f"non-positive weight on edge ({u}, {v})")
    if n * w >= DIST_LIMIT:
        raise GraphFormatError("weights too large: distance sums could overflow")


def _splice(rows, a, b, w) -> bool:
    """Replace ``rows[a]`` by one copy of it with (b, w) stored over b's
    entry or inserted in key order; returns whether b was there already.
    The old row object is left as it was, as other graphs share it."""
    row = rows[a]
    i = bisect_left(row, (b,))
    old = i < len(row) and row[i][0] == b
    new = row[:]
    if old:
        new[i] = (b, w)
    else:
        new.insert(i, (b, w))
    rows[a] = new
    return old


class Graph:
    """Immutable weighted digraph: at most one edge per ordered pair,
    no self-loops, all weights positive.  Each edge is kept twice: in the
    out-row ``adj[u]`` of (v, w), sorted by head v, and in the in-row
    ``radj[v]`` of (u, w), sorted by tail u."""

    __slots__ = ("n", "undirected", "adj", "radj", "m")

    def __init__(self, n, edges, undirected=False):
        if n < 1:
            raise GraphFormatError("vertex count must be at least 1")
        weights = {}
        for u, v, w in edges:
            _check_edge(n, u, v, w)
            if (u, v) in weights:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            weights[(u, v)] = w
        if undirected:
            for (u, v), w in weights.items():
                if weights.get((v, u)) != w:
                    raise GraphFormatError(
                        f"undirected graph missing equal-weight mirror of ({u}, {v})")
        adj = [[] for _ in range(n)]
        for (u, v), w in weights.items():
            adj[u].append((v, w))
        for row in adj:
            row.sort()
        radj = [[] for _ in range(n)]
        for u, row in enumerate(adj):  # tails ascending: in-rows come out sorted
            for v, w in row:
                radj[v].append((u, w))
        self.n = n
        self.undirected = undirected
        self.adj = adj
        self.radj = radj
        self.m = len(weights)

    @classmethod
    def _raw(cls, n, adj, radj, m, undirected):
        g = object.__new__(cls)
        g.n = n
        g.undirected = undirected
        g.adj = adj
        g.radj = radj
        g.m = m
        return g

    def weight(self, u, v):
        """Weight of edge (u, v), or None when absent."""
        if 0 <= u < self.n:
            row = self.adj[u]
            i = bisect_left(row, (v,))
            if i < len(row) and row[i][0] == v:
                return row[i][1]
        return None

    def edges(self):
        """All edges as (u, v, w), sorted by (u, v)."""
        return [(u, v, w) for u, row in enumerate(self.adj) for v, w in row]

    def reverse(self) -> "Graph":
        """Graph with every edge flipped, weights preserved: the in-rows
        and out-rows swap roles, and every row is shared."""
        return Graph._raw(self.n, self.radj, self.adj, self.m, self.undirected)

    def with_updates(self, changes) -> "Graph":
        """New graph with the (u, v, w) entries replaced or inserted (a
        pair given twice keeps its last weight).  An update costs only its
        touched rows, the out-row of u and the in-row of v, each copied
        with the entry spliced in; every other row is shared, as graphs are
        never mutated.  On an undirected graph every changed pair must end
        with its equal-weight mirror."""
        n = self.n
        m = self.m
        adj = list(self.adj)
        radj = list(self.radj)
        for u, v, w in changes:
            _check_edge(n, u, v, w)
            old = _splice(adj, u, v, w)
            _splice(radj, v, u, w)
            m += not old
        g = Graph._raw(n, adj, radj, m, self.undirected)
        if self.undirected:
            for u, v, _ in changes:
                if g.weight(v, u) != g.weight(u, v):
                    raise GraphFormatError(
                        f"undirected graph missing equal-weight mirror of ({u}, {v})")
        return g

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (self.n == other.n and self.undirected == other.undirected
                and self.adj == other.adj)

    __hash__ = None  # mutable-style equality; graphs are not hashable

    def __repr__(self):
        kind = "undirected" if self.undirected else "directed"
        return f"Graph(n={self.n}, m={self.m}, {kind})"


def _fail(lineno: int, msg: str):
    raise GraphFormatError(f"line {lineno}: {msg}")


def _parse_int(token: str, lineno: int, what: str) -> int:
    if not is_digits(token):
        _fail(lineno, f"malformed {what} {token!r}")
    return int(token)


def _parse_weight(token: str, lineno: int) -> int:
    """``parse_weight``, with the line number on its error."""
    try:
        return parse_weight(token)
    except GraphFormatError as exc:
        _fail(lineno, str(exc))


def _records(text: str):
    """The record rules both input formats share: after
    ``check_separators``, yield (line number, fields) for every line that
    is neither blank nor a ``c`` comment, numbered as ``str.splitlines``
    splits them."""
    for lineno, line in enumerate(check_separators(text).splitlines(), start=1):
        fields = line.split()
        if fields and fields[0][0] != "c":
            yield lineno, fields


def parse_graph(source) -> Graph:
    """Parse the line-oriented graph format from ``str`` or ``bytes``.

    Lines: ``c`` comments, a single ``p bc <n> <m> <directed|undirected>``
    header (first non-comment line), then exactly m ``e <u> <v> <w>`` lines.
    Undirected edges are doubled.  Every error carries its line number (a
    short edge count, the header's) except a missing header, which has none.
    """
    text = decode_ascii(source) if isinstance(source, bytes) else source
    n = m = header = None
    undirected = False
    edge_lines = 0
    edges = []
    seen = set()
    for lineno, parts in _records(text):
        if parts[0] == "p":
            if n is not None:
                _fail(lineno, "duplicate header")
            header = lineno
            if len(parts) != 5 or parts[1] != "bc":
                _fail(lineno, "malformed header (expected 'p bc <n> <m> <directed|undirected>')")
            n = _parse_int(parts[2], lineno, "vertex count")
            m = _parse_int(parts[3], lineno, "edge count")
            if n < 1:
                _fail(lineno, "vertex count must be at least 1")
            if parts[4] == "undirected":
                undirected = True
            elif parts[4] != "directed":
                _fail(lineno, "directedness must be 'directed' or 'undirected'")
        elif parts[0] == "e":
            if n is None:
                _fail(lineno, "edge line before header")
            if len(parts) != 4:
                _fail(lineno, "malformed edge line (expected 'e <u> <v> <w>')")
            u = _parse_int(parts[1], lineno, "vertex id")
            v = _parse_int(parts[2], lineno, "vertex id")
            w = _parse_weight(parts[3], lineno)
            try:
                _check_edge(n, u, v, w)
            except GraphFormatError as exc:
                _fail(lineno, str(exc))
            if (u, v) in seen or (undirected and (v, u) in seen):
                _fail(lineno, f"duplicate edge ({u}, {v})")
            edge_lines += 1
            if edge_lines > m:
                _fail(lineno, f"more than the declared {m} edge lines")
            seen.add((u, v))
            edges.append((u, v, w))
            if undirected:
                edges.append((v, u, w))
        else:
            _fail(lineno, f"unrecognized line type {parts[0]!r}")
    if n is None:
        raise GraphFormatError("missing header line 'p bc <n> <m> <directed|undirected>'")
    if edge_lines != m:
        _fail(header, f"expected {m} edge lines, found {edge_lines}")
    return Graph(n, edges, undirected=undirected)


def serialize_graph(g: Graph) -> str:
    """Canonical text form; parse(serialize(g)) reproduces g exactly."""
    edges = g.edges()
    if g.undirected:
        edges = [e for e in edges if e[0] < e[1]]
    kind = "undirected" if g.undirected else "directed"
    lines = [f"p bc {g.n} {len(edges)} {kind}"]
    lines += [f"e {u} {v} {format_weight(w)}" for u, v, w in edges]
    return "\n".join(lines) + "\n"
