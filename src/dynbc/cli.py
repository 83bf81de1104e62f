"""Command-line driver: static runs, update streams, generation, statistics.

Output is line-oriented and deterministic: ``bc <v> <score>`` with twelve
decimal places, ``stat <name> <value>``, and ``verify <event> <pass|fail>``.
A state whose path counts crossed 2**53 adds ``stat inexact 1`` after its
scores.  ``stream`` builds with ``static_bc``, and ``--verify`` checks each
state against ``brandes_bc``, the oracle, so builder and verifier differ.
"""

from __future__ import annotations

import argparse
import sys

from .apsp import brandes_bc, static_bc, star_stats
from .edge_update import EdgeUpdate, UpdateError, incremental_bc_edge
from .graph import _fail, _parse_weight, _records, decode_ascii, parse_graph, read_int
from .generate import gen_graph
from .oracle import compare_states
from .vertex_update import VertexUpdate, incremental_bc_vertex

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


def bc_digest(bc) -> str:
    """64-bit FNV-1a hash of the rounded BC vector."""
    h = _FNV_OFFSET
    for v, score in enumerate(bc):
        for byte in f"{v}:{score:.12f};".encode("ascii"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return f"{h:016x}"


def _emit_bc(out, state, digest: bool, prev=None):
    """Scores of ``state``, then its inexact marker; the stderr warning is
    given once, when the flag first appears (it never clears on a stream)."""
    if digest:
        out.write(f"stat digest {bc_digest(state.bc)}\n")
    else:
        for v, score in enumerate(state.bc):
            out.write(f"bc {v} {score:.12f}\n")
    if state.inexact:
        out.write("stat inexact 1\n")
        if prev is None or not prev.inexact:
            print("warning: a path count exceeded 2**53; path counts and BC "
                  "scores are inexact", file=sys.stderr)


def _emit_star(out, state):
    stats = star_stats(state)
    out.write(f"stat mstar {stats.m_star}\n")
    out.write(f"stat mstar_avg {stats.m_star_avg:.6f}\n")
    return stats


def _emit_counters(out, counters):
    out.write(f"stat edges_examined {counters.edges_examined}\n")
    out.write(f"stat pairs_touched {counters.pairs_touched}\n")
    out.write(f"stat dag_edges_emitted {counters.dag_edges_emitted}\n")


def parse_update_stream(text: str):
    """Parse the update-stream format: ``u e <u> <v> <w>`` for edge events
    and ``u v <v> <k>`` followed by k ``i|o <x> <w>`` lines for vertex
    events; ``c`` lines are comments."""
    records = _records(text)
    events = []
    for lineno, parts in records:
        if parts[0] != "u":
            _fail(lineno, f"unrecognized line type {parts[0]!r}")
        if len(parts) >= 2 and parts[1] == "e":
            if len(parts) != 5:
                _fail(lineno, "malformed edge event (expected 'u e <u> <v> <w>')")
            u, v = read_int(parts[2]), read_int(parts[3])
            if u is None or v is None:
                _fail(lineno, "malformed vertex id in edge event")
            events.append(EdgeUpdate(u, v, _parse_weight(parts[4], lineno)))
        elif len(parts) >= 2 and parts[1] == "v":
            ints = [read_int(token) for token in parts[2:]]
            if len(ints) != 2 or None in ints:
                _fail(lineno, "malformed vertex event (expected 'u v <v> <k>')")
            v, k = ints
            sides = {"i": [], "o": []}
            for taken in range(k):
                entry = next(records, None)
                if entry is None:
                    _fail(lineno, f"vertex event expects {k} entry lines, found {taken}")
                sub_lineno, sp = entry
                x = read_int(sp[1]) if len(sp) == 3 else None
                if x is None or sp[0] not in sides:
                    _fail(sub_lineno, "malformed vertex-event entry (expected 'i|o <x> <w>')")
                sides[sp[0]].append((x, _parse_weight(sp[2], sub_lineno)))
            events.append(VertexUpdate(v, tuple(sides["i"]), tuple(sides["o"])))
        else:
            _fail(lineno, "unrecognized update event")
    return events


def _apply_event(state, event):
    if isinstance(event, EdgeUpdate):
        return incremental_bc_edge(state, event)
    if state.mode != "full":
        raise UpdateError(
            "vertex events require --mode full; mode 'edge-fast' handles edge events only")
    return incremental_bc_vertex(state, event)


def cmd_static(args, out) -> int:
    g = parse_graph(_read(args.graph))
    state = brandes_bc(g) if args.algo == "brandes" else static_bc(g)
    _emit_bc(out, state, args.digest)
    _emit_star(out, state)
    if args.counters:
        _emit_counters(out, state.counters)
    return 0


def cmd_stream(args, out) -> int:
    """Build with ``static_bc``; ``--verify`` compares with ``brandes_bc``."""
    g = parse_graph(_read(args.graph))
    events = parse_update_stream(_read(args.updates))
    state = static_bc(g, mode=args.mode)
    _emit_bc(out, state, args.digest)
    failures = 0
    for idx, event in enumerate(events):
        prev = state
        try:
            state = _apply_event(prev, event)
        except UpdateError as exc:
            print(f"event {idx}: {exc}", file=sys.stderr)
            return 2
        _emit_bc(out, state, args.digest, prev)
        out.write(f"stat edges_examined {state.report.edges_examined}\n")
        if args.verify:
            fresh = brandes_bc(state.graph, mode=args.mode)
            passed = compare_states(state, fresh, tol=0.0).passed and not state.inexact
            out.write(f"verify {idx} {'pass' if passed else 'fail'}\n")
            if not passed:
                failures += 1
    return 1 if failures else 0


def cmd_gen(args, out) -> int:
    text = gen_graph(args.model, args.n, p=args.p, wmax=args.wmax,
                     seed=args.seed, undirected=args.undirected)
    if args.output:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def cmd_stats(args, out) -> int:
    g = parse_graph(_read(args.graph))
    state = brandes_bc(g)
    stats = _emit_star(out, state)
    if args.per_vertex:
        for x, val in enumerate(stats.per_vertex):
            out.write(f"stat mstar_x[{x}] {val}\n")
        for x, val in enumerate(stats.dag_sizes):
            out.write(f"stat mstar_dag[{x}] {val}\n")
    if args.counters:
        _emit_counters(out, state.counters)
    return 0


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        return decode_ascii(fh.read())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynbc",
        description="Dynamic betweenness centrality over exact shortest-path state")
    sub = parser.add_subparsers(dest="command", required=True)

    p_static = sub.add_parser("static", help="compute BC for one graph")
    p_static.add_argument("graph")
    p_static.add_argument("--algo", choices=["brandes", "dagged"], default="brandes")
    p_static.add_argument("--digest", action="store_true")
    p_static.add_argument("--counters", action="store_true",
                          help="also print work-counter stat lines")
    p_static.set_defaults(func=cmd_static)

    p_stream = sub.add_parser("stream", help="apply an update stream")
    p_stream.add_argument("graph")
    p_stream.add_argument("updates")
    p_stream.add_argument("--mode", choices=["edge-fast", "full"], default="edge-fast")
    p_stream.add_argument("--verify", action="store_true",
                          help="check every event against a from-scratch recomputation")
    p_stream.add_argument("--digest", action="store_true",
                          help="print a 64-bit digest instead of the BC vector")
    p_stream.set_defaults(func=cmd_stream)

    p_gen = sub.add_parser("gen", help="generate a random graph file")
    p_gen.add_argument("--model", choices=["complete", "gnp"], required=True)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, default=None)
    p_gen.add_argument("--wmax", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--undirected", action="store_true")
    p_gen.add_argument("-o", "--output", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_stats = sub.add_parser("stats", help="shortest-path edge statistics")
    p_stats.add_argument("graph")
    p_stats.add_argument("--per-vertex", action="store_true")
    p_stats.add_argument("--counters", action="store_true")
    p_stats.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as exc:
        # covers GraphFormatError, UpdateError, and generator parameter errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:  # a path count past 2**1024 met a float
        print(f"error: a shortest-path count exceeds the float range ({exc})",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
