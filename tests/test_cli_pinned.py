"""Pinned CLI bytes: every run of a seeded corpus hashed whole.

Each run calls ``cli.main`` on files written from ``gen_graph`` graphs and
update streams serialized from ``helpers``' random events, and hashes its
exit code, stdout and stderr.  A change that claims identical output must
leave every digest unchanged; a change that means to alter output must say
so when it re-records them.
"""

import hashlib
import random

import pytest

import dynbc.cli as cli
from dynbc import format_weight, gen_graph, parse_graph, serialize_graph
from dynbc.edge_update import EdgeUpdate
from helpers import (W, event_graph, layered_doubling_graph, random_edge_update,
                     random_mirrored_vertex_update, random_vertex_update)

EVENTS = 12

# name -> gen_graph arguments; ties16's weights and updates are whole units,
# so many detours tie
GRAPHS = {
    "complete10": ("complete", 10, dict(seed=31)),
    "gnp20": ("gnp", 20, dict(p=0.3, wmax=10, seed=32)),
    "ties16": ("gnp", 16, dict(p=0.3, wmax=1, seed=33)),
    "undirected16": ("gnp", 16, dict(p=0.3, wmax=10, seed=34, undirected=True)),
}


def _event_text(upd):
    if isinstance(upd, EdgeUpdate):
        return f"u e {upd.u} {upd.v} {format_weight(upd.weight)}\n"
    lines = [f"u v {upd.v} {len(upd.incoming) + len(upd.outgoing)}\n"]
    lines += [f"i {x} {format_weight(w)}\n" for x, w in upd.incoming]
    lines += [f"o {x} {format_weight(w)}\n" for x, w in upd.outgoing]
    return "".join(lines)


def _stream_text(g, seed, draw, unit, events=EVENTS):
    """``events`` seeded events drawn by ``draw``, each valid on the graph
    the ones before it leave."""
    rng = random.Random(seed)
    text = []
    while len(text) < events:
        upd = draw(g, rng, unit=unit)
        text.append(_event_text(upd))
        g = event_graph(g, upd)
    return "".join(text)


def _runs(root):
    """Each run's name and argv, its files written under ``root``."""
    runs = {}
    for i, (name, (model, n, kw)) in enumerate(sorted(GRAPHS.items())):
        text = gen_graph(model, n, **kw)
        g = parse_graph(text)
        unit = W if name == "ties16" else 1
        vertex = random_mirrored_vertex_update if g.undirected else random_vertex_update
        files = {"gr": text,
                 "edges": _stream_text(g, 100 + i, random_edge_update, unit),
                 "vertex": _stream_text(g, 200 + i, vertex, unit)}
        for kind, body in files.items():
            (root / f"{name}.{kind}").write_text(body)
        gr, edges, vtx = (str(root / f"{name}.{kind}") for kind in files)
        runs.update({
            f"{name}-static": ["static", gr],
            f"{name}-static-dagged-counters": ["static", gr, "--algo", "dagged", "--counters"],
            f"{name}-static-digest": ["static", gr, "--digest"],
            f"{name}-stats": ["stats", gr, "--per-vertex", "--counters"],
            f"{name}-stream-fast": ["stream", gr, edges],
            f"{name}-stream-fast-verify": ["stream", gr, edges, "--verify", "--digest"],
            f"{name}-stream-full": ["stream", gr, edges, "--mode", "full"],
            f"{name}-stream-full-verify": ["stream", gr, edges, "--mode", "full",
                                           "--verify", "--digest"],
            f"{name}-vertex-full-verify": ["stream", gr, vtx, "--mode", "full", "--verify"],
            f"{name}-vertex-on-fast": ["stream", gr, vtx],
        })
    layered = layered_doubling_graph(55)
    (root / "layered.gr").write_text(serialize_graph(layered))
    (root / "layered.edges").write_text(_stream_text(layered, 300, random_edge_update, 1, 4))
    runs["layered-inexact-verify"] = ["stream", str(root / "layered.gr"),
                                      str(root / "layered.edges"), "--verify"]
    (root / "bad.edges").write_text("c comment\nu e 0 1 1\nu v 3 1\ni 1 0.1234567\n")
    runs["parse-error"] = ["stream", str(root / "complete10.gr"), str(root / "bad.edges")]
    return runs


DIGESTS = {
    "complete10-static": "434f167682e46c0c",
    "complete10-static-dagged-counters": "0ddebfaee10da47a",
    "complete10-static-digest": "c9887e89487add2f",
    "complete10-stats": "f53fd7cfa75a4a4c",
    "complete10-stream-fast": "d4baea41708452c3",
    "complete10-stream-fast-verify": "5d18e48077c10053",
    "complete10-stream-full": "5fef1dabb8c92ffd",
    "complete10-stream-full-verify": "1e966fefa4aa4c50",
    "complete10-vertex-full-verify": "43cf6907361b8203",
    "complete10-vertex-on-fast": "e34d9d620b41d5c0",
    "gnp20-static": "84cacf2de3560675",
    "gnp20-static-dagged-counters": "6e3d8feb0f6343ba",
    "gnp20-static-digest": "22ae7fb4549b3b97",
    "gnp20-stats": "c77522f696c769db",
    "gnp20-stream-fast": "274e9b04749320aa",
    "gnp20-stream-fast-verify": "65cb4e79794c2f84",
    "gnp20-stream-full": "352ab77a8d15c46b",
    "gnp20-stream-full-verify": "d702c06bc99c178a",
    "gnp20-vertex-full-verify": "58280da66b94c1d5",
    "gnp20-vertex-on-fast": "bfacdb8684edf25b",
    "layered-inexact-verify": "bff3b4844218e5f0",
    "parse-error": "991dd7c53e5223b5",
    "ties16-static": "93238c6e59467056",
    "ties16-static-dagged-counters": "41fc87a8a653d559",
    "ties16-static-digest": "3f4ebed646a5189b",
    "ties16-stats": "bfdc7c366ab8242c",
    "ties16-stream-fast": "5f566a240d349362",
    "ties16-stream-fast-verify": "1784e82e2eb0c4cc",
    "ties16-stream-full": "83d81aab0cc5fa14",
    "ties16-stream-full-verify": "4982c7bd0e296456",
    "ties16-vertex-full-verify": "b499e8ed4995efb6",
    "ties16-vertex-on-fast": "907ccab58d4ea95f",
    "undirected16-static": "e3dcc5f3d7c4c29c",
    "undirected16-static-dagged-counters": "451c7b903b5c9cf4",
    "undirected16-static-digest": "a0f56ebe80d15d30",
    "undirected16-stats": "74bc9626d034e049",
    "undirected16-stream-fast": "8fe14125c4a04a5f",
    "undirected16-stream-fast-verify": "a86ae19a77d7844c",
    "undirected16-stream-full": "8e0eca18d9c1b254",
    "undirected16-stream-full-verify": "35d9f589b6ca73f8",
    "undirected16-vertex-full-verify": "1d87ce32b0b1c97f",
    "undirected16-vertex-on-fast": "3d3782aa5385a026",
}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return _runs(tmp_path_factory.mktemp("cli-corpus"))


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_is_pinned(runs, capsys, name):
    rc = cli.main(runs[name])
    captured = capsys.readouterr()
    h = hashlib.sha256(f"{rc}\n".encode())
    h.update(captured.out.encode())
    h.update(b"\0")
    h.update(captured.err.encode())
    assert h.hexdigest()[:16] == DIGESTS[name]


def test_every_run_is_pinned(runs):
    assert sorted(runs) == sorted(DIGESTS)
