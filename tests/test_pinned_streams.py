"""Pinned engine output: seeded update streams hashed state by state.

Each stream replays seeded events from ``helpers.apply_random_event``
(the ``UNIT_STREAMS`` with whole-unit weights, so that many detours
through an updated edge tie and pairs gain paths) and hashes every
post-update state: dist, sigma, dependency rows and BC (the last three
by ``float(x).hex()``, so the digest is the same on any byte order), sorted
forward and reverse DAG edges, the work counters, every ``UpdateReport``
field and ``inexact``.  A refactor that claims identical
output must leave every digest unchanged; a change that means to alter
output must say so when it re-records them.
"""

import dataclasses
import hashlib
import random

import pytest

from dynbc import brandes_bc
from helpers import W, apply_random_event, gnp, layered_doubling_graph

def _hexes(row):
    return repr([float(x).hex() for x in row])


def _digest_state(h, st):
    parts = []
    for s in range(st.graph.n):
        parts += (repr(st.dist[s]), _hexes(st.sigma[s]), _hexes(st.deltas[s]),
                  repr(sorted(st.dags[s])))
        if st.rdags is not None:
            parts.append(repr(sorted(st.rdags[s])))
    parts += (_hexes(st.bc), repr(dataclasses.astuple(st.counters)),
              repr(dataclasses.astuple(st.report)), repr(st.inexact))
    h.update("\n".join(parts).encode())


# name -> (graph builder, mode, stream seed, events, recorded digest); the
# layered stream passes 2**53 paths at its build, so its state is inexact
STREAMS = {
    "gnp16-directed-fast":
        (lambda: gnp(16, 0.3, 10, seed=11), "edge-fast", 1, 20, "7881d1fffe3b1434"),
    "gnp16-undirected-fast":
        (lambda: gnp(16, 0.3, 10, seed=12, undirected=True), "edge-fast", 2, 20,
         "a19544b84801b8b1"),
    "gnp14-ties-fast":
        (lambda: gnp(14, 0.4, 1, seed=13), "edge-fast", 3, 20, "c305141ea228cfaa"),
    "gnp14-directed-full":
        (lambda: gnp(14, 0.3, 10, seed=14), "full", 4, 20, "a0586efaa291d9c7"),
    "gnp14-undirected-full":
        (lambda: gnp(14, 0.3, 10, seed=15, undirected=True), "full", 5, 20,
         "e68d871ffc352136"),
    "gnp12-ties-full":
        (lambda: gnp(12, 0.5, 1, seed=16), "full", 6, 20, "ec8fde591152c1cf"),
    "gnp12-wide-undirected-full":
        (lambda: gnp(12, 0.4, 144, seed=17, undirected=True), "full", 7, 20,
         "fc079200c44c3448"),
    "layered-inexact-fast":
        (lambda: layered_doubling_graph(55), "edge-fast", 8, 10, "e63f2ef4b63e1f7b"),
}

# the same, for streams whose new weights are whole units (unit=W)
UNIT_STREAMS = {
    "gnp16-units-directed-fast":
        (lambda: gnp(16, 0.3, 10, seed=21), "edge-fast", 9, 20, "b0b99f092a341316"),
    "gnp16-units-undirected-fast":
        (lambda: gnp(16, 0.3, 10, seed=22, undirected=True), "edge-fast", 10, 20,
         "bc3a7c784f0970a2"),
    "gnp14-units-directed-full":
        (lambda: gnp(14, 0.3, 10, seed=23), "full", 11, 20, "fe5586ad48a48a50"),
    "gnp14-units-undirected-full":
        (lambda: gnp(14, 0.3, 10, seed=24, undirected=True), "full", 12, 20,
         "eb0c5d7d1d9266df"),
}


def _stream_digest(build, mode, seed, events, unit=1):
    rng = random.Random(seed)
    state = brandes_bc(build(), mode=mode)
    h = hashlib.sha256()
    done = 0
    while done < events:
        new = apply_random_event(state, rng, unit)
        if new is None:
            continue
        state = new
        _digest_state(h, state)
        done += 1
    return h.hexdigest()[:16], state


@pytest.mark.parametrize("name", sorted(STREAMS) + sorted(UNIT_STREAMS))
def test_stream_output_is_pinned(name):
    unit = W if name in UNIT_STREAMS else 1
    build, mode, seed, events, expected = {**STREAMS, **UNIT_STREAMS}[name]
    digest, state = _stream_digest(build, mode, seed, events, unit)
    assert state.inexact == name.startswith("layered")
    assert digest == expected
