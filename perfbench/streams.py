"""Seeded update streams for the benchmark workloads.

The generator keeps its own weight map, read from the generated graph text,
so the program under test receives only the events.  Weights are the
unscaled integers of the graph file; every event is a strict decrease of an
existing edge or an insertion of a missing one, so no event is invalid for
a correct engine.  Events are written in the program's update-stream text
format (``u e <u> <v> <w>``; ``u v <v> <k>`` plus k ``i|o <x> <w>`` lines).
"""

from __future__ import annotations

import random

ENTRIES_PER_SIDE = 3


def read_weights(graph_text: str) -> dict:
    """Weight map {(u, v): w} of a directed graph file with integer weights."""
    weights = {}
    for line in graph_text.splitlines():
        if line.startswith("e "):
            _, u, v, w = line.split()
            weights[(int(u), int(v))] = int(w)
    return weights


def _decrease(rng: random.Random, w: int) -> int:
    """New weight uniform in [ceil(w/2), w-1]; needs w >= 2."""
    return rng.randint((w + 1) // 2, w - 1)


class _Stream:
    def __init__(self, n: int, weights: dict, wmax: int, rng: random.Random):
        self.n = n
        self.weights = weights
        self.wmax = wmax
        self.rng = rng
        # random picks index this list, so the draws depend only on the seed
        self.keys = sorted(weights)

    def _set(self, u, v, w):
        if (u, v) not in self.weights:
            self.keys.append((u, v))
        self.weights[(u, v)] = w

    def decrease_edge(self) -> str:
        rng, weights, keys = self.rng, self.weights, self.keys
        while True:
            u, v = keys[rng.randrange(len(keys))]
            if weights[(u, v)] >= 2:
                break
        w = _decrease(rng, weights[(u, v)])
        self._set(u, v, w)
        return f"u e {u} {v} {w}"

    def insert_edge(self) -> str:
        rng, n = self.rng, self.n
        while True:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and (u, v) not in self.weights:
                break
        w = rng.randint(1, self.wmax)
        self._set(u, v, w)
        return f"u e {u} {v} {w}"

    def mixed_edge(self) -> str:
        if self.rng.random() < 0.5:
            return self.insert_edge()
        return self.decrease_edge()

    def _entries(self, v: int, incoming: bool) -> list:
        """ENTRIES_PER_SIDE distinct entries on edges into (or out of) v,
        each an insertion or a decrease with equal odds when both exist."""
        rng, weights = self.rng, self.weights
        chosen = []
        used = {v}
        for _ in range(ENTRIES_PER_SIDE):
            pools = {True: [], False: []}
            for x in range(self.n):
                if x in used:
                    continue
                w = weights.get((x, v) if incoming else (v, x))
                if w is None:
                    pools[True].append(x)
                elif w >= 2:
                    pools[False].append(x)
            insert = rng.random() < 0.5
            if not pools[insert]:
                insert = not insert
            x = rng.choice(pools[insert])
            used.add(x)
            edge = (x, v) if incoming else (v, x)
            w = rng.randint(1, self.wmax) if insert else _decrease(rng, weights[edge])
            chosen.append((x, w))
        for x, w in chosen:
            if incoming:
                self._set(x, v, w)
            else:
                self._set(v, x, w)
        return chosen

    def vertex_event(self) -> str:
        v = self.rng.randrange(self.n)
        incoming = self._entries(v, True)
        outgoing = self._entries(v, False)
        lines = [f"u v {v} {len(incoming) + len(outgoing)}"]
        lines += [f"i {x} {w}" for x, w in incoming]
        lines += [f"o {x} {w}" for x, w in outgoing]
        return "\n".join(lines)


def make_stream(mix: str, n: int, weights: dict, wmax: int, count: int,
                checkpoints, rng: random.Random):
    """Generate ``count`` events of the given mix.

    ``mix`` is ``decrease`` (strict decreases of existing edges),
    ``insert`` (insertions of missing edges) or ``vertex-mixed`` (two
    vertex events, then one edge event, repeated; each entry or edge event
    an insertion or a decrease with equal odds).  Edge events on a full
    state take about two thirds of the time of vertex events, so with two
    vertex events to each edge event the median and the 90th percentile of
    update times both fall among the vertex events, not between the two
    kinds.

    Returns the stream text and, for each event count in ``checkpoints``,
    the weight map after that many events as ``u v w`` lines.  The maps
    are kept as text, which the garbage collector does not traverse, so
    they add nothing to the collection pauses the program's own objects
    cause.
    """
    gen = _Stream(n, dict(weights), wmax, rng)
    step = {
        "decrease": lambda i: gen.decrease_edge(),
        "insert": lambda i: gen.insert_edge(),
        "vertex-mixed": lambda i: gen.vertex_event() if i % 3 < 2 else gen.mixed_edge(),
    }[mix]
    lines = []
    snapshots = {}
    for i in range(count):
        lines.append(step(i))
        if i + 1 in checkpoints:
            snapshots[i + 1] = "\n".join(
                f"{u} {v} {w}" for (u, v), w in sorted(gen.weights.items()))
    return "\n".join(lines) + "\n", snapshots
