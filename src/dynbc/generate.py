"""Reproducible random graph generation.

The pseudo-random stream is splitmix64 (documented below), so the same
seed yields byte-identical files from any conforming implementation:

    state = (state + 0x9E3779B97F4A7C15) mod 2**64
    z = state
    z = ((z xor (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2**64
    z = ((z xor (z >> 27)) * 0x94D049BB133111EB) mod 2**64
    output = z xor (z >> 31)

Integers in [1, k] are drawn by rejection below the largest multiple of k
(no modulo bias); inclusion probabilities use the top 53 bits as a float.
Draw order: vertex pairs are visited in ascending (u, v); one inclusion
draw per pair for the gnp model, then one weight draw per included edge.
"""

from __future__ import annotations

from .graph import DIST_LIMIT, WEIGHT_SCALE

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 pseudo-random stream."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform_int(self, k: int) -> int:
        """Uniform integer in [1, k], for k in [1, 2**64]."""
        if not 1 <= k <= _MASK64 + 1:
            raise ValueError(f"draw range [1, {k}] is outside [1, 2**64]")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % k)
        while True:
            r = self.next_u64()
            if r < limit:
                return 1 + (r % k)

    def unit(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)


def gen_graph(model: str, n: int, p: float | None = None,
              wmax: int | None = None, seed: int = 0,
              undirected: bool = False) -> str:
    """Generate a graph file.

    ``complete`` emits every ordered pair and takes no p; ``gnp`` includes
    each pair independently with probability p.  Weights are uniform
    integers in [1, wmax] (default n*n), within ``Graph``'s overflow bound.
    Output is deterministic per seed.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if wmax is None:
        wmax = n * n
    if wmax < 1:
        raise ValueError("wmax must be at least 1")
    if n * wmax * WEIGHT_SCALE >= DIST_LIMIT:
        raise ValueError(f"wmax {wmax} too large: distance sums could overflow")
    rng = SplitMix64(seed)
    if undirected:
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    else:
        pairs = [(u, v) for u in range(n) for v in range(n) if v != u]
    if model == "complete":
        if p is not None:
            raise ValueError("complete takes no p")
        lines = [f"e {u} {v} {rng.uniform_int(wmax)}" for u, v in pairs]
    elif model == "gnp":
        if p is None or not (0.0 < p <= 1.0):
            raise ValueError("gnp requires 0 < p <= 1")
        lines = [f"e {u} {v} {rng.uniform_int(wmax)}"
                 for u, v in pairs if rng.unit() < p]
    else:
        raise ValueError(f"unknown model {model!r}")
    kind = "undirected" if undirected else "directed"
    header = f"p bc {n} {len(lines)} {kind}"
    return header + "\n" + "\n".join(lines) + ("\n" if lines else "")

