"""The uniform multi-hypergraph model: m edges of h iid-uniform vertices.

Reproducibility: every experiment derives its generator from an
(RngSeed.master, stream) pair, so trial t can run on any worker and still
produce identical draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import Hypergraph

__all__ = ["RngSeed", "sample_uniform_multi"]


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a stream index; (master, stream) pins the sequence."""

    master: int
    stream: int = 0

    def __post_init__(self) -> None:
        if self.master < 0 or self.stream < 0:
            raise ValueError(
                f"seed and stream must be nonnegative, got seed={self.master}, "
                f"stream={self.stream}"
            )

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master, spawn_key=(self.stream,))
        return np.random.default_rng(ss)


def sample_uniform_multi(n: int, m: int, h: int, rng: np.random.Generator) -> Hypergraph:
    """m hyperedges, each h iid-uniform vertex ids (repeats allowed)."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    if h < 1:
        raise ValueError(f"edge size must be at least 1, got h={h}")
    if m < 0:
        raise ValueError(f"edge count must be nonnegative, got m={m}")
    draws = rng.integers(0, n, size=(m, h))
    draws.sort(axis=1)
    return Hypergraph(n, ptr=np.arange(m + 1, dtype=np.int64) * h, verts=draws.ravel())
