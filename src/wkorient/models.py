"""Random hypergraph samplers.

Covers the uniform multi-edge model (m edges of h iid-uniform vertices), its
simple variant, the non-uniform generalization with a fixed per-size edge
count vector, and the minimum-degree model: degrees drawn as iid truncated
Poissons conditioned on their sum, then balls partitioned into edges by a
uniform permutation.

Reproducibility: every experiment derives its generator from an
(RngSeed.master, stream) pair, so trial t can run on any worker and still
produce identical draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .hypergraph import Hypergraph
from .poisson import TruncatedPoisson, solve_lambda

__all__ = [
    "RngSeed",
    "EdgeCountVector",
    "RetryBudgetError",
    "sample_uniform_multi",
    "sample_uniform_simple",
    "sample_nonuniform_multi",
    "sample_truncated_degree_sequence",
    "sample_core_model",
]


class RetryBudgetError(RuntimeError):
    """A rejection sampler ran out of attempts; carries the attempt count."""

    def __init__(self, message: str, attempts: int):
        super().__init__(message)
        self.attempts = attempts


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus a stream index; (master, stream) pins the sequence."""

    master: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.master, spawn_key=(self.stream,))
        return np.random.default_rng(ss)

    def with_stream(self, stream: int) -> "RngSeed":
        return RngSeed(self.master, stream)


@dataclass(frozen=True)
class EdgeCountVector:
    """Edge counts by size: counts[s] = number of size-s edges."""

    counts: tuple[tuple[int, int], ...]

    def __init__(self, counts: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = dict(counts)
        for s, c in items.items():
            if s < 1 or c < 0:
                raise ValueError(f"bad edge count entry size={s}, count={c}")
        canon = tuple(sorted(((s, c) for s, c in items.items() if c > 0), reverse=True))
        object.__setattr__(self, "counts", canon)

    @classmethod
    def uniform(cls, h: int, m: int) -> "EdgeCountVector":
        return cls({h: m})

    def as_dict(self) -> dict[int, int]:
        return dict(self.counts)

    @property
    def num_edges(self) -> int:
        return sum(c for _, c in self.counts)

    @property
    def total_balls(self) -> int:
        """D = sum of size * count."""
        return sum(s * c for s, c in self.counts)

    def mean_degree(self, n: int) -> float:
        return self.total_balls / n


def sample_uniform_multi(n: int, m: int, h: int, rng: np.random.Generator) -> Hypergraph:
    """m hyperedges, each h iid-uniform vertex ids (repeats allowed)."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    draws = rng.integers(0, n, size=(m, h))
    draws.sort(axis=1)
    return Hypergraph(n, draws)


def sample_uniform_simple(
    n: int, m: int, h: int, rng: np.random.Generator, max_attempts: int | None = None
) -> Hypergraph:
    """Uniform simple h-hypergraph: distinct vertices within each edge, no
    repeated edge.

    Sequential per-edge redraws: edge i is uniform over the admissible
    values given edges 0..i-1, which makes every ordered outcome equally
    likely — the same law as rejecting whole multigraph samples, at far
    higher acceptance.
    """
    if m > math.comb(n, h):
        raise ValueError(f"cannot fit {m} distinct edges of size {h} on {n} vertices")
    if max_attempts is None:
        max_attempts = 200 * (m + 1)
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    attempts = 0
    while len(edges) < m:
        attempts += 1
        if attempts > max_attempts:
            raise RetryBudgetError(
                f"simple sampler exhausted {max_attempts} attempts "
                f"({len(edges)}/{m} edges placed)",
                attempts=max_attempts,
            )
        e = tuple(sorted(int(v) for v in rng.integers(0, n, size=h)))
        if len(set(e)) != h or e in seen:
            continue
        seen.add(e)
        edges.append(e)
    return Hypergraph(n, edges)


def sample_nonuniform_multi(
    n: int, m_vec: EdgeCountVector, rng: np.random.Generator
) -> Hypergraph:
    """Per-size uniform multi-edges: exactly counts[s] edges of each size s."""
    if n < 1:
        raise ValueError(f"need at least one vertex, got n={n}")
    blocks = [rng.integers(0, n, size=(c, s)).ravel() for s, c in m_vec.counts]
    verts = np.concatenate([np.zeros(0, dtype=np.int64), *blocks])
    return Hypergraph(n, ptr=_size_ptr(m_vec), verts=verts)


def sample_truncated_degree_sequence(
    n: int,
    D: int,
    k: int,
    rng: np.random.Generator,
    max_rejections: int | None = None,
) -> np.ndarray:
    """Degree vector distributed as n iid (>= k+1)-truncated Poissons
    conditioned on summing to D (density proportional to 1/prod d_i!).

    The rate is solved so the unconditioned mean is D/n, which maximizes the
    acceptance rate; that rate scales like D^-1/2, hence the default budget.
    """
    if D < (k + 1) * n:
        raise ValueError(f"sum {D} infeasible for {n} degrees >= {k + 1}")
    if D == (k + 1) * n:
        return np.full(n, k + 1, dtype=np.int64)
    if max_rejections is None:
        max_rejections = 200 * math.isqrt(D - 1) + 200
    lam = solve_lambda(D / n, k)
    dist = TruncatedPoisson(lam, k + 1)
    for attempt in range(1, max_rejections + 1):
        deg = dist.sample_array(rng, n)
        if int(deg.sum()) == D:
            return deg.astype(np.int64)
    raise RetryBudgetError(
        f"degree sampler missed sum {D} in {max_rejections} attempts "
        f"(acceptance < {1.0 / max(max_rejections, 1):.2e})",
        attempts=max_rejections,
    )


def sample_core_model(
    n: int, m_vec: EdgeCountVector, k: int, rng: np.random.Generator
) -> Hypergraph:
    """The minimum-degree model: degrees from the conditioned truncated
    Poisson, then the D ball slots are permuted uniformly and sliced into
    edges of the prescribed sizes.

    A uniform permutation split into fixed consecutive blocks is exactly
    "color the balls by size classes u.a.r., then partition each class
    u.a.r.", so the result is uniform given the degree sequence.
    """
    D = m_vec.total_balls
    if D < (k + 1) * n:
        raise ValueError(
            f"ball count {D} cannot give {n} vertices degree >= {k + 1}"
        )
    degrees = sample_truncated_degree_sequence(n, D, k, rng)
    slots = np.repeat(np.arange(n), degrees)
    order = rng.permutation(D)
    return Hypergraph(n, ptr=_size_ptr(m_vec), verts=slots[order])


def _size_ptr(m_vec: EdgeCountVector) -> np.ndarray:
    """Edge offsets for counts[s] consecutive edges of each size s, in
    EdgeCountVector order."""
    size_count = np.asarray(m_vec.counts, dtype=np.int64).reshape(-1, 2)
    sizes = np.repeat(size_count[:, 0], size_count[:, 1])
    return np.concatenate(([0], np.cumsum(sizes)))
