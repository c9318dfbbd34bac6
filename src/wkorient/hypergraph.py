"""Domain types for non-uniform multi-hypergraphs and the deterministic
statistics used throughout: w-density, induced subgraphs, and orientation
checking.

Conventions.  Vertices are 0..n-1.  An edge is a sorted run of vertex ids
*with multiplicity*: degrees and edge sizes count repeats, while orientation
signs always go to distinct vertices.  Hypergraphs and orientations are
stored as CSR arrays; their tuple-of-tuples views are built on demand.
With arity parameters (h, w), an edge of size h-j demands w-j signs, so
meaningful sizes live in [h-w+1, h].
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Iterable, TextIO

import numpy as np

__all__ = [
    "OrientationParams",
    "Hypergraph",
    "Orientation",
    "w_density",
    "w_induced_subgraph",
    "verify_orientation",
    "read_hypergraph",
    "write_hypergraph",
]


@dataclass(frozen=True)
class OrientationParams:
    """Arity/sign/capacity triple: size-h edges, w signs each, indegree cap k."""

    h: int
    w: int
    k: int

    def __post_init__(self):
        if not (isinstance(self.h, int) and isinstance(self.w, int) and isinstance(self.k, int)):
            raise ValueError("h, w, k must be integers")
        if not (self.h > self.w > 0):
            raise ValueError(f"need h > w > 0, got h={self.h}, w={self.w}")
        if self.k < 1:
            raise ValueError(f"need k >= 1, got k={self.k}")

    @property
    def min_edge_size(self) -> int:
        return self.h - self.w + 1

    @cached_property
    def sizes(self) -> tuple[int, ...]:
        """Admissible residual edge sizes, largest first: h, h-1, .., h-w+1."""
        return tuple(range(self.h, self.min_edge_size - 1, -1))


def _sort_rows(ptr: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """verts with every row ptr[i]:ptr[i+1] in ascending order; returned
    as is when it already is (the common case), since that check is cheap."""
    down = verts[1:] < verts[:-1]
    starts = ptr[1:-1]
    down[starts[(starts > 0) & (starts < len(verts))] - 1] = False
    if not down.any():
        return verts
    row = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    return verts[np.lexsort((verts, row))]


def _csr(rows) -> tuple[np.ndarray, np.ndarray]:
    """(ptr, verts) of a sequence of int rows."""
    rows = [r if isinstance(r, (tuple, list)) else tuple(r) for r in rows]
    ptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(np.fromiter(map(len, rows), dtype=np.int64, count=len(rows)), out=ptr[1:])
    verts = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=int(ptr[-1]))
    return ptr, verts


class _Rows:
    """Immutable rows of ints in CSR form: row i is verts[ptr[i]:ptr[i+1]],
    sorted ascending, given as the rows or as ptr and verts.  Subclasses
    name the tuple-of-tuples view."""

    def __init__(self, rows: Iterable[Iterable[int]] = (), *, ptr=None, verts=None):
        if ptr is None:
            ptr, verts = _csr(rows)
        # own copies, so the caller's arrays stay theirs to change
        ptr = np.array(ptr, dtype=np.int64)
        verts = np.array(verts, dtype=np.int64)
        if ptr.ndim != 1 or verts.ndim != 1:
            raise ValueError(f"CSR ptr and verts must be 1-d, got shapes "
                             f"{ptr.shape} and {verts.shape}")
        if len(ptr) == 0 or ptr[0] != 0:
            raise ValueError(f"CSR ptr must start at 0, got {ptr[:1].tolist()}")
        fall = np.flatnonzero(ptr[1:] < ptr[:-1])
        if len(fall):
            i = int(fall[0])
            raise ValueError(f"CSR ptr decreases at row {i}: {ptr[i]} to {ptr[i + 1]}")
        if ptr[-1] != len(verts):
            raise ValueError(f"CSR ptr ends at {ptr[-1]}, but verts has {len(verts)} entries")
        verts = _sort_rows(ptr, verts)
        ptr.flags.writeable = verts.flags.writeable = False
        self.__dict__.update(ptr=ptr, verts=verts)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _rows_view(self) -> tuple[tuple[int, ...], ...]:
        flat, bounds = self.verts.tolist(), self.ptr.tolist()
        return tuple(tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:]))

    @property
    def sizes(self) -> np.ndarray:
        return np.diff(self.ptr)

    @cached_property
    def row_of(self) -> np.ndarray:
        """Row index of every entry of verts."""
        return np.repeat(np.arange(len(self.ptr) - 1), self.sizes)

    def _key(self):
        return (self.__dict__.get("n"), self.ptr.tobytes(), self.verts.tobytes())

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        n = f"{self.n}, " if "n" in self.__dict__ else ""
        return f"{type(self).__name__}({n}{list(getattr(self, self._view_name))!r})"


class Hypergraph(_Rows):
    """A multi-hypergraph on vertices 0..n-1 as CSR incidence: edge i is
    ``verts[ptr[i]:ptr[i+1]]``, sorted, with multiplicity.  ``edges`` is a
    tuple-of-tuples view, built on first use."""

    _view_name = "edges"

    def __init__(
        self, n: int, edges: Iterable[Iterable[int]] = (), *, ptr=None, verts=None
    ):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        super().__init__(edges, ptr=ptr, verts=verts)
        self.__dict__["n"] = n
        outside = np.flatnonzero((self.verts < 0) | (self.verts >= n))
        bad = self.sizes == 0
        bad[self.row_of[outside]] = True
        if bad.any():
            i = int(np.argmax(bad))
            if self.ptr[i] == self.ptr[i + 1]:
                raise ValueError("empty edge")
            e = tuple(self.verts[self.ptr[i] : self.ptr[i + 1]].tolist())
            raise ValueError(f"edge {e} has a vertex outside 0..{n - 1}")

    edges = cached_property(_Rows._rows_view)

    @property
    def num_edges(self) -> int:
        return len(self.ptr) - 1

    @property
    def total_degree(self) -> int:
        """d(H): overall ball count, i.e. sum of edge sizes with multiplicity."""
        return len(self.verts)

    def degrees(self) -> list[int]:
        return np.bincount(self.verts, minlength=self.n).tolist()

    def edge_size_counts(self) -> Counter:
        """Histogram {size: count} over edges."""
        counts = np.bincount(self.sizes)
        return Counter({s: c for s, c in enumerate(counts.tolist()) if c})

    def validate_sizes(self, p: OrientationParams) -> None:
        sizes = self.sizes
        bad = np.flatnonzero((sizes < p.min_edge_size) | (sizes > p.h))
        if len(bad):
            i = int(bad[0])
            e = tuple(self.verts[self.ptr[i] : self.ptr[i + 1]].tolist())
            raise ValueError(
                f"edge {e} has size {len(e)}, outside [{p.min_edge_size}, {p.h}]"
            )

    def sign_demands(self, p: OrientationParams) -> np.ndarray:
        """Per-edge sign demand w - (h - size); sizes must be validated."""
        return self.sizes - (p.h - p.w)

    @cached_property
    def first_of_vertex(self) -> np.ndarray:
        """Mask of the balls that are the first of their vertex in their
        edge (edges are sorted, so repeats are adjacent)."""
        verts, row = self.verts, self.row_of
        first = np.ones(len(verts), dtype=bool)
        first[1:] = (verts[1:] != verts[:-1]) | (row[1:] != row[:-1])
        return first

    @cached_property
    def distinct_sizes(self) -> np.ndarray:
        """Number of distinct vertices in each edge."""
        return np.bincount(self.row_of[self.first_of_vertex], minlength=self.num_edges)


class Orientation(_Rows):
    """Per-edge sign sets: edge i points at the distinct vertices
    ``verts[ptr[i]:ptr[i+1]]`` (sorted); ``signs`` is the tuple view."""

    _view_name = "signs"

    signs = cached_property(_Rows._rows_view)


def w_density(H: Hypergraph, p: OrientationParams) -> Fraction:
    """kappa(H) = (sum over edges of their sign demand) / n, exactly.

    Comparisons against the capacity k must not be blurred by floating
    point, hence the Fraction.
    """
    if H.n < 1:
        raise ValueError("w-density needs a nonempty vertex set")
    H.validate_sizes(p)
    return Fraction(H.total_degree - (p.h - p.w) * H.num_edges, H.n)


def w_induced_subgraph(H: Hypergraph, S: Iterable[int], p: OrientationParams) -> Hypergraph:
    """Subgraph w-induced by S: keep x∩S (with multiplicity) when it still
    has size >= h-w+1; vertices are relabeled to 0..|S|-1 in sorted order."""
    H.validate_sizes(p)
    Ss = np.sort(np.fromiter(S, dtype=np.int64))  # np.unique hashes ints: slower
    if len(Ss) and (Ss[0] < 0 or Ss[-1] >= H.n):
        raise ValueError("subset contains vertices outside the hypergraph")
    Ss = Ss[np.diff(Ss, prepend=-1) > 0]
    rank = np.full(H.n, -1, dtype=np.int64)
    rank[Ss] = np.arange(len(Ss))
    inside = rank[H.verts] >= 0
    kept = np.bincount(H.row_of[inside], minlength=H.num_edges)
    keep = kept >= p.min_edge_size
    ptr = np.concatenate(([0], np.cumsum(kept[keep])))
    verts = rank[H.verts[inside & keep[H.row_of]]]
    return Hypergraph(len(Ss), ptr=ptr, verts=verts)


def verify_orientation(H: Hypergraph, o: Orientation, p: OrientationParams):
    """Check a candidate orientation; returns (ok, reason).

    Valid means: every size-s edge carries exactly w - (h - s) signs, all
    distinct and drawn from the edge's own vertices, and no vertex collects
    more than k signs overall.  The first failing edge is reported.
    """
    m = H.num_edges
    if len(o.ptr) - 1 != m:
        raise ValueError(f"orientation covers {len(o.ptr) - 1} edges, hypergraph has {m}")
    H.validate_sizes(p)
    span = max(H.n, 1)
    owner, signed = o.row_of, o.verts
    keys = owner * span + signed
    repeated = np.zeros(m, dtype=bool)
    repeated[owner[1:][(keys[1:] == keys[:-1]) & (owner[1:] == owner[:-1])]] = True
    miscount = o.sizes != H.sign_demands(p)
    # edge-major ball keys are sorted, so membership is one searchsorted;
    # the -1 pad answers keys past the end
    support = np.append(H.row_of * span + H.verts, -1)
    found = support[np.searchsorted(support[:-1], keys)] == keys
    off = (signed < 0) | (signed >= H.n) | ~found
    off_edge = np.zeros(m, dtype=bool)
    off_edge[owner[off]] = True
    bad = repeated | miscount | off_edge
    if bad.any():
        i = int(np.argmax(bad))
        if repeated[i]:
            return False, f"edge {i}: repeated sign"
        if miscount[i]:
            return False, f"edge {i}: {o.sizes[i]} signs, needs {H.sign_demands(p)[i]}"
        v = int(signed[np.flatnonzero(off & (owner == i))[0]])
        return False, f"edge {i}: sign on {v}, not in the edge"
    indeg = np.bincount(signed, minlength=H.n)
    over = np.flatnonzero(indeg > p.k)
    if len(over):
        v = int(over[0])
        return False, f"vertex {v}: indegree {indeg[v]} > {p.k}"
    return True, ""


# ---------------------------------------------------------------------------
# text format: first line "n m", then one edge per line as 0-based ids;
# '#' starts a comment, blank lines are skipped


def read_hypergraph(fh: TextIO) -> Hypergraph:
    rows: list[tuple[int, list[int]]] = []
    for lineno, raw in enumerate(fh, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append((lineno, [int(tok) for tok in line.split()]))
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer token in {line!r}") from None
    if not rows:
        raise ValueError("empty hypergraph file")
    lineno, header = rows[0]
    if len(header) != 2:
        raise ValueError(f"line {lineno}: header must be 'n m', got {header}")
    n, m = header
    if len(rows) - 1 != m:
        raise ValueError(f"header promises {m} edges, file has {len(rows) - 1}")
    return Hypergraph(n, [row for _, row in rows[1:]])


def write_hypergraph(H: Hypergraph, fh: TextIO) -> None:
    fh.write(f"{H.n} {H.num_edges}\n")
    for e in H.edges:
        fh.write(" ".join(str(v) for v in e) + "\n")
