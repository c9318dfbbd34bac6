"""wkorient: (w,k)-orientations of random hypergraphs.

Decide and construct orientations where every size-h hyperedge marks w
distinct vertices and no vertex is marked more than k times; peel to the
(w,k+1)-core; predict core size, density, and the sharp orientability
threshold from the core fixed point; and integrate the peeling process's
differential equations.
"""

__version__ = "0.1.0"
