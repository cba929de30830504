"""DBSCAN clustering (classic Ester et al. semantics, computed as the
connected components of the core-point graph) plus the k-distance
heuristic for picking eps and the helper that extracts the cluster
nearest the origin."""

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from .errors import DegenerateDataError, DomainError, NoClusterError

__all__ = ["DbscanParams", "dbscan", "select_eps", "origin_cluster_mask"]

NOISE = -1


@dataclass(frozen=True)
class DbscanParams:
    min_pts: int
    eps: float

    def __post_init__(self):
        if self.min_pts < 1:
            raise DomainError("min_pts must be >= 1")
        if not self.eps > 0:
            raise DomainError("eps must be positive")


def _as_points(points) -> np.ndarray:
    """``points`` as a float array, checked to be finite and (n, 2)."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DomainError("points must be an (n, 2) array")
    if not np.all(np.isfinite(points)):
        raise DomainError("points must be finite")
    return points


def dbscan(points, p: DbscanParams) -> np.ndarray:
    """Classic DBSCAN over 2-d points with Euclidean distance. Returns the
    per-point labels: a cluster id >= 0, or -1 for noise.

    Core points have >= min_pts neighbors (counting themselves) within
    eps, in the closed ball. Clusters are the connected components of the
    graph on the core points, numbered by their lowest point index; a
    non-core point within eps of a core point is a border point and joins
    the lowest-numbered cluster among its core neighbors; everything else
    is noise.
    """
    points = _as_points(points)
    # Equal to the classic scan, which expands one whole cluster from each
    # unlabelled core point in index order (Schubert et al. 2017, ACM TODS
    # 42:19): connected_components numbers the components by their first
    # point, as the scan does, and the first cluster whose expansion
    # reaches a border point is the lowest-numbered one among its core
    # neighbors.
    n = len(points)
    adj = cdist(points, points, "sqeuclidean") <= p.eps * p.eps
    core = adj.sum(axis=1) >= p.min_pts
    # the core block as a sparse graph, which csgraph takes without the
    # validation it gives a dense matrix
    block = adj[core][:, core]
    indptr = np.concatenate([[0], np.cumsum(block.sum(axis=1))])
    columns = np.flatnonzero(block) % len(block)
    graph = csr_array((np.ones(len(columns)), columns, indptr), shape=block.shape)
    # cdist gives d(i, j) and d(j, i) as one float, so the block is symmetric
    # and its strong components are its components; the directed search
    # skips the undirected one's sum with the transpose, and, starting from
    # each unreached point in index order, numbers them by their lowest point
    _, comp = connected_components(graph, directed=True, connection="strong")
    labels = np.full(n, NOISE)
    labels[core] = comp
    # a border point joins the lowest-numbered cluster among its core
    # neighbors, the noise none
    lowest = np.where(adj[~core][:, core], comp, n).min(axis=1, initial=n)
    labels[~core] = np.where(lowest < n, lowest, NOISE)
    return labels


def _k_distances(points, min_pts: int) -> np.ndarray:
    """Each point's distance to its ``min_pts``-th nearest point (itself the
    first), in ascending order. One k-nearest-neighbor query of a k-d tree
    (Friedman, Bentley & Finkel 1977, ACM TOMS 3:209) gives each the same
    float as the ``min_pts``-th entry of its sorted row of the distance
    table, without forming the table."""
    return np.sort(cKDTree(points).query(points, k=[min_pts])[0][:, 0])


def select_eps(points, min_pts: int) -> float:
    """Knee of the sorted k-nearest-neighbor distance curve (k = min_pts,
    self-counting, ``_k_distances``), located by maximum perpendicular
    distance to the chord between the curve endpoints."""
    if min_pts < 1:
        raise DomainError("min_pts must be >= 1")
    points = _as_points(points)
    n = len(points)
    if n < min_pts:
        raise DomainError("need at least min_pts points")
    kdist = _k_distances(points, min_pts)
    if kdist[-1] == kdist[0]:
        raise DegenerateDataError("all k-distances are identical")
    idx = np.arange(n, dtype=float)
    # perpendicular distance from each curve point to the end-to-end chord
    dx, dy = n - 1.0, kdist[-1] - kdist[0]
    dist = np.abs(dy * idx - dx * (kdist - kdist[0])) / np.hypot(dx, dy)
    knee = int(np.argmax(dist))
    eps = float(kdist[knee])
    if eps <= 0:
        raise DegenerateDataError("knee k-distance is zero")
    return eps


def origin_cluster_mask(points, labels) -> np.ndarray:
    """Boolean mask of the cluster whose closest member is nearest the
    origin (ties broken by smaller cluster id): the cluster of the
    clustered point nearest the origin."""
    points = np.asarray(points, dtype=float)
    clustered = labels >= 0
    if not clustered.any():
        raise NoClusterError("all points are noise")
    lab = labels[clustered]
    dist = np.hypot(points[clustered, 0], points[clustered, 1])
    return labels == lab[np.lexsort((lab, dist))[0]]
