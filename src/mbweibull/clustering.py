"""DBSCAN clustering (classic Ester et al. semantics, computed as the
connected components of the core-point graph) plus the k-distance
heuristic for picking eps and the helper that extracts the cluster
nearest the origin."""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components
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
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != 2:
        raise DomainError("points must be an (n, 2) array")
    if not np.all(np.isfinite(points)):
        raise DomainError("points must be finite")
    # Equal to the classic scan, which expands one whole cluster from each
    # unlabelled core point in index order (Schubert et al. 2017, ACM TODS
    # 42:19): connected_components numbers the components by their first
    # point, as the scan does, and the first cluster whose expansion
    # reaches a border point is the lowest-numbered one among its core
    # neighbors.
    n = len(points)
    adj = cdist(points, points, "sqeuclidean") <= p.eps * p.eps
    core = adj.sum(axis=1) >= p.min_pts
    _, comp = connected_components(adj[np.ix_(core, core)], directed=False)
    # every core neighbor of a core point lies in its own cluster
    lowest = np.where(adj[:, core], comp, n).min(axis=1, initial=n)
    return np.where(lowest < n, lowest, NOISE).astype(int)


def select_eps(points, min_pts: int) -> float:
    """Knee of the sorted k-nearest-neighbor distance curve (k = min_pts,
    self-counting), located by maximum perpendicular distance to the chord
    between the curve endpoints."""
    if min_pts < 1:
        raise DomainError("min_pts must be >= 1")
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n < min_pts:
        raise DomainError("need at least min_pts points")
    d2 = cdist(points, points, "sqeuclidean")
    kdist = np.sort(np.sqrt(np.sort(d2, axis=1)[:, min_pts - 1]))
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
    if not np.any(clustered):
        raise NoClusterError("all points are noise")
    lab = labels[clustered]
    dist = np.hypot(points[clustered, 0], points[clustered, 1])
    return labels == lab[np.lexsort((lab, dist))[0]]
