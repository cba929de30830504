import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.spatial.distance import cdist

from mbweibull import (
    DbscanParams,
    dbscan,
    origin_cluster_mask,
    select_eps,
    vannman_data,
)
from mbweibull.clustering import _k_distances
from mbweibull.errors import (
    DegenerateDataError,
    DomainError,
    NoClusterError,
)


def _oracle_core_components(points, min_pts, eps):
    """Transitive closure over core points: the reference partition."""
    n = len(points)
    d2 = np.sum((points[:, None] - points[None, :]) ** 2, axis=-1)
    adj = d2 <= eps * eps
    core = adj.sum(axis=1) >= min_pts
    comp = -np.ones(n, dtype=int)
    c = 0
    for i in range(n):
        if not core[i] or comp[i] >= 0:
            continue
        stack = [i]
        comp[i] = c
        while stack:
            j = stack.pop()
            for k in np.flatnonzero(adj[j] & core):
                if comp[k] < 0:
                    comp[k] = c
                    stack.append(k)
        c += 1
    return core, adj, comp


def _check_against_oracle(points, lab, min_pts, eps):
    core, adj, comp = _oracle_core_components(points, min_pts, eps)
    # core points: the label partition must equal the component partition
    for i in np.flatnonzero(core):
        for j in np.flatnonzero(core):
            assert (lab[i] == lab[j]) == (comp[i] == comp[j])
        assert lab[i] >= 0
    # non-core points: clustered iff adjacent to some core point, and then
    # to a cluster that owns one of those cores
    for i in np.flatnonzero(~core):
        core_nb = np.flatnonzero(adj[i] & core)
        if len(core_nb) == 0:
            assert lab[i] == -1
        else:
            assert lab[i] in set(lab[core_nb])


def _reference_dbscan(points, min_pts, eps):
    """The classic scan, written out: from each unlabelled core point in
    index order, a breadth-first expansion labels one whole cluster; a
    border point keeps the label of the first expansion that reaches it."""
    n = len(points)
    d2 = np.sum((points[:, None, :] - points[None, :, :]) ** 2, axis=-1)
    neighbors = [np.flatnonzero(row) for row in d2 <= eps * eps]
    core = np.array([len(nb) >= min_pts for nb in neighbors], dtype=bool)
    labels = np.full(n, -1, dtype=int)
    cluster = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster
        frontier = list(neighbors[i])
        while frontier:
            j = frontier.pop()
            if labels[j] != -1:
                continue
            labels[j] = cluster
            if core[j]:
                frontier.extend(neighbors[j])
        cluster += 1
    return labels, core, neighbors


class TestDbscanLabels:
    """Labels equal the classic scan's one for one: the cluster numbers
    (by first core point) and the border rule (first cluster to reach the
    point), which origin_cluster_mask's tie-break depends on."""

    def _instances(self):
        rng = np.random.default_rng(7)
        yield np.empty((0, 2)), 1, 0.5
        yield np.zeros((1, 2)), 1, 0.5
        yield np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]]), 2, 1.0  # all noise
        for trial in range(600):
            n = int(rng.integers(0, 60))
            min_pts = int(rng.integers(1, 7))
            if trial % 2:
                # integer grid: duplicates, and distances exactly at eps
                pts = rng.integers(0, 6, (n, 2)).astype(float)
                eps = float(rng.choice([1.0, np.sqrt(2.0), 2.0]))
            else:
                pts = rng.uniform(0, 4, (n, 2))
                eps = float(rng.uniform(0.2, 1.5))
            yield pts, min_pts, eps

    def test_matches_reference_scan(self):
        contested = 0
        for pts, min_pts, eps in self._instances():
            expected, core, neighbors = _reference_dbscan(pts, min_pts, eps)
            labels = dbscan(pts, DbscanParams(min_pts=min_pts, eps=eps))
            assert labels.dtype == expected.dtype
            np.testing.assert_array_equal(labels, expected)
            contested += sum(
                len(set(expected[nb[core[nb]]])) > 1
                for i, nb in enumerate(neighbors) if not core[i]
            )
        # border points within reach of two clusters exercise the border rule
        assert contested >= 20

    def test_components_are_numbered_by_their_lowest_point(self):
        # dbscan takes the core graph's strong components, which scipy does
        # not promise to number in any order; on the symmetric core graph
        # they are its components, numbered by their lowest point as the
        # undirected search numbers them
        rng = np.random.default_rng(31)
        for trial in range(300):
            k = int(rng.integers(1, 12))
            # k tight groups of 3 to 8 points, far apart, rows shuffled so
            # that the groups' lowest rows interleave
            pts = np.vstack([rng.normal(10.0 * g, 0.2, (rng.integers(3, 9), 2))
                             for g in rng.permutation(k)])
            pts = pts[rng.permutation(len(pts))]
            p = DbscanParams(min_pts=int(rng.integers(1, 4)), eps=float(rng.uniform(0.3, 2.0)))
            labels = dbscan(pts, p)
            adj = cdist(pts, pts, "sqeuclidean") <= p.eps * p.eps
            core = adj.sum(axis=1) >= p.min_pts
            first = [np.flatnonzero(labels[core] == c)[0] for c in range(labels.max() + 1)]
            assert first == sorted(first)
            graph = adj[core][:, core]
            _, undirected = connected_components(graph, directed=False)
            np.testing.assert_array_equal(labels[core], undirected)

    def test_border_point_joins_lowest_cluster(self):
        # m sits at distance eps from a core point of each cluster; the
        # b-cluster comes first in index order, so it is cluster 0
        a = [[0.0, 0.0], [-0.5, 0.0], [-0.5, 0.5], [-0.5, -0.5]]
        b = [[2.0, 0.0], [2.5, 0.0], [2.5, 0.5], [2.5, -0.5]]
        pts = np.array([[1.0, 0.0], *b, *a])
        labels = dbscan(pts, DbscanParams(min_pts=4, eps=1.0))
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, 0, 1, 1, 1, 1])


class TestDbscan:
    def test_two_separated_groups(self):
        rng = np.random.default_rng(0)
        g1 = rng.normal(0, 0.1, (5, 2))
        g2 = rng.normal(10, 0.1, (5, 2))
        pts = np.vstack([g1, g2])
        labels = dbscan(pts, DbscanParams(min_pts=4, eps=0.5))
        assert labels.max() + 1 == 2
        assert np.all(labels >= 0)
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1
        assert labels[0] != labels[5]

    def test_all_noise(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]])
        labels = dbscan(pts, DbscanParams(min_pts=4, eps=1.0))
        assert labels.max() + 1 == 0
        assert np.all(labels == -1)

    def test_vannman_origin_cluster_max(self):
        data = vannman_data()
        labels = dbscan(data, DbscanParams(min_pts=4, eps=1.6))
        c1 = data[origin_cluster_mask(data, labels)]
        assert c1.max() == pytest.approx(1.40)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = rng.integers(5, 31)
            pts = rng.uniform(0, 4, (n, 2))
            min_pts = int(rng.integers(2, 6))
            eps = float(rng.uniform(0.3, 1.5))
            labels = dbscan(pts, DbscanParams(min_pts=min_pts, eps=eps))
            _check_against_oracle(pts, labels, min_pts, eps)

    def test_core_partition_permutation_invariant(self):
        rng = np.random.default_rng(5)
        pts = np.vstack(
            [rng.normal(0, 0.3, (20, 2)), rng.normal(4, 0.3, (20, 2)), rng.uniform(0, 5, (10, 2))]
        )
        p = DbscanParams(min_pts=4, eps=0.6)
        core, _, comp = _oracle_core_components(pts, p.min_pts, p.eps)
        base = dbscan(pts, p)
        for _ in range(20):
            perm = rng.permutation(len(pts))
            lab = dbscan(pts[perm], p)
            inv = np.empty_like(perm)
            inv[perm] = np.arange(len(perm))
            lab = lab[inv]
            idx = np.flatnonzero(core)
            for i in idx:
                for j in idx:
                    assert (lab[i] == lab[j]) == (base[i] == base[j])

    def test_every_cluster_has_a_core_point(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(0, 3, (60, 2))
        p = DbscanParams(min_pts=4, eps=0.4)
        labels = dbscan(pts, p)
        core, _, _ = _oracle_core_components(pts, p.min_pts, p.eps)
        for c in range(labels.max() + 1):
            assert np.any(core[labels == c])

    def test_input_validation(self):
        with pytest.raises(DomainError):
            dbscan(np.array([[np.nan, 0.0]]), DbscanParams(4, 0.5))
        with pytest.raises(DomainError):
            DbscanParams(0, 0.5)
        with pytest.raises(DomainError):
            DbscanParams(4, 0.0)


class TestSelectEps:
    def test_identical_points_degenerate(self):
        pts = np.zeros((10, 2))
        with pytest.raises(DegenerateDataError):
            select_eps(pts, 4)

    def test_uniform_grid(self):
        h = 0.7
        gx, gy = np.meshgrid(np.arange(10) * h, np.arange(10) * h)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        eps = select_eps(pts, 4)
        assert h - 1e-12 <= eps <= h * np.sqrt(2) + 1e-12

    def test_usable_downstream(self):
        # clustered data plus sparse background: chosen eps separates them
        rng = np.random.default_rng(13)
        pts = np.vstack([rng.uniform(0, 0.1, (30, 2)), rng.uniform(1, 4, (70, 2))])
        eps = select_eps(pts, 4)
        labels = dbscan(pts, DbscanParams(4, eps))
        c1 = pts[origin_cluster_mask(pts, labels)]
        assert c1.max() <= 0.1 + 1e-12

    def test_too_few_points(self):
        with pytest.raises(DomainError):
            select_eps(np.zeros((3, 2)), 4)

    @pytest.mark.parametrize("min_pts", [0, -1, -3])
    def test_min_pts_below_one(self, min_pts):
        # a column index of min_pts - 1 would read from the far end
        pts = np.random.default_rng(5).uniform(0, 1, (20, 2))
        with pytest.raises(DomainError, match="min_pts"):
            select_eps(pts, min_pts)


def _oracle_k_distances(points, min_pts):
    """The k-distance curve from the whole distance table: each row sorted,
    its min_pts-th entry taken, the square roots sorted."""
    d2 = cdist(points, points, "sqeuclidean")
    return np.sort(np.sqrt(np.sort(d2, axis=1)[:, min_pts - 1]))


def _oracle_eps(points, min_pts):
    """The knee of the oracle curve by the chord rule, or None where the
    curve is flat or its knee is zero (select_eps raises there)."""
    kdist = _oracle_k_distances(points, min_pts)
    if kdist[-1] == kdist[0]:
        return None
    n = len(kdist)
    idx = np.arange(n, dtype=float)
    dx, dy = n - 1.0, kdist[-1] - kdist[0]
    dist = np.abs(dy * idx - dx * (kdist - kdist[0])) / np.hypot(dx, dy)
    eps = float(kdist[int(np.argmax(dist))])
    return eps if eps > 0 else None


@st.composite
def _knee_cases(draw):
    """Point sets for the k-distance curve: exponential samples of up to 1000
    rows or Vannman resamples, with ties from rounding, duplicate rows,
    zeros on either axis, and a scale from 1e-8 to 1e6."""
    min_pts = draw(st.sampled_from(range(1, 13)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        base = vannman_data()
        pts = base[rng.integers(0, len(base), len(base))]
    else:
        n = max(min_pts, round(10 ** rng.uniform(0.0, 3.0)))  # log-uniform up to 1000
        pts = rng.exponential(1.0, (n, 2))
        if draw(st.booleans()):
            pts = np.round(pts, draw(st.integers(0, 2)))
        if draw(st.booleans()):
            pts = pts[rng.integers(0, n, n)]
        for axis in (0, 1):
            if draw(st.booleans()):
                pts[rng.random(n) < 0.3, axis] = 0.0
    return pts * 10.0 ** draw(st.floats(-8.0, 6.0)), min_pts


_LARGE_TIED = (np.round(np.random.default_rng(3).exponential(1.0, (1000, 2)), 1) * 1e-8, 12)


class TestKDistanceOracle:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(case=_knee_cases())
    @example(case=_LARGE_TIED)
    @example(case=(vannman_data(), 4))
    def test_curve_and_eps_equal_the_distance_table(self, case):
        # the k-d tree's k-distances are the sorted table's floats, so the
        # knee, and every automatic-eps fit, is the table's bit for bit
        pts, min_pts = case
        assert np.array_equal(_k_distances(pts, min_pts), _oracle_k_distances(pts, min_pts))
        expected = _oracle_eps(pts, min_pts)
        if expected is None:
            with pytest.raises(DegenerateDataError):
                select_eps(pts, min_pts)
        else:
            assert select_eps(pts, min_pts) == expected


class TestInputChecks:
    _BAD = {
        "nan-row": lambda pts: np.vstack([pts, [np.nan, 0.5]]),
        "inf-row": lambda pts: np.vstack([pts, [0.5, np.inf]]),
        "three-columns": lambda pts: np.column_stack([pts, pts[:, 0]]),
        "one-dimensional": lambda pts: pts[:, 0],
    }

    @pytest.mark.parametrize("bad", list(_BAD), ids=list(_BAD))
    @pytest.mark.parametrize("call", [
        lambda pts: select_eps(pts, 4),
        lambda pts: dbscan(pts, DbscanParams(4, 0.5)),
    ], ids=["select_eps", "dbscan"])
    def test_only_finite_n_by_2_arrays(self, bad, call):
        # without the shared check, select_eps returns an eps for a NaN row,
        # an infinite one (warning from the knee's divide) or a third column
        pts = np.random.default_rng(5).uniform(0, 1, (20, 2))
        call(pts)
        with pytest.raises(DomainError, match="points must be"):
            call(self._BAD[bad](pts))


class TestOriginCluster:
    def test_single_cluster(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(2, 0.1, (10, 2))
        labels = dbscan(pts, DbscanParams(4, 0.5))
        assert len(pts[origin_cluster_mask(pts, labels)]) == 10

    def test_picks_nearest(self):
        rng = np.random.default_rng(1)
        near = rng.uniform(0, 0.2, (8, 2))
        far = 5 + rng.uniform(0, 0.2, (8, 2))
        pts = np.vstack([far, near])  # far cluster discovered first
        labels = dbscan(pts, DbscanParams(4, 0.3))
        mask = origin_cluster_mask(pts, labels)
        assert np.all(mask[8:])
        assert not np.any(mask[:8])

    def test_all_noise_raises(self):
        pts = np.array([[0.0, 0.0], [3.0, 3.0], [6.0, 0.0]])
        labels = dbscan(pts, DbscanParams(4, 0.5))
        with pytest.raises(NoClusterError):
            origin_cluster_mask(pts, labels)

    def test_vannman_membership(self):
        data = vannman_data()
        labels = dbscan(data, DbscanParams(4, 1.6))
        mask = origin_cluster_mask(data, labels)
        # all the zero rows belong to the origin cluster, and its reach
        # stops at the (1.40, 0.09) boundary point
        zero_rows = np.all(data == 0, axis=1)
        assert np.all(mask[zero_rows])
        assert data[mask].max() == pytest.approx(1.40)
        assert not mask[np.argmax(data[:, 0])]

    def test_matches_nearest_member_rule(self):
        # the rule written out: each cluster's closest member, then the
        # nearest of those, ties to the smaller id; grids make the ties
        rng = np.random.default_rng(11)
        ties = 0
        for trial in range(400):
            n = int(rng.integers(1, 60))
            min_pts = int(rng.integers(1, 7))
            if trial % 2:
                pts = rng.integers(0, 6, (n, 2)).astype(float)
            else:
                pts = rng.uniform(0, 4, (n, 2))
            if trial % 3 == 0:
                pts -= rng.integers(0, 6, 2)
            labels = dbscan(pts, DbscanParams(min_pts, float(rng.choice([1.0, 1.5]))))
            if np.all(labels < 0):
                with pytest.raises(NoClusterError):
                    origin_cluster_mask(pts, labels)
                continue
            dist = np.hypot(pts[:, 0], pts[:, 1])
            nearest = [dist[labels == c].min() for c in range(labels.max() + 1)]
            best = min(range(len(nearest)), key=lambda c: (nearest[c], c))
            np.testing.assert_array_equal(origin_cluster_mask(pts, labels), labels == best)
            ties += nearest.count(nearest[best]) > 1
        assert ties >= 3
