import numpy as np
import pytest

from mbweibull import (
    ClusterLabels,
    DbscanParams,
    dbscan,
    origin_cluster,
    origin_cluster_mask,
    select_eps,
    vannman_data,
)
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


def _check_against_oracle(points, labels, min_pts, eps):
    core, adj, comp = _oracle_core_components(points, min_pts, eps)
    lab = labels.labels
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
            labels = dbscan(pts, DbscanParams(min_pts=min_pts, eps=eps)).labels
            assert labels.dtype == expected.dtype
            np.testing.assert_array_equal(labels, expected)
            contested += sum(
                len(set(expected[nb[core[nb]]])) > 1
                for i, nb in enumerate(neighbors) if not core[i]
            )
        # border points within reach of two clusters exercise the border rule
        assert contested >= 20

    def test_border_point_joins_lowest_cluster(self):
        # m sits at distance eps from a core point of each cluster; the
        # b-cluster comes first in index order, so it is cluster 0
        a = [[0.0, 0.0], [-0.5, 0.0], [-0.5, 0.5], [-0.5, -0.5]]
        b = [[2.0, 0.0], [2.5, 0.0], [2.5, 0.5], [2.5, -0.5]]
        pts = np.array([[1.0, 0.0], *b, *a])
        labels = dbscan(pts, DbscanParams(min_pts=4, eps=1.0)).labels
        np.testing.assert_array_equal(labels, [0, 0, 0, 0, 0, 1, 1, 1, 1])


class TestDbscan:
    def test_two_separated_groups(self):
        rng = np.random.default_rng(0)
        g1 = rng.normal(0, 0.1, (5, 2))
        g2 = rng.normal(10, 0.1, (5, 2))
        pts = np.vstack([g1, g2])
        labels = dbscan(pts, DbscanParams(min_pts=4, eps=0.5))
        assert labels.n_clusters == 2
        assert np.all(labels.labels >= 0)
        assert len(set(labels.labels[:5])) == 1
        assert len(set(labels.labels[5:])) == 1
        assert labels.labels[0] != labels.labels[5]

    def test_all_noise(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]])
        labels = dbscan(pts, DbscanParams(min_pts=4, eps=1.0))
        assert labels.n_clusters == 0
        assert np.all(labels.labels == -1)

    def test_vannman_origin_cluster_max(self):
        data = vannman_data()
        labels = dbscan(data, DbscanParams(min_pts=4, eps=1.6))
        c1 = origin_cluster(data, labels)
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
        base = dbscan(pts, p).labels
        for _ in range(20):
            perm = rng.permutation(len(pts))
            lab = dbscan(pts[perm], p).labels
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
        for c in range(labels.n_clusters):
            assert np.any(core[labels.labels == c])

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
        c1 = origin_cluster(pts, labels)
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


class TestOriginCluster:
    def test_single_cluster(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(2, 0.1, (10, 2))
        labels = dbscan(pts, DbscanParams(4, 0.5))
        assert len(origin_cluster(pts, labels)) == 10

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
            origin_cluster(pts, labels)

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

    def test_labels_container(self):
        lab = ClusterLabels(np.array([0, 0, 1, -1]))
        assert lab.n_clusters == 2
