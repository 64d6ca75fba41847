"""Cluster graphs, the sequential partition sampler, and the risk bound."""

import numpy as np
import pytest

from mvsimplex.cli import two_block_matrix
from mvsimplex.partition import (
    BoundReport,
    _unique_rows,
    bound_rhs,
    canonicalize_labels,
    sample_partition_labels,
    verify_theorem,
)

from oracles import (
    ClusterGraph,
    ReferenceSampler,
    bound_rhs_reference,
    canonical_tuple,
    canonicalize_labels_reference,
    chi_square_pvalue,
    empirical_risk,
    exact_partition_distribution,
    partition_loss,
    sample_partition,
    sample_partition_labels_reference,
    verify_theorem_reference,
)


def random_probability_matrix(rng, n, binary=False):
    P = rng.uniform(0.0, 1.0, size=(n, n))
    P = (P + P.T) / 2
    if binary:
        P = (P > 0.5).astype(float)
    np.fill_diagonal(P, 1.0)
    return P


class TestClusterGraph:
    def test_from_labels_roundtrip(self):
        labels = np.array([0, 1, 0, 2, 1])
        g = ClusterGraph.from_labels(labels)
        assert g.labels().tolist() == [0, 1, 0, 2, 1]
        assert g.is_valid()

    def test_labels_use_first_occurrence_order(self):
        g = ClusterGraph.from_labels([5, 5, 2, 9, 2])
        assert g.labels().tolist() == [0, 0, 1, 2, 1]

    def test_diagonal_forced_to_zero(self):
        g = ClusterGraph(np.eye(4))
        assert g.z.diagonal().tolist() == [0, 0, 0, 0]
        assert g.labels().tolist() == [0, 1, 2, 3]

    def test_intransitive_graph_rejected(self):
        z = np.zeros((3, 3), dtype=int)
        z[0, 1] = z[1, 0] = 1
        z[1, 2] = z[2, 1] = 1   # missing the 0-2 edge
        assert not ClusterGraph(z).is_valid()

    def test_asymmetric_graph_rejected(self):
        z = np.zeros((3, 3), dtype=int)
        z[0, 1] = 1
        assert not ClusterGraph(z).is_valid()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            ClusterGraph(np.zeros((2, 3)))


class TestCanonicalizeLabels:
    def test_single_row(self):
        assert canonicalize_labels(np.array([2, 2, 0, 1])).tolist() == [0, 0, 1, 2]

    def test_out_of_range_ids(self):
        assert canonicalize_labels(np.array([-5, 7, -5])).tolist() == [0, 1, 0]

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(0)
        lab = rng.integers(0, 4, size=(20, 6))
        batch = canonicalize_labels(lab)
        for row, crow in zip(lab, batch):
            assert canonicalize_labels(row).tolist() == crow.tolist()

    def test_idempotent(self):
        lab = np.array([[1, 0, 1, 2], [3, 3, 0, 0]])
        once = canonicalize_labels(lab)
        np.testing.assert_array_equal(canonicalize_labels(once), once)

    @pytest.mark.parametrize("low,high", [(0, 8), (0, 3), (-4, 3), (2, 10), (-3, 5)])
    def test_batch_equals_reference(self, low, high):
        rng = np.random.default_rng(high - low)
        for t in (1, 50, 300):
            lab = rng.integers(low, high, size=(t, 8))
            got = canonicalize_labels(lab)
            want = canonicalize_labels_reference(lab)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(canonicalize_labels(lab[0]),
                                          canonicalize_labels_reference(lab[0]))

    def test_rows_using_more_than_n_labels_in_all(self):
        # the labels of all rows together exceed [0, n), each row's do not
        assert canonicalize_labels(np.array([[0, 1], [2, 3]])).tolist() == [[0, 1], [0, 1]]
        assert canonicalize_labels(np.array([[5], [-2], [0]])).tolist() == [[0], [0], [0]]
        rng = np.random.default_rng(4)
        lab = rng.integers(-1000, 1000, size=(200, 6))
        lab[:, 3] = lab[:, 0]
        for row, crow in zip(lab, canonicalize_labels(lab)):
            assert tuple(crow.tolist()) == canonical_tuple(row)


class TestUniqueRows:
    @staticmethod
    def check(rows):
        got_rows, got_counts = _unique_rows(rows)
        want_rows, want_counts = np.unique(rows, axis=0, return_counts=True)
        assert got_rows.dtype == want_rows.dtype
        np.testing.assert_array_equal(got_rows, want_rows)
        np.testing.assert_array_equal(got_counts, want_counts)

    @pytest.mark.parametrize("n,high", [(1, 3), (3, 2), (5, 5), (8, 3), (20, 4)])
    def test_random_batches(self, n, high):
        rng = np.random.default_rng(n)
        for size in (2, 17, 500):
            self.check(rng.integers(-high, high, size=(size, n)))

    def test_canonical_draws(self):
        P = two_block_matrix(5, 0.9, 0.1)
        self.check(canonicalize_labels(sample_partition_labels(P, 2000, np.random.default_rng(0))))

    def test_one_row(self):
        self.check(np.array([[2, 0, 1, 0]]))

    def test_all_rows_equal(self):
        self.check(np.tile(np.array([0, 1, 1, 2, 0]), (40, 1)))

    def test_wide_rows_compress_keys(self):
        # 18 values over 40 columns need 167 bits, so the int64 keys are
        # swapped for their ranks several times along each row
        rng = np.random.default_rng(40)
        for size in (2, 17, 500):
            rows = rng.integers(-9, 9, size=(size, 40))
            rows[size // 2:, :30] = rows[0, :30]   # long shared prefixes
            self.check(rows)

    def test_columns_wider_than_the_batch(self):
        big = np.iinfo(np.int64)
        rows = np.array([[big.min, 3, big.max], [big.max, 3, 0], [big.min, 3, big.max],
                         [0, -2, big.min]])
        self.check(rows)
        self.check(np.random.default_rng(2).integers(-10**15, 10**15, size=(300, 6)))

    @pytest.mark.parametrize("n,high", [(1, 3), (5, 5), (40, 9)])
    def test_counted_rows(self, n, high):
        # counted rows, duplicates among them, equal the expanded rows
        rng = np.random.default_rng(n)
        for size in (1, 17, 500):
            rows = rng.integers(-high, high, size=(size, n))
            counts = rng.integers(1, 6, size=size)
            got_rows, got_counts = _unique_rows(rows, counts)
            want_rows, want_counts = np.unique(np.repeat(rows, counts, axis=0), axis=0,
                                               return_counts=True)
            assert got_counts.dtype == want_counts.dtype
            np.testing.assert_array_equal(got_rows, want_rows)
            np.testing.assert_array_equal(got_counts, want_counts)


class TestSamplers:
    def test_all_ones_gives_one_cluster(self):
        P = np.ones((6, 6))
        g = sample_partition(P, seed=0)
        assert g.labels().tolist() == [0] * 6
        lab = sample_partition_labels(P, 5, np.random.default_rng(1))
        assert (canonicalize_labels(lab) == 0).all()

    def test_all_zeros_gives_singletons(self):
        P = np.zeros((5, 5))
        assert len(set(sample_partition(P, seed=3).labels().tolist())) == 5
        lab = sample_partition_labels(P, 4, np.random.default_rng(2))
        assert all(len(set(row.tolist())) == 5 for row in lab)

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            sample_partition(np.full((3, 3), 1.5), seed=0)
        with pytest.raises(ValueError, match="size"):
            sample_partition_labels(np.ones((3, 3)), 0, np.random.default_rng(0))

    def test_sampled_graphs_are_transitive(self):
        rng = np.random.default_rng(7)
        P = rng.uniform(0.1, 0.9, size=(8, 8))
        P = (P + P.T) / 2
        lab = sample_partition_labels(P, 300, np.random.default_rng(11))
        for row in lab:
            assert ClusterGraph.from_labels(row).is_valid()

    @pytest.mark.parametrize("sampler", ["reference", "batch"])
    def test_n3_distribution_matches_enumeration(self, sampler):
        # asymmetric probabilities so every partition of 3 items has its own mass
        P = np.array([[1.0, 0.7, 0.2],
                      [0.7, 1.0, 0.4],
                      [0.2, 0.4, 1.0]])
        exact = exact_partition_distribution(P)
        draws = 6000
        if sampler == "reference":
            rows = [sample_partition(P, seed=(50, k)).labels() for k in range(draws)]
        else:
            rows = sample_partition_labels(P, draws, np.random.default_rng(50))
        counts = dict.fromkeys(exact, 0)
        for row in np.asarray(rows):
            counts[canonical_tuple(row)] += 1
        keys = sorted(exact)
        observed = np.array([counts[k] for k in keys], dtype=float)
        probs = np.array([exact[k] for k in keys])
        p = chi_square_pvalue(observed, probs)
        assert p > 0.01, f"chi-square p={p:.4f}, observed={observed}, probs={probs}"

    def test_n4_batch_distribution_matches_enumeration(self):
        rng = np.random.default_rng(9)
        P = rng.uniform(0.2, 0.8, size=(4, 4))
        P = (P + P.T) / 2
        np.fill_diagonal(P, 1.0)
        exact = exact_partition_distribution(P)
        draws = 8000
        rows = sample_partition_labels(P, draws, np.random.default_rng(4))
        counts = dict.fromkeys(exact, 0)
        for row in rows:
            counts[canonical_tuple(row)] += 1
        keys = sorted(exact)
        observed = np.array([counts[k] for k in keys], dtype=float)
        probs = np.array([exact[k] for k in keys])
        assert chi_square_pvalue(observed, probs) > 0.01

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("binary", [False, True])
    def test_batch_equals_reference_on_equal_seeds(self, n, binary):
        for seed in range(3):
            P = random_probability_matrix(np.random.default_rng((n, seed)), n, binary)
            for size in (1, 7, 400):
                got = sample_partition_labels(P, size, np.random.default_rng(seed))
                want = sample_partition_labels_reference(P, size, np.random.default_rng(seed))
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


class TestRisks:
    def test_partition_loss_zero_on_equal(self):
        g = ClusterGraph.from_labels([0, 0, 1, 1])
        assert partition_loss(g, g) == pytest.approx(0.0)

    def test_partition_loss_positive_on_different(self):
        a = ClusterGraph.from_labels([0, 0, 1, 1])
        b = ClusterGraph.from_labels([0, 1, 0, 1])
        assert partition_loss(a, b) > 0.5

    def test_empirical_risk_zero_when_sampler_is_point_mass(self):
        labels = np.array([0, 0, 1, 1, 2])
        g = ClusterGraph.from_labels(labels)
        P = (labels[:, None] == labels[None, :]).astype(float)
        risk = empirical_risk([g], P, samples=200, seed=0)
        assert risk == pytest.approx(0.0)

    def test_empirical_risk_averages_views(self):
        labels = np.array([0, 0, 1, 1])
        P = (labels[:, None] == labels[None, :]).astype(float)
        near = ClusterGraph.from_labels(labels)
        far = ClusterGraph.from_labels([0, 1, 0, 1])
        r_near = empirical_risk([near], P, samples=100, seed=1)
        r_far = empirical_risk([far], P, samples=100, seed=1)
        r_both = empirical_risk([near, far], P, samples=100, seed=1)
        assert r_both == pytest.approx((r_near + r_far) / 2)

    def test_empirical_risk_requires_views(self):
        with pytest.raises(ValueError, match="at least one view"):
            empirical_risk([], np.ones((3, 3)), samples=10, seed=0)


class TestBoundRhs:
    def test_matches_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            n, M = 5, 3
            P = rng.uniform(0.05, 0.95, size=(n, n))
            P = (P + P.T) / 2
            s_list = [np.clip((s + s.T) / 2, 0.05, 0.95)
                      for s in rng.uniform(0.05, 0.95, size=(M, n, n))]
            got = bound_rhs(P, s_list, M, 0.2)
            want = bound_rhs_reference(P, s_list, M, 0.2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_known_value_when_p_equals_s(self):
        # all KL terms vanish, leaving (log(exp(1/(12 M)) sqrt(pi M / 2) + 2) - log delta) / M
        P = np.full((5, 5), 0.5)
        s_list = [P.copy() for _ in range(5)]
        want = (np.log(np.exp(1 / 60) * np.sqrt(5 * np.pi / 2) + 2) + np.log(5)) / 5
        assert bound_rhs(P, s_list, 5, 0.2) == pytest.approx(want, rel=1e-15)

    def test_validation(self):
        P = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="M must be"):
            bound_rhs(P, [P], 1, 0.2)
        with pytest.raises(ValueError, match="delta"):
            bound_rhs(P, [P, P], 2, 0.0)
        with pytest.raises(ValueError, match="expected 2"):
            bound_rhs(P, [P], 2, 0.2)


class TestVerifyTheorem:
    def test_report_accounting(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(0.3, 0.7, size=(4, 4))
        P = (P + P.T) / 2
        np.fill_diagonal(P, 1.0)
        s_list = [P.copy() for _ in range(3)]
        rep = verify_theorem(P, s_list, M=3, delta=0.2,
                             replications=8, seed=5, empirical_draws=300,
                             generalization_draws=600)
        assert isinstance(rep, BoundReport)
        assert rep.replications == 8
        assert rep.evaluated + rep.skipped == 8
        assert rep.lhs.shape == (8,)
        assert np.isnan(rep.lhs[rep.skipped_mask]).all()
        assert np.isfinite(rep.lhs[~rep.skipped_mask]).all()
        if rep.evaluated:
            assert rep.holds_fraction == pytest.approx(
                rep.holds_each[~rep.skipped_mask].mean())
        assert rep.holds == (rep.holds_fraction >= 1.0 - 0.2 - 0.03)

    def test_deterministic_in_seed(self):
        P = np.full((4, 4), 0.6)
        np.fill_diagonal(P, 1.0)
        s_list = [P.copy(), P.copy()]
        a = verify_theorem(P, s_list, M=2, delta=0.3,
                           replications=4, seed=9, empirical_draws=200,
                           generalization_draws=400)
        b = verify_theorem(P, s_list, M=2, delta=0.3,
                           replications=4, seed=9, empirical_draws=200,
                           generalization_draws=400)
        np.testing.assert_array_equal(a.lhs, b.lhs)
        assert a.holds_fraction == b.holds_fraction

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("M", [2, 5])
    def test_equals_reference_loop(self, n, M):
        # n=8 draws are nearly all distinct partitions, so fewer keep nmi calls down
        draws = {"empirical_draws": 150, "generalization_draws": 400} if n < 8 else \
            {"empirical_draws": 40, "generalization_draws": 100}
        for seed in range(3):
            if seed == 0:
                P = two_block_matrix(n, 0.9, 0.1)
            else:  # seed 2: 0/1 entries, whose n=3 replications are all skipped
                P = random_probability_matrix(np.random.default_rng((n, M, seed)), n,
                                              binary=seed == 2)
            s_list = [np.clip(P, 0.05, 0.95)] * M
            rep = verify_theorem(P, s_list, M, 0.2, replications=5,
                                 seed=seed, **draws)
            lhs, holds_each, skipped = verify_theorem_reference(
                ReferenceSampler(P), P, s_list, M, 0.2, replications=5, seed=seed, **draws)
            np.testing.assert_array_equal(rep.lhs, lhs)
            np.testing.assert_array_equal(rep.holds_each, holds_each)
            np.testing.assert_array_equal(rep.skipped_mask, skipped)

    @pytest.mark.parametrize("key_max", [None, 2**12])
    @pytest.mark.parametrize("M", [2, 5])
    def test_equals_reference_loop_n16(self, monkeypatch, key_max, M):
        # wide rows, few distinct partitions; a small key limit makes both
        # dedupes of each batch swap their keys for ranks along the rows
        import mvsimplex.partition

        if key_max is not None:
            monkeypatch.setattr(mvsimplex.partition, "_KEY_MAX", key_max)
        draws = {"empirical_draws": 40, "generalization_draws": 120}
        P = two_block_matrix(16, 0.99, 0.1)
        s_list = [np.clip(P, 0.05, 0.95)] * M
        for seed in range(2):
            rep = verify_theorem(P, s_list, M, 0.2, replications=3, seed=seed, **draws)
            lhs, holds_each, skipped = verify_theorem_reference(
                ReferenceSampler(P), P, s_list, M, 0.2, replications=3, seed=seed, **draws)
            np.testing.assert_array_equal(rep.lhs, lhs)
            np.testing.assert_array_equal(rep.holds_each, holds_each)
            np.testing.assert_array_equal(rep.skipped_mask, skipped)

    def test_loss_table_computes_each_pair_once(self, monkeypatch):
        import mvsimplex.metrics
        import mvsimplex.partition

        calls = {"lib": 0, "ref": 0}

        def counting(key, fn):
            def wrapped(a, b):
                calls[key] += 1
                return fn(a, b)
            return wrapped

        monkeypatch.setattr(mvsimplex.partition, "nmi", counting("lib", mvsimplex.metrics.nmi))
        monkeypatch.setattr(mvsimplex.metrics, "nmi", counting("ref", mvsimplex.metrics.nmi))
        P = two_block_matrix(5, 0.9, 0.1)
        args = (P, [P] * 3, 3, 0.2)
        kwargs = {"replications": 6, "seed": 2, "empirical_draws": 300,
                  "generalization_draws": 600}
        verify_theorem(*args, **kwargs)
        verify_theorem_reference(ReferenceSampler(P), *args, **kwargs)
        assert calls["lib"] == calls["ref"] > 0

    def test_replication_validation(self):
        P = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="replications"):
            verify_theorem(P, [P, P], M=2, delta=0.2,
                           replications=0, seed=0)
