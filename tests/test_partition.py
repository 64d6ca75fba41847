"""Cluster graphs, the sequential partition sampler, and the risk bound."""

import dataclasses
import itertools
import re

import numpy as np
import pytest

from mvsimplex.cli import two_block_matrix
from mvsimplex.partition import (
    BoundReport,
    _LossTable,
    _partition_law,
    _risks,
    _unique_rows,
    bound_rhs,
    canonicalize_labels,
    sample_partition_labels,
    verify_theorem,
)

from oracles import (
    ClusterGraph,
    bound_rhs_reference,
    canonical_tuple,
    canonicalize_labels_reference,
    chi_square_pvalue,
    empirical_risk,
    exact_partition_distribution,
    nmi_reference,
    partition_loss,
    risks_reference,
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
        assert canonicalize_labels(np.array([[2, 2, 0, 1]])).tolist() == [[0, 0, 1, 2]]

    def test_out_of_range_ids(self):
        for lab in ([[-5, 7, -5]], [[0, 3, 0]], [[0, 1, 2], [0, -1, 2]]):
            with pytest.raises(ValueError, match=r"\[0, 3\)"):
                canonicalize_labels(np.array(lab))

    def test_batch_matches_rowwise(self):
        rng = np.random.default_rng(0)
        lab = rng.integers(0, 4, size=(20, 6))
        batch = canonicalize_labels(lab)
        for row, crow in zip(lab, batch):
            assert canonicalize_labels(row[None]).tolist() == [crow.tolist()]

    def test_idempotent(self):
        lab = np.array([[1, 0, 1, 2], [3, 3, 0, 0]])
        once = canonicalize_labels(lab)
        np.testing.assert_array_equal(canonicalize_labels(once), once)

    @pytest.mark.parametrize("low,high", [(0, 8), (0, 3), (-4, 3), (2, 10), (-3, 5)])
    def test_batch_equals_reference(self, low, high):
        # the reference takes any labels, the batch only labels in [0, 8);
        # a shift by `low` moves the one into the other and keeps the
        # first-occurrence order, so both give the same canonical rows
        rng = np.random.default_rng(high - low)
        for t in (1, 50, 300):
            lab = rng.integers(low, high, size=(t, 8))
            got = canonicalize_labels(lab - low)
            want = canonicalize_labels_reference(lab)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(canonicalize_labels(lab[:1] - low),
                                          canonicalize_labels_reference(lab[:1]))

    def test_rows_using_more_than_n_labels_in_all(self):
        # each row uses at most n distinct labels, but their values leave
        # [0, n), which no sampler row does
        for lab in ([[0, 1], [2, 3]], [[5], [-2], [0]]):
            with pytest.raises(ValueError, match="must lie in"):
                canonicalize_labels(np.array(lab))
        rng = np.random.default_rng(4)
        lab = rng.integers(0, 6, size=(200, 6))
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
        # rows of length n over the labels [0, min(high, n))
        rng = np.random.default_rng(n)
        for size in (2, 17, 500):
            self.check(rng.integers(0, min(high, n), size=(size, n)))

    def test_canonical_draws(self):
        P = two_block_matrix(5, 0.9, 0.1)
        self.check(canonicalize_labels(sample_partition_labels(P, 2000, np.random.default_rng(0))))

    def test_one_row(self):
        self.check(np.array([[2, 0, 1, 0]]))

    def test_all_rows_equal(self):
        self.check(np.tile(np.array([0, 1, 1, 2, 0]), (40, 1)))

    def test_wide_rows_compress_keys(self):
        # 40 columns of 40 possible labels need 213 bits, so the int64 keys
        # are swapped for their ranks several times along each row
        rng = np.random.default_rng(40)
        for size in (2, 17, 500):
            rows = rng.integers(0, 18, size=(size, 40))
            rows[size // 2:, :30] = rows[0, :30]   # long shared prefixes
            self.check(rows)

    def test_columns_wider_than_the_batch(self):
        # each column spans more labels than there are rows
        self.check(np.array([[0, 3, 1, 0], [3, 3, 0, 2], [0, 3, 1, 0]]))
        self.check(np.random.default_rng(2).integers(0, 30, size=(6, 30)))

    def test_out_of_range_labels_rejected(self):
        for rows in ([[0, 3, 1]], [[0, 1, 2], [-1, 0, 0]]):
            with pytest.raises(ValueError, match=r"\[0, 3\)"):
                _unique_rows(np.array(rows))


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

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("each", [1, 7])
    def test_streams_equal_stacked_single_stream_calls(self, n, binary, each):
        P = random_probability_matrix(np.random.default_rng((n, 21)), n, binary)
        seeds = np.random.SeedSequence((n, each)).spawn(4)
        alone = [np.random.default_rng(s) for s in seeds]
        want = np.vstack([sample_partition_labels(P, each, g) for g in alone])
        shared = [np.random.default_rng(s) for s in seeds]
        np.testing.assert_array_equal(sample_partition_labels(P, 4 * each, shared), want)
        for a, b in zip(alone, shared):
            assert a.bit_generator.state == b.bit_generator.state
        # seeds go through np.random.default_rng, in a list or bare
        np.testing.assert_array_equal(sample_partition_labels(P, 4 * each, seeds), want)
        np.testing.assert_array_equal(sample_partition_labels(P, each, seeds[0]), want[:each])
        np.testing.assert_array_equal(sample_partition_labels(P, each, 7),
                                      sample_partition_labels(P, each, np.random.default_rng(7)))

    @pytest.mark.parametrize("size, rng, message", [
        (7, [0, 1], "size must be a multiple of the 2 streams, got 7"),
        (0, [0, 1], "size must be >= 1, got 0"),
        (-2, [0, 1], "size must be >= 1, got -2"),
        (3, [], "rng must hold at least one stream, got an empty sequence"),
    ])
    def test_stream_count_checked(self, size, rng, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_partition_labels(np.ones((3, 3)), size, rng)


class TestPartitionLaw:
    BELL = [1, 1, 2, 5, 15, 52, 203]

    @staticmethod
    def matrix(kind, n):
        if kind == "two_block":
            return two_block_matrix(n, 0.9, 0.1) if n >= 2 else np.ones((1, 1))
        return random_probability_matrix(np.random.default_rng((n, 17)), n,
                                         binary=kind == "binary")

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kind", ["two_block", "random", "binary"])
    def test_every_partition_matches_enumeration(self, n, kind):
        P = self.matrix(kind, n)
        rows, probs = _partition_law(P)
        # all B(n) canonical partitions, zero-probability ones included,
        # in the lexicographic order of np.unique
        assert rows.shape == (self.BELL[n], n)
        assert rows.dtype == np.int64
        np.testing.assert_array_equal(np.unique(rows, axis=0), rows)
        np.testing.assert_array_equal(canonicalize_labels(rows), rows)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        exact = exact_partition_distribution(P)
        assert sorted(exact) == [tuple(row) for row in rows.tolist()]
        np.testing.assert_allclose(probs, [exact[tuple(row)] for row in rows.tolist()],
                                   rtol=0, atol=1e-12)

    def test_sampler_draws_batches_only_past_six_items(self, monkeypatch):
        # the M ground truths of every replication come from one sampler
        # call at every n; the batches of empirical and generalization draws
        # only past n = 6, one replication at a time
        import mvsimplex.partition

        sizes = []
        sampler = mvsimplex.partition.sample_partition_labels
        monkeypatch.setattr(mvsimplex.partition, "sample_partition_labels",
                            lambda P, size, rng: sizes.append(size) or sampler(P, size, rng))
        draws = {"empirical_draws": 50, "generalization_draws": 100}
        for n, want in ((6, [2 * 3]), (7, [2 * 3] + [50, 100] * 2)):
            sizes.clear()
            P = two_block_matrix(n, 0.9, 0.1)
            verify_theorem(P, [P] * 3, 0.2, replications=2, seed=0, **draws)
            assert sizes == want

    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("kind", ["two_block", "random", "binary"])
    def test_exact_risks_match_enumeration(self, monkeypatch, n, kind):
        # the risks verify_theorem passes to its last kl_bernoulli call,
        # against sums over the enumerated law with the reference nmi
        import mvsimplex.partition

        calls = []
        kl = mvsimplex.partition.kl_bernoulli
        monkeypatch.setattr(mvsimplex.partition, "kl_bernoulli",
                            lambda p, s: calls.append((p, s)) or kl(p, s))
        P = self.matrix(kind, n)
        M, seed, replications = 3, 4, 6
        rep = verify_theorem(P, [np.clip(P, 0.05, 0.95)] * M, 0.2, replications, seed)
        law = exact_partition_distribution(P)
        risk = {z: sum(q * (1.0 - nmi_reference(z, y)) for y, q in law.items()) for z in law}
        gen = sum(q * risk[z] for z, q in law.items())
        emp = np.array([
            np.mean([risk[canonical_tuple(z)]
                     for z in sample_partition_labels(P, M, np.random.default_rng(child))])
            for child in np.random.SeedSequence(seed).spawn(replications)])
        evaluated = ~rep.skipped_mask
        gen_seen, emp_seen = calls[-1]
        np.testing.assert_allclose(gen_seen, np.full(evaluated.sum(), gen), rtol=0, atol=1e-12)
        np.testing.assert_allclose(emp_seen, emp[evaluated], rtol=0, atol=1e-12)
        for r in np.flatnonzero(rep.skipped_mask):  # a risk at 0 or 1, to rounding
            assert min(gen, emp[r]) < 1e-12 or max(gen, emp[r]) > 1.0 - 1e-12


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
            got = bound_rhs(P, s_list, 0.2)
            want = bound_rhs_reference(P, s_list, M, 0.2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_known_value_when_p_equals_s(self):
        # all KL terms vanish, leaving (log(exp(1/(12 M)) sqrt(pi M / 2) + 2) - log delta) / M
        P = np.full((5, 5), 0.5)
        s_list = [P.copy() for _ in range(5)]
        want = (np.log(np.exp(1 / 60) * np.sqrt(5 * np.pi / 2) + 2) + np.log(5)) / 5
        assert bound_rhs(P, s_list, 0.2) == pytest.approx(want, rel=1e-15)

    def test_validation(self):
        P = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="M must be"):
            bound_rhs(P, [P], 0.2)
        with pytest.raises(ValueError, match="delta"):
            bound_rhs(P, [P, P], 0.0)

    def test_misshaped_s_is_named(self):
        P = two_block_matrix(4, 0.9, 0.1)
        with pytest.raises(ValueError,
                           match=r"^s_list\[2\] has shape \(3, 3\), expected \(4, 4\)$"):
            bound_rhs(P, [P, P, P[:3, :3]], 0.2)

    @pytest.mark.parametrize("n", [4, 8])
    def test_nan_probabilities_rejected(self, n):
        # NaN fails no `< 0` or `> 1` test; unchecked, a NaN P kills the
        # n=4 run in the multinomial and gives n=8 a finite bound
        P = two_block_matrix(n, 0.9, 0.1)
        s = np.clip(P, 0.05, 0.95)
        nan_p = P.copy()
        nan_p[0, 1] = nan_p[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^P entries must lie in \[0, 1\]$"):
            verify_theorem(nan_p, [s, s], delta=0.2, replications=1, seed=0)
        nan_s = s.copy()
        nan_s[1, 0] = np.nan  # the lower triangle, which the bound reads
        with pytest.raises(ValueError, match=r"^s must lie strictly inside \(0, 1\)$"):
            verify_theorem(P, [s, nan_s], delta=0.2, replications=1, seed=0)


class TestVerifyTheorem:
    def test_report_accounting(self):
        rng = np.random.default_rng(3)
        P = rng.uniform(0.3, 0.7, size=(4, 4))
        P = (P + P.T) / 2
        np.fill_diagonal(P, 1.0)
        s_list = [P.copy() for _ in range(3)]
        rep = verify_theorem(P, s_list, delta=0.2,
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
        assert rep.target_fraction == 1.0 - 0.2 - 0.03
        assert rep.holds == (rep.holds_fraction >= rep.target_fraction)
        np.testing.assert_array_equal(rep.skipped_mask, np.isnan(rep.lhs))
        assert rep.M == 3

    def test_deterministic_in_seed(self):
        P = np.full((4, 4), 0.6)
        np.fill_diagonal(P, 1.0)
        s_list = [P.copy(), P.copy()]
        a = verify_theorem(P, s_list, delta=0.3,
                           replications=4, seed=9, empirical_draws=200,
                           generalization_draws=400)
        b = verify_theorem(P, s_list, delta=0.3,
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
            rep = verify_theorem(P, s_list, 0.2, replications=5,
                                 seed=seed, **draws)
            lhs, holds_each, skipped = verify_theorem_reference(
                P, s_list, 0.2, replications=5, seed=seed, **draws)
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
            rep = verify_theorem(P, s_list, 0.2, replications=3, seed=seed, **draws)
            lhs, holds_each, skipped = verify_theorem_reference(
                P, s_list, 0.2, replications=3, seed=seed, **draws)
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
        args = (P, [P] * 3, 0.2)
        kwargs = {"replications": 6, "seed": 2, "empirical_draws": 300,
                  "generalization_draws": 600}
        verify_theorem(*args, **kwargs)
        verify_theorem_reference(*args, **kwargs)
        assert calls["lib"] == calls["ref"] > 0

    def test_loss_table_block(self, monkeypatch):
        import mvsimplex.metrics
        import mvsimplex.partition

        pairs = []
        built = []

        def counting(a, b):
            # the table passes labelings; a canonical row is its own codes
            pairs.append((tuple(a.codes), tuple(b.codes)))
            return mvsimplex.metrics.nmi(a, b)

        def building(x):
            built.append(tuple(x))
            return mvsimplex.metrics.labeling(x)

        monkeypatch.setattr(mvsimplex.partition, "nmi", counting)
        monkeypatch.setattr(mvsimplex.partition, "labeling", building)
        rows = np.array([row for row in itertools.product(range(4), repeat=4)
                         if canonical_tuple(row) == row])  # the 15 partitions of 4 items
        table = _LossTable()
        np.testing.assert_array_equal(table.intern(rows), np.arange(15))
        # a batch of another dtype, with a repeat, interns to the same ids
        np.testing.assert_array_equal(table.intern(rows[[9, 2, 9]].astype(np.int32)), [9, 2, 9])
        # each interned row's labeling is built once, when it is first interned
        assert built == [tuple(row) for row in rows]

        def check(a_ids, b_ids, new_pairs):
            del pairs[:]
            block = table.loss_vector(np.array(a_ids), np.array(b_ids))
            assert block.shape == (len(a_ids), len(b_ids)) and block.flags.c_contiguous
            assert not np.isnan(block).any()
            want = [[1.0 - mvsimplex.metrics.nmi(rows[min(a, b)], rows[max(a, b)])
                     for b in b_ids] for a in a_ids]
            np.testing.assert_array_equal(block, want)
            # one nmi call per new unordered pair, its lower id first
            assert sorted(pairs) == sorted((tuple(rows[lo]), tuple(rows[hi]))
                                           for lo, hi in new_pairs)

        # repeats, both orders of the pair (3, 7), and the diagonal cell (3, 3)
        check([3, 7, 3], [7, 3, 1], {(3, 7), (3, 3), (7, 7), (1, 3), (1, 7)})
        # cells filled above, in either order, next to new ones
        check([1, 12, 7], [3, 7, 12, 12], {(3, 12), (7, 12), (1, 12), (12, 12)})
        check([12, 3], [7, 1], set())
        assert built == [tuple(row) for row in rows]  # lookups build no labeling

    def test_risks_have_the_bits_of_one_dot_per_row(self):
        # the bound files rest on these bits; one gemv (block @ freq) sums in
        # another order and differs in the last bits on about half such rows
        rng = np.random.default_rng(24)
        shapes = [tuple(rng.integers(1, 61, size=2)) for _ in range(2000)]
        shapes += [(3, 1001), (2, 2749), (1, 5000)]
        for rows, cols in shapes:
            counts = rng.integers(1, 1000, size=cols)
            freq = counts / counts.sum()
            block = rng.random((rows, cols))
            np.testing.assert_array_equal(_risks(freq, block), risks_reference(freq, block))

    def test_replication_validation(self):
        P = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="replications"):
            verify_theorem(P, [P, P], delta=0.2,
                           replications=0, seed=0)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("name", ["empirical_draws", "generalization_draws"])
    def test_draw_counts_validated(self, n, name):
        P = two_block_matrix(n, 0.9, 0.1)
        with pytest.raises(ValueError, match=f"^{name} must be >= 1, got 0$"):
            verify_theorem(P, [P, P], delta=0.2, replications=1, seed=0, **{name: 0})

    def test_draw_counts_change_results_only_past_six_items(self):
        # at n <= 6 the risks are exact, so the draw counts are checked but unused
        def fields(rep):
            return [getattr(rep, f.name) for f in dataclasses.fields(rep)]

        for n, same in ((5, True), (7, False)):
            P = two_block_matrix(n, 0.9, 0.1)
            one, default = (
                verify_theorem(P, [np.clip(P, 0.05, 0.95)] * 3, 0.2, replications=2, seed=1,
                               **draws)
                for draws in ({"empirical_draws": 1, "generalization_draws": 1}, {}))
            equal = [np.array_equal(a, b, equal_nan=True)
                     for a, b in zip(fields(one), fields(default))]
            assert all(equal) == same
            assert one.evaluated == 2  # so the lhs compared are numbers, not NaN

    @pytest.mark.parametrize("n", [5, 7])
    def test_replications_are_prefix_stable(self, n):
        # each replication draws from its own stream, whatever the run's length
        P = two_block_matrix(n, 0.9, 0.1)
        short, long = (verify_theorem(P, [np.clip(P, 0.05, 0.95)] * 3, 0.2, replications, seed=2,
                                      empirical_draws=50, generalization_draws=100)
                       for replications in (3, 7))
        assert short.evaluated == 3
        np.testing.assert_array_equal(short.lhs, long.lhs[:3])

    @pytest.mark.parametrize("n, rows_max", [
        *(pytest.param(5, rows_max, id=str(rows_max)) for rows_max in (1, 6, 9)),
        *(pytest.param(7, rows_max, id=f"n7-{rows_max}") for rows_max in (1, 6, 9)),
    ])
    def test_blocks_of_replications_give_the_one_block_report(self, monkeypatch, n, rows_max):
        # past six items each replication draws its batches after its block;
        # nmi is not bit-symmetric, so its calls must keep their argument order
        import mvsimplex.partition

        calls = []
        score = mvsimplex.partition.nmi
        monkeypatch.setattr(mvsimplex.partition, "nmi", lambda a, b: calls.append(
            (a.codes.tobytes(), b.codes.tobytes())) or score(a, b))
        P = two_block_matrix(n, 0.9, 0.1)
        s_list = [np.clip(P, 0.05, 0.95)] * 3
        draws = {"empirical_draws": 30, "generalization_draws": 40}
        whole = verify_theorem(P, s_list, 0.2, replications=7, seed=3, **draws)
        whole_calls, calls[:] = calls[:], []
        sizes = []
        sampler = mvsimplex.partition.sample_partition_labels
        monkeypatch.setattr(mvsimplex.partition, "sample_partition_labels",
                            lambda P, size, rng: sizes.append(size) or sampler(P, size, rng))
        monkeypatch.setattr(mvsimplex.partition, "_SAMPLE_ROWS_MAX", rows_max)
        blocked = verify_theorem(P, s_list, 0.2, replications=7, seed=3, **draws)
        per_block = max(1, rows_max // 3)
        want = []
        for lo in range(0, 7, per_block):
            reps = min(per_block, 7 - lo)
            want += [3 * reps] + [30, 40] * reps * (n > 6)
        assert sizes == want
        assert calls == whole_calls
        for field in dataclasses.fields(whole):
            assert np.array_equal(getattr(blocked, field.name), getattr(whole, field.name),
                                  equal_nan=True), field.name

    def test_negative_seed_rejected(self):
        P = two_block_matrix(4, 0.9, 0.1)
        with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
            verify_theorem(P, [P, P], delta=0.2, replications=1, seed=-1)

    def test_empty_matrix_rejected(self):
        P = np.zeros((0, 0))
        with pytest.raises(ValueError, match=r"^P must have at least one item, got shape \(0, 0\)$"):
            verify_theorem(P, [P, P], delta=0.2, replications=1, seed=0)

    @pytest.mark.parametrize("slack", [-1.0, -1e-9, 0.8, 2.0, float("nan")])
    def test_mc_slack_outside_range_rejected(self, slack):
        # the target 1 - delta - mc_slack must lie in (0, 1 - delta]
        P = two_block_matrix(4, 0.9, 0.1)
        with pytest.raises(ValueError, match="mc_slack"):
            verify_theorem(P, [P, P], delta=0.2, replications=1, seed=0, mc_slack=slack)

    @pytest.mark.parametrize("slack", [0.0, 0.79])
    def test_mc_slack_in_range_accepted(self, slack):
        P = two_block_matrix(4, 0.9, 0.1)
        rep = verify_theorem(P, [P, P], delta=0.2, replications=1, seed=0,
                             empirical_draws=20, generalization_draws=20, mc_slack=slack)
        assert rep.target_fraction == 1.0 - 0.2 - slack

    def test_single_matrix_rejected(self):
        # M is the number of similarity matrices, and the bound needs two
        P = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="M must be >= 2, got 1"):
            verify_theorem(P, [P], delta=0.2, replications=1, seed=0)

    def test_probabilities_checked_once(self, monkeypatch):
        # the sampler trusts P; verify_theorem checks it once per call
        import mvsimplex.partition

        with pytest.raises(ValueError, match="0, 1"):
            verify_theorem(np.full((3, 3), 1.5), [np.full((3, 3), 0.5)] * 2, delta=0.2,
                           replications=1, seed=0)
        calls = []
        check = mvsimplex.partition._check_probability_matrix
        monkeypatch.setattr(mvsimplex.partition, "_check_probability_matrix",
                            lambda P: calls.append(1) or check(P))
        P = two_block_matrix(4, 0.9, 0.1)
        verify_theorem(P, [P] * 2, delta=0.2, replications=3, seed=0,
                       empirical_draws=50, generalization_draws=50)
        assert len(calls) == 1
