import itertools

import numpy as np
import pytest

from mvsimplex.metrics import _label_codes, labeling, mad, nmi
from oracles import canonical_tuple, nmi_np_unique, nmi_reference, oracle_coassignment


def test_nmi_perfect_and_permuted():
    a = np.array([0, 0, 1, 1, 2, 2])
    assert nmi(a, a) == pytest.approx(1.0)
    assert nmi(a, np.array([2, 2, 0, 0, 1, 1])) == pytest.approx(1.0)


def test_nmi_label_values_do_not_matter():
    assert nmi([5, 5, 7, 7], [0, 0, 1, 1]) == pytest.approx(1.0)


def test_nmi_independent_split_is_zero():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)


def test_nmi_degenerate_conventions():
    both = nmi([3, 3, 3], [1, 1, 1])
    assert both == 1.0
    assert nmi([1, 1, 1], [0, 1, 2]) == 0.0
    assert nmi([0, 1, 2], [1, 1, 1]) == 0.0


def test_nmi_matches_reference_on_random_labelings():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(5, 60))
        a = rng.integers(0, int(rng.integers(2, 6)), size=n)
        b = rng.integers(0, int(rng.integers(2, 6)), size=n)
        if np.unique(a).size == 1 or np.unique(b).size == 1:
            continue
        assert nmi(a, b) == pytest.approx(nmi_reference(a, b), abs=1e-12)


def random_labels(rng, kind, n):
    if kind == "canonical":   # dense ids in first-occurrence order
        return np.unique(rng.integers(0, 4, size=n), return_inverse=True)[1]
    if kind == "gaps":        # unused ids below and above the label count
        return rng.choice([0, 2, 3, 7, 50], size=n)
    if kind == "negative":
        return rng.integers(-3, 3, size=n)
    if kind == "single":
        return np.full(n, rng.integers(-2, 9))
    return rng.choice([0.5, 1.0, 2.25, -1.0], size=n)   # non-integer


@pytest.mark.parametrize("kind_a", ["canonical", "gaps", "negative", "single", "float"])
@pytest.mark.parametrize("kind_b", ["canonical", "gaps", "single"])
def test_nmi_has_the_bits_of_np_unique_codes(kind_a, kind_b):
    rng = np.random.default_rng([len(kind_a), len(kind_b)])
    for _ in range(40):
        n = int(rng.integers(1, 30))
        a = random_labels(rng, kind_a, n)
        b = random_labels(rng, kind_b, n)
        for x in (a, b):
            uniq, want = np.unique(x, return_inverse=True)
            codes, k = _label_codes(x)
            np.testing.assert_array_equal(codes, want)
            assert k == uniq.size
        assert nmi(a, b) == nmi_np_unique(a, b)


def test_nmi_has_the_bits_of_np_unique_codes_on_partitions():
    # all ordered pairs of the 52 partitions of 5 items, the rows that
    # verify-bound feeds nmi; nmi is not bit-symmetric, so both orders count
    rows = [np.array(row) for row in itertools.product(range(5), repeat=5)
            if canonical_tuple(row) == row]
    assert len(rows) == 52
    for a in rows:
        for b in rows:
            assert nmi(a, b) == nmi_np_unique(a, b)


def partitions(n):
    """The canonical partitions of n items, as label rows."""
    return [np.array(row) for row in itertools.product(range(n), repeat=n)
            if canonical_tuple(row) == row]


@pytest.mark.parametrize("n", [5, 6])
def test_nmi_of_labelings_has_the_bits_of_nmi_on_partitions(n):
    # verify-bound scores labelings built once per partition, in both orders
    rows = partitions(n)
    labs = [labeling(row) for row in rows]
    for a, la in zip(rows, labs):
        for b, lb in zip(rows, labs):
            assert nmi(la, lb) == nmi(a, b)


def test_nmi_of_labelings_has_the_bits_of_nmi_on_random_labelings():
    rng = np.random.default_rng(3000)
    kinds = ["canonical", "gaps", "negative", "single", "float"]
    for _ in range(3000):
        n = int(rng.integers(1, 30))
        a = random_labels(rng, kinds[rng.integers(len(kinds))], n)
        b = random_labels(rng, kinds[rng.integers(len(kinds))], n)
        want = nmi(a, b)
        assert nmi(labeling(a), labeling(b)) == want
        assert nmi(labeling(a), b) == want == nmi(a, labeling(b))


def test_nmi_of_single_cluster_labelings():
    one, other, split = labeling([4, 4, 4]), labeling([-1, -1, -1]), labeling([0, 1, 1])
    assert nmi(one, other) == 1.0
    assert nmi(one, split) == 0.0
    assert nmi(split, one) == 0.0


def test_labeling_validation():
    with pytest.raises(ValueError, match="label vectors differ in length: 2 vs 3"):
        nmi(labeling([0, 1]), labeling([0, 1, 2]))
    with pytest.raises(ValueError, match="label vectors differ in length: 3 vs 2"):
        nmi([0, 1, 2], labeling([0, 1]))
    with pytest.raises(ValueError, match="empty label vectors"):
        labeling([])


def test_nmi_validation():
    with pytest.raises(ValueError):
        nmi([0, 1], [0, 1, 2])
    with pytest.raises(ValueError):
        nmi([], [])


def test_nmi_range_on_random_pairs():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.integers(0, 4, size=30)
        b = rng.integers(0, 4, size=30)
        v = nmi(a, b)
        assert -1e-12 <= v <= 1.0 + 1e-12


def test_mad_hand_case():
    a = np.array([[0.0, 9.0, 9.0], [0.1, 0.0, 9.0], [0.3, 0.5, 0.0]])
    b = np.zeros((3, 3))
    # strict lower triangle diffs: {0.1, 0.3, 0.5} -> median 0.3
    assert mad(a, b) == pytest.approx(0.3)


def test_mad_ignores_diagonal_and_upper_triangle():
    a = np.eye(4) * 100.0
    a[0, 3] = 55.0
    assert mad(a, np.zeros((4, 4))) == 0.0


def test_mad_validation():
    with pytest.raises(ValueError):
        mad(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        mad(np.zeros((3, 3)), np.zeros((4, 4)))


@pytest.mark.parametrize("n", [0, 1])
def test_mad_needs_two_rows(n):
    # fewer than 2 rows leave no pair below the diagonal to take a median of
    with pytest.raises(ValueError, match="at least 2 rows"):
        mad(np.zeros((n, n)), np.zeros((n, n)))
    assert mad(np.zeros((2, 2)), np.ones((2, 2))) == 1.0


def _gauss_logpdf(mean):
    def f(y):
        diff = y - np.asarray(mean)[None, :]
        return -np.log(2 * np.pi) - 0.5 * (diff ** 2).sum(axis=1)
    return f


def test_oracle_coassignment_separated_components():
    pts = np.array([[0.0, 0.0], [0.1, 0.0], [30.0, 30.0], [30.1, 30.0]])
    P = oracle_coassignment(pts, [_gauss_logpdf([0, 0]), _gauss_logpdf([30, 30])], [0.5, 0.5])
    assert P.shape == (4, 4)
    assert np.allclose(P, P.T)
    assert P[0, 1] > 0.999 and P[2, 3] > 0.999
    assert P[0, 2] < 1e-6 and P[1, 3] < 1e-6


def test_oracle_coassignment_ambiguous_point():
    # one point exactly between two equal components: tau = (0.5, 0.5)
    pts = np.array([[15.0, 15.0]])
    P = oracle_coassignment(pts, [_gauss_logpdf([0, 0]), _gauss_logpdf([30, 30])], [0.5, 0.5])
    assert P[0, 0] == pytest.approx(0.5)


def test_oracle_coassignment_validation():
    pts = np.zeros((2, 2))
    comps = [_gauss_logpdf([0, 0])]
    with pytest.raises(ValueError):
        oracle_coassignment(pts, comps, [0.5, 0.5])
    with pytest.raises(ValueError):
        oracle_coassignment(pts, comps + comps, [0.7, 0.7])

    def nowhere(y):
        return np.full(y.shape[0], -np.inf)

    with pytest.raises(ValueError, match="zero density"):
        oracle_coassignment(pts, [nowhere, nowhere], [0.5, 0.5])
