import numpy as np
import pytest

from tunneltda.errors import InputError
from tunneltda.features import extract_features, feature_matrix, feature_series
from tunneltda.topology import Barcode, PersistencePair

from conftest import INF, bars


def hand_case():
    return bars((0, 0.0, INF), (0, 0.0, 3.0), (0, 0.0, 2.0),
                (1, 2.0, 4.0), (1, 1.0, 1.8), cap=10.0)


def test_hand_computed_case():
    vec = extract_features(hand_case())
    assert vec.f1 == pytest.approx(15.0)
    assert vec.f2 == pytest.approx(2.8)
    assert vec.f3 == pytest.approx(3.0)
    assert vec.f4 == pytest.approx(2.0)
    assert vec.f5 == pytest.approx(5.0)
    assert vec.f6 == pytest.approx(2.5)
    assert vec.f7 == pytest.approx(2.0)
    assert vec.f8 == pytest.approx(2.0)
    assert vec.f9 == pytest.approx(2.0)
    assert vec.f10 == pytest.approx(3.0)
    assert vec.f11 == 0.0
    assert vec.f12 == 0.0
    assert vec.f13 == 3
    assert vec.f14 == 2


def test_single_component_cloud():
    vec = extract_features(bars((0, 0.0, INF), cap=12.0))
    assert vec.f1 == pytest.approx(12.0)
    assert vec.f13 == 1
    for i in list(range(2, 13)) + [14]:
        assert vec[i] == 0


def test_short_hole_bars_leave_selection_empty():
    vec = extract_features(bars((0, 0.0, INF), (1, 1.0, 2.0), (1, 3.0, 4.4), cap=12.0))
    assert vec.f9 == 0.0
    assert vec.f10 == 0.0
    assert vec.f14 == 2


def test_censored_hole_bars():
    vec = extract_features(bars((0, 0.0, INF), (1, 2.0, INF), (1, 4.0, 10.0), cap=10.0))
    # both bars reach the cap: one open, one dying exactly there
    assert vec.f11 == pytest.approx((10 - 2) + (10 - 4))
    assert vec.f12 == pytest.approx(7.0)
    assert vec.f2 == pytest.approx(14.0)


def test_longest_bar_tie_breaks_on_earliest_birth():
    vec = extract_features(bars((0, 0.0, INF), (1, 3.0, 5.0), (1, 1.0, 3.0), cap=10.0))
    assert vec.f7 == 1.0


def random_barcode(rng):
    pairs = [PersistencePair(0, 0.0, INF)]
    cap = float(rng.uniform(5.0, 40.0))
    for _ in range(int(rng.integers(0, 6))):
        pairs.append(PersistencePair(0, 0.0, float(rng.uniform(0, cap))))
    for _ in range(int(rng.integers(0, 6))):
        birth = float(rng.uniform(0, cap * 0.8))
        death = INF if rng.random() < 0.2 else float(rng.uniform(birth, cap))
        pairs.append(PersistencePair(1, birth, death))
    return Barcode(tuple(sorted(pairs)), cap)


def test_scale_equivariance():
    rng = np.random.default_rng(17)
    scaling = (1, 2, 3, 4, 5, 6, 7, 8, 11, 12)  # f9/f10 have an absolute threshold
    for _ in range(100):
        b = random_barcode(rng)
        s = float(rng.uniform(0.2, 5.0))
        scaled = Barcode(
            tuple(PersistencePair(p.dim, p.birth * s, p.death * s) for p in b.pairs),
            b.max_filtration * s)
        base = extract_features(b)
        other = extract_features(scaled)
        for i in scaling:
            assert other[i] == pytest.approx(s * base[i], rel=1e-9, abs=1e-12)
        assert other.f13 == base.f13
        assert other.f14 == base.f14


def test_permutation_invariance():
    rng = np.random.default_rng(19)
    for _ in range(20):
        b = random_barcode(rng)
        shuffled = list(b.pairs)
        rng.shuffle(shuffled)
        # Barcode construction does not reorder; build directly
        other = Barcode(tuple(shuffled), b.max_filtration)
        assert np.allclose(extract_features(b).as_array(),
                           extract_features(other).as_array())


def test_longest_bar_matches_direct_scan():
    rng = np.random.default_rng(29)
    for _ in range(50):
        b = random_barcode(rng)
        vec = extract_features(b)
        direct = max((min(p.death, b.max_filtration) - p.birth
                      for p in b.in_dim(1)), default=0.0)
        assert vec.f8 == pytest.approx(direct)


def test_series_of_identical_barcodes():
    b = hand_case()
    vectors = feature_series([b, b, b])
    matrix = feature_matrix(vectors)
    assert matrix.shape == (3, 14)
    assert np.array_equal(matrix[0], matrix[1])
    assert np.array_equal(matrix[0], matrix[2])


def test_series_requires_barcodes():
    with pytest.raises(InputError):
        feature_series([])


def test_no_holes_gives_zero_f8_column():
    b = bars((0, 0.0, INF), (0, 0.0, 2.0), cap=10.0)
    matrix = feature_matrix(feature_series([b] * 4))
    assert np.all(matrix[:, 7] == 0.0)
