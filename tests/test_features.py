import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_features
from tunneltda.errors import InputError
from tunneltda.features import extract_features, feature_matrix, feature_series
from tunneltda.synth import ScenarioConfig, generate_sequence
from tunneltda.topology import Barcode, PersistencePair, barcode_from_cloud

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


def test_sums_run_left_to_right():
    # Python 3.12's sum() compensates its rounding and would give 1 + 2^-52
    # for f1 and f2 here; the features keep the left-to-right sum everywhere.
    tiny = 2.0 ** -54
    vec = extract_features(bars((0, 0.0, 1.0), *[(0, 0.0, tiny)] * 3,
                                (1, 0.0, 1.0), *[(1, 0.25, 0.25 + tiny)] * 3, cap=10.0))
    assert math.fsum([1.0] + [tiny] * 3) == 1.0 + 2.0 ** -52
    assert vec.f1 == vec.f2 == 1.0


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


# ---------------------------------------------------------------------------
# the array extraction against the per-bar reference

@st.composite
def tied_barcodes(draw):
    """Barcodes in no particular order whose bars tie: a few births and
    deaths, each drawn from a small set or anywhere up to the cap, with
    censored bars (inf, or a death at the cap), empty dimensions and signed
    zeros."""
    cap = draw(st.sampled_from([1.0, 2.5, 6.0, 30.0]))
    grid = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0, 1.75, 2.5])
    pairs = []
    for _ in range(draw(st.integers(0, 25))):
        birth = min(draw(st.one_of(grid, st.floats(0.0, cap))), cap)
        death = draw(st.one_of(st.just(math.inf), st.just(cap), st.just(birth),
                               grid.filter(lambda d: birth <= d <= cap),
                               st.floats(birth, cap)))
        pairs.append(PersistencePair(draw(st.sampled_from((0, 1))), birth, death))
    return Barcode(pairs, cap)


@settings(max_examples=200, deadline=None)
@given(tied_barcodes())
def test_array_features_equal_per_bar_reference(b):
    got, want = astuple(extract_features(b)), astuple(reference_features.extract_features(b))
    assert [type(v) for v in got] == [type(v) for v in want]
    assert [repr(v) for v in got] == [repr(v) for v in want]


def test_array_features_equal_reference_on_ring_and_rubble():
    clouds = [(c, 30.0) for c in generate_sequence(ScenarioConfig(seed=7)).clouds]
    clouds += [(c, 8.0) for c in generate_sequence(ScenarioConfig(seed=1009)).clouds]
    for cloud, cap in clouds:
        b = barcode_from_cloud(cloud, cap)
        got, want = extract_features(b), reference_features.extract_features(b)
        assert [repr(v) for v in astuple(got)] == [repr(v) for v in astuple(want)]
