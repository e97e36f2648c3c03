import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunneltda import dataio
from tunneltda.errors import InputError
from tunneltda.features import FeatureVector, extract_features
from tunneltda.lssvm import KernelSpec, LssvmModel
from tunneltda.topology import Barcode, PersistencePair, PointCloud

from conftest import INF, bars, make_cloud


# ---------------------------------------------------------------------------
# snapshots

def test_snapshot_round_trip(tmp_path):
    cloud = make_cloud([(0.125, -3.5), (1e-9, 2.0), (4.4, 4.4)])
    path = tmp_path / "snap.csv"
    dataio.write_snapshot(cloud, path)
    back = dataio.load_snapshot(path)
    assert back.ids == cloud.ids
    assert np.array_equal(back.xy, cloud.xy)


def test_snapshot_42_rows(tmp_path):
    rng = np.random.default_rng(1)
    cloud = make_cloud(rng.uniform(-10, 10, size=(42, 2)))
    path = tmp_path / "snap.csv"
    dataio.write_snapshot(cloud, path)
    assert len(dataio.load_snapshot(path)) == 42


@pytest.mark.parametrize("bid", ["a,b", "a\nb", "a\r\nb", "a\x1cb", "a\u2028b", " a", "a ",
                                 "\t", "a\n"])
def test_snapshot_refuses_an_id_that_would_not_read_back(tmp_path, bid):
    # a comma or a line break breaks the row; the reader strips whitespace,
    # so " a" would come back as "a", a duplicate of the other id
    cloud = PointCloud(("a", bid), np.zeros((2, 2)))
    path = tmp_path / "s.csv"
    with pytest.raises(InputError) as exc:
        dataio.write_snapshot(cloud, path)
    assert str(exc.value) == (f"{path}: block_id {bid!r} would not read back; an id may not "
                              "hold a comma or a line break, or begin or end with whitespace")
    assert not path.exists()


def test_snapshot_refuses_an_id_utf8_cannot_encode(tmp_path):
    # UTF-8 cannot encode a lone surrogate; the refusal comes before the file is opened
    cloud = PointCloud(("a", "\ud800"), np.zeros((2, 2)))
    path = tmp_path / "s.csv"
    with pytest.raises(InputError) as exc:
        dataio.write_snapshot(cloud, path)
    assert str(exc.value).startswith(f"{path}: block_id '\\ud800' cannot be written as UTF-8")
    assert not path.exists()


def test_snapshot_missing_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,1,2\n")
    with pytest.raises(InputError, match=":1: missing header"):
        dataio.load_snapshot(path)


def test_snapshot_duplicate_id_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("block_id,x,y\na,1,2\na,3,4\n")
    with pytest.raises(InputError, match=":3: duplicate"):
        dataio.load_snapshot(path)


def test_snapshot_non_numeric_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("block_id,x,y\na,1,2\nb,oops,4\n")
    with pytest.raises(InputError, match=":3: malformed snapshot row"):
        dataio.load_snapshot(path)


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_snapshot_non_finite_names_line(tmp_path, token):
    path = tmp_path / "bad.csv"
    path.write_text(f"block_id,x,y\na,1,2\n\nb,3,{token}\nc,{token},4\n")
    with pytest.raises(InputError, match=r"bad\.csv:4: coordinates must be finite"):
        dataio.load_snapshot(path)


@pytest.mark.parametrize("rows, fault", [
    ("a,1,2\nb,nan,4\n\na,3,4\n", "5: duplicate block_id 'a'"),
    ("a,1,2\na,3,4\nb,oops,4\n", "4: malformed snapshot row"),
    ("a,1,2\nb,oops,4\nc,5\n", "4: expected 3 comma-separated fields"),
], ids=["repeated-id-before-not-finite", "conversion-before-repeated-id",
        "field-count-before-conversion"])
def test_snapshot_with_two_faults_reports_the_first_in_order(tmp_path, rows, fault):
    path = tmp_path / "bad.csv"
    path.write_text("block_id,x,y\n" + rows)
    with pytest.raises(InputError) as exc:
        dataio.load_snapshot(path)
    assert str(exc.value) == f"{path}:{fault}"


def test_snapshot_empty_data(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("block_id,x,y\n")
    with pytest.raises(InputError, match="no data rows"):
        dataio.load_snapshot(path)


# ---------------------------------------------------------------------------
# sequences

def write_test_sequence(tmp_path, n_events=3, drop_event=None, mutate_ids_at=None):
    entries = []
    for e in range(n_events):
        if e == drop_event:
            continue
        ids = ["a", "b", "c"]
        if e == mutate_ids_at:
            ids[0] = "z"
        name = f"s{e}.csv"
        rows = "\n".join(f"{i},{e}.0,{k}.0" for k, i in enumerate(ids))
        (tmp_path / name).write_text(f"block_id,x,y\n{rows}\n")
        entries.append({"event": e, "path": name})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"snapshots": entries}))
    return manifest


def test_sequence_loads(tmp_path):
    seq = dataio.load_sequence(write_test_sequence(tmp_path, 5))
    assert len(seq) == 5
    assert seq.events == (0, 1, 2, 3, 4)


def test_empty_manifest_rejected(tmp_path):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"snapshots": []}))
    with pytest.raises(InputError, match="non-empty"):
        dataio.load_sequence(manifest)


def test_sequence_gap_detected(tmp_path):
    manifest = write_test_sequence(tmp_path, 5, drop_event=3)
    with pytest.raises(InputError, match=r"entry 3 \(s4.csv\) has event 4;"):
        dataio.load_sequence(manifest)


def reorder_manifest(manifest, events):
    """Rewrite the manifest's entries to list the given events, in that order."""
    doc = json.loads(manifest.read_text())
    paths = {entry["event"]: entry["path"] for entry in doc["snapshots"]}
    doc["snapshots"] = [{"event": e, "path": paths[e]} for e in events]
    manifest.write_text(json.dumps(doc))


@pytest.mark.parametrize("events, at, event", [
    ([1, 0] + list(range(2, 21)), 0, 1),  # two entries swapped
    (list(range(21)) + [20], 21, 20),     # the last event repeated
])
def test_sequence_names_the_first_entry_out_of_place(tmp_path, events, at, event):
    # a list of what is "missing" would read [1, 0, 2, ..., 20] and [21]
    manifest = write_test_sequence(tmp_path, 21)
    reorder_manifest(manifest, events)
    with pytest.raises(InputError) as exc:
        dataio.load_sequence(manifest)
    assert str(exc.value) == (f"{manifest}: snapshot entry {at} (s{event}.csv) has event {event}; "
                              "entries must list events 0, 1, 2, ... in order")
    clouds = (make_cloud([(0, 0)]),) * len(events)
    with pytest.raises(InputError, match=f"entry {at} has event {event}$"):
        dataio.SnapshotSequence(tuple(events), clouds)


def test_sequence_id_mismatch_names_event(tmp_path):
    manifest = write_test_sequence(tmp_path, 4, mutate_ids_at=2)
    with pytest.raises(InputError, match="event 2"):
        dataio.load_sequence(manifest)


def test_sequence_manifest_metadata_is_ignored(tmp_path):
    manifest = write_test_sequence(tmp_path, 3)
    doc = json.loads(manifest.read_text())
    doc["metadata"] = {"site": "demo"}
    manifest.write_text(json.dumps(doc))
    seq = dataio.load_sequence(manifest)
    assert seq.events == (0, 1, 2)
    assert seq.clouds[0].ids == ("a", "b", "c")


def test_sequence_round_trip(tmp_path):
    clouds = tuple(make_cloud([(0, 0), (1, e), (2, 2 * e)]) for e in range(4))
    seq = dataio.SnapshotSequence((0, 1, 2, 3), clouds)
    manifest = dataio.write_sequence(seq, tmp_path / "out")
    back = dataio.load_sequence(manifest)
    assert back.events == seq.events
    for a, b in zip(back.clouds, seq.clouds):
        assert a.ids == b.ids
        assert np.array_equal(a.xy, b.xy)


# ---------------------------------------------------------------------------
# barcodes

def test_barcode_round_trip(tmp_path):
    b = bars((0, 0.0, INF), (0, 0.0, 1.0), (1, 1.0, math.sqrt(2)), cap=2.0)
    path = tmp_path / "bc.csv"
    dataio.write_barcode(b, path)
    back = dataio.read_barcode(path)
    assert back.pairs == b.pairs
    assert back.max_filtration == b.max_filtration


def test_barcode_inf_token(tmp_path):
    path = tmp_path / "bc.csv"
    path.write_text("# max_filtration=5.0\ndim,birth,death\n0,0.0,inf\n")
    back = dataio.read_barcode(path)
    assert back.pairs == (PersistencePair(0, 0.0, math.inf),)


def test_barcode_death_before_birth_rejected(tmp_path):
    path = tmp_path / "bc.csv"
    path.write_text("# max_filtration=5.0\ndim,birth,death\n0,2.0,1.0\n")
    with pytest.raises(InputError, match=":3: death"):
        dataio.read_barcode(path)


def test_barcode_malformed_death_token(tmp_path):
    path = tmp_path / "bc.csv"
    path.write_text("# max_filtration=5.0\ndim,birth,death\n0,0.0,forever\n")
    with pytest.raises(InputError, match=":3: malformed"):
        dataio.read_barcode(path)


@pytest.mark.parametrize("row, message", [
    ("1,nan,2.0", "invalid persistence pair"),
    ("1,1.0,nan", "invalid persistence pair"),
    ("2,1.0,2.0", "dimension 2"),
    ("-1,0.0,inf", "dimension -1"),
    ("0,-1.0,1.0", "invalid persistence pair"),
])
def test_barcode_nan_or_bad_dim_rejected(tmp_path, row, message):
    path = tmp_path / "bc.csv"
    path.write_text(f"# max_filtration=5.0\ndim,birth,death\n{row}\n")
    with pytest.raises(InputError, match=message) as exc:
        dataio.read_barcode(path)
    assert str(exc.value).startswith(f"{path}:3: ")


@pytest.mark.parametrize("cap, shown", [("0", "0.0"), ("-1", "-1.0"), ("nan", "nan"),
                                        ("inf", "inf")])
def test_barcode_cap_must_be_positive(tmp_path, cap, shown):
    # features clamp deaths to the cap, so a cap of 0 or below, or nan,
    # would give features that measure nothing, and an infinite one
    # features that are not finite
    path = tmp_path / "bc.csv"
    path.write_text(f"# max_filtration={cap}\ndim,birth,death\n0,0.0,inf\n")
    with pytest.raises(InputError) as exc:
        dataio.read_barcode(path)
    assert str(exc.value) == f"{path}:1: max_filtration must be positive and finite, got {shown}"


@pytest.mark.parametrize("cap, row", [
    ("1e-300", "1,0.0,5.0"),  # features would clamp the bar to f8 = 1e-300
    ("5.0", "1,6.0,inf"),
    ("5.0", "0,0.0,5.5"),
])
def test_barcode_bar_above_the_cap_rejected(tmp_path, cap, row):
    path = tmp_path / "bc.csv"
    path.write_text(f"# max_filtration={cap}\ndim,birth,death\n0,0.0,inf\n{row}\n")
    birth, death = (float(v) for v in row.split(",")[1:])
    with pytest.raises(InputError) as exc:
        dataio.read_barcode(path)
    assert str(exc.value) == (f"{path}:4: birth {birth} or death {death} lies above "
                              f"max_filtration {float(cap)}")


def test_barcode_refusal_names_the_line_of_the_first_bad_bar(tmp_path):
    # blank lines are skipped, and a later bad bar does not hide this one
    path = tmp_path / "bc.csv"
    path.write_text("# max_filtration=5.0\ndim,birth,death\n0,0.0,inf\n\n0,0.0,1.0\n"
                    "2,1.0,2.0\n0,2.0,1.0\n")
    with pytest.raises(InputError) as exc:
        dataio.read_barcode(path)
    assert str(exc.value) == f"{path}:6: dimension 2, expected 0 or 1"


def test_barcode_bar_at_the_cap_accepted(tmp_path):
    path = tmp_path / "bc.csv"
    path.write_text("# max_filtration=5.0\ndim,birth,death\n0,0.0,inf\n1,5.0,inf\n0,0.0,5.0\n")
    assert len(dataio.read_barcode(path)) == 3


def test_barcode_without_bars_rejected(tmp_path):
    # every cloud has one component that never dies, so the engine writes
    # at least one bar
    path = tmp_path / "bc.csv"
    path.write_text("# max_filtration=5.0\ndim,birth,death\n\n")
    with pytest.raises(InputError) as exc:
        dataio.read_barcode(path)
    assert str(exc.value) == f"{path}: no data rows"


# ---------------------------------------------------------------------------
# features files

def test_features_round_trip(tmp_path):
    b = bars((0, 0.0, INF), (0, 0.0, 3.0), (1, 2.0, 4.0), cap=10.0)
    vec = extract_features(b)
    path = tmp_path / "features.csv"
    dataio.write_features([vec, vec], path)
    events, matrix = dataio.read_features(path)
    assert events == [0, 1]
    assert matrix.shape == (2, 14)
    assert np.array_equal(matrix[0], vec.as_array())


def test_features_header_checked(tmp_path):
    path = tmp_path / "features.csv"
    path.write_text("event,f1\n0,1.0\n")
    with pytest.raises(InputError, match="missing header"):
        dataio.read_features(path)


def write_feature_rows(path, events, blank_after=None):
    rows = [dataio.FEATURES_HEADER]
    for i, event in enumerate(events):
        rows.append(f"{event}," + ",".join(str(20.0 - i - 0.5 * k) for k in range(14)))
        if i == blank_after:
            rows.append("")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("events, blank_after, lineno, message", [
    (range(100, 121), None, 2, "event 100 where 0"),  # shifted: row 10 is not event 10
    ([0, 1, 1, 2], None, 4, "event 1 where 2"),       # duplicated row
    ([0, 1, 3, 4], None, 4, "event 3 where 2"),       # gap
    ([1, 0, 2], None, 2, "event 1 where 0"),          # out of file order
    ([0, 1, 5], 1, 5, "event 5 where 2"),             # blank lines still count as lines
])
def test_features_event_column_must_run_from_zero(tmp_path, events, blank_after, lineno,
                                                  message):
    path = write_feature_rows(tmp_path / "features.csv", events, blank_after)
    with pytest.raises(InputError, match=f":{lineno}: {message} was expected"):
        dataio.read_features(path)


def test_features_blank_lines_are_not_events(tmp_path):
    path = write_feature_rows(tmp_path / "features.csv", [0, 1, 2], blank_after=0)
    events, matrix = dataio.read_features(path)
    assert events == [0, 1, 2] and matrix.shape == (3, 14)


# ---------------------------------------------------------------------------
# write -> read -> write through the shared CSV codec: exact values (bit for
# bit, so -0.0 stays negative) and identical bytes the second time

finite = st.floats(allow_nan=False, allow_infinity=False)
# what str.splitlines, and so the CSV reader, breaks a line at
LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
# the ids write_snapshot accepts: any text UTF-8 can hold (no lone
# surrogates) but a comma or a line break, with no whitespace at either end
block_ids = st.text(st.characters(exclude_characters="," + LINE_BREAKS,
                                  exclude_categories=("Cs",)),
                    max_size=8).filter(lambda bid: bid == bid.strip())


def exact(values):
    return [repr(float(v)) for v in values]


def round_trip(write, read, value, path):
    """Write value, read it back, write what was read; returns (read, bytes equal)."""
    write(value, path)
    first = path.read_bytes()
    back = read(path)
    write(back, path)
    return back, path.read_bytes() == first


@pytest.fixture(scope="module")
def codec_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("codec")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(block_ids, finite, finite), min_size=1, max_size=20,
                unique_by=lambda row: row[0]))
def test_snapshot_codec_round_trip(codec_dir, rows):
    cloud = PointCloud.from_rows(rows)
    back, same_bytes = round_trip(dataio.write_snapshot, dataio.load_snapshot,
                                  cloud, codec_dir / "snapshot.csv")
    assert back.ids == cloud.ids
    assert exact(back.xy.ravel()) == exact(cloud.xy.ravel())
    assert same_bytes


@st.composite
def barcodes(draw):
    """Barcodes that read_barcode accepts, as the engine writes them: a
    positive, finite cap, at least one bar, and no birth or finite death
    above the cap."""
    cap = draw(st.floats(0.0, exclude_min=True, allow_infinity=False))
    bars = []
    for _ in range(draw(st.integers(1, 20))):
        birth = draw(st.one_of(st.just(-0.0), st.floats(0.0, cap)))
        death = draw(st.one_of(st.just(math.inf), st.just(birth), st.floats(birth, cap)))
        bars.append(PersistencePair(draw(st.sampled_from((0, 1))), birth, death))
    return Barcode(tuple(bars), cap)


@settings(max_examples=100, deadline=None)
@given(barcodes())
def test_barcode_codec_round_trip(codec_dir, barcode):
    back, same_bytes = round_trip(dataio.write_barcode, dataio.read_barcode,
                                  barcode, codec_dir / "barcode.csv")
    assert [p.dim for p in back.pairs] == [p.dim for p in barcode.pairs]
    assert exact(v for p in back.pairs for v in p[1:]) == \
        exact(v for p in barcode.pairs for v in p[1:])
    assert repr(back.max_filtration) == repr(barcode.max_filtration)
    assert same_bytes


feature_vectors = st.builds(
    lambda values, counts: FeatureVector(*values, *counts),
    st.lists(finite, min_size=12, max_size=12),
    st.lists(st.integers(0, 10**6), min_size=2, max_size=2))


def read_vectors(path):
    events, matrix = dataio.read_features(path)
    assert events == list(range(len(matrix)))
    return [FeatureVector(*row[:12], int(row[12]), int(row[13]))
            for row in matrix.tolist()]


@settings(max_examples=100, deadline=None)
@given(st.lists(feature_vectors, min_size=1, max_size=10))
def test_features_codec_round_trip(codec_dir, vectors):
    back, same_bytes = round_trip(dataio.write_features, read_vectors, vectors,
                                  codec_dir / "features.csv")
    assert [exact(v.as_array()) for v in back] == [exact(v.as_array()) for v in vectors]
    assert [(v.f13, v.f14) for v in back] == [(v.f13, v.f14) for v in vectors]
    assert same_bytes


# ---------------------------------------------------------------------------
# models

def test_model_round_trip(tmp_path):
    model = LssvmModel(
        alphas=np.array([0.25, -0.25, 0.0]), bias=1.5, gamma=100.0,
        kernel=KernelSpec("rbf", 2.0),
        inputs=np.array([[0.0], [1.0], [2.0]]))
    path = tmp_path / "model.json"
    dataio.write_model(model, x_mean=7.5, x_std=4.6, path=path)
    back, mean, std = dataio.read_model(path)
    assert mean == 7.5 and std == 4.6
    assert back.kernel == model.kernel
    assert back.gamma == model.gamma
    assert back.bias == model.bias
    assert np.array_equal(back.alphas, model.alphas)
    assert np.array_equal(back.inputs, model.inputs)


def test_model_malformed(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{\"gamma\": 1.0}")
    with pytest.raises(InputError, match="malformed model"):
        dataio.read_model(path)


def write_model_doc(path, **changes):
    """A model file as write_model writes it, with fields replaced by
    changes (kernel_sigma for kernel.sigma), written as raw JSON."""
    doc = {"kernel": {"kind": "rbf", "sigma": 2.0}, "gamma": 100.0, "x_mean": 7.5,
           "x_std": 4.6, "alphas": [0.25, -0.25, 0.0], "bias": 1.5,
           "inputs": [[0.0], [1.0], [2.0]], "classification": False}
    if "kernel_sigma" in changes:
        doc["kernel"]["sigma"] = changes.pop("kernel_sigma")
    doc.update(changes)
    path.write_text(json.dumps(doc))  # json.dumps writes nan as NaN, which json reads back


@pytest.mark.parametrize("changes, message", [
    ({"classification": "false"}, "classification must be true or false, got 'false'"),
    ({"classification": 0}, "classification must be true or false, got 0"),
    ({"gamma": "100"}, "gamma must be a finite number, got '100'"),
    ({"gamma": True}, "gamma must be a finite number, got True"),
    ({"gamma": 10 ** 400}, "gamma must be a finite number, got 1000"),
    ({"bias": math.nan}, "bias must be a finite number, got nan"),
    ({"x_mean": math.inf}, "x_mean must be a finite number, got inf"),
    ({"x_std": None}, "x_std must be a finite number, got None"),
    ({"kernel_sigma": "2.0"}, "kernel.sigma must be a finite number or null, got '2.0'"),
    ({"kernel_sigma": False}, "kernel.sigma must be a finite number or null, got False"),
    ({"kernel_sigma": None}, "kernel must be a valid kernel: rbf kernel needs sigma > 0"),
    ({"alphas": ["0.25", -0.25, 0.0]}, "alphas must be a list of finite numbers"),
    ({"alphas": [0.25, True, 0.0]}, "alphas must be a list of finite numbers"),
    ({"inputs": [[0.0], ["1.0"], [2.0]]}, "inputs must be 3 lists of finite numbers"),
    ({"inputs": [[0.0], [1.0]]}, "inputs must be 3 lists of finite numbers, one per alpha"),
    ({"inputs": [[0.0], [1.0, 1.0], [2.0]]}, "all of one length"),
    ({"inputs": [0.0, 1.0, 2.0]}, "inputs must be 3 lists of finite numbers"),
], ids=["classification-string", "classification-int", "gamma-string", "gamma-bool",
        "gamma-past-float", "bias-nan", "x_mean-inf", "x_std-null", "sigma-string",
        "sigma-bool", "sigma-null-rbf", "alphas-string", "alphas-bool", "inputs-string",
        "inputs-rows", "inputs-ragged", "inputs-flat"])
def test_model_refuses_a_field_of_the_wrong_kind(tmp_path, changes, message):
    path = tmp_path / "model.json"
    write_model_doc(path, **changes)
    with pytest.raises(InputError) as exc:
        dataio.read_model(path)
    assert str(exc.value).startswith(f"{path}: model field ")
    assert message in str(exc.value)


def test_model_reads_what_write_model_writes(tmp_path):
    # the unchanged document reads, a linear kernel's sigma is null, and
    # classification may be left out
    path = tmp_path / "model.json"
    write_model_doc(path)
    model, _, _ = dataio.read_model(path)
    assert model.kernel == KernelSpec("rbf", 2.0) and model.classification is False
    write_model_doc(path, kernel={"kind": "linear", "sigma": None}, classification=True)
    assert dataio.read_model(path)[0].classification is True
    doc = json.loads(path.read_text())
    del doc["classification"]
    path.write_text(json.dumps(doc))
    assert dataio.read_model(path)[0].classification is False


def test_write_model_refuses_a_value_that_is_not_finite(tmp_path):
    model = LssvmModel(alphas=np.array([0.25, math.nan]), bias=1.5, gamma=100.0,
                       kernel=KernelSpec("rbf", 2.0), inputs=np.array([[0.0], [1.0]]))
    path = tmp_path / "model.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        dataio.write_model(model, x_mean=7.5, x_std=4.6, path=path)
    assert not path.exists()


# ---------------------------------------------------------------------------
# fixtures

def test_table5_values_and_monotonicity():
    t5, _ = dataio.fixtures()
    assert len(t5.rows) == 21
    assert t5.max_displacement(20) == 4.758
    assert t5.max_displacement(0) == 0.232
    assert t5.collapse_displacement(20) == 3.331
    for a, b in zip(t5.rows, t5.rows[1:]):
        assert a[1] <= b[1] and a[2] <= b[2]


def test_table6_values():
    _, t6 = dataio.fixtures()
    f8 = t6.features[8]
    assert f8.y[0] == 21.82
    assert f8.y[20] == 16.01
    assert all(a > b for a, b in zip(f8.y, f8.y[1:]))
    assert f8.j[16] == 16.54
    assert set(t6.features[13].y) == {42.0}
    assert set(t6.features[13].j.values()) == {42.0}
    assert t6.features[14].y[0] == 8.0
    assert t6.features[2].j[20] == 11.1
    assert len(t6.notes) >= 1


def test_table6_reported_errors_follow_prediction_denominator():
    # the reported percentages divide by the prediction, not the truth;
    # the event-19 feature-14 row is the known anomaly
    _, t6 = dataio.fixtures()
    for k in (2, 8):
        fx = t6.features[k]
        for e, w in fx.w_percent.items():
            recomputed = 100.0 * abs(fx.y[e] - fx.j[e]) / abs(fx.y[e])
            assert recomputed == pytest.approx(w, abs=0.05)


# ---------------------------------------------------------------------------
# text encoding

def test_every_text_io_call_in_the_package_names_its_encoding():
    # without one, a file follows the locale, not the UTF-8 the formats promise
    package = Path(dataio.__file__).parent
    unnamed = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if (name in ("read_text", "write_text", "open")
                    and not any(k.arg == "encoding" for k in node.keywords)):
                unnamed.append(f"{path.name}:{node.lineno}: {name}")
    assert unnamed == []


def test_every_file_kind_reads_the_same_after_a_byte_order_mark(tmp_path):
    cloud = make_cloud([(0.125, -3.5), (1e-9, 2.0), (4.4, 4.4)])
    manifest = dataio.write_sequence(dataio.SnapshotSequence((0, 1), (cloud, cloud)),
                                     tmp_path / "seq")
    barcode = bars((0, 0.0, INF), (0, 0.0, 1.0), (1, 1.0, math.sqrt(2)), cap=2.0)
    barcode_path, features_path = tmp_path / "barcode.csv", tmp_path / "features.csv"
    dataio.write_barcode(barcode, barcode_path)
    dataio.write_features([extract_features(barcode)] * 2, features_path)

    def read_all():
        snapshot = dataio.load_snapshot(manifest.parent / "snapshot_000.csv")
        events, matrix = dataio.read_features(features_path)
        return ([(c.ids, c.xy.tolist()) for c in dataio.load_sequence(manifest).clouds],
                snapshot.ids, snapshot.xy.tolist(), dataio.read_barcode(barcode_path),
                events, matrix.tolist())

    files = [manifest, *manifest.parent.glob("*.csv"), barcode_path, features_path]
    assert not any(path.read_bytes().startswith(b"\xef\xbb\xbf") for path in files)
    before = read_all()
    for path in files:
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_all() == before


def test_a_bad_byte_after_a_byte_order_mark_is_named_from_the_first_byte(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"\xef\xbb\xbfblock_id,x,y\n\xff,0.0,0.0\n")
    with pytest.raises(InputError) as exc:
        dataio.load_snapshot(path)
    assert str(exc.value) == f"{path}: not UTF-8 text (invalid start byte at byte 16)"
