import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

from dynfuse.errors import (
    CorruptHeaderError,
    DimensionMismatchError,
    EmptyEnsembleError,
    NonFiniteValueError,
    ShapeMismatchError,
)
from dynfuse.ingest import (
    DescriptorMatrix,
    assemble_tensor,
    compute_similarity,
    load_csv_matrix,
    load_matrix,
    load_similarity_tensor,
    sidecar_path,
    write_matrix,
)


class TestMatrixFile:
    def test_small_round_trip(self, tmp_path):
        arr = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], dtype=np.float32)
        path = write_matrix(tmp_path / "m.f32", arr, role="similarity", technique="t")
        assert path.stat().st_size == 24  # 2x3 float32 payload
        loaded, meta = load_matrix(path)
        assert np.array_equal(loaded, arr)
        assert meta == {"rows": 2, "cols": 3, "role": "similarity", "technique": "t"}

    def test_round_trip_bit_exact(self, tmp_path, rng):
        arr = (rng.standard_normal((17, 9)) * 1e-20).astype(np.float32)
        arr[0, 0] = np.float32(3.4e38)
        path = write_matrix(tmp_path / "m.f32", arr, role="query", technique="q")
        loaded, _ = load_matrix(path)
        assert loaded.dtype == np.float32
        assert arr.tobytes() == loaded.tobytes()

    def test_loaded_array_is_writable(self, tmp_path):
        arr = np.arange(6, dtype=np.float32).reshape(2, 3)
        path = write_matrix(tmp_path / "m.f32", arr, role="similarity", technique="t")
        loaded, _ = load_matrix(path)
        path.unlink()
        loaded[0, 0] = 9.0
        assert loaded[0, 0] == 9.0 and np.array_equal(loaded[1], arr[1])

    def test_payload_shorter_than_sidecar(self, tmp_path):
        path = write_matrix(
            tmp_path / "m.f32", np.zeros((2, 3), dtype=np.float32),
            role="similarity", technique="t",
        )
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(ShapeMismatchError):
            load_matrix(path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "m.f32"
        path.write_bytes(b"\x00" * 8)
        with pytest.raises(CorruptHeaderError):
            load_matrix(path)

    def test_unparseable_sidecar(self, tmp_path):
        path = write_matrix(
            tmp_path / "m.f32", np.zeros((1, 2), dtype=np.float32),
            role="similarity", technique="t",
        )
        sidecar_path(path).write_text("{not json")
        with pytest.raises(CorruptHeaderError):
            load_matrix(path)

    @pytest.mark.parametrize("drop", ["rows", "cols", "role", "technique"])
    def test_sidecar_missing_field(self, tmp_path, drop):
        path = write_matrix(
            tmp_path / "m.f32", np.zeros((1, 2), dtype=np.float32),
            role="similarity", technique="t",
        )
        meta = json.loads(sidecar_path(path).read_text())
        del meta[drop]
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(CorruptHeaderError):
            load_matrix(path)

    @pytest.mark.parametrize("sidecar", [
        "5", "null", '"rows cols role technique"',
        '{"rows": true, "cols": 2, "role": "similarity", "technique": "t"}',
        '{"rows": 2, "cols": true, "role": "similarity", "technique": "t"}',
    ])
    def test_mistyped_sidecar_rejected(self, tmp_path, sidecar):
        path = write_matrix(
            tmp_path / "m.f32", np.zeros((1, 2), dtype=np.float32),
            role="similarity", technique="t",
        )
        sidecar_path(path).write_text(sidecar)
        with pytest.raises(CorruptHeaderError):
            load_matrix(path)

    def test_bad_role_rejected(self, tmp_path):
        path = write_matrix(
            tmp_path / "m.f32", np.zeros((1, 2), dtype=np.float32),
            role="similarity", technique="t",
        )
        meta = json.loads(sidecar_path(path).read_text())
        meta["role"] = "banana"
        sidecar_path(path).write_text(json.dumps(meta))
        with pytest.raises(CorruptHeaderError):
            load_matrix(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = write_matrix(
            tmp_path / "m.f32", np.ones((1, 2), dtype=np.float32),
            role="similarity", technique="t",
        )
        payload = np.array([[1.0, np.nan]], dtype="<f4").tobytes()
        path.write_bytes(payload)
        with pytest.raises(NonFiniteValueError):
            load_matrix(path)
        with pytest.raises(NonFiniteValueError):
            write_matrix(
                tmp_path / "n.f32", np.array([[np.inf, 0.0]]),
                role="similarity", technique="t",
            )

    def test_expected_meta_enforced(self, tmp_path):
        path = write_matrix(
            tmp_path / "m.f32", np.zeros((2, 2), dtype=np.float32),
            role="database", technique="t",
        )
        with pytest.raises(CorruptHeaderError):
            load_matrix(path, expected_meta={"role": "similarity"})
        with pytest.raises(ShapeMismatchError):
            load_matrix(path, expected_meta={"rows": 3})


class TestCsv:
    def test_header_then_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1,c2\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
        arr = load_csv_matrix(path)
        assert arr.shape == (2, 3)
        assert np.allclose(arr, [[1, 2, 3], [4, 5, 6]])

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("c0,c1\n")
        with pytest.raises(ShapeMismatchError):
            load_csv_matrix(path)


    @pytest.mark.parametrize("content, error", [
        ("a,b,c\n1,2,3\n4,5\n", ShapeMismatchError),
        ("a,b,c\n1,x,3\n", CorruptHeaderError),
        (b"a,b\n\xff\xfe,1\n", CorruptHeaderError),
        ("a,b\n1e39,1\n", NonFiniteValueError),  # finite only as float64
    ])
    def test_unparseable_rows_rejected(self, tmp_path, content, error):
        path = tmp_path / "m.csv"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        with pytest.raises(error):
            load_csv_matrix(path)


class TestComputeSimilarity:
    def test_cosine_identical_unit_vectors(self):
        q = DescriptorMatrix(np.array([[1.0, 0.0]]), role="query")
        db = DescriptorMatrix(np.array([[1.0, 0.0]]), role="database")
        sim = compute_similarity(q, db, metric="cosine")
        assert sim[0, 0] == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        q = DescriptorMatrix(np.array([[1.0, 0.0]]), role="query")
        db = DescriptorMatrix(np.array([[0.0, 1.0]]), role="database")
        assert compute_similarity(q, db)[0, 0] == pytest.approx(0.0)

    def test_negative_euclidean_hand_computed(self):
        q = DescriptorMatrix(np.array([[1.0, 0.0]]), role="query")
        db = DescriptorMatrix(
            np.array([[1.0, 0.0], [0.0, 1.0]]), role="database"
        )
        sim = compute_similarity(q, db, metric="negative-euclidean")
        assert sim[0, 0] == pytest.approx(0.0)
        assert sim[0, 1] == pytest.approx(-math.sqrt(2.0))

    def test_zero_norm_row_scores_zero(self, caplog):
        q = DescriptorMatrix(np.array([[0.0, 0.0], [1.0, 0.0]]), role="query")
        db = DescriptorMatrix(np.array([[1.0, 0.0]]), role="database")
        with caplog.at_level(logging.WARNING, logger="dynfuse.ingest"):
            sim = compute_similarity(q, db)
        assert sim[0, 0] == 0.0
        assert sim[1, 0] == pytest.approx(1.0)
        assert any("zero-norm" in r.message for r in caplog.records)

    def test_cosine_rescale_invariance(self, rng):
        q = DescriptorMatrix(rng.random((4, 8)) + 0.1, role="query")
        db = DescriptorMatrix(rng.random((6, 8)) + 0.1, role="database")
        base = compute_similarity(q, db)
        scales = rng.random(4)[:, None] * 10 + 0.5
        rescaled = DescriptorMatrix(q.data * scales, role="query")
        assert np.allclose(compute_similarity(rescaled, db), base, atol=1e-6)

    def test_dim_mismatch(self):
        q = DescriptorMatrix(np.zeros((1, 3)), role="query")
        db = DescriptorMatrix(np.zeros((1, 4)), role="database")
        with pytest.raises(DimensionMismatchError):
            compute_similarity(q, db)


class TestAssemble:
    def test_two_matrices(self, rng):
        t = assemble_tensor([rng.random((5, 10)), rng.random((5, 10))], ["a", "b"])
        assert (t.n_techniques, t.queries, t.database_size) == (2, 5, 10)

    def test_shape_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            assemble_tensor([rng.random((5, 10)), rng.random((5, 9))], ["a", "b"])

    def test_empty_ensemble(self):
        with pytest.raises(EmptyEnsembleError):
            assemble_tensor([], [])

    def test_single_database_column(self):
        with pytest.raises(ShapeMismatchError):
            assemble_tensor([np.ones((3, 1)), np.ones((3, 1))], ["a", "b"])

    def test_duplicate_names(self, rng):
        with pytest.raises(ValueError):
            assemble_tensor([rng.random((2, 3)), rng.random((2, 3))], ["a", "a"])


def test_load_similarity_tensor_round_trip(tmp_path, rng):
    mats = [rng.random((4, 7)).astype(np.float32) for _ in range(2)]
    entries = []
    for i, m in enumerate(mats):
        p = write_matrix(tmp_path / f"t{i}.f32", m, role="similarity",
                         technique=f"t{i}")
        entries.append((f"t{i}", p))
    tensor = load_similarity_tensor(entries)
    assert tensor.names == ["t0", "t1"]
    assert np.allclose(tensor.data[0], mats[0])


def test_load_similarity_tensor_rejects_wrong_role(tmp_path, rng):
    p = write_matrix(tmp_path / "d.f32", rng.random((2, 3)).astype(np.float32),
                     role="database", technique="d")
    with pytest.raises(CorruptHeaderError):
        load_similarity_tensor([("d", p)])


MiB = 2**20


def write_similarities(tmp_path, mats):
    return [(f"t{i}", write_matrix(tmp_path / f"t{i}.f32", m, role="similarity",
                                   technique=f"t{i}"))
            for i, m in enumerate(mats)]


class TestStreamingLoader:
    """load_similarity_tensor streams one technique at a time into the
    tensor that assemble_tensor preallocates."""

    def test_values_equal_stacked_float64_casts(self, tmp_path, rng):
        mats = [(rng.standard_normal((6, 9)) * 10.0 ** rng.integers(-30, 30))
                .astype(np.float32) for _ in range(3)]
        want = np.stack([m.astype(np.float64) for m in mats])
        tensor = load_similarity_tensor(write_similarities(tmp_path, mats))
        assert tensor.data.dtype == np.float32
        assert tensor.data.astype(np.float64).tobytes() == want.tobytes()
        listed = assemble_tensor(mats, ["a", "b", "c"])
        assert listed.data.dtype == np.float32
        assert listed.data.astype(np.float64).tobytes() == want.tobytes()

    def test_loading_peaks_near_one_tensor(self, tmp_path, rng):
        # (8, 256, 512) float32 is 4 MiB; one technique's payload is 0.5 MiB
        entries = write_similarities(
            tmp_path, [rng.random((256, 512), dtype=np.float32) for _ in range(8)])
        tracemalloc.start()
        try:
            tensor = load_similarity_tensor(entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensor.data.nbytes == 4 * MiB
        assert peak <= 5 * MiB, peak / MiB  # measured 4.63 MiB

    @pytest.mark.parametrize("at", [0, 7])
    def test_descriptor_pair_makes_one_float64_tensor(self, tmp_path, rng, at):
        # seven float32 similarity files and one descriptor pair, whose
        # similarities are float64: an (8, 256, 512) float64 tensor of 8 MiB,
        # never a float32 one beside it
        mats = [rng.random((256, 512), dtype=np.float32) for _ in range(7)]
        entries = write_similarities(tmp_path, mats)
        q = DescriptorMatrix(rng.random((256, 16)), role="query")
        db = DescriptorMatrix(rng.random((512, 16)), role="database")
        write_matrix(tmp_path / "q.f32", q.data, role="query", technique="d")
        write_matrix(tmp_path / "db.f32", db.data, role="database", technique="d")
        entries.insert(at, {"name": "d", "query": str(tmp_path / "q.f32"),
                            "database": str(tmp_path / "db.f32")})
        want = [m.astype(np.float64) for m in mats]
        want.insert(at, compute_similarity(q, db))
        tracemalloc.start()
        try:
            tensor = load_similarity_tensor(entries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tensor.data.dtype == np.float64
        assert tensor.data.tobytes() == np.stack(want).tobytes()
        assert peak <= 10 * MiB, peak / MiB  # measured 9.50 MiB

    def test_wider_matrix_after_float32_casts_the_tensor(self, rng):
        mats = [rng.random((3, 5), dtype=np.float32), rng.random((3, 5)),
                rng.random((3, 5), dtype=np.float32)]
        tensor = assemble_tensor(mats, "abc")
        assert tensor.data.dtype == np.float64
        assert tensor.data.tobytes() == np.stack(mats).astype(np.float64).tobytes()

    def test_list_path_allocates_one_tensor(self, rng):
        mats = [rng.random((256, 512), dtype=np.float32) for _ in range(8)]
        tracemalloc.start()
        try:
            tensor = assemble_tensor(mats, [f"t{i}" for i in range(8)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= tensor.data.nbytes + 1.5 * MiB, peak / MiB

    @pytest.mark.parametrize("shapes, names, error, loaded", [
        ([(3, 4), (3, 5), (3, 4)], "abc", DimensionMismatchError, 2),
        ([(3, 4), (3,), (3, 4)], "abc", DimensionMismatchError, 2),
        ([(3, 4), (3, 4), (3, 4), (3, 4)], "ab", DimensionMismatchError, 3),
        ([(3, 4), (3, 4)], "abc", DimensionMismatchError, 2),
        ([(3, 1), (3, 1)], "ab", ShapeMismatchError, 2),
        ([], "", EmptyEnsembleError, 0),
    ])
    def test_generator_stops_at_the_first_error(self, shapes, names, error, loaded):
        pulled = []

        def matrices():
            for shape in shapes:
                pulled.append(shape)
                yield np.ones(shape, dtype=np.float32)

        with pytest.raises(error):
            assemble_tensor(matrices(), list(names))
        assert len(pulled) == loaded

    def test_manifest_entries_mix_binary_csv_and_descriptors(self, tmp_path, rng):
        sim = rng.random((3, 5)).astype(np.float32)
        write_matrix(tmp_path / "sim.f32", sim, role="similarity", technique="b")
        (tmp_path / "sim.csv").write_text(
            "h\n" + "\n".join(",".join(repr(float(v)) for v in row) for row in sim))
        q = DescriptorMatrix(rng.random((3, 4)) + 0.1, role="query")
        db = DescriptorMatrix(rng.random((5, 4)) + 0.1, role="database")
        write_matrix(tmp_path / "q.f32", q.data, role="query", technique="d")
        write_matrix(tmp_path / "db.f32", db.data, role="database", technique="d")
        tensor = load_similarity_tensor([
            {"name": "bin", "similarity": str(tmp_path / "sim.f32")},
            ("pair", tmp_path / "sim.f32"),
            {"name": "csv", "similarity": str(tmp_path / "sim.csv")},
            {"name": "cos", "query": str(tmp_path / "q.f32"),
             "database": str(tmp_path / "db.f32")},
            {"name": "euc", "query": str(tmp_path / "q.f32"),
             "database": str(tmp_path / "db.f32"), "metric": "negative-euclidean"},
        ])
        assert tensor.names == ["bin", "pair", "csv", "cos", "euc"]
        for i in range(3):
            assert tensor.data[i].tobytes() == sim.astype(np.float64).tobytes()
        assert np.array_equal(tensor.data[3], compute_similarity(q, db))
        assert np.array_equal(tensor.data[4],
                              compute_similarity(q, db, "negative-euclidean"))

    def test_descriptor_role_is_checked(self, tmp_path, rng):
        write_matrix(tmp_path / "q.f32", rng.random((3, 4)), role="similarity",
                     technique="d")
        write_matrix(tmp_path / "db.f32", rng.random((5, 4)), role="database",
                     technique="d")
        with pytest.raises(CorruptHeaderError):
            load_similarity_tensor([{"name": "d", "query": str(tmp_path / "q.f32"),
                                     "database": str(tmp_path / "db.f32")}])
