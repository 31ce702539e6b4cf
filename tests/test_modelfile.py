import json
import os
import threading
import tracemalloc

import numpy as np
import pytest

from conjprop.edgepred import NO_EDGE, EdgeParser, new_parser
from conjprop.modelfile import (ModelFileError, check_arrays, load_model,
                                save_model)


def test_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "m.bin"
    rng = np.random.default_rng(0)
    arrays = {"weights": rng.normal(size=(3, 4)),
              "bias": rng.normal(size=(4,)),
              "counts": np.arange(6, dtype=np.int64).reshape(2, 3),
              "empty": np.zeros((0, 3), np.float32)}
    meta = {"vocab": {"a": 0, "b": 1}, "dim": 4}
    save_model(path, "demo", meta, arrays)
    kind, meta2, arrays2 = load_model(path)
    assert kind == "demo"
    assert meta2 == meta
    for name, arr in arrays.items():
        assert arrays2[name].dtype == arr.dtype
        assert arrays2[name].shape == arr.shape
        assert arrays2[name].tobytes() == arr.tobytes()


def test_header_is_one_json_line(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "demo", {}, {"x": np.zeros(2)})
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    assert header["format"] == "conjprop-model"
    assert header["version"] == 1
    assert header["arrays"] == [
        {"name": "x", "dtype": "float64", "shape": [2], "nbytes": 16}]
    assert blob == np.zeros(2).tobytes()


def test_save_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    arrays = {"w": np.linspace(0, 1, 7), "v": np.ones((2, 2))}
    save_model(a, "demo", {"k": [1, 2]}, arrays)
    save_model(b, "demo", {"k": [1, 2]}, arrays)
    assert a.read_bytes() == b.read_bytes()


def test_truncated_file_is_reported(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "demo", {}, {"x": np.zeros(4)})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ModelFileError, match="truncated"):
        load_model(path)


def test_a_size_past_the_end_of_the_file_is_truncation(tmp_path):
    # reported before anything of that size is allocated
    path = tmp_path / "m.bin"
    header = {"format": "conjprop-model", "version": 1, "kind": "demo",
              "meta": {}, "arrays": [{"name": "x", "dtype": "float64",
                                      "shape": [10**13], "nbytes": 8 * 10**13}]}
    path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(16))
    with pytest.raises(ModelFileError, match="truncated array 'x'"):
        load_model(path)


def _load_through_fifo(fifo, data: bytes):
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(data)
    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return load_model(fifo)
    finally:
        writer.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_a_model_loads_through_a_pipe(tmp_path):
    # a pipe reports size 0, so the loader reads it until it ends
    path = tmp_path / "m.bin"
    arrays = {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
              "b": np.ones(5)}
    save_model(path, "demo", {"k": 1}, arrays)
    kind, meta, loaded = _load_through_fifo(tmp_path / "a.fifo",
                                            path.read_bytes())
    assert (kind, meta) == ("demo", {"k": 1})
    for name, arr in arrays.items():
        assert loaded[name].tobytes() == arr.tobytes()
    with pytest.raises(ModelFileError, match="truncated array 'w'"):
        _load_through_fifo(tmp_path / "b.fifo", path.read_bytes()[:-8])


def test_loading_a_parser_holds_each_array_once(tmp_path):
    path = tmp_path / "parser.model"
    parser = new_parser([NO_EDGE] + [f"l{i}" for i in range(11)], layers=2,
                        dim=16, hidden=192, dtype=np.float32)
    parser.save(path)
    nbytes = sum(t.data.nbytes for t in parser.params.values())
    del parser
    tracemalloc.start()
    try:
        loaded = EdgeParser.load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert loaded.params["bilinear"].data.dtype == np.float32
    assert peak < 1.25 * nbytes, (peak, nbytes)


def test_trailing_garbage_is_reported(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "demo", {}, {"x": np.zeros(2)})
    with open(path, "ab") as fh:
        fh.write(b"extra")
    with pytest.raises(ModelFileError, match="trailing"):
        load_model(path)


def test_foreign_file_is_rejected(tmp_path):
    path = tmp_path / "m.bin"
    path.write_bytes(b'{"format":"something-else"}\n')
    with pytest.raises(ModelFileError, match="not a"):
        load_model(path)
    path.write_bytes(b"\x00\x01binary\n")
    with pytest.raises(ModelFileError, match="header"):
        load_model(path)


def test_unsupported_dtype_is_rejected(tmp_path):
    with pytest.raises(ModelFileError, match="dtype"):
        save_model(tmp_path / "m.bin", "demo", {},
                   {"x": np.zeros(2, dtype=np.float16)})


def test_float32_arrays_round_trip_at_four_bytes_each(tmp_path):
    path = tmp_path / "m.bin"
    arrays = {"w": np.linspace(-1, 1, 6, dtype=np.float32).reshape(2, 3),
              "swapped": np.arange(3, dtype=">f4")}
    save_model(path, "demo", {}, arrays)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
    assert header["arrays"] == [
        {"name": "swapped", "dtype": "float32", "shape": [3], "nbytes": 12},
        {"name": "w", "dtype": "float32", "shape": [2, 3], "nbytes": 24}]
    _, _, loaded = load_model(path)
    for name, arr in arrays.items():
        assert loaded[name].dtype == np.float32
        assert loaded[name].tobytes() == arr.astype("<f4").tobytes()


def test_nbytes_must_be_itemsize_times_the_shape(tmp_path):
    path = tmp_path / "m.bin"
    save_model(path, "demo", {}, {"x": np.zeros(3, dtype=np.float32)})
    header, blob = path.read_bytes().split(b"\n", 1)
    # a float32 entry that claims float64's 8 bytes per element
    header = header.replace(b'"nbytes":12', b'"nbytes":24')
    path.write_bytes(header + b"\n" + blob + bytes(12))
    with pytest.raises(ModelFileError, match="do not agree"):
        load_model(path)


def test_array_bytes_match_a_tobytes_construction(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {"f": rng.normal(size=(3, 5)),
              "i": rng.integers(-9, 9, size=(4, 2)).astype(np.int64),
              "strided": rng.normal(size=(6, 4)).T[::2],
              "swapped": rng.normal(size=(2, 3)).astype(">f8")}
    path = tmp_path / "m.bin"
    save_model(path, "demo", {}, arrays)
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        blob = fh.read()
    expected = b"".join(
        np.ascontiguousarray(arrays[name])
        .astype("<i8" if name == "i" else "<f8").tobytes(order="C")
        for name in sorted(arrays))
    assert blob == expected
    assert [entry["dtype"] for entry in header["arrays"]] == [
        "float64", "int64", "float64", "float64"]
    _, _, loaded = load_model(path)
    for name, arr in arrays.items():
        assert np.array_equal(loaded[name], arr)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_non_finite_array_is_neither_written_nor_accepted(tmp_path, value):
    path = tmp_path / "m.model"
    arrays = {"a": np.array([1.0, value]), "b": np.zeros(2)}
    with pytest.raises(ModelFileError, match="array 'a' holds a non-finite"):
        save_model(path, "kernel", {}, arrays)
    assert not path.exists()
    with pytest.raises(ModelFileError, match="array 'a' holds a non-finite"):
        check_arrays(path, arrays, {"b": (2,), "a": (2,)})
    check_arrays(path, arrays, {"b": (2,)})
