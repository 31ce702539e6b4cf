"""Versioned binary container for trained models.

Layout: one JSON header line (UTF-8, sorted keys, compact separators,
terminated by "\\n"), then the raw bytes of every array in manifest order.
Arrays are little-endian, C-order.  The header carries format name,
version, model kind, a free-form "meta" object (vocabularies, label
inventories, scalar hyperparameters), and the array manifest with name,
dtype, shape, and byte count.  See docs/model_format.md.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from .config import InputError

FORMAT = "conjprop-model"
VERSION = 1

_DTYPES = {"float64": "<f8", "float32": "<f4", "int64": "<i8"}


class ModelFileError(InputError):
    pass


def require(path, what: str, value, keys) -> None:
    """Raises ModelFileError unless value is an object with every key."""
    missing = [k for k in keys if k not in value] \
        if isinstance(value, dict) else list(keys)
    if missing:
        raise ModelFileError(
            f"{path}: {what} lacks the key(s) {', '.join(missing)}")


def expect(path, ok: bool, message: str) -> None:
    """Raises ModelFileError("path: message") unless ok."""
    if not ok:
        raise ModelFileError(f"{path}: {message}")


def check_arrays(path, arrays: dict, shapes: dict,
                 dtypes: tuple[str, ...] = ("float32", "float64")) -> None:
    """Raises ModelFileError unless each array named in shapes has its
    shape and finite values, and all of them share one dtype, one of
    dtypes."""
    common = arrays[next(iter(shapes))].dtype
    wanted = (f", expected {dtypes[0]}" if len(dtypes) == 1
              else "; the arrays must be all " + " or all ".join(dtypes))
    for name, shape in shapes.items():
        arr = arrays[name]
        expect(path, arr.shape == shape,
               f"array {name!r} has shape {arr.shape}, expected {shape}")
        expect(path, arr.dtype == common and common.name in dtypes,
               f"array {name!r} has dtype {arr.dtype}{wanted}")
        expect(path, np.isfinite(arr).all(),
               f"array {name!r} holds a non-finite value")


def save_model(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Writes the file, unless an array is not finite: no loader takes it."""
    manifest = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        dtype = arr.dtype.name  # the same for either byte order
        if dtype not in _DTYPES:
            raise ModelFileError(f"array {name!r} has unsupported dtype {arr.dtype}")
        expect(path, np.isfinite(arr).all(),
               f"array {name!r} holds a non-finite value; nothing is written")
        # a view unless the byte order has to change
        arr = arr.astype(_DTYPES[dtype], copy=False)
        manifest.append({"name": name, "dtype": dtype,
                         "shape": list(arr.shape), "nbytes": arr.nbytes})
        blobs.append(arr)
    header = {"format": FORMAT, "version": VERSION, "kind": kind,
              "meta": meta, "arrays": manifest}
    line = json.dumps(header, sort_keys=True, separators=(",", ":"))
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8") + b"\n")
        for arr in blobs:
            fh.write(memoryview(arr))


def load_model(path) -> tuple[str, dict, dict[str, np.ndarray]]:
    """Returns (kind, meta, arrays)."""
    with open(path, "rb") as fh:
        # bytes left; a pipe reports size 0 and is read until it ends
        left = os.fstat(fh.fileno()).st_size or math.inf
        line = fh.readline()
        left -= len(line)
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelFileError(f"{path}: bad model header: {exc}") from None
        if not isinstance(header, dict) or header.get("format") != FORMAT:
            raise ModelFileError(f"{path}: not a {FORMAT} file")
        if header.get("version") != VERSION:
            raise ModelFileError(
                f"{path}: unsupported version {header.get('version')!r}")
        require(path, "header", header, ("kind", "meta", "arrays"))
        if not (isinstance(header["meta"], dict)
                and isinstance(header["arrays"], list)):
            raise ModelFileError(
                f"{path}: header meta must be an object and arrays a list")
        arrays = {}
        for i, entry in enumerate(header["arrays"]):
            require(path, f"array entry {i}", entry,
                    ("name", "dtype", "shape", "nbytes"))
            if str(entry["dtype"]) not in _DTYPES:
                raise ModelFileError(f"{path}: array {entry['name']!r} has "
                                     f"unsupported dtype {entry['dtype']!r}")
            shape, nbytes = entry["shape"], entry["nbytes"]
            dtype = np.dtype(_DTYPES[entry["dtype"]])
            if not (isinstance(entry["name"], str) and isinstance(shape, list)
                    and all(type(d) is int and d >= 0 for d in shape)
                    and type(nbytes) is int
                    and nbytes == dtype.itemsize * math.prod(shape)):
                raise ModelFileError(
                    f"{path}: array {entry['name']!r} has shape {shape} and "
                    f"nbytes {nbytes!r}, which do not agree")
            # read in place, and a size past the end is never allocated
            arr = np.empty(shape, dtype) if nbytes <= left else None
            if arr is None or fh.readinto(arr) != nbytes:
                raise ModelFileError(
                    f"{path}: truncated array {entry['name']!r}")
            left -= nbytes
            arrays[entry["name"]] = arr
        if fh.read(1):
            raise ModelFileError(f"{path}: trailing bytes after arrays")
    return header["kind"], header["meta"], arrays
