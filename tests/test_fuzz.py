"""Byte-level mutations of fixture files through the command line,
in-process: a CoNLL-U file, a sidecar and a model file's header.

Every run must exit 0, or exit 1 with a "conjprop: error:" line; an
exception escaping main is the traceback a user would see.  The examples
are derandomized, so the suite sees the same inputs on every run.
"""

from __future__ import annotations

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conjprop.cli import main
from conjprop.conllu import read_file
from conjprop.embeddings import hash_provider, write_sidecar

FIG3C = os.path.join(os.path.dirname(__file__), "data", "fig3c.conllu")
with open(FIG3C, "rb") as fh:
    ORIGINAL = fh.read()



def edits_of(data: bytes, pieces: list[bytes], separators: bytes):
    """One to three edits of data, each with one of pieces or raw bytes,
    placed anywhere or just after one of separators."""
    starts = [i + 1 for i, byte in enumerate(data) if byte in separators]
    return st.lists(st.tuples(st.one_of(st.integers(0, len(data)),
                                        st.sampled_from(starts)),
                              st.sampled_from(["replace", "insert",
                                               "delete"]),
                              st.one_of(st.sampled_from(pieces),
                                        st.binary(min_size=1, max_size=3))),
                    min_size=1, max_size=3)


# pieces that move fields, rows and graph edges around, placed at the start
# of a field
EDITS = edits_of(ORIGINAL, [
    b"\t", b"\n", b"_", b"|", b":", b"-", b".", b"#", b"0", b"1", b"5",
    b"10", b"0:nsubj", b"5:obj", b"20:obj", b"1:conj", b"4.1", b"root",
    b"conj", b"nsubj:pass", b"\xff", b"\xc3"], b"\t")
# a sidecar's records, numbers and header
SIDECAR_PIECES = [b"\t", b"\n", b" ", b"-", b".", b"e", b"e999", b"nan",
                  b"inf", b"0", b"1", b"1.1", b"#", b"layers=2 dim=3\n",
                  b"layers=0 dim=3\n", b"\xff", b"\xc3"]
# a model header's JSON syntax, values and names
HEADER_PIECES = [b'"', b"{", b"}", b"[", b"]", b",", b":", b"0", b"-1",
                 b"1e999", b"null", b"true", b'"float32"', b'"int64"',
                 b'"mlp"', b'"edge-parser"', b'"nbytes"', b"\n", b"\xff"]

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=120,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for pos, op, piece in edits:
        pos = min(pos, len(buf))
        if op == "replace":
            buf[pos:pos + len(piece)] = piece
        elif op == "insert":
            buf[pos:pos] = piece
        else:
            del buf[pos:pos + len(piece)]
    return bytes(buf)


def run_main(argv: list[str]) -> None:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1), err.getvalue()
    if rc == 1:
        assert err.getvalue().splitlines()[-1].startswith(
            "conjprop: error: "), err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding fig3c's rbc2 graph, a kernel model trained on it
    and a single-layer sidecar of its tokens."""
    path = tmp_path_factory.mktemp("fuzz")
    gold = str(path / "gold.conllu")
    run_main(["convert", "--mode", "rbc2", "--in", FIG3C, "--out", gold])
    run_main(["train-prop", "--kind", "kernel", "--train", gold,
              "--model", str(path / "kernel.model")])
    write_sidecar(path / "gold.vec", hash_provider(dim=3), read_file(gold))
    return path


@FUZZ
@given(edits=EDITS)
def test_mutated_conllu_through_convert(workdir, edits):
    src = workdir / "convert-in.conllu"
    src.write_bytes(mutate(ORIGINAL, edits))
    for mode in ("rbc", "rbc2", "rbc2+fix", "always"):
        run_main(["convert", "--mode", mode, "--in", str(src),
                  "--out", str(workdir / "convert-out.conllu")])


@FUZZ
@given(edits=EDITS)
def test_mutated_conllu_through_apply_prop(workdir, edits):
    src = workdir / "apply-in.conllu"
    src.write_bytes(mutate(ORIGINAL, edits))
    run_main(["apply-prop", "--model", str(workdir / "kernel.model"),
              "--fixpoint", "--fix", "--in", str(src),
              "--out", str(workdir / "apply-out.conllu")])


@FUZZ
@given(data=st.data())
def test_mutated_sidecar_through_train_prop(workdir, data):
    sidecar = (workdir / "gold.vec").read_bytes()
    src = workdir / "train.vec"
    src.write_bytes(mutate(sidecar, data.draw(
        edits_of(sidecar, SIDECAR_PIECES, b"\t \n"))))
    run_main(["train-prop", "--kind", "mlp", "--hidden", "4,4", "--epochs",
              "1", "--embeddings", str(src), "--train",
              str(workdir / "gold.conllu"),
              "--model", str(workdir / "mlp.model")])


@FUZZ
@given(data=st.data())
def test_mutated_kernel_header_through_apply_prop(workdir, data):
    header, body = (workdir / "kernel.model").read_bytes().split(b"\n", 1)
    src = workdir / "mutated.model"
    src.write_bytes(mutate(header, data.draw(
        edits_of(header, HEADER_PIECES, b",:[{"))) + b"\n" + body)
    run_main(["apply-prop", "--model", str(src), "--fixpoint", "--in", FIG3C,
              "--out", str(workdir / "header-out.conllu")])
