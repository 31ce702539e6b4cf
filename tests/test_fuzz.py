"""Byte-level mutations of a fixture through the command line, in-process.

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

FIG3C = os.path.join(os.path.dirname(__file__), "data", "fig3c.conllu")
with open(FIG3C, "rb") as fh:
    ORIGINAL = fh.read()

# pieces that move fields, rows and graph edges around, besides raw bytes,
# placed anywhere or at the start of a field
PIECES = [b"\t", b"\n", b"_", b"|", b":", b"-", b".", b"#", b"0", b"1",
          b"5", b"10", b"0:nsubj", b"5:obj", b"20:obj", b"1:conj", b"4.1",
          b"root", b"conj", b"nsubj:pass", b"\xff", b"\xc3"]
FIELD_STARTS = [i + 1 for i, byte in enumerate(ORIGINAL) if byte == 9]

EDITS = st.lists(st.tuples(st.one_of(st.integers(0, len(ORIGINAL)),
                                     st.sampled_from(FIELD_STARTS)),
                           st.sampled_from(["replace", "insert", "delete"]),
                           st.one_of(st.sampled_from(PIECES),
                                     st.binary(min_size=1, max_size=3))),
                 min_size=1, max_size=3)

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
    """A directory holding a kernel model trained on fig3c's rbc2 graph."""
    path = tmp_path_factory.mktemp("fuzz")
    gold = str(path / "gold.conllu")
    run_main(["convert", "--mode", "rbc2", "--in", FIG3C, "--out", gold])
    run_main(["train-prop", "--kind", "kernel", "--train", gold,
              "--model", str(path / "kernel.model")])
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
