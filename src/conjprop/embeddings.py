"""Token embedding sidecar files and a deterministic test provider.

Sidecar files carry one record per token: sentence id, token id, and the
vector values as text floats.  Multi-layer files (used by the edge
predictor) start with a header line "layers=L dim=D" and store L*D floats
per record; single-layer files have no header and a fixed dimension
inferred from the first record.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .config import InputError
from .conllu import Sentence, TokenId, decode_utf8, parse_token_id


class EmbeddingError(InputError):
    """Lookup or format failure, with the offending sentence/token named."""


class EmbeddingProvider:
    """Maps (sent_id, token_id) to a vector, or to a stack of layer vectors.
    A provider read from a file names it in its lookup errors."""

    def __init__(self, table: dict[tuple[str, TokenId], np.ndarray],
                 dim: int, layers: int = 1, path=None):
        self.table = table
        self.dim = dim
        self.layers = layers
        self.path = path

    def lookup(self, sent_id: str, token_id: TokenId) -> np.ndarray:
        key = (sent_id, token_id)
        if key not in self.table:
            where = f"{self.path}: " if self.path is not None else ""
            raise EmbeddingError(f"{where}no embedding for token {token_id} "
                                 f"in sentence {sent_id!r}")
        return self.table[key]

    def lookup_layers(self, sent_id: str, token_id: TokenId) -> np.ndarray:
        """Returns shape (layers, dim); a single-layer table gains an axis."""
        vec = self.lookup(sent_id, token_id)
        if vec.ndim == 1:
            return vec.reshape(1, -1)
        return vec


def read_sidecar(path) -> EmbeddingProvider:
    """Reads a sidecar file, either single-layer or with a layers= header."""
    table: dict[tuple[str, TokenId], np.ndarray] = {}
    layers = 1
    dim = None
    with open(path, "rb") as fh:
        lines = decode_utf8(fh.read(), path).split("\n")
    start = 0
    if lines[0].startswith("layers="):
        try:
            head = dict(part.split("=", 1) for part in lines[0].split())
            layers, dim = int(head["layers"]), int(head["dim"])
        except (KeyError, ValueError):
            layers = dim = 0
        if min(layers, dim) < 1:
            raise EmbeddingError(f"{path}:1: expected the header 'layers=L "
                                 f"dim=D' with L, D >= 1, got {lines[0]!r}")
        start = 1
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        _consume_record(line, f"{path}:{lineno}", table, layers, dim)
        if dim is None:
            dim = next(iter(table.values())).shape[-1]
    if dim is None:
        raise EmbeddingError(f"empty sidecar file: {path}")
    return EmbeddingProvider(table, dim=dim, layers=layers, path=path)


def _consume_record(line, where, table, layers, dim):
    parts = line.split("\t")
    if len(parts) != 3:
        raise EmbeddingError(
            f"{where}: expected 3 tab-separated fields, got {len(parts)}")
    sent_id, tid_text, values = parts
    try:
        tid = parse_token_id(tid_text)
    except Exception:
        raise EmbeddingError(f"{where}: bad token id {tid_text!r}") from None
    try:
        vec = np.array([float(v) for v in values.split()], dtype=np.float64)
    except ValueError as err:
        raise EmbeddingError(f"{where}: {err}") from None
    if dim is not None and vec.size != layers * dim:
        raise EmbeddingError(
            f"{where}: expected {layers * dim} values, got {vec.size}")
    if layers > 1:
        vec = vec.reshape(layers, -1)
    if (sent_id, tid) in table:
        raise EmbeddingError(f"{where}: repeated record for token {tid} in "
                             f"sentence {sent_id!r}")
    table[(sent_id, tid)] = vec


def write_sidecar(path, provider: EmbeddingProvider) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if provider.layers > 1:
            fh.write(f"layers={provider.layers} dim={provider.dim}\n")
        for (sent_id, tid), vec in sorted(
                provider.table.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            flat = vec.reshape(-1)
            values = " ".join(repr(float(v)) for v in flat)
            fh.write(f"{sent_id}\t{tid}\t{values}\n")


def hash_provider(corpus: list[Sentence], dim: int = 16,
                  layers: int = 1, seed: int = 0) -> EmbeddingProvider:
    """Deterministic pseudo-random vectors derived from (seed, sentence key,
    token id, form), the sentence key as sentence_key gives it.

    Ships so that embedding-consuming models can run without any external
    encoder.  Values are uniform in [-1, 1) and stable across runs and
    platforms.
    """
    table: dict[tuple[str, TokenId], np.ndarray] = {}
    for sid, sent in zip(sentence_keys(corpus), corpus):
        for tok in sent.tokens:
            key = f"{seed}\x00{sid}\x00{tok.id}\x00{tok.form}"
            vec = _hash_floats(key, layers * dim)
            if layers > 1:
                vec = vec.reshape(layers, dim)
            table[(sid, tok.id)] = vec
    return EmbeddingProvider(table, dim=dim, layers=layers)


def sentence_key(sent: Sentence, index: int) -> str:
    """The key the vectors of sent, at position index, go under: its
    sent_id, else its position."""
    return sent.sent_id or str(index)


def sentence_keys(corpus: list[Sentence]) -> list[str]:
    """Each sentence's sentence_key.  A repeated key raises EmbeddingError:
    the later sentence's vectors would replace the earlier one's."""
    first: dict[str, int] = {}
    for idx, sent in enumerate(corpus):
        sid = sentence_key(sent, idx)
        if sid in first:
            raise EmbeddingError(f"sentences {first[sid] + 1} and {idx + 1} "
                                 f"share the sent_id {sid!r}, which keys "
                                 f"their embeddings")
        first[sid] = idx
    return list(first)


def _hash_floats(key: str, count: int) -> np.ndarray:
    """count words w of sha256(key, block 0, 1, ...), each as w/2**64*2-1."""
    blob = b"".join(hashlib.sha256(f"{key}\x00{block}".encode()).digest()
                    for block in range(-(-count // 4)))
    return np.frombuffer(blob, "<u8", count) / 2.0**64 * 2.0 - 1.0
