"""Token embeddings: sidecar files, and hash vectors made at first lookup.

Sidecar files carry one record per token: sentence id, token id, and the
vector values as text floats.  Multi-layer files (used by the edge
predictor) start with a header line "layers=L dim=D" and store L*D floats
per record; single-layer files have no header and a fixed dimension
inferred from the first record.  One hash provider serves any corpus.
Both kinds find a sentence's vectors by its key, which must be distinct.
EmbeddingProvider.check is the one test that a provider fits the model
reading it: a classifier reads 1 layer, a parser its recorded layers x dim.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

import numpy as np

from .config import InputError
from .conllu import Sentence, TokenId, decode_utf8, parse_token_id


class EmbeddingError(InputError):
    """Lookup or format failure, with the offending sentence/token named."""


class EmbeddingProvider:
    """Maps (sent_id, token_id) to a vector, or to a stack of layer vectors,
    held in a table.  Lookups also pass the token's form, which a table
    ignores.  A provider read from a file names it in its lookup errors.
    Models trained on a provider record its kind as their vectors."""

    kind = "sidecar"
    path = None

    def __init__(self, table: dict[tuple[str, TokenId], np.ndarray],
                 dim: int, layers: int = 1, path=None):
        self.table = table
        self.dim = dim
        self.layers = layers
        self.path = path

    def check(self, layers: int, dim: int | None = None) -> None:
        """Raises EmbeddingError, naming the provider's file, unless it
        gives layers vectors per token, each of dimension dim (None: any)."""
        if self.layers != layers or dim not in (None, self.dim):
            where = f"{self.path}: " if self.path is not None else ""
            want = "" if dim is None else f" of dimension {dim}"
            raise EmbeddingError(
                f"{where}the vectors have {self.layers} layer(s) of dimension "
                f"{self.dim}; the model reads {layers} layer(s){want}")

    def lookup(self, sent_id: str, token_id: TokenId,
               form: str | None = None) -> np.ndarray:
        key = (sent_id, token_id)
        if key not in self.table:
            where = f"{self.path}: " if self.path is not None else ""
            raise EmbeddingError(f"{where}no embedding for token {token_id} "
                                 f"in sentence {sent_id!r}")
        return self.table[key]


class _HashProvider(EmbeddingProvider):
    """hash_provider's vectors, each made at its first lookup and kept:
    training looks every token up once per epoch.  Vectors that change
    change kind, so that models trained on the old ones are refused."""

    kind = "hash"

    def __init__(self, dim: int, layers: int, seed: int):
        self.dim, self.layers, self.seed = dim, layers, seed
        self._made: dict[str, np.ndarray] = {}

    def lookup(self, sent_id: str, token_id: TokenId,
               form: str | None = None) -> np.ndarray:
        if form is None:
            raise TypeError(f"a hash embedding needs the form of token "
                            f"{token_id} in sentence {sent_id!r}")
        key = f"{self.seed}\x00{sent_id}\x00{token_id}\x00{form}"
        if key not in self._made:
            vec = _hash_floats(key, self.layers * self.dim)
            self._made[key] = vec.reshape(self.layers, self.dim) \
                if self.layers > 1 else vec
        return self._made[key]


# the vectors a model file may record, besides a classifier's "none"
KINDS = (_HashProvider.kind, EmbeddingProvider.kind)


def read_sidecar(path) -> EmbeddingProvider:
    """Reads a sidecar of finite values, at least one per record, with or
    without a layers= header."""
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
    if not np.isfinite(vec).all():
        bad = values.split()[np.isfinite(vec).argmin()]
        raise EmbeddingError(f"{where}: value {bad!r} is not a finite number")
    if dim is not None and vec.size != layers * dim:
        raise EmbeddingError(
            f"{where}: expected {layers * dim} values, got {vec.size}")
    if not vec.size:
        raise EmbeddingError(f"{where}: expected at least one value, got 0")
    if layers > 1:
        vec = vec.reshape(layers, -1)
    if (sent_id, tid) in table:
        raise EmbeddingError(f"{where}: repeated record for token {tid} in "
                             f"sentence {sent_id!r}")
    table[(sent_id, tid)] = vec


def write_sidecar(path, provider: EmbeddingProvider,
                  corpus: list[Sentence]) -> None:
    """Writes provider's vector of every token of corpus, each sentence
    under its sentence_key."""
    with open(path, "w", encoding="utf-8") as fh:
        if provider.layers > 1:
            fh.write(f"layers={provider.layers} dim={provider.dim}\n")
        for index, sent in enumerate(corpus):
            sid = sentence_key(sent, index)
            for tok in sent.tokens:
                vec = provider.lookup(sid, tok.id, tok.form)
                values = " ".join(repr(float(v)) for v in vec.reshape(-1))
                fh.write(f"{sid}\t{tok.id}\t{values}\n")


def hash_provider(dim: int, layers: int = 1,
                  seed: int = 0) -> EmbeddingProvider:
    """Pseudo-random vectors of (seed, sentence key, token id, form), made
    at the first lookup of each: uniform in [-1, 1), stable across runs and
    platforms, for models to run without an external encoder."""
    return _HashProvider(dim, layers, seed)


def sentence_key(sent: Sentence, index: int) -> str:
    """The key the vectors of sent, at position index, go under: its
    sent_id, else its position."""
    return sent.sent_id or str(index)


def check_sentence_keys(sentences: Iterable[Sentence],
                        name: str) -> Iterator[Sentence]:
    """sentences, lazily; raises EmbeddingError, naming the file name, at
    the first to share a sentence_key, for the two would share vectors."""
    first: dict[str, int] = {}
    for idx, sent in enumerate(sentences):
        sid = sentence_key(sent, idx)
        if first.setdefault(sid, idx) != idx:
            raise EmbeddingError(f"{name}: sentences {first[sid] + 1} and "
                                 f"{idx + 1} share the sent_id {sid!r}, which "
                                 f"keys their embeddings")
        yield sent


def _hash_floats(key: str, count: int) -> np.ndarray:
    """count words w of sha256(key, block 0, 1, ...), each as w/2**64*2-1."""
    blob = b"".join(hashlib.sha256(f"{key}\x00{block}".encode()).digest()
                    for block in range(-(-count // 4)))
    return np.frombuffer(blob, "<u8", count) / 2.0**64 * 2.0 - 1.0
