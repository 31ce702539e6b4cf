"""Biaffine edge prediction over provider-supplied embeddings.

Every ordered (head, dependent) token pair gets a score per label, with a
dedicated no-edge label; the root is an extra head position 0 with a
learned embedding.  Token vectors are a learned scalar mixture over the
provider's layers.  Training minimizes cross-entropy against the gold
enhanced graph; decoding writes the argmax graph into the deps columns,
guaranteeing every token at least one head via a fallback.  train_parser
builds a float32 parser sized by its vectors and config; delexicalized, it
learns placeholder labels, which decoding fills in from the graph.  Its
token masking and dropout rates are the constants below, not settings.

Edges touching empty nodes cannot be scored by the pair grid; they are
ignored during training and empty nodes keep their deps at decoding.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import InputError, check_loss, physical_memory
from .conllu import ROOT, Sentence, TokenId
from .embeddings import KINDS, EmbeddingProvider, sentence_key
from .evaluate import LabelScore
from .labels import delexicalize_corpus, lexicalize_label
from .modelfile import check_arrays, expect, load_model, require, save_model

NO_EDGE = "∅"


# Training's regularization, drawn per sentence from the run's rng in this
# order: the mixture's layers, the tokens, the mixed vectors' units, then
# the head and dependent projections' units.
LAYER_DROPOUT, TOKEN_MASK_PROB = 0.1, 0.15
OUTPUT_DROPOUT, FNN_DROPOUT = 0.5, 0.33


class EdgePredError(InputError):
    pass


@dataclass
class ParserTrainConfig:
    batch_size: int = 5
    lr: float = 5e-6
    epochs: int = 10
    patience: int = 5
    seed: int = 0
    hidden: int = 1024
    delexicalize: bool = False


@dataclass
class EdgeParser:
    labels: list[str]
    layers: int
    dim: int
    hidden: int
    params: dict[str, Tensor] = field(default_factory=dict)
    vectors: str = "hash"  # the provider kind; the trainers record theirs

    @property
    def label_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @property
    def dtype(self) -> np.dtype:
        return self.params["bias"].data.dtype

    def parameters(self) -> list[Tensor]:
        return [self.params[k] for k in sorted(self.params)]

    def save(self, path) -> None:
        meta = {"labels": self.labels, "layers": self.layers,
                "dim": self.dim, "hidden": self.hidden,
                "vectors": self.vectors}
        arrays = {name: t.data for name, t in self.params.items()}
        save_model(path, "edge-parser", meta, arrays)

    @classmethod
    def load(cls, path) -> "EdgeParser":
        kind, meta, arrays = load_model(path)
        if kind != "edge-parser":
            raise EdgePredError(f"{path}: not an edge parser (kind {kind!r})")
        require(path, "edge-parser meta", meta,
                ("labels", "layers", "dim", "hidden", "vectors"))
        labels, layers, dim, hidden = (meta[k] for k in
                                       ("labels", "layers", "dim", "hidden"))
        expect(path, isinstance(labels, list) and labels[:1] == [NO_EDGE]
               and all(isinstance(label, str) for label in labels),
               f"meta labels must be a list of strings starting with "
               f"{NO_EDGE!r}")
        for key in ("layers", "dim", "hidden"):
            expect(path, type(meta[key]) is int and meta[key] >= 1,
                   f"meta {key} must be an integer >= 1, got {meta[key]!r}")
        expect(path, meta["vectors"] in KINDS,
               f"meta vectors must be one of {', '.join(map(repr, KINDS))}, "
               f"got {meta['vectors']!r}")
        shapes = param_shapes(len(labels), layers, dim, hidden)
        require(path, "edge-parser arrays", arrays, shapes)
        check_arrays(path, arrays, shapes)
        parser = cls(labels=labels, layers=layers, dim=dim, hidden=hidden,
                     vectors=meta["vectors"])
        parser.params = {name: Tensor(arr, requires_grad=True)
                         for name, arr in arrays.items()}
        return parser


def param_shapes(n_labels: int, layers: int, dim: int,
                 hidden: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parser parameter."""
    return {"mix_logits": (layers,), "root_embed": (dim,),
            "w_head": (dim, hidden), "b_head": (hidden,),
            "w_dep": (dim, hidden), "b_dep": (hidden,),
            "bilinear": (n_labels, hidden, hidden),
            "linear": (2 * hidden, n_labels), "bias": (n_labels,)}


def train_footprint(n_labels: int, layers: int, dim: int, hidden: int,
                    snapshot: bool, dtype=np.float64) -> tuple[int, int]:
    """(parameter bytes, bytes that training holds), known before any
    allocation: the parameters, the two AdamW moments and its scratch
    buffer, the gradients of all but the bilinear tensor, one label slice
    of its gradient, and with `snapshot` one early-stopping copy."""
    sizes = [math.prod(shape) for shape in
             param_shapes(n_labels, layers, dim, hidden).values()]
    item = np.dtype(dtype).itemsize
    param_bytes = item * sum(sizes)
    grad_bytes = param_bytes - item * (n_labels - 1) * hidden * hidden
    scratch_bytes = item * 2 * min(max(sizes), ad.AdamW.BLOCK)
    return param_bytes, ((3 + snapshot) * param_bytes + grad_bytes
                         + scratch_bytes)


def _check_memory(needed: int, purpose: str, n_labels: int,
                  hidden: int) -> None:
    ram = physical_memory()
    if needed > ram:
        raise EdgePredError(f"hidden {hidden} with {n_labels} labels needs "
                            f"{needed} bytes {purpose}, more than the {ram} "
                            "bytes of physical memory")


def build_label_inventory(corpus: list[Sentence]) -> list[str]:
    """Labels of all enhanced edges between regular tokens, the no-edge
    label first (index 0 wins argmax ties, so ties never invent edges)."""
    labels: set[str] = set()
    for sent in corpus:
        regular = {t.id for t in sent.words()}
        for t in sent.words():
            for head, label in t.deps:
                if head == ROOT or head in regular:
                    labels.add(label)
    return [NO_EDGE] + sorted(labels)


def new_parser(labels: list[str], layers: int, dim: int,
               hidden: int = 1024, seed: int = 0,
               dtype=np.float64) -> EdgeParser:
    """Parameters in dtype, cast from the same float64 draws for any dtype:
    normal draws in param_shapes order for root_embed, w_head, w_dep and
    linear, zeros for the rest, bilinear included, so an untrained parser
    scores every pair from its small linear term, close to uniform.
    Parameters that would not fit in physical memory are an error."""
    if labels[0] != NO_EDGE:
        raise ValueError("label inventory must start with the no-edge label")
    _check_memory(train_footprint(len(labels), layers, dim, hidden, False,
                                  dtype)[0], "for its parameters",
                  len(labels), hidden)
    rng = np.random.default_rng(seed)
    scales = {"root_embed": 1.0, "w_head": 1.0 / np.sqrt(max(dim, 1)),
              "w_dep": 1.0 / np.sqrt(max(dim, 1)),
              "linear": 0.1 / np.sqrt(2 * hidden)}
    params = {name: Tensor(ad.draw_normal(rng, scales[name], shape, dtype)
                           if name in scales else np.zeros(shape, dtype),
                           requires_grad=True)
              for name, shape in param_shapes(len(labels), layers, dim,
                                              hidden).items()}
    return EdgeParser(labels=labels, layers=layers, dim=dim, hidden=hidden,
                      params=params)


def _token_stacks(parser: EdgeParser, sent: Sentence,
                  provider: EmbeddingProvider, index: int = 0) -> np.ndarray:
    """The (n, layers, dim) vectors of sent's words; the provider must fit."""
    provider.check(parser.layers, parser.dim)
    sid = sentence_key(sent, index)
    return np.stack([provider.lookup(sid, t.id, t.form) for t in sent.words()],
                    dtype=parser.dtype).reshape(-1, parser.layers, parser.dim)


def _encode(parser: EdgeParser, stacks: np.ndarray,
            rng: np.random.Generator | None) -> tuple[Tensor, Tensor]:
    """Head (n+1, hidden) and dependent (n, hidden) vectors of one sentence
    on the tape.  Given an rng, token masking and the three dropouts are
    drawn from it; without one the pass draws nothing."""
    p = parser.params
    n = stacks.shape[0]

    mix_logits = p["mix_logits"]
    if rng is not None and parser.layers > 1:
        keep = rng.random(parser.layers) >= LAYER_DROPOUT
        if not keep.any():
            keep[:] = True
        mix_logits = mix_logits + np.where(keep, 0.0, -1e30)
    weights = ad.softmax_tensor(mix_logits)

    if rng is not None:
        stacks = stacks * (rng.random(n) >= TOKEN_MASK_PROB)[:, None, None]

    # every contraction is a (broadcast) matmul, so it runs on BLAS
    mix = ad.reshape(weights, (1, parser.layers))
    tokens = ad.reshape(ad.matmul(mix, Tensor(stacks)), (n, parser.dim))
    root = ad.reshape(p["root_embed"], (1, parser.dim))
    reps = ad.concat([root, tokens], axis=0)  # (n+1, dim)
    if rng is not None:
        reps = _dropout(reps, OUTPUT_DROPOUT, rng)

    h_head = ad.relu(ad.matmul(reps, p["w_head"]) + p["b_head"])
    h_dep_in = ad.getitem(reps, slice(1, None))
    h_dep = ad.relu(ad.matmul(h_dep_in, p["w_dep"]) + p["b_dep"])
    if rng is not None:
        h_head = _dropout(h_head, FNN_DROPOUT, rng)
        h_dep = _dropout(h_dep, FNN_DROPOUT, rng)
    return h_head, h_dep


def _forward_scores(parser: EdgeParser, batch: list[np.ndarray],
                    rng: np.random.Generator | None = None,
                    bilinear_inputs: list[tuple[Tensor, Tensor]] | None = None
                    ) -> list[Tensor]:
    """Score tensors (n+1, n, |labels|) on the tape, one per token stack.

    The sentences are encoded one by one, so the random draws come in
    sentence order.  Their head rows are then packed, so the labels x
    hidden^2 bilinear tensor is read once per batch, forward and backward.
    Given a bilinear_inputs list, the bilinear tensor is a constant on the
    tape, and the packed rows and their product are appended to the list.
    """
    p = parser.params
    hidden = parser.hidden
    n_labels = len(parser.labels)
    encoded = [_encode(parser, stacks, rng) for stacks in batch]
    packed = ad.concat([h_head for h_head, _ in encoded], axis=0)
    if bilinear_inputs is None:
        part = ad.matmul(packed, p["bilinear"])  # (labels, rows, hidden)
    else:
        part = ad.matmul(packed, Tensor(p["bilinear"].data))
        bilinear_inputs.append((packed, part))
    w_lin_head = ad.getitem(p["linear"], slice(0, hidden))
    w_lin_dep = ad.getitem(p["linear"], slice(hidden, None))
    out = []
    row = 0
    for h_head, h_dep in encoded:
        n = h_dep.data.shape[0]
        mine = ad.getitem(part, (slice(None), slice(row, row + n + 1)))
        row += n + 1
        bil = ad.matmul(mine, ad.transpose(h_dep, (1, 0)))  # (labels, n+1, n)
        scores = ad.transpose(bil, (1, 2, 0))  # (n+1, n, labels)
        lin_head = ad.matmul(h_head, w_lin_head)
        lin_dep = ad.matmul(h_dep, w_lin_dep)
        scores = scores + ad.reshape(lin_head, (n + 1, 1, n_labels))
        scores = scores + ad.reshape(lin_dep, (1, n, n_labels))
        out.append(scores + p["bias"])
    return out


def _dropout(t: Tensor, prob: float, rng: np.random.Generator) -> Tensor:
    return ad.mul(t, (rng.random(t.data.shape) >= prob) / (1.0 - prob))


def mixture_weights(parser: EdgeParser) -> np.ndarray:
    """Inference-time layer weights; always sums to 1."""
    return ad.softmax(parser.params["mix_logits"].data)


def score_pairs(parser: EdgeParser, sent: Sentence,
                provider: EmbeddingProvider, index: int = 0) -> np.ndarray:
    """Label probabilities, shape (n+1, n, |labels|); rows sum to 1."""
    stacks = _token_stacks(parser, sent, provider, index)
    scores = _forward_scores(parser, [stacks])[0]
    return ad.softmax(scores.data, axis=-1)


def _gold_grid(parser: EdgeParser, sent: Sentence) -> np.ndarray:
    """Gold label index per (head, dep) pair; no-edge where no gold edge.

    Position 0 is root; only regular tokens take part.  Edges whose label
    is missing from the inventory are an error; edges touching empty nodes
    are skipped.  Where a pair carries several gold edges, the label that
    sorts first wins, whatever their order in the DEPS column.
    """
    words = sent.words()
    position = {t.id: i + 1 for i, t in enumerate(words)}
    position[ROOT] = 0
    n = len(words)
    grid = np.zeros((n + 1, n), dtype=np.int64)
    index = parser.label_index
    for j, tok in enumerate(words):
        for head, label in tok.deps:
            if head not in position:
                continue
            if label not in index:
                raise EdgePredError(
                    f"label {label!r} in sentence {sent.sent_id!r} is not "
                    "in the model inventory")
            i = position[head]
            if grid[i, j] == 0 or index[label] < grid[i, j]:
                grid[i, j] = index[label]
    return grid


def batch_losses(parser: EdgeParser, sents: list[Sentence],
                 provider: EmbeddingProvider, indices: list[int],
                 rng: np.random.Generator | None = None,
                 bilinear_inputs: list[tuple[Tensor, Tensor]] | None = None
                 ) -> list[Tensor]:
    """Per sentence, the mean cross-entropy over its (n+1) x n ordered
    pairs; all on one tape, so one backward serves the batch."""
    batch = [_token_stacks(parser, sent, provider, index)
             for sent, index in zip(sents, indices)]
    losses = []
    for sent, scores in zip(sents, _forward_scores(parser, batch, rng,
                                                   bilinear_inputs)):
        grid = _gold_grid(parser, sent)
        n_plus, n = grid.shape
        onehot = np.zeros((n_plus, n, len(parser.labels)), parser.dtype)
        heads, deps = np.indices(grid.shape)
        onehot[heads, deps, grid] = 1.0
        log_probs = ad.log_softmax(scores, axis=-1)
        losses.append(ad.mul(ad.tsum(ad.mul(log_probs, onehot)),
                             -1.0 / (n_plus * n)))
    return losses


def sentence_loss(parser: EdgeParser, sent: Sentence,
                  provider: EmbeddingProvider, index: int = 0,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Mean cross-entropy over all (n+1) x n ordered pairs."""
    return batch_losses(parser, [sent], provider, [index], rng)[0]


@np.errstate(over="ignore", invalid="ignore")  # check_loss reports divergence
def train_epoch(parser: EdgeParser, corpus: list[Sentence],
                provider: EmbeddingProvider, cfg: ParserTrainConfig,
                optimizer: ad.AdamW, rng: np.random.Generator) -> float:
    """One pass of shuffled mini-batch updates; returns the mean loss.

    The optimizer and rng are the run's: its epochs share Adam's moments
    and one stream of shuffles and dropout draws.  Each batch makes one
    forward and one backward pass; every sentence loss enters the gradient
    with weight 1/len(batch).  The bilinear tensor's gradient is formed and
    applied one label slice at a time, so the whole of it never exists.
    The parser records the provider's kind as its vectors; a loss that is
    not finite raises TrainingError."""
    parser.vectors = provider.kind
    bilinear_inputs: list[tuple[Tensor, Tensor]] = []
    bilinear = parser.params["bilinear"]
    order = rng.permutation(len(corpus))
    total = 0.0
    for start in range(0, len(order), cfg.batch_size):
        batch = [int(idx) for idx in order[start:start + cfg.batch_size]]
        optimizer.zero_grad()
        losses = batch_losses(parser, [corpus[idx] for idx in batch],
                              provider, batch, rng, bilinear_inputs)
        for loss in losses:
            total += float(loss.data)
        check_loss(total)
        functools.reduce(ad.add, losses).backward(
            np.array(1.0 / len(batch)))
        optimizer.step()
        packed, part = bilinear_inputs.pop()
        for label in range(len(parser.labels)):
            optimizer.update(bilinear, packed.data.T @ part.grad[label],
                             label)
        del losses, loss, packed, part  # free the tape before the next one
    return total / max(len(corpus), 1)


def decode_scores(probs: np.ndarray, labels: list[str]
                  ) -> list[list[tuple[int, str]]]:
    """Edges per dependent from a probability tensor.

    Argmax per pair, no-edge omitted; a dependent left headless receives
    its best non-no-edge (head, label), ties broken by lowest label index
    and then lowest head position.  A token never heads itself: dependent
    j is never given head position j+1.  Returns, per dependent j, a list
    of (head position, label), head position 0 meaning root.
    """
    n_plus, n, n_labels = probs.shape
    probs = probs.copy()
    probs[np.arange(1, n_plus), np.arange(n), 1:] = -np.inf
    best = probs.argmax(axis=-1)
    edges: list[list[tuple[int, str]]] = []
    for j in range(n):
        found = [(i, labels[best[i, j]])
                 for i in range(n_plus) if best[i, j] != 0]
        if not found:
            block = probs[:, j, 1:].T  # (labels-1, n+1): label-major argmax
            flat = int(block.argmax())
            label_idx, head = divmod(flat, n_plus)
            found = [(head, labels[label_idx + 1])]
        edges.append(found)
    return edges


def decode(parser: EdgeParser, sent: Sentence, provider: EmbeddingProvider,
           index: int = 0) -> Sentence:
    """Writes the predicted graph into a copy's deps columns."""
    return _write_graph(parser, sent,
                        score_pairs(parser, sent, provider, index))


def decode_corpus(parser: EdgeParser, corpus: Iterable[Sentence],
                  provider: EmbeddingProvider,
                  batch_size: int = ParserTrainConfig.batch_size
                  ) -> Iterator[Sentence]:
    """decode for every sentence of corpus, any iterable, as it arrives,
    batch_size of them scored in one pass; each is keyed by its position."""
    indexed = enumerate(corpus)
    while batch := list(itertools.islice(indexed, batch_size)):
        stacks = [_token_stacks(parser, s, provider, k) for k, s in batch]
        for (_, sent), scores in zip(batch, _forward_scores(parser, stacks)):
            yield _write_graph(parser, sent, ad.softmax(scores.data, axis=-1))


def _write_graph(parser: EdgeParser, sent: Sentence,
                 probs: np.ndarray) -> Sentence:
    out = sent.clone()
    words = out.words()
    ids = [t.id for t in words]
    for j, per_dep in enumerate(decode_scores(probs, parser.labels)):
        deps = []
        for head_pos, label in per_dep:
            head = ROOT if head_pos == 0 else ids[head_pos - 1]
            label = lexicalize_label(label, ids[j], out)
            deps.append((head, label))
        words[j].deps = sorted(set(deps))
    return out


def _edge_key_set(sent: Sentence) -> set:
    regular = {t.id for t in sent.words()} | {ROOT}
    return {(head, t.id, label)
            for t in sent.words() for head, label in t.deps
            if head in regular}


@np.errstate(over="ignore", invalid="ignore")  # as train_epoch
def _dev_f1(parser: EdgeParser, corpus: list[Sentence],
            provider: EmbeddingProvider, batch_size: int) -> float:
    """F1 of the decoded enhanced edges between regular tokens."""
    sc = LabelScore()
    decoded = decode_corpus(parser, corpus, provider, batch_size)
    for sent, pred in zip(corpus, decoded):
        gold, pred = _edge_key_set(sent), _edge_key_set(pred)
        sc.tp += len(gold & pred)
        sc.n_sys += len(pred)
        sc.n_gold += len(gold)
    return sc.f1


def train_parser(corpus: list[Sentence], provider: EmbeddingProvider,
                 cfg: ParserTrainConfig, dev: list[Sentence] | None = None,
                 log: Callable[[str], None] = lambda line: None
                 ) -> EdgeParser:
    """A float32 parser of width cfg.hidden over the provider's layers,
    trained for up to cfg.epochs epochs, one "# ..." log line per event.

    cfg.delexicalize puts placeholders into the training corpus's labels
    (delexicalize_corpus).  With a dev corpus, scored as given in the labels
    that decoding writes, training stops once cfg.patience epochs in a row
    have not raised the dev F1, and the best dev epoch's parameters are
    put back; without one, every epoch runs.  The provider gives the dev
    vectors too.  Parameters or a footprint (train_footprint) beyond
    physical memory are an error, raised before the optimizer allocates.
    The parser records the provider's kind as its vectors.
    """
    if cfg.delexicalize:
        corpus, inventory = delexicalize_corpus(corpus)
        log(f"# delexicalized label inventory: {len(inventory)} labels")
    parser = new_parser(build_label_inventory(corpus), provider.layers,
                        provider.dim, cfg.hidden, cfg.seed, np.float32)
    param_bytes, footprint = train_footprint(
        len(parser.labels), parser.layers, parser.dim, parser.hidden,
        snapshot=dev is not None and cfg.epochs > 1, dtype=parser.dtype)
    _check_memory(footprint, "to train", len(parser.labels), parser.hidden)
    log(f"# parser labels {len(parser.labels)} param-bytes {param_bytes} "
        f"train-bytes {footprint} dtype {parser.dtype}")
    parser.vectors = provider.kind
    optimizer = ad.AdamW(parser.parameters(), lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    stopper = ad.EarlyStopping(parser.parameters(), cfg.patience)
    for epoch in range(1, cfg.epochs + 1):
        loss = train_epoch(parser, corpus, provider, cfg, optimizer, rng)
        if dev is None:
            log(f"# epoch {epoch} loss {loss:.6f}")
            continue
        f1 = _dev_f1(parser, dev, provider, cfg.batch_size)
        log(f"# epoch {epoch} loss {loss:.6f} dev-f1 {100 * f1:.2f}")
        if stopper.update(f1, final=epoch == cfg.epochs):
            log(f"# stopping early at epoch {epoch}")
            break
    stopper.restore()
    return parser
