"""Binary propagation classifier: training, application, persistence.

Two model kinds share one feature pipeline: a degree-2 polynomial kernel
SVM (float64) and a two-hidden-layer perceptron (float32, widths 1500 and
500 by default, AdamW at batch size 1, macro-F1 early stopping on a 10%
holdout).  apply_model runs converter.propagate with a classifier as its
decider: each pass classifies, in one batch, the instances of basic and
DEPS as they stood at pass start, and adds the accepted edges.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from itertools import compress
from typing import Callable

import numpy as np

from . import autodiff as ad
from .config import InputError, TrainingError, check_loss
from .conllu import Sentence
from .converter import propagate, seeded, subject_label
from .embeddings import KINDS
from .evaluate import LabelScore
from .graph import (
    DEFAULT_OUTGOING_EXCLUSIONS, SUBJECT_LABELS, basic_edges, coarse,
    conj_pairs, enhanced_edges, extract_instances,
)
from .instances import (
    DENSE_ROLES, FeatureConfig, build_vocabulary, featurize, vectorize,
)
from .modelfile import check_arrays, expect, load_model, require, save_model
from .svm import SVMModel, train_svm


class ApplyError(InputError):
    """Model and inputs disagree (missing provider, wrong vector width)."""


@dataclass
class PropTrainOptions:
    c: float = 1.0
    tol: float = 1e-3
    class_weights: bool = False
    epochs: int = 50
    lr: float = 5e-5
    patience: int = 5
    holdout: float = 0.1
    hidden_sizes: tuple[int, int] = (1500, 500)
    seed: int = 0


@dataclass(frozen=True)
class ApplyConfig:
    passive_imperative_fix: bool = False
    iterate_to_fixpoint: bool = False


@dataclass
class PropModel:
    kind: str
    vocab: dict[str, int]
    dense_dim: int
    feature_config: FeatureConfig
    svm: SVMModel | None = None
    mlp: dict[str, np.ndarray] | None = None
    vectors: str = "none"  # the provider kind of the dense vectors, if any

    def decision_function(self, x: np.ndarray) -> np.ndarray:
        """Kernels decide in float64, MLPs in the dtype of their weights."""
        if self.kind == "kernel":
            return self.svm.decision_function(x)
        x = np.atleast_2d(np.asarray(x, dtype=self.mlp["w1"].dtype))
        logits = _mlp_forward(self.mlp, x)
        return logits[:, 1] - logits[:, 0]

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.decision_function(x) >= 0.0

    def save(self, path) -> None:
        meta = {
            "vocab": self.vocab,
            "dense_dim": self.dense_dim,
            "features": asdict(self.feature_config),
            "vectors": self.vectors,
        }
        if self.kind == "kernel":
            arrays = {"support_vectors": self.svm.support_vectors,
                      "dual_coef": self.svm.dual_coef,
                      "bias": np.array([self.svm.bias])}
        else:
            arrays = dict(self.mlp)
        save_model(path, self.kind, meta, arrays)

    @classmethod
    def load(cls, path) -> "PropModel":
        kind, meta, arrays = load_model(path)
        if kind not in ("kernel", "mlp"):
            raise ApplyError(f"{path}: not a propagation model (kind {kind!r})")
        require(path, f"{kind} model meta", meta,
                ("vocab", "dense_dim", "features", "vectors"))
        require(path, f"{kind} model arrays", arrays,
                ("support_vectors", "dual_coef", "bias") if kind == "kernel"
                else ("w1", "b1", "w2", "b2", "w3", "b3"))
        vocab, dense_dim, features, vectors = (meta[k] for k in (
            "vocab", "dense_dim", "features", "vectors"))
        expect(path, isinstance(vocab, dict)
               and all(type(i) is int for i in vocab.values())
               and sorted(vocab.values()) == list(range(len(vocab))),
               "meta vocab must number its features 0, 1, 2, ...")
        expect(path, type(dense_dim) is int and dense_dim >= 0,
               f"meta dense_dim must be an integer >= 0, got {dense_dim!r}")
        names = [f.name for f in fields(FeatureConfig)]
        # earlier files also record what the code now fixes, and load if
        # they hold it; they set dense_tokens for every MLP, even at 0
        fixed = {"morphology": kind == "kernel", "count_scalar": kind == "mlp",
                 "dense_tokens": dense_dim > 0 or None}
        expect(path, isinstance(features, dict)
               and all(k in names + list(fixed) and type(v) is bool
                       for k, v in features.items()),
               f"meta features must map some of {', '.join(names)} to "
               f"true or false, got {features!r}")
        for key, want in fixed.items():
            expect(path, want is None or features.get(key, want) == want,
                   f"meta features {key} must be {str(want).lower()} "
                   f"(kind {kind}, dense_dim {dense_dim})")
        exclusions = sorted(DEFAULT_OUTGOING_EXCLUSIONS)
        expect(path, meta.get("outgoing_exclusions", exclusions) == exclusions,
               f"meta outgoing_exclusions must be the fixed list {exclusions}")
        expect(path, vectors == "none" if dense_dim == 0 else vectors in KINDS,
               f"meta vectors must be 'none' with dense_dim 0, else one of "
               f"{', '.join(map(repr, KINDS))}; got {vectors!r}")
        width = len(vocab) + len(DENSE_ROLES) * dense_dim
        model = cls(kind=kind, vocab=vocab, dense_dim=dense_dim,
                    feature_config=FeatureConfig(
                        **{k: features[k] for k in names if k in features}),
                    vectors=vectors)
        if kind == "kernel":
            n_sv = arrays["dual_coef"].size
            check_arrays(path, arrays, {
                "support_vectors": (n_sv, width), "dual_coef": (n_sv,),
                "bias": (1,)}, dtypes=("float64",))
            model.svm = SVMModel(support_vectors=arrays["support_vectors"],
                                 dual_coef=arrays["dual_coef"],
                                 bias=float(arrays["bias"][0]))
        else:
            check_arrays(path, arrays, _mlp_shapes(
                width, (arrays["b1"].size, arrays["b2"].size)))
            model.mlp = arrays
        return model


def _mlp_forward(params: dict[str, np.ndarray], x: np.ndarray) -> np.ndarray:
    h = np.maximum(x @ params["w1"] + params["b1"], 0.0)
    h = np.maximum(h @ params["w2"] + params["b2"], 0.0)
    return h @ params["w3"] + params["b3"]


def _macro_f1(pred: np.ndarray, gold: np.ndarray) -> float:
    return sum(LabelScore(tp=int(np.sum((pred == cls) & (gold == cls))),
                          n_sys=int(np.sum(pred == cls)),
                          n_gold=int(np.sum(gold == cls))).f1
               for cls in (False, True)) / 2.0


def _mlp_shapes(in_dim: int, hidden: tuple[int, int]) -> dict[str, tuple]:
    h1, h2 = hidden
    return {"w1": (in_dim, h1), "b1": (h1,), "w2": (h1, h2), "b2": (h2,),
            "w3": (h2, 2), "b3": (2,)}


def _init_mlp(in_dim: int, hidden: tuple[int, int], rng: np.random.Generator,
              dtype) -> dict[str, np.ndarray]:
    """He-initialized weights, drawn in the order w1, w2, w3; zero biases."""
    return {name: ad.draw_normal(rng, np.sqrt(2.0 / shape[0]), shape, dtype)
            if name[0] == "w" else np.zeros(shape, dtype)
            for name, shape in _mlp_shapes(in_dim, hidden).items()}


def mlp_loss(params: dict[str, ad.Tensor], x: np.ndarray,
             target: int, weight: float = 1.0) -> ad.Tensor:
    """Cross-entropy of one instance; params are tape tensors."""
    xs = ad.Tensor(x.reshape(1, -1))
    h = ad.relu(ad.matmul(xs, params["w1"]) + params["b1"])
    h = ad.relu(ad.matmul(h, params["w2"]) + params["b2"])
    logits = ad.matmul(h, params["w3"]) + params["b3"]
    log_probs = ad.log_softmax(logits, axis=-1)
    return ad.mul(ad.getitem(log_probs, (0, target)), -weight)


@np.errstate(over="ignore", invalid="ignore")  # check_loss reports divergence
def _train_mlp(x: np.ndarray, y: np.ndarray, weight: np.ndarray,
               opts: PropTrainOptions,
               log: Callable[[str], None]) -> dict[str, np.ndarray]:
    x = x.astype(np.float32)  # parameters and optimizer state follow x
    rng = np.random.default_rng(opts.seed)
    n = x.shape[0]
    order = rng.permutation(n)
    n_holdout = int(round(opts.holdout * n)) if n >= 10 else 0
    holdout_idx = order[:n_holdout]
    train_idx = order[n_holdout:]
    if n_holdout == n:
        raise TrainingError(f"holdout {opts.holdout} holds out {n_holdout} "
                            f"of {n} instances, leaving none to train on")

    params = {name: ad.Tensor(arr, requires_grad=True)
              for name, arr in _init_mlp(x.shape[1], opts.hidden_sizes,
                                         rng, x.dtype).items()}
    optimizer = ad.AdamW([params[k] for k in sorted(params)], lr=opts.lr)

    stopper = ad.EarlyStopping(list(params.values()), opts.patience)
    for epoch in range(1, opts.epochs + 1):
        for i in rng.permutation(len(train_idx)):
            idx = train_idx[i]
            loss = mlp_loss(params, x[idx], int(y[idx]), weight[idx])
            check_loss(loss.data)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        if n_holdout == 0:
            continue
        snapshot = {k: t.data for k, t in params.items()}
        pred = _mlp_forward(snapshot, x[holdout_idx])
        f1 = _macro_f1(pred[:, 1] >= pred[:, 0], y[holdout_idx])
        log(f"# epoch {epoch} holdout-f1 {100 * f1:.2f}")
        if stopper.update(f1, final=epoch == opts.epochs):
            break
    stopper.restore()
    return {k: t.data for k, t in params.items()}


def train_prop(corpus: list[Sentence], kind: str,
               options: PropTrainOptions | None = None,
               provider=None,
               feature_config: FeatureConfig = FeatureConfig(),
               log: Callable[[str], None] = lambda line: None) -> PropModel:
    """Trains a classifier on a corpus whose deps columns hold gold graphs.
    The kernel logs one "# svm" line with its solver state, the MLP one
    "# epoch" line with its holdout macro-F1 per epoch.  The model records
    the kind of provider its dense vectors come from, or "none": it reads
    the provider's vectors if the token features are on.  An MLP
    whose holdout leaves no instance to train on, or whose loss stops being
    finite, raises TrainingError."""
    if kind not in ("kernel", "mlp"):
        raise ValueError(f"unknown model kind {kind!r}")
    opts = options or PropTrainOptions()
    instances, vectors = [], []
    for index, sent in enumerate(corpus):
        found = extract_instances(sent, conj_pairs(sent), basic_edges(sent),
                                  gold=True)
        instances.extend(found)
        vectors.extend(featurize(sent, sent.token_by_id(), found, kind,
                                 provider, feature_config, index))
    if not instances:
        raise TrainingError("no propagation instances in the training data")
    vocab = build_vocabulary(vectors)
    dense_dim = provider.dim if (provider is not None
                                 and feature_config.token_features) else 0
    x = vectorize(vectors, vocab, dense_dim)
    y = np.array([bool(inst.gold) for inst in instances])
    if y.all() or not y.any():
        raise TrainingError("training data contains a single class")
    n, pos = len(y), int(y.sum())
    # class weighting balances the classes: each carries half the total
    weight = (np.where(y, n / (2.0 * pos), n / (2.0 * (n - pos)))
              if opts.class_weights else np.ones(n))

    model = PropModel(kind=kind, vocab=vocab, dense_dim=dense_dim,
                      feature_config=feature_config,
                      vectors=provider.kind if dense_dim else "none")
    if kind == "kernel":
        model.svm = svm = train_svm(x, y, c=opts.c * weight, tol=opts.tol)
        log(f"# svm iterations {svm.iterations} support-vectors "
            f"{len(svm.dual_coef)} gap {svm.gap:.6g}")
    else:
        model.mlp = _train_mlp(x, y, weight, opts, log)
    return model


def apply_model(model: PropModel, sent: Sentence, provider=None,
                config: ApplyConfig = ApplyConfig(),
                index: int = 0) -> Sentence:
    """A copy of sent with an enhanced edge for every instance that the
    model accepts.  The fix sends subject labels through the converter's
    passive/imperative adjustments; otherwise candidate labels are copied
    verbatim.  A provider is needed, and used, only when the model reads
    dense vectors."""
    if not model.dense_dim:
        provider = None
    elif provider is None:
        raise ApplyError(
            f"model expects dense vectors of dimension {model.dense_dim} "
            "but no embedding provider was given")
    elif provider.dim != model.dense_dim:
        raise ApplyError(
            f"embedding dimension {provider.dim} does not match the "
            f"model's expected {model.dense_dim}")

    basic = basic_edges(sent)

    def decide(work, by_id, pairs):
        instances = extract_instances(work, pairs, basic | enhanced_edges(work))
        if not instances:
            return
        x = vectorize(featurize(work, by_id, instances, model.kind, provider,
                                model.feature_config, index),
                      model.vocab, model.dense_dim)
        for inst in compress(instances, model.predict(x)):
            label = inst.candidate_label
            if config.passive_imperative_fix \
                    and coarse(label) in SUBJECT_LABELS:
                label = subject_label(work, by_id[inst.conj_dep], label, True)
            if label is not None:
                edge = inst.edge_at_conjunct()
                yield edge.dep, edge.head, label

    return propagate(seeded(sent), decide, config.iterate_to_fixpoint)
