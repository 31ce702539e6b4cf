"""The feature encoding of propagation instances.

One instance is a yes/no question: should this incident edge of a
conjunction head be copied onto one of its conjuncts?  They are listed by
graph.extract_instances, which the rules decide over too, without numpy.
Instances hold token ids only; the sentence they came from is passed
along beside them, so featurize encodes all of one sentence's instances
in one pass.  Features cover the candidate link itself,
morphology and optional dense vectors for the three involved tokens, and
structure read off the basic tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conllu import Sentence, Token, TokenId
from .embeddings import EmbeddingProvider, sentence_key
# extract_instances keeps its old path here; it lives in graph
from .graph import PropagationInstance, extract_instances, is_conj_label

MORPH_FEATURES = ("Number", "Person", "VerbForm", "Voice")
DENSE_ROLES = ("head", "dep", "target")


@dataclass(frozen=True)
class FeatureConfig:
    """Which feature groups to compute.

    Candidate label and direction are always included.  Morphology one-hots
    and dense token vectors are both token features; defaults per model kind
    come from default_feature_config.
    """
    token_features: bool = True
    tree_features: bool = True
    morphology: bool = True
    dense_tokens: bool = False
    count_scalar: bool = False


def default_feature_config(kind: str) -> FeatureConfig:
    if kind == "kernel":
        return FeatureConfig(morphology=True, dense_tokens=False,
                             count_scalar=False)
    if kind == "mlp":
        return FeatureConfig(morphology=False, dense_tokens=True,
                             count_scalar=True)
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass
class FeatureVector:
    named: dict[str, float] = field(default_factory=dict)
    dense: dict[str, np.ndarray] = field(default_factory=dict)


def _linear_direction(target: TokenId, head: TokenId, dep: TokenId) -> str:
    left_of_head = target < head
    left_of_dep = target < dep
    if left_of_head and left_of_dep:
        return "both-left"
    if not left_of_head and not left_of_dep:
        return "both-right"
    return "differing-directions"


def featurize(sent: Sentence, by_id: dict[TokenId, Token],
              instances: list[PropagationInstance],
              provider: EmbeddingProvider | None = None,
              config: FeatureConfig = FeatureConfig(),
              index: int = 0) -> list[FeatureVector]:
    """The feature vectors of instances, all taken from sent, whose
    token_by_id is by_id and which sits at position index of its corpus
    (the key of its dense vectors if it has no sent_id).  Each instance's
    vector depends on that instance alone."""
    sid = sentence_key(sent, index)
    children: dict[TokenId, list[str]] = {}
    for t in sent.tokens:
        if t.head is not None and not t.id.minor:
            children.setdefault(t.head, []).append(t.deprel)
    out = []
    for inst in instances:
        fv = FeatureVector({f"label={inst.candidate_label}": 1.0,
                            f"direction={inst.direction}": 1.0})
        roles = (("head", inst.conj_head), ("dep", inst.conj_dep),
                 ("target", inst.target))
        if config.token_features and config.morphology:
            for role, tid in roles:
                feats = by_id[tid].feats
                for feat in MORPH_FEATURES:
                    if feat in feats:
                        fv.named[f"{role}:{feat}={feats[feat]}"] = 1.0
        if config.token_features and config.dense_tokens \
                and provider is not None:
            fv.dense = {role: provider.lookup(sid, tid, by_id[tid].form)
                        for role, tid in roles}
        if config.tree_features:
            direction = _linear_direction(inst.target, inst.conj_head,
                                          inst.conj_dep)
            fv.named[f"lindir={direction}"] = 1.0
            head_out = children.get(inst.conj_head, [])
            dep_out = children.get(inst.conj_dep, [])
            if inst.candidate_label in dep_out:
                fv.named["existing-dep"] = 1.0
            for label in head_out:
                fv.named[f"head-out={label}"] = 1.0
            for label in dep_out:
                fv.named[f"dep-out={label}"] = 1.0
            items = 1 + sum(map(is_conj_label, head_out))
            if config.count_scalar:
                fv.named["coord-items"] = float(items)
            else:
                fv.named[f"coord-items={items}"] = 1.0
        out.append(fv)
    return out


def build_vocabulary(vectors: list[FeatureVector]) -> dict[str, int]:
    names = sorted({name for fv in vectors for name in fv.named})
    return {name: i for i, name in enumerate(names)}


def vectorize(vectors: list[FeatureVector], vocab: dict[str, int],
              dense_dim: int) -> np.ndarray:
    """Fixed-width encoding, one row per vector: vocabulary slots, then
    head/dep/target vectors.

    Feature names absent from the vocabulary are dropped; a dense role
    missing from a vector stays zero.
    """
    out = np.zeros((len(vectors), len(vocab) + len(DENSE_ROLES) * dense_dim))
    for row, fv in zip(out, vectors):
        for name, value in fv.named.items():
            idx = vocab.get(name)
            if idx is not None:
                row[idx] = value
        for k, role in enumerate(DENSE_ROLES):
            vec = fv.dense.get(role)
            if vec is None or not dense_dim:
                continue
            if vec.shape[-1] != dense_dim:
                raise ValueError(f"dense vector for {role!r} has dimension "
                                 f"{vec.shape[-1]}, model expects {dense_dim}")
            start = len(vocab) + k * dense_dim
            row[start:start + dense_dim] = vec
    return out
