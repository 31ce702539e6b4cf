"""Candidate propagation instances and their feature encoding.

One instance is a yes/no question: should this incident edge of a
conjunction head be copied onto one of its conjuncts?  Instances are the
graph.candidates of a sentence, the list the rule converter decides over,
minus those the label filter drops.  Callers pass the conj pairs and the
edge set they already hold; gold marks come from the sentence's own DEPS.
Instances hold token ids only; the sentence they came from is passed
along beside them, so featurize encodes all of one sentence's instances
in one pass.  Features cover the candidate link itself, morphology and
optional dense vectors for the three involved tokens, and structure read
off the basic tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .conllu import ROOT, Sentence, TokenId
from .embeddings import EmbeddingProvider, sentence_key
from .graph import SUBJECT_LABELS, Edge, candidates, coarse, is_conj_label

# incident edges of the conjunction head that are never candidates
DEFAULT_OUTGOING_EXCLUSIONS = frozenset({"cc", "conj", "punct", "mark"})

MORPH_FEATURES = ("Number", "Person", "VerbForm", "Voice")
DENSE_ROLES = ("head", "dep", "target")

INCOMING = "incoming"
OUTGOING = "outgoing"


@dataclass(frozen=True)
class InstanceConfig:
    outgoing_exclusions: frozenset[str] = DEFAULT_OUTGOING_EXCLUSIONS


@dataclass
class PropagationInstance:
    conj_head: TokenId
    conj_dep: TokenId
    target: TokenId
    candidate_label: str
    direction: str
    gold: bool | None = None

    def edge_at_conjunct(self) -> Edge:
        """The enhanced edge a positive decision materializes."""
        if self.direction == OUTGOING:
            return Edge(self.conj_dep, self.target, self.candidate_label)
        return Edge(self.target, self.conj_dep, self.candidate_label)


def _pass_family(label: str) -> str | None:
    base = coarse(label)
    if base in SUBJECT_LABELS and label in (base, base + ":pass"):
        return base
    return None


def labels_match(candidate: str, gold_label: str) -> bool:
    """Exact match, or both in the same subject/passive-subject family."""
    if candidate == gold_label:
        return True
    fam = _pass_family(candidate)
    return fam is not None and fam == _pass_family(gold_label)


def extract_instances(sent: Sentence, pairs: list[tuple[TokenId, TokenId]],
                      edges: Iterable[tuple[TokenId, TokenId, str]],
                      config: InstanceConfig = InstanceConfig(),
                      gold: bool = False) -> list[PropagationInstance]:
    """One instance per graph.candidates(pairs, edges) entry that passes
    the label filter: outgoing edges of the conjunction head unless their
    full or coarse label is excluded, incoming ones unless they are the
    root attachment (head ROOT or label root).  pairs are sent's
    conj_pairs and edges the layer to read.  With gold, an instance is
    positive if sent's own DEPS hold its edge at the conjunct under a label
    that labels_match; otherwise its gold stays None."""
    out: list[PropagationInstance] = []
    for gov, dep, e, outgoing in candidates(pairs, edges):
        if outgoing:
            if e.label in config.outgoing_exclusions \
                    or coarse(e.label) in config.outgoing_exclusions:
                continue
            out.append(PropagationInstance(gov, dep, e.dep, e.label,
                                           OUTGOING))
        elif e.head != ROOT and e.label != "root":
            out.append(PropagationInstance(gov, dep, e.head, e.label,
                                           INCOMING))

    if gold:
        gold_labels: dict[tuple[TokenId, TokenId], list[str]] = {}
        for t in sent.tokens:
            for head, label in t.deps:
                gold_labels.setdefault((head, t.id), []).append(label)
        for inst in out:
            want = inst.edge_at_conjunct()
            inst.gold = any(labels_match(want.label, label) for label
                            in gold_labels.get((want.head, want.dep), ()))
    return out


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


def featurize(sent: Sentence, instances: list[PropagationInstance],
              provider: EmbeddingProvider | None = None,
              config: FeatureConfig = FeatureConfig(),
              index: int = 0) -> list[FeatureVector]:
    """The feature vectors of instances, all taken from sent, which sits at
    position index of its corpus (the key of its dense vectors if it has no
    sent_id).  Each instance's vector depends on that instance alone."""
    by_id = sent.token_by_id()
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
            fv.dense = {role: provider.lookup(sid, tid) for role, tid in roles}
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
