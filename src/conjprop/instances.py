"""Candidate propagation instances and their feature encoding.

One instance is a yes/no question: should this incident edge of a
conjunction head be copied onto one of its conjuncts?  Instances are the
graph.candidates of a sentence, the list the rule converter decides over,
minus those the label filter drops; features cover the candidate
link itself, morphology and optional dense vectors for the three involved
tokens, and structure read off the basic tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .conllu import ROOT, Sentence, TokenId
from .embeddings import EmbeddingProvider, sentence_key
from .graph import (
    Edge, basic_edges, candidates, coarse, enhanced_edges, is_conj_label,
)

# incident edges of the conjunction head that are never candidates
DEFAULT_OUTGOING_EXCLUSIONS = frozenset({"cc", "conj", "punct", "mark"})

MORPH_FEATURES = ("Number", "Person", "VerbForm", "Voice")
DENSE_ROLES = ("head", "dep", "target")

INCOMING = "incoming"
OUTGOING = "outgoing"


class TokenMismatchError(Exception):
    """Sentence pair disagrees on tokens; message names sentence and token."""


@dataclass(frozen=True)
class InstanceConfig:
    outgoing_exclusions: frozenset[str] = DEFAULT_OUTGOING_EXCLUSIONS


@dataclass
class PropagationInstance:
    sentence_ref: tuple[str, int]
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
    if base in ("nsubj", "csubj") and label in (base, base + ":pass"):
        return base
    return None


def labels_match(candidate: str, gold_label: str) -> bool:
    """Exact match, or both in the same subject/passive-subject family."""
    if candidate == gold_label:
        return True
    fam = _pass_family(candidate)
    return fam is not None and fam == _pass_family(gold_label)


def _check_aligned(sent: Sentence, gold: Sentence) -> None:
    sid = sent.sent_id or "<no id>"
    if len(sent.tokens) != len(gold.tokens):
        raise TokenMismatchError(
            f"sentence {sid!r}: {len(sent.tokens)} tokens vs "
            f"{len(gold.tokens)} in gold")
    for a, b in zip(sent.tokens, gold.tokens):
        if a.id != b.id or a.form != b.form:
            raise TokenMismatchError(
                f"sentence {sid!r}: token {a.id} mismatch "
                f"({a.form!r} vs {b.form!r} at {b.id})")


def extract_instances(sent: Sentence, gold: Sentence | None = None,
                      config: InstanceConfig = InstanceConfig(),
                      index: int = 0,
                      layer: str = "basic") -> list[PropagationInstance]:
    """One instance per graph.candidates entry that passes the label filter.

    The filter keeps outgoing edges of the conjunction head unless their
    full or coarse label is in the exclusion list, and incoming ones unless
    they are the root attachment (head ROOT or label root).
    With layer="working" the edges are read from the union of the basic and
    the current enhanced layer, so edges added by an earlier application
    round can themselves be propagated.
    """
    if gold is not None:
        _check_aligned(sent, gold)
        gold_set = enhanced_edges(gold)
    sid = sentence_key(sent, index)
    ref = (sid, index)
    edges = basic_edges(sent)
    if layer == "working":
        edges = edges | enhanced_edges(sent)
    elif layer != "basic":
        raise ValueError(f"unknown layer {layer!r}")
    out: list[PropagationInstance] = []
    for gov, dep, e, outgoing in candidates(sent, edges):
        if outgoing:
            if e.label in config.outgoing_exclusions \
                    or coarse(e.label) in config.outgoing_exclusions:
                continue
            out.append(PropagationInstance(ref, gov, dep, e.dep, e.label,
                                           OUTGOING))
        elif e.head != ROOT and e.label != "root":
            out.append(PropagationInstance(ref, gov, dep, e.head, e.label,
                                           INCOMING))

    if gold is not None:
        for inst in out:
            want = inst.edge_at_conjunct()
            inst.gold = any(g.head == want.head and g.dep == want.dep
                            and labels_match(want.label, g.label)
                            for g in gold_set)
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


def featurize(inst: PropagationInstance, sent: Sentence,
              provider: EmbeddingProvider | None = None,
              config: FeatureConfig = FeatureConfig()) -> FeatureVector:
    fv = FeatureVector()
    fv.named[f"label={inst.candidate_label}"] = 1.0
    fv.named[f"direction={inst.direction}"] = 1.0

    by_id = sent.token_by_id()
    roles = {"head": inst.conj_head, "dep": inst.conj_dep,
             "target": inst.target}

    if config.token_features:
        if config.morphology:
            for role, tid in roles.items():
                tok = by_id.get(tid)
                if tok is None:
                    continue
                for feat in MORPH_FEATURES:
                    value = tok.feats.get(feat)
                    if value is not None:
                        fv.named[f"{role}:{feat}={value}"] = 1.0
        if config.dense_tokens and provider is not None:
            sid = inst.sentence_ref[0]
            for role, tid in roles.items():
                if tid == ROOT:
                    fv.dense[role] = np.zeros(provider.dim)
                else:
                    fv.dense[role] = provider.lookup(sid, tid)

    if config.tree_features:
        direction = _linear_direction(inst.target, inst.conj_head,
                                      inst.conj_dep)
        fv.named[f"lindir={direction}"] = 1.0
        basic = basic_edges(sent)
        existing = any(e.head == inst.conj_dep
                       and e.label == inst.candidate_label for e in basic)
        if existing:
            fv.named["existing-dep"] = 1.0
        for e in basic:
            if e.head == inst.conj_head:
                fv.named[f"head-out={e.label}"] = 1.0
            if e.head == inst.conj_dep:
                fv.named[f"dep-out={e.label}"] = 1.0
        items = 1 + sum(1 for e in basic
                        if e.head == inst.conj_head and is_conj_label(e.label))
        if config.count_scalar:
            fv.named["coord-items"] = float(items)
        else:
            fv.named[f"coord-items={items}"] = 1.0
    return fv


def build_vocabulary(vectors: list[FeatureVector]) -> dict[str, int]:
    names = sorted({name for fv in vectors for name in fv.named})
    return {name: i for i, name in enumerate(names)}


def vectorize(fv: FeatureVector, vocab: dict[str, int],
              dense_dim: int) -> np.ndarray:
    """Fixed-width encoding: vocabulary slots, then head/dep/target vectors.

    Feature names absent from the vocabulary are dropped; a dense role
    missing from the vector stays zero.
    """
    out = np.zeros(len(vocab) + len(DENSE_ROLES) * dense_dim)
    for name, value in fv.named.items():
        idx = vocab.get(name)
        if idx is not None:
            out[idx] = value
    offset = len(vocab)
    for role in DENSE_ROLES:
        vec = fv.dense.get(role)
        if vec is not None:
            if dense_dim and vec.shape[-1] != dense_dim:
                raise ValueError(
                    f"dense vector for {role!r} has dimension "
                    f"{vec.shape[-1]}, model expects {dense_dim}")
            if dense_dim:
                out[offset:offset + dense_dim] = vec
        offset += dense_dim
    return out
