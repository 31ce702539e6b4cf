"""Edge-level views of a sentence's basic and enhanced layers, and the
one list of propagation candidates read off them."""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .conllu import ROOT, Sentence, Token, TokenId

SUBJECT_LABELS = frozenset({"nsubj", "csubj"})

# labels of the conjunction head's outgoing edges that are no candidates
DEFAULT_OUTGOING_EXCLUSIONS = frozenset({"cc", "conj", "punct", "mark"})

INCOMING = "incoming"
OUTGOING = "outgoing"


class Edge(NamedTuple):
    head: TokenId
    dep: TokenId
    label: str


def coarse(label: str) -> str:
    """Label without subtypes: nsubj:pass -> nsubj."""
    return label.split(":", 1)[0]


def is_conj_label(label: str) -> bool:
    """coarse(label) == "conj", without the split."""
    return label == "conj" or label.startswith("conj:")


def basic_edges(sent: Sentence) -> set[Edge]:
    """One edge per regular token from its HEAD/DEPREL columns."""
    return {Edge(t.head, t.id, t.deprel) for t in sent.tokens
            if t.head is not None and not t.id.minor}


def enhanced_edges(sent: Sentence) -> set[Edge]:
    """Union of all DEPS entries, empty nodes included."""
    return {Edge(head, t.id, label) for t in sent.tokens
            for head, label in t.deps}


def conj_pairs(sent: Sentence) -> list[tuple[TokenId, TokenId]]:
    """(gov, dep) for every basic conj edge, in surface order of dep."""
    pairs = []
    for t in sent.tokens:
        if t.head is None or t.head == ROOT or not is_conj_label(t.deprel):
            continue
        if not t.id.minor:
            pairs.append((t.head, t.id))
    pairs.sort(key=lambda p: (p[1], p[0]))
    return pairs


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
                      gold: bool = False) -> list[PropagationInstance]:
    """One instance per (head, dep, label) of edges incident to gov, for
    each of sent's conj_pairs (gov, dep) in the order given: the edges out
    of gov, then those into it, each sorted.  Left out are outgoing edges
    whose full or coarse label is in DEFAULT_OUTGOING_EXCLUSIONS, the root
    attachment (head ROOT or label root), and copies onto dep that would be
    self-loops.  With
    gold, an instance is positive if sent's own DEPS hold its edge at the
    conjunct under a label that labels_match; else its gold stays None."""
    govs = {gov for gov, _ in pairs}
    incident = sorted(e for e in edges if e[0] in govs or e[1] in govs)
    excluded = DEFAULT_OUTGOING_EXCLUSIONS
    out: list[PropagationInstance] = []
    for gov, dep in pairs:
        out.extend(PropagationInstance(gov, dep, tid, label, OUTGOING)
                   for head, tid, label in incident
                   if head == gov and tid != dep and label not in excluded
                   and coarse(label) not in excluded)
        out.extend(PropagationInstance(gov, dep, head, label, INCOMING)
                   for head, tid, label in incident
                   if tid == gov and head != dep and head != ROOT
                   and label != "root")
    if gold:
        gold_labels: dict[tuple[TokenId, TokenId], list[str]] = {}
        for head, dep, label in enhanced_edges(sent):
            gold_labels.setdefault((head, dep), []).append(label)
        for inst in out:
            want = inst.edge_at_conjunct()
            inst.gold = any(labels_match(want.label, label) for label
                            in gold_labels.get((want.head, want.dep), ()))
    return out


def propagated_links(sent: Sentence) -> set[Edge]:
    """Enhanced edges absent from the basic layer and incident to a conjunct.

    Membership in the basic layer is exact-triple equality, so a relabeled
    edge counts as propagated. Edges labeled conj (any subtype) are excluded.
    A sentence without a basic conj edge has no conjunct, so no link.
    """
    conjuncts = {tid for pair in conj_pairs(sent) for tid in pair}
    if not conjuncts:
        return set()
    # plain (head, dep, label) tuples hash and compare equal to Edges
    basic = {(t.head, t.id, t.deprel) for t in sent.tokens
             if t.head is not None and not t.id.minor}
    return {Edge(head, t.id, label) for t in sent.tokens
            for head, label in t.deps
            if (head in conjuncts or t.id in conjuncts)
            and (head, t.id, label) not in basic and not is_conj_label(label)}


def has_child_with_label(sent: Sentence, head: TokenId, label: str) -> bool:
    """True if head has a basic dependent attached with exactly this label."""
    for t in sent.tokens:
        if t.head == head and t.deprel == label:
            return True
    return False


def has_subject(sent: Sentence, dep: TokenId) -> bool:
    """True if a basic or enhanced edge attaches a subject to dep."""
    return any(head == dep and coarse(label) in SUBJECT_LABELS
               for t in sent.tokens
               for head, label in (t.deps if t.id.minor
                                   else [(t.head, t.deprel), *t.deps]))


def add_dep(token: Token, head: TokenId, label: str) -> bool:
    """Insert (head, label) into a token's DEPS if absent. Returns True if added.

    The list is kept in serialization order, so insertion order never shows
    up in written output or in equality checks.
    """
    if (head, label) in token.deps:
        return False
    bisect.insort(token.deps, (head, label))
    return True
