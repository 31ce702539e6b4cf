"""Edge-level views of a sentence's basic and enhanced layers."""

from __future__ import annotations

import bisect
from typing import Iterable, NamedTuple

from .conllu import ROOT, Sentence, Token, TokenId

SUBJECT_LABELS = frozenset({"nsubj", "csubj"})


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


def candidates(pairs: list[tuple[TokenId, TokenId]],
               edges: Iterable[tuple[TokenId, TokenId, str]]
               ) -> list[tuple[TokenId, TokenId, Edge, bool]]:
    """(gov, dep, edge, outgoing) for each of edges incident to a conj head.

    pairs are a sentence's conj_pairs, and edges (head, dep, label) tuples;
    only those returned become Edges. Pairs come in the order given; within
    one, the edges out of gov, then those into it, each sorted. A copy onto
    dep that would be a self-loop is left out.
    """
    govs = {gov for gov, _ in pairs}
    incident = sorted(e for e in edges if e[0] in govs or e[1] in govs)
    out = []
    for gov, dep in pairs:
        out.extend((gov, dep, Edge(*e), True) for e in incident
                   if e[0] == gov and e[1] != dep)
        out.extend((gov, dep, Edge(*e), False) for e in incident
                   if e[1] == gov and e[0] != dep)
    return out


def conjunct_ids(sent: Sentence) -> set[TokenId]:
    """Every token that is the gov or the dep of some basic conj edge: the
    pairs of conj_pairs, read straight from the columns without the sort."""
    return {tid for t in sent.tokens
            if t.head is not None and is_conj_label(t.deprel)
            and t.head != ROOT and not t.id.minor
            for tid in (t.head, t.id)}


def propagated_links(sent: Sentence) -> set[Edge]:
    """Enhanced edges absent from the basic layer and incident to a conjunct.

    Membership in the basic layer is exact-triple equality, so a relabeled
    edge counts as propagated. Edges labeled conj (any subtype) are excluded.
    A sentence without a basic conj edge has no conjunct, so no link.
    """
    conjuncts = conjunct_ids(sent)
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
