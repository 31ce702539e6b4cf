"""Propagation of dependencies across coordinations, by rule or by model.

propagate is the one pass loop: a decider yields (token, head, label)
edges, each added to the enhanced layer before the next is decided, and
passes repeat while one adds an edge if fixpoint is set. The deciders
differ in what they read. The rules and the classifiers (propmodel) both
decide over graph.extract_instances, the one candidate list, taken at
pass start: the rules over DEPS, the classifiers over basic and DEPS. The
rules check for a subject on the live graph, though, so a subject copied
earlier in the pass counts. Neither copies a ROOT-headed edge: UD allows
only root on an edge from 0. always reads DEPS afresh for each conj pair,
so its copies chain left to right in its one pass. Converters return a
copy unless in_place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

from .conllu import Sentence, Token, TokenId
from .graph import (
    INCOMING, SUBJECT_LABELS, Edge, add_dep, coarse, conj_pairs,
    enhanced_edges, extract_instances, has_child_with_label, has_subject,
)

# incoming labels of gov never copied over to the conjunct, by coarse label
GOVERNOR_EXCEPTIONS = frozenset(
    {"vocative", "discourse", "root", "punct", "cc", "conj", "mark"})

CORE_NONSUBJECT_LABELS = frozenset({"obj", "iobj", "ccomp", "xcomp"})
NON_CORE_LABELS = frozenset({"obl", "advmod", "advcl"})


@dataclass(frozen=True)
class ConverterConfig:
    propagate_non_core: bool = False
    iterate_to_fixpoint: bool = False
    passive_imperative_fix: bool = False


MODES = {
    "rbc": ConverterConfig(),
    "rbc2": ConverterConfig(propagate_non_core=True, iterate_to_fixpoint=True),
    "rbc2+fix": ConverterConfig(propagate_non_core=True, iterate_to_fixpoint=True,
                                passive_imperative_fix=True),
}


def seed_enhanced(sent: Sentence) -> None:
    """Copy the basic layer into DEPS, in place. No-op for tokens with deps."""
    for t in sent.tokens:
        if not t.deps and t.head is not None:
            t.deps.append((t.head, t.deprel))


def seeded(sent: Sentence, in_place: bool = False) -> Sentence:
    """A copy of sent, or sent itself when in_place, its DEPS seeded from
    the basic layer when all empty."""
    work = sent if in_place else sent.clone()
    if all(not t.deps for t in work.tokens):
        seed_enhanced(work)
    return work


def subject_label(sent: Sentence, dep_tok: Token, candidate: str,
                  passive_imperative_fix: bool) -> str | None:
    """Final label for a subject copied onto dep_tok, or None to suppress it."""
    if passive_imperative_fix:
        if coarse(candidate) == "nsubj" and dep_tok.feats.get("Mood") == "Imp":
            return None
        if candidate == "nsubj:pass":
            voice = dep_tok.feats.get("Voice")
            if voice is None or voice == "Act":
                return "nsubj"
    if candidate in SUBJECT_LABELS \
            and has_child_with_label(sent, dep_tok.id, "aux:pass"):
        return candidate + ":pass"
    return candidate


def propagate(work: Sentence, decide: Callable[..., Iterator[tuple]],
              fixpoint: bool) -> Sentence:
    """work, in place, with the edges decide(work, by_id, pairs) yields."""
    pairs = conj_pairs(work)
    if not pairs:
        return work
    by_id = work.token_by_id()
    while True:
        added = False
        for tid, head, label in decide(work, by_id, pairs):
            added |= add_dep(by_id[tid], head, label)
        if not (added and fixpoint):
            return work


def _rule_edges(cfg: ConverterConfig, work: Sentence,
                by_id: dict[TokenId, Token],
                pairs: list[tuple[TokenId, TokenId]]) -> Iterator[tuple]:
    deps = ((head, t.id, label) for t in work.tokens for head, label in t.deps)
    for inst in extract_instances(work, pairs, deps):
        label = inst.candidate_label
        base = coarse(label)
        if inst.direction == INCOMING:
            # governors of gov are copied, modulo the exception list; non-core
            # labels stay local unless non-core propagation is switched on, so
            # the default config introduces no obl/advmod/advcl edge anywhere
            keep = base not in GOVERNOR_EXCEPTIONS and (
                cfg.propagate_non_core or base not in NON_CORE_LABELS)
        # dependents of gov, by label class; the subject check reads the
        # working graph, so a subject copied earlier in this pass counts
        elif base in SUBJECT_LABELS:
            label = None if has_subject(work, inst.conj_dep) else \
                subject_label(work, by_id[inst.conj_dep], label,
                              cfg.passive_imperative_fix)
            keep = label is not None
        elif base in CORE_NONSUBJECT_LABELS:
            # only shared if the target follows the conjunct
            keep = inst.target > inst.conj_dep
        else:
            # only shared if the conjunct follows the target
            keep = cfg.propagate_non_core and base in NON_CORE_LABELS \
                and inst.target < inst.conj_dep
        if keep:
            edge = inst.edge_at_conjunct()
            yield edge.dep, edge.head, label


def convert(sent: Sentence, cfg: ConverterConfig = ConverterConfig(),
            in_place: bool = False) -> Sentence:
    """sent propagated under cfg, its DEPS seeded from basic when empty."""
    return propagate(seeded(sent, in_place), partial(_rule_edges, cfg),
                     cfg.iterate_to_fixpoint)


def _always_edges(work: Sentence, by_id: dict[TokenId, Token],
                  pairs: list[tuple[TokenId, TokenId]]) -> Iterator[tuple]:
    for gov, dep in pairs:
        # a snapshot per pair: the copies of earlier pairs are in it
        for head, tid, label in [(head, t.id, label) for t in work.tokens
                                 for head, label in t.deps
                                 if head == gov or t.id == gov]:
            if tid == gov and head != dep:
                yield dep, head, label
            elif head == gov and tid != dep:
                yield tid, dep, label


def always_baseline(sent: Sentence, in_place: bool = False) -> Sentence:
    """Copy every incident edge of the head to the conjunct, labels unchanged,
    but for the conj edge to the conjunct itself and any self-loop."""
    return propagate(seeded(sent, in_place), _always_edges, False)


def convert_mode(sent: Sentence, mode: str,
                 in_place: bool = False) -> Sentence:
    """sent propagated under mode: a copy, or sent itself when in_place."""
    if mode == "always":
        return always_baseline(sent, in_place)
    try:
        cfg = MODES[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None
    return convert(sent, cfg, in_place)


def added_edges(before: Sentence, after: Sentence) -> set[Edge]:
    """Enhanced edges present in after but not in before (after seeding)."""
    return enhanced_edges(after) - enhanced_edges(seeded(before))
