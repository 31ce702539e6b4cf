from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from conjprop.conllu import ROOT, TokenId
from conjprop.graph import (
    DEFAULT_OUTGOING_EXCLUSIONS, INCOMING, OUTGOING, Edge,
    PropagationInstance, basic_edges, coarse, conj_pairs, enhanced_edges,
    extract_instances, has_subject, is_conj_label, propagated_links,
)
from conftest import make_sentence, perturb_enhanced, random_sentence


def edge(h, d, label):
    return Edge(TokenId(h), TokenId(d), label)


# Independent re-derivation of the propagated-link set, kept deliberately
# naive: flat loops over raw columns, no shared helpers.
def oracle_propagated(sent):
    basic = set()
    for t in sent.tokens:
        if not t.id.minor and t.head is not None:
            basic.add((t.head, t.id, t.deprel))
    conjuncts = set()
    for h, d, lab in basic:
        if lab == "conj" or lab.startswith("conj:"):
            conjuncts.add(h)
            conjuncts.add(d)
    found = set()
    for t in sent.tokens:
        for h, lab in t.deps:
            if (h, t.id, lab) in basic:
                continue
            if lab == "conj" or lab.startswith("conj:"):
                continue
            if h in conjuncts or t.id in conjuncts:
                found.add((h, t.id, lab))
    return found


def test_basic_edges_fig1(fig1):
    edges = basic_edges(fig1)
    assert edge(5, 4, "nsubj") in edges
    assert edge(5, 7, "conj") in edges
    assert edge(7, 6, "cc") in edges
    assert Edge(ROOT, TokenId(5), "root") in edges
    assert len(edges) == 10


def test_enhanced_edges_empty_without_seed(fig1):
    assert enhanced_edges(fig1) == set()


def test_propagated_links_fig1_gold(fig1_gold):
    assert propagated_links(fig1_gold) == {
        edge(7, 4, "nsubj"), edge(7, 9, "obj"), edge(7, 3, "obl")}


def test_propagated_links_need_conjunct_incidence():
    sent = make_sentence([
        ("a", "NOUN", 2, "nsubj"),
        ("b", "VERB", 0, "root"),
        ("c", "NOUN", 2, "obj"),
    ])
    for t in sent.tokens:
        t.deps = [(t.head, t.deprel)]
    # extra non-basic edge, but no conj edge anywhere in the sentence
    sent.tokens[0].deps.append((TokenId(3), "nmod"))
    assert propagated_links(sent) == set()


def test_propagated_links_need_a_basic_conj_edge():
    sent = make_sentence([
        ("Ann", "PROPN", 2, "nsubj"),
        ("sang", "VERB", 0, "root"),
        ("and", "CCONJ", 4, "cc"),
        ("danced", "VERB", 2, "advcl"),
    ])
    for t in sent.tokens:
        t.deps = [(t.head, t.deprel)]
    # a conj edge and a shared subject in the enhanced layer only
    sent.tokens[3].deps.append((TokenId(2), "conj:and"))
    sent.tokens[0].deps.append((TokenId(4), "nsubj"))
    assert conj_pairs(sent) == []
    assert propagated_links(sent) == set()
    # the same edges count once the basic layer has the conj edge
    sent.tokens[3].deprel = "conj"
    assert propagated_links(sent) == {edge(4, 1, "nsubj"), edge(2, 4, "advcl")}


def test_propagated_links_exclude_conj_labels(fig1_gold):
    fig1_gold.tokens[6].deps.append((TokenId(9), "conj:and"))
    assert propagated_links(fig1_gold) == {
        edge(7, 4, "nsubj"), edge(7, 9, "obj"), edge(7, 3, "obl")}


def test_relabeled_edge_counts_as_propagated(fig3a):
    for t in fig3a.tokens:
        t.deps = [(t.head, t.deprel)]
    tok1 = fig3a.tokens[0]
    tok1.deps = [(TokenId(4), "nsubj:pass"), (TokenId(9), "nsubj")]
    assert propagated_links(fig3a) == {edge(9, 1, "nsubj")}


def test_conj_pairs_fig3c(fig3c):
    assert conj_pairs(fig3c) == [(TokenId(1), TokenId(4)), (TokenId(5), TokenId(10))]
    assert {tid for pair in conj_pairs(fig3c) for tid in pair} == {
        TokenId(1), TokenId(4), TokenId(5), TokenId(10)}


def instance(gov, dep, target, label, direction):
    return PropagationInstance(TokenId(gov), TokenId(dep), TokenId(target),
                               label, direction)


def test_extract_instances_fig3c(fig3c):
    # pair (1, 4) has no outgoing candidate: 1's only dependent is 4 itself;
    # 5's root attachment is no candidate either, nor is its punct
    assert extract_instances(fig3c, conj_pairs(fig3c),
                             basic_edges(fig3c)) == [
        instance(1, 4, 5, "nsubj", INCOMING),
        instance(5, 10, 1, "nsubj", OUTGOING),
        instance(5, 10, 7, "obj", OUTGOING),
        instance(5, 10, 8, "advmod", OUTGOING),
    ]


def test_extract_instances_order_and_no_self_loops():
    # "a and b and c saw": 1 heads the conjuncts 3 and 5
    sent = make_sentence([
        ("a", "NOUN", 6, "nsubj"),
        ("and", "CCONJ", 3, "cc"),
        ("b", "NOUN", 1, "conj"),
        ("and", "CCONJ", 5, "cc"),
        ("c", "NOUN", 1, "conj"),
        ("saw", "VERB", 0, "root"),
    ])
    # enhanced extras: 3 -> 1 and 1 -> 3 would be self-loops at 3 but not
    # at 5; 1's conj edges are no candidates
    edges = basic_edges(sent) | {edge(3, 1, "nmod"), edge(1, 3, "obj"),
                                 edge(1, 6, "acl")}
    found = extract_instances(sent, conj_pairs(sent),
                              sorted(edges, reverse=True))
    assert found == [
        instance(1, 3, 6, "acl", OUTGOING),
        instance(1, 3, 6, "nsubj", INCOMING),
        instance(1, 5, 3, "obj", OUTGOING),
        instance(1, 5, 6, "acl", OUTGOING),
        instance(1, 5, 3, "nmod", INCOMING),
        instance(1, 5, 6, "nsubj", INCOMING),
    ]
    for inst in found:
        e = Edge(inst.conj_head, inst.target, inst.candidate_label) \
            if inst.direction == OUTGOING \
            else Edge(inst.target, inst.conj_head, inst.candidate_label)
        assert e in edges
        copy = inst.edge_at_conjunct()
        assert copy.head != copy.dep


def test_extract_instances_match_a_naive_enumeration_on_random_sentences():
    excluded = DEFAULT_OUTGOING_EXCLUSIONS
    rng = random.Random(13)
    for i in range(300):
        sent = perturb_enhanced(rng, random_sentence(rng, f"c{i}"))
        edges = basic_edges(sent) | enhanced_edges(sent)
        want = []
        for gov, dep in conj_pairs(sent):
            for outgoing in (True, False):
                for e in sorted(edges):
                    near, far = (e.head, e.dep) if outgoing \
                        else (e.dep, e.head)
                    if near != gov or far == dep:
                        continue
                    if outgoing and excluded & {e.label, coarse(e.label)}:
                        continue
                    if not outgoing and (e.head == ROOT or e.label == "root"):
                        continue
                    want.append(PropagationInstance(
                        gov, dep, far, e.label,
                        OUTGOING if outgoing else INCOMING))
        assert extract_instances(sent, conj_pairs(sent), edges) == want
        # plain tuples give the same list
        assert extract_instances(sent, conj_pairs(sent),
                                 [tuple(e) for e in edges]) == want


def test_conj_subtype_counts():
    sent = make_sentence([
        ("a", "VERB", 0, "root"),
        ("and", "CCONJ", 3, "cc"),
        ("b", "VERB", 1, "conj:and"),
    ])
    assert conj_pairs(sent) == [(TokenId(1), TokenId(3))]


def test_coarse():
    assert coarse("nsubj:pass") == "nsubj"
    assert coarse("obl:tmod") == "obl"
    assert coarse("obj") == "obj"


@pytest.mark.parametrize("label", ["conj", "conj:and", "conj:and:or",
                                   "conjx", "conj:", ":conj", "", "Conj",
                                   "con", "nsubj"])
def test_is_conj_label_is_the_coarse_test(label):
    assert is_conj_label(label) == (coarse(label) == "conj")


@given(st.text(alphabet="conj:x", max_size=8))
def test_is_conj_label_agrees_with_coarse_on_any_label(label):
    assert is_conj_label(label) == (coarse(label) == "conj")


def test_propagated_links_match_oracle_on_random_sentences():
    rng = random.Random(20240817)
    for i in range(300):
        sent = perturb_enhanced(rng, random_sentence(rng, f"r{i}"))
        got = {(e.head, e.dep, e.label) for e in propagated_links(sent)}
        assert got == oracle_propagated(sent), f"sentence r{i}"


def test_layer_views_match_oracle_on_random_sentences():
    rng = random.Random(7)
    for i in range(100):
        sent = perturb_enhanced(rng, random_sentence(rng, f"v{i}"))
        want_basic = set()
        for t in sent.tokens:
            if not t.id.minor and t.head is not None:
                want_basic.add((t.head, t.id, t.deprel))
        want_enh = set()
        for t in sent.tokens:
            for h, lab in t.deps:
                want_enh.add((h, t.id, lab))
        assert {(e.head, e.dep, e.label) for e in basic_edges(sent)} == want_basic
        assert {(e.head, e.dep, e.label) for e in enhanced_edges(sent)} == want_enh


def test_has_subject_matches_the_edge_set_formulation():
    rng = random.Random(31)
    for i in range(300):
        sent = random_sentence(rng, f"s{i}")
        if i % 2:
            sent = perturb_enhanced(rng, sent)
        edges = basic_edges(sent) | enhanced_edges(sent)
        for dep in [ROOT] + [t.id for t in sent.tokens]:
            want = any(e.head == dep and coarse(e.label) in ("nsubj", "csubj")
                       for e in edges)
            assert has_subject(sent, dep) == want, f"sentence s{i}, {dep}"
