from __future__ import annotations

import os
import random

import pytest

from conjprop.conllu import ROOT, Sentence, Token, TokenId, read_file
from conjprop.graph import (
    basic_edges, conj_pairs, enhanced_edges, extract_instances,
)

DATA = os.path.join(os.path.dirname(__file__), "data")

LABEL_POOL = [
    "nsubj", "nsubj:pass", "csubj", "obj", "iobj", "ccomp", "xcomp",
    "obl", "obl:tmod", "advmod", "advcl", "nmod", "amod", "det", "case",
    "mark", "cc", "punct", "aux", "aux:pass", "cop", "conj", "conj:and",
    "vocative", "discourse", "appos", "acl:relcl",
]
UPOS_POOL = ["NOUN", "VERB", "AUX", "PRON", "PROPN", "ADJ", "ADV", "ADP",
             "DET", "CCONJ", "PUNCT", "NUM"]


def data_path(name: str) -> str:
    return os.path.join(DATA, name)


def load_fig(name: str) -> Sentence:
    return read_file(data_path(name))[0]


@pytest.fixture
def fig1():
    return load_fig("fig1.conllu")


@pytest.fixture
def fig1_gold():
    return load_fig("fig1_gold.conllu")


@pytest.fixture
def fig3a():
    return load_fig("fig3a.conllu")


@pytest.fixture
def fig3b():
    return load_fig("fig3b.conllu")


@pytest.fixture
def fig3c():
    return load_fig("fig3c.conllu")


@pytest.fixture
def training_dtypes(monkeypatch):
    """(dtypes, snapshots): while the test runs, the dtype names of every
    array AdamW updates with (parameter, gradients, moments, scratch) and
    every early-stopping snapshot."""
    from conjprop import autodiff as ad
    dtypes, snapshots = set(), []

    class Optimizer(ad.AdamW):
        def update(self, p, grad, key=...):
            m, v = self._moments[id(p)]
            dtypes.update(a.dtype.name for a in (p.data, p.grad, grad, m, v,
                                                 self._scratch)
                          if a is not None)
            super().update(p, grad, key)

    class Stopper(ad.EarlyStopping):
        def update(self, score, final=False):
            stop = super().update(score, final)
            snapshots.extend(self.best or [])
            return stop

    monkeypatch.setattr(ad, "AdamW", Optimizer)
    monkeypatch.setattr(ad, "EarlyStopping", Stopper)
    return dtypes, snapshots


def make_sentence(rows, sent_id="s1"):
    """Compact sentence builder.

    rows: (form, upos, head_major, deprel) or with a trailing feats dict.
    """
    tokens = []
    for i, row in enumerate(rows, start=1):
        form, upos, head, deprel = row[:4]
        feats = dict(row[4]) if len(row) > 4 else {}
        tokens.append(Token(
            id=TokenId(i), form=form, lemma=form.lower(), upos=upos, xpos="_",
            feats=feats, head=TokenId(head), deprel=deprel, deps=[], misc="_"))
    return Sentence(comments=[f"# sent_id = {sent_id}"], tokens=tokens)


def random_sentence(rng: random.Random, sid: str, max_tokens: int = 15,
                    allow_empty_nodes: bool = True) -> Sentence:
    """Random single-root tree with UD-flavored labels and features."""
    n = rng.randint(2, max_tokens)
    nodes = list(range(1, n + 1))
    root = rng.choice(nodes)
    heads = {root: 0}
    attached = [root]
    rest = [i for i in nodes if i != root]
    rng.shuffle(rest)
    for i in rest:
        heads[i] = rng.choice(attached)
        attached.append(i)
    tokens = []
    for i in nodes:
        deprel = "root" if heads[i] == 0 else rng.choice(LABEL_POOL)
        feats = {}
        if rng.random() < 0.3:
            feats["Number"] = rng.choice(["Sing", "Plur"])
        if rng.random() < 0.15:
            feats["Mood"] = rng.choice(["Ind", "Imp"])
        if rng.random() < 0.15:
            feats["Voice"] = rng.choice(["Act", "Pass"])
        if rng.random() < 0.2:
            feats["VerbForm"] = rng.choice(["Fin", "Part", "Inf"])
        tokens.append(Token(
            id=TokenId(i), form=f"w{i}", lemma=f"l{i}",
            upos=rng.choice(UPOS_POOL), xpos="_", feats=feats,
            head=TokenId(heads[i]), deprel=deprel, deps=[], misc="_"))
    sent = Sentence(comments=[f"# sent_id = {sid}"], tokens=tokens)
    if allow_empty_nodes and rng.random() < 0.2:
        m = rng.randint(1, n)
        sent.tokens.insert(m, Token(
            id=TokenId(m, 1), form="E", lemma="E", upos="VERB", xpos="_",
            feats={}, head=None, deprel=None, deps=[], misc="_"))
    return sent


def working_instances(sent: Sentence):
    """sent's instances over basic and DEPS, as one application pass reads
    them."""
    return extract_instances(sent, conj_pairs(sent),
                             basic_edges(sent) | enhanced_edges(sent))


def seed_deps(sent: Sentence) -> None:
    for t in sent.tokens:
        if t.head is not None:
            t.deps = [(t.head, t.deprel)]


def perturb_enhanced(rng: random.Random, sent: Sentence) -> Sentence:
    """Copy with a seeded enhanced layer plus random edits."""
    out = sent.clone()
    seed_deps(out)
    ids = [t.id for t in out.tokens]
    for t in out.tokens:
        if t.deps and rng.random() < 0.1:
            t.deps = []
        elif t.deps and rng.random() < 0.1:
            head, _ = t.deps[0]
            t.deps = [(head, rng.choice(LABEL_POOL))]
    for _ in range(rng.randint(0, 4)):
        t = rng.choice(out.tokens)
        head = rng.choice(ids + [ROOT])
        if head == t.id:
            continue
        label = rng.choice(LABEL_POOL + ["ref", "root"])
        if (head, label) not in t.deps:
            t.deps.append((head, label))
            t.deps.sort()
    return out
