"""Seeded synthetic corpora for the conjprop benchmark.

The generator writes CoNLL-U text itself and imports nothing from
``conjprop``, so the inputs of a given (workload, seed) are byte-identical
on every commit of the program under test.

Every sentence is built from phrases whose coordinations are constructed on
purpose, so the gold enhanced layer is known without running any converter:

* clause coordination with a shared subject, a shared object that follows
  the last conjunct, and a shared fronted oblique;
* noun-phrase coordination as subject, object and oblique object, whose
  incoming edge is copied to every conjunct;
* passive clauses (``aux:pass``/``nsubj:pass``) and imperatives
  (``Mood=Imp``, no subject), the cases the ``+fix`` rules adjust.

Enhanced labels are lexicalized as in the English EWT treebank
(``obl:in``, ``conj:and``).  Annotator noise is drawn per annotator: it
drops propagated links, adds spurious ones, and swaps passive subject
labels.

The seed chooses the words; the sentence structures and the noise are fixed
per workload (see ``generate``).

Run ``python3 bench/gen.py --workload treebank --seed 1 --out DIR`` to
write one workload's inputs.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import random
from dataclasses import dataclass, field

NOUNS = ("book", "letter", "report", "city", "team", "plan", "house",
         "car", "game", "idea", "river", "market", "school", "price",
         "song", "garden", "window", "doctor", "student", "manager")
NAMES = ("Perez", "Maria", "John", "Chen", "Ahmed", "Olga", "Kim", "Sara")
PRONOUNS = ("she", "he", "they", "we", "it")
ADJS = ("old", "new", "big", "small", "red", "quiet", "early", "local")
DETS = ("the", "a", "this", "every", "some")
ADVS = ("quickly", "often", "never", "really", "also", "soon")
PREPS = ("in", "on", "at", "with", "from", "after", "for", "to")
CCS = ("and", "or", "but")
INTJS = ("thanks", "yes", "ok", "wow", "hello")
# (lemma, past, participle)
VERBS = (("write", "wrote", "written"), ("send", "sent", "sent"),
         ("keep", "kept", "kept"), ("see", "saw", "seen"),
         ("build", "built", "built"), ("sell", "sold", "sold"),
         ("find", "found", "found"), ("take", "took", "taken"),
         ("make", "made", "made"), ("give", "gave", "given"),
         ("read", "read", "read"), ("move", "moved", "moved"),
         ("open", "opened", "opened"), ("paint", "painted", "painted"))

FIN = {"Mood": "Ind", "Tense": "Past", "VerbForm": "Fin"}
IMP = {"Mood": "Imp", "VerbForm": "Fin"}
PART = {"Tense": "Past", "VerbForm": "Part", "Voice": "Pass"}


@dataclass(eq=False)
class Word:
    form: str
    lemma: str
    upos: str
    feats: dict = field(default_factory=dict)
    head: "Word | None" = None
    deprel: str = "root"
    # lexicalized enhanced label of the basic edge, when it differs
    enhanced_label: str | None = None
    # propagated edges, kept apart so annotator noise can drop them
    propagated: list = field(default_factory=list)
    # heads of the later conjuncts, on the first conjunct of a coordination
    conjuncts: list = field(default_factory=list)


def attach(dep: Word, head: Word, deprel: str,
           enhanced: str | None = None) -> None:
    dep.head = head
    dep.deprel = deprel
    dep.enhanced_label = enhanced


def share(dep: Word, head: Word, label: str) -> None:
    """Gold-only edge created by a coordination."""
    if all(h is not head or lab != label for h, lab in dep.propagated):
        dep.propagated.append((head, label))


class Builder:
    """Phrase builders over a seeded ``random.Random``."""

    def __init__(self, rng: random.Random, lex: random.Random,
                 coord_rate: float):
        self.rng = rng      # structure: lengths, constructions, features
        self.lex = lex      # word forms only
        self.coord_rate = coord_rate

    def chance(self, p: float) -> bool:
        return self.rng.random() < p

    def noun_phrase(self, allow_coord: bool = True) -> list[Word]:
        """Head is the first NOUN/PROPN/PRON word whose head is None."""
        rng = self.rng
        if allow_coord and self.chance(self.coord_rate * 0.6):
            return self._coordinated(self.noun_phrase)
        kind = rng.random()
        if kind < 0.2:
            form = self.lex.choice(PRONOUNS)
            return [Word(form, form, "PRON", {"PronType": "Prs"})]
        if kind < 0.35:
            name = self.lex.choice(NAMES)
            return [Word(name, name, "PROPN", {"Number": "Sing"})]
        noun = self.lex.choice(NOUNS)
        plural = self.chance(0.3)
        head = Word(noun + ("s" if plural else ""), noun, "NOUN",
                    {"Number": "Plur" if plural else "Sing"})
        words = []
        if self.chance(0.8):
            form = self.lex.choice(DETS)
            det = Word(form, form, "DET", {"PronType": "Art"})
            attach(det, head, "det")
            words.append(det)
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            adj = self.lex.choice(ADJS)
            amod = Word(adj, adj, "ADJ", {"Degree": "Pos"})
            attach(amod, head, "amod")
            words.append(amod)
        words.append(head)
        if self.chance(0.15):
            pp = self.prep_phrase()
            attach_phrase(pp[1:], head, "nmod", f"nmod:{pp[0].form}")
            words.extend(pp)
        return words

    def _coordinated(self, make) -> list[Word]:
        """Two to four conjuncts; later conjuncts attach conj to the first."""
        parts = [make(allow_coord=False)
                 for _ in range(self.rng.choice((2, 2, 2, 3, 4)))]
        first = phrase_head(parts[0])
        first.conjuncts = [phrase_head(p) for p in parts[1:]]
        cc_form = self.lex.choice(CCS)
        words = list(parts[0])
        for i, (part, head) in enumerate(zip(parts[1:], first.conjuncts),
                                         start=1):
            if i == len(parts) - 1:
                cc = Word(cc_form, cc_form, "CCONJ")
                attach(cc, head, "cc")
                words.append(cc)
            else:
                comma = Word(",", ",", "PUNCT")
                attach(comma, head, "punct")
                words.append(comma)
            attach(head, first, "conj", f"conj:{cc_form}")
            words.extend(part)
        return words

    def verb(self, kind: str) -> Word:
        lemma, past, part = self.lex.choice(VERBS)
        if kind == "passive":
            return Word(part, lemma, "VERB", dict(PART))
        if kind == "imperative":
            return Word(lemma, lemma, "VERB", dict(IMP))
        return Word(past, lemma, "VERB", dict(FIN))

    def clause(self, kind: str | None = None) -> tuple[list[Word], Word]:
        """A clause, maybe with coordinated predicates: (words, head)."""
        rng = self.rng
        if kind is None:
            r = rng.random()
            kind = "passive" if r < 0.15 else "imperative" if r < 0.25 \
                else "active"
        words: list[Word] = []
        fronted: list[Word] = []
        if self.chance(0.25):
            fronted = self.prep_phrase()
            comma = Word(",", ",", "PUNCT")
            fronted.append(comma)
        subject: list[Word] = []
        if kind != "imperative":
            subject = self.noun_phrase()
        aux = None
        if kind == "passive":
            aux = Word("was", "be", "AUX", {"Mood": "Ind", "Tense": "Past",
                                            "VerbForm": "Fin"})
        n_preds = 1
        if self.chance(self.coord_rate):
            n_preds = rng.choice((2, 2, 2, 3, 3, 4))
        preds = []
        for i in range(n_preds):
            verb = self.verb(kind)
            own_obj: list[Word] = []
            if kind != "passive" and i < n_preds - 1 and self.chance(0.4):
                own_obj = self.noun_phrase()
            trailing: list[Word] = []
            if self.chance(0.2):
                adv = self.lex.choice(ADVS)
                trailing.append(Word(adv, adv, "ADV"))
            own_aux = None
            if kind == "passive" and i > 0 and self.chance(0.3):
                own_aux = Word("was", "be", "AUX", dict(aux.feats))
            preds.append((verb, own_obj, trailing, own_aux))
        first = preds[0][0]
        shared_obj: list[Word] = []
        if kind != "passive" and self.chance(0.7):
            shared_obj = self.noun_phrase()
        trailing_pp: list[Word] = []
        if self.chance(0.5):
            trailing_pp = self.prep_phrase()
        if kind == "passive" and self.chance(0.4):
            trailing_pp = self.prep_phrase(prep="by")

        # surface order: fronted , subject aux V1 obj1 , V2 obj2 cc Vn obj pp .
        words.extend(fronted)
        words.extend(subject)
        if aux is not None:
            attach(aux, first, "aux:pass")
            words.append(aux)
        cc_form = self.lex.choice(CCS)
        for i, (verb, own_obj, trailing, own_aux) in enumerate(preds):
            if i > 0:
                if i == len(preds) - 1:
                    cc = Word(cc_form, cc_form, "CCONJ")
                    attach(cc, verb, "cc")
                    words.append(cc)
                else:
                    comma = Word(",", ",", "PUNCT")
                    attach(comma, verb, "punct")
                    words.append(comma)
                if own_aux is not None:
                    attach(own_aux, verb, "aux:pass")
                    words.append(own_aux)
                attach(verb, first, "conj", f"conj:{cc_form}")
            words.append(verb)
            if own_obj:
                attach_phrase(own_obj, verb, "obj")
                words.extend(own_obj)
            for adv in trailing:
                attach(adv, verb, "advmod")
                words.append(adv)
        last = preds[-1][0]
        obj_head = subj_head = front_head = None
        if shared_obj:
            obj_head = attach_phrase(shared_obj, first, "obj")
            words.extend(shared_obj)
        if trailing_pp:
            attach_phrase(trailing_pp[1:], last, "obl",
                          f"obl:{trailing_pp[0].form}")
            words.extend(trailing_pp)
        if fronted:
            front_head = attach_phrase(fronted[1:-1], first, "obl",
                                       f"obl:{fronted[0].form}")
            attach(fronted[-1], first, "punct")
        if subject:
            label = "nsubj:pass" if kind == "passive" else "nsubj"
            subj_head = attach_phrase(subject, first, label)

        # gold propagation across the predicate coordination
        for verb, own_obj, _trailing, _own_aux in preds[1:]:
            if subj_head is not None:
                for s in [subj_head] + subj_head.conjuncts:
                    share(s, verb, "nsubj:pass" if kind == "passive"
                          else "nsubj")
            if obj_head is not None and not own_obj:
                for o in [obj_head] + obj_head.conjuncts:
                    share(o, verb, "obj")
            if front_head is not None:
                for f in [front_head] + front_head.conjuncts:
                    share(f, verb, f"obl:{fronted[0].form}")
        return words, first

    def prep_phrase(self, prep: str | None = None) -> list[Word]:
        """[case] + NP, the NP head left unattached for the caller."""
        prep = prep or self.lex.choice(PREPS)
        np_words = self.noun_phrase()
        case = Word(prep, prep, "ADP")
        attach(case, phrase_head(np_words), "case")
        return [case] + np_words


def phrase_head(words: list[Word]) -> Word:
    for w in words:
        if w.head is None:
            return w
    raise ValueError("phrase without a head")


def attach_phrase(words: list[Word], governor: Word, deprel: str,
                  enhanced: str | None = None) -> Word:
    """Attach a phrase's head; coordinated conjuncts inherit the edge."""
    head = phrase_head(words)
    attach(head, governor, deprel, enhanced)
    for conjunct in head.conjuncts:
        share(conjunct, governor, enhanced or deprel)
    return head


@dataclass
class Shape:
    """How one workload's sentences look.

    Lengths are drawn log-normally around median_tokens (the skewed mix of
    web treebanks such as EWT, mean about 16 tokens) and clipped to
    [min_tokens, max_tokens]; a sentence over max_tokens is drawn again.
    """
    coord_rate: float
    median_tokens: int
    min_tokens: int
    max_tokens: int
    fragment_rate: float

    def target_length(self, rng: random.Random) -> int:
        drawn = round(rng.lognormvariate(math.log(self.median_tokens), 0.6))
        return min(max(drawn, self.min_tokens), self.max_tokens)


TREEBANK = Shape(coord_rate=0.1, median_tokens=11, min_tokens=1,
                 max_tokens=60, fragment_rate=0.12)
NEURAL = Shape(coord_rate=0.5, median_tokens=7, min_tokens=4, max_tokens=10,
               fragment_rate=0.0)


def build_sentence(rng: random.Random, lex: random.Random,
                   shape: Shape) -> list[Word]:
    while True:
        words = _draw_sentence(rng, lex, shape)
        if len(words) < shape.max_tokens:
            break
    punct = Word(".", ".", "PUNCT")
    words.append(punct)
    root = phrase_head(words[:-1])
    attach(punct, root, "punct")
    root.head = None
    root.deprel = "root"
    return words


def _draw_sentence(rng: random.Random, lex: random.Random,
                   shape: Shape) -> list[Word]:
    b = Builder(rng, lex, shape.coord_rate)
    if rng.random() < shape.fragment_rate:
        form = lex.choice(INTJS)
        if rng.random() < 0.5:
            return b.noun_phrase(allow_coord=False)
        return [Word(form, form, "INTJ")]
    words, root = b.clause()
    # clauses joined by parataxis until the drawn length is reached
    target = shape.target_length(rng)
    while len(words) < target:
        more, head = b.clause()
        semi = Word(";", ";", "PUNCT")
        attach(semi, head, "punct")
        attach(head, root, "parataxis")
        words.extend([semi] + more)
    return words


def noisy_propagated(rng: random.Random, words: list[Word],
                     rate: float) -> dict[int, list]:
    """Per word index, the propagated edges after annotator noise."""
    index = {id(w): i for i, w in enumerate(words)}
    out: dict[int, list] = {}
    for i, w in enumerate(words):
        kept = []
        for head, label in w.propagated:
            if rng.random() < rate:
                continue  # missed link
            if label == "nsubj:pass" and rng.random() < rate:
                label = "nsubj"
            kept.append((head, label))
        out[i] = kept
    if rate > 0:
        # spurious links: copy a conjunct's trailing dependents backwards
        for w in words:
            if w.deprel == "conj" and rng.random() < rate:
                gov = w.head
                for d in words:
                    if d.head is w and d.deprel in ("advmod", "obj") \
                            and rng.random() < 0.5:
                        out[index[id(d)]].append((gov, d.deprel))
    return out


def sentence_lines(words: list[Word], sent_id: str,
                   propagated: dict[int, list] | None, enhanced: bool,
                   ) -> list[str]:
    ids = {id(w): i + 1 for i, w in enumerate(words)}
    lines = [f"# sent_id = {sent_id}",
             "# text = " + " ".join(w.form for w in words)]
    for i, w in enumerate(words):
        head = 0 if w.head is None else ids[id(w.head)]
        feats = "|".join(f"{k}={v}" for k, v in
                         sorted(w.feats.items(), key=lambda kv: kv[0].lower())
                         ) or "_"
        deps = "_"
        if enhanced:
            items = {(head, w.enhanced_label or w.deprel)}
            for h, label in (propagated or {}).get(i, ()):
                hid = ids[id(h)]
                if hid != i + 1:
                    items.add((hid, label))
            deps = "|".join(f"{h}:{lab}" for h, lab in sorted(items))
        lines.append("\t".join((str(i + 1), w.form, w.lemma, w.upos, "_",
                                feats, str(head), w.deprel, deps, "_")))
    return lines


@dataclass
class Corpus:
    """One generated corpus: the basic-only input and its gold layer."""
    sentences: list[list[Word]]
    ids: list[str]

    def text(self, rng: random.Random | None = None, rate: float = 0.0,
             enhanced: bool = True) -> str:
        chunks = []
        for words, sid in zip(self.sentences, self.ids):
            prop = None
            if enhanced:
                prop = noisy_propagated(rng, words, rate) if rng else \
                    {i: list(w.propagated) for i, w in enumerate(words)}
            chunks.append("\n".join(sentence_lines(words, sid, prop,
                                                   enhanced)) + "\n\n")
        return "".join(chunks)


def make_corpus(rng: random.Random, lex: random.Random, shape: Shape,
                n: int, prefix: str) -> Corpus:
    sentences = [build_sentence(rng, lex, shape) for _ in range(n)]
    return Corpus(sentences, [f"{prefix}-{i:05d}" for i in range(n)])


def sidecar_text(rng: random.Random, corpora: list[Corpus],
                 dim: int) -> str:
    """Single-layer embedding sidecar covering every token of the corpora."""
    lines = []
    for corpus in corpora:
        for words, sid in zip(corpus.sentences, corpus.ids):
            for i in range(len(words)):
                values = " ".join(f"{rng.uniform(-1.0, 1.0):.6f}"
                                  for _ in range(dim))
                lines.append(f"{sid}\t{i + 1}\t{values}\n")
    return "".join(lines)


@dataclass(frozen=True)
class Sizes:
    """Sentence counts of one workload's inputs."""
    main: int            # convert / evaluate / stats corpus
    agree: int           # each of the three annotator files
    kernel_train: int    # train-prop --kind kernel
    kernel_apply: int    # apply-prop with the kernel model
    mlp_train: int       # train-prop --kind mlp
    mlp_apply: int       # apply-prop with the mlp model
    parser_train: int    # train-parser
    parser_dev: int      # train-parser --dev
    shape: Shape
    gold_noise: float    # annotator noise in the gold files


WORKLOADS = {
    "treebank": Sizes(main=1000, agree=250, kernel_train=20, kernel_apply=40,
                      mlp_train=8, mlp_apply=20, parser_train=2,
                      parser_dev=1, shape=TREEBANK, gold_noise=0.03),
    "neural": Sizes(main=60, agree=20, kernel_train=12, kernel_apply=20,
                    mlp_train=16, mlp_apply=120, parser_train=3,
                    parser_dev=2, shape=NEURAL, gold_noise=0.03),
}

SIDECAR_DIM = 16


def generate(workload: str, seed: int, out_dir: str,
             scale: float = 1.0) -> dict[str, str]:
    """Writes every input file of a workload; returns name -> path.

    scale < 1 shrinks every count (to no fewer than sixteen sentences), for
    the smoke mode of the benchmark.
    """
    sizes = WORKLOADS[workload]
    # The seed picks the words, the sidecar values and hence the hash
    # embeddings.  Structure (lengths, constructions, features, noise) comes
    # from a stream fixed per workload, so every seed costs the same work and
    # run-to-run spread measures the machine, not the draw.
    rng = random.Random(f"conjprop-bench/{workload}/structure")
    lex = random.Random(f"conjprop-bench/{workload}/{seed}")

    def count(n: int) -> int:
        return max(min(n, 16), int(round(n * scale)))

    os.makedirs(out_dir, exist_ok=True)
    main = make_corpus(rng, lex, sizes.shape, count(sizes.main), "main")
    agree = Corpus(main.sentences[:count(sizes.agree)],
                   main.ids[:count(sizes.agree)])
    learn = {name: make_corpus(rng, lex, shape, count(n), name)
             for name, shape, n in (
                 ("kt", NEURAL, sizes.kernel_train),
                 ("ka", NEURAL, sizes.kernel_apply),
                 ("mt", NEURAL, sizes.mlp_train),
                 ("ma", NEURAL, sizes.mlp_apply),
                 ("pt", NEURAL, sizes.parser_train),
                 ("pd", NEURAL, sizes.parser_dev))}
    texts = {
        "empty.conllu": "",
        "basic.conllu": main.text(enhanced=False),
        "gold.conllu": main.text(random.Random(rng.random()),
                                 sizes.gold_noise),
        "kernel_train.conllu": learn["kt"].text(
            random.Random(rng.random()), sizes.gold_noise),
        "kernel_apply.conllu": learn["ka"].text(enhanced=False),
        "mlp_train.conllu": learn["mt"].text(
            random.Random(rng.random()), sizes.gold_noise),
        "mlp_apply.conllu": learn["ma"].text(enhanced=False),
        "parser_train.conllu": learn["pt"].text(),
        "parser_dev.conllu": learn["pd"].text(),
    }
    for k in range(1, 4):
        texts[f"annotator{k}.conllu"] = agree.text(
            random.Random(rng.random()), 0.08)
    texts["mlp.vec"] = sidecar_text(random.Random(lex.random()),
                                    [learn["mt"], learn["ma"]], SIDECAR_DIM)
    paths = {}
    for name, text in texts.items():
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[name] = path
    return paths


def digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for name, path in sorted(generate(args.workload, args.seed,
                                      args.out).items()):
        print(f"{digest(path)}  {name}")


if __name__ == "__main__":
    main()
