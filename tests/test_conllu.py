from __future__ import annotations

import gc
import pickle
import random
import re

import pytest
from hypothesis import given, strategies as st

from conjprop import conllu
from conjprop.conllu import (
    ROOT, ParseError, Sentence, Token, TokenId, iter_corpus, parse_corpus,
    parse_token_id, read_file, token_line, write_corpus, write_sentence,
)
from conftest import data_path, perturb_enhanced, random_sentence

FIG_FILES = ["fig1.conllu", "fig1_gold.conllu", "fig3a.conllu",
             "fig3b.conllu", "fig3c.conllu"]


def test_parse_fig1_shape(fig1):
    assert len(fig1.tokens) == 10
    assert fig1.sent_id == "fig1"
    wrote = fig1.tokens[4]
    assert wrote.form == "wrote"
    assert wrote.head == ROOT
    assert wrote.deprel == "root"
    assert fig1.tokens[6].form == "published"
    assert fig1.tokens[6].head == TokenId(5)
    assert fig1.tokens[6].deprel == "conj"
    assert wrote.feats == {"Mood": "Ind", "Tense": "Past", "VerbForm": "Fin"}


@pytest.mark.parametrize("name", FIG_FILES)
def test_round_trip_bytes(name):
    with open(data_path(name), encoding="utf-8") as fh:
        raw = fh.read()
    assert write_corpus(parse_corpus(raw)) == raw


def test_round_trip_fields(fig1_gold):
    text = write_corpus([fig1_gold])
    assert parse_corpus(text) == [fig1_gold]


MWT_DOC = """# sent_id = mwt
1	I	I	PRON	PRP	_	3	nsubj	3:nsubj	_
2-3	won't	_	_	_	_	_	_	_	_
2	wo	will	AUX	MD	_	3	aux	3:aux	_
3	n't	not	PART	RB	_	0	root	0:root	_
3.1	stay	stay	VERB	VB	_	_	_	3:conj	_
4	.	.	PUNCT	.	_	3	punct	3:punct	_

"""


def test_multiword_range_is_opaque_and_round_trips():
    sents = parse_corpus(MWT_DOC)
    sent = sents[0]
    ids = [str(t.id) for t in sent.tokens]
    assert ids == ["1", "2", "3", "3.1", "4"]
    assert [str(t.id) for t in sent.words()] == ["1", "2", "3", "4"]
    assert sent.ranges == {1: ["2-3\twon't\t_\t_\t_\t_\t_\t_\t_\t_"]}
    assert write_corpus(sents) == MWT_DOC


def test_empty_node_fields():
    sent = parse_corpus(MWT_DOC)[0]
    empty = sent.tokens[3]
    assert empty.id == TokenId(3, 1)
    assert empty.id.minor
    assert empty.head is None and empty.deprel is None
    assert empty.deps == [(TokenId(3), "conj")]


def test_deps_serialize_sorted_by_head():
    sent = parse_corpus(MWT_DOC)[0]
    tok = sent.tokens[0]
    tok.deps = [(TokenId(8, 1), "obj"), (TokenId(3), "nsubj"), (TokenId(8), "obl")]
    assert tok.deps_str() == "3:nsubj|8:obl|8.1:obj"


def test_feats_canonical_order():
    tok = Token(TokenId(1), "x", "x", "X", "_",
                {"VerbForm": "Fin", "Abbr": "Yes", "Mood": "Ind", "aspect": "Perf"},
                ROOT, "root", [], "_")
    assert tok.feats_str() == "Abbr=Yes|aspect=Perf|Mood=Ind|VerbForm=Fin"


def test_subtyped_deps_label_kept_verbatim():
    doc = ("1\tw\tw\tX\t_\t_\t0\troot\t0:root\t_\n"
           "2\tv\tv\tX\t_\t_\t1\tobl\t1:obl:in|1:ref\t_\n\n")
    sent = parse_corpus(doc)[0]
    assert sent.tokens[1].deps == [(TokenId(1), "obl:in"), (TokenId(1), "ref")]
    assert write_corpus([sent]) == doc


@pytest.mark.parametrize("bad,what", [
    ("1\tw\tw\tX\t_\t_\t0\troot\t_\n\n", "columns"),
    ("zork\tw\tw\tX\t_\t_\t0\troot\t_\t_\n\n", "token id"),
    ("1\tw\tw\tX\t_\t_\t4\tdep\t_\t_\n\n", "dangling head"),
    ("1\tw\tw\tX\t_\t_\t0\troot\t9:dep\t_\n\n", "dangling deps head"),
    ("1\tw\tw\tX\t_\t_\t_\t_\t_\t_\n\n", "lacks a HEAD"),
    ("1\tw\tw\tX\t_\tNumber\t0\troot\t_\t_\n\n", "malformed feature"),
    ("2\tw\tw\tX\t_\t_\t0\troot\t_\t_\n\n", "not contiguous"),
])
def test_parse_errors(bad, what):
    with pytest.raises(ParseError) as err:
        parse_corpus(bad)
    assert what in str(err.value)


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_corpus_restores_the_collector(enabled):
    good = "1\tw\tw\tX\t_\t_\t0\troot\t_\t_\n\n"
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    phases = []
    gc.callbacks.append(lambda phase, info: phases.append(phase))
    try:
        # enough objects to set off collections, were the collector running
        assert len(parse_corpus(good * 2000)) == 2000
        assert phases == []
        assert gc.isenabled() is enabled
        with pytest.raises(ParseError):
            parse_corpus(good.replace("\t0\t", "\t4\t"), "bad.conllu")
        assert gc.isenabled() is enabled
    finally:
        gc.callbacks.pop()
        (gc.enable if was else gc.disable)()


def test_a_sentence_without_word_lines_is_rejected():
    word = "1\tw\tw\tX\t_\t_\t0\troot\t_\t_\n\n"
    empty_node = "# sent_id = e\n1.1\tx\tx\tX\t_\t_\t_\t_\t_\t_\n\n"
    for doc, line in ((empty_node, 1), (word + empty_node, 3),
                      (word + "# comment only\n\n", 3)):
        with pytest.raises(ParseError) as err:
            parse_corpus(doc, "e.conllu")
        assert str(err.value) == f"e.conllu:{line}: sentence has no word lines"


def test_parse_error_carries_line_number():
    doc = ("1\tw\tw\tX\t_\t_\t0\troot\t_\t_\n"
           "2\tv\tv\tX\t_\t_\t1\tbad\tcolumn\n\n")
    with pytest.raises(ParseError) as err:
        parse_corpus(doc)
    assert err.value.line == 2


@pytest.mark.parametrize("err", [
    ParseError("bad", 3),
    ParseError("bad value", 7, "HEAD", "a/b.conllu"),
])
def test_parse_error_survives_pickling(err):
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is ParseError and str(copy) == str(err)
    assert (copy.message, copy.line, copy.field, copy.path) \
        == (err.message, err.line, err.field, err.path)


def test_parse_corpus_numbers_lines_from_first_line():
    doc = ("1\tw\tw\tX\t_\t_\t0\troot\t_\t_\n\n"
           "1\tw\tw\tX\t_\t_\t0\troot\t_\t_\n"
           "2\tv\tv\tX\t_\t_\t1\tdep\tbad\t_\n\n")
    with pytest.raises(ParseError) as err:
        parse_corpus(doc, "c.conllu", first_line=41)
    assert str(err.value) == "c.conllu:44, DEPS: malformed deps item 'bad'"


def _parsed(parse, text: str):
    try:
        return write_corpus(parse(text, "c.conllu", 41))
    except ParseError as err:
        return str(err)


@given(st.integers(0, 2**32 - 1), st.integers(1, 400), st.booleans())
def test_iter_corpus_parses_blocks_as_parse_corpus_parses_the_whole(
        seed, block, corrupt):
    """Same sentences, or the same first error, wherever the blocks are
    cut, with runs of blank lines between sentences."""
    rng = random.Random(seed)
    text = "".join(write_sentence(random_sentence(rng, f"s{k}"))
                   + "\n" * rng.randint(1, 3) for k in range(6))
    if corrupt:
        lines = text.split("\n")
        lines[rng.randrange(len(lines))] = "1\tbad"
        text = "\n".join(lines)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(conllu, "_BLOCK_CHARS", block)
        assert _parsed(iter_corpus, text) == _parsed(parse_corpus, text)


def test_read_file_reports_bad_bytes_as_a_parse_error(tmp_path):
    path = tmp_path / "bad.conllu"
    raw = open(data_path("fig1.conllu"), "rb").read().split(b"\n")
    raw[2] += b"\xff"
    path.write_bytes(b"\n".join(raw))
    with pytest.raises(ParseError) as err:
        read_file(path)
    assert str(err.value) == f"{path}:3: invalid UTF-8 byte 0xff"
    assert err.value.line == 3


def test_out_of_order_empty_node_rejected():
    doc = ("1\tw\tw\tX\t_\t_\t0\troot\t_\t_\n"
           "1.2\te\te\tX\t_\t_\t_\t_\t_\t_\n"
           "1.1\te\te\tX\t_\t_\t_\t_\t_\t_\n"
           "2\tv\tv\tX\t_\t_\t1\tdep\t_\t_\n\n")
    with pytest.raises(ParseError) as err:
        parse_corpus(doc)
    assert "out of order" in str(err.value)


def test_parse_failure_is_total():
    doc = ("1\tw\tw\tX\t_\t_\t0\troot\t_\t_\n\n"
           "1\tw\tw\tX\t_\t_\t9\tdep\t_\t_\n\n")
    with pytest.raises(ParseError):
        parse_corpus(doc)


def test_token_id_parse_and_str():
    assert parse_token_id("7") == TokenId(7)
    assert parse_token_id("8.1") == TokenId(8, 1)
    assert str(TokenId(8, 1)) == "8.1"
    assert str(TokenId(7)) == "7"
    assert TokenId(8) < TokenId(8, 1) < TokenId(9)


@given(st.dictionaries(
    st.sampled_from(["Number", "Mood", "Voice", "Person", "VerbForm",
                     "Abbr", "Tense", "Case", "Gender"]),
    st.sampled_from(["Sing", "Plur", "Ind", "Imp", "Act", "Pass", "3", "Fin"]),
    max_size=6))
def test_feats_round_trip(feats):
    from conjprop.conllu import _parse_feats
    tok = Token(TokenId(1), "x", "x", "X", "_", dict(feats), ROOT, "root", [], "_")
    assert _parse_feats(tok.feats_str(), 1) == feats


@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 3)), max_size=5))
def test_token_id_ordering_matches_tuple_order(pairs):
    ids = [TokenId(a, b) for a, b in pairs]
    assert sorted(ids) == [TokenId(a, b) for a, b in sorted(pairs)]


def _uncached_parse_token_id(text: str, line: int = 0,
                             fieldname: str = "ID") -> TokenId:
    """parse_token_id by a pattern for the canonical spellings str(tid),
    with ASCII digits only: the oracle."""
    m = re.fullmatch(r"(0|-?[1-9][0-9]*)(?:\.([1-9][0-9]*))?", text)
    if m is None:
        raise ParseError(f"unparseable token id {text!r}", line, fieldname)
    return TokenId(int(m[1]), int(m[2] or 0))


def _outcome(parse, text: str):
    try:
        return parse(text, 3, "HEAD")
    except ParseError as err:
        return str(err)


SPELLINGS = ["01", "+1", " 1", "1 ", "1_0", "1.0", "1.01", "8.1", "8.-1",
             "1.2.3", ".1", "1.", "x", "", "7", "-1", "\u0661"]


@pytest.mark.parametrize("text", SPELLINGS)
def test_interned_ids_parse_as_before(text):
    # twice: the second call may be answered from the cache
    for _ in range(2):
        assert _outcome(parse_token_id, text) == \
            _outcome(_uncached_parse_token_id, text)


def test_only_canonical_spellings_are_interned():
    for text in SPELLINGS + ["10", "10.2", "0"]:
        _outcome(parse_token_id, text)
    for text, tid in conllu._TOKEN_IDS.items():
        assert str(tid) == text
        assert conllu._ID_TEXT[tid] == text
    assert len(conllu._ID_TEXT) == len(conllu._TOKEN_IDS)
    for text in ("01", "+1", " 1", "1 ", "1_0", "1.01", "", "x", "1.0",
                 "\u0661"):
        assert text not in conllu._TOKEN_IDS
        with pytest.raises(ParseError, match="unparseable token id"):
            parse_token_id(text)
    assert parse_token_id("10.2") is parse_token_id("10.2")
    assert parse_token_id("1") is conllu._TOKEN_IDS["1"] == TokenId(1)


@given(st.integers(0, 2**32 - 1))
def test_write_parse_round_trip_is_byte_identical(seed):
    rng = random.Random(seed)
    sents = [perturb_enhanced(rng, random_sentence(rng, f"s{k}",
                                                   max_tokens=30))
             for k in range(3)]
    text = write_corpus(sents)
    assert write_corpus(parse_corpus(text)) == text


# Ids built by the writer test's sentences in code and never parsed, so the
# writer must spell them itself; no other test parses ids this large.
CODED = 10**6


def _reference_token_line(t: Token) -> str:
    """token_line by the formulas it had before id and FEATS text were
    reused: the oracle."""
    feats = sorted(t.feats.items(), key=lambda kv: kv[0].lower())
    deps = sorted(t.deps, key=lambda hl: (hl[0], hl[1]))
    return "\t".join((
        str(t.id), t.form, t.lemma, t.upos, t.xpos,
        "|".join(f"{k}={v}" for k, v in feats) or "_",
        "_" if t.head is None else str(t.head),
        t.deprel if t.deprel is not None else "_",
        "|".join(f"{h}:{label}" for h, label in deps) or "_", t.misc))


def _reference_sentence(sent: Sentence) -> str:
    lines = list(sent.comments)
    for i, tok in enumerate(sent.tokens):
        lines.extend(sent.ranges.get(i, ()))
        lines.append(_reference_token_line(tok))
    lines.extend(sent.ranges.get(len(sent.tokens), ()))
    return "\n".join(lines) + "\n"


FEATS_ITEMS = st.lists(
    st.tuples(st.sampled_from(["Abbr", "abbr", "ABBR", "Mood", "mood",
                               "Number", "VerbForm", "Case"]),
              st.sampled_from(["Yes", "Ind", "Sing", "Fin", "Nom"])),
    unique_by=lambda kv: kv[0], max_size=4)


@st.composite
def writer_sentences(draw):
    """Sentences with every shape the writer handles.  Each FEATS bundle is
    given to two tokens in opposite insertion orders; ids are parsed or
    built in code; DEPS heads include empty nodes and come unsorted."""
    ids = []
    for major in range(1, draw(st.integers(1, 6)) + 1):
        for minor in range(draw(st.integers(0, 2)) + 1):
            if draw(st.booleans()):
                ids.append(TokenId(CODED + major, minor))
            else:
                ids.append(parse_token_id(f"{major}.{minor}" if minor
                                          else str(major)))
    regular = [tid for tid in ids if not tid.minor]
    labels = st.sampled_from(["nsubj", "obj", "conj", "conj:and", "obl:in",
                              "ref", "root"])
    bundles = [draw(FEATS_ITEMS) for _ in range(len(ids) // 2 + 1)]
    tokens = []
    for k, tid in enumerate(ids):
        items = bundles[k // 2]
        head = None if tid.minor else draw(st.sampled_from(regular + [ROOT]))
        tokens.append(Token(
            tid, f"w{k}", f"l{k}", "X", "_",
            dict(items if k % 2 == 0 else items[::-1]), head,
            None if head is None else draw(labels),
            draw(st.lists(st.tuples(st.sampled_from(ids + [ROOT]), labels),
                          max_size=4)),
            "_"))
    positions = draw(st.sets(st.integers(0, len(tokens)), max_size=3))
    ranges = {i: [f"{i + 1}-{i + 2}\tmwt{i}\t_\t_\t_\t_\t_\t_\t_\t_"]
              for i in positions}
    return Sentence(["# sent_id = w"], tokens, ranges)


@given(st.lists(writer_sentences(), min_size=1, max_size=3))
def test_writer_matches_the_reference_formulas(sents):
    for sent in sents:
        for tok in sent.tokens:
            if tok.id.major > CODED:
                assert tok.id not in conllu._ID_TEXT
        assert write_sentence(sent) == _reference_sentence(sent)
    assert write_corpus(sents) == "".join(
        _reference_sentence(s) + "\n" for s in sents)


def test_text_memos_are_emptied_at_their_bound(monkeypatch):
    monkeypatch.setattr(conllu, "_FEATS_TEXT", {})
    monkeypatch.setattr(conllu, "_DEPS_TEXT", {})
    monkeypatch.setattr(conllu, "_TEXT_MAX", 2)
    for n in range(5):
        tok = Token(TokenId(1, 0), "w", "w", "X", "_",
                    {"Num": str(n), "abbr": "Yes"}, ROOT, "root",
                    [(TokenId(n + 2), "x"), (ROOT, "root")], "_")
        for _ in range(2):
            assert token_line(tok) == _reference_token_line(tok)
        assert tok.feats_str() == f"abbr=Yes|Num={n}"
        assert tok.deps_str() == f"0:root|{n + 2}:x"
        assert len(conllu._FEATS_TEXT) <= 2
        assert len(conllu._DEPS_TEXT) <= 2


def _reference_cells(text: str) -> list[tuple[dict, list]]:
    """(feats, deps) of each token line of text, every cell parsed on its
    own: the oracle for the reader's memos."""
    cells = []
    for line in text.split("\n"):
        cols = line.split("\t")
        if len(cols) != 10 or "-" in cols[0]:
            continue
        feats = {} if cols[5] == "_" else dict(
            item.split("=", 1) for item in cols[5].split("|"))
        deps = [] if cols[8] == "_" else [
            (TokenId(*map(int, head.split("."))), label)
            for head, label in (item.split(":", 1)
                                for item in cols[8].split("|"))]
        cells.append((feats, deps))
    return cells


@given(st.integers(0, 2**32 - 1))
def test_memoized_cells_parse_as_every_cell_parsed_anew(seed):
    rng = random.Random(seed)
    text = write_corpus(
        perturb_enhanced(rng, random_sentence(rng, f"s{k}", max_tokens=20))
        for k in range(6))
    expected = _reference_cells(text)
    # twice: the second parse is answered from the memos
    for _ in range(2):
        tokens = [t for s in parse_corpus(text) for t in s.tokens]
        assert len(tokens) == len(expected)
        for t, (feats, deps) in zip(tokens, expected):
            assert type(t.feats) is dict and type(t.deps) is list
            assert list(t.feats.items()) == list(feats.items())
            assert t.deps == deps
            assert all(type(h) is TokenId and type(label) is str
                       for h, label in t.deps)
        assert len({id(t.feats) for t in tokens}) == len(tokens)
        assert len({id(t.deps) for t in tokens}) == len(tokens)


SHARED_CELLS_DOC = (
    "# sent_id = s1\n"
    "1\ta\ta\tX\t_\tNumber=Sing\t2\tnsubj\t2:nsubj\t_\n"
    "2\tb\tb\tX\t_\tNumber=Sing\t0\troot\t0:root\t_\n"
    "3\tc\tc\tX\t_\tNumber=Sing\t2\tobj\t2:nsubj\t_\n\n")


def test_changing_one_token_changes_no_other_and_no_later_parse():
    from conjprop.graph import add_dep
    first = parse_corpus(SHARED_CELLS_DOC)[0].tokens
    first[0].feats["Number"] = "Plur"
    first[0].feats["Case"] = "Nom"
    assert add_dep(first[0], TokenId(3), "obj")
    for t in first[1:] + parse_corpus(SHARED_CELLS_DOC)[0].tokens:
        assert t.feats == {"Number": "Sing"}
    assert first[2].deps == [(TokenId(2), "nsubj")]
    again = parse_corpus(SHARED_CELLS_DOC)[0]
    assert again.tokens[0].deps == [(TokenId(2), "nsubj")]
    assert write_corpus([again]) == SHARED_CELLS_DOC


def test_a_memoized_deps_text_is_checked_in_each_sentence():
    doc = SHARED_CELLS_DOC + (
        "# sent_id = s2\n"
        "1\ta\ta\tX\t_\t_\t0\troot\t2:nsubj\t_\n\n")
    assert len(parse_corpus(SHARED_CELLS_DOC)) == 1
    with pytest.raises(ParseError, match="dangling deps head 2") as err:
        parse_corpus(doc)
    assert err.value.line == 7 and err.value.field == "DEPS"


@pytest.mark.parametrize("bad", ["Number", "=Sing", "Number=Sing|Number=Plur"])
def test_a_malformed_feats_text_raises_at_every_occurrence(bad):
    lines = SHARED_CELLS_DOC.split("\n")
    for k in (1, 2, 3):
        cols = lines[k].split("\t")
        cols[5] = bad
        doc = "\n".join(lines[:k] + ["\t".join(cols)] + lines[k + 1:])
        for _ in range(2):
            with pytest.raises(ParseError) as err:
                parse_corpus(doc)
            assert err.value.line == k + 1 and err.value.field == "FEATS"
    assert bad not in conllu._FEATS_PARSED


def test_parse_memos_are_emptied_at_their_bound(monkeypatch):
    monkeypatch.setattr(conllu, "_FEATS_PARSED", {})
    monkeypatch.setattr(conllu, "_DEPS_PARSED", {})
    monkeypatch.setattr(conllu, "_PARSED_MAX", 2)
    for n in range(5):
        doc = SHARED_CELLS_DOC.replace("Sing", f"S{n}").replace(
            "nsubj\t_", f"nsubj:x{n}\t_")
        for _ in range(2):
            tokens = parse_corpus(doc)[0].tokens
            assert [t.feats for t in tokens] == [{"Number": f"S{n}"}] * 3
            assert tokens[2].deps == [(TokenId(2), f"nsubj:x{n}")]
            assert write_corpus(parse_corpus(doc)) == doc
        assert len(conllu._FEATS_PARSED) <= 2
        assert len(conllu._DEPS_PARSED) <= 2


def test_sentence_errors_name_the_token_line_past_ranges():
    # a sentence and MWT_DOC's comment and range line come before some of
    # the token lines that get a dangling DEPS head in turn
    lines = ("# sent_id = s0\n1\ta\ta\tX\t_\t_\t0\troot\t0:root\t_\n\n"
             + MWT_DOC).split("\n")
    tokens = [i for i, line in enumerate(lines)
              if line and line[0] != "#" and "-" not in line.split("\t")[0]]
    assert len(tokens) == 6
    for at in tokens:
        cols = lines[at].split("\t")
        cols[8] = "9:dep"
        bad = lines[:at] + ["\t".join(cols)] + lines[at + 1:]
        with pytest.raises(ParseError, match="dangling deps head 9") as err:
            parse_corpus("\n".join(bad))
        assert err.value.line == at + 1


@pytest.mark.parametrize("text", ["-1", "3-2", "1-", "\u00b2-3",
                                  "\u0661-\u0662"])
def test_malformed_range_ids_are_rejected(text):
    word = "1\ta\ta\tX\t_\t_\t0\troot\t0:root|-1:dep\t_\n\n"
    # -1 parses, and is interned, as a DEPS head; as an ID it stays a range
    with pytest.raises(ParseError, match="dangling deps head -1"):
        parse_corpus(word)
    with pytest.raises(ParseError, match=f"malformed range id {text!r}"):
        parse_corpus(f"{text}\ta\t_\t_\t_\t_\t_\t_\t_\t_\n" + word)
