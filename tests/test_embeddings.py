import re

import numpy as np
import pytest

from conjprop.conllu import Token, TokenId
from conjprop.edgepred import _token_stacks, new_parser
from conjprop.embeddings import (
    EmbeddingError, EmbeddingProvider, check_sentence_keys, hash_provider,
    read_sidecar, write_sidecar,
)


def test_single_layer_sidecar_round_trip(tmp_path, fig1):
    provider = hash_provider(dim=5, seed=1)
    path = tmp_path / "vectors.tsv"
    write_sidecar(path, provider, [fig1])
    again = read_sidecar(path)
    assert again.dim == 5
    assert again.layers == 1
    assert len(again.table) == len(fig1.tokens)
    for tok in fig1.tokens:
        assert np.array_equal(again.lookup(fig1.sent_id, tok.id),
                              provider.lookup(fig1.sent_id, tok.id, tok))


def test_multi_layer_sidecar_round_trip(tmp_path, fig1):
    provider = hash_provider(dim=4, layers=3, seed=2)
    path = tmp_path / "vectors.tsv"
    write_sidecar(path, provider, [fig1])
    text = path.read_text()
    assert text.startswith("layers=3 dim=4\n")
    again = read_sidecar(path)
    assert again.layers == 3 and again.dim == 4
    sid = fig1.sent_id
    stack = again.lookup(sid, TokenId(1, 0))
    assert stack.shape == (3, 4)
    assert np.array_equal(stack, provider.lookup(sid, TokenId(1, 0),
                                                 fig1.tokens[0]))


def test_hash_provider_is_deterministic(fig1):
    a = hash_provider(dim=8, seed=3)
    b = hash_provider(dim=8, seed=3)
    other = hash_provider(dim=8, seed=4)
    key = (fig1.sent_id, TokenId(2, 0), fig1.tokens[1])
    assert np.array_equal(a.lookup(*key), b.lookup(*key))
    assert not np.array_equal(a.lookup(*key), other.lookup(*key))
    values = np.concatenate([a.lookup(fig1.sent_id, t.id, t)
                             for t in fig1.tokens])
    # five parts uniform in [-1, 1), summed over sqrt(5)
    assert (np.abs(values) < np.sqrt(5)).all()


def _token(tid, head, deprel, form="purr", upos="VERB") -> Token:
    return Token(tid, form, form, upos, "_", {}, head, deprel, [], "_")


# (seed, token), the layer count, and the vector hash_provider gives the
# token under any sentence key, bit for bit: a change to the fields, their
# spelling or the float formula shows here.  An empty node's HEAD and
# DEPREL are spelled "_", as CoNLL-U writes them.
PINNED = [
    ((7, _token(TokenId(2, 0), TokenId(1, 0), "conj")), 1,
     [-0.49978196394736984, -0.11084288151219006, -0.10553168739217521]),
    ((7, _token(TokenId(2, 0), TokenId(1, 0), "conj")), 2,
     [[-0.49978196394736984, -0.11084288151219006, -0.10553168739217521],
      [0.39605382141725926, 0.20203542922998566, 0.7750009534610718]]),
    ((0, _token(TokenId(1, 1), None, None)), 1,
     [0.14338325067883387, -0.6704366224612424, -0.46300004739986217,
      0.3414840300517864]),
]


@pytest.mark.parametrize("key, layers, expected", PINNED,
                         ids=["layers1", "layers2", "empty-node"])
def test_hash_vectors_are_pinned(key, layers, expected):
    from conjprop.embeddings import _hash_floats
    seed, tok = key
    dim = len(expected[0]) if layers > 1 else len(expected)
    provider = hash_provider(dim=dim, layers=layers, seed=seed)
    vec = provider.lookup("pin", tok.id, tok)
    assert vec.dtype == np.float64
    assert vec.tolist() == expected
    # the formula: one part per field, summed in this order, over sqrt(5)
    head = "_" if tok.head is None else str(tok.head)
    parts = [_hash_floats(f"{seed}\x00{field}\x00{value}", layers * dim)
             for field, value in (("FORM", tok.form), ("UPOS", tok.upos),
                                  ("ID", str(tok.id)), ("HEAD", head),
                                  ("DEPREL", tok.deprel or "_"))]
    assert (sum(parts) / np.sqrt(5)).reshape(vec.shape).tolist() == expected


def test_one_hash_provider_tells_forms_apart_under_one_key():
    provider = hash_provider(dim=4, seed=1)
    cats = provider.lookup("s1", TokenId(1, 0), _token(TokenId(1, 0), TokenId(
        0, 0), "root", form="cats"))
    dogs = provider.lookup("s1", TokenId(1, 0), _token(TokenId(1, 0), TokenId(
        0, 0), "root", form="dogs"))
    assert not np.array_equal(cats, dogs)
    fresh = hash_provider(dim=4, seed=1)
    assert np.array_equal(fresh.lookup("s1", TokenId(1, 0), _token(TokenId(
        1, 0), TokenId(0, 0), "root", form="dogs")), dogs)


def test_a_hash_vector_is_a_function_of_its_token(fig1):
    provider = hash_provider(dim=4, layers=2, seed=3)
    parser = new_parser(["∅", "root"], layers=2, dim=4, hidden=2)
    twin, repeated, unnamed = fig1.clone(), fig1.clone(), fig1.clone()
    twin.comments = ["# sent_id = other"]
    unnamed.comments = []
    base = _token_stacks(parser, fig1, provider, 0)
    # a distinct sent_id, the same sent_id again, no sent_id, and other
    # corpus positions all give the same vectors
    for sent, index in ((twin, 0), (repeated, 0), (unnamed, 0),
                        (unnamed, 7), (fig1, 3)):
        assert np.array_equal(_token_stacks(parser, sent, provider, index),
                              base)
    # each of the five fields changes the vector; the other columns do not
    tok = fig1.tokens[1]
    vec = provider.lookup("any", tok.id, tok)
    for change in ({"form": "x"}, {"upos": "X"}, {"id": TokenId(9, 0)},
                   {"head": TokenId(9, 0)}, {"deprel": "x"}):
        other = fig1.clone().tokens[1]
        for name, value in change.items():
            setattr(other, name, value)
        assert not np.array_equal(provider.lookup("any", tok.id, other), vec)
    other = fig1.clone().tokens[1]
    other.lemma, other.xpos, other.feats = "x", "X", {"X": "y"}
    other.deps, other.misc = [(TokenId(9, 0), "x")], "X=y"
    assert np.array_equal(provider.lookup("any", tok.id, other), vec)


def test_the_hash_cache_is_bounded_by_the_vocabulary(fig1):
    one, many = hash_provider(dim=4), hash_provider(dim=4)
    parser = new_parser(["∅", "root"], layers=1, dim=4, hidden=2)
    _token_stacks(parser, fig1, one, 0)
    for index in range(1000):
        sent = fig1.clone()
        sent.comments = [f"# sent_id = s{index}"]
        _token_stacks(parser, sent, many, index)
    assert 0 < many._part.cache_info().currsize \
        == one._part.cache_info().currsize <= 5 * len(fig1.words())


def test_a_hash_lookup_needs_the_form(fig1):
    # the form comes with the token, whose other fields the vector reads too
    for layers in (1, 2):
        with pytest.raises(TypeError, match="argument: 'token'"):
            hash_provider(dim=3, layers=layers).lookup(fig1.sent_id,
                                                       TokenId(1, 0))


def test_a_repeated_key_is_rejected(tmp_path, fig1):
    path = tmp_path / "repeated.tsv"
    path.write_text("s1\t1\t1.0\ns2\t1\t2.0\ns1\t1\t3.0\n")
    with pytest.raises(EmbeddingError, match=r":3: repeated record for "
                                             r"token 1 in sentence 's1'"):
        read_sidecar(path)
    twin, unnamed = fig1.clone(), fig1.clone()
    unnamed.comments = []
    with pytest.raises(EmbeddingError, match=r"c.conllu: sentences 1 and 2 "
                                             f"share the sent_id "
                                             f"'{fig1.sent_id}'"):
        list(check_sentence_keys([fig1, twin], "c.conllu"))
    # a sentence without a sent_id is keyed by its position
    twin.comments = ["# sent_id = 0"]
    with pytest.raises(EmbeddingError, match="sentences 1 and 2 share the "
                                             "sent_id '0'"):
        list(check_sentence_keys([unnamed, twin], "c.conllu"))
    assert list(check_sentence_keys([fig1, unnamed], "c.conllu")) == [
        fig1, unnamed]


def test_the_key_check_is_a_lazy_filter(fig1):
    twin = fig1.clone()
    checked = check_sentence_keys(iter([fig1, twin]), "c.conllu")
    # sentence 1 comes out before sentence 2's repeated key raises
    assert next(checked) is fig1
    with pytest.raises(EmbeddingError, match="c.conllu: sentences 1 and 2 "):
        next(checked)


def test_lookup_failure_names_sentence_and_token(fig1):
    provider = EmbeddingProvider({(fig1.sent_id, TokenId(1, 0)): np.zeros(3)},
                                 dim=3)
    with pytest.raises(EmbeddingError) as err:
        provider.lookup("unknown-sentence", TokenId(1, 0))
    assert "unknown-sentence" in str(err.value)
    with pytest.raises(EmbeddingError) as err:
        provider.lookup(fig1.sent_id, TokenId(99, 0))
    assert "99" in str(err.value)


def test_single_layer_lookup_gains_a_layer_axis(fig1):
    # a one-layer vector has shape (dim,); the parser reads it as (1, dim)
    provider = hash_provider(dim=6)
    assert provider.lookup(fig1.sent_id, TokenId(1, 0),
                           fig1.tokens[0]).shape == (6,)
    parser = new_parser(["∅", "root"], layers=1, dim=6, hidden=2)
    assert _token_stacks(parser, fig1, provider).shape == (
        len(fig1.words()), 1, 6)


@pytest.mark.parametrize("layers, dim", [(1, None), (1, 4), (2, 4)])
def test_a_fitting_provider_passes_the_check(layers, dim):
    hash_provider(dim=4, layers=layers).check(layers, dim)


@pytest.mark.parametrize("layers, dim, reads", [
    (1, None, "1 layer(s)"), (2, 4, "2 layer(s) of dimension 4"),
    (3, 3, "3 layer(s) of dimension 3"), (1, 4, "1 layer(s) of dimension 4"),
], ids=["layers", "dim", "layers-at-dim", "both"])
@pytest.mark.parametrize("from_file", [False, True], ids=["hash", "sidecar"])
def test_check_names_the_sidecar_and_both_shapes(tmp_path, fig1, layers,
                                                 dim, reads, from_file):
    provider = hash_provider(dim=3, layers=2)
    where = ""
    if from_file:
        write_sidecar(tmp_path / "v.vec", provider, [fig1])
        provider = read_sidecar(tmp_path / "v.vec")
        where = f"{tmp_path / 'v.vec'}: "
    with pytest.raises(EmbeddingError) as err:
        provider.check(layers, dim)
    assert str(err.value) == (f"{where}the vectors have 2 layer(s) of "
                              f"dimension 3; the model reads {reads}")


def test_a_record_without_values_is_refused(tmp_path):
    # it would set the dimension of a headerless sidecar to 0
    path = tmp_path / "empty-vectors.tsv"
    path.write_text("s1\t1\t\ns1\t2\t\n")
    with pytest.raises(EmbeddingError, match=re.escape(
            f"{path}:1: expected at least one value, got 0")):
        read_sidecar(path)


def test_malformed_sidecar_lines_are_reported(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("s1\t1\n")
    with pytest.raises(EmbeddingError, match="3 tab-separated"):
        read_sidecar(path)
    path.write_text("s1\tnot-an-id\t1.0 2.0\n")
    with pytest.raises(EmbeddingError, match="token id"):
        read_sidecar(path)
    path.write_text("s1\t1\t1.0 2.0\ns1\t2\t1.0\n")
    with pytest.raises(EmbeddingError, match="expected 2 values"):
        read_sidecar(path)
    path.write_text("")
    with pytest.raises(EmbeddingError, match="empty"):
        read_sidecar(path)


def test_empty_node_ids_supported(tmp_path):
    path = tmp_path / "v.tsv"
    path.write_text("s1\t8.1\t0.5 0.25\n")
    provider = read_sidecar(path)
    assert provider.lookup("s1", TokenId(8, 1)).tolist() == [0.5, 0.25]


@pytest.mark.parametrize("count", [1, 3, 4, 5, 7, 8, 9, 128])
def test_hash_floats_match_the_scalar_formula(count):
    import hashlib
    import struct

    from conjprop.embeddings import _hash_floats
    for key in ("0\x00s1\x001\x00Ann", "7\x00dev-3\x002.1\x00é"):
        blob = b"".join(hashlib.sha256(f"{key}\x00{block}".encode()).digest()
                        for block in range((count + 3) // 4))
        words = struct.unpack_from(f"<{count}Q", blob)
        expected = np.array([(w / 2**64) * 2.0 - 1.0 for w in words])
        got = _hash_floats(key, count)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
