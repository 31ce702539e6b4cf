import numpy as np
import pytest

from conjprop.conllu import TokenId
from conjprop.embeddings import (
    EmbeddingError, EmbeddingProvider, hash_provider, read_sidecar,
    write_sidecar,
)


def test_single_layer_sidecar_round_trip(tmp_path, fig1):
    provider = hash_provider([fig1], dim=5, seed=1)
    path = tmp_path / "vectors.tsv"
    write_sidecar(path, provider)
    again = read_sidecar(path)
    assert again.dim == 5
    assert again.layers == 1
    for key, vec in provider.table.items():
        assert np.array_equal(again.table[key], vec)


def test_multi_layer_sidecar_round_trip(tmp_path, fig1):
    provider = hash_provider([fig1], dim=4, layers=3, seed=2)
    path = tmp_path / "vectors.tsv"
    write_sidecar(path, provider)
    text = path.read_text()
    assert text.startswith("layers=3 dim=4\n")
    again = read_sidecar(path)
    assert again.layers == 3 and again.dim == 4
    sid = fig1.sent_id
    stack = again.lookup_layers(sid, TokenId(1, 0))
    assert stack.shape == (3, 4)
    assert np.array_equal(stack, provider.lookup_layers(sid, TokenId(1, 0)))


def test_hash_provider_is_deterministic(fig1):
    a = hash_provider([fig1], dim=8, seed=3)
    b = hash_provider([fig1], dim=8, seed=3)
    other = hash_provider([fig1], dim=8, seed=4)
    key = (fig1.sent_id, TokenId(2, 0))
    assert np.array_equal(a.table[key], b.table[key])
    assert not np.array_equal(a.table[key], other.table[key])
    values = np.concatenate(list(a.table.values()))
    assert (values >= -1).all() and (values < 1).all()


def test_a_repeated_key_is_rejected(tmp_path, fig1):
    path = tmp_path / "repeated.tsv"
    path.write_text("s1\t1\t1.0\ns2\t1\t2.0\ns1\t1\t3.0\n")
    with pytest.raises(EmbeddingError, match=r":3: repeated record for "
                                             r"token 1 in sentence 's1'"):
        read_sidecar(path)
    twin, unnamed = fig1.clone(), fig1.clone()
    unnamed.comments = []
    with pytest.raises(EmbeddingError, match=r"sentences 1 and 2 share the "
                                             f"sent_id '{fig1.sent_id}'"):
        hash_provider([fig1, twin], dim=2)
    # a sentence without a sent_id is keyed by its position
    twin.comments = ["# sent_id = 0"]
    with pytest.raises(EmbeddingError, match="sentences 1 and 2 share the "
                                             "sent_id '0'"):
        hash_provider([unnamed, twin], dim=2)
    table = hash_provider([fig1, unnamed], dim=2).table
    assert len(table) == 2 * len(fig1.tokens)


def test_lookup_failure_names_sentence_and_token(fig1):
    provider = hash_provider([fig1], dim=3)
    with pytest.raises(EmbeddingError) as err:
        provider.lookup("unknown-sentence", TokenId(1, 0))
    assert "unknown-sentence" in str(err.value)
    with pytest.raises(EmbeddingError) as err:
        provider.lookup(fig1.sent_id, TokenId(99, 0))
    assert "99" in str(err.value)


def test_single_layer_lookup_gains_a_layer_axis(fig1):
    provider = hash_provider([fig1], dim=6)
    stack = provider.lookup_layers(fig1.sent_id, TokenId(1, 0))
    assert stack.shape == (1, 6)


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
