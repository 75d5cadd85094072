import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmlab.corpus import (
    BOS,
    EOS,
    PAD,
    RESERVED_TOKENS,
    UNK,
    ParallelCorpus,
    build_vocab,
    corpus_from_pairs,
    corpus_stats,
    encode_corpus,
    load_tsv,
    merge_corpora,
    save_tsv,
    split_equal,
    synth_task,
    tokenize,
)
from tmlab.errors import DataError
from tmlab.retrieval import similarity


def test_tokenize_basic():
    assert tokenize("The cat sat") == ["the", "cat", "sat"]
    assert tokenize("") == []
    assert tokenize("a  b") == ["a", "b"]
    assert tokenize("  \t\n ") == []


@given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=6), max_size=8))
def test_tokenize_idempotent_on_joined_lowercase(tokens):
    text = " ".join(tokens)
    once = tokenize(text)
    assert tokenize(" ".join(once)) == once


def test_build_vocab_sizes():
    v = build_vocab([(["a"], ["a"])])
    assert len(v) == 5
    pairs = [([f"w{i}"], [f"w{i + 50}"]) for i in range(50)]
    v = build_vocab(pairs)
    assert len(v) == 104


def test_build_vocab_reserved_and_order():
    v = build_vocab([(["b", "b", "a"], ["c"])])
    assert v.tokens[:4] == RESERVED_TOKENS
    # count desc then lexicographic: b(2), then a and c tied at 1
    assert v.tokens[4:] == ("b", "a", "c")
    assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)


def test_vocab_encode_decode_and_specials():
    v = build_vocab([(["a", "b"], ["c"])], extra=("<sep>",))
    assert v.encode(["a", "zzz"]) == (v.tokens.index("a"), UNK)
    # special literals typed by a user never encode to their reserved ids
    assert v.encode(["<pad>", "<sep>"]) == (UNK, UNK)
    assert v.decode(v.encode(["a", "b", "c"])) == ["a", "b", "c"]
    assert v.sep_id == len(v) - 1


def test_vocab_roundtrip(tmp_path):
    v = build_vocab([(["a", "b"], ["c"])], extra=("<sep>",))
    p = tmp_path / "vocab.txt"
    v.save(p)
    v2 = type(v).load(p)
    assert v2.tokens == v.tokens
    assert v2.content_hash() == v.content_hash()


def test_build_vocab_empty_corpus():
    with pytest.raises(DataError):
        build_vocab([])


def test_load_tsv_single_pair(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("hallo\thello\n", encoding="utf-8")
    c = load_tsv(p)
    assert len(c) == 1
    assert c[0].source == ("hallo",) and c[0].target == ("hello",)


def test_load_tsv_errors(tmp_path):
    p = tmp_path / "c.tsv"
    p.write_text("x\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 1"):
        load_tsv(p)
    p.write_text("ok\tfine\n\tmissing\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 2"):
        load_tsv(p)
    p.write_bytes(b"\xff\xfe broken \tx\n")
    with pytest.raises(DataError, match="UTF-8"):
        load_tsv(p)


def test_tsv_roundtrip_synthetic(tmp_path):
    task = synth_task(n_pairs=1000, n_templates=10, lexicon_size=30, seed=7)
    p = tmp_path / "synth.tsv"
    save_tsv(task.corpus, p)
    again = load_tsv(p)
    assert again == task.corpus


def test_split_equal_four_equal_parts():
    c = corpus_from_pairs(([(f"s{i}",)], [(f"t{i}",)]) for i in range(8))
    parts = split_equal(c, 4, seed=0)
    assert [len(p) for p in parts] == [2, 2, 2, 2]


def test_split_equal_single_part_is_permutation():
    c = corpus_from_pairs((([f"s{i}"], [f"t{i}"]) for i in range(9)))
    (only,) = split_equal(c, 1, seed=3)
    assert collections.Counter((p.source, p.target) for p in only) == collections.Counter(
        (p.source, p.target) for p in c
    )


def test_split_equal_deterministic():
    c = corpus_from_pairs((([f"s{i}"], [f"t{i}"]) for i in range(10)))
    a = split_equal(c, 3, seed=11)
    b = split_equal(c, 3, seed=11)
    assert a == b
    assert split_equal(c, 3, seed=12) != a


@settings(max_examples=30)
@given(n=st.integers(1, 40), parts=st.integers(1, 8), seed=st.integers(0, 999))
def test_split_equal_partition_property(n, parts, seed):
    if parts > n:
        return
    c = corpus_from_pairs((([f"s{i}"], [f"t{i}"]) for i in range(n)))
    out = split_equal(c, parts, seed)
    sizes = [len(p) for p in out]
    assert max(sizes) - min(sizes) <= 1
    union = collections.Counter()
    for part in out:
        union.update((p.source, p.target) for p in part)
    assert union == collections.Counter((p.source, p.target) for p in c)


def test_split_equal_errors():
    c = corpus_from_pairs((([f"s{i}"], [f"t{i}"]) for i in range(3)))
    with pytest.raises(DataError):
        split_equal(c, 4, seed=0)
    with pytest.raises(DataError):
        split_equal(c, 0, seed=0)


def test_synth_task_same_template_similarity():
    task = synth_task(n_pairs=40, n_templates=1, lexicon_size=12, seed=5)
    pairs = task.corpus.pairs
    for i in range(0, 20, 3):
        for j in range(i + 1, 20, 3):
            s = similarity(pairs[i].source, pairs[j].source)
            assert 0.5 <= s <= 1.0


def test_synth_task_deterministic(tmp_path):
    a = synth_task(500, 8, 20, seed=9)
    b = synth_task(500, 8, 20, seed=9)
    pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_tsv(a.corpus, pa)
    save_tsv(b.corpus, pb)
    assert pa.read_bytes() == pb.read_bytes()
    assert a.template_ids == b.template_ids


def test_synth_task_rejects_bad_args():
    with pytest.raises(DataError):
        synth_task(0, 1, 1, seed=0)
    with pytest.raises(DataError):
        synth_task(10, 2, 100000, seed=0)


def test_synth_manifest_roundtrip(tmp_path):
    task = synth_task(30, 3, 10, seed=1)
    p = tmp_path / "manifest.tsv"
    task.save_manifest(p)
    rows = [line.split("\t") for line in p.read_text(encoding="utf-8").splitlines()]
    assert [(int(i), int(t)) for i, t in rows] == list(enumerate(task.template_ids))


def test_encode_corpus_and_merge():
    task = synth_task(20, 2, 8, seed=2)
    v = build_vocab(((p.source, p.target) for p in task.corpus))
    enc = encode_corpus(task.corpus, v)
    assert all(isinstance(t, int) for t in enc[0].source)
    merged = merge_corpora(enc, enc)
    assert len(merged) == 2 * len(enc)
    assert merged[len(enc)].source == enc[0].source


def test_corpus_stats():
    c = corpus_from_pairs([(["a", "b"], ["c"])])
    s = corpus_stats(c)
    assert s["pairs"] == 1 and s["source_tokens"] == 2 and s["distinct_tokens"] == 3
