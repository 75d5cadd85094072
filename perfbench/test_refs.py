"""Fast tests of the benchmark's reference computations.

Run from the repository root: python3 -m pytest -q perfbench/test_refs.py
"""

import math
import random
import sys
from pathlib import Path

import pytest

import refs

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def test_levenshtein_hand_values():
    assert refs.levenshtein("kitten", "sitting") == 3
    assert refs.levenshtein((), ()) == 0
    assert refs.levenshtein((1, 2, 3), ()) == 3
    assert refs.levenshtein((), (7,)) == 1
    assert refs.levenshtein((1, 2, 3), (1, 2, 3)) == 0
    assert refs.levenshtein((1, 2, 3), (3, 2, 1)) == 2
    assert refs.levenshtein(("a", "b"), ("b", "a", "b")) == 1


def test_levenshtein_is_a_metric_on_random_sequences():
    rng = random.Random(0)
    for _ in range(200):
        a, b, c = ([rng.randrange(4) for _ in range(rng.randrange(7))] for _ in range(3))
        d = refs.levenshtein(a, b)
        assert d == refs.levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
        assert refs.levenshtein(a, c) <= d + refs.levenshtein(b, c)


def test_similarity_range_and_identity():
    assert refs.similarity((1, 2), (1, 2)) == 1.0
    assert refs.similarity((1, 2), (3, 4)) == 0.0
    assert refs.similarity((1, 2, 3, 4), (1, 2, 3)) == 0.75


def test_sampling_probs_closed_form():
    p = refs.sampling_probs([0.5, 0.5, 0.5, 0.5], 0.1)
    assert p == [0.25] * 4
    p = refs.sampling_probs([1.0, 0.0], 0.5)
    assert math.isclose(p[0] / p[1], math.exp(2.0), rel_tol=1e-15)
    assert math.isclose(math.fsum(p), 1.0, abs_tol=1e-15)


def test_bleu_hand_values():
    ref = [list("abcdefg")]
    assert refs.corpus_bleu(ref, ref) == pytest.approx(100.0, abs=1e-12)
    # no 4-gram matches: that order is smoothed to 1/(t+1)
    hyp = [["a", "b", "c", "x", "e"]]
    p = [4 / 5, 2 / 4, 1 / 3, 1 / (2 + 1)]
    bp = math.exp(1 - 7 / 5)
    expected = 100 * bp * math.exp(sum(math.log(x) for x in p) / 4)
    assert refs.corpus_bleu(hyp, ref) == pytest.approx(expected, rel=1e-12)
    # clipping: a repeated token matches at most as often as the reference holds it
    assert refs.corpus_bleu([["a", "a", "a"]], [["a", "b", "c"]], max_n=1) == pytest.approx(100 / 3)


def test_refs_agree_with_tmlab_on_random_inputs():
    retrieval = pytest.importorskip("tmlab.retrieval")
    evalmetrics = pytest.importorskip("tmlab.evalmetrics")
    rng = random.Random(1)
    for _ in range(300):
        a = [rng.randrange(5) for _ in range(rng.randrange(1, 9))]
        b = [rng.randrange(5) for _ in range(rng.randrange(1, 9))]
        assert refs.levenshtein(a, b) == retrieval.edit_distance(a, b)
        assert refs.similarity(a, b) == retrieval.similarity(a, b)
    hyps = [[rng.randrange(6) for _ in range(rng.randrange(0, 9))] for _ in range(20)]
    ref_s = [[rng.randrange(6) for _ in range(rng.randrange(1, 9))] for _ in range(20)]
    assert refs.corpus_bleu(hyps, ref_s) == pytest.approx(
        evalmetrics.corpus_bleu(hyps, ref_s).score, abs=1e-9)
