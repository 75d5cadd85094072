"""Workload `training`: the gradient path.

Main part, per round: train() for vanilla/none, dual_enc/topk and
dual_enc/single_multi, one epoch each at the default model config, then a
fixed number of weighted fine-tune updates on the single_multi
checkpoint. Small parts: top-k, sampling and index loads over the
training corpus as datastore; greedy decoding of 8 and beam decoding of
4 held-out sentences with untrained checkpoints, and scoring 16.
"""

from __future__ import annotations

from tmlab import corpus, retrieval
from tmlab.seeding import substream

import parts

TRAIN_PAIRS = 160
VALID_PAIRS = 40            # fine-tune data: 36 fit, 4 select
HELDOUT_PAIRS = 40          # the CE check, and the queries of the retrieval part
TEMPLATES = 100
LEXICON = 40
SIDE_TEST = 16              # held-out sentences the untrained checkpoints score


class State:
    pass


def setup(seed: int, phases, ops) -> State:
    s = State()
    n = TRAIN_PAIRS + VALID_PAIRS + HELDOUT_PAIRS
    task = corpus.synth_task(n, TEMPLATES, LEXICON, seed)
    order = substream(seed, "bench", "training").permutation(n).tolist()
    train = corpus.subset(task.corpus, order[:TRAIN_PAIRS])
    s.heldout = corpus.subset(task.corpus, order[TRAIN_PAIRS + VALID_PAIRS :])
    vocab = corpus.build_vocab(((p.source, p.target) for p in task.corpus),
                               extra=(corpus.SEP_TOKEN,))
    enc_train = corpus.encode_corpus(train, vocab)
    enc_heldout = corpus.encode_corpus(s.heldout, vocab)
    s.index = retrieval.build_index(enc_train)
    s.training = parts.TrainingInputs(
        train=train,
        valid=corpus.subset(task.corpus, order[TRAIN_PAIRS : TRAIN_PAIRS + VALID_PAIRS]),
        vocab=vocab,
        ft_updates=8, ft_eval_every=4,
    )
    s.retrieval = parts.RetrievalInputs(
        stages=[(corpus.subset(enc_train, range(size)), list(range(size)))
                for size in (TRAIN_PAIRS // 2, TRAIN_PAIRS)],
        plain=[p.source for p in enc_heldout],
        sample=[p.source for c in (enc_heldout, enc_train) for p in c],
        index_path=parts.save_store(s.index),
        loads=150,
    )
    s.family = parts.init_family(vocab)
    s.decode = parts.DecodeInputs(vocab=vocab, index=s.index,
                                  test=corpus.subset(s.heldout, range(SIDE_TEST)),
                                  greedy_n=8, beam_n=4, score_repeats=2, max_new=3)
    parts.warm_up(vocab, enc_train[0], enc_train[1])
    return s


def run_round(s: State, phases, ops) -> dict:
    trained = parts.training_part(s.training, phases, ops)
    return {"training": trained,
            "retrieval": parts.retrieval_part(s.retrieval, phases, ops),
            "decode": parts.decode_part(s.decode, s.family, phases, ops)}


def fingerprint(out: dict):
    return (parts.training_fingerprint(out["training"]),
            parts.retrieval_fingerprint(out["retrieval"]),
            parts.decode_fingerprint(out["decode"]))


def check(s: State, out: dict, checks) -> dict:
    ce = parts.check_training(s.training, out["training"], checks, s.heldout, s.index)
    pool_miss = parts.check_retrieval(s.retrieval, out["retrieval"], checks)
    lengths = parts.check_decode(s.decode, s.family, out["decode"], checks, require_eos=False)
    return {"pool_miss_queries": pool_miss, "training": ce, "decode_lengths": lengths}


def end_to_end(s: State, phases) -> dict:
    return parts.end_to_end(phases)


def work(s: State, phases, counts: dict) -> dict:
    return parts.work(phases, s.training, counts["pool_miss_queries"])
