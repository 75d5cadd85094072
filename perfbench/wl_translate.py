"""Workload `translate`: inference without grad in all five modes.

Set-up trains the four checkpoints (vanilla/none, dual_enc/topk,
dual_enc/single_multi and its weighted fine-tune) well enough that most
hypotheses end in EOS, and builds the datastore index. Main part, per
round: greedy and beam-4 decode of the test set in every mode, and
teacher-forced `token_ce` over the test set. Small parts, per round:
top-k, sampling and index loads over the datastore, and one epoch of
each training mode on 32 training pairs with 3 fine-tune updates.
"""

from __future__ import annotations

from tmlab import corpus, retrieval
from tmlab.seeding import substream

import parts

TRAIN_PAIRS = 240           # also the datastore
VALID_PAIRS = 40
TEST_PAIRS = 8
BEAM_PAIRS = 8              # the whole test set: beam's cost per token varies by sentence
TEMPLATES = 8
LEXICON = 16
# every template has 6 frame words and 2 slots, so sentences have 8 tokens
# on both sides whatever the seed: the work per sentence does not depend
# on which templates a seed draws
SHAPE = {"frame_len_range": (6, 6), "slot_range": (2, 2)}
MAX_NEW = 16                # decode cap, twice the target length
SCORE_REPEATS = 2           # token_ce passes over the test set per mode and round
EPOCHS = {"none": 5, "topk": 9, "single_multi": 2}
FT_UPDATES = 20
SIDE_TRAIN = 32
SIDE_SAMPLE_TRAIN = 96      # datastore sources among the sample_tm_probs queries
SIDE_LOADS = 100


class State:
    pass


def setup(seed: int, phases, ops) -> State:
    s = State()
    n = TRAIN_PAIRS + VALID_PAIRS + TEST_PAIRS
    task = corpus.synth_task(n, TEMPLATES, LEXICON, seed, **SHAPE)
    order = substream(seed, "bench", "translate").permutation(n).tolist()
    train = corpus.subset(task.corpus, order[:TRAIN_PAIRS])
    valid = corpus.subset(task.corpus, order[TRAIN_PAIRS : TRAIN_PAIRS + VALID_PAIRS])
    s.test = corpus.subset(task.corpus, order[TRAIN_PAIRS + VALID_PAIRS :])
    vocab = corpus.build_vocab(((p.source, p.target) for p in task.corpus),
                               extra=(corpus.SEP_TOKEN,))
    enc_train = corpus.encode_corpus(train, vocab)
    s.index = retrieval.build_index(enc_train)
    parts.warm_up(vocab, enc_train[0], enc_train[1])
    s.training = parts.TrainingInputs(
        train=train, valid=valid, vocab=vocab,
        epochs=EPOCHS, ft_updates=FT_UPDATES,
    )
    s.trained = parts.training_part(s.training, phases, ops)
    s.family = parts.family(s.trained)
    s.decode = parts.DecodeInputs(vocab=vocab, index=s.index, test=s.test,
                                  greedy_n=TEST_PAIRS, beam_n=BEAM_PAIRS,
                                  score_repeats=SCORE_REPEATS, max_new=MAX_NEW)
    held = [p.source for p in corpus.encode_corpus(corpus.merge_corpora(s.test, valid), vocab)]
    s.side_training = parts.TrainingInputs(
        train=corpus.subset(train, range(SIDE_TRAIN)), valid=valid, vocab=vocab,
        ft_updates=3, ft_eval_every=3,
    )
    s.retrieval = parts.RetrievalInputs(
        stages=[(corpus.subset(enc_train, range(size)), list(range(0, size, 2)))
                for size in (TRAIN_PAIRS // 2, TRAIN_PAIRS)],
        plain=held, sample=held + [p.source for p in enc_train[:SIDE_SAMPLE_TRAIN]],
        index_path=parts.save_store(s.index),
        loads=SIDE_LOADS,
    )
    return s


def run_round(s: State, phases, ops) -> dict:
    return {"decode": parts.decode_part(s.decode, s.family, phases, ops),
            "retrieval": parts.retrieval_part(s.retrieval, phases, ops),
            "training": parts.training_part(s.side_training, phases, ops)}


def fingerprint(out: dict):
    return (parts.decode_fingerprint(out["decode"]),
            parts.retrieval_fingerprint(out["retrieval"]),
            parts.training_fingerprint(out["training"]))


def check(s: State, out: dict, checks) -> dict:
    ce = parts.check_training(s.training, s.trained, checks, s.test, s.index)
    lengths = parts.check_decode(s.decode, s.family, out["decode"], checks, require_eos=True)
    pool_miss = parts.check_retrieval(s.retrieval, out["retrieval"], checks)
    parts.check_training(s.side_training, out["training"], checks)
    return {"pool_miss_queries": pool_miss, "training": ce, "decode_lengths": lengths}


def end_to_end(s: State, phases) -> dict:
    return parts.end_to_end(phases)


def work(s: State, phases, counts: dict) -> dict:
    return parts.work(phases, s.side_training, counts["pool_miss_queries"])
