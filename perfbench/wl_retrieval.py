"""Workload `retrieval`: a datastore that grows 1/4 -> 4/4.

Main part, per round: at each stage the index is rebuilt, then plain
top-5 queries from held-out sentences (half from stored templates, half
from templates withheld from the store), training-style top-5 over the
stage's own sources and `sample_tm_probs`; then the saved 4/4 store is
loaded repeatedly. Small parts, per round: one epoch of each training
mode on 48 store pairs with 3 fine-tune updates; greedy decoding of 8
and beam decoding of 4 held-out sentences with untrained checkpoints
against the full store, and scoring 16.
"""

from __future__ import annotations

from tmlab import corpus, retrieval
from tmlab.seeding import substream

import parts

TOTAL_PAIRS = 20_000        # 50 pairs per template
TEMPLATES = 400
WITHHELD_TEMPLATES = 50     # 1/8 of the templates never enter the store
LEXICON = 60
STORE_PAIRS = 16_000        # the 4/4 stage; the stages hold 4k, 8k, 12k, 16k pairs
STAGES = 4
PLAIN_QUERIES = 100
TRAIN_QUERIES = 100         # per stage
SAMPLE_QUERIES = 50         # the first 25 of each plain-query half
LOADS = 4
SIDE_TRAIN = 48             # the first store pairs of the 1/4 stage
SIDE_VALID = 40
SIDE_TEST = 16              # held-out sentences the untrained checkpoints score


class State:
    pass


def setup(seed: int, phases, ops) -> State:
    s = State()
    task = corpus.synth_task(TOTAL_PAIRS, TEMPLATES, LEXICON, seed)
    vocab = corpus.build_vocab(((p.source, p.target) for p in task.corpus),
                               extra=(corpus.SEP_TOKEN,))
    enc = corpus.encode_corpus(task.corpus, vocab)
    rng = substream(seed, "bench", "retrieval")
    withheld = set(rng.choice(TEMPLATES, size=WITHHELD_TEMPLATES, replace=False).tolist())
    stored = rng.permutation([i for i, t in enumerate(task.template_ids) if t not in withheld])
    unstored = [i for i, t in enumerate(task.template_ids) if t in withheld]
    store_ids, held_ids = stored[:STORE_PAIRS].tolist(), stored[STORE_PAIRS:].tolist()
    half = PLAIN_QUERIES // 2
    near = rng.choice(held_ids, size=half + SIDE_VALID, replace=False).tolist()
    far = rng.choice(unstored, size=half, replace=False).tolist()
    stages = []
    for j in range(1, STAGES + 1):
        store = corpus.subset(enc, store_ids[: STORE_PAIRS * j // STAGES])
        stages.append((store, rng.choice(len(store), size=TRAIN_QUERIES, replace=False).tolist()))
    full = retrieval.build_index(stages[-1][0])
    s.retrieval = parts.RetrievalInputs(
        stages=stages,
        plain=[enc[i].source for i in near[:half] + far],
        sample=[enc[i].source for i in near[: SAMPLE_QUERIES // 2] + far[: SAMPLE_QUERIES // 2]],
        index_path=parts.save_store(full),
        loads=LOADS,
    )

    parts.warm_up(vocab, enc[store_ids[0]], enc[store_ids[1]])
    s.training = parts.TrainingInputs(
        train=corpus.subset(task.corpus, store_ids[:SIDE_TRAIN]),
        valid=corpus.subset(task.corpus, near[half:]),
        vocab=vocab,
        ft_updates=3, ft_eval_every=3,
    )
    s.family = parts.init_family(vocab)
    s.decode = parts.DecodeInputs(vocab=vocab, index=full,
                                  test=corpus.subset(task.corpus, near[:SIDE_TEST]),
                                  greedy_n=8, beam_n=4, score_repeats=2, max_new=3)
    return s


def run_round(s: State, phases, ops) -> dict:
    return {"retrieval": parts.retrieval_part(s.retrieval, phases, ops),
            "training": parts.training_part(s.training, phases, ops),
            "decode": parts.decode_part(s.decode, s.family, phases, ops)}


def fingerprint(out: dict):
    return (parts.retrieval_fingerprint(out["retrieval"]),
            parts.training_fingerprint(out["training"]),
            parts.decode_fingerprint(out["decode"]))


def check(s: State, out: dict, checks) -> dict:
    pool_miss = parts.check_retrieval(s.retrieval, out["retrieval"], checks)
    parts.check_training(s.training, out["training"], checks)
    lengths = parts.check_decode(s.decode, s.family, out["decode"], checks, require_eos=False)
    return {"pool_miss_queries": pool_miss, "decode_lengths": lengths}


def end_to_end(s: State, phases) -> dict:
    return parts.end_to_end(phases)


def work(s: State, phases, counts: dict) -> dict:
    return parts.work(phases, s.training, counts["pool_miss_queries"])
