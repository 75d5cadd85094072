"""Experiment harness: low-resource, plug-and-play, and high-resource runs.

Each scenario trains the model family on a synthetic templated task (or
a user-supplied TSV), evaluates every requested prediction mode, and
emits a results CSV (stage, mode, bleu, ppl) plus a manifest sufficient
to reproduce the run byte for byte.

The low-resource scenario trains on the first of four equal splits of
the training pool. Plug-and-play freezes those checkpoints and grows
the retrieval datastore split by split, re-retrieving for the fixed
test set at each stage. High-resource trains on the full pool.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tmlab.corpus import (
    SEP_TOKEN,
    ParallelCorpus,
    Vocab,
    build_vocab,
    encode_corpus,
    load_tsv,
    merge_corpora,
    save_tsv,
    split_equal,
    subset,
    synth_task,
)
from tmlab.ensemble import FinetuneResult, decode, finetune_weighted, save_weightnet
from tmlab.errors import DataError, UsageError
from tmlab.evalmetrics import corpus_bleu, token_ce
from tmlab.fileio import atomic_write_text
from tmlab.model import Checkpoint, ModelConfig, TrainConfig, save_checkpoint, train
from tmlab.retrieval import build_index
from tmlab.seeding import substream

SCENARIOS = ("low_resource", "plug_and_play", "high_resource")
DEFAULT_MODES = ("vanilla", "base", "single", "average", "weighted")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: str
    out_dir: str
    seed: int = 0
    corpus_tsv: str | None = None      # when unset, a synthetic task is generated
    synth_pairs: int = 2000
    synth_templates: int = 100
    synth_lexicon: int = 40
    n_valid: int = 100
    n_test: int = 60
    d_model: int = 64
    n_heads: int = 4
    ffn_dim: int = 128
    n_src_layers: int = 2
    n_mem_layers: int = 2
    n_dec_layers: int = 2
    dropout: float = 0.1
    max_len: int = 64
    epochs: int = 12
    tm_epochs: int = 5
    batch_size: int = 64
    base_lr: float = 2e-3
    warmup: int = 200
    label_smoothing: float = 0.1
    topk: int = 5
    finetune_updates: int = 200
    beam: int = 1                      # 1 decodes greedily
    modes: tuple[str, ...] = DEFAULT_MODES

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise UsageError(f"unknown scenario '{self.scenario}'; choose from {SCENARIOS}")
        for m in self.modes:
            if m not in DEFAULT_MODES:
                raise UsageError(f"unknown mode '{m}'")

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(d) - known
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        if "modes" in d:
            d = {**d, "modes": tuple(d["modes"])}
        return ExperimentConfig(**d)

    def config_hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


@dataclass
class PreparedData:
    train_pool: ParallelCorpus
    valid: ParallelCorpus
    test: ParallelCorpus
    vocab: Vocab


def prepare_data(cfg: ExperimentConfig) -> PreparedData:
    """Load or generate the corpus, then carve seeded valid/test slices."""
    if cfg.corpus_tsv is not None:
        corpus = load_tsv(cfg.corpus_tsv)
    else:
        corpus = synth_task(cfg.synth_pairs, cfg.synth_templates, cfg.synth_lexicon,
                            cfg.seed).corpus
    n = len(corpus)
    if cfg.n_valid + cfg.n_test >= n:
        raise DataError(f"corpus of {n} pairs cannot spare {cfg.n_valid} valid + {cfg.n_test} test")
    order = substream(cfg.seed, "data_carve").permutation(n)
    test = subset(corpus, order[: cfg.n_test])
    valid = subset(corpus, order[cfg.n_test : cfg.n_test + cfg.n_valid])
    pool = subset(corpus, order[cfg.n_test + cfg.n_valid :])
    vocab = build_vocab(((p.source, p.target) for p in corpus), extra=(SEP_TOKEN,))
    return PreparedData(train_pool=pool, valid=valid, test=test, vocab=vocab)


def _train_config(cfg: ExperimentConfig, epochs: int) -> TrainConfig:
    return TrainConfig(
        epochs=epochs, batch_size=cfg.batch_size, base_lr=cfg.base_lr,
        warmup=cfg.warmup, label_smoothing=cfg.label_smoothing,
        k_retrieval=cfg.topk,
    )


@dataclass
class TrainedFamily:
    vanilla: Checkpoint | None
    base: Checkpoint | None
    single: Checkpoint | None
    weighted: FinetuneResult | None
    vocab: Vocab

    def for_mode(self, mode: str):
        if mode == "vanilla":
            return self.vanilla, None
        if mode == "base":
            return self.base, None
        if mode in ("single", "average"):
            return self.single, None
        if mode == "weighted":
            return self.weighted.checkpoint, self.weighted.weightnet
        raise DataError(f"unknown mode '{mode}'")


def train_family(cfg: ExperimentConfig, data: PreparedData, train_corpus: ParallelCorpus,
                 verbose: bool = True) -> TrainedFamily:
    """Train the checkpoints the requested modes need on `train_corpus`."""
    need_vanilla = "vanilla" in cfg.modes
    need_base = "base" in cfg.modes
    need_single = any(m in cfg.modes for m in ("single", "average", "weighted"))
    need_weighted = "weighted" in cfg.modes

    def log(msg):
        if verbose:
            print(msg, file=sys.stderr)

    vanilla = base = single = None
    weighted = None
    if need_vanilla:
        log(f"[train] vanilla on {len(train_corpus)} pairs")
        vanilla = train("vanilla", train_corpus, "none",
                        ModelConfig.from_attrs(cfg, len(data.vocab), "vanilla"),
                        _train_config(cfg, cfg.epochs), cfg.seed, vocab=data.vocab)
    if need_base:
        log(f"[train] dual-encoder joint top-{cfg.topk} on {len(train_corpus)} pairs")
        base = train("dual_enc", train_corpus, "topk",
                     ModelConfig.from_attrs(cfg, len(data.vocab), "dual_enc"),
                     _train_config(cfg, cfg.tm_epochs), cfg.seed, vocab=data.vocab)
    if need_single:
        log(f"[train] dual-encoder single-TM on {len(train_corpus)} pairs")
        single = train("dual_enc", train_corpus, "single_multi",
                       ModelConfig.from_attrs(cfg, len(data.vocab), "dual_enc"),
                       _train_config(cfg, cfg.tm_epochs), cfg.seed, vocab=data.vocab)
    if need_weighted:
        log(f"[finetune] weighted ensemble, {cfg.finetune_updates} updates")
        weighted = finetune_weighted(single, data.valid, data.vocab, train_corpus,
                                     updates=cfg.finetune_updates, seed=cfg.seed,
                                     k=cfg.topk, label_smoothing=cfg.label_smoothing)
    return TrainedFamily(vanilla=vanilla, base=base, single=single,
                         weighted=weighted, vocab=data.vocab)


def evaluate_modes(cfg: ExperimentConfig, family: TrainedFamily, datastore: ParallelCorpus,
                   test: ParallelCorpus, stage: str) -> list[dict]:
    """BLEU and perplexity for every requested mode against one datastore."""
    vocab = family.vocab
    enc_test = encode_corpus(test, vocab)
    index = build_index(encode_corpus(datastore, vocab))
    strategy = "greedy" if cfg.beam <= 1 else "beam"
    rows = []
    for mode in cfg.modes:
        ckpt, wn = family.for_mode(mode)
        sep = vocab.sep_id if ckpt.config.arch != "vanilla" else None
        k = cfg.topk if mode != "single" else 1
        hyps = []
        for p in enc_test:
            toks, _ = decode(mode, ckpt, p.source, index, k, sep, strategy=strategy,
                             beam_width=cfg.beam, weightnet=wn)
            hyps.append(list(toks))
        bleu = corpus_bleu(hyps, [list(p.target) for p in enc_test]).score
        nats, ppl = token_ce(ckpt, test, vocab, mode=mode, index=index,
                             k=k, weightnet=wn)
        rows.append({"stage": stage, "mode": mode,
                     "bleu": f"{bleu:.4f}", "ppl": f"{ppl:.4f}"})
    return rows


def write_results_csv(rows: list[dict], path: str | Path) -> None:
    lines = ["stage,mode,bleu,ppl"]
    lines += [f"{r['stage']},{r['mode']},{r['bleu']},{r['ppl']}" for r in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


def save_family(family: TrainedFamily, out_dir: Path) -> None:
    family.vocab.save(out_dir / "vocab.txt")
    if family.vanilla is not None:
        save_checkpoint(family.vanilla, out_dir / "vanilla.ckpt")
    if family.base is not None:
        save_checkpoint(family.base, out_dir / "tm_base.ckpt")
    if family.single is not None:
        save_checkpoint(family.single, out_dir / "tm_single.ckpt")
    if family.weighted is not None:
        save_checkpoint(family.weighted.checkpoint, out_dir / "tm_weight.ckpt")
        save_weightnet(family.weighted.weightnet, out_dir / "weightnet.ckpt",
                       {"d_model": family.weighted.checkpoint.config.d_model})
        curve = "\n".join(f"{u}\t{l:.6f}" for u, l in family.weighted.curve)
        atomic_write_text(out_dir / "finetune_curve.tsv", curve + "\n")


def run_experiment(cfg: ExperimentConfig, verbose: bool = True) -> list[dict]:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = prepare_data(cfg)
    save_tsv(data.test, out_dir / "test.tsv")

    if cfg.scenario == "high_resource":
        family = train_family(cfg, data, data.train_pool, verbose)
        rows = evaluate_modes(cfg, family, data.train_pool, data.test, stage="4/4")
    else:
        parts = split_equal(data.train_pool, 4, cfg.seed)
        family = train_family(cfg, data, parts[0], verbose)
        if cfg.scenario == "low_resource":
            rows = evaluate_modes(cfg, family, parts[0], data.test, stage="1/4")
        else:
            rows = []
            for j in range(1, 5):
                datastore = merge_corpora(*parts[:j])
                if verbose:
                    print(f"[stage {j}/4] datastore {len(datastore)} pairs", file=sys.stderr)
                rows += evaluate_modes(cfg, family, datastore, data.test, stage=f"{j}/4")

    save_family(family, out_dir)
    write_results_csv(rows, out_dir / "results.csv")
    return rows
