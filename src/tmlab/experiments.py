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
import sys
from dataclasses import dataclass
from pathlib import Path

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
from tmlab.ensemble import BACKBONE, PREDICT_MODES, Family, decode_all, train_family
from tmlab.errors import DataError, UsageError
from tmlab.evalmetrics import corpus_bleu, token_ce
from tmlab.fileio import atomic_write_text
from tmlab.model import ModelConfig, TrainConfig, save_checkpoint
from tmlab.retrieval import build_index
from tmlab.seeding import substream

SCENARIOS = ("low_resource", "plug_and_play", "high_resource")


def _check_type(key: str, value, default) -> None:
    """Reject a config value whose type is not that of its field's default
    (a string where there is none, and a number where that is a float)."""
    if isinstance(default, tuple):
        ok = type(value) in (list, tuple) and all(type(v) is str for v in value)
        want = "a list of strings"
    elif isinstance(default, float):
        ok, want = type(value) in (int, float), "a number"
    elif default is None or default is dataclasses.MISSING:
        ok, want = type(value) is str or (value is None and default is None), "a string"
    else:
        ok, want = type(value) is type(default), type(default).__name__
    if not ok:
        raise DataError(f"config key '{key}' must be {want}, not {value!r}")


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
    modes: tuple[str, ...] = PREDICT_MODES

    def __post_init__(self) -> None:
        if self.scenario not in SCENARIOS:
            raise UsageError(f"unknown scenario '{self.scenario}'; choose from {SCENARIOS}")
        for m in self.modes:
            if m not in PREDICT_MODES:
                raise UsageError(f"unknown mode '{m}'")
        # build every config the recipe will, so that a setting no model can
        # train with is refused before anything is written; the vocab size is
        # known only once the data is, and has no range to check
        recipe = _recipe(self, 1)
        for train_mode in dict.fromkeys(BACKBONE[m] for m in self.modes):
            recipe(train_mode)

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """A config from JSON-like values, each of its field's type."""
        defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        unknown = set(d) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in d.items():
            _check_type(key, value, defaults[key])
        if "modes" in d:
            d = {**d, "modes": tuple(d["modes"])}
        return ExperimentConfig(**d)


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


def _recipe(cfg: ExperimentConfig, vocab_size: int):
    """Vanilla NMT trains `epochs` on the vanilla arch, every TM backbone
    `tm_epochs` on the dual encoder."""
    def recipe(train_mode: str) -> tuple[str, ModelConfig, TrainConfig]:
        arch, epochs = ("vanilla", cfg.epochs) if train_mode == "none" else ("dual_enc", cfg.tm_epochs)
        return (arch, ModelConfig.from_attrs(cfg, vocab_size, arch),
                TrainConfig.from_attrs(cfg, epochs=epochs, k_retrieval=cfg.topk))

    return recipe


def evaluate_modes(cfg: ExperimentConfig, family: Family, vocab: Vocab,
                   datastore: ParallelCorpus, test: ParallelCorpus, stage: str) -> list[dict]:
    """BLEU and perplexity for every requested mode against one datastore."""
    enc_test = encode_corpus(test, vocab)
    index = build_index(encode_corpus(datastore, vocab))
    rows = []
    for mode in cfg.modes:
        ckpt, wn = family.member(mode)
        hyps = decode_all(mode, ckpt, [p.source for p in enc_test], vocab, index, cfg.topk,
                          cfg.beam, wn)
        bleu = corpus_bleu([toks for toks, _ in hyps], [p.target for p in enc_test]).score
        nats, ppl = token_ce(ckpt, test, vocab, mode=mode, index=index,
                             k=cfg.topk, weightnet=wn)
        rows.append({"stage": stage, "mode": mode,
                     "bleu": f"{bleu:.4f}", "ppl": f"{ppl:.4f}"})
    return rows


def write_results_csv(rows: list[dict], path: str | Path) -> None:
    lines = ["stage,mode,bleu,ppl"]
    lines += [f"{r['stage']},{r['mode']},{r['bleu']},{r['ppl']}" for r in rows]
    atomic_write_text(path, "\n".join(lines) + "\n")


_CKPT_FILES = {"none": "vanilla.ckpt", "topk": "tm_base.ckpt", "single_multi": "tm_single.ckpt"}


def save_family(family: Family, vocab: Vocab, out_dir: Path) -> None:
    vocab.save(out_dir / "vocab.txt")
    for train_mode, ckpt in family.backbones.items():
        save_checkpoint(ckpt, out_dir / _CKPT_FILES[train_mode])
    if family.finetune is not None:
        family.finetune.save(out_dir / "tm_weight.ckpt", out_dir / "weightnet.ckpt",
                             out_dir / "finetune_curve.tsv", vocab)


def run_experiment(cfg: ExperimentConfig, verbose: bool = True) -> list[dict]:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = prepare_data(cfg)
    save_tsv(data.test, out_dir / "test.tsv")

    if cfg.scenario == "high_resource":
        train_corpus = data.train_pool
        stages = [("4/4", data.train_pool)]
    else:
        parts = split_equal(data.train_pool, 4, cfg.seed)
        train_corpus = parts[0]
        stages = ([("1/4", parts[0])] if cfg.scenario == "low_resource" else
                  [(f"{j}/4", merge_corpora(*parts[:j])) for j in range(1, 5)])

    if verbose:
        print(f"[train] {','.join(cfg.modes)} on {len(train_corpus)} pairs", file=sys.stderr)
    family = train_family(cfg.modes, train_corpus, data.vocab, _recipe(cfg, len(data.vocab)),
                          cfg.seed, data.valid, cfg.finetune_updates)
    rows = []
    for stage, datastore in stages:
        if verbose:
            print(f"[stage {stage}] datastore {len(datastore)} pairs", file=sys.stderr)
        rows += evaluate_modes(cfg, family, data.vocab, datastore, data.test, stage)

    save_family(family, data.vocab, out_dir)
    write_results_csv(rows, out_dir / "results.csv")
    return rows
