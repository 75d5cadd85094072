"""Command-line surface: one binary, subcommand style.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every command takes a single --seed and fans it out into named
sub-streams; commands with file outputs write them atomically and emit
a manifest from which `tmlab rerun` reproduces the run byte for byte.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

import tmlab
from tmlab.biasvar import estimate_bias_variance
from tmlab.corpus import (
    SEP_TOKEN,
    Vocab,
    build_vocab,
    corpus_stats,
    load_tsv,
    save_tsv,
    split_equal,
    synth_task,
    tokenize,
)
from tmlab.ensemble import PREDICT_MODES, decode, finetune_weighted, load_weightnet, save_weightnet
from tmlab.errors import DataError, NumericError, UsageError
from tmlab.evalmetrics import corpus_bleu, token_ce
from tmlab.experiments import ExperimentConfig, run_experiment
from tmlab.fileio import atomic_write_text
from tmlab.model import ARCHITECTURES, TRAIN_MODES, ModelConfig, TrainConfig, train
from tmlab.model import load_checkpoint, save_checkpoint
from tmlab.retrieval import build_index, load_index, retrieve_topk, save_index


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        raise UsageError(message)


def _manifest_path(primary_output: str | Path) -> Path:
    p = Path(primary_output)
    return p.parent / (p.name + ".manifest.json")


def _write_manifest(argv: list[str], primary_output: str | Path) -> None:
    blob = json.dumps(argv, sort_keys=True).encode("utf-8")
    doc = {
        "version": tmlab.__version__,
        "argv": argv,
        "config_hash": hashlib.sha256(blob).hexdigest()[:16],
        "cwd": os.getcwd(),
    }
    atomic_write_text(_manifest_path(primary_output), json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _model_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d-model", type=int, default=64)
    p.add_argument("--heads", type=int, default=4, dest="n_heads")
    p.add_argument("--ffn", type=int, default=128, dest="ffn_dim")
    p.add_argument("--src-layers", type=int, default=2, dest="n_src_layers")
    p.add_argument("--mem-layers", type=int, default=2, dest="n_mem_layers")
    p.add_argument("--dec-layers", type=int, default=2, dest="n_dec_layers")
    p.add_argument("--dropout", type=float, default=0.1)
    p.add_argument("--max-len", type=int, default=64)


def _train_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--lr", type=float, default=7e-4, dest="base_lr")
    p.add_argument("--warmup", type=int, default=200)
    p.add_argument("--smoothing", type=float, default=0.1, dest="label_smoothing")
    p.add_argument("--topk", type=int, default=5, dest="k_retrieval")


def build_parser() -> _Parser:
    root = _Parser(prog="tmlab", description=__doc__,
                   formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = root.add_subparsers(dest="command", required=True)

    # corpus -----------------------------------------------------------------
    corpus = sub.add_parser("corpus", help="corpus utilities").add_subparsers(
        dest="corpus_cmd", required=True)

    c_synth = corpus.add_parser("synth", help="generate a templated synthetic corpus")
    c_synth.add_argument("--pairs", type=int, required=True)
    c_synth.add_argument("--templates", type=int, required=True)
    c_synth.add_argument("--lexicon", type=int, required=True)
    c_synth.add_argument("--seed", type=int, default=0)
    c_synth.add_argument("--out", required=True, help="output TSV")
    c_synth.add_argument("--manifest-out", help="template-id manifest (TSV)")

    c_stats = corpus.add_parser("stats", help="print corpus statistics")
    c_stats.add_argument("--tsv", required=True)

    c_split = corpus.add_parser("split", help="seeded equal split into N parts")
    c_split.add_argument("--tsv", required=True)
    c_split.add_argument("--parts", type=int, required=True)
    c_split.add_argument("--seed", type=int, default=0)
    c_split.add_argument("--out-dir", required=True)

    # index ------------------------------------------------------------------
    index = sub.add_parser("index", help="retrieval index").add_subparsers(
        dest="index_cmd", required=True)
    i_build = index.add_parser("build", help="build an index over a TSV datastore")
    i_build.add_argument("--tsv", required=True)
    i_build.add_argument("--out", required=True)

    # retrieve ---------------------------------------------------------------
    r = sub.add_parser("retrieve", help="fuzzy-match queries against an index")
    r.add_argument("--index", required=True)
    r.add_argument("--queries", required=True, help="one query sentence per line")
    r.add_argument("--topk", type=int, default=5)
    r.add_argument("--exclude-self", action="store_true",
                   help="drop token-identical sources (training-style retrieval)")
    r.add_argument("--out", help="write records here instead of stdout")

    # train ------------------------------------------------------------------
    t = sub.add_parser("train", help="train a model")
    t.add_argument("--tsv", required=True)
    t.add_argument("--arch", choices=ARCHITECTURES, default="dual_enc")
    t.add_argument("--mode", choices=TRAIN_MODES, default="none")
    t.add_argument("--datastore-tsv", help="TM datastore; defaults to the training TSV")
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--vocab", help="existing vocab file (default: build from TSV)")
    t.add_argument("--out", required=True, help="checkpoint path")
    t.add_argument("--vocab-out", help="write the vocab here (default: <out>.vocab)")
    t.add_argument("--quiet", action="store_true")
    _model_config_args(t)
    _train_config_args(t)

    # finetune-weight ----------------------------------------------------------
    fw = sub.add_parser("finetune-weight", help="fine-tune the weighted ensemble")
    fw.add_argument("--ckpt", required=True, help="single-TM checkpoint")
    fw.add_argument("--vocab", required=True)
    fw.add_argument("--valid-tsv", required=True)
    fw.add_argument("--datastore-tsv", required=True)
    fw.add_argument("--updates", type=int, default=2000)
    fw.add_argument("--topk", type=int, help="TMs per query (default: the checkpoint's k)")
    fw.add_argument("--seed", type=int, default=0)
    fw.add_argument("--out-ckpt", required=True)
    fw.add_argument("--out-weightnet", required=True)
    fw.add_argument("--curve-out", help="held-out loss curve TSV")

    # translate ----------------------------------------------------------------
    tr = sub.add_parser("translate", help="decode sentences")
    tr.add_argument("--mode", choices=PREDICT_MODES, default="single")
    tr.add_argument("--topk", type=int, default=5)
    tr.add_argument("--beam", type=int, default=1, help="beam width; 1 decodes greedily")
    tr.add_argument("--index", help="retrieval index (required unless --mode vanilla)")
    tr.add_argument("--ckpt", required=True)
    tr.add_argument("--vocab", required=True)
    tr.add_argument("--weightnet", help="weightnet checkpoint for --mode weighted")
    tr.add_argument("--input", required=True, help="source sentences, one per line")
    tr.add_argument("--out", required=True)
    tr.add_argument("--scores", action="store_true", help="append per-line score column")

    # eval ---------------------------------------------------------------------
    ev = sub.add_parser("eval", help="metrics").add_subparsers(dest="eval_cmd", required=True)
    e_bleu = ev.add_parser("bleu", help="corpus BLEU of hypothesis vs reference file")
    e_bleu.add_argument("--hyp", required=True)
    e_bleu.add_argument("--ref", required=True)
    e_bleu.add_argument("--json-lines", action="store_true")
    e_ppl = ev.add_parser("ppl", help="token cross entropy and perplexity")
    e_ppl.add_argument("--ckpt", required=True)
    e_ppl.add_argument("--vocab", required=True)
    e_ppl.add_argument("--tsv", required=True)
    e_ppl.add_argument("--mode", choices=PREDICT_MODES, default="vanilla")
    e_ppl.add_argument("--index")
    e_ppl.add_argument("--topk", type=int, default=5)
    e_ppl.add_argument("--weightnet")
    e_ppl.add_argument("--json-lines", action="store_true")

    # biasvar --------------------------------------------------------------------
    bv = sub.add_parser("biasvar", help="bias-variance decomposition over data splits")
    bv.add_argument("--tsv", required=True, help="training corpus")
    bv.add_argument("--test-tsv", required=True)
    bv.add_argument("--valid-tsv", help="needed when estimating the weighted model")
    bv.add_argument("--models", default="vanilla,base",
                    help="comma list from " + ",".join(PREDICT_MODES))
    bv.add_argument("--splits", type=int, default=4)
    bv.add_argument("--reps", type=int, default=1)
    bv.add_argument("--seed", type=int, default=0)
    bv.add_argument("--truncate", type=int, default=100)
    bv.add_argument("--finetune-updates", type=int, default=150)
    bv.add_argument("--out-csv", required=True)
    bv.add_argument("--out-report", help="key/value text report path")
    bv.add_argument("--quiet", action="store_true")
    _model_config_args(bv)
    _train_config_args(bv)

    # experiment -------------------------------------------------------------------
    ex = sub.add_parser("experiment", help="scenario harness")
    ex.add_argument("scenario", choices=("low-resource", "plug-and-play", "high-resource"))
    ex.add_argument("--config", help="JSON config file; flags override its values")
    ex.add_argument("--out-dir")
    ex.add_argument("--seed", type=int)
    ex.add_argument("--pairs", type=int, dest="synth_pairs")
    ex.add_argument("--templates", type=int, dest="synth_templates")
    ex.add_argument("--lexicon", type=int, dest="synth_lexicon")
    ex.add_argument("--corpus-tsv", dest="corpus_tsv")
    ex.add_argument("--epochs", type=int)
    ex.add_argument("--tm-epochs", type=int, dest="tm_epochs")
    ex.add_argument("--finetune-updates", type=int, dest="finetune_updates")
    ex.add_argument("--topk", type=int)
    ex.add_argument("--beam", type=int)
    ex.add_argument("--modes", help="comma list of prediction modes")
    ex.add_argument("--quiet", action="store_true")

    # rerun --------------------------------------------------------------------------
    rr = sub.add_parser("rerun", help="re-execute a recorded manifest")
    rr.add_argument("--manifest", required=True)

    return root


# ---------------------------------------------------------------------------
# Command bodies
# ---------------------------------------------------------------------------

def _cmd_corpus(a, argv) -> int:
    if a.corpus_cmd == "synth":
        task = synth_task(a.pairs, a.templates, a.lexicon, a.seed)
        save_tsv(task.corpus, a.out)
        if a.manifest_out:
            task.save_manifest(a.manifest_out)
        _write_manifest(argv, a.out)
        print(f"wrote {len(task.corpus)} pairs to {a.out}")
        return 0
    if a.corpus_cmd == "stats":
        for k, v in corpus_stats(load_tsv(a.tsv)).items():
            print(f"{k}: {v}")
        return 0
    if a.corpus_cmd == "split":
        corpus = load_tsv(a.tsv)
        parts = split_equal(corpus, a.parts, a.seed)
        out_dir = Path(a.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i, part in enumerate(parts, start=1):
            save_tsv(part, out_dir / f"part{i}.tsv")
        _write_manifest(argv, out_dir / "part1.tsv")
        print(f"wrote {a.parts} parts to {a.out_dir}")
        return 0
    raise UsageError(f"unknown corpus subcommand {a.corpus_cmd}")


def _cmd_index(a, argv) -> int:
    idx = build_index(load_tsv(a.tsv))
    save_index(idx, a.out)
    _write_manifest(argv, a.out)
    print(f"indexed {len(idx)} pairs into {a.out}")
    return 0


def _cmd_retrieve(a, argv) -> int:
    idx = load_index(a.index)
    lines = Path(a.queries).read_text(encoding="utf-8").splitlines()
    records = []
    for qid, line in enumerate(lines):
        q = tuple(tokenize(line))
        hits = retrieve_topk(idx, q, a.topk, exclude_exact=a.exclude_self)
        for z in hits:
            records.append(
                f"{qid}\t{z.pair_id}\t{z.similarity:.6f}\t"
                f"{' '.join(map(str, z.source))}\t{' '.join(map(str, z.target))}"
            )
    text = "\n".join(records) + ("\n" if records else "")
    if a.out:
        atomic_write_text(a.out, text)
        _write_manifest(argv, a.out)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_train(a, argv) -> int:
    corpus = load_tsv(a.tsv)
    vocab = Vocab.load(a.vocab) if a.vocab else build_vocab(
        ((p.source, p.target) for p in corpus), extra=(SEP_TOKEN,))
    datastore = load_tsv(a.datastore_tsv) if a.datastore_tsv else None
    ckpt = train(a.arch, corpus, a.mode, ModelConfig.from_attrs(a, len(vocab), a.arch),
                 TrainConfig.from_attrs(a), a.seed, vocab=vocab, datastore=datastore,
                 verbose=not a.quiet)
    save_checkpoint(ckpt, a.out)
    vocab_out = a.vocab_out or (a.out + ".vocab")
    vocab.save(vocab_out)
    _write_manifest(argv, a.out)
    print(f"checkpoint {a.out} (final loss {ckpt.meta['history'][-1]:.4f}), vocab {vocab_out}")
    return 0


def _cmd_finetune_weight(a, argv) -> int:
    vocab = Vocab.load(a.vocab)
    ckpt = load_checkpoint(a.ckpt, vocab)
    # the backbone's training settings, for checkpoints that record them
    tc = TrainConfig()
    k = ckpt.meta.get("k_retrieval", tc.k_retrieval) if a.topk is None else a.topk
    result = finetune_weighted(ckpt, load_tsv(a.valid_tsv), vocab,
                               load_tsv(a.datastore_tsv), updates=a.updates, seed=a.seed, k=k,
                               label_smoothing=ckpt.meta.get("label_smoothing", tc.label_smoothing))
    save_checkpoint(result.checkpoint, a.out_ckpt)
    save_weightnet(result.weightnet, a.out_weightnet,
                   {"d_model": result.checkpoint.config.d_model,
                    "vocab_hash": vocab.content_hash()})
    if a.curve_out:
        atomic_write_text(a.curve_out,
                          "\n".join(f"{u}\t{l:.6f}" for u, l in result.curve) + "\n")
    _write_manifest(argv, a.out_ckpt)
    print(f"selected update {result.selected_update}; "
          f"held-out loss {dict(result.curve)[result.selected_update]:.4f}")
    return 0


def _load_model(a):
    """The vocab, checkpoint, retrieval index and weightnet that `--mode` reads."""
    if a.mode != "vanilla" and not a.index:
        raise UsageError(f"--mode {a.mode} needs --index")
    if a.mode == "weighted" and not a.weightnet:
        raise UsageError("--mode weighted needs --weightnet")
    vocab = Vocab.load(a.vocab)
    ckpt = load_checkpoint(a.ckpt, vocab)
    index = load_index(a.index, vocab) if a.index else None
    wn = load_weightnet(a.weightnet)[0] if a.mode == "weighted" else None
    return vocab, ckpt, index, wn


def _cmd_translate(a, argv) -> int:
    vocab, ckpt, index, wn = _load_model(a)
    sep = vocab.sep_id if ckpt.config.arch != "vanilla" else None
    strategy = "greedy" if a.beam <= 1 else "beam"
    out_lines = []
    for line in Path(a.input).read_text(encoding="utf-8").splitlines():
        ids = vocab.encode(tokenize(line))
        toks, score = decode(a.mode, ckpt, ids, index, a.topk, sep, strategy=strategy,
                             beam_width=a.beam, weightnet=wn)
        text = " ".join(vocab.decode(toks))
        out_lines.append(f"{text}\t{score:.6f}" if a.scores else text)
    atomic_write_text(a.out, "\n".join(out_lines) + ("\n" if out_lines else ""))
    _write_manifest(argv, a.out)
    print(f"translated {len(out_lines)} lines to {a.out}")
    return 0


def _cmd_eval(a, argv) -> int:
    if a.eval_cmd == "bleu":
        hyps = [tokenize(l) for l in Path(a.hyp).read_text(encoding="utf-8").splitlines()]
        refs = [tokenize(l) for l in Path(a.ref).read_text(encoding="utf-8").splitlines()]
        r = corpus_bleu(hyps, refs)
        if a.json_lines:
            print(json.dumps({
                "bleu": round(r.score, 4),
                "precisions": [round(p, 6) for p in r.precisions],
                "brevity_penalty": round(r.brevity_penalty, 6),
                "hyp_len": r.hyp_len, "ref_len": r.ref_len,
            }, sort_keys=True))
        else:
            ps = " ".join(f"p{i + 1}={p:.4f}" for i, p in enumerate(r.precisions))
            print(f"BLEU = {r.score:.2f}  ({ps}, BP={r.brevity_penalty:.4f}, "
                  f"hyp_len={r.hyp_len}, ref_len={r.ref_len})")
        return 0
    if a.eval_cmd == "ppl":
        vocab, ckpt, index, wn = _load_model(a)
        nats, ppl = token_ce(ckpt, load_tsv(a.tsv), vocab, mode=a.mode, index=index,
                             k=a.topk, weightnet=wn)
        if a.json_lines:
            print(json.dumps({"nats_per_token": round(nats, 6), "ppl": round(ppl, 6)},
                             sort_keys=True))
        else:
            print(f"cross-entropy = {nats:.4f} nats/token  (ppl {ppl:.4f})")
        return 0
    raise UsageError(f"unknown eval subcommand {a.eval_cmd}")


def _cmd_biasvar(a, argv) -> int:
    corpus = load_tsv(a.tsv)
    test_pairs = load_tsv(a.test_tsv)
    valid = load_tsv(a.valid_tsv) if a.valid_tsv else None
    modes = [m.strip() for m in a.models.split(",") if m.strip()]
    for mode in modes:
        if mode not in PREDICT_MODES:
            raise UsageError(f"unknown model '{mode}'")
    vocab = build_vocab(((p.source, p.target) for p in corpus), extra=(SEP_TOKEN,))
    cfg = ModelConfig.from_attrs(a, len(vocab), "dual_enc")
    report = estimate_bias_variance(
        modes, corpus, test_pairs, valid_corpus=valid, config=cfg,
        train_cfg=TrainConfig.from_attrs(a), k_splits=a.splits, n_per_split=a.reps,
        seed=a.seed, truncate=a.truncate, finetune_updates=a.finetune_updates,
        verbose=not a.quiet,
    )
    lines = ["model,variant,loss,variance,bias2"]
    lines += [",".join(map(str, row)) for row in report.csv_rows()]
    atomic_write_text(a.out_csv, "\n".join(lines) + "\n")
    if a.out_report:
        atomic_write_text(a.out_report, report.to_text())
    _write_manifest(argv, a.out_csv)
    for e in report.entries:
        print(f"{e.model}: loss {e.loss:.4f}  var {e.var_forward:.4f}  bias2 {e.bias2_forward:.4f}")
    return 0


def _cmd_experiment(a, argv) -> int:
    base: dict = {}
    if a.config:
        try:
            base = json.loads(Path(a.config).read_text(encoding="utf-8"))
        except ValueError as e:
            raise DataError(f"{a.config}: not valid JSON ({e})") from None
        if type(base) is not dict:
            raise DataError(f"{a.config}: a config must be a JSON object")
    base["scenario"] = a.scenario.replace("-", "_")
    overrides = {
        "out_dir": a.out_dir, "seed": a.seed, "synth_pairs": a.synth_pairs,
        "synth_templates": a.synth_templates, "synth_lexicon": a.synth_lexicon,
        "corpus_tsv": a.corpus_tsv, "epochs": a.epochs, "tm_epochs": a.tm_epochs,
        "finetune_updates": a.finetune_updates, "topk": a.topk, "beam": a.beam,
    }
    for key, val in overrides.items():
        if val is not None:
            base[key] = val
    if a.modes is not None:
        base["modes"] = tuple(m.strip() for m in a.modes.split(",") if m.strip())
    if "out_dir" not in base:
        raise UsageError("--out-dir (or config key out_dir) is required")
    cfg = ExperimentConfig.from_dict(base)
    rows = run_experiment(cfg, verbose=not a.quiet)
    _write_manifest(argv, Path(cfg.out_dir) / "results.csv")
    for r in rows:
        print(f"{r['stage']}  {r['mode']:<9} BLEU {r['bleu']}  ppl {r['ppl']}")
    return 0


def _cmd_rerun(a, _argv) -> int:
    """Run the recorded argv in the recorded directory, so that its relative
    paths mean what they meant; a manifest without one runs here."""
    try:
        doc = json.loads(Path(a.manifest).read_text(encoding="utf-8"))
        argv, cwd = doc["argv"], doc.get("cwd")
    except (ValueError, KeyError, TypeError) as e:
        raise DataError(f"{a.manifest}: not a rerunnable manifest ({type(e).__name__}: {e})") from None
    if (not isinstance(argv, list) or not all(isinstance(t, str) for t in argv)
            or (argv and argv[0] == "rerun") or not isinstance(cwd, (str, type(None)))):
        raise DataError(f"{a.manifest}: not a rerunnable manifest")
    here = os.getcwd()
    try:
        os.chdir(cwd or here)
    except OSError:
        raise DataError(f"{a.manifest}: its run directory {cwd} is not available") from None
    try:
        return run(argv)
    finally:
        os.chdir(here)


# ---------------------------------------------------------------------------

def run(argv: list[str]) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "corpus": _cmd_corpus,
        "index": _cmd_index,
        "retrieve": _cmd_retrieve,
        "train": _cmd_train,
        "finetune-weight": _cmd_finetune_weight,
        "translate": _cmd_translate,
        "eval": _cmd_eval,
        "biasvar": _cmd_biasvar,
        "experiment": _cmd_experiment,
        "rerun": _cmd_rerun,
    }[args.command]
    return handler(args, list(argv))


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return run(argv)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except FileNotFoundError as e:
        print(f"data error: missing file {e.filename}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
