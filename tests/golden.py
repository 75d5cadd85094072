"""Golden outputs: SHA-256 digests of a fixed, tiny set of tmlab outputs.

`build()` trains, fine-tunes, scores and decodes at d_model 16 on a
60-pair synthetic task, and runs the CLI commands whose files a user
keeps (`finetune-weight`, `retrieve`, `translate`, `eval ppl`, `biasvar`,
`experiment low-resource`). `golden.json` stores each output's digest
together with the facts of the machine that made them; floating-point
results are only reproducible bit for bit on the same numpy, BLAS build,
BLAS thread count and CPU vector extensions. `conftest.py` pins a test
run's BLAS thread count to the one `golden.json` records.

    python tests/golden.py --write

rebuilds the digests, rewrites `golden.json` and prints the keys whose
digest changed. Run it when a change alters outputs on purpose, and name
those keys, with the reason, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tmlab.cli import main
from tmlab.corpus import BOS, SEP_TOKEN, build_vocab, encode_corpus, save_tsv, subset, synth_task
from tmlab.ensemble import (
    PREDICT_MODES,
    Family,
    decode,
    finetune_weighted,
    mode_seq_probs,
    tm_ids,
)
from tmlab.evalmetrics import token_ce
from tmlab.model import TRAIN_MODES, ModelConfig, TrainConfig, train
from tmlab.retrieval import build_index, retrieve_topk

GOLDEN = Path(__file__).with_name("golden.json")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

K = 2
TRAIN_CFG = TrainConfig(epochs=1, batch_size=16, warmup=5, k_retrieval=K)
SMALL = dict(d_model=16, n_heads=2, ffn_dim=24, n_src_layers=1, n_mem_layers=1,
             n_dec_layers=1, dropout=0.1)
SMALL_FLAGS = ["--d-model", "16", "--heads", "2", "--ffn", "24", "--src-layers", "1",
               "--mem-layers", "1", "--dec-layers", "1", "--epochs", "1",
               "--batch-size", "16", "--warmup", "5"]
MAX_NEW = 8          # decode cap of the library-level decodes


def machine_facts() -> dict:
    """What bitwise float results depend on beyond the code."""
    try:
        config = np.show_config(mode="dicts")
    except (TypeError, AttributeError):
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    env = [os.environ.get(v) for v in THREAD_VARS]
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        # OpenBLAS runs one thread per CPU unless a variable caps it
        "blas_threads": next((v for v in env if v), str(affinity)),
        "machine": platform.machine(),
        # numpy's loops and OpenBLAS's kernels are picked by the CPU's vector extensions
        "simd": " ".join(config.get("SIMD Extensions", {}).get("found", [])),
    }


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _params(params) -> str:
    return _sha(*(f"{k}:{p.data.dtype}:{p.data.shape}:".encode() + p.data.tobytes()
                  for k, p in sorted(params.items())))


def _repr(value) -> str:
    return _sha(repr(value).encode())


def _file(path: Path) -> str:
    return _sha(path.read_bytes())


def _library(out: dict) -> None:
    """Training, fine-tuning, teacher-forced probabilities, decoding and
    cross entropy through the library calls."""
    task = synth_task(90, 4, 8, seed=7).corpus
    corpus, valid, test = (subset(task, r) for r in (range(60), range(60, 80), range(80, 83)))
    vocab = build_vocab(((p.source, p.target) for p in task), extra=(SEP_TOKEN,))
    index = build_index(encode_corpus(corpus, vocab))
    ckpts = {}
    for arch, modes in (("vanilla", ("none",)), ("dual_enc", TRAIN_MODES),
                        ("single_enc", TRAIN_MODES)):
        cfg = ModelConfig(vocab_size=len(vocab), arch=arch, max_len=96, **SMALL)
        for mode in modes:
            ckpt = train(arch, corpus, mode, cfg, TRAIN_CFG, seed=3, vocab=vocab)
            out[f"train.{arch}.{mode}.params"] = _params(ckpt.params)
            out[f"train.{arch}.{mode}.history"] = _repr(ckpt.meta["history"])
            ckpts[arch, mode] = ckpt
    fine = {}
    for arch in ("dual_enc", "single_enc"):
        ft = finetune_weighted(ckpts[arch, "single_multi"], valid, vocab, corpus, updates=5,
                               seed=3, k=K, eval_every=2)
        out[f"finetune.{arch}.params"] = _params(ft.checkpoint.params)
        out[f"finetune.{arch}.weightnet"] = _params(ft.weightnet)
        out[f"finetune.{arch}.curve"] = _repr(ft.curve)
        out[f"finetune.{arch}.selected_update"] = _repr(ft.selected_update)
        fine[arch] = ft
    members = {("vanilla", "vanilla"): (ckpts["vanilla", "none"], None)}
    for arch in ("dual_enc", "single_enc"):
        family = Family({m: ckpts[arch, m] for m in TRAIN_MODES}, fine[arch])
        members.update(((arch, mode), family.member(mode)) for mode in PREDICT_MODES)
    enc_test = encode_corpus(test, vocab)
    for (arch, mode), (ckpt, wn) in members.items():
        sep = vocab.sep_id if arch != "vanilla" else None
        key = f"{arch}.{mode}"
        probs, greedy, beam = [], [], []
        for p in enc_test:
            Z = [tm_ids(z) for z in retrieve_topk(index, p.source, K)] if mode != "vanilla" else []
            probs.append(mode_seq_probs(mode, ckpt, sep, p.source, Z, (BOS,) + p.target, wn).tobytes())
            greedy.append(decode(mode, ckpt, p.source, index, K, sep, weightnet=wn,
                                 max_new=MAX_NEW))
            beam.append(decode(mode, ckpt, p.source, index, K, sep, strategy="beam",
                               beam_width=4, weightnet=wn, max_new=MAX_NEW))
        out[f"seq_probs.{key}"] = _sha(*probs)
        out[f"greedy.{key}"] = _repr(greedy)
        out[f"beam4.{key}"] = _repr(beam)
        out[f"token_ce.{key}"] = _repr(token_ce(ckpt, test, vocab, mode=mode, index=index,
                                               k=K, weightnet=wn))


def _cli(out: dict, d: Path) -> None:
    """The files and printed lines of the CLI commands users keep."""
    def run(*argv) -> str:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"tmlab {' '.join(map(str, argv))} exited {code}")
        return buf.getvalue()

    task = synth_task(130, 5, 8, seed=11).corpus
    save_tsv(subset(task, range(60)), d / "train.tsv")
    save_tsv(subset(task, range(60, 80)), d / "valid.tsv")
    save_tsv(subset(task, range(80, 84)), d / "test.tsv")
    (d / "in.txt").write_text("".join(" ".join(p.source) + "\n" for p in subset(task, range(80, 84))),
                              encoding="utf-8")
    run("train", "--tsv", d / "train.tsv", "--arch", "dual_enc", "--mode", "single_multi",
        "--topk", K, "--smoothing", "0.05", "--max-len", "24", "--seed", 0,
        "--out", d / "m.ckpt", "--quiet", *SMALL_FLAGS)
    run("finetune-weight", "--ckpt", d / "m.ckpt", "--vocab", d / "m.ckpt.vocab",
        "--valid-tsv", d / "valid.tsv", "--datastore-tsv", d / "train.tsv", "--updates", 3,
        "--seed", 0, "--out-ckpt", d / "mw.ckpt", "--out-weightnet", d / "wn.ckpt",
        "--curve-out", d / "curve.tsv")
    for name in ("mw.ckpt", "wn.ckpt", "curve.tsv"):
        out[f"cli.finetune_weight.{name}"] = _file(d / name)
    run("index", "build", "--tsv", d / "train.tsv", "--out", d / "train.idx")
    # four stored sources, which --exclude-self drops, and the four test sources
    (d / "q.txt").write_text("".join(" ".join(p.source) + "\n" for p in subset(task, range(4)))
                             + (d / "in.txt").read_text(encoding="utf-8"), encoding="utf-8")
    for name, flags in (("plain", ()), ("exclude_self", ("--exclude-self",))):
        run("retrieve", "--index", d / "train.idx", "--queries", d / "q.txt", "--topk", 3,
            *flags, "--out", d / f"hits.{name}.tsv")
        out[f"cli.retrieve.{name}"] = _file(d / f"hits.{name}.tsv")
    model = ["--mode", "weighted", "--topk", K, "--index", d / "train.idx", "--ckpt", d / "mw.ckpt",
             "--vocab", d / "m.ckpt.vocab", "--weightnet", d / "wn.ckpt"]
    run("translate", *model, "--input", d / "in.txt", "--out", d / "greedy.txt")
    out["cli.translate.greedy"] = _file(d / "greedy.txt")
    run("translate", *model, "--beam", 4, "--scores", "--input", d / "in.txt", "--out", d / "beam.txt")
    out["cli.translate.beam4_scores"] = _file(d / "beam.txt")
    out["cli.eval_ppl.json_lines"] = _sha(
        run("eval", "ppl", *model, "--tsv", d / "test.tsv", "--json-lines").encode())

    run("biasvar", "--tsv", d / "train.tsv", "--test-tsv", d / "test.tsv",
        "--valid-tsv", d / "valid.tsv", "--models", "vanilla,base,weighted", "--splits", 2,
        "--seed", 3, "--finetune-updates", 2, "--topk", K, "--max-len", "24",
        "--out-csv", d / "bv.csv", "--quiet", *SMALL_FLAGS)
    out["cli.biasvar.csv"] = _file(d / "bv.csv")

    cfg = {"n_valid": 20, "n_test": 6, "batch_size": 16, "warmup": 5, "max_len": 24,
           **SMALL}
    (d / "cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    run("experiment", "low-resource", "--config", d / "cfg.json", "--out-dir", d / "lr",
        "--seed", 1, "--pairs", 120, "--templates", 5, "--lexicon", 8, "--epochs", 1,
        "--tm-epochs", 1, "--finetune-updates", 2, "--topk", K, "--quiet")
    for f in sorted((d / "lr").iterdir()):
        if not f.name.endswith(".manifest.json"):
            out[f"cli.experiment.{f.name}"] = _file(f)


def build() -> dict[str, str]:
    """Every golden output's key and SHA-256 digest."""
    out: dict[str, str] = {}
    _library(out)
    with tempfile.TemporaryDirectory(prefix="tmlab-golden-") as d:
        _cli(out, Path(d))
    return out


def stored() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def differing(expected: dict[str, str], got: dict[str, str]) -> list[str]:
    return sorted(k for k in expected.keys() | got.keys() if expected.get(k) != got.get(k))


def write() -> None:
    old = stored()["digests"] if GOLDEN.exists() else {}
    digests = build()
    GOLDEN.write_text(json.dumps({"machine": machine_facts(), "digests": digests},
                                 indent=1, sort_keys=True) + "\n", encoding="utf-8")
    changed = differing(old, digests)
    print("\n".join(changed) if changed else "no digest changed")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/golden.py --write")
    write()
