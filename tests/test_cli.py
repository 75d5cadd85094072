import dataclasses
import json
import struct
import zlib
from pathlib import Path

import pytest

from tmlab import autodiff as ad
from tmlab import cli, ensemble, model
from tmlab.cli import build_parser, main
from tmlab.corpus import SEP_TOKEN, Vocab, build_vocab, load_tsv
from tmlab.ensemble import finetune_weighted, init_weightnet, save_weightnet
from tmlab.experiments import ExperimentConfig
from tmlab.model import ModelConfig, TrainConfig, load_checkpoint
from tmlab.retrieval import retrieve_topk


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def no_training(monkeypatch):
    """Fail the test at any call of `model.train`, under every name it is imported as."""
    def refuse(*args, **kwargs):
        raise AssertionError("model.train was called")

    for module in (cli, ensemble, model):
        monkeypatch.setattr(module, "train", refuse)


def test_usage_errors_exit_1(workdir, capsys):
    assert run("definitely-not-a-command") == 1
    assert run("corpus", "synth", "--pairs", "5") == 1          # missing required
    assert run("corpus", "synth", "--pairs", "5", "--templates", "1",
               "--lexicon", "2", "--out", "x.tsv", "--frobnicate") == 1  # unknown flag
    err = capsys.readouterr().err
    assert "usage error" in err


def test_help_exits_zero(workdir):
    with pytest.raises(SystemExit) as e:
        run("--help")
    assert e.value.code == 0
    with pytest.raises(SystemExit) as e:
        run("train", "--help")
    assert e.value.code == 0


def test_data_errors_exit_2(workdir, capsys):
    assert run("corpus", "stats", "--tsv", "missing.tsv") == 2
    Path("bad.tsv").write_text("no tab here\n", encoding="utf-8")
    assert run("corpus", "stats", "--tsv", "bad.tsv") == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", ['{"argv": ["corpus"', '{"cmd": []}', '["corpus"]',
                                      '{"argv": [1, 2]}', '{"argv": ["rerun"]}',
                                      '{"argv": ["corpus"], "cwd": 3}'])
def test_rerun_malformed_manifest_exits_2(workdir, capsys, manifest):
    Path("m.json").write_text(manifest, encoding="utf-8")
    assert run("rerun", "--manifest", "m.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: m.json: not a rerunnable manifest") and err.count("\n") == 1


def test_synth_split_index_retrieve_pipeline(workdir, capsys):
    assert run("corpus", "synth", "--pairs", "60", "--templates", "4", "--lexicon", "8",
               "--seed", "3", "--out", "c.tsv", "--manifest-out", "c.map.tsv") == 0
    assert load_tsv("c.tsv").pairs
    assert Path("c.map.tsv").exists()
    assert Path("c.tsv.manifest.json").exists()

    assert run("corpus", "stats", "--tsv", "c.tsv") == 0
    assert "pairs: 60" in capsys.readouterr().out

    assert run("corpus", "split", "--tsv", "c.tsv", "--parts", "3", "--seed", "1",
               "--out-dir", "parts") == 0
    sizes = [len(load_tsv(f"parts/part{i}.tsv")) for i in (1, 2, 3)]
    assert sum(sizes) == 60 and max(sizes) - min(sizes) <= 1

    assert run("index", "build", "--tsv", "c.tsv", "--out", "c.idx") == 0
    src0 = Path("c.tsv").read_text(encoding="utf-8").splitlines()[0].split("\t")[0]
    Path("q.txt").write_text(src0 + "\n", encoding="utf-8")
    assert run("retrieve", "--index", "c.idx", "--queries", "q.txt", "--topk", "3",
               "--out", "hits.tsv") == 0
    hits = Path("hits.tsv").read_text(encoding="utf-8").splitlines()
    assert len(hits) == 3
    first = hits[0].split("\t")
    assert first[0] == "0" and first[2] == "1.000000"

    # every command that writes a file leaves one manifest, beside its primary output
    assert run("retrieve", "--index", "c.idx", "--queries", "q.txt") == 0
    assert sorted(str(p) for p in Path(".").rglob("*.manifest.json")) == [
        "c.idx.manifest.json", "c.tsv.manifest.json", "hits.tsv.manifest.json",
        "parts/part1.tsv.manifest.json"]


def test_retrieve_exclude_self(workdir):
    run("corpus", "synth", "--pairs", "40", "--templates", "2", "--lexicon", "6",
        "--seed", "0", "--out", "c.tsv")
    run("index", "build", "--tsv", "c.tsv", "--out", "c.idx")
    src0 = Path("c.tsv").read_text(encoding="utf-8").splitlines()[0].split("\t")[0]
    Path("q.txt").write_text(src0 + "\n", encoding="utf-8")
    run("retrieve", "--index", "c.idx", "--queries", "q.txt", "--topk", "2",
        "--exclude-self", "--out", "h.tsv")
    for line in Path("h.tsv").read_text(encoding="utf-8").splitlines():
        assert line.split("\t")[3] != src0


TRAIN_FLAGS = ["--d-model", "16", "--heads", "2", "--ffn", "24", "--src-layers", "1",
               "--mem-layers", "1", "--dec-layers", "1", "--epochs", "1",
               "--batch-size", "16", "--warmup", "5"]


def test_train_translate_eval_roundtrip(workdir, capsys):
    run("corpus", "synth", "--pairs", "50", "--templates", "3", "--lexicon", "8",
        "--seed", "2", "--out", "c.tsv")
    assert run("train", "--tsv", "c.tsv", "--arch", "dual_enc", "--mode", "topk",
               "--topk", "2", "--seed", "0", "--out", "m.ckpt", "--quiet", *TRAIN_FLAGS) == 0
    assert Path("m.ckpt").exists() and Path("m.ckpt.vocab").exists()

    run("index", "build", "--tsv", "c.tsv", "--out", "c.idx")
    lines = Path("c.tsv").read_text(encoding="utf-8").splitlines()[:3]
    Path("in.txt").write_text("\n".join(l.split("\t")[0] for l in lines) + "\n", encoding="utf-8")
    Path("ref.txt").write_text("\n".join(l.split("\t")[1] for l in lines) + "\n", encoding="utf-8")
    assert run("translate", "--mode", "base", "--topk", "2", "--index", "c.idx",
               "--ckpt", "m.ckpt", "--vocab", "m.ckpt.vocab",
               "--input", "in.txt", "--out", "hyp.txt") == 0
    assert len(Path("hyp.txt").read_text(encoding="utf-8").splitlines()) == 3

    assert run("eval", "bleu", "--hyp", "ref.txt", "--ref", "ref.txt") == 0
    assert "BLEU = 100.00" in capsys.readouterr().out
    assert run("eval", "bleu", "--hyp", "hyp.txt", "--ref", "ref.txt", "--json-lines") == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) >= {"bleu", "precisions", "brevity_penalty"}

    assert run("eval", "ppl", "--ckpt", "m.ckpt", "--vocab", "m.ckpt.vocab",
               "--tsv", "c.tsv", "--mode", "base", "--index", "c.idx",
               "--topk", "2", "--json-lines") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["nats_per_token"] > 0


def test_rerun_from_another_directory(workdir, monkeypatch, capsys):
    run("corpus", "synth", "--pairs", "40", "--templates", "3", "--lexicon", "8",
        "--seed", "2", "--out", "c.tsv")
    assert run("train", "--tsv", "c.tsv", "--arch", "dual_enc", "--mode", "topk",
               "--topk", "2", "--seed", "0", "--out", "m.ckpt", "--quiet", *TRAIN_FLAGS) == 0
    run("index", "build", "--tsv", "c.tsv", "--out", "c.idx")
    Path("in.txt").write_text("\n".join(l.split("\t")[0] for l in Path("c.tsv").read_text(
        encoding="utf-8").splitlines()[:3]) + "\n", encoding="utf-8")
    assert run("translate", "--mode", "base", "--topk", "2", "--index", "c.idx",
               "--ckpt", "m.ckpt", "--vocab", "m.ckpt.vocab",
               "--input", "in.txt", "--out", "hyp.txt") == 0
    first = Path("hyp.txt").read_bytes()
    Path("hyp.txt").unlink()
    (workdir / "elsewhere").mkdir()
    monkeypatch.chdir(workdir / "elsewhere")
    assert run("rerun", "--manifest", "../hyp.txt.manifest.json") == 0
    assert (workdir / "hyp.txt").read_bytes() == first
    assert Path.cwd() == workdir / "elsewhere" and not Path("hyp.txt").exists()

    # a manifest without the directory runs where it is called, as before
    doc = json.loads((workdir / "hyp.txt.manifest.json").read_text(encoding="utf-8"))
    del doc["cwd"]
    Path("m.json").write_text(json.dumps(doc), encoding="utf-8")
    capsys.readouterr()
    assert run("rerun", "--manifest", "m.json") == 2
    assert "missing file" in capsys.readouterr().err


def test_translate_bad_input_exits_2(workdir, capsys):
    run("corpus", "synth", "--pairs", "40", "--templates", "3", "--lexicon", "8",
        "--seed", "2", "--out", "c.tsv")
    assert run("train", "--tsv", "c.tsv", "--arch", "dual_enc", "--mode", "topk",
               "--topk", "2", "--seed", "0", "--out", "m.ckpt", "--quiet", *TRAIN_FLAGS) == 0
    run("index", "build", "--tsv", "c.tsv", "--out", "c.idx")
    common = ["--index", "c.idx", "--ckpt", "m.ckpt", "--vocab", "m.ckpt.vocab", "--out", "h.txt"]
    Path("in.txt").write_text("s1 s2\n\ns3\n", encoding="utf-8")
    capsys.readouterr()
    assert run("translate", "--mode", "base", "--topk", "2", "--input", "in.txt", *common) == 2
    err = capsys.readouterr().err
    assert "empty source" in err and len(err.strip().splitlines()) == 1
    Path("in.txt").write_text("s1 s2\n", encoding="utf-8")
    assert run("translate", "--mode", "average", "--topk", "0", "--input", "in.txt", *common) == 2
    assert "at least one TM" in capsys.readouterr().err
    # a stored token that cannot be hashed fails in the vocab lookup
    body = zlib.compress(b'{"sources": [["a", ["b"]]], "targets": [["x"]]}')
    Path("bad.idx").write_bytes(b"TMIDX1\x00" + struct.pack("<I", len(body)) + body)
    assert run("translate", "--mode", "base", "--topk", "2", "--input", "in.txt",
               *common[2:], "--index", "bad.idx") == 2
    assert "corrupt TMIDX1 index" in capsys.readouterr().err


def test_weighted_with_a_non_weightnet_file_exits_2(workdir, capsys):
    run("corpus", "synth", "--pairs", "40", "--templates", "3", "--lexicon", "8",
        "--seed", "2", "--out", "c.tsv")
    assert run("train", "--tsv", "c.tsv", "--arch", "dual_enc", "--mode", "single_multi",
               "--topk", "2", "--seed", "0", "--out", "m.ckpt", "--quiet", *TRAIN_FLAGS) == 0
    run("index", "build", "--tsv", "c.tsv", "--out", "c.idx")
    Path("in.txt").write_text("s1 s2\n", encoding="utf-8")
    # the model checkpoint is a TMLAB1 file without any wn.* tensor
    common = ["--mode", "weighted", "--weightnet", "m.ckpt", "--index", "c.idx",
              "--topk", "2", "--ckpt", "m.ckpt", "--vocab", "m.ckpt.vocab"]
    capsys.readouterr()
    assert run("translate", *common, "--input", "in.txt", "--out", "h.txt") == 2
    assert run("eval", "ppl", *common, "--tsv", "c.tsv") == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 2 and all("not a weightnet file" in line for line in lines)


@pytest.fixture(scope="module")
def base_model(tmp_path_factory):
    """A one-epoch dual-encoder checkpoint, its vocab, corpus and index, by absolute path."""
    d = tmp_path_factory.mktemp("base_model")
    assert main(["corpus", "synth", "--pairs", "40", "--templates", "3", "--lexicon", "8",
                 "--seed", "2", "--out", str(d / "c.tsv")]) == 0
    assert main(["train", "--tsv", str(d / "c.tsv"), "--arch", "dual_enc", "--mode", "topk",
                 "--topk", "2", "--seed", "0", "--out", str(d / "m.ckpt"), "--quiet",
                 *TRAIN_FLAGS]) == 0
    assert main(["index", "build", "--tsv", str(d / "c.tsv"), "--out", str(d / "c.idx")]) == 0
    return d


@pytest.mark.parametrize("edit, reason", [
    pytest.param(None, "not a model checkpoint (config: KeyError", id="a-weightnet"),
    pytest.param(lambda arrays, meta: arrays.pop("gate.w"), "tensor 'gate.w'", id="no-gate-w"),
    pytest.param(lambda arrays, meta: meta["config"].update(mystery=1),
                 "not a model checkpoint (config: TypeError", id="unknown-config-key"),
    pytest.param(lambda arrays, meta: meta["config"].update(d_model=32), "tensor 'dec.lnf_b'",
                 id="config-wider-than-its-tensors"),
    pytest.param(lambda arrays, meta: meta["config"].update(d_model=0), "must all be >= 1",
                 id="zero-width-config"),
    pytest.param(lambda arrays, meta: meta["config"].update(vocab_size=-1), "tensor 'emb'",
                 id="negative-vocab"),
    pytest.param(lambda arrays, meta: meta["config"].update(d_model=16.0), "must be integers",
                 id="float-width"),
    # sizes no memory holds are refused before any tensor of that size is built
    pytest.param(lambda arrays, meta: meta["config"].update(d_model=2**40, ffn_dim=2**40),
                 "tensor 'dec.lnf_b'", id="huge-width"),
    pytest.param(lambda arrays, meta: meta["config"].update(n_dec_layers=10**12),
                 "tensor 'dec.lnf_b'", id="huge-depth"),
    pytest.param(lambda arrays, meta: meta["config"].update(n_src_layers=-1, n_dec_layers=3),
                 "layer counts must be >= 0", id="negative-depth"),
    pytest.param(lambda arrays, meta: arrays.pop("dec0.ffn.w1"), "tensor 'dec0.ffn.w1'",
                 id="a-layer-without-its-ffn"),
])
def test_a_checkpoint_tmlab_cannot_run_exits_2(workdir, base_model, capsys, edit, reason):
    if edit is None:
        save_weightnet(init_weightnet(16, 0), "bad.ckpt", {"d_model": 16})
    else:
        arrays, meta = ad.load_arrays(base_model / "m.ckpt")
        edit(arrays, meta)
        ad.save_arrays("bad.ckpt", arrays, meta)
    capsys.readouterr()
    assert run("eval", "ppl", "--ckpt", "bad.ckpt", "--vocab", str(base_model / "m.ckpt.vocab"),
               "--tsv", str(base_model / "c.tsv")) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: bad.ckpt: ") and reason in err and err.count("\n") == 1


def test_a_weightnet_for_another_vocab_exits_2(workdir, base_model, capsys):
    other = build_vocab([(["zz"], ["qq"])], extra=(SEP_TOKEN,))
    save_weightnet(init_weightnet(16, 0), "wn.ckpt",
                   {"d_model": 16, "vocab_hash": other.content_hash()})
    Path("in.txt").write_text("fs1 s2\n", encoding="utf-8")
    common = ["--mode", "weighted", "--weightnet", "wn.ckpt", "--topk", "2",
              "--index", str(base_model / "c.idx"), "--ckpt", str(base_model / "m.ckpt"),
              "--vocab", str(base_model / "m.ckpt.vocab")]
    capsys.readouterr()
    assert run("translate", *common, "--input", "in.txt", "--out", "h.txt") == 2
    assert run("eval", "ppl", *common, "--tsv", str(base_model / "c.tsv")) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 2 and all(l.startswith("data error: wn.ckpt: vocab mismatch") for l in lines)


def test_a_non_list_index_entry_exits_2(workdir, capsys):
    body = zlib.compress(b'{"sources": ["fs1 s2"], "targets": [["x"]]}')
    Path("bad.idx").write_bytes(b"TMIDX1\x00" + struct.pack("<I", len(body)) + body)
    Path("q.txt").write_text("fs1 s2\n", encoding="utf-8")
    capsys.readouterr()
    assert run("retrieve", "--index", "bad.idx", "--queries", "q.txt") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: bad.idx: corrupt TMIDX1 index") and err.count("\n") == 1


@pytest.mark.parametrize("body, error", [
    (b'{"sources": [], "targets": []}', "cannot index an empty corpus"),
    (b'{"sources": [["s1"], ["s2"]], "targets": [["x"], []]}', "pair 1: empty source or target"),
])
def test_an_index_with_an_empty_side_exits_2(workdir, capsys, body, error):
    packed = zlib.compress(body)
    Path("bad.idx").write_bytes(b"TMIDX1\x00" + struct.pack("<I", len(packed)) + packed)
    Path("q.txt").write_text("s1\n", encoding="utf-8")
    capsys.readouterr()
    assert run("retrieve", "--index", "bad.idx", "--queries", "q.txt") == 2
    assert capsys.readouterr().err == f"data error: bad.idx: {error}\n"


def test_an_empty_query_line_exits_2_before_any_output(workdir, capsys):
    Path("c.tsv").write_text("s1 s2\tt1\ns3\tt2\n", encoding="utf-8")
    run("index", "build", "--tsv", "c.tsv", "--out", "c.idx")
    Path("q.txt").write_text("s1 s2\n  \ns3\n", encoding="utf-8")
    capsys.readouterr()
    assert run("retrieve", "--index", "c.idx", "--queries", "q.txt", "--out", "hits.tsv") == 2
    assert capsys.readouterr().err == "data error: q.txt: line 2: empty query\n"
    assert not Path("hits.tsv").exists()
    assert run("retrieve", "--index", "c.idx", "--queries", "q.txt") == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "data error: q.txt: line 2: empty query\n"


def test_eval_ppl_on_an_empty_corpus_exits_2(workdir, base_model, capsys):
    Path("empty.tsv").write_text("", encoding="utf-8")
    capsys.readouterr()
    assert run("eval", "ppl", "--ckpt", str(base_model / "m.ckpt"),
               "--vocab", str(base_model / "m.ckpt.vocab"), "--tsv", "empty.tsv") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


BAD_UTF8 = b"s1 \xff\xfe s2\n"


def _one_data_error_line(err: str, name: str) -> bool:
    return err.startswith(f"data error: {name}") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["corpus", "stats", "--tsv", "adir"],
    ["index", "build", "--tsv", "adir", "--out", "c.idx"],
    ["retrieve", "--index", "adir", "--queries", "q.txt"],
    ["eval", "bleu", "--hyp", "adir", "--ref", "q.txt"],
], ids=["corpus-stats-tsv", "index-build-tsv", "retrieve-index", "eval-bleu-hyp"])
def test_a_directory_given_as_an_input_file_exits_2(workdir, capsys, command):
    Path("adir").mkdir()
    Path("q.txt").write_text("s1 s2\n", encoding="utf-8")
    assert run(*command) == 2
    err = capsys.readouterr().err
    assert _one_data_error_line(err, "adir: ") and "directory" in err


def test_a_directory_given_as_an_output_exits_2_and_leaves_no_temp_file(workdir, capsys):
    run("corpus", "synth", "--pairs", "20", "--templates", "2", "--lexicon", "5",
        "--seed", "0", "--out", "c.tsv")
    Path("adir").mkdir()
    before = sorted(p.name for p in workdir.iterdir())
    capsys.readouterr()
    assert run("index", "build", "--tsv", "c.tsv", "--out", "adir") == 2
    err = capsys.readouterr().err
    assert _one_data_error_line(err, "adir: ") and "directory" in err
    assert sorted(p.name for p in workdir.iterdir()) == before and not any(Path("adir").iterdir())


@pytest.mark.parametrize("flag", ["--hyp", "--queries", "--input"])
def test_invalid_utf8_in_a_text_input_exits_2(workdir, base_model, capsys, flag):
    Path("bad.txt").write_bytes(BAD_UTF8)
    Path("ok.txt").write_text("s1 s2\n", encoding="utf-8")
    command = {
        "--hyp": ["eval", "bleu", "--hyp", "bad.txt", "--ref", "ok.txt"],
        "--queries": ["retrieve", "--index", str(base_model / "c.idx"), "--queries", "bad.txt"],
        "--input": ["translate", "--mode", "base", "--index", str(base_model / "c.idx"),
                    "--ckpt", str(base_model / "m.ckpt"), "--vocab",
                    str(base_model / "m.ckpt.vocab"), "--input", "bad.txt", "--out", "h.txt"],
    }[flag]
    capsys.readouterr()
    assert run(*command) == 2
    assert _one_data_error_line(capsys.readouterr().err, "bad.txt: not valid UTF-8")
    assert not Path("h.txt").exists()


# every file argument names a file that does not exist: a flag refused at
# parse time exits 1, and one read first would exit 2 (missing file)
MISSING_INPUTS = {
    "translate": ["translate", "--ckpt", "no.ckpt", "--vocab", "no.vocab", "--input", "no.txt",
                  "--out", "h.txt", "--mode", "vanilla"],
    "experiment": ["experiment", "low-resource", "--out-dir", "x", "--corpus-tsv", "no.tsv"],
    "finetune-weight": ["finetune-weight", "--ckpt", "no.ckpt", "--vocab", "no.vocab",
                        "--valid-tsv", "no.tsv", "--datastore-tsv", "no.tsv",
                        "--out-ckpt", "o.ckpt", "--out-weightnet", "o.wn"],
    "biasvar": ["biasvar", "--tsv", "no.tsv", "--test-tsv", "no.tsv", "--out-csv", "bv.csv"],
}


@pytest.mark.parametrize("command, flags, accepted, reason", [
    pytest.param("translate", ["--beam", "-3"], ["--beam", "1"], "--beam: must be >= 1, got -3",
                 id="translate-beam-negative"),
    pytest.param("experiment", ["--beam", "-3"], ["--beam", "1"], "--beam: must be >= 1, got -3",
                 id="experiment-beam-negative"),
    pytest.param("finetune-weight", ["--updates", "-1"], ["--updates", "0"],
                 "--updates: must be >= 0, got -1", id="updates-negative"),
    pytest.param("biasvar", ["--truncate", "0"], ["--truncate", "1"],
                 "--truncate: must be >= 1, got 0", id="truncate-0"),
    pytest.param("biasvar", ["--models", ""], ["--models", "vanilla"], "--models: names no model",
                 id="models-empty"),
    pytest.param("experiment", ["--modes", " , "], ["--modes", "vanilla"],
                 "--modes: names no model", id="experiment-modes-empty"),
    pytest.param("biasvar", ["--truncate", "x"], ["--truncate", "100"],
                 "--truncate: invalid int value: 'x'", id="truncate-not-an-int"),
])
def test_a_nonsense_flag_exits_1_before_any_file_is_read(workdir, capsys, no_training, command,
                                                        flags, accepted, reason):
    assert run(*MISSING_INPUTS[command], *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and reason in err and err.count("\n") == 1
    # the least value the flag takes passes the parser and reaches the missing file
    assert run(*MISSING_INPUTS[command], *accepted) == 2
    assert "missing file no." in capsys.readouterr().err
    assert not Path("x").exists()


@pytest.mark.parametrize("mode, given, missing", [
    ("base", [], "--index"),
    ("weighted", ["--index", "c.idx"], "--weightnet"),
])
@pytest.mark.parametrize("command", [["translate", "--input", "c.tsv", "--out", "h.txt"],
                                     ["eval", "ppl", "--tsv", "c.tsv"]],
                         ids=["translate", "eval-ppl"])
def test_a_mode_without_its_model_input_is_a_usage_error(base_model, monkeypatch, capsys,
                                                          command, mode, given, missing):
    monkeypatch.chdir(base_model)
    capsys.readouterr()
    assert run(*command, "--mode", mode, "--ckpt", "m.ckpt", "--vocab", "m.ckpt.vocab",
               *given) == 1
    assert capsys.readouterr().err == f"usage error: --mode {mode} needs {missing}\n"


@pytest.mark.parametrize("command", [["translate", "--input", "in.txt", "--out", "h.txt"],
                                     ["eval", "ppl", "--tsv", "c.tsv"]],
                         ids=["translate", "eval-ppl"])
def test_decoding_without_topk_reads_the_checkpoints_k(base_model, monkeypatch, command):
    # base_model trained on 2 joint TMs, not TrainConfig's 5
    monkeypatch.chdir(base_model)
    Path("in.txt").write_text("s1 s2\n", encoding="utf-8")
    ks = []

    def spy(index, x, k, *args, **kwargs):
        ks.append(k)
        return retrieve_topk(index, x, k, *args, **kwargs)

    monkeypatch.setattr(ensemble, "retrieve_topk", spy)
    assert run(*command, "--mode", "base", "--index", "c.idx", "--ckpt", "m.ckpt",
               "--vocab", "m.ckpt.vocab") == 0
    assert ks and set(ks) == {2}


def test_parsed_defaults_are_the_config_dataclasses(workdir):
    parser = build_parser()
    for argv in (["train", "--tsv", "c.tsv", "--out", "m.ckpt"],
                 ["biasvar", "--tsv", "c.tsv", "--test-tsv", "c.tsv", "--out-csv", "bv.csv"]):
        a = parser.parse_args(argv)
        arch = getattr(a, "arch", "dual_enc")
        assert ModelConfig.from_attrs(a, 7, arch) == ModelConfig(vocab_size=7, arch=arch)
        assert TrainConfig.from_attrs(a) == TrainConfig()
    # a scenario trains with its own epochs and learning rate, and every other setting's default
    experiment = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    shared = {**{f.name: f.default for f in dataclasses.fields(ModelConfig)
                 if f.name not in ("vocab_size", "arch")},
              **{f.name: f.default for f in dataclasses.fields(TrainConfig)
                 if f.name not in ("epochs", "base_lr", "k_retrieval")},
              "topk": TrainConfig().k_retrieval}
    assert len(shared) == 12
    assert {name: experiment[name] for name in shared} == shared


def test_finetune_weight_cli(workdir):
    run("corpus", "synth", "--pairs", "60", "--templates", "3", "--lexicon", "8",
        "--seed", "4", "--out", "c.tsv")
    run("corpus", "split", "--tsv", "c.tsv", "--parts", "2", "--seed", "0",
        "--out-dir", "parts")
    assert run("train", "--tsv", "parts/part1.tsv", "--arch", "dual_enc",
               "--mode", "single_multi", "--topk", "2", "--seed", "0",
               "--out", "m.ckpt", "--quiet", *TRAIN_FLAGS) == 0
    assert run("finetune-weight", "--ckpt", "m.ckpt", "--vocab", "m.ckpt.vocab",
               "--valid-tsv", "parts/part2.tsv", "--datastore-tsv", "parts/part1.tsv",
               "--updates", "2", "--topk", "2", "--seed", "0",
               "--out-ckpt", "mw.ckpt", "--out-weightnet", "wn.ckpt",
               "--curve-out", "curve.tsv") == 0
    assert Path("wn.ckpt").exists()
    curve = Path("curve.tsv").read_text(encoding="utf-8").splitlines()
    assert curve[0].startswith("0\t")


def test_finetune_weight_follows_its_backbone(workdir, capsys):
    # trained with k = 2 and smoothing 0.05, not TrainConfig's defaults of 5 and 0.1
    run("corpus", "synth", "--pairs", "60", "--templates", "3", "--lexicon", "8",
        "--seed", "4", "--out", "c.tsv")
    run("corpus", "split", "--tsv", "c.tsv", "--parts", "2", "--seed", "0",
        "--out-dir", "parts")
    assert run("train", "--tsv", "parts/part1.tsv", "--arch", "dual_enc",
               "--mode", "single_multi", "--topk", "2", "--smoothing", "0.05", "--seed", "0",
               "--out", "m.ckpt", "--quiet", *TRAIN_FLAGS) == 0
    common = ["finetune-weight", "--ckpt", "m.ckpt", "--vocab", "m.ckpt.vocab",
              "--valid-tsv", "parts/part2.tsv", "--datastore-tsv", "parts/part1.tsv",
              "--updates", "2", "--seed", "0", "--out-ckpt", "mw.ckpt",
              "--out-weightnet", "wn.ckpt"]
    assert run(*common, "--curve-out", "curve.tsv") == 0
    vocab = Vocab.load("m.ckpt.vocab")

    def curve(smoothing=None, **given) -> str:
        ckpt = load_checkpoint("m.ckpt", vocab)
        if smoothing is not None:
            ckpt.meta["label_smoothing"] = smoothing
        ft = finetune_weighted(ckpt, load_tsv("parts/part2.tsv"), vocab,
                               load_tsv("parts/part1.tsv"), updates=2, seed=0, **given)
        return "".join(f"{u}\t{l:.6f}\n" for u, l in ft.curve)

    # the library's defaults are the backbone's settings too, not TrainConfig's
    written = Path("curve.tsv").read_text(encoding="utf-8")
    assert written == curve() == curve(k=2)
    assert written != curve(k=5)
    assert written != curve(smoothing=0.1)

    capsys.readouterr()
    assert run(*common, "--topk", "0") == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1


def test_biasvar_cli_and_rerun_identical(workdir):
    run("corpus", "synth", "--pairs", "70", "--templates", "4", "--lexicon", "8",
        "--seed", "5", "--out", "c.tsv")
    run("corpus", "split", "--tsv", "c.tsv", "--parts", "7", "--seed", "1",
        "--out-dir", "parts")
    args = ["biasvar", "--tsv", "parts/part1.tsv", "--test-tsv", "parts/part7.tsv",
            "--models", "vanilla,base", "--splits", "2", "--seed", "3",
            "--out-csv", "bv.csv", "--out-report", "bv.txt", "--quiet",
            "--topk", "2", *TRAIN_FLAGS]
    assert run(*args) == 0
    first = Path("bv.csv").read_bytes()
    assert first.decode().startswith("model,variant,loss,variance,bias2")
    assert "bias_variance_report" in Path("bv.txt").read_text(encoding="utf-8")

    assert run("rerun", "--manifest", "bv.csv.manifest.json") == 0
    assert Path("bv.csv").read_bytes() == first


def test_experiment_low_resource_and_rerun(workdir):
    args = ["experiment", "low-resource", "--out-dir", "lr", "--seed", "1",
            "--pairs", "120", "--templates", "6", "--lexicon", "8",
            "--epochs", "1", "--tm-epochs", "1", "--finetune-updates", "2",
            "--topk", "2", "--modes", "vanilla,single", "--quiet"]
    # shrink further via config file; flags win over config values
    cfg = {"n_valid": 20, "n_test": 10, "d_model": 16, "n_heads": 2, "ffn_dim": 24,
           "n_src_layers": 1, "n_mem_layers": 1, "n_dec_layers": 1,
           "epochs": 9, "batch_size": 16, "warmup": 5, "out_dir": "ignored"}
    Path("cfg.json").write_text(json.dumps(cfg), encoding="utf-8")
    assert run(*args, "--config", "cfg.json") == 0
    csv1 = Path("lr/results.csv").read_bytes()
    lines = csv1.decode().splitlines()
    assert lines[0] == "stage,mode,bleu,ppl"
    assert [l.split(",")[1] for l in lines[1:]] == ["vanilla", "single"]
    assert all(l.startswith("1/4,") for l in lines[1:])

    assert run("rerun", "--manifest", "lr/results.csv.manifest.json") == 0
    assert Path("lr/results.csv").read_bytes() == csv1


@pytest.mark.parametrize("text, code", [
    pytest.param('{"mystery_knob": 1}', 1, id="unknown-key"),
    pytest.param('{"epochs": 3', 2, id="malformed-json"),
    pytest.param('[1, 2]', 2, id="not-an-object"),
    pytest.param('{"epochs": "x"}', 2, id="wrong-type"),
    pytest.param('{"epochs": true}', 2, id="bool-for-int"),
    pytest.param('{"modes": "vanilla"}', 2, id="modes-not-a-list"),
    pytest.param('{"modes": []}', 1, id="no-modes"),
    pytest.param('{"corpus_tsv": 5}', 2, id="number-for-path"),
])
def test_experiment_rejects_unknown_config_keys(workdir, capsys, text, code):
    Path("cfg.json").write_text(text, encoding="utf-8")
    assert run("experiment", "low-resource", "--out-dir", "x", "--config", "cfg.json") == code
    assert len(capsys.readouterr().err.strip().splitlines()) == 1
    assert not Path("x").exists()


@pytest.mark.parametrize("flags, config, reason", [
    pytest.param(["--epochs", "0"], {}, "epochs, batch_size and warmup", id="epochs-0"),
    pytest.param(["--tm-epochs", "0"], {}, "epochs, batch_size and warmup", id="tm-epochs-0"),
    pytest.param([], {"warmup": 0}, "epochs, batch_size and warmup", id="warmup-0"),
    pytest.param([], {"batch_size": 0}, "epochs, batch_size and warmup", id="batch-size-0"),
    pytest.param([], {"dropout": 1.0}, "dropout must be in [0, 1)", id="dropout-1"),
    pytest.param([], {"base_lr": -1}, "learning rate must be > 0", id="negative-lr"),
    pytest.param(["--topk", "0"], {}, "k_retrieval must be >= 1, got 0", id="topk-0"),
    pytest.param([], {"label_smoothing": 1.0}, "label smoothing must be in [0, 1)",
                 id="smoothing-1"),
    pytest.param([], {"n_test": 0}, "n_test must be >= 1, got 0", id="n-test-0"),
    pytest.param([], {"n_valid": -5, "n_test": 20}, "n_valid must be >= 0, got -5",
                 id="negative-n-valid"),
    pytest.param([], {"n_valid": 9}, "n_valid 9 is too few for the weighted fine-tune",
                 id="n-valid-below-the-finetune"),
    pytest.param(["--pairs", "50"], {"n_valid": 40, "n_test": 20},
                 "corpus of 50 pairs cannot spare 40 valid + 20 test", id="synth-corpus-too-small"),
    pytest.param([], {"beam": -3}, "beam must be >= 1, got -3", id="config-beam-negative"),
    pytest.param([], {"finetune_updates": -1}, "finetune_updates must be >= 0, got -1",
                 id="config-updates-negative"),
])
def test_an_experiment_setting_that_cannot_train_exits_2_before_writing(workdir, capsys,
                                                                        no_training, flags,
                                                                        config, reason):
    Path("cfg.json").write_text(json.dumps(config), encoding="utf-8")
    assert run("experiment", "low-resource", "--out-dir", "x", "--config", "cfg.json",
               "--quiet", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and reason in err and err.count("\n") == 1
    assert not Path("x").exists()


@pytest.mark.parametrize("flags, reason", [
    pytest.param(["--warmup", "0"], "warmup must all be >= 1", id="warmup-0"),
    pytest.param(["--epochs", "0"], "epochs, batch_size and warmup", id="epochs-0"),
    pytest.param(["--batch-size", "0"], "epochs, batch_size and warmup", id="batch-size-0"),
    pytest.param(["--dropout", "1.0"], "dropout must be in [0, 1)", id="dropout-1"),
    pytest.param(["--dropout", "-0.5"], "dropout must be in [0, 1)", id="negative-dropout"),
    pytest.param(["--lr", "-1"], "learning rate must be > 0", id="negative-lr"),
    pytest.param(["--topk", "0"], "k_retrieval must be >= 1, got 0", id="topk-0"),
    pytest.param(["--smoothing", "1.0"], "label smoothing must be in [0, 1)", id="smoothing-1"),
    pytest.param(["--smoothing", "-0.1"], "label smoothing must be in [0, 1)",
                 id="negative-smoothing"),
])
@pytest.mark.parametrize("command", [
    ["train", "--arch", "vanilla", "--out", "m.ckpt"],
    ["train", "--arch", "dual_enc", "--mode", "topk", "--out", "m.ckpt"],
    ["biasvar", "--test-tsv", "c.tsv", "--out-csv", "m.ckpt"],
], ids=["train", "train-tm", "biasvar"])
def test_a_training_setting_that_cannot_train_exits_2(workdir, capsys, no_training, command, flags,
                                                      reason):
    run("corpus", "synth", "--pairs", "20", "--templates", "2", "--lexicon", "5",
        "--seed", "0", "--out", "c.tsv")
    capsys.readouterr()
    assert run(*command, "--tsv", "c.tsv", "--quiet", *TRAIN_FLAGS, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and reason in err and err.count("\n") == 1
    assert not Path("m.ckpt").exists()


def test_biasvar_refuses_a_valid_corpus_too_small_to_finetune_before_training(workdir, capsys,
                                                                             no_training):
    run("corpus", "synth", "--pairs", "29", "--templates", "2", "--lexicon", "5",
        "--seed", "0", "--out", "c.tsv")
    Path("valid.tsv").write_text("".join(Path("c.tsv").read_text(encoding="utf-8")
                                         .splitlines(keepends=True)[:9]), encoding="utf-8")
    capsys.readouterr()
    assert run("biasvar", "--tsv", "c.tsv", "--test-tsv", "c.tsv", "--valid-tsv", "valid.tsv",
               "--models", "vanilla,weighted", "--splits", "2", "--out-csv", "bv.csv",
               "--quiet", *TRAIN_FLAGS) == 2
    err = capsys.readouterr().err
    assert err == "data error: valid corpus has 9 pairs; the weighted fine-tune needs at least 10\n"
    assert not Path("bv.csv").exists()


def test_an_experiment_without_weighted_takes_no_valid_pairs(workdir, no_training):
    # n_valid 0 is refused only when the weighted fine-tune would need the pairs:
    # here the run gets as far as training
    Path("cfg.json").write_text('{"n_valid": 0}', encoding="utf-8")
    with pytest.raises(AssertionError, match="model.train was called"):
        run("experiment", "low-resource", "--out-dir", "x", "--pairs", "120", "--templates", "4",
            "--lexicon", "6", "--modes", "vanilla,base", "--quiet", "--config", "cfg.json")


def test_biasvar_unknown_model_exits_1(workdir, capsys):
    run("corpus", "synth", "--pairs", "20", "--templates", "2", "--lexicon", "5",
        "--seed", "0", "--out", "c.tsv")
    assert run("biasvar", "--tsv", "c.tsv", "--test-tsv", "c.tsv", "--models", "vanilla,bogus",
               "--out-csv", "bv.csv") == 1
    assert "unknown model 'bogus'" in capsys.readouterr().err


def test_numeric_failure_exits_3(workdir, capsys):
    import numpy as np

    run("corpus", "synth", "--pairs", "40", "--templates", "2", "--lexicon", "6",
        "--seed", "0", "--out", "c.tsv")
    # an absurd learning rate overflows float32 within a few steps
    with np.errstate(over="ignore", invalid="ignore"):
        code = run("train", "--tsv", "c.tsv", "--arch", "vanilla", "--mode", "none",
                   "--seed", "0", "--out", "m.ckpt", "--quiet", "--lr", "1e9",
                   "--warmup", "1", "--epochs", "3", "--batch-size", "8",
                   "--d-model", "16", "--heads", "2", "--ffn", "24",
                   "--src-layers", "1", "--mem-layers", "1", "--dec-layers", "1")
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err
