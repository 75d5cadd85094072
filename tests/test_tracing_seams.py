"""The benchmark's tracer (perfbench/tracing.py) replaces tmlab functions by
attribute name. A rename or removal of any traced name fails here, at
install time, rather than in a traced benchmark run."""

import sys
from pathlib import Path

import numpy as np

import tmlab.cli  # noqa: F401 - imports every tmlab module whose names the tracer may patch
from tmlab import autodiff as ad
from tmlab import model

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402


def test_the_tracer_patches_its_names_and_restores_every_one():
    modules = {n: m for n, m in sys.modules.items() if n == "tmlab" or n.startswith("tmlab.")}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer = tracing.Tracer()
    try:
        tracer.install()    # raises TraceTargetMissing for a name tmlab no longer has
        patched = {(n, k) for n, m in modules.items()
                   for k, v in vars(m).items() if v is not before[n].get(k)}
        assert {("tmlab.autodiff", op) for op in tracing.AUTODIFF_OPS} <= patched
        assert ("tmlab.ensemble", "make_step_fn") in patched
    finally:
        tracer.uninstall()
    for n, m in modules.items():
        assert [k for k, v in before[n].items() if vars(m).get(k) is not v] == [], n


def test_the_tracer_counts_a_grouped_dual_forward():
    """The tracer reads forward_dual's y_in and dual_encode_memory's mem by
    position: two sources with three TM rows each decode 2 rows and encode
    the memory of all six."""
    cfg = model.ModelConfig(vocab_size=20, d_model=8, n_heads=2, ffn_dim=8, n_src_layers=1,
                            n_mem_layers=1, n_dec_layers=1, arch="dual_enc")
    params = model.init_params(cfg, seed=0)
    row_tms = [[[((5, 6), (7,))], [((8,), (9, 10))], [((11, 12, 13), (14,))]],
               [[((6,), (7,))], [], [((5,), (6, 7)), ((8,), (9,))]]]
    y_in = np.asarray([[1, 7, 9, 10], [1, 6, 6, 0]])
    mem = model.build_memory_batch([tms for rows in row_tms for tms in rows], 4, cfg.max_len)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        with ad.no_grad():
            model.forward_rows(params, cfg, 4, [(5, 6, 7), (8, 9)], row_tms, y_in)
        counts = tracer.stats.count
        assert counts["model.decoder_positions"] == y_in.size
        assert counts["model.memory_tokens_encoded"] == mem.seq_ids.size
    finally:
        tracer.uninstall()
