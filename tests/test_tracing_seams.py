"""The benchmark's tracer (perfbench/tracing.py) replaces tmlab functions by
attribute name. A rename or removal of any traced name fails here, at
install time, rather than in a traced benchmark run."""

import sys
from pathlib import Path

import tmlab.cli  # noqa: F401 - imports every tmlab module whose names the tracer may patch

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
