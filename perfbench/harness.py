"""Shared machinery of the three workloads: timing, operation accounting,
checks, the round loop, machine facts, per-layer metrics and the report.

A workload module provides:

  setup(seed, phases, ops) -> state    corpus, vocab, index, checkpoints
  run_round(state, phases, ops) -> out one round of the timed operations
  fingerprint(out)                     a value equal across identical rounds
  check(state, out, checks) -> dict    output checks; returns check-phase counts
  end_to_end(state, phases) -> dict    name -> (value, unit)
  work(state, phases, counts) -> dict  denominators for the per-layer ratios
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from tmlab.errors import DataError, NumericError

import refs
from parts import MODES

perf = time.perf_counter
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "TMLAB_THREADS")
REPORTED_OPS = ("matmul", "add", "mul", "softmax", "layer_norm", "reshape", "permute",
                "swap_last", "concat", "embedding_lookup", "scatter_vocab", "index_select2",
                "dropout")


# One calibration pass: a fixed loop of pure-Python dynamic programming,
# small numpy products and larger ones, and no tmlab code. The larger
# products make the pass slow down under other tenants' load about as much
# as a training epoch does; the first two parts track top-k queries.
# CALIBRATION_S is its median wall time on the reference machine (see
# README.md).
CALIBRATION_S = 0.0053
REUSE_PASS_S = 0.002        # a pass this recent also opens the next sample
MIN_ROUNDS = 3
_CAL_A, _CAL_B = tuple(range(12)), tuple(range(3, 15))
_CAL_M = np.linspace(-1.0, 1.0, 64 * 64, dtype=np.float32).reshape(64, 64)
_CAL_L = np.linspace(-1.0, 1.0, 256 * 256, dtype=np.float32).reshape(256, 256)


def calibration_pass() -> float:
    t0 = perf()
    for _ in range(30):
        refs.levenshtein(_CAL_A, _CAL_B)
    for _ in range(300):
        np.tanh(_CAL_M[:16] @ _CAL_M).sum()
    for _ in range(10):
        np.tanh(_CAL_L[:64] @ _CAL_L).sum()
    return perf() - t0


class Phases:
    """Timed samples and work units per named phase, round by round.

    A calibration pass runs just before and just after every timed
    sample, and the sample's seconds are scaled by the mean of the two
    over CALIBRATION_S, so that they read as if the machine ran at its
    reference speed. The host's speed swings within a second (see
    README.md), so only passes next to the sample track it; one mean
    over the whole run does not.

    Every round runs the same operations, so a part's time per round is
    the median of its scaled samples over all rounds, times its samples
    per round: a burst of load that slows a sample does not move it. A
    part timed several times a round (a repeated identical operation)
    gives several samples a round. Work done outside rounds (set-up) has
    one open round only.
    """

    def __init__(self) -> None:
        self.closed: list[tuple[dict, dict]] = []   # per round: (samples, units)
        self.samples: dict[str, list] = defaultdict(list)   # phase -> [(seconds, pass seconds)]
        self.units: dict[str, float] = defaultdict(float)
        self.calibration: list[float] = []
        self._last_pass: tuple[float, float] | None = None   # (when it ended, its seconds)

    @contextmanager
    def timed(self, phase: str):
        before = self._pass_before()
        t0 = perf()
        try:
            yield
        finally:
            seconds = perf() - t0
            after = calibration_pass()
            self.calibration.append(after)
            self._last_pass = (perf(), after)
            self.samples[phase].append((seconds, (before + after) / 2))

    def _pass_before(self) -> float:
        """A calibration pass for the start of a sample: the pass that ended
        the previous sample if that was just now (samples timed back to
        back share it), else a new one."""
        if self._last_pass is not None and perf() - self._last_pass[0] < REUSE_PASS_S:
            return self._last_pass[1]
        c = calibration_pass()
        self.calibration.append(c)
        return c

    def end_round(self) -> None:
        self.closed.append((dict(self.samples), dict(self.units)))
        self.samples, self.units = defaultdict(list), defaultdict(float)

    def _rounds(self) -> list[tuple[dict, dict]]:
        return self.closed + ([(self.samples, self.units)] if self.samples else [])

    @staticmethod
    def _parts(d: dict, prefix: str) -> list[str]:
        return [k for k in d if k == prefix or k.startswith(prefix + ".")]

    def total(self, prefix: str) -> tuple[float, float]:
        """(units, unscaled seconds) of `prefix` and its `prefix.*` parts over all rounds."""
        rounds = self._rounds()
        return (sum(u[k] for _, u in rounds for k in self._parts(u, prefix)),
                sum(t for s, _ in rounds for k in self._parts(s, prefix) for t, _ in s[k]))

    def speed(self) -> float:
        """Mean calibration pass time over the reference one (above 1: slower)."""
        return statistics.fmean(self.calibration) / CALIBRATION_S if self.calibration else 1.0

    def rate(self, prefix: str) -> float:
        """Units per second of one round at the reference machine speed."""
        rounds = self._rounds()
        parts = sorted({k for s, _ in rounds for k in self._parts(s, prefix)})
        seconds = 0.0
        for k in parts:
            scaled = [t * CALIBRATION_S / c for s, _ in rounds for t, c in s.get(k, ())]
            per_round = statistics.median(len(s.get(k, ())) for s, _ in rounds)
            seconds += statistics.median(scaled) * per_round
        units = statistics.median(sum(u[k] for k in self._parts(u, prefix)) for _, u in rounds)
        return units / seconds if seconds else 0.0

    def summary(self) -> dict:
        units, seconds, counts = defaultdict(float), defaultdict(float), defaultdict(int)
        for s, u in self._rounds():
            for k in s:
                seconds[k] += sum(t for t, _ in s[k])
                counts[k] += len(s[k])
                units[k] += u.get(k, 0.0)
        return {"speed": self.speed(), "calibration_passes": len(self.calibration),
                "parts": {k: {"s": seconds[k], "samples": counts[k], "units": units[k]}
                          for k in sorted(seconds)},
                "rounds": [{k: [[t, c] for t, c in v] for k, v in s.items()}
                           for s, _ in self._rounds()]}


class Ops:
    """Counts program operations; one that raises a tmlab error has failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except (DataError, NumericError) as e:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{getattr(fn, '__name__', fn)}: {e}")
            return None


class Checks:
    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(what)


def run_rounds(seconds: float, phases: Phases, round_fn, fingerprint) -> tuple[int, bool, object]:
    """Whole rounds until `seconds` of wall time have passed, and at least
    MIN_ROUNDS, so that the medians over rounds can set a slow one aside.

    Returns the round count, whether every round's fingerprint equalled
    the first's, and the last round's outputs; only the fingerprint of
    earlier rounds is kept, so memory does not grow with the count.
    """
    t0 = perf()
    out = round_fn()
    phases.end_round()
    first, same, rounds = fingerprint(out), True, 1
    while rounds < MIN_ROUNDS or perf() - t0 < seconds:
        out = None  # release the last round's outputs before the next one runs
        out = round_fn()
        phases.end_round()
        same = same and fingerprint(out) == first
        rounds += 1
    return rounds, same, out


def _coarse_process_age_s() -> float:
    """Seconds since this process started, to the kernel's clock tick (/proc)."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
        return max(0.0, uptime - start_ticks / os.sysconf("SC_CLK_TCK"))
    except (OSError, ValueError, IndexError):
        return 0.0


_AGE_AT_IMPORT, _IMPORTED = _coarse_process_age_s(), perf()


def process_age_s() -> float:
    """Seconds since this process started: the coarse age when this module
    was imported plus the fine-grained time since then."""
    return _AGE_AT_IMPORT + (perf() - _IMPORTED)


def _steal_s() -> float:
    """Seconds the hypervisor took from the machine's CPUs (0.0 where unknown)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError):
        return 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def machine_facts() -> dict:
    blas = {}
    try:
        cfg = np.show_config(mode="dicts")
        blas = cfg.get("Build Dependencies", {}).get("blas", {})
    except (TypeError, AttributeError):
        pass
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": affinity or os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def per_layer_metrics(setup, timed, work: dict) -> dict:
    """Per-layer metrics from the traced round (and set-up, for set-up layers).

    A metric whose layer the workload never calls reads 0.
    """
    both = setup.merged(timed)
    t, sc = timed, timed.scoped

    def ratio(a, b):
        return a / b if b else 0.0

    def in_decoding(key):
        return sc[("ensemble.decode", key)] + sc[("evalmetrics.token_ce", key)]

    emitted = work.get("emitted_tokens", 0)
    tokens = emitted + work.get("scored_tokens", 0)
    presentations = work.get("presentations", 0)
    ft = "ensemble.finetune_weighted"
    m = {
        "corpus.synth_task_s": (both.time["corpus.synth_task"], "s"),
        "corpus.build_vocab_s": (both.time["corpus.build_vocab"], "s"),
        "corpus.encode_corpus_s": (both.time["corpus.encode_corpus"], "s"),
        "retrieval.build_index_s": (both.time["retrieval.build_index"], "s"),
        "retrieval.load_index_s": (both.time["retrieval.load_index"], "s"),
        "retrieval.candidates_s": (t.time["retrieval.candidates"], "s"),
        "retrieval.rank_s": (t.self_time("retrieval.rank_by_similarity"), "s"),
        "retrieval.edit_distance_s": (t.time["retrieval.edit_distance"], "s"),
        "retrieval.edit_distance_calls": (t.calls["retrieval.edit_distance"], "count"),
        "retrieval.sims_per_topk_query": (ratio(
            sc[("retrieval.retrieve_topk", "retrieval.edit_distance#calls")],
            t.calls["retrieval.retrieve_topk"]), "1/query"),
        "retrieval.sims_per_sample_query": (ratio(
            sc[("retrieval.sample_tm_probs", "retrieval.edit_distance#calls")],
            t.calls["retrieval.sample_tm_probs"]), "1/query"),
        "retrieval.topk_calls": (t.calls["retrieval.retrieve_topk"], "count"),
        "retrieval.pool_miss_queries": (work.get("pool_miss_queries", 0), "count"),
        "model.forward_s": (t.time["model.forward"], "s"),
        "model.forward_calls": (t.calls["model.forward"], "count"),
        "model.decoder_positions": (t.count["model.decoder_positions"], "count"),
        "model.decoder_positions_per_token": (ratio(
            in_decoding("model.decoder_positions"), tokens), "1/token"),
        "model.memory_encode_s": (t.time["model.memory_encode"], "s"),
        "model.memory_tokens_encoded": (t.count["model.memory_tokens_encoded"], "count"),
        "model.memory_batch_s": (t.time["model.memory_batch"], "s"),
        "model.train_retrieval_s": (t.time["model.train_retrieval"], "s"),
    }
    for block in ("src_encoder", "mem_encoder", "dec_self_attn", "cross_attn", "ffn", "copy_gate"):
        m[f"model.block.{block}_s"] = (t.time[f"model.block.{block}"], "s")
    m.update({
        "autodiff.nodes": (t.count["autodiff.nodes"], "count"),
        "autodiff.nodes_per_presentation": (ratio(
            sc[("model.train", "autodiff.nodes")], presentations), "1/pres"),
        "autodiff.nodes_per_token": (ratio(in_decoding("autodiff.nodes"), tokens), "1/token"),
        "autodiff.output_mb": (t.count["autodiff.output_bytes"] / 2**20, "MB"),
        "autodiff.backward_s": (t.time["autodiff.backward"], "s"),
        "autodiff.vjp_s": (t.count["autodiff.vjp_s"], "s"),
        "autodiff.adam_step_s": (t.time["autodiff.adam_step"], "s"),
        "autodiff.clip_global_norm_s": (t.time["autodiff.clip_global_norm"], "s"),
    })
    for op in REPORTED_OPS:
        name = f"autodiff.op.{op}"
        m[f"{name}.calls"] = (t.calls[name], "count")
        m[f"{name}.fwd_s"] = (t.time[name], "s")
        m[f"{name}.vjp_s"] = (t.count[name + ".vjp_s"], "s")
    m.update({
        "ensemble.step_calls": (t.calls["ensemble.step"], "count"),
        "ensemble.step_calls_per_token": (ratio(t.calls["ensemble.step"], emitted), "1/token"),
        "ensemble.sequence_score_s": (t.time["ensemble.sequence_score"], "s"),
        "ensemble.mix_components_s": (t.time["ensemble.mix_components"], "s"),
        "ensemble.weightnet_s": (t.time["ensemble.weightnet_scores"], "s"),
        "ensemble.finetune_forwards_per_update": (ratio(
            sc[(ft, "model.forward#calls")], work.get("updates", 0)), "1/update"),
        "ensemble.finetune_retrieval_s": (
            sc[(ft, "retrieval.build_index")] + sc[(ft, "retrieval.retrieve_topk")], "s"),
        "evalmetrics.token_ce_s": (t.time["evalmetrics.token_ce"], "s"),
    })
    for mode in MODES:
        for kind in ("greedy", "beam"):
            m[f"ensemble.{kind}_tokens_per_s.{mode}"] = (work.get(f"{kind}.{mode}", 0.0), "tokens/s")
        m[f"evalmetrics.score_tokens_per_s.{mode}"] = (work.get(f"score.{mode}", 0.0), "tokens/s")
    m["trace.overhead_s"] = (work["overhead_s"], "s")
    m["trace.overhead_pct"] = (work["overhead_pct"], "%")
    return m



def _traced_rounds(workload, state, ops, tracer):
    """An untraced, a traced and an untraced round. The overhead is the
    traced round's wall time minus the mean of the two around it."""
    walls, prints = [], []
    for traced in (False, True, False):
        if traced:
            tracer.install()
        phases = Phases()
        t0 = perf()
        out = workload.run_round(state, phases, ops)
        walls.append(perf() - t0)
        prints.append(workload.fingerprint(out))
        if traced:
            stats = tracer.take()
            tracer.uninstall()
            traced_out = (phases, out, stats)
    untraced = (walls[0] + walls[2]) / 2
    overhead = {"overhead_s": walls[1] - untraced, "overhead_pct": 100.0 * (walls[1] / untraced - 1.0)}
    return (*traced_out, prints[0] == prints[1] == prints[2], overhead)


def run(workload, name: str, seed: int, seconds: float, trace: bool) -> int:
    from tracing import Tracer

    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    ops, checks = Ops(), Checks()
    setup_phases = Phases()
    state = workload.setup(seed, setup_phases, ops)
    setup_s = process_age_s()
    detail: dict = {"setup_phases": setup_phases.summary()}
    if tracer is not None:
        setup_stats = tracer.take()
        tracer.uninstall()
        phases, out, timed_stats, same, overhead = _traced_rounds(workload, state, ops, tracer)
        rounds = 3
    else:
        phases = Phases()
        wall0, cpu0, steal0 = perf(), time.process_time(), _steal_s()
        rounds, same, out = run_rounds(
            seconds, phases, lambda: workload.run_round(state, phases, ops), workload.fingerprint)
        detail["timed"] = {"wall_s": perf() - wall0, "cpu_s": time.process_time() - cpu0,
                           "machine_steal_s": _steal_s() - steal0}
    checks.expect(same, "a repeated round gave different outputs")
    counts = workload.check(state, out, checks)
    if tracer is not None:
        work = {**workload.work(state, phases, counts), **overhead}
        metrics = per_layer_metrics(setup_stats, timed_stats, work)
        detail["trace"] = {"setup": setup_stats.to_json(), "timed": timed_stats.to_json()}
    else:
        metrics = dict(workload.end_to_end(state, phases))
        metrics["setup_s"] = (setup_s / phases.speed(), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    detail.update(rounds=rounds, phases=phases.summary(), check_counts=counts,
                  checks=checks.count, failures=checks.failures, errors=ops.errors)
    return report(name, seed, trace, not checks.failures, ops, metrics, detail)


def report(name, seed, trace, correct, ops, metrics, detail) -> int:
    facts = machine_facts()
    for failure in detail["failures"][:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    for err in detail["errors"]:
        print(f"operation failed: {err}", file=sys.stderr)
    print("machine " + json.dumps(facts, sort_keys=True))
    print(f"workload {name} seed {seed} trace {int(trace)}: {detail['rounds']} round(s), "
          f"{detail['checks']} checks, {len(detail['failures'])} failed")
    for key in sorted(metrics):
        value, unit = metrics[key]
        print(f"  {key} = {value:.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps({"result": result, "machine": facts, **detail},
                                   indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0
