"""Per-layer spans for the benchmark's traced run.

Nothing under src/ knows about tracing. The tracer replaces tmlab
functions at every module attribute where callers look them up (a
function imported by name into four modules is replaced in all four),
wraps the VJP closures that `autodiff._from_op` receives, and restores
everything on `uninstall`. Spans and counters are aggregated per name in
memory; the benchmark writes them once at the end of the run.

A span's self time is its inclusive time minus the time of the spans
opened inside it. Some spans are scopes: counters bumped and spans
closed while a scope is open are also recorded under that scope, so
that, say, edit distances per `retrieve_topk` call are measured where
the work happens.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

perf = time.perf_counter

SCOPES = frozenset({
    "retrieval.retrieve_topk",
    "retrieval.sample_tm_probs",
    "model.train",
    "ensemble.finetune_weighted",
    "ensemble.decode",
    "evalmetrics.token_ce",
})

# Every autodiff function that builds a tape node through _from_op.
AUTODIFF_OPS = (
    "add", "sub", "mul", "div", "neg", "relu", "sigmoid", "tlog", "clip_min",
    "broadcast_to", "reshape", "permute", "swap_last", "concat", "tslice", "tsum",
    "matmul", "embedding_lookup", "softmax", "log_softmax", "layer_norm",
    "gather_last", "index_select2", "scatter_vocab", "dropout",
)


class TraceTargetMissing(RuntimeError):
    """A function the tracer wraps no longer exists under its attribute name."""


class Stats:
    """Aggregates of one section of a run (set-up or the timed round)."""

    def __init__(self) -> None:
        self.time = defaultdict(float)    # span -> inclusive seconds
        self.child = defaultdict(float)   # span -> seconds inside spans opened within it
        self.calls = defaultdict(int)     # span -> calls
        self.count = defaultdict(float)   # counter -> total
        self.scoped = defaultdict(float)  # (scope, span or counter) -> total

    def self_time(self, name: str) -> float:
        return self.time[name] - self.child[name]

    def merged(self, other: "Stats") -> "Stats":
        out = Stats()
        for field in ("time", "child", "calls", "count", "scoped"):
            mine, theirs, dst = getattr(self, field), getattr(other, field), getattr(out, field)
            for k in set(mine) | set(theirs):
                dst[k] = mine.get(k, 0) + theirs.get(k, 0)
        return out

    def to_json(self) -> dict:
        return {
            "spans": {k: {"s": self.time[k], "self_s": self.self_time(k), "calls": self.calls[k]}
                      for k in sorted(self.time)},
            "counters": {k: self.count[k] for k in sorted(self.count)},
            "scoped": {f"{s}/{k}": v for (s, k), v in sorted(self.scoped.items())},
        }


class Tracer:
    def __init__(self) -> None:
        self.stats = Stats()
        self._stack: list[list] = []        # open spans: [name, seconds of child spans]
        self._open_scopes: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def take(self) -> Stats:
        """Return the aggregates so far and start a fresh section."""
        done, self.stats = self.stats, Stats()
        return done

    def bump(self, key: str, n: float = 1) -> None:
        st = self.stats
        st.count[key] += n
        for scope in self._open_scopes:
            st.scoped[(scope, key)] += n

    def _close(self, name: str, frame: list, dt: float) -> None:
        st = self.stats
        st.time[name] += dt
        st.calls[name] += 1
        st.child[name] += frame[1]
        if self._stack:
            self._stack[-1][1] += dt
        for scope in self._open_scopes:
            st.scoped[(scope, name)] += dt
            st.scoped[(scope, name + "#calls")] += 1

    def wrap(self, fn, name, before=None):
        """Time calls of `fn` as span `name`, a string or a function of (args, kwargs)."""
        stack, scopes, close = self._stack, self._open_scopes, self._close

        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            if before is not None:
                before(self, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            is_scope = span in SCOPES
            if is_scope:
                scopes.append(span)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if is_scope:
                    scopes.pop()
                close(span, frame, dt)

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def patch(self, module, attr: str, make) -> None:
        """Replace module.attr, and every tmlab alias of it, by make(original)."""
        if not callable(getattr(module, attr, None)):
            raise TraceTargetMissing(f"{module.__name__}.{attr}")
        original = getattr(module, attr)
        replacement = make(original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "tmlab" and not mod_name.startswith("tmlab."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._patches.append((mod, key, original))

    def span(self, module, attr: str, name: str | None = None, before=None) -> None:
        label = name or f"{module.__name__.split('.')[-1]}.{attr}"
        self.patch(module, attr, lambda fn: self.wrap(fn, label, before))

    def uninstall(self) -> None:
        while self._patches:
            mod, key, original = self._patches.pop()
            setattr(mod, key, original)

    def install(self) -> None:
        from tmlab import autodiff, corpus, ensemble, evalmetrics, model, retrieval

        for attr in ("synth_task", "build_vocab", "encode_corpus"):
            self.span(corpus, attr)
        for attr in ("build_index", "load_index", "candidates", "rank_by_similarity",
                     "edit_distance", "retrieve_topk", "sample_tm_probs", "brute_force_topk"):
            self.span(retrieval, attr)
        self._install_model(model)
        self._install_autodiff(autodiff)
        for attr in ("sequence_score", "mix_components", "weightnet_scores",
                     "finetune_weighted", "decode"):
            self.span(ensemble, attr)
        self.patch(ensemble, "make_step_fn", self._step_fn_factory)
        self.span(evalmetrics, "token_ce")

    def _install_model(self, model) -> None:
        def positions(y_index):
            def before(tr, args, kwargs):
                y = kwargs["y_in"] if "y_in" in kwargs else args[y_index]
                tr.bump("model.decoder_positions", y.shape[0] * y.shape[1])
            return before

        def memory_tokens(tr, args, kwargs):
            mem = kwargs["mem"] if "mem" in kwargs else args[2]
            tr.bump("model.memory_tokens_encoded", mem.seq_ids.size)

        self.span(model, "forward_vanilla", "model.forward", positions(3))
        self.span(model, "forward_dual", "model.forward", positions(4))
        self.span(model, "dual_encode_memory", "model.memory_encode", memory_tokens)
        self.span(model, "build_memory_batch", "model.memory_batch")
        self.span(model, "retrieve_training_tms", "model.train_retrieval")
        self.span(model, "train", "model.train")
        # block spans: encoders by stack, decoder sub-layers by parameter prefix
        self.patch(model, "_encode_stack", lambda fn: self.wrap(
            fn, lambda a, kw: f"model.block.{a[2]}_encoder"))
        self.patch(model, "_mha", lambda fn: self.wrap(
            fn, lambda a, kw: _mha_block(a[1])))
        self.patch(model, "_ffn", lambda fn: self.wrap(
            fn, lambda a, kw: "model.block.ffn" if a[1].startswith("dec") else "model.enc_ffn"))
        for attr in ("tm_attention_scores", "masked_attention", "copy_distribution",
                     "gate_and_mix"):
            self.span(model, attr, "model.block.copy_gate")

    def _install_autodiff(self, autodiff) -> None:
        for op in AUTODIFF_OPS:
            self.span(autodiff, op, f"autodiff.op.{op}")
        for attr in ("backward", "adam_step", "clip_global_norm"):
            self.span(autodiff, attr)
        self.patch(autodiff, "_from_op", lambda fn: self._from_op_wrapper(fn, autodiff))

    def _from_op_wrapper(self, from_op, autodiff):
        stack, bump = self._stack, self.bump

        def traced_from_op(data, parents, vjp):
            op = stack[-1][0] if stack and stack[-1][0].startswith("autodiff.op.") else "autodiff.op.other"
            bump("autodiff.nodes")
            bump("autodiff.output_bytes", data.nbytes)
            if autodiff._grad_enabled and vjp is not None:
                inner = vjp

                def vjp(g):
                    t0 = perf()
                    try:
                        return inner(g)
                    finally:
                        dt = perf() - t0
                        st = self.stats
                        st.count["autodiff.vjp_s"] += dt
                        st.count[op + ".vjp_s"] += dt
            return from_op(data, parents, vjp)

        return traced_from_op

    def _step_fn_factory(self, make_step_fn):
        inner = self.wrap(make_step_fn, "ensemble.make_step_fn")

        def traced_make_step_fn(*args, **kwargs):
            return self.wrap(inner(*args, **kwargs), "ensemble.step")

        return traced_make_step_fn


def _mha_block(prefix: str) -> str:
    if prefix.startswith("dec"):
        return "model.block.cross_attn" if prefix.endswith(".cross") else "model.block.dec_self_attn"
    return "model.enc_self_attn"
