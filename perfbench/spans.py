"""Spans around the public functions of every fedfairprompt module.

The program itself records nothing, so the benchmark wraps, from the
outside, every public function and every public method of every module
in the package, at every binding a caller can reach: ``federation``
calls ``project_out`` through its own imported name, so that name is
replaced as well as ``debias.project_out``. A span is named after the
module that defines the function (``debias.project_out``), whichever
binding was called.

Spans are aggregated as they close, keyed by (phase, name, context), so
a traced run keeps a few hundred counters rather than millions of
records. The phase is ``setup`` until the first ``client_update``,
``rounds`` until ``run_federation`` returns, then ``post``. The context
says what the work was for: ``train`` inside ``client_update``, ``val``
for the client's own validation scoring, ``test`` for the global test
evaluation, ``refine`` inside ``server_refine``, ``run`` otherwise.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import time
from collections import defaultdict

import numpy as np

_perf = time.perf_counter

# A span with one of these names sets the context of everything below it.
_CONTEXT_OF = {
    "federation.client_update": "train",
    "federation.server_refine": "refine",
}
_EVAL_SPANS = ("federation.evaluate_prompts", "federation.predict")
_ROOT = "federation.run_federation"
_TENSOR_KERNELS = ("matmul", "softmax", "layernorm", "gelu")
_FUSION_SPANS = ("federation.fusion_weights", "federation.fuse_prompts", "federation.fuse_uniform")


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def package_modules(package) -> list:
    """Every submodule of ``package``, imported."""
    return [
        importlib.import_module(f"{package.__name__}.{info.name}")
        for info in pkgutil.iter_modules(package.__path__)
    ]


def _is_public_function(obj, package: str) -> bool:
    return (
        inspect.isfunction(obj)
        and obj.__module__.startswith(package + ".")
        and not obj.__name__.startswith("_")
    )


def tape_nodes(output) -> int:
    """Recorded nodes the backward sweep visits from ``output``: the
    distinct tensors reachable through ``.parents`` that need a gradient
    (frozen constants and inputs are not on the tape)."""
    seen: set[int] = set()
    todo = [output]
    while todo:
        node = todo.pop()
        if id(node) in seen or not node.needs_grad:
            continue
        seen.add(id(node))
        todo.extend(node.parents)
    return len(seen)


class Tracer:
    """Aggregating span recorder for one federation run."""

    def __init__(self):
        self.totals: dict[tuple[str, str, str], list] = defaultdict(lambda: [0.0, 0])
        self.stack: list[list] = []  # open spans: [name, context, start]
        self.phase = "setup"
        self.top_level: dict[str, float] = defaultdict(float)  # in-round children of the root
        self.kernels: set[str] = set()
        self.steps: dict[str, list[float]] = {"train": [], "refine": []}
        self.nodes: dict[str, list[int]] = {"train": [], "refine": []}
        self.rows = 0
        self.discarded_rows = 0
        self.eval_mixing_calls = 0
        self.eval_mixing_repeats = 0
        self.bytes_written = 0
        self._mixing_seen: set[bytes] = set()
        self._step_start: float | None = None
        self._patches = Patches()

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function and method of ``package``'s modules."""
        wrappers: dict[object, object] = {}

        def wrapped(fn):
            if fn not in wrappers:
                layer = fn.__module__.rsplit(".", 1)[-1]
                wrappers[fn] = self._wrap(f"{layer}.{fn.__name__}", fn)
            return wrappers[fn]

        for module in [package, *package_modules(package)]:
            if module.__name__.endswith(".tensor"):
                self.kernels = {
                    f"tensor.{n}" for n in module.__all__
                    if inspect.isfunction(getattr(module, n)) and n != "backward"
                }
            for name, obj in list(vars(module).items()):
                if _is_public_function(obj, package.__name__):
                    self._patches.set(module, name, wrapped(obj))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for attr, member in list(vars(obj).items()):
                        if _is_public_function(member, package.__name__):
                            self._patches.set(obj, attr, wrapped(member))

    def uninstall(self) -> None:
        self._patches.restore()

    def _wrap(self, name: str, fn):
        before = {
            "tensor.backward": self._count_tape,
            "encoder.encode_image": self._before_encode,
            "crosslayer.apply_cross_layer": self._count_mixing,
        }.get(name)
        ends_step = name == "optim.adamw_step"
        counts_bytes = name == "report.emit_report"
        is_root = name == _ROOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
                if is_root:
                    self.phase = "post"
            if ends_step:
                self._end_step()
            elif counts_bytes:
                self.bytes_written += sum(os.path.getsize(p) for p in result.values())
            return result

        return wrapper

    # -- span bookkeeping ------------------------------------------------

    def _context(self, name: str) -> str:
        parent = self._current_context()
        if name in _CONTEXT_OF:
            return _CONTEXT_OF[name]
        if name in _EVAL_SPANS and parent not in ("val", "test"):
            return "val" if parent == "train" else "test"
        return parent

    def _open(self, name: str) -> None:
        if name == "federation.client_update" and self.phase == "setup":
            self.phase = "rounds"
        self.stack.append([name, self._context(name), _perf()])

    def _close(self) -> None:
        name, context, start = self.stack.pop()
        duration = _perf() - start
        slot = self.totals[(self.phase, name, context)]
        slot[0] += duration
        slot[1] += 1
        if self.phase == "rounds" and self.stack and self.stack[-1][0] == _ROOT:
            self.top_level[name] += duration

    def _current_context(self) -> str:
        return self.stack[-1][1] if self.stack else "run"

    # -- counters taken before a call ------------------------------------

    def _count_tape(self, args, kwargs) -> None:
        context = self._current_context()
        if context in self.nodes:
            self.nodes[context].append(tape_nodes(args[0]))

    def _before_encode(self, args, kwargs) -> None:
        # A training or refinement step runs from its forward pass to the
        # end of its adamw_step.
        if self._current_context() in self.steps and self._step_start is None:
            self._step_start = _perf()
        if self.phase != "rounds":
            return
        # encode_image(self, e0, prompts, ...): the sequence entering each
        # block is CLS + K prompt rows + J patch rows. Each block's prompt
        # rows are replaced by the next prompt block, and the last block
        # only keeps CLS, so their query and MLP rows are thrown away.
        encoder, e0, prompts = args[0], args[1], args[2]
        shape = np.shape(e0.data if hasattr(e0, "data") else e0)
        batch = 1 if len(shape) == 2 else shape[0]
        k, layers = prompts.token_count, encoder.config.layers
        length = 1 + k + shape[-2]
        self.rows += batch * length * layers
        self.discarded_rows += batch * (k * (layers - 1) + length - 1)

    def _count_mixing(self, args, kwargs) -> None:
        if self.phase != "rounds" or self._current_context() not in ("val", "test"):
            return
        tokens, history, query = args[0], args[1], args[2]
        key = b"".join(t.data.tobytes() for t in (tokens, query, *history))
        self.eval_mixing_calls += 1
        if key in self._mixing_seen:
            self.eval_mixing_repeats += 1
        else:
            self._mixing_seen.add(key)

    def _end_step(self) -> None:
        context = self._current_context()
        if self._step_start is not None and context in self.steps:
            self.steps[context].append(_perf() - self._step_start)
        self._step_start = None

    # -- results ---------------------------------------------------------

    def seconds(self, name: str, phase: str | None = "rounds", context: str | None = None):
        """Inclusive seconds in spans called ``name``, with their count."""
        total, calls = 0.0, 0
        for (p, n, c), (s, k) in self.totals.items():
            if n == name and phase in (None, p) and context in (None, c):
                total += s
                calls += k
        return total, calls

    def span_names(self) -> set[str]:
        return {name for (_, name, _), (_, calls) in self.totals.items() if calls}

    def layer_metrics(self, rounds: int, round_time_s: float, failed_rounds: int) -> dict:
        """Per-layer numbers of one run as {name: (value, unit)}.

        Busy seconds and call counts are per round, over the rounds
        phase; set-up layers, ``report`` and ``harness`` are per run.
        """
        per_round = max(rounds, 1)
        m: dict[str, tuple[float, str]] = {}

        def busy(key, name, context=None):
            s, k = self.seconds(name, "rounds", context)
            m[key] = (s / per_round, "s/round")
            return k / per_round

        def per_run(key, name):
            m[key] = (self.seconds(name, None)[0], "s")

        def steps(key, values, q):
            m[key] = (float(np.percentile(values, q)) * 1e3 if values else 0.0, "ms")

        def median(values):
            return float(np.median(values)) if values else 0.0

        busy("federation.client_update_s", "federation.client_update")
        busy("federation.client_eval_s", "federation.evaluate_prompts", "val")
        busy("federation.server_refine_s", "federation.server_refine")
        m["federation.fuse_s"] = (
            sum(self.top_level[n] for n in _FUSION_SPANS) / per_round, "s/round"
        )
        m["federation.test_eval_s"] = (
            self.top_level["federation.evaluate_prompts"] / per_round, "s/round"
        )
        steps("federation.local_step_ms_p50", self.steps["train"], 50)
        steps("federation.local_step_ms_p95", self.steps["train"], 95)
        steps("federation.refine_step_ms_p50", self.steps["refine"], 50)
        m["federation.failed_rounds"] = (failed_rounds, "count")

        busy("tensor.backward_s.client", "tensor.backward", "train")
        busy("tensor.backward_s.refine", "tensor.backward", "refine")
        m["tensor.tape_nodes_per_backward.client"] = (median(self.nodes["train"]), "count")
        m["tensor.tape_nodes_per_backward.refine"] = (median(self.nodes["refine"]), "count")
        kernel_calls = sum(
            k for (p, n, _), (_, k) in self.totals.items() if p == "rounds" and n in self.kernels
        )
        m["tensor.kernel_calls"] = (kernel_calls / per_round, "count/round")
        for kernel in _TENSOR_KERNELS:
            calls = busy(f"tensor.{kernel}_s", f"tensor.{kernel}")
            m[f"tensor.{kernel}_calls"] = (calls, "count/round")

        for label, contexts in (("train", ("train",)), ("eval", ("val", "test")),
                                ("refine", ("refine",))):
            s = sum(self.seconds("encoder.encode_image", "rounds", c)[0] for c in contexts)
            k = sum(self.seconds("encoder.encode_image", "rounds", c)[1] for c in contexts)
            m[f"encoder.encode_image_s.{label}"] = (s / per_round, "s/round")
            m[f"encoder.encode_image_calls.{label}"] = (k / per_round, "count/round")
        m["encoder.rows_encoded"] = (self.rows / per_round, "count/round")
        m["encoder.discarded_row_share"] = (
            self.discarded_rows / self.rows if self.rows else 0.0, "fraction"
        )
        per_run("encoder.embed_patches_s", "encoder.embed_patches")

        calls = busy("crosslayer.apply_cross_layer_s", "crosslayer.apply_cross_layer")
        m["crosslayer.apply_cross_layer_calls"] = (calls, "count/round")
        m["crosslayer.eval_recompute_share"] = (
            self.eval_mixing_repeats / self.eval_mixing_calls if self.eval_mixing_calls else 0.0,
            "fraction",
        )
        busy("debias.project_out_s", "debias.project_out")
        busy("debias.task_loss_s", "debias.task_loss")
        busy("debias.fairness_loss_s", "debias.fairness_loss")
        calls = busy("optim.adamw_step_s", "optim.adamw_step")
        m["optim.adamw_step_calls"] = (calls, "count/round")
        busy("metrics.confusion_by_group_s", "metrics.confusion_by_group")

        per_run("data.load_splits_s", "federation.load_splits")
        per_run("data.load_embeddings_s", "data.load_embeddings")
        per_run("data.dirichlet_partition_s", "data.dirichlet_partition")
        per_run("svd.top_right_singular_vectors_s", "svd.top_right_singular_vectors")
        per_run("report.emit_report_s", "report.emit_report")
        m["report.bytes_written"] = (self.bytes_written, "bytes")
        per_run("harness.run_experiment_s", "harness.run_experiment")
        m["trace.span_coverage"] = (
            sum(self.top_level.values()) / round_time_s if round_time_s else 0.0, "fraction"
        )
        return m
