"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public wsdmil functions where they are looked up: ``cli``
and ``training`` bind names with ``from .x import y``, so a function is
patched in the namespace that calls it, not only where it is defined.
Each call becomes a span with a name ``<layer>.<what>``, a parent span,
start and end times and the phase it ran in ("setup" or "op"); the root
span of each command is the ``cli`` span that run.py opens.  A layer's self
time is the time its spans cover minus the time their child spans cover.

Besides spans the tracer counts ``Tensor`` constructions and the bytes of
their data and grad arrays, and the peak bytes numpy allocates inside a
permutation test (via tracemalloc, switched on for that call only).
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module, attribute, span name).  A dotted attribute names a method.
PATCHES = (
    ("wsdmil.cli", "generate_synthetic", "bags.gen"),
    ("wsdmil.cli", "read_manifest", "bags.manifest"),
    ("wsdmil.training", "read_bag", "bags.read"),
    ("wsdmil.training", "consensus_record", "gleason.consensus"),
    ("wsdmil.cli", "samples_from_entries", "training.samples"),
    ("wsdmil.cli", "train", "training.train"),
    ("wsdmil.cli", "predict_classes", "training.predict"),
    ("wsdmil.training", "predict_classes", "training.predict"),
    ("wsdmil.training", "forward_bag", "models.forward"),
    ("wsdmil.training", "bag_loss", "training.loss"),
    ("wsdmil.training", "adam_step", "training.adam"),
    ("wsdmil.autodiff", "Tensor.backward", "autodiff.backward"),
    ("wsdmil.cli", "bootstrap_ci", "metrics.bootstrap"),
    ("wsdmil.cli", "paired_permutation_test", "metrics.permutation"),
    ("wsdmil.cli", "save_params", "reports.write"),
    ("wsdmil.cli", "write_report", "reports.write"),
    ("wsdmil.cli", "read_report", "reports.read"),
    ("wsdmil.cli", "load_params", "reports.read"),
    ("wsdmil.cli", "manifest_fingerprint", "reports.read"),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int            # index into Tracer.spans, -1 for a root
    phase: str
    start: float
    nodes0: int
    bytes0: int
    end: float = 0.0
    nodes1: int = 0
    bytes1: int = 0
    extra: int = 0         # bytes read, or peak bytes allocated


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    phase: str = "setup"
    nodes: int = 0
    node_bytes: int = 0
    missing: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        s = Span(name, self._stack[-1] if self._stack else -1, self.phase,
                 0.0, self.nodes, self.node_bytes)
        self.spans.append(s)
        self._stack.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            s.nodes1, s.bytes1 = self.nodes, self.node_bytes
            self._stack.pop()

    # ---- patching -------------------------------------------------------------

    def install(self) -> None:
        """Wrap every name in PATCHES and count Tensor constructions."""
        for module_name, attr, span_name in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._set(owner, leaf, self._wrap(original, span_name))
        tensor = importlib.import_module("wsdmil.autodiff").Tensor
        self._set(tensor, "__init__", self._counting_init(tensor.__init__))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def _set(self, owner, leaf, replacement) -> None:
        self._saved.append((owner, leaf, getattr(owner, leaf)))
        setattr(owner, leaf, replacement)

    def _wrap(self, fn, span_name):
        if span_name == "bags.read":
            @functools.wraps(fn)
            def traced(path, *args, **kwargs):
                with self.span(span_name) as s:
                    s.extra = os.stat(path).st_size
                    return fn(path, *args, **kwargs)
        elif span_name == "metrics.permutation":
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(span_name) as s:
                    tracemalloc.start()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        s.extra = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                with self.span(span_name):
                    return fn(*args, **kwargs)
        return traced

    def _counting_init(self, init):
        @functools.wraps(init)
        def counted(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            self.nodes += 1
            grad = getattr(tensor, "grad", None)    # None if allocated lazily
            self.node_bytes += tensor.data.nbytes + (0 if grad is None else grad.nbytes)
        return counted

    # ---- metrics --------------------------------------------------------------

    def layer_metrics(self, op_seconds: list[float], setups: int) -> dict[str, float]:
        """Per-layer figures per timed operation (setup figures per setup).

        ``op_seconds`` holds the wall time of each traced operation,
        measured outside the spans.
        """
        n_ops = len(op_seconds)
        total = defaultdict(float)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for s in self.spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        train_fwd = infer_fwd = read_bytes = perm_peak = gen = 0.0
        for i, s in enumerate(self.spans):
            dur = s.end - s.start
            if s.phase == "setup":
                if s.name == "bags.gen":
                    gen += dur
                continue
            total[s.name] += dur
            self_time[s.name.split(".")[0]] += dur - child_time[i]
            if s.name == "models.forward":
                parent = self.spans[s.parent].name
                if parent == "training.train":
                    train_fwd += dur
                elif parent == "training.predict":
                    infer_fwd += dur
            elif s.name == "bags.read":
                read_bytes += s.extra
            elif s.name == "metrics.permutation":
                perm_peak = max(perm_peak, s.extra)

        steps = self._steps()
        step_ms = [(end - start) * 1e3 for start, end, _, _ in steps]
        n_steps = max(1, len(steps))
        return {
            "autodiff.nodes_per_step": sum(n for _, _, n, _ in steps) / n_steps,
            "autodiff.alloc_mb_per_step": sum(b for _, _, _, b in steps) / n_steps / 1e6,
            "autodiff.backward_s": total["autodiff.backward"] / n_ops,
            "models.train_forward_s": train_fwd / n_ops,
            "models.infer_forward_s": infer_fwd / n_ops,
            "training.adam_s": total["training.adam"] / n_ops,
            "training.loss_s": total["training.loss"] / n_ops,
            "training.self_s": self_time["training"] / n_ops,
            "training.step_ms_p50": statistics.median(step_ms) if step_ms else 0.0,
            "training.step_ms_p90": (statistics.quantiles(step_ms, n=10)[8]
                                     if len(step_ms) > 1 else sum(step_ms, 0.0)),
            "bags.gen_s": gen / setups,
            "bags.read_s": total["bags.read"] / n_ops,
            "bags.read_mb": read_bytes / 1e6 / n_ops,
            "bags.manifest_s": total["bags.manifest"] / n_ops,
            "gleason.consensus_s": total["gleason.consensus"] / n_ops,
            "metrics.bootstrap_s": total["metrics.bootstrap"] / n_ops,
            "metrics.permutation_s": total["metrics.permutation"] / n_ops,
            "metrics.permutation_chunk_mb": perm_peak / 1e6,
            "reports.write_s": total["reports.write"] / n_ops,
            "reports.read_s": total["reports.read"] / n_ops,
            "cli.self_s": self_time["cli"] / n_ops,
            "trace.coverage": sum(self_time.values()) / sum(op_seconds),
        }

    def _steps(self) -> list[tuple[float, float, int, int]]:
        """(start, end, tensors made, bytes allocated) per Adam step.

        A step runs from a forward span directly under ``training.train``
        to the end of the next ``training.adam`` span under the same parent.
        """
        steps = []
        open_at: dict[int, Span] = {}
        for s in self.spans:
            if s.phase != "op" or s.parent < 0:
                continue
            if self.spans[s.parent].name != "training.train":
                continue
            if s.name == "models.forward":
                open_at[s.parent] = s
            elif s.name == "training.adam" and s.parent in open_at:
                first = open_at.pop(s.parent)
                steps.append((first.start, s.end, s.nodes1 - first.nodes0,
                              s.bytes1 - first.bytes0))
        return steps
