"""In-process spans around the public calls of each conjprop layer.

The tracer patches module attributes from outside the program: every
binding of a traced function in any loaded ``conjprop`` module is replaced
by one wrapper, so calls between modules are seen as well as calls from
the CLI.  The wrapper keeps the original's ``__module__`` and
``__qualname__``, so functions handed to a process pool still pickle by
reference (spans recorded inside pool workers are lost; the enclosing
span still covers them).

A span is (id, name, start, end, parent id, step, workload).  Spans stay
in memory until the run writes them out.  A layer is the module prefix of
a span name; a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

def _mode_span(args, kwargs):
    """converter.rbc2, converter.always, converter.rbc2_fix, ..."""
    mode = kwargs["mode"] if "mode" in kwargs else args[1]
    return "converter." + mode.replace("+", "_")


def _count_instances(args, kwargs, result, add):
    add("instances.count", len(result))
    graded = [inst for inst in result if inst.gold is not None]
    add("instances.graded", len(graded))
    add("instances.positive", sum(1 for inst in graded if inst.gold))


def _count_svm(args, kwargs, result, add):
    add("svm.support_vectors", result.support_vectors.shape[0])
    add("svm.instances", len(args[0]))


def _count_predict(args, kwargs, result, add):
    add("propmodel.candidates", len(result))
    add("propmodel.accepted", int(result.sum()))


def _count_score(args, kwargs, result, add):
    add("evaluate.links_sys", result.overall.n_sys)
    add("evaluate.links_gold", result.overall.n_gold)


def _count_parser(args, kwargs, result, add):
    add("edgepred.param_bytes",
        sum(t.data.nbytes for t in result.params.values()))


def _count_labels(args, kwargs, result, add):
    add("edgepred.labels", len(result))


def _count_saved(args, kwargs, result, add):
    add("modelfile.bytes", os.path.getsize(args[0]))


def _count_parsed(args, kwargs, result, add):
    add("conllu.sentences", len(result))


# (module, attribute path, span name or namer, counter)
TRACED = (
    ("conjprop.conllu", "parse_corpus", "conllu.parse", _count_parsed),
    ("conjprop.conllu", "write_corpus", "conllu.write", None),
    ("conjprop.graph", "propagated_links", "graph.propagated_links", None),
    ("conjprop.converter", "convert_mode", _mode_span, None),
    ("conjprop.evaluate", "align_corpora", "evaluate.align", None),
    ("conjprop.evaluate", "score", "evaluate.score", _count_score),
    ("conjprop.evaluate", "diff_stats", "evaluate.diff_stats", None),
    ("conjprop.evaluate", "agreement_matrix", "evaluate.agreement", None),
    ("conjprop.instances", "extract_instances", "instances.extract",
     _count_instances),
    ("conjprop.instances", "featurize", "instances.featurize", None),
    ("conjprop.instances", "vectorize", "instances.vectorize", None),
    ("conjprop.svm", "train_svm", "svm.train", _count_svm),
    ("conjprop.svm", "SVMModel.decision_function", "svm.decision", None),
    ("conjprop.propmodel", "apply_model", "propmodel.apply", None),
    ("conjprop.propmodel", "PropModel.predict", "propmodel.predict",
     _count_predict),
    ("conjprop.propmodel", "mlp_loss", "propmodel.mlp_loss", None),
    ("conjprop.autodiff", "Tensor.backward", "autodiff.backward", None),
    ("conjprop.autodiff", "AdamW.step", "autodiff.adamw_step", None),
    ("conjprop.embeddings", "read_sidecar", "embeddings.read_sidecar", None),
    ("conjprop.embeddings", "hash_provider", "embeddings.hash_provider",
     None),
    ("conjprop.edgepred", "build_label_inventory",
     "edgepred.build_label_inventory",
     _count_labels),
    ("conjprop.edgepred", "new_parser", "edgepred.new_parser",
     _count_parser),
    ("conjprop.edgepred", "sentence_loss", "edgepred.sentence_loss", None),
    ("conjprop.edgepred", "train_epoch", "edgepred.train_epoch", None),
    ("conjprop.edgepred", "decode", "edgepred.decode", None),
    ("conjprop.labels", "delexicalize_corpus", "labels.delexicalize", None),
    ("conjprop.modelfile", "save_model", "modelfile.save", _count_saved),
    ("conjprop.modelfile", "load_model", "modelfile.load", None),
)


class Tracer:
    """Collects spans and counters while its patches are installed."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self._stack: list[int] = []
        self._next_id = 0
        self._step = ""
        self._undo: list[tuple] = []
        self.probe_s = 0.0
        self.svm_peak_bytes: list[int] = []

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str, step: str | None = None):
        if step is not None:
            self._step = step
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent,
                               self._step, self.workload))

    def add(self, key: str, value: float) -> None:
        self.counts[(self._step, key)] += value

    def _wrap(self, fn, name, counter, probe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            with tracer.span(span_name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(args, kwargs, result, tracer.add)
            if probe is not None:
                probe(fn, args, kwargs)
            return result
        return wrapper

    def _svm_probe(self, fn, args, kwargs):
        """Peak traced allocation of train_svm, from a second call.

        tracemalloc slows the solver several times over, so the probe runs
        in a span of its own, outside every layer's self time, and its
        duration is left out of the traced pass total.
        """
        if tracemalloc.is_tracing():
            return
        start = time.perf_counter()
        with self.span("trace.svm_peak_probe"):
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                self.svm_peak_bytes.append(
                    tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        self.probe_s += time.perf_counter() - start

    # ---------------------------------------------------------- patches

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "conjprop" or name.startswith("conjprop.")]
        for module_name, path, name, counter in TRACED:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            probe = self._svm_probe if path == "train_svm" else None
            wrapper = self._wrap(original, name, counter, probe)
            self._patch(owner, attr, wrapper)
            if outer:
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original and module is not owner:
                        self._patch(module, binding, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def span_stats(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds and self seconds."""
    child_time = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]
    out: dict[str, dict] = {}
    for s in spans:
        entry = out.setdefault(s[1], {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += s[3] - s[2]
        entry["self_s"] += s[3] - s[2] - child_time[s[0]]
    return out


def spans_json(spans: list[tuple]) -> list[dict]:
    return [{"id": s[0], "name": s[1], "start": s[2], "end": s[3],
             "parent": s[4], "step": s[5], "workload": s[6]} for s in spans]
