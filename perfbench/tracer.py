"""Outside-in tracing of darter's public entry points.

The tracer replaces each entry point under the name its caller resolves
(``darter.model.encode_stacked``, not ``darter.encoder.encode_stacked``,
because ``model.py`` imports the function into its own namespace) with a
wrapper that records one span per call.  Spans stay in memory; self time is
derived when the run ends, as a span's duration minus the durations of the
spans it directly caused.  Graph node counts come from the growth of
``len(record.nodes)`` across a call, and per tag from ``Record.backward``.

Nothing in ``src/`` knows about this module.  A name that no longer exists
is reported as absent rather than failing the run.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict

# Autodiff node tags at the time the benchmark was defined; any tag outside
# this list is counted under "other".
NODE_TAGS = ("leaf", "matmul", "add", "sub", "mul", "badd", "affine_const",
             "tanh", "sigmoid", "elu", "log", "clamp", "layer_norm", "concat",
             "take", "reshape", "sum")

# Sentence lengths of the per-stage length sweep: t = 5 comes from
# train-bundled, the rest from predict-long.  Only two-layer (bidarter)
# calls are bucketed, so every bucket times the same architecture.
SWEEP_LENGTHS = (5, 20, 50, 100)

# metric name -> (span name, statistic, scale to the metric's unit)
#   mean:  duration per call;  self: self time per call;
#   nodes: graph nodes added per recorded call
_STAGES = {
    "model.forward_us": ("model.forward", "mean", 1e6),
    "model.forward_self_us": ("model.forward", "self", 1e6),
    "model.embed_us": ("model.embed", "mean", 1e6),
    "autodiff.bind_us": ("autodiff.bind", "mean", 1e6),
    "encoder.encode_stacked_ms": ("encoder.encode_stacked", "mean", 1e3),
    "encoder.nodes_per_call": ("encoder.encode_stacked", "nodes", 1),
    "decoders.decode_streams_ms": ("decoders.decode_streams", "mean", 1e3),
    "decoders.nodes_per_call": ("decoders.decode_streams", "nodes", 1),
    "decoders.threshold_predictions_ms":
        ("decoders.threshold_predictions", "mean", 1e3),
    "autodiff.backward_ms": ("autodiff.backward", "mean", 1e3),
    "training.train_ms": ("training.train", "mean", 1e3),
    "training.train_self_ms": ("training.train", "self", 1e3),
    "training.sentence_loss_us": ("training.sentence_loss", "mean", 1e6),
    "training.adam_step_us": ("training.adam_step", "mean", 1e6),
    "training.load_checkpoint_ms": ("training.load_checkpoint", "mean", 1e3),
    "gradcheck.numeric_gradients_s":
        ("gradcheck.numeric_gradients", "mean", 1),
    "gradcheck.numeric_gradients_self_s":
        ("gradcheck.numeric_gradients", "self", 1),
    "corpus.load_corpus_ms": ("corpus.load_corpus", "mean", 1e3),
    "corpus.gold_tables_us": ("corpus.gold_tables", "mean", 1e6),
    "corpus.entity_mask_us": ("corpus.entity_mask", "mean", 1e6),
    "corpus.encode_us": ("corpus.encode", "mean", 1e6),
    "evaluation.evaluate_corpus_ms":
        ("evaluation.evaluate_corpus", "mean", 1e3),
}


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at top level
    nodes: int | None    # graph nodes added, for calls on a recording Record
    t: int | None        # sentence length, for the sweep
    layers: int | None   # recurrent layers, for the sweep


def _first_tensor(obj, depth: int = 4):
    """The first darter Tensor inside a call argument, searched shallowly."""
    if hasattr(obj, "node_id") and hasattr(obj, "record"):
        return obj
    if depth == 0:
        return None
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = vars(obj).values()
    else:
        return None
    for item in items:
        found = _first_tensor(item, depth - 1)
        if found is not None:
            return found
    return None


def _tensor_meta(args, layers_arg: int | None):
    """(record, t, layers) for a stage whose first argument holds tensors."""
    tensor = _first_tensor(args[0]) if args else None
    if tensor is None:
        return None, None, None
    record = tensor.record
    if record is not None and not record.recording:
        record = None
    t = tensor.values.shape[0] if tensor.values.ndim else None
    layers = None
    if layers_arg is not None and len(args) > layers_arg:
        try:
            layers = len(args[layers_arg])
        except TypeError:
            pass
    return record, t, layers


class Tracer:
    """Records spans for wrapped entry points; `uninstall` restores them."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._wrapped: set[str] = set()
        self._missing: set[str] = set()
        self.tag_counts: Counter = Counter()
        self.backward_steps = 0
        self.nodes_at_backward = 0

    # -- installation ---------------------------------------------------

    def wrap(self, owner, attr: str, name: str, meta=None) -> None:
        """Replace `owner.attr` by a span-recording wrapper.

        `meta(args)` returns (record, t, layers) for the call; the record,
        when recording, is used to count the nodes the call adds.
        """
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            self._missing.add(name)
            return
        spans, stack = self.spans, self._stack
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            record, t, layers = meta(args) if meta else (None, None, None)
            before = len(record.nodes) if record is not None else 0
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                nodes = (len(record.nodes) - before
                         if record is not None else None)
                spans[index] = Span(name, start, end, parent, nodes, t, layers)

        wrapper.__wrapped__ = original
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        self._wrapped.add(name)

    def _count_step(self, args):
        record = args[0]
        self.backward_steps += 1
        self.nodes_at_backward += len(record.nodes)
        self.tag_counts.update(node.tag for node in record.nodes)
        return None, None, None

    def install(self, dm) -> None:
        """Wrap the darter entry points of the modules in namespace `dm`."""
        wrap = self.wrap
        wrap(dm.model, "take", "model.embed")
        wrap(dm.model, "encode_stacked", "encoder.encode_stacked",
             meta=lambda args: _tensor_meta(args, 1))
        wrap(dm.model, "decode_streams", "decoders.decode_streams",
             meta=lambda args: _tensor_meta(args, 0))
        wrap(dm.model, "threshold_predictions",
             "decoders.threshold_predictions")
        wrap(dm.model.JointModel, "forward", "model.forward")
        wrap(dm.autodiff.ParamStore, "bind", "autodiff.bind")
        wrap(dm.autodiff.Record, "backward", "autodiff.backward",
             meta=self._count_step)
        wrap(dm.training.Adam, "step", "training.adam_step")
        wrap(dm.training, "sentence_loss", "training.sentence_loss")
        wrap(dm.training, "train", "training.train")
        wrap(dm.training, "load_checkpoint", "training.load_checkpoint")
        # training.py resolves these through its own namespace; the
        # benchmark calls them through darter.corpus
        for owner in (dm.training, dm.corpus):
            wrap(owner, "gold_tables", "corpus.gold_tables")
            wrap(owner, "entity_mask", "corpus.entity_mask")
        wrap(dm.corpus.Vocabulary, "encode", "corpus.encode")
        wrap(dm.corpus, "load_corpus", "corpus.load_corpus")
        wrap(dm.gradcheck, "numeric_gradients", "gradcheck.numeric_gradients")
        wrap(dm.evaluation, "evaluate_corpus", "evaluation.evaluate_corpus")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @property
    def missing(self) -> list[str]:
        """Span names whose entry point no longer exists."""
        return sorted(self._missing - self._wrapped)

    # -- derivation -----------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-stage metrics from the recorded spans.

        A stage that was never called produces no metric, so the caller can
        report it as absent.
        """
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s is not None and s.parent >= 0:
                children[s.parent] += s.end - s.start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        nodes: defaultdict = defaultdict(list)
        swept: defaultdict = defaultdict(list)
        for index, s in enumerate(self.spans):
            if s is None:
                continue
            duration = s.end - s.start
            calls[s.name] += 1
            total[s.name] += duration
            own[s.name] += duration - children[index]
            if s.nodes is not None:
                nodes[s.name].append(s.nodes)
            if s.layers == 2 and s.t in SWEEP_LENGTHS:
                swept[s.name, s.t].append(duration)

        out: dict[str, float] = {}
        for metric, (name, stat, scale) in _STAGES.items():
            if stat == "nodes":
                if nodes[name]:
                    out[metric] = sum(nodes[name]) / len(nodes[name])
            elif calls[name]:
                value = total[name] if stat == "mean" else own[name]
                out[metric] = value / calls[name] * scale
        for stage, metric in (("encoder.encode_stacked",
                               "encoder.encode_stacked_ms"),
                              ("decoders.decode_streams",
                               "decoders.decode_streams_ms")):
            for t in SWEEP_LENGTHS:
                samples = swept[stage, t]
                if samples:
                    out[f"{metric}.t{t}"] = sum(samples) / len(samples) * 1e3
        if self.backward_steps:
            steps = self.backward_steps
            out["autodiff.nodes_per_step"] = self.nodes_at_backward / steps
            other = sum(n for tag, n in self.tag_counts.items()
                        if tag not in NODE_TAGS)
            for tag in NODE_TAGS:
                out[f"autodiff.nodes.{tag}"] = self.tag_counts[tag] / steps
            out["autodiff.nodes.other"] = other / steps
        return out
