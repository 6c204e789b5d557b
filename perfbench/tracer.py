"""In-memory span tracer over the program's layer modules.

The tracer wraps public functions and methods of each layer module from
outside (nothing under ``src/`` changes): every call becomes a span with
a name, start, end, parent span and thread.  Module-level functions are
replaced both where they are defined and in every loaded ``repro`` module
that imported them by name, so ``from x import f`` call sites are traced
too.  Spans stay in memory and are written out when the run ends; the
per-layer metrics are computed from them afterwards.

Only the traced run installs the tracer.  End-to-end numbers come from
untraced runs, where none of this code is on any call path.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.stats import Coverage, median, self_time

# (layer, module, attribute path, kept value)
#
# The layer is the span-name prefix; the attribute path is ``func`` or
# ``Class.method``.  A kept value is computed from ``(args, result)`` and
# stored per span name: return values the metrics need (sweep deltas,
# ship reports, item counts, pattern counts).
Target = Tuple[str, str, str, Optional[Callable[[tuple, Any], Any]]]


def _n_patterns(args: tuple, result: Any) -> int:
    return int(getattr(args[0], "n_patterns", 0))


def _n_rows(args: tuple, result: Any) -> int:
    return len(result)


def _identity(args: tuple, result: Any) -> Any:
    return result


TARGETS: Sequence[Target] = (
    ("kernels", "repro.core.kernels", "SweepKernel.__init__", _n_patterns),
    ("kernels", "repro.core.kernels", "SweepKernel.begin_sweep", None),
    ("kernels", "repro.core.kernels", "SweepKernel.add_worker_scores", None),
    ("kernels", "repro.core.kernels", "SweepKernel.add_item_scores", None),
    ("kernels", "repro.core.kernels", "SweepKernel.cell_statistics", None),
    ("kernels", "repro.core.kernels", "SweepKernel.data_elbo", None),
    ("kernels", "repro.core.kernels", "unique_patterns", None),
    ("kernels", "repro.core.kernels", "segment_sum", None),
    ("kernels", "repro.core.kernels", "grouped_matmul", None),
    ("kernels", "repro.core.kernels", "grouped_outer", None),
    ("inference", "repro.core.inference", "VariationalInference.__init__", None),
    ("inference", "repro.core.inference", "VariationalInference.run", None),
    ("inference", "repro.core.inference", "VariationalInference.sweep", _identity),
    ("inference", "repro.core.inference", "VariationalInference.elbo", None),
    ("svi", "repro.core.svi", "StochasticInference.__init__", None),
    ("svi", "repro.core.svi", "StochasticInference.process_batch", None),
    ("svi", "repro.core.svi", "StochasticInference.checkpoint", None),
    ("svi", "repro.core.svi", "StochasticInference.restore", None),
    ("svi", "repro.core.svi", "StochasticInference.grow", None),
    ("state", "repro.core.state", "CPAState.sync_phi_from_mu", None),
    ("state", "repro.core.state", "CPAState.sync_mu_from_phi", None),
    ("state", "repro.core.state", "CPAState.copy", None),
    ("state", "repro.core.state", "CPAState.validate", None),
    ("state", "repro.core.state", "initialize_state", None),
    ("consensus", "repro.core.consensus", "estimate_consensus", None),
    ("consensus", "repro.core.consensus", "community_label_rates", None),
    ("consensus", "repro.core.consensus", "community_discriminability", None),
    ("prediction", "repro.core.prediction", "predict_items", _n_rows),
    ("prediction", "repro.core.prediction", "label_probabilities", _n_rows),
    ("prediction", "repro.core.prediction", "item_cluster_log_weights", None),
    ("prediction", "repro.core.prediction", "item_evidence", None),
    ("prediction", "repro.core.prediction", "greedy_map_labels", None),
    ("prediction", "repro.core.prediction", "exhaustive_map_labels", None),
    ("answers", "repro.data.answers", "AnswerMatrix.add", None),
    ("answers", "repro.data.answers", "AnswerMatrix.get", None),
    ("answers", "repro.data.answers", "AnswerMatrix.to_arrays", None),
    ("answers", "repro.data.answers", "AnswerMatrix.from_mapping", None),
    ("answers", "repro.data.answers", "AnswerMatrix.merged_with", None),
    ("answers", "repro.data.answers", "AnswerMatrix.resized", None),
    ("answers", "repro.data.answers", "AnswerMatrix.copy", None),
    ("answers", "repro.data.answers", "AnswerMatrix.answered_items", None),
    ("answers", "repro.data.answers", "AnswerMatrix.items_for_worker", None),
    ("serve", "repro.serve", "ConsensusEngine.ingest", None),
    ("serve", "repro.serve", "ConsensusEngine.step", None),
    ("serve", "repro.serve", "ConsensusEngine.predict", None),
    ("serve", "repro.serve", "ConsensusEngine.label_probabilities", None),
    ("serve", "repro.serve", "ConsensusEngine.consensus", None),
    ("serve", "repro.serve", "ConsensusEngine.metrics", None),
    ("serve", "repro.serve", "ConsensusEngine.snapshot_payload", None),
    ("serve", "repro.serve", "ConsensusEngine.mark_snapshot", None),
    ("serve", "repro.serve", "ConsensusEngine.restore", None),
    ("serve", "repro.serve", "ConsensusServer.handle", None),
    ("checkpoint", "repro.core.checkpoint", "checkpoint_payload", None),
    ("checkpoint", "repro.core.checkpoint", "payload_meta", None),
    ("checkpoint", "repro.core.checkpoint", "state_from_payload", None),
    ("transport", "repro.serve", "ship_checkpoint", _identity),
    ("transport", "repro.utils.transport", "request", None),
    ("transport", "repro.utils.transport", "dumps", None),
    ("transport", "repro.utils.transport", "split_chunks", None),
    ("transport", "repro.utils.transport", "chunk_digest", None),
    ("transport", "repro.utils.transport", "connect", None),
    ("fleet", "repro.utils.transport", "LaneHealth.consume_reconnect", None),
    ("simulation", "repro.simulation.generator", "generate_dataset", None),
    ("simulation", "repro.simulation.scenarios", "make_scenario", None),
)

#: Benchmark-level operation spans carry this prefix; everything else is a
#: layer span.
OP = "op."

#: The timed operation kinds whose attribution to layers is reported.
OP_KINDS = ("fit", "predict", "proba", "backlog", "ingest", "query", "refresh")


class Tracer:
    """Span recorder: ``spans`` holds ``(id, parent, thread, name, start,
    end)`` tuples; ``kept`` holds per-name values picked from calls."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, float, float]] = []
        self.kept: Dict[str, List[Any]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def paused(self) -> bool:
        return getattr(self._local, "paused", False)

    def pause(self, flag: bool) -> None:
        """Stop (or resume) recording on the calling thread only: checks
        made by the benchmark are not user operations."""
        self._local.paused = flag

    def call(self, name: str, keep, func, args: tuple, kwargs: dict) -> Any:
        if self.paused():
            return func(*args, **kwargs)
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, threading.get_ident(), name, start, end)
            )
        if keep is not None:
            self.kept[name].append(keep(args, result))
        return result

    def op(self, kind: str) -> "_OpSpan":
        """Context manager timing one benchmark operation as a span."""
        return _OpSpan(self, OP + kind)

    # ------------------------------------------------------------- patching

    def install(self, targets: Sequence[Target] = TARGETS) -> "Tracer":
        for layer, module_name, path, keep in targets:
            module = importlib.import_module(module_name)
            name = f"{layer}.{path.rsplit('.', 1)[-1]}"
            if path.endswith("__init__"):
                name = f"{layer}.{path.split('.')[0]}"
            if keep is not None:
                self.kept[name] = []  # created here, not racily on first use
            if "." in path:
                owner_name, attr = path.split(".")
                self._patch_method(getattr(module, owner_name), attr, name, keep)
            else:
                self._patch_function(module, path, name, keep)
        return self

    def _wrapper(self, func, name: str, keep):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            return tracer.call(name, keep, func, args, kwargs)

        return traced

    def _patch_method(self, owner: type, attr: str, name: str, keep) -> None:
        raw = owner.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._wrapper(raw.__func__, name, keep))
        else:
            wrapped = self._wrapper(raw, name, keep)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)

    def _patch_function(self, module, attr: str, name: str, keep) -> None:
        original = getattr(module, attr)
        wrapped = self._wrapper(original, name, keep)
        for other in list(sys.modules.values()):
            if other is None or not getattr(other, "__name__", "").startswith(
                "repro"
            ):
                continue
            if getattr(other, attr, None) is original:
                self._patches.append((other, attr, original))
                setattr(other, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------------- output

    def write(self, path: Path) -> None:
        """Write every span as one line of gzipped CSV (times relative to
        the first span, threads numbered in order of appearance)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[4] for s in self.spans), default=0.0)
        threads: Dict[int, int] = {}
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id,parent,thread,name,start_s,end_s\n")
            for sid, parent, thread, name, start, end in self.spans:
                tid = threads.setdefault(thread, len(threads))
                handle.write(
                    f"{sid},{parent},{tid},{name},"
                    f"{start - origin:.9f},{end - origin:.9f}\n"
                )


class _OpSpan:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_OpSpan":
        stack = self._tracer._stack()
        self._sid = next(self._tracer._ids)
        self._parent = stack[-1] if stack else 0
        stack.append(self._sid)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        self._tracer._stack().pop()
        self._tracer.spans.append(
            (
                self._sid,
                self._parent,
                threading.get_ident(),
                self._name,
                self._start,
                end,
            )
        )


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs."""

    def op(self, kind: str) -> "_NullSpan":
        return _NULL_SPAN

    def pause(self, flag: bool) -> None:
        pass


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


# ------------------------------------------------------------- analysis


class SpanIndex:
    """Lookups over a finished trace: totals, counts, outermost (busy)
    time and self time per layer, and per-operation attribution."""

    def __init__(self, spans: Sequence[Tuple[int, int, int, str, float, float]]):
        self.spans = spans
        self.by_id = {s[0]: s for s in spans}
        self.children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, parent, _, _, start, end in spans:
            if parent:
                self.children[parent].append((start, end))

    @staticmethod
    def layer(name: str) -> str:
        return name.split(".", 1)[0]

    def of(self, name: str) -> Iterator[Tuple[int, int, int, str, float, float]]:
        return (s for s in self.spans if s[3] == name)

    def count(self, name: str) -> int:
        return sum(1 for _ in self.of(name))

    def total(self, *names: str) -> float:
        wanted = set(names)
        return sum(s[5] - s[4] for s in self.spans if s[3] in wanted)

    def busy(self, layer: str) -> float:
        """Summed duration of the layer's outermost spans: nested calls
        inside the same layer are not counted twice."""
        total = 0.0
        for sid, parent, _, name, start, end in self.spans:
            if self.layer(name) != layer:
                continue
            ancestor = parent
            nested = False
            while ancestor:
                record = self.by_id.get(ancestor)
                if record is None:
                    break
                if self.layer(record[3]) == layer:
                    nested = True
                    break
                ancestor = record[1]
            if not nested:
                total += end - start
        return total

    def self_time(self, layer: str) -> float:
        """Summed self time of the layer's spans: each span's duration
        minus what its direct children cover."""
        return sum(
            self_time((start, end), self.children.get(sid, ()))
            for sid, _, _, name, start, end in self.spans
            if self.layer(name) == layer
        )

    def attribution(self) -> Dict[str, float]:
        """Per operation kind: the share of its wall time that layer spans
        (on any thread) cover.  Server-side work runs on the daemon's
        connection threads, so coverage is taken over time, not over the
        parent chain."""
        coverage = Coverage(
            (s[4], s[5]) for s in self.spans if not s[3].startswith(OP)
        )
        covered: Dict[str, float] = defaultdict(float)
        spent: Dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end in self.spans:
            if name.startswith(OP):
                kind = name[len(OP):]
                covered[kind] += coverage.covered(start, end)
                spent[kind] += end - start
        return {
            kind: covered[kind] / spent[kind] for kind in spent if spent[kind] > 0
        }


#: Every per-layer metric with its unit, in report order.
PER_LAYER_UNITS: Dict[str, str] = {
    "kernels.busy_s": "s",
    "kernels.patterns": "count",
    "inference.sweeps": "count",
    "inference.sweep_s": "s",
    "inference.self_s": "s",
    "inference.final_delta": "1",
    "inference.elbo_s": "s",
    "svi.steps": "count",
    "svi.step_s": "s",
    "svi.sync_phi_s": "s",
    "consensus.rebuilds": "count",
    "consensus.rebuild_s": "s",
    "consensus.label_rates_s": "s",
    "prediction.items": "count",
    "prediction.log_weights_s": "s",
    "prediction.evidence_s": "s",
    "prediction.map_s": "s",
    "prediction.f1": "ratio",
    "answers.add_s": "s",
    "answers.to_arrays_s": "s",
    "answers.bytes_per_answer": "B",
    "serve.fold_s": "s",
    "serve.query_compute_s": "s",
    "serve.query_wait_s": "s",
    "serve.snapshot_s": "s",
    "serve.snapshot_kb": "KB",
    "checkpoint.payload_s": "s",
    "transport.ship_s": "s",
    "transport.chunks_shipped": "count",
    "fleet.reconnects": "count",
    "simulation.generate_s": "s",
    "serve.backlog_answers_per_s": "answers/s",
    "serve.ingest_p50_ms": "ms",
    "serve.query_p50_ms": "ms",
    "serve.query_p90_ms": "ms",
    "fleet.refresh_p50_ms": "ms",
    **{f"trace.attributed.{kind}": "ratio" for kind in OP_KINDS},
}


def layer_metrics(tracer: Tracer, extras: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see README "Per-layer")."""
    index = SpanIndex(tracer.spans)
    kept = tracer.kept
    ships = kept.get("transport.ship_checkpoint", [])
    deltas = kept.get("inference.sweep", [])
    attribution = index.attribution()
    metrics = {
        "kernels.busy_s": index.busy("kernels"),
        "kernels.patterns": max(kept.get("kernels.SweepKernel", [0]) or [0]),
        "inference.sweeps": index.count("inference.sweep"),
        "inference.sweep_s": index.total("inference.sweep"),
        "inference.self_s": index.self_time("inference"),
        "inference.final_delta": float(deltas[-1]) if deltas else 0.0,
        "inference.elbo_s": index.total("inference.elbo"),
        "svi.steps": index.count("svi.process_batch"),
        "svi.step_s": index.total("svi.process_batch"),
        "svi.sync_phi_s": index.total("state.sync_phi_from_mu"),
        "consensus.rebuilds": index.count("consensus.estimate_consensus"),
        "consensus.rebuild_s": index.total("consensus.estimate_consensus"),
        "consensus.label_rates_s": index.total("consensus.community_label_rates"),
        "prediction.items": sum(kept.get("prediction.predict_items", []))
        + sum(kept.get("prediction.label_probabilities", [])),
        "prediction.log_weights_s": index.total(
            "prediction.item_cluster_log_weights"
        ),
        "prediction.evidence_s": index.total("prediction.item_evidence"),
        "prediction.map_s": index.total(
            "prediction.greedy_map_labels", "prediction.exhaustive_map_labels"
        ),
        "answers.add_s": index.total("answers.add"),
        "answers.to_arrays_s": index.total("answers.to_arrays"),
        "serve.fold_s": index.total("serve.step"),
        "serve.query_compute_s": index.total(
            "serve.predict", "serve.label_probabilities"
        ),
        "serve.snapshot_s": index.total("serve.snapshot_payload"),
        "serve.snapshot_kb": (
            median([r.total_bytes / 1024.0 for r in ships]) if ships else 0.0
        ),
        "checkpoint.payload_s": index.total("checkpoint.checkpoint_payload"),
        "transport.ship_s": index.total("transport.ship_checkpoint"),
        "transport.chunks_shipped": sum(r.n_shipped for r in ships),
        "fleet.reconnects": index.count("fleet.consume_reconnect"),
        "simulation.generate_s": index.busy("simulation"),
    }
    for kind in OP_KINDS:
        metrics[f"trace.attributed.{kind}"] = attribution.get(kind, 0.0)
    metrics.update(extras)
    return metrics
