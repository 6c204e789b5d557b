"""One benchmark run: whole rounds of the user session, one world each.

A round is what a user of this library does with a crowd task, on one
generated dataset (a "world", drawn from the run's seed):

0. **Set-up.**  Generate the dataset, cut its answers into the paper's
   worker-grouped arrivals (``AnswerStream.by_workers(1)``: one arrival is
   every answer of one worker) and start a
   :class:`~repro.fleet.FleetManager`: an in-process writer and one read
   replica, a ``python -m repro.serve --read-only`` subprocess.
1. **Live phase.**  The first arrivals come as a backlog, sent back to
   back; the writer folds them (SVI, paper Alg. 2-3) and the replica then
   catches up.  The next arrivals come on a fixed schedule (open loop)
   while a second client thread sends ``predict`` / ``proba`` queries about
   the most recently answered item on a schedule of its own; both are
   timed from each request's due time.  After every ``refresh_every``-th
   scheduled arrival the generator ships the writer's snapshot to the
   replica (a chunk delta).
2. **Batch phase.**  A :class:`~repro.CPAModel` is fitted to the whole
   dataset (batch VI, paper Alg. 1), then ``predict`` and
   ``predict_proba`` run for every answered item.

Load comes from this one process: the generator (main thread, one
connection to the writer) and the query thread (one more connection).
A third connection, to the replica, is used only by the parity check
right after each refresh.  Every operation is timed from outside through
the public API; checks run with the tracer paused on their thread.
"""

from __future__ import annotations

import resource
import sys
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from perfbench import stats

#: Operation kinds whose attempts and failures a run counts.
COUNTED_KINDS = ("fit", "predict", "proba", "ingest", "query", "refresh")


@dataclass(frozen=True)
class Workload:
    """One input shape and its traffic.  ``make`` builds the dataset from
    the run's seed; the rates are chosen so that the program keeps up
    (no growing backlog) on a two-core machine."""

    name: str
    make: Callable[[int], Any]
    workers_per_arrival: int  # one arrival carries every answer of this many workers
    backlog_arrivals: int  # first arrivals, sent back to back
    scheduled_arrivals: int  # next arrivals, sent on the schedule
    arrival_rate: float  # scheduled arrivals per second
    query_rate: float  # queries per second during the scheduled part
    refresh_every: int  # ship a snapshot after every k-th scheduled arrival
    round_seconds: float  # planned length of one round (sets rounds per run)
    majority_floor: bool  # the fit's F1 must beat per-label majority vote
    predict_repeats: int  # predict / predict_proba runs per round (short ones repeat)


def _image(scale: float) -> Callable[[int], Any]:
    def make(seed: int):
        from repro import make_scenario

        return make_scenario("image", seed, scale=scale)

    return make


def _sparse(n_items: int) -> Callable[[int], Any]:
    def make(seed: int):
        from repro import generate_dataset
        from repro.simulation.scenarios import large_scale_config

        return generate_dataset(
            large_scale_config(n_items=n_items, answers_per_item=3), seed
        )

    return make


# Each round of a run draws a new dataset ("world") from the run's seed:
# fit time moves by up to a third between worlds of the same shape (the
# per-pattern BLAS blocks and the sweep at which the stop rule fires depend
# on the drawn label structure), so a run reports medians over three
# worlds.  Per round, 24 scheduled arrivals at 5/s and 75 queries/s give 4
# refreshes and 360 queries, so a run of three rounds has 12 refreshes and
# 1080 queries (108 beyond the 90th percentile).  At this arrival rate the
# writer's lock is busy (fold, consensus rebuild, snapshot) for roughly a
# quarter of the time, so the median query does not wait and the 90th
# percentile does: neither sits on the boundary between the two.  Workers
# in the image scenario answer very unequal amounts, so its arrivals group
# three workers to keep arrival sizes, and with them fold times, alike
# between worlds.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fit-image", _image(3.5), 3, 50, 24, 5.0, 75.0, 6, 17.0, True, 3),
        Workload("serve-stream", _sparse(4000), 1, 150, 24, 5.0, 75.0, 6, 17.0, False, 2),
    )
}

#: The same workloads at tiny inputs and short schedules: every code path,
#: check and trace span of the full size, in seconds.
SMOKE: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("fit-image", _image(0.3), 1, 20, 12, 30.0, 90.0, 4, 1.0, True, 3),
        Workload("serve-stream", _sparse(300), 1, 20, 12, 30.0, 90.0, 4, 1.0, False, 1),
    )
}


# ------------------------------------------------------------- bookkeeping


@dataclass
class Ledger:
    """Per-kind attempted/failed counts, raw samples and check verdicts."""

    attempted: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTED_KINDS, 0))
    failed: Dict[str, int] = field(default_factory=lambda: dict.fromkeys(COUNTED_KINDS, 0))
    errors: List[str] = field(default_factory=list)
    checks: Dict[str, bool] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, kind: str, ok: bool, error: Optional[BaseException] = None) -> None:
        with self.lock:
            self.attempted[kind] += 1
            if not ok:
                self.failed[kind] += 1
                self.errors.append(f"{kind}: {error!r}")

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.samples.setdefault(name, []).append(float(value))

    def check(self, name: str, ok: bool) -> None:
        """A check holds for the run only if it held every time it ran."""
        with self.lock:
            self.checks[name] = self.checks.get(name, True) and bool(ok)


def _sleep_until(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _labels_in_range(reply: Dict[int, List[int]], items, n_labels: int) -> bool:
    return sorted(reply) == sorted(items) and all(
        0 <= label < n_labels for labels in reply.values() for label in labels
    )


def _rows_in_range(rows: np.ndarray, n_rows: int, n_labels: int) -> bool:
    return (
        rows.shape == (n_rows, n_labels)
        and bool(np.all(np.isfinite(rows)))
        and bool(np.all((rows >= 0.0) & (rows <= 1.0)))
    )


def _states_equal(a, b) -> bool:
    """Bitwise equality of two variational states (every array field)."""
    for name, value in vars(a).items():
        other = getattr(b, name)
        if isinstance(value, np.ndarray) or isinstance(other, np.ndarray):
            if not (
                isinstance(value, np.ndarray)
                and isinstance(other, np.ndarray)
                and value.dtype == other.dtype
                and value.shape == other.shape
                and value.tobytes() == other.tobytes()
            ):
                return False
        elif value != other:
            return False
    return True


def deep_bytes(obj: Any) -> int:
    """Approximate heap footprint of a container tree (each object once)."""
    seen = set()
    stack = [obj]
    total = 0
    while stack:
        current = stack.pop()
        if id(current) in seen:
            continue
        seen.add(id(current))
        if isinstance(current, np.ndarray):
            total += current.nbytes + sys.getsizeof(np.empty(0))
            continue
        total += sys.getsizeof(current)
        if isinstance(current, dict):
            stack.extend(current.keys())
            stack.extend(current.values())
        elif isinstance(current, (list, tuple, set, frozenset)):
            stack.extend(current)
        elif hasattr(current, "__dict__") and not isinstance(current, type):
            stack.append(vars(current))
    return total


# ------------------------------------------------------------------ set-up


@dataclass
class Inputs:
    dataset: Any
    batches: List[Any]  # the streamed arrivals: backlog, then scheduled

    @property
    def streamed_answers(self) -> int:
        return sum(batch.n_answers for batch in self.batches)


def build_inputs(workload: Workload, seed: int) -> Inputs:
    from repro.data.streams import AnswerStream

    dataset = workload.make(seed)
    stream = AnswerStream(dataset.answers, seed=seed).by_workers(workload.workers_per_arrival)
    n_arrivals = workload.backlog_arrivals + workload.scheduled_arrivals
    batches = [batch for batch, _ in zip(stream, range(n_arrivals))]
    return Inputs(dataset, batches)


def start_fleet(inputs: Inputs, seed: int):
    """Writer plus one read replica in its own process."""
    from repro import CPAConfig
    from repro.fleet import FleetManager

    answers = inputs.dataset.answers
    manager = FleetManager(
        CPAConfig(),
        answers.n_items,
        answers.n_workers,
        answers.n_labels,
        n_replicas=1,
        seed=seed,
        total_answers_hint=inputs.streamed_answers,
        replica_mode="process",
        request_timeout=120.0,
    )
    return manager.start()


# -------------------------------------------------------------- live phase


def live_phase(
    workload: Workload, inputs: Inputs, manager, seed: int, ledger: Ledger, tracer, traced: bool
) -> None:
    from repro import CPAConfig
    from repro.serve import ServeClient

    answers = inputs.dataset.answers
    n_labels = answers.n_labels
    batches = inputs.batches
    backlog = batches[: workload.backlog_arrivals]
    scheduled = batches[workload.backlog_arrivals :]
    sent_answers = 0

    feed = ServeClient(manager.writer_address, timeout=120.0)
    asker = ServeClient(manager.writer_address, timeout=120.0)
    checker = ServeClient(manager.replica_addresses()[0], timeout=120.0)
    try:
        # ---- backlog: sent back to back -----------------------------
        started = time.perf_counter()
        for batch in backlog:
            with tracer.op("backlog"):
                try:
                    feed.ingest(batch)
                    ledger.record("ingest", True)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    ledger.record("ingest", False, exc)
            sent_answers += batch.n_answers
        ledger.add("backlog_s", time.perf_counter() - started)
        ledger.add("backlog_answers", sent_answers)
        # queries name the lowest-numbered item of the latest arrival
        recent = [min(backlog[-1].matrix.answered_items())]
        # The backlog touched nearly every item, so this first ship carries
        # nearly the whole snapshot; the scheduled refreshes are deltas.
        _refresh(manager, checker, recent, ledger, tracer, catch_up=True)
        compute_before = feed.status()["query_seconds_total"]

        # ---- scheduled arrivals and queries -------------------------
        origin = time.perf_counter() + 0.05
        window = len(scheduled) / workload.arrival_rate
        n_queries = int(window * workload.query_rate)
        client_seconds = [0.0]

        def ask() -> None:
            for index in range(n_queries):
                due = origin + index / workload.query_rate
                _sleep_until(due)
                items = list(recent)
                sent = time.perf_counter()
                ledger.add("query_late_ms", (sent - due) * 1e3)
                kind = "predict" if index % 2 == 0 else "proba"
                try:
                    with tracer.op("query"):
                        if kind == "predict":
                            reply = asker.predict(items)
                        else:
                            reply = asker.label_probabilities(items)
                    done = time.perf_counter()
                    ledger.record("query", True)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    ledger.record("query", False, exc)
                    continue
                client_seconds[0] += done - sent
                ledger.add("query_ms", (done - due) * 1e3)
                if kind == "predict":
                    ledger.check("query_labels_in_range", _labels_in_range(reply, items, n_labels))
                else:
                    rows_items, rows = reply
                    ledger.check(
                        "query_proba_in_range",
                        list(rows_items) == items and _rows_in_range(rows, len(items), n_labels),
                    )

        query_thread = threading.Thread(target=ask, name="perfbench-queries")
        query_thread.start()
        try:
            for index, batch in enumerate(scheduled):
                due = origin + index / workload.arrival_rate
                _sleep_until(due)
                ledger.add("arrival_late_ms", (time.perf_counter() - due) * 1e3)
                try:
                    with tracer.op("ingest"):
                        feed.ingest(batch)
                    ledger.record("ingest", True)
                    ledger.add("ingest_ms", (time.perf_counter() - due) * 1e3)
                except Exception as exc:  # noqa: BLE001 - counted as failed
                    ledger.record("ingest", False, exc)
                sent_answers += batch.n_answers
                recent = [min(batch.matrix.answered_items())]
                if (index + 1) % workload.refresh_every == 0:
                    _refresh(manager, checker, recent, ledger, tracer)
        finally:
            query_thread.join(timeout=300.0)
        ledger.check("query_thread_finished", not query_thread.is_alive())
        status = feed.status()
        compute = status["query_seconds_total"] - compute_before
        ledger.add("query_wait_s", client_seconds[0] - compute)
        ledger.check(
            "answers_applied_equals_sent",
            status["answers_applied"] == sent_answers == inputs.streamed_answers,
        )
        ledger.check("answers_behind_zero", status["answers_behind"] == 0)
    finally:
        for client in (feed, asker, checker):
            client.close()

    # ---- writer posterior against an in-process replay ----------------
    tracer.pause(True)
    try:
        from repro.core.svi import StochasticInference
        from repro.data.streams import split_batch

        config = CPAConfig()
        replay = StochasticInference(
            config,
            answers.n_items,
            answers.n_workers,
            answers.n_labels,
            seed=seed,
            total_answers_hint=inputs.streamed_answers,
        )
        for batch in batches:
            for sub in split_batch(batch, config.svi_batch_answers):
                replay.process_batch(sub)
        ledger.check("writer_equals_replay", _states_equal(manager.engine.engine.state, replay.state))
        if traced:
            _served_quality(inputs, manager, ledger)
    finally:
        tracer.pause(False)


def _served_quality(inputs: Inputs, manager, ledger: Ledger) -> None:
    """F1 of the writer's served consensus on every streamed item, next to
    majority vote on the same answers (a figure, not a check: SVI over one
    pass of a stream is not expected to beat majority vote)."""
    from repro.core.prediction import predict_items

    engine = manager.engine
    served = {
        item: detail.labels
        for item, detail in predict_items(
            engine.engine.state, engine.consensus(), engine.answers, engine.config
        ).items()
    }
    truth_all = dict(inputs.dataset.truth.items())
    truth = {item: truth_all[item] for item in served if item in truth_all}
    n_labels = engine.answers.n_labels
    items, _, indicators = engine.answers.to_arrays()
    majority = stats.majority_vote(items, indicators, engine.answers.n_items)
    ledger.add("served_f1", stats.set_f1(served, truth, n_labels)[2])
    ledger.add("served_mv_f1", stats.set_f1(majority, truth, n_labels)[2])


def _refresh(
    manager, checker, items: List[int], ledger: Ledger, tracer, catch_up: bool = False
) -> None:
    """Ship the writer's snapshot to the replica, then check that the
    replica answers bitwise as the writer does."""
    from repro.core.prediction import label_probabilities, predict_items

    started = time.perf_counter()
    try:
        with tracer.op("refresh"):
            reports = manager.refresh_replicas()
        ledger.record("refresh", True)
    except Exception as exc:  # noqa: BLE001 - counted as failed
        ledger.record("refresh", False, exc)
        return
    elapsed = time.perf_counter() - started
    (report,) = reports.values()
    if catch_up:
        ledger.add("catch_up_kb", report.shipped_bytes / 1024.0)
    else:
        ledger.add("refresh_ms", elapsed * 1e3)
        ledger.add("refresh_kb", report.shipped_bytes / 1024.0)
        ledger.add("snapshot_kb", report.total_bytes / 1024.0)
        # Not a check: a delta ships the whole snapshot whenever a header
        # integer before the arrays (``batches_seen``) changes its pickled
        # length, e.g. from 255 to 256, which shifts every fixed-size chunk.
        # Whether a run's refreshes straddle such a step depends on the
        # world, so full-size deltas are counted and printed instead.
        ledger.add("full_size_deltas", float(report.shipped_bytes >= report.total_bytes))

    tracer.pause(True)
    try:
        engine = manager.engine
        consensus = engine.consensus()
        writer_labels = {
            item: sorted(detail.labels)
            for item, detail in predict_items(
                engine.engine.state, consensus, engine.answers, engine.config, items=items
            ).items()
        }
        writer_rows = label_probabilities(
            engine.engine.state, consensus, engine.answers, engine.config, items=items
        )
        replica_labels = checker.predict(items)
        _, replica_rows = checker.label_probabilities(items)
        ledger.check(
            "replica_equals_writer",
            replica_labels == writer_labels
            and replica_rows.dtype == writer_rows.dtype
            and replica_rows.tobytes() == writer_rows.tobytes(),
        )
    finally:
        tracer.pause(False)


# ------------------------------------------------------------- batch phase


def batch_phase(
    workload: Workload, inputs: Inputs, ledger: Ledger, tracer, traced: bool
) -> None:
    from repro import CPAModel, evaluate_predictions

    dataset = inputs.dataset
    answers = dataset.answers
    answered = answers.answered_items()
    model = CPAModel()

    started = time.perf_counter()
    try:
        with tracer.op("fit"), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the 60-sweep cap warns
            model.fit(dataset, track_elbo=traced)
        ledger.record("fit", True)
    except Exception as exc:  # noqa: BLE001 - counted as failed
        ledger.record("fit", False, exc)
        return
    ledger.add("fit_s", time.perf_counter() - started)
    result = model.inference_result_
    ledger.add("sweeps", result.n_iterations)
    ledger.add("final_delta", result.delta_history[-1])
    if traced:
        history = result.elbo_history
        ledger.check(
            "elbo_never_decreases",
            len(history) == result.n_iterations
            and all(b >= a - 1e-9 * abs(a) for a, b in zip(history, history[1:])),
        )

    predictions = None
    for _ in range(workload.predict_repeats):
        started = time.perf_counter()
        try:
            with tracer.op("predict"):
                predicted = model.predict()
            ledger.record("predict", True)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            ledger.record("predict", False, exc)
        else:
            ledger.add("predict_s", time.perf_counter() - started)
            predictions = predicted

        started = time.perf_counter()
        try:
            with tracer.op("proba"):
                rows = model.predict_proba()
            ledger.record("proba", True)
        except Exception as exc:  # noqa: BLE001 - counted as failed
            ledger.record("proba", False, exc)
        else:
            ledger.add("proba_s", time.perf_counter() - started)
            ledger.check("proba_in_range", _rows_in_range(rows, len(answered), answers.n_labels))

    if predictions is None:
        return
    tracer.pause(True)
    try:
        ledger.check(
            "labels_in_range",
            _labels_in_range(
                {i: sorted(s) for i, s in predictions.items()}, answered, answers.n_labels
            ),
        )
        truth = {item: labels for item, labels in dataset.truth.items()}
        _, _, f1 = stats.set_f1(predictions, truth, answers.n_labels)
        items, _, indicators = answers.to_arrays()
        mv = stats.majority_vote(items, indicators, answers.n_items)
        _, _, mv_f1 = stats.set_f1(mv, truth, answers.n_labels)
        ledger.add("f1", f1)
        ledger.add("mv_f1", mv_f1)
        if workload.majority_floor:
            ledger.check("f1_above_majority_vote", f1 > mv_f1)
        library_f1 = evaluate_predictions(predictions, dataset.truth).f1
        ledger.check("f1_matches_library", abs(library_f1 - f1) <= 1e-9)
    finally:
        tracer.pause(False)


# -------------------------------------------------------------------- run


@dataclass
class RunResult:
    ledger: Ledger
    rounds: int
    answers_bytes_per_answer: float


def run(workload: Workload, seed: int, seconds: float, tracer, traced: bool) -> RunResult:
    """Whole rounds, as many as ``seconds`` plans for (at least one).  Round
    ``r`` draws its world from ``seed * 1000 + r``: the same ``--seed``
    always gives the same inputs."""
    ledger = Ledger()
    rounds = max(1, round(seconds / workload.round_seconds))
    sizes = []
    for index in range(rounds):
        world = seed * 1000 + index
        started = time.perf_counter()
        inputs = build_inputs(workload, world)
        manager = start_fleet(inputs, world)
        ledger.add("setup_s", time.perf_counter() - started)
        try:
            live_phase(workload, inputs, manager, world, ledger, tracer, traced)
        finally:
            manager.close()
        batch_phase(workload, inputs, ledger, tracer, traced)
        tracer.pause(True)
        sizes.append(deep_bytes(inputs.dataset.answers) / inputs.dataset.answers.n_answers)
        tracer.pause(False)
    return RunResult(ledger, rounds, stats.median(sizes))


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(result: RunResult) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics of one untraced run: medians over the run's
    rounds."""
    samples = result.ledger.samples
    med = lambda name: stats.median(samples[name])  # noqa: E731
    return {
        "setup_s": (med("setup_s"), "s"),
        "fit_s": (med("fit_s"), "s"),
        "predict_s": (med("predict_s"), "s"),
        "proba_s": (med("proba_s"), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "refresh_kb": (stats.percentile(samples["refresh_kb"], 50), "KB"),
    }


def serving(result: RunResult) -> Dict[str, Tuple[float, str]]:
    """Latency and throughput of the live phase.  Reported as per-layer
    metrics of the serve layer, without a regression bound: on a shared
    two-core host they moved by 0.3 to 0.8 of their median between runs,
    more than any bound allows."""
    samples = result.ledger.samples
    return {
        "serve.backlog_answers_per_s": (
            sum(samples["backlog_answers"]) / sum(samples["backlog_s"]),
            "answers/s",
        ),
        "serve.ingest_p50_ms": (stats.percentile(samples["ingest_ms"], 50), "ms"),
        "serve.query_p50_ms": (stats.percentile(samples["query_ms"], 50), "ms"),
        "serve.query_p90_ms": (stats.percentile(samples["query_ms"], 90), "ms"),
        "fleet.refresh_p50_ms": (stats.percentile(samples["refresh_ms"], 50), "ms"),
    }
