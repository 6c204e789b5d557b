"""End-to-end benchmark of fit, prediction and live serving with replica
refresh; a traced run breaks the same session down by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fit-image --seed 1 --seconds 51 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` installs the
span tracer and prints the per-layer metrics instead (and writes every
span to ``.bench_out/``, gzipped).  ``--smoke`` runs the same workload at tiny
inputs.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads, metrics and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit-image", "serve-stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, same code path")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    sys.path.insert(0, str(ROOT))
    # The fleet's replica announces its port through a temporary file:
    # keep it, like every other file the run writes, inside the checkout.
    scratch = ROOT / ".bench_out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)

    from perfbench import session, tracer as tracing

    workload = (session.SMOKE if args.smoke else session.WORKLOADS)[args.workload]
    tracer = tracing.Tracer().install() if args.trace else tracing.NullTracer()
    try:
        result = session.run(workload, args.seed, args.seconds, tracer, traced=bool(args.trace))
    finally:
        if args.trace:
            tracer.uninstall()
    ledger = result.ledger
    samples = ledger.samples

    for name, ok in sorted(ledger.checks.items()):
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for error in ledger.errors[:20]:
        print(f"error {error}")
    print(
        "operations (attempted/failed): "
        + ", ".join(f"{k} {ledger.attempted[k]}/{ledger.failed[k]}" for k in session.COUNTED_KINDS)
    )
    for name in ("arrival_late_ms", "query_late_ms"):
        values = samples.get(name, [0.0])
        print(
            f"generator {name.split('_')[0]} lateness: p50"
            f" {session.stats.percentile(values, 50):.2f} ms, max {max(values):.2f} ms"
            f" over {len(values)}"
        )

    def per_round(name: str, fmt: str) -> str:
        return " ".join(fmt % value for value in samples.get(name, []))

    print(
        f"rounds {result.rounds}; sweeps {per_round('sweeps', '%.0f')};"
        f" last delta {per_round('final_delta', '%.3f')}; F1 {per_round('f1', '%.3f')}"
        f" against majority vote {per_round('mv_f1', '%.3f')}"
    )
    print(
        f"queries {len(samples['query_ms'])}"
        f" (p95 {session.stats.percentile(samples['query_ms'], 95):.1f} ms,"
        f" p99 {session.stats.percentile(samples['query_ms'], 99):.1f} ms);"
        f" refreshes {len(samples['refresh_ms'])}, snapshot"
        f" {session.stats.median(samples['snapshot_kb']):.0f} KB, catch-up ship"
        f" {session.stats.median(samples['catch_up_kb']):.0f} KB;"
        f" deltas that shipped the whole snapshot {sum(samples['full_size_deltas']):.0f}"
    )

    serving = session.serving(result)
    print(
        "serving: "
        + ", ".join(f"{name} {value:.4g} {unit}" for name, (value, unit) in serving.items())
    )

    if args.trace:
        extras = {
            "answers.bytes_per_answer": result.answers_bytes_per_answer,
            "serve.query_wait_s": sum(samples["query_wait_s"]),
            "prediction.f1": session.stats.median(samples["f1"]),
            **{name: value for name, (value, _) in serving.items()},
        }
        values = tracing.layer_metrics(tracer, extras)
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in tracing.PER_LAYER_UNITS.items()
        }
        rebuilds = [
            (span[4], span[5] - span[4])
            for span in tracer.spans
            if span[3] == "consensus.estimate_consensus" and span[2] != threading.main_thread().ident
        ]
        if rebuilds:
            rebuilds.sort()
            print(
                f"writer consensus rebuilds: {len(rebuilds)}, first {rebuilds[0][1] * 1e3:.1f} ms,"
                f" last {rebuilds[-1][1] * 1e3:.1f} ms"
            )
        print(f"served F1 {per_round('served_f1', '%.3f')} against majority vote"
              f" {per_round('served_mv_f1', '%.3f')} on the streamed answers")
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in session.end_to_end(result).items()
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": all(ledger.checks.values()),
                "attempted": sum(ledger.attempted.values()),
                "failed": sum(ledger.failed.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
