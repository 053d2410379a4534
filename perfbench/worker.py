"""One fresh interpreter of the benchmark: sets up a job, prints ``READY``,
runs the job's ops and prints ``RESULT <json>``.

The orchestrator starts it with ``PYTHONPATH=src``, so the package is the
source tree of the checkout, and times set-up as the gap between starting
the process and reading ``READY``.

    python3 perfbench/worker.py --workload catalog-cap --seed 3
    python3 perfbench/worker.py --workload catalog-cap --seed 3 --setup-only
    python3 perfbench/worker.py --workload cli-cold --docs DIR --write-docs
    python3 perfbench/worker.py --workload cli-cold --docs DIR --request fold --spans FILE
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import workloads


def run_ops(ops, tracer) -> list[dict]:
    rows = []
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        raised = None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            out = op.call()
        except Exception as exc:  # a crash is a failed op, reported below
            raised = exc
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu_start
        error = None
        try:
            if raised is not None:
                error = f"{type(raised).__name__}: {raised}"
            else:
                op.check(out)
        except workloads.WrongAnswer as exc:
            error = f"wrong answer: {exc}"
        except Exception as exc:  # a result the gate cannot even read is wrong too
            error = f"wrong answer: gate raised {type(exc).__name__}: {exc}"
        rows.append({"op": op.name, "seconds": seconds, "cpu_seconds": cpu_seconds,
                     "ok": error is None, "error": error})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=("full", "small"), default="full")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--docs", help="directory of the CLI input documents")
    ap.add_argument("--write-docs", action="store_true")
    ap.add_argument("--request", help="run one CLI request in-process")
    ap.add_argument("--spans", help="trace the job and write its spans here")
    args = ap.parse_args()

    import quiverfold as qf

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.op = "setup"
    if args.workload == "catalog-cap":
        ops = workloads.catalog_cap_ops(qf, args.seed, args.size)
    elif args.write_docs:
        workloads.write_documents(qf, args.docs)
        ops = []
    else:
        ops = workloads.cli_request_ops(args.docs, args.request, args.size)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    rows = run_ops(ops, tracer)
    if tracer is not None:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    print("RESULT " + json.dumps(rows), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
