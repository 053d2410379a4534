"""Benchmark of quiverfold, driven from outside the package.

    python3 perfbench/run.py --workload catalog-cap --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout.  Every job is a fresh interpreter with
``PYTHONPATH=src`` and an empty catalog store, started one at a time: a
closed loop with one client, since a desk machine has few cores.  A
``catalog-cap`` run is one cold build of the cap catalog, about a minute
whatever ``--seconds`` says; a ``cli-cold`` run is whole passes over the
request mix, each request a fresh ``python -m quiverfold.cli`` process (no
installation needed), for at least ``--seconds``.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs the job once untraced and once traced, and reports the
per-layer metrics from the traced spans (see ``tracing.py``).

The last line of standard output is the result, ``{"correct", "attempted",
"failed", "metrics"}``.  The line before it is a detail record: the seed,
the per-op timings and the figures that belong to one workload only
(``refuse_s``, ``cli_p50_s``, ``cli_tail_s``, ``fail_ratio``).  The same
record, and the span files of a traced run, are written under
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_build" / "perfbench"
RUN_LIMIT_S = 170  # a run must end within 180 s, however slow the machine
SETUP_SAMPLES = 3
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p),
    # fixed hashing, so that a traced run's counts repeat exactly for a seed
    PYTHONHASHSEED="0",
)
OP_COUNT = {"catalog-cap": 2, "cli-cold": 1}
# One cap build per run is what the benchmark's time budget allows.
CAP_BUILDS = 1


@dataclass
class Child:
    code: int
    ready_s: float | None  # process start to its READY line
    elapsed_s: float  # process start to exit
    cpu_s: float  # user plus system time of the process
    maxrss_mb: float
    stdout: str
    stderr: str

    def rows(self) -> list[dict] | None:
        for line in self.stdout.splitlines():
            if line.startswith("RESULT "):
                return json.loads(line[len("RESULT "):])
        return None


def run_child(argv: list[str], deadline: float) -> Child:
    """Run one process to completion, reaping it with wait4 for its RSS.
    It is killed if it outlives the run's deadline."""
    err_path = OUT / "stderr.txt"
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=ENV
        )
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        ready = None
        chunks = []
        try:
            for raw in proc.stdout:
                if ready is None and raw.startswith(b"READY"):
                    ready = time.perf_counter() - start
                chunks.append(raw)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return Child(proc.returncode, ready, elapsed, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                 b"".join(chunks).decode(errors="replace"), stderr)


def worker(workload: str, seed: int, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]


class Tally:
    """Ops attempted and failed in one run, with their timings."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.ops: list[dict] = []
        self.errors: list[str] = []

    def add(self, row: dict) -> None:
        self.attempted += 1
        self.ops.append(row)
        if not row["ok"]:
            self.failed += 1
            self.errors.append(f"{row['op']}: {row['error']}")

    def job(self, child: Child, workload: str) -> list[dict]:
        """Count a worker's ops; a worker that died fails all of them."""
        rows = child.rows()
        if rows is None:
            for _ in range(OP_COUNT[workload]):
                self.add({"op": workload, "seconds": None, "ok": False,
                          "error": f"worker exited {child.code}: {child.stderr.strip()[-300:]}"})
            return []
        for row in rows:
            self.add(row)
        return rows

    def request(self, child: Child, req: workloads.Request) -> None:
        error = None
        try:
            req.check(child.code, child.stdout, child.stderr)
        except workloads.WrongAnswer as exc:
            error = f"wrong answer: {exc}"
        self.add({"op": req.name, "seconds": child.elapsed_s, "cpu_seconds": child.cpu_s,
                  "ok": error is None, "error": error})


def repeat_while(seconds: float, deadline: float, once):
    """Call ``once`` at least once, and again while the measured time is
    under ``seconds`` and one more call would still end before the deadline."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append(once(len(out)))
        took = time.perf_counter() - t0
        if time.perf_counter() - start >= seconds or time.monotonic() + 1.5 * took > deadline:
            return out


def job_wall(rows: list[dict]) -> float:
    return sum(r["seconds"] for r in rows if r["seconds"] is not None)


def setup_probes(workload: str, seed: int, n: int, deadline: float) -> list[float]:
    return [run_child(worker(workload, seed, "--setup-only"), deadline).ready_s for _ in range(n)]


def median_of(values) -> float:
    values = [v for v in values if v is not None]
    if not values:
        raise RuntimeError("no sample was measured")
    return statistics.median(values)


def tail(latencies: list[float], beyond: int = 10) -> dict:
    """The highest percentile with at least ``beyond`` samples above it."""
    s = sorted(latencies)
    k = len(s) - beyond - 1
    if k < 0:
        return {"value": None, "percentile": None, "samples": len(s)}
    return {"value": s[k], "percentile": 100 * (k + 1) / len(s), "samples": len(s)}


# --- untraced runs: end-to-end metrics ---


def measure_cap(seed: int, deadline: float, tally: Tally, detail: dict) -> dict:
    setups = setup_probes("catalog-cap", seed, SETUP_SAMPLES - CAP_BUILDS, deadline)
    jobs = [run_child(worker("catalog-cap", seed), deadline) for _ in range(CAP_BUILDS)]
    walls = [job_wall(tally.job(child, "catalog-cap")) for child in jobs]
    setups += [child.ready_s for child in jobs]
    detail["setup_samples"] = setups
    detail["job_walls"] = walls
    return {
        "setup_s": median_of(setups),
        "wall_s": median_of(walls),
        "peak_rss_mb": median_of(c.maxrss_mb for c in jobs),
    }


def write_docs(seed: int, deadline: float) -> tuple[Path, float | None]:
    docs = OUT / "docs"
    docs.mkdir(parents=True, exist_ok=True)
    child = run_child(worker("cli-cold", seed, "--docs", str(docs), "--write-docs"), deadline)
    if child.code != 0:
        raise RuntimeError(f"writing the CLI documents failed: {child.stderr.strip()[-500:]}")
    return docs, child.ready_s


def cli_pass(seed: int, index: int, requests, deadline: float, tally: Tally) -> list[Child]:
    children = []
    for req in workloads.cli_order(seed, index, requests):
        child = run_child([sys.executable, "-m", "quiverfold.cli", *req.argv], deadline)
        tally.request(child, req)
        children.append(child)
    return children


def measure_cli(seed: int, seconds: float, deadline: float, tally: Tally, detail: dict) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES):
        docs, ready = write_docs(seed, deadline)
        setups.append(ready)
    requests = workloads.cli_requests(str(docs))
    passes = repeat_while(seconds, deadline, lambda i: cli_pass(seed, i, requests, deadline, tally))
    latencies = [c.elapsed_s for p in passes for c in p]
    by_request: dict[str, list[float]] = {}
    for row in tally.ops:
        by_request.setdefault(row["op"], []).append(row["seconds"])
    detail["setup_samples"] = setups
    detail["pass_walls"] = [sum(c.elapsed_s for c in p) for p in passes]
    detail["cli_p50_s"] = median_of(latencies)
    detail["cli_tail_s"] = tail(latencies)
    refusals = [r["seconds"] for r in tally.ops if r["op"].startswith("refuse-") and r["ok"]]
    if refusals:
        detail["refuse_s"] = statistics.median(refusals)
    return {
        "setup_s": median_of(setups),
        # one pass over the mix, each request at its median over the passes
        "wall_s": sum(median_of(v) for v in by_request.values()),
        "peak_rss_mb": max(c.maxrss_mb for p in passes for c in p),
    }


# --- traced runs: per-layer metrics ---


def import_times(deadline: float, n: int = 3) -> dict[str, float]:
    samples = []
    for _ in range(n):
        child = run_child([sys.executable, "-X", "importtime", "-c", "import quiverfold"], deadline)
        if child.code != 0:
            raise RuntimeError(f"import quiverfold failed: {child.stderr.strip()[-500:]}")
        samples.append(tracing.parse_importtime(child.stderr))
    return {k: median_of(s[k] for s in samples) for k in samples[0]}


def traced_job(argv: list[str], spans: Path, deadline: float) -> tuple[Child, list[dict]]:
    """Run a worker with ``--spans``; a worker that died leaves no spans."""
    spans.unlink(missing_ok=True)
    child = run_child([*argv, "--spans", str(spans)], deadline)
    if not spans.exists():
        return child, []
    with open(spans, encoding="utf-8") as fh:
        return child, [json.load(fh)]


def trace_cap(seed: int, deadline: float, tally: Tally, detail: dict):
    plain = run_child(worker("catalog-cap", seed), deadline)
    untraced = job_wall(tally.job(plain, "catalog-cap"))
    child, dumps = traced_job(worker("catalog-cap", seed), OUT / f"spans-catalog-cap-{seed}.json", deadline)
    traced = job_wall(tally.job(child, "catalog-cap"))
    detail["walls"] = {"untraced": untraced, "traced": traced}
    return dumps, traced / untraced


def trace_cli(seed: int, deadline: float, tally: Tally, detail: dict):
    docs, _ = write_docs(seed, deadline)
    requests = workloads.cli_requests(str(docs))
    untraced = sum(c.elapsed_s for c in cli_pass(seed, 0, requests, deadline, tally))
    traced, dumps = 0.0, []
    for req in workloads.cli_order(seed, 0, requests):
        child, spans = traced_job(
            worker("cli-cold", seed, "--docs", str(docs), "--request", req.name),
            OUT / f"spans-cli-cold-{seed}-{req.name}.json",
            deadline,
        )
        tally.job(child, "cli-cold")
        traced += child.elapsed_s
        dumps += spans
    detail["walls"] = {"untraced": untraced, "traced": traced}
    return dumps, traced / untraced


def main() -> int:
    ap = argparse.ArgumentParser(description="quiverfold benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM unwind through run_child, which kills and reaps its process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "quiverfold" / "__init__.py").is_file():
        print(f"error: no quiverfold source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_LIMIT_S
    tally = Tally()
    detail: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}
    if args.workload == "catalog-cap":
        detail["vector"] = workloads.cap_vector(args.seed)
    if args.trace == 0:
        if args.workload == "cli-cold":
            values = measure_cli(args.seed, args.seconds, deadline, tally, detail)
        else:
            values = measure_cap(args.seed, deadline, tally, detail)
        units = END_TO_END
    else:
        imports = import_times(deadline)
        if args.workload == "cli-cold":
            dumps, overhead = trace_cli(args.seed, deadline, tally, detail)
        else:
            dumps, overhead = trace_cap(args.seed, deadline, tally, detail)
        values, detail["absent"] = tracing.per_layer(dumps, imports, overhead)
        units = {name: unit for name, (unit, _, _) in tracing.METRICS.items()}
    detail["fail_ratio"] = tally.failed / tally.attempted
    detail["ops"] = tally.ops
    detail["errors"] = tally.errors
    line = json.dumps(detail)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
