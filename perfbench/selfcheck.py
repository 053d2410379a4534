"""Quick self-check of the benchmark harness, at small sizes.

    python3 perfbench/selfcheck.py

It runs every workload's correctness gate on the small variants in
``workloads.py``, shows that the gates reject wrong answers, that a traced
run's exact counts repeat for a seed, that a missing callable is reported as
absent, and that ``BENCHMARK.json`` lists the metrics the harness reports.
It tests the harness only; its timings are never reported.
"""

from __future__ import annotations

import json
import sys
import time
from types import SimpleNamespace

import run
import tracing
import worker
import workloads

EXACT = ("catalog.isoclasses.builds", "catalog.states_built",
         "catalog.move_permutation.calls", "theorems.refuse.states_built")
NO_IMPORTS = dict.fromkeys(tracing.IMPORTED.values(), 0.0)

failures: list[str] = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def rejects(gate, *args) -> bool:
    try:
        gate(*args)
    except workloads.WrongAnswer:
        return True
    return False


def check_benchmark_json() -> None:
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check([w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")
    check({m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END, "BENCHMARK.json end_to_end")
    listed = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    check(listed == [(k, u, b) for k, (u, b, _) in tracing.METRICS.items()], "BENCHMARK.json per_layer")


def check_gates_reject(qf) -> None:
    [cap_check, _] = [op.check for op in workloads.catalog_cap_ops(qf, 1)]
    fake = SimpleNamespace(n_classes=15, sizes=SimpleNamespace(sum=lambda: 16**6, max=lambda: 13_769_999))
    check(rejects(cap_check, fake), "cap gate rejects a changed orbit size")
    requests = {r.name: r for r in workloads.cli_requests("docs")}
    check(rejects(requests["refuse-41"].check, 0, "", ""), "CLI gate rejects a request that was not refused")
    check(rejects(requests["fold"].check, 0, "{}", ""), "CLI gate rejects a document without its fields")
    crash = workloads.Op("crash", lambda: 1 / 0, lambda out: None)
    unreadable = workloads.Op("unreadable", lambda: None, lambda out: out.n_classes)
    rows = worker.run_ops([crash, unreadable], None)
    check(not any(r["ok"] for r in rows), "an op that raises, or whose result the gate cannot read, fails")
    check(run.tail([float(i) for i in range(22)]) == {"value": 11.0, "percentile": 100 * 12 / 22, "samples": 22},
          "tail percentile keeps ten samples beyond it")


def check_importtime_parser() -> None:
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:        20 |         70 |   scipy",
        "import time:        30 |        400 | quiverfold",
    ])
    got = tracing.parse_importtime(sample)
    want = {"import.quiverfold_s": 400e-6, "import.scipy_s": 70e-6,
            "import.sympy_s": 0.0, "import.numpy_s": 350e-6}
    check(all(abs(got[k] - v) < 1e-12 for k, v in want.items()), "importtime parser")


def check_small_rows(workload: str, child: run.Child) -> None:
    rows = child.rows() or []
    check(child.code == 0 and len(rows) == run.OP_COUNT[workload] and all(r["ok"] for r in rows),
          f"{workload} small gates pass ({[r['error'] for r in rows if not r['ok']]})")


def small_job(workload: str, seed: int) -> None:
    check_small_rows(workload, run.run_child(run.worker(workload, seed, "--size", "small"), time.monotonic() + 120))


def check_small_workloads() -> None:
    small_job("catalog-cap", 1)
    docs = run.OUT / "selfcheck-docs"
    docs.mkdir(parents=True, exist_ok=True)
    run.run_child(run.worker("cli-cold", 0, "--docs", str(docs), "--write-docs"), time.monotonic() + 60)
    tally = run.Tally()
    for req in workloads.cli_requests(str(docs), "small"):
        child = run.run_child([sys.executable, "-m", "quiverfold.cli", *req.argv], time.monotonic() + 60)
        tally.request(child, req)
    check(tally.failed == 0 and tally.attempted == 11, f"cli-cold small gates pass {tally.errors}")


def traced_counts(workload: str, seed: int, *extra: str) -> dict:
    child, dumps = run.traced_job(
        run.worker(workload, seed, "--size", "small", *extra),
        run.OUT / f"selfcheck-spans-{workload}.json",
        time.monotonic() + 120,
    )
    check_small_rows(workload, child)
    metrics, absent = tracing.per_layer(dumps, NO_IMPORTS, 1.0)
    check(absent == {}, f"{workload} traced run finds every callable")
    return metrics


def check_trace(qf) -> None:
    first = traced_counts("catalog-cap", 4)
    second = traced_counts("catalog-cap", 4)
    check(all(first[k] == second[k] for k in EXACT), "exact counts repeat for a seed")
    check(first["catalog.isoclasses.builds"] == 23 and first["catalog.sieve.attempts"] > 0,
          "cap builds and sieve attempts are counted")
    refusal = traced_counts("cli-cold", 0, "--docs", str(run.OUT / "selfcheck-docs"), "--request", "refuse-41")
    check(refusal["theorems.refuse.builds"] > 0 and refusal["theorems.refuse.builds"] == refusal["catalog.isoclasses.builds"],
          "the refusal's builds are counted apart")
    # a callable removed from the package is reported absent, not fatal
    tracing.TARGETS["catalog.move_permutation"] = ("quiverfold.catalog", "StateSpace.no_such_method")
    tracer = tracing.Tracer()
    tracer.install()
    for op in workloads.catalog_cap_ops(qf, 1, "small"):
        op.call()
    metrics, absent = tracing.per_layer([tracer.dump()], NO_IMPORTS, 1.0)
    check(set(absent) == {"catalog.label_s", "catalog.move_permutation.calls", "catalog.move_permutation.s"}
          and metrics["catalog.move_permutation.calls"] == 0 and metrics["catalog.isoclasses.builds"] == 23,
          "a missing callable is reported absent")


def main() -> int:
    run.OUT.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, str(run.ROOT / "src"))
    import quiverfold as qf

    check_benchmark_json()
    check_gates_reject(qf)
    check_importtime_parser()
    check_small_workloads()
    check_trace(qf)
    print(f"selfcheck: {len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
