"""Spans for the traced run, recorded from outside the package.

``Tracer.install`` wraps the package's public callables at every module
binding they were imported into (``theorems.isoclasses``,
``cli.isoclasses``, ``catalog.direct_sum`` and so on) and on the classes
that define them.  Each call appends one span, ``[name, start, end, parent,
op, extra]``, to an in-memory list, which the worker writes out when its job
ends.  ``per_layer`` turns the span files of one run into the per-layer
metrics listed in ``BENCHMARK.json``.

A callable that the package no longer has is recorded as absent, with a
reason, instead of failing the run: its own counts and times read 0, and
every metric computed from it is listed with that reason.
"""

from __future__ import annotations

import importlib
import re
import statistics
import sys
import time
import tracemalloc
import weakref
from functools import wraps

# span name -> (defining module, attribute path)
TARGETS = {
    "gf.make_field": ("quiverfold.gf", "make_field"),
    "catalog.isoclasses": ("quiverfold.catalog", "isoclasses"),
    "catalog.move_permutation": ("quiverfold.catalog", "StateSpace.move_permutation"),
    "catalog.decode_batch": ("quiverfold.catalog", "StateSpace.decode_batch"),
    "catalog.encode_batch": ("quiverfold.catalog", "StateSpace.encode_batch"),
    "catalog.indec_flags": ("quiverfold.catalog", "IsoClassCatalog.indec_flags"),
    "reps.twist_auto": ("quiverfold.reps", "twist_auto"),
    "reps.twist_frobenius": ("quiverfold.reps", "twist_frobenius"),
    "reps.direct_sum": ("quiverfold.reps", "direct_sum"),
    "reps.is_isomorphic": ("quiverfold.reps", "is_isomorphic"),
    "roots.classify": ("quiverfold.roots", "classify"),
    "roots.positive_roots_up_to": ("quiverfold.roots", "positive_roots_up_to"),
    "theorems.verify_kac": ("quiverfold.theorems", "verify_kac"),
    "theorems.verify_main_theorem": ("quiverfold.theorems", "verify_main_theorem"),
    "theorems.verify_species_theorem": ("quiverfold.theorems", "verify_species_theorem"),
    "theorems.multiset_crosscheck": ("quiverfold.theorems", "multiset_crosscheck"),
    "theorems.ii_classes": ("quiverfold.theorems", "ii_classes"),
    "theorems.species_count": ("quiverfold.theorems", "species_count"),
    "cli.main": ("quiverfold.cli", "main"),
}

# per-layer metric -> (unit, better, spans it is computed from)
METRICS = {
    "import.quiverfold_s": ("s", "lower", ()),
    "import.scipy_s": ("s", "lower", ()),
    "import.sympy_s": ("s", "lower", ()),
    "import.numpy_s": ("s", "lower", ()),
    "catalog.isoclasses.calls": ("count", "lower", ("catalog.isoclasses",)),
    "catalog.isoclasses.builds": ("count", "lower", ("catalog.isoclasses",)),
    "catalog.store.hit_ratio": ("ratio", "higher", ("catalog.isoclasses",)),
    "catalog.states_built": ("count", "lower", ("catalog.isoclasses",)),
    "catalog.build_s": ("s", "lower", ("catalog.isoclasses",)),
    "catalog.label_s": ("s", "lower", ("catalog.isoclasses", "catalog.move_permutation")),
    "catalog.move_permutation.calls": ("count", "lower", ("catalog.move_permutation",)),
    "catalog.move_permutation.s": ("s", "lower", ("catalog.move_permutation",)),
    "catalog.decode_batch.s": ("s", "lower", ("catalog.decode_batch",)),
    "catalog.encode_batch.s": ("s", "lower", ("catalog.encode_batch",)),
    "catalog.traced_peak_mb": ("MB", "lower", ("catalog.isoclasses",)),
    "catalog.indec_flags.s": ("s", "lower", ("catalog.indec_flags",)),
    "catalog.sieve.attempts": ("count", "lower", ("catalog.indec_flags", "reps.direct_sum")),
    "catalog.sieve.useful_ratio": ("ratio", "higher", ("catalog.indec_flags", "reps.direct_sum")),
    "theorems.engine_self_s": ("s", "lower", tuple(n for n in TARGETS if n.startswith("theorems."))),
    "theorems.refuse.builds": ("count", "lower", ("catalog.isoclasses",)),
    "theorems.refuse.states_built": ("count", "lower", ("catalog.isoclasses",)),
    "reps.twist_auto.calls": ("count", "lower", ("reps.twist_auto",)),
    "reps.twist_auto.s": ("s", "lower", ("reps.twist_auto",)),
    "reps.twist_frobenius.calls": ("count", "lower", ("reps.twist_frobenius",)),
    "reps.twist_frobenius.s": ("s", "lower", ("reps.twist_frobenius",)),
    "reps.direct_sum.calls": ("count", "lower", ("reps.direct_sum",)),
    "reps.direct_sum.s": ("s", "lower", ("reps.direct_sum",)),
    "reps.is_isomorphic.calls": ("count", "lower", ("reps.is_isomorphic",)),
    "reps.is_isomorphic.s": ("s", "lower", ("reps.is_isomorphic",)),
    "roots.classify.calls": ("count", "lower", ("roots.classify",)),
    "roots.classify.s": ("s", "lower", ("roots.classify",)),
    "roots.positive_roots_up_to.s": ("s", "lower", ("roots.positive_roots_up_to",)),
    "gf.make_field.calls": ("count", "lower", ("gf.make_field",)),
    "gf.make_field.s": ("s", "lower", ("gf.make_field",)),
    "cli.main_s": ("s", "lower", ("cli.main",)),
    "trace.overhead_ratio": ("ratio", "lower", ()),
}

IMPORTED = {"quiverfold": "import.quiverfold_s", "scipy": "import.scipy_s",
            "sympy": "import.sympy_s", "numpy": "import.numpy_s"}


class Tracer:
    """Records one span per call of every target callable."""

    def __init__(self) -> None:
        self.names: list[str] = list(TARGETS)
        self._index = {name: i for i, name in enumerate(self.names)}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op: str | None = None
        self.absent: dict[str, str] = {}
        self.peak_build_bytes = 0

    def install(self) -> None:
        # import every target module first, so that wrapping sees all bindings
        modules = {}
        for module, _ in TARGETS.values():
            try:
                modules[module] = importlib.import_module(module)
            except ImportError:
                modules[module] = None
        for name, (module, path) in TARGETS.items():
            owner = modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.absent[name] = f"{module}.{path} not found"
                continue
            if isinstance(raw, property):
                setattr(owner, attr, property(self._wrap_first_access(name, raw.fget)))
            elif cls_path:
                setattr(owner, attr, self._wrap(name, raw))
            else:
                wrapped = self._wrap(name, raw)
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__name__", "").partition(".")[0] != "quiverfold":
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            setattr(mod, key, wrapped)

    def _open(self, name: str) -> list:
        rec = [self._index[name], time.perf_counter(), 0.0,
               self.stack[-1] if self.stack else -1, self.op, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn):
        if name == "catalog.isoclasses":
            return self._wrap_isoclasses(fn)

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)

        return traced

    def _wrap_isoclasses(self, fn):
        """extra = states built, 0 for a store hit, None when it raised.
        tracemalloc runs only inside the call, for the build's peak."""
        seen: weakref.WeakSet = weakref.WeakSet()  # catalogs returned before

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open("catalog.isoclasses")
            own_malloc = not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            try:
                cat = fn(*args, **kwargs)
                rec[5] = 0 if cat in seen else int(cat.space.size)
                seen.add(cat)
                return cat
            finally:
                if own_malloc:
                    if rec[5]:
                        peak = tracemalloc.get_traced_memory()[1]
                        self.peak_build_bytes = max(self.peak_build_bytes, peak)
                    tracemalloc.stop()
                self._close(rec)

        return traced

    def _wrap_first_access(self, name, fget):
        """A lazy property: only the first access per object is a span, with
        extra = the number of False entries it computed."""
        seen: weakref.WeakSet = weakref.WeakSet()

        @wraps(fget)
        def traced(obj):
            if obj in seen:
                return fget(obj)
            seen.add(obj)
            rec = self._open(name)
            try:
                flags = fget(obj)
                rec[5] = int(len(flags) - flags.sum())
                return flags
            finally:
                self._close(rec)

        return traced

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "absent": self.absent,
            "peak_build_mb": self.peak_build_bytes / 2**20,
        }


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds spent importing each package of IMPORTED, from the output of
    ``python -X importtime``: the cumulative time of its outermost entries."""
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, int(m.group(2)), m.group(4)))
    totals = dict.fromkeys(IMPORTED.values(), 0.0)
    stack: list[tuple[int, str]] = []
    # entries are printed children first; walk backwards to meet parents first
    for depth, cumulative_us, mod in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = mod.partition(".")[0]
        if top in IMPORTED and all(a.partition(".")[0] != top for _, a in stack):
            totals[IMPORTED[top]] += cumulative_us / 1e6
        stack.append((depth, mod))
    return totals


def per_layer(dumps: list[dict], imports: dict[str, float], overhead: float) -> tuple[dict, dict]:
    """Per-layer metrics from the span dumps of one run, and the metrics
    computed from an absent callable, each with the reason."""
    names = dumps[0]["names"] if dumps else list(TARGETS)
    count = dict.fromkeys(names, 0)
    total = dict.fromkeys(names, 0.0)
    self_total = dict.fromkeys(names, 0.0)
    builds = hits = states = refuse_builds = refuse_states = 0
    build_s = attempts = useful = 0
    cli_main: list[float] = []
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        in_sieve = [False] * len(spans)
        for i, (ni, start, end, parent, op, extra) in enumerate(spans):
            name = names[ni]
            dur = end - start
            count[name] += 1
            total[name] += dur
            self_total[name] += dur - child[i]
            if parent >= 0:
                in_sieve[i] = in_sieve[parent] or names[spans[parent][0]] == "catalog.indec_flags"
            if name == "catalog.isoclasses" and extra == 0:
                hits += 1
            elif name == "catalog.isoclasses" and extra:
                builds += 1
                states += extra
                build_s += dur
                if op and op.startswith("refuse-"):
                    refuse_builds += 1
                    refuse_states += extra
            elif name == "catalog.indec_flags":
                useful += extra or 0
            elif name == "reps.direct_sum" and in_sieve[i]:
                attempts += 1
            elif name == "cli.main":
                cli_main.append(dur)
    iso_calls = count["catalog.isoclasses"]
    m = dict(imports)
    m.update({
        "catalog.isoclasses.calls": iso_calls,
        "catalog.isoclasses.builds": builds,
        "catalog.store.hit_ratio": hits / iso_calls if iso_calls else 0.0,
        "catalog.states_built": states,
        "catalog.build_s": build_s,
        "catalog.label_s": build_s - total["catalog.move_permutation"],
        "catalog.move_permutation.calls": count["catalog.move_permutation"],
        "catalog.move_permutation.s": total["catalog.move_permutation"],
        "catalog.decode_batch.s": total["catalog.decode_batch"],
        "catalog.encode_batch.s": total["catalog.encode_batch"],
        "catalog.traced_peak_mb": max((d["peak_build_mb"] for d in dumps), default=0.0),
        "catalog.indec_flags.s": self_total["catalog.indec_flags"],
        "catalog.sieve.attempts": attempts,
        "catalog.sieve.useful_ratio": useful / attempts if attempts else 0.0,
        "theorems.engine_self_s": sum(v for k, v in self_total.items() if k.startswith("theorems.")),
        "theorems.refuse.builds": refuse_builds,
        "theorems.refuse.states_built": refuse_states,
        "roots.positive_roots_up_to.s": total["roots.positive_roots_up_to"],
        "cli.main_s": statistics.median(cli_main) if cli_main else 0.0,
        "trace.overhead_ratio": overhead,
    })
    for name in ("reps.twist_auto", "reps.twist_frobenius", "reps.direct_sum",
                 "reps.is_isomorphic", "roots.classify", "gf.make_field"):
        m[f"{name}.calls"] = count[name]
        m[f"{name}.s"] = total[name]
    absent: dict[str, str] = {}
    for dump in dumps:
        absent.update(dump["absent"])
    missing = {
        metric: "; ".join(absent[s] for s in sources if s in absent)
        for metric, (_, _, sources) in METRICS.items()
        if any(s in absent for s in sources)
    }
    return {k: m[k] for k in METRICS}, missing
