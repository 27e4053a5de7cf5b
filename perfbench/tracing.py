"""Per-layer spans and counters recorded around calls into combicat.

The tracer swaps a timing wrapper in for each public function it watches, in
every ``combicat`` module that holds a reference to it, so calls made between
modules (``cli`` calling ``scoring.extract_metrics``) and inside one
(``logic.render`` calling ``logic.classify``) are both seen. Times are
inclusive: a span covers its callees. Nothing in the program changes; only
the traced run installs the wrappers.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import threading
import time
from typing import Any, Callable

# metric name -> (module, attribute) of the function whose inclusive time it sums
TIMED = {
    "cli.synthesize.s": ("cli", "cmd_synthesize"),
    "cli.score_traces.s": ("cli", "cmd_score_traces"),
    "cli.calibrate.s": ("cli", "cmd_calibrate"),
    "cli.evaluate.s": ("cli", "cmd_evaluate"),
    "cli.report.s": ("cli", "cmd_report"),
    "synthesis.assemble.s": ("synthesis", "assemble"),
    "synthesis.verify.s": ("synthesis", "verify"),
    "logic.render.s": ("logic", "render"),
    "logic.parse_formula.s": ("logic", "parse_formula"),
    "scoring.load_lexicons.s": ("scoring", "load_lexicons"),
    "scoring.fallacy_penalty.s": ("scoring", "fallacy_penalty"),
    "irt.eap_update.s": ("irt", "eap_update"),
    "harness.parse_answer.s": ("harness", "parse_answer"),
    "bankio.load_comb_bank.s": ("bankio", "load_comb_bank"),
    "bankio.save_comb_bank.s": ("bankio", "save_comb_bank"),
    "bankio.read_jsonl.s": ("bankio", "read_jsonl"),
}

# bankio writers whose output bytes are counted (the path is the first argument)
WRITERS = ("save_atomic_bank", "save_comb_bank", "save_item_bank", "write_jsonl", "save_json")

PER_LAYER = (
    "cli.synthesize.s", "cli.score_traces.s", "cli.calibrate.s", "cli.evaluate.s", "cli.report.s",
    "synthesis.assemble.s", "synthesis.verify.s", "synthesis.questions", "synthesis.regenerations",
    "logic.classify.calls", "logic.render.s", "logic.parse_formula.s",
    "scoring.load_lexicons.s", "scoring.extract_metrics.s", "scoring.fallacy_penalty.s", "scoring.chars_per_s",
    "irt.select_next.s", "irt.eap_update.s", "irt.items_scanned", "irt.next_item_ms.p50", "irt.next_item_ms.p99",
    "harness.query_model.s", "harness.http_requests", "harness.retries", "harness.inflight_max",
    "harness.latency_ms.p50", "harness.latency_ms.p95", "harness.parse_answer.s", "harness.log_rows",
    "bankio.load_comb_bank.s", "bankio.save_comb_bank.s", "bankio.read_jsonl.s", "bankio.bytes_written",
    "process.cpu_s",
)


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")) and name != "scoring.chars_per_s":
        return "s"
    if ".latency_ms." in name or "_ms." in name:
        return "ms"
    return {"scoring.chars_per_s": "chars/s", "bankio.bytes_written": "bytes"}.get(name, "count")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when the layer saw no calls."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, min(len(ordered), int(-(-q * len(ordered) // 100))))
    return ordered[rank - 1]


class Tracer:
    """Accumulates inclusive times, counts and latency samples for one process."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._lock = threading.Lock()
        self._inflight = 0
        self._information_calls = itertools.count()

    def _add(self, table: dict, key: str, value: float) -> None:
        with self._lock:
            table[key] = table.get(key, 0.0) + value

    def _replace_everywhere(self, original: Callable, wrapper: Callable) -> None:
        for name, module in list(sys.modules.items()):
            if not name.startswith("combicat") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, module: Any, attr: str, after: Callable[..., None]) -> None:
        original = getattr(module, attr)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = original(*args, **kwargs)
            after(time.perf_counter() - start, args, result)
            return result

        self._replace_everywhere(original, wrapper)

    def install(self) -> None:
        from combicat import bankio, cli, harness, irt, logic, scoring, synthesis

        modules = {m.__name__.rsplit(".", 1)[1]: m for m in (bankio, cli, harness, irt, logic, scoring, synthesis)}
        for metric, (mod, attr) in TIMED.items():
            self._wrap(modules[mod], attr, lambda dt, args, result, metric=metric: self._add(self.seconds, metric, dt))

        def on_classify(dt, args, result):
            self._add(self.counts, "logic.classify.calls", 1)

        def on_synthesize_question(dt, args, result):
            self._add(self.counts, "synthesis.questions", 1)
            self._add(self.counts, "synthesis.regenerations", result[1])

        def on_extract(dt, args, result):
            self._add(self.seconds, "scoring.extract_metrics.s", dt)
            self._add(self.counts, "scoring.chars", len(args[0].text))

        def on_select(dt, args, result):
            self._add(self.seconds, "irt.select_next.s", dt)
            self.samples.setdefault("irt.next_item_ms", []).append(dt * 1000.0)

        def on_bytes(dt, args, result):
            self._add(self.counts, "bankio.bytes_written", os.path.getsize(args[0]))

        self._wrap(logic, "classify", on_classify)
        self._wrap(synthesis, "synthesize_question", on_synthesize_question)
        self._wrap(scoring, "extract_metrics", on_extract)
        self._wrap(irt, "select_next", on_select)
        for attr in WRITERS:
            self._wrap(bankio, attr, on_bytes)

        # fisher_information: select_next evaluates one item per call. The call
        # costs about as much as a timing wrapper, so it only bumps a counter.
        original_information = irt.fisher_information

        def counted_information(*args: Any, **kwargs: Any) -> Any:
            next(self._information_calls)
            return original_information(*args, **kwargs)

        self._replace_everywhere(original_information, counted_information)

        # query_model: latency per call, retries, and calls in flight at once.
        original_query = harness.query_model

        def traced_query(*args: Any, **kwargs: Any) -> Any:
            with self._lock:
                self._inflight += 1
                self.counts["harness.inflight_max"] = max(self.counts.get("harness.inflight_max", 0), self._inflight)
            start = time.perf_counter()
            try:
                result = original_query(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                with self._lock:
                    self._inflight -= 1
            self._add(self.seconds, "harness.query_model.s", dt)
            self._add(self.counts, "harness.retries", result.retries)
            self._add(self.counts, "harness.http_requests", result.retries + 1)
            with self._lock:
                self.samples.setdefault("harness.latency_ms", []).append(dt * 1000.0)
            return result

        self._replace_everywhere(original_query, traced_query)

        original_write = harness.JsonlWriter.write

        def traced_write(writer: Any, record: Any) -> None:
            original_write(writer, record)
            self._add(self.counts, "harness.log_rows", 1)

        harness.JsonlWriter.write = traced_write

    def metrics(self, cpu_s: float) -> dict[str, float]:
        """Every per-layer metric, 0 for a layer the workload never called."""
        out = {name: 0.0 for name in PER_LAYER}
        out.update(self.seconds)
        out.update({k: v for k, v in self.counts.items() if k in out})
        extract_s = self.seconds.get("scoring.extract_metrics.s", 0.0)
        out["scoring.chars_per_s"] = self.counts.get("scoring.chars", 0.0) / extract_s if extract_s else 0.0
        next_item = self.samples.get("irt.next_item_ms", [])
        latency = self.samples.get("harness.latency_ms", [])
        out["irt.next_item_ms.p50"] = percentile(next_item, 50)
        out["irt.next_item_ms.p99"] = percentile(next_item, 99)
        out["harness.latency_ms.p50"] = percentile(latency, 50)
        out["harness.latency_ms.p95"] = percentile(latency, 95)
        out["process.cpu_s"] = cpu_s
        out["irt.items_scanned"] = next(self._information_calls)  # the calls counted so far
        return out


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over rounds."""
    return {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
