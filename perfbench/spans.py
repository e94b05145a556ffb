"""In-memory spans recorded by the benchmark around calls into revcover.

A span has a name, a start and end (``time.perf_counter`` seconds), the id of
the span that was open when it started (its parent) and a run id shared by
the spans of one traced pass. Nothing is written until ``dump`` is called at
the end of a run, so recording costs one list append per span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.run_id = "setup"
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "run": self.run_id,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def run(self, run_id: str) -> list[dict]:
        return [s for s in self.spans if s["run"] == run_id]


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> its duration minus the time its direct children cover.
    Children of one span run one after another, so their durations add."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += duration(s)
    return {s["id"]: duration(s) - child_time[s["id"]] for s in spans}


def total(spans: list[dict], name: str) -> float:
    return sum(duration(s) for s in spans if s["name"] == name)


def self_time_table(spans: list[dict]) -> list[dict]:
    """Per span name: call count, total time and self time, largest self first."""
    own = self_times(spans)
    rows: dict[str, dict] = {}
    for s in spans:
        row = rows.setdefault(s["name"], {"name": s["name"], "calls": 0,
                                          "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += duration(s)
        row["self_s"] += own[s["id"]]
    return sorted(rows.values(), key=lambda r: -r["self_s"])


def format_table(rows: list[dict]) -> str:
    lines = [f"{'span':<40} {'calls':>6} {'total_s':>10} {'self_s':>10}"]
    for r in rows:
        lines.append(f"{r['name']:<40} {r['calls']:>6} {r['total_s']:>10.4f} {r['self_s']:>10.4f}")
    return "\n".join(lines)


def dump(path, tracer: Tracer, header: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = dict(header, spans=tracer.spans, self_time=self_time_table(tracer.spans))
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
