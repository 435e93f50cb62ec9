"""In-memory spans recorded around calls into the package's layers.

A span is (id, parent id, name, start ns, end ns, utterance id).  Names are
`<layer>.<call>`; the layer is everything before the first dot.  Spans
named `bench.*` belong to the benchmark itself and group one measured unit
of work (a pass, a sweep, a command).  Utterance-level spans carry the
utterance's index within that unit, other spans carry -1.

Spans stay in memory while the benchmark runs and are written out at the
end, so recording one costs a tuple and a list append.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter_ns

#: The package's modules, in the order results list them.  `phoneme` is
#: only reached through `corpus.load_corpus` and is timed inside it.
LAYERS = ("corpus", "tables", "estimator", "segmenter", "evaluation", "harness")


class Tracer:
    """Collects spans; `begin`/`end` for groups, `record` for finished calls."""

    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, parent: int = 0) -> int:
        self.spans.append([len(self.spans) + 1, parent, name, perf_counter_ns(), 0, -1])
        return len(self.spans)

    def end(self, span_id: int) -> None:
        self.spans[span_id - 1][4] = perf_counter_ns()

    def record(self, name: str, start: int, end: int, parent: int, utt: int = -1) -> int:
        self.spans.append([len(self.spans) + 1, parent, name, start, end, utt])
        return len(self.spans)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer of span time not covered by child spans."""
        children: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                children[parent] += end - start
        totals: dict[str, int] = defaultdict(int)
        for span_id, _, name, start, end, _ in self.spans:
            totals[name.split(".", 1)[0]] += end - start - children[span_id]
        return {layer: totals[layer] / 1e9 for layer in LAYERS}

    def coverage(self) -> float:
        """Share of the `bench.*` group time spent inside layer spans."""
        names = {s[0]: s[2] for s in self.spans}
        grouped = covered = 0
        for _, parent, name, start, end, _ in self.spans:
            if name.startswith("bench."):
                if not parent:
                    grouped += end - start
            elif names.get(parent, "").startswith("bench."):
                covered += end - start
        return covered / grouped if grouped else 0.0

    def write(self, path) -> None:
        """One JSON object per line, in recording order."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, utt in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start_ns": start, "end_ns": end,
                                         "utterance": utt}) + "\n")


def span_ns(spans, name: str) -> int:
    """Total duration in ns of the spans called `name`."""
    return sum(s[4] - s[3] for s in spans if s[2] == name)
