"""Measurement helpers: percentiles, the two-speed percentile of a run,
spans with self time, /metrics parsing.

Pure functions and small classes with no I/O, so ``test_measure.py`` can pin
them without a server or a corpus.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank *q*-th percentile of *values* and the samples beyond it.

    The second item is how many samples lie strictly above the returned
    rank, the count a tail claim has to cite (a p90 over 40 samples rests
    on 4 samples).
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


@dataclass(frozen=True)
class Span:
    """One timed call: name, start, end, and the span that caused it."""

    name: str
    start: float
    end: float
    span_id: int
    parent_id: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, children: Sequence[Span]) -> float:
    """*span*'s duration minus its children's.

    The ladder's children run one after another inside their parent, so
    their durations add up without overlap.
    """
    return span.duration - sum(child.duration for child in children)


class Tracer:
    """Records spans in memory; children find their parent through a context
    variable, so a span opened inside ``asyncio.to_thread`` still nests under
    the coroutine's span."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._current.get()
        span_id = next(self._ids)
        token = self._current.set(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(Span(name, start, end, span_id, parent))

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self, name: str) -> List[float]:
        """Self time of every span called *name*, in recording order."""
        children: Dict[int, List[Span]] = {}
        for s in self.spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append(s)
        return [self_time(s, children.get(s.span_id, ())) for s in self.named(name)]


def extreme_groups(
    groups: Sequence[Sequence[float]], share: float
) -> Tuple[List[float], List[float]]:
    """The samples of the fastest and of the slowest *share* of *groups*.

    A group is one operation's samples from one slice of a run, the same
    amount of work each time, so its total reads how fast the host ran it.
    Groups are ranked by that total; each side keeps one group at least.
    """
    if not 0 < share <= 0.5:
        raise ValueError(f"share must be in (0, 0.5], got {share}")
    ranked = sorted((group for group in groups if group), key=sum)
    keep = max(1, math.ceil(len(ranked) * share))
    return (
        [value for group in ranked[:keep] for value in group],
        [value for group in ranked[-keep:] for value in group],
    )


def two_speed_percentile(
    groups: Sequence[Sequence[float]], share: float, q: float
) -> Tuple[float, int]:
    """The mean of the *q*-th percentile over the fastest and over the
    slowest *share* of *groups* (:func:`extreme_groups`), and the fewer
    samples beyond it of the two sides."""
    fast, slow = (percentile(side, q) for side in extreme_groups(groups, share))
    return (fast[0] + slow[0]) / 2, min(fast[1], slow[1])


_SAMPLE_LINE = re.compile(
    r"^(?P<name>[A-Za-z_:][A-Za-z0-9_:]*)(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL = re.compile(r'(?P<key>[A-Za-z_][A-Za-z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"')

Labels = Tuple[Tuple[str, str], ...]


def parse_prometheus(text: str) -> Dict[Tuple[str, Labels], float]:
    """Samples of a Prometheus text exposition, keyed by (name, sorted labels)."""
    samples: Dict[Tuple[str, Labels], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_LINE.match(line)
        if match is None:
            raise ValueError(f"unparseable metrics line: {line!r}")
        labels = tuple(
            sorted(
                (m.group("key"), m.group("value"))
                for m in _LABEL.finditer(match.group("labels") or "")
            )
        )
        samples[(match.group("name"), labels)] = float(match.group("value"))
    return samples


def metric_total(samples: Dict[Tuple[str, Labels], float], name: str, **labels: str) -> float:
    """Sum of every sample of *name* whose labels include *labels*."""
    wanted = set(labels.items())
    return sum(
        value
        for (sample_name, sample_labels), value in samples.items()
        if sample_name == name and wanted <= set(sample_labels)
    )


def histogram_sum_count(
    samples: Dict[Tuple[str, Labels], float], name: str, **labels: str
) -> Tuple[float, float]:
    """``(sum, count)`` of histogram *name* over the series matching *labels*."""
    return (
        metric_total(samples, name + "_sum", **labels),
        metric_total(samples, name + "_count", **labels),
    )


def histogram_mean_delta(
    before: Dict[Tuple[str, Labels], float],
    after: Dict[Tuple[str, Labels], float],
    name: str,
    **labels: str,
) -> Tuple[float, int]:
    """Mean observation of histogram *name* between two scrapes, and its count."""
    sum_before, count_before = histogram_sum_count(before, name, **labels)
    sum_after, count_after = histogram_sum_count(after, name, **labels)
    count = int(round(count_after - count_before))
    if count <= 0:
        return 0.0, 0
    return (sum_after - sum_before) / count, count
