"""Span records and the self-time arithmetic behind the per-layer metrics.

A traced command writes one JSON file (see ``launcher.py``):

* ``spans``: ``[name, parent, start, end, tensors_at_start, tensors_at_end]``;
  ``parent`` is the index of the enclosing span, or -1 for the root.
* ``aggregates``: ``[name, parent, calls, seconds]`` for functions called
  too often for one span per call.  Such a function calls no other traced
  function, so all of its time is its own.
* ``counters``: named counts, such as the nodes ``embed_tensors`` was asked for.

A span's self time is its duration minus the part of its interval that its
child spans cover, minus the time of the aggregated calls made inside it.
"""

from __future__ import annotations

from collections import defaultdict


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in children):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(trace: dict) -> list[float]:
    """Self time of every span in ``trace``, in span order."""
    spans = trace["spans"]
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, start, end, *_ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    agg_time: dict[int, float] = defaultdict(float)
    for _name, parent, _calls, seconds in trace["aggregates"]:
        agg_time[parent] += seconds
    return [
        (end - start) - covered((start, end), children[i]) - agg_time[i]
        for i, (_name, _parent, start, end, *_rest) in enumerate(spans)
    ]


def root_duration(trace: dict) -> float:
    """Duration of the root span: the command's traced wall time in process."""
    roots = [s for s in trace["spans"] if s[1] < 0]
    if len(roots) != 1:
        raise ValueError(f"a trace needs exactly one root span, found {len(roots)}")
    return roots[0][3] - roots[0][2]


def attributed(trace: dict) -> float:
    """Sum of all self times plus all aggregated time.  For well-nested
    spans this equals :func:`root_duration`."""
    return sum(self_times(trace)) + sum(a[3] for a in trace["aggregates"])


def layer_totals(traces: list[dict]) -> dict[str, float]:
    """Per-name sums over several traced commands: ``<name>.self_s``,
    ``<name>.calls``, every counter, and ``tensors`` (Tensor objects created
    inside spans of that name, ``<name>.tensors``)."""
    out: dict[str, float] = defaultdict(float)
    for trace in traces:
        for (name, _p, _s, _e, t0, t1), self_s in zip(trace["spans"], self_times(trace)):
            out[f"{name}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            out[f"{name}.tensors"] += t1 - t0
        for name, _parent, calls, seconds in trace["aggregates"]:
            out[f"{name}.self_s"] += seconds
            out[f"{name}.calls"] += calls
        for name, value in trace["counters"].items():
            out[name] += value
    return out
