"""Arithmetic on ``repro-metrics/v1`` snapshots and on latency samples.

The serving workload reads the program's own ``GET /metrics`` before
and after each timed window; the functions here turn two snapshots
into per-window deltas.  A fleet's snapshot has the same shape as an
in-process one (it is ``merge_snapshots`` of the shards), so nothing
here depends on the backend.

Histogram quantiles are interpolated inside the fixed buckets of the
*delta*, so they describe the window only.  The observed ``min``/``max``
in a snapshot are lifetime values, so they bound only the open ends of
the first and the overflow bucket.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

__all__ = [
    "bucket_quantile",
    "counter_delta",
    "histogram_delta",
    "histogram_mean",
    "sample_quantile",
]


def _matching(snapshot: dict, name: str, match: Dict[str, str]) -> Iterable[dict]:
    for instrument in snapshot.get("instruments", []):
        if instrument["name"] != name:
            continue
        labels = instrument.get("labels", {})
        if all(str(labels.get(key)) == str(value) for key, value in match.items()):
            yield instrument


def _keyed(snapshot: dict, name: str, match: Dict[str, str]) -> Dict[tuple, dict]:
    return {
        tuple(sorted(entry.get("labels", {}).items())): entry
        for entry in _matching(snapshot, name, match)
    }


def counter_delta(before: dict, after: dict, name: str, **match: str) -> float:
    """Increase of counter ``name`` summed over children whose labels match."""
    earlier = _keyed(before, name, match)
    total = 0.0
    for key, entry in _keyed(after, name, match).items():
        total += float(entry.get("value", 0.0)) - float(earlier.get(key, {}).get("value", 0.0))
    return total


def histogram_delta(before: dict, after: dict, name: str, **match: str) -> Optional[dict]:
    """Bucket counts, count and sum added between the snapshots.

    Children whose labels match are summed.  Returns ``None`` when
    ``after`` has no such histogram.
    """
    earlier = _keyed(before, name, match)
    result: Optional[dict] = None
    for key, entry in _keyed(after, name, match).items():
        bounds = list(entry["buckets"]["le"])
        counts = list(entry["buckets"]["counts"])
        prior = earlier.get(key)
        if prior is not None:
            counts = [a - b for a, b in zip(counts, prior["buckets"]["counts"])]
        count = int(entry.get("count", 0)) - int(prior.get("count", 0) if prior else 0)
        total = float(entry.get("sum", 0.0)) - float(prior.get("sum", 0.0) if prior else 0.0)
        low, high = entry.get("min"), entry.get("max")
        if result is None:
            result = {"le": bounds, "counts": counts, "count": count, "sum": total,
                      "min": low, "max": high}
            continue
        if result["le"] != bounds:
            raise ValueError(f"histogram {name!r} children disagree on bucket bounds")
        result["counts"] = [a + b for a, b in zip(result["counts"], counts)]
        result["count"] += count
        result["sum"] += total
        result["min"] = _pick(min, result["min"], low)
        result["max"] = _pick(max, result["max"], high)
    return result


def _pick(choose, a, b):
    values = [value for value in (a, b) if value is not None]
    return choose(values) if values else None


def histogram_mean(delta: Optional[dict]) -> float:
    """Mean of the window's samples (0.0 for an empty window)."""
    if not delta or delta["count"] <= 0:
        return 0.0
    return delta["sum"] / delta["count"]


def bucket_quantile(delta: Optional[dict], q: float) -> float:
    """Quantile ``q`` in ``[0, 1]``, interpolated inside the delta's buckets.

    Bucket ``i`` spans ``(le[i-1], le[i]]``; the first bucket starts at
    the lifetime minimum (or 0) and the overflow bucket ends at the
    lifetime maximum (or the last bound).  0.0 for an empty window.
    """
    if not delta or delta["count"] <= 0:
        return 0.0
    bounds: List[float] = delta["le"]
    counts: List[int] = delta["counts"]
    low = delta.get("min")
    high = delta.get("max")
    lower_edges = [min(low, bounds[0]) if low is not None else 0.0] + bounds
    upper_edges = bounds + [max(high, bounds[-1]) if high is not None else bounds[-1]]
    target = q * sum(counts)
    seen = 0
    for index, count in enumerate(counts):
        if count <= 0:
            continue
        if seen + count >= target:
            fraction = (target - seen) / count
            lower, upper = lower_edges[index], upper_edges[index]
            return lower + fraction * (upper - lower)
        seen += count
    return upper_edges[-1]


def sample_quantile(values: Sequence[float], q: float) -> float:
    """Quantile ``q`` of raw samples by linear interpolation (numpy's default).

    0.0 for no samples.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    below = math.floor(position)
    above = min(below + 1, len(ordered) - 1)
    weight = position - below
    if weight == 0.0:
        return ordered[below]
    return ordered[below] + weight * (ordered[above] - ordered[below])
