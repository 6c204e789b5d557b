"""The benchmark's own arithmetic, kept apart from the program it measures.

Percentiles, interval unions (span self time and per-operation
attribution), the paper's per-label majority vote and the set-based F1 of
paper §5.1 are computed here with plain numpy, so the checks that use
them do not trust the library's own evaluation code.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, FrozenSet, Iterable, List, Mapping, Sequence, Tuple

import numpy as np

Interval = Tuple[float, float]


# ------------------------------------------------------------ percentiles


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least ``q`` % of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile rank must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def beyond(values: Sequence[float], q: float) -> int:
    """How many samples lie strictly above the ``q``-th percentile."""
    cut = percentile(values, q)
    return sum(1 for value in values if value > cut)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# -------------------------------------------------------------- intervals


def merge_intervals(intervals: Iterable[Interval]) -> List[Interval]:
    """Sorted, disjoint union of ``(start, end)`` intervals."""
    merged: List[Interval] = []
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1] = (merged[-1][0], end)
        else:
            merged.append((start, end))
    return merged


class Coverage:
    """Answers "how much of ``[lo, hi)`` do these intervals cover" quickly.

    Built once over many intervals (every layer span of a run); each query
    is a binary search plus a walk over the merged pieces it overlaps.
    """

    def __init__(self, intervals: Iterable[Interval]) -> None:
        self._pieces = merge_intervals(intervals)
        self._starts = [start for start, _ in self._pieces]

    def covered(self, lo: float, hi: float) -> float:
        if hi <= lo:
            return 0.0
        index = max(bisect.bisect_right(self._starts, lo) - 1, 0)
        total = 0.0
        while index < len(self._pieces):
            start, end = self._pieces[index]
            if start >= hi:
                break
            total += max(0.0, min(end, hi) - max(start, lo))
            index += 1
        return total


def self_time(span: Interval, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of its interval its children cover
    (overlapping children are counted once)."""
    start, end = span
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children]
    covered = sum(hi - lo for lo, hi in merge_intervals(clipped))
    return (end - start) - covered


# ------------------------------------------------------ quality (§5.1)


def indicator_rows(
    label_sets: Mapping[int, Iterable[int]], items: Sequence[int], n_labels: int
) -> np.ndarray:
    """``(len(items), n_labels)`` 0/1 matrix of the label sets of ``items``
    (an item missing from ``label_sets`` gets an empty row)."""
    rows = np.zeros((len(items), n_labels), dtype=bool)
    for row, item in enumerate(items):
        for label in label_sets.get(item, ()):
            rows[row, int(label)] = True
    return rows


def majority_vote(
    items: np.ndarray, indicators: np.ndarray, n_items: int
) -> Dict[int, FrozenSet[int]]:
    """Per-label majority vote: a label is accepted for an item when more
    than half of the item's answers carry it (paper §5.1, MV baseline)."""
    items = np.asarray(items, dtype=np.int64)
    votes = np.zeros((n_items, indicators.shape[1]))
    np.add.at(votes, items, np.asarray(indicators, dtype=float))
    answers = np.bincount(items, minlength=n_items).astype(float)
    accepted = votes * 2.0 > answers[:, None]
    return {
        int(item): frozenset(int(c) for c in np.flatnonzero(accepted[item]))
        for item in np.unique(items)
    }


def set_f1(
    predicted: Mapping[int, Iterable[int]],
    truth: Mapping[int, Iterable[int]],
    n_labels: int,
) -> Tuple[float, float, float]:
    """Item-averaged set precision and recall over the items with known
    truth, and their harmonic mean.

    Per item, precision is correct predicted labels over predicted labels
    and recall is correct predicted labels over true labels; an empty
    prediction scores precision 1 against an empty truth set and 0
    otherwise (the same convention for recall), and an item missing from
    ``predicted`` counts as an empty prediction.
    """
    items = sorted(truth)
    if not items:
        raise ValueError("no items with known truth")
    pred = indicator_rows(predicted, items, n_labels)
    true = indicator_rows(truth, items, n_labels)
    correct = (pred & true).sum(axis=1).astype(float)
    n_pred = pred.sum(axis=1).astype(float)
    n_true = true.sum(axis=1).astype(float)
    precision = np.where(
        n_pred > 0, correct / np.maximum(n_pred, 1.0), (n_true == 0).astype(float)
    )
    recall = np.where(
        n_true > 0, correct / np.maximum(n_true, 1.0), (n_pred == 0).astype(float)
    )
    p, r = float(precision.mean()), float(recall.mean())
    f1 = 0.0 if p + r == 0 else 2.0 * p * r / (p + r)
    return p, r, f1
