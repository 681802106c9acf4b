"""Partitions of history sets and coarse-grained functionals.

Coarse graining block-sums class operators, extended probabilities, and
the decoherence functional; dec(D) never increases under it. Partitions
act on flattened history indices. Slot-wise ("sequence-preserving")
merges, which keep the chain form by summing projectors inside one time
slot, have a dedicated constructor.

The greedy search repeatedly merges the class pair that most reduces
dec, breaking ties by the lexicographically lowest (i, j) pair, so runs
are reproducible. Exhaustive partition enumeration is Bell-number
territory and lives with the test oracles, not here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ParseError
from .hilbert import Projector, ProjectorSet, StateVector
from .histories import (
    HistorySet,
    all_extended_probabilities,
    dec_measure,
    decoherence_functional,
)


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty classes covering {0, ..., fine_count - 1}."""

    fine_count: int
    classes: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        classes = tuple(tuple(int(i) for i in c) for c in self.classes)
        object.__setattr__(self, "classes", classes)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"c{k}" for k in range(len(classes))))
        if len(self.labels) != len(classes):
            raise DimensionMismatch(f"{len(self.labels)} labels for {len(classes)} classes")
        seen: set[int] = set()
        for c in classes:
            if not c:
                raise InvariantViolation("nonempty-class", 0.0, "partition has an empty class")
            for i in c:
                if not 0 <= i < self.fine_count:
                    raise InvariantViolation("class-index-range", i,
                                             f"index {i} outside 0..{self.fine_count - 1}")
                if i in seen:
                    raise InvariantViolation("disjoint-classes", i, f"index {i} repeated")
                seen.add(i)
        if len(seen) != self.fine_count:
            missing = sorted(set(range(self.fine_count)) - seen)
            raise InvariantViolation("covering-classes", len(missing),
                                     f"indices {missing[:8]} not covered")

    @property
    def size(self) -> int:
        return len(self.classes)

    def class_of(self) -> np.ndarray:
        """Fine index -> class index map."""
        out = np.empty(self.fine_count, dtype=int)
        for k, c in enumerate(self.classes):
            out[list(c)] = k
        return out


def identity_partition(m: int) -> Partition:
    return Partition(m, tuple((i,) for i in range(m)))


def total_partition(m: int) -> Partition:
    return Partition(m, (tuple(range(m)),))


def _load_class_list(text: str, line: int, col: int, expected: str, found: str):
    """json.loads of a class-list literal that starts at (line, col).

    Any ValueError becomes a ParseError: a JSON syntax error at its own
    column, and an index past Python's int digit limit at the literal's start.
    """
    try:
        return json.loads(text)
    except ValueError as e:
        raise ParseError(line, col + getattr(e, "colno", 1) - 1, expected, found) from None


def partition_from_literal(text: str, fine_count: int) -> Partition:
    """Parse a bracketed class list like [[0],[1,2]]."""
    raw = _load_class_list(text, 1, 1, "partition literal like [[0],[1,2]]", text)
    if (not isinstance(raw, list) or not raw
            or any(not isinstance(c, list) for c in raw)
            or any(not isinstance(i, int) or isinstance(i, bool) for c in raw for i in c)):
        raise ParseError(1, 1, "list of integer lists like [[0],[1,2]]", text)
    return Partition(fine_count, tuple(tuple(c) for c in raw))


def class_sums(values: np.ndarray, part: Partition) -> np.ndarray:
    values = np.asarray(values)
    if values.shape[0] != part.fine_count:
        raise DimensionMismatch(f"{values.shape[0]} values for fine count {part.fine_count}")
    return np.array([values[list(c)].sum() for c in part.classes])


def coarse_decoherence_functional(functional: np.ndarray, part: Partition) -> np.ndarray:
    """Block-summed functional; dec of the result never exceeds dec of the input."""
    functional = np.asarray(functional)
    if functional.shape != (part.fine_count, part.fine_count):
        raise DimensionMismatch(
            f"functional shape {functional.shape} vs fine count {part.fine_count}")
    s = np.zeros((part.fine_count, part.size))
    for k, c in enumerate(part.classes):
        s[list(c), k] = 1.0
    return s.T @ functional @ s


def coarse_extended_probabilities(hs: HistorySet, part: Partition, psi: StateVector) -> np.ndarray:
    """Class sums of the fine extended probabilities (additivity is exact)."""
    if part.fine_count != hs.size:
        raise DimensionMismatch(f"partition over {part.fine_count} vs {hs.size} histories")
    return class_sums(all_extended_probabilities(hs, psi), part)


def _group_slots(
    hs: HistorySet,
    groupings: Sequence[Sequence[Sequence[int]] | None],
    labels: Sequence[Sequence[str] | None] | None = None,
) -> tuple[HistorySet, Partition]:
    """Sum projectors within each slot's groups (None keeps a slot as it is).

    Returns the merged set and the induced flat-index partition, whose
    class k lists the fine histories of merged history k in ascending order.
    """
    if len(groupings) != hs.n_times:
        raise DimensionMismatch(f"{len(groupings)} groupings for {hs.n_times} times")
    slots, group_of = [], []
    for t, (slot, groups) in enumerate(zip(hs.slots, groupings)):
        if groups is None:
            slots.append(slot)
            group_of.append(np.arange(slot.size))
            continue
        grouping = Partition(slot.size, tuple(tuple(g) for g in groups))  # validates shape
        names = labels[t] if labels else None
        members = []
        for k, g in enumerate(grouping.classes):
            entries = sum(slot.members[i].entries for i in g)
            label = names[k] if names else "+".join(slot.members[i].label for i in g)
            members.append(Projector(entries, label=label))
        slots.append(ProjectorSet(tuple(members), time=slot.time))
        group_of.append(grouping.class_of())
    merged = HistorySet(tuple(slots))
    fine = np.unravel_index(np.arange(hs.size), hs.shape, order="F")   # earliest fastest
    coarse = np.ravel_multi_index(tuple(g[c] for g, c in zip(group_of, fine)),
                                  merged.shape, order="F")
    members_of = np.argsort(coarse, kind="stable")
    bounds = np.cumsum(np.bincount(coarse, minlength=merged.size))[:-1]
    return merged, Partition(hs.size, tuple(np.split(members_of, bounds)))


def merge_slot_alternatives(
    hs: HistorySet, slot_index: int, groups: Sequence[Sequence[int]],
    labels: Sequence[str] | None = None,
) -> HistorySet:
    """Sequence-preserving coarse graining: sum projectors inside one slot."""
    groupings, names = [None] * hs.n_times, [None] * hs.n_times
    groupings[slot_index], names[slot_index] = groups, labels
    return _group_slots(hs, groupings, names)[0]


def slot_partition(hs: HistorySet, slot_index: int, groups: Sequence[Sequence[int]]) -> Partition:
    """The flat-index partition induced by a slot-wise merge (same class order
    as the merged set's flat order)."""
    groupings = [None] * hs.n_times
    groupings[slot_index] = groups
    return _group_slots(hs, groupings)[1]


@dataclass(frozen=True)
class GreedySearchResult:
    partition: Partition
    dec: float
    succeeded: bool
    # ((i, j), dec_after): class indices at the moment of each merge
    trace: tuple[tuple[tuple[int, int], float], ...]


def greedy_merge_functional(
    functional: np.ndarray, target_tol: float, min_classes: int = 1,
) -> GreedySearchResult:
    """Greedy pair merging on an explicit functional matrix.

    Merges the class pair whose merge minimizes the resulting dec, until
    dec <= target_tol or the class count floor is hit. The total merge
    always reaches dec = 0, so with min_classes = 1 the search cannot fail.
    """
    functional = np.asarray(functional, dtype=np.complex128)
    m = functional.shape[0]
    part = identity_partition(m)
    current = functional.copy()
    trace: list[tuple[tuple[int, int], float]] = []

    while True:
        dec = dec_measure(current)
        if dec <= target_tol:
            return GreedySearchResult(part, dec, True, tuple(trace))
        k = part.size
        if k <= max(min_classes, 1):
            return GreedySearchResult(part, dec, False, tuple(trace))

        absrow = np.abs(current).sum(axis=1) - np.abs(np.diag(current))
        best_pair, best_dec = None, None
        for i in range(k):
            for j in range(i + 1, k):
                mask = np.ones(k, dtype=bool)
                mask[[i, j]] = False
                merged_cross = np.abs(current[i, mask] + current[j, mask]).sum()
                old_cross = (absrow[i] - abs(current[i, j])) + (absrow[j] - abs(current[j, i]))
                # rows and columns contribute equally (Hermitian functional)
                cand = dec + 2.0 * (merged_cross - old_cross) - 2.0 * abs(current[i, j])
                if best_dec is None or cand < best_dec:
                    best_pair, best_dec = (i, j), cand

        i, j = best_pair
        keep = [x for x in range(k) if x != j]
        merged = current[np.ix_(keep, keep)].copy()
        pos = keep.index(i)
        merged[pos, :] += current[np.ix_([j], keep)][0]
        merged[:, pos] += current[np.ix_(keep, [j])][:, 0]
        merged[pos, pos] += current[j, j]
        current = merged

        new_classes = [
            tuple(sorted(part.classes[i] + part.classes[j])) if x == i else part.classes[x]
            for x in keep
        ]
        part = Partition(m, tuple(new_classes))
        trace.append(((i, j), dec_measure(current)))


def greedy_decohering_search(
    hs: HistorySet, psi: StateVector, target_tol: float, min_classes: int = 1,
) -> GreedySearchResult:
    """Greedy merge on the history set's own decoherence functional."""
    report = decoherence_functional(hs, psi)
    return greedy_merge_functional(report.functional, target_tol, min_classes)
