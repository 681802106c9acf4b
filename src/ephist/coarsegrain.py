"""Partitions of history sets and coarse-grained functionals.

Coarse graining block-sums class operators, extended probabilities, and
the decoherence functional; dec(D) never increases under it. Partitions
act on flattened history indices. Slot-wise ("sequence-preserving")
merges, which keep the chain form by summing projectors inside each time
slot, come from group_slots together with the partition they induce.

The greedy search repeatedly merges the class pair that most reduces
dec, breaking ties by the lexicographically lowest (i, j) pair, so runs
are reproducible. It costs O(m^3) once, to build the matrix of merged
cross terms sum_{l != a, b} |D_al + D_bl|, and then O(k^2) numpy work per
merge over k classes, since each merge updates that matrix instead of
rescanning every pair. Exhaustive partition enumeration is Bell-number
territory and lives with the test oracles, not here.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from math import inf
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ParseError
from .hilbert import HermitianOperator, Projector, ProjectorSet, StateVector
from .histories import (
    HistorySet,
    all_extended_probabilities,
    dec_measure,
    decoherence_functional,
)

__all__ = ["GreedySearchResult", "Partition", "class_sums", "coarse_decoherence_functional",
           "coarse_extended_probabilities", "greedy_decohering_search", "greedy_merge_functional",
           "group_slots", "partition_from_literal"]


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty classes covering {0, ..., fine_count - 1}."""

    fine_count: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        classes = tuple(tuple(int(i) for i in c) for c in self.classes)
        object.__setattr__(self, "classes", classes)
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


def _load_class_list(text: str, line: int, col: int, expected: str):
    """json.loads of a class-list literal that starts at (line, col).

    Any ValueError becomes a ParseError: a JSON syntax error at its own
    column, and an index past Python's int digit limit or nesting past the
    recursion limit at the literal's start. Either way found is at most 40
    characters of the literal, from the reported column on.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(line, col + e.colno - 1, expected, text[e.pos:][:40]) from None
    except (ValueError, RecursionError):
        raise ParseError(line, col, expected, text[:40]) from None


def _is_class_list(raw) -> bool:
    """A nonempty list of nonempty lists of ints (bools are not ints here)."""
    return (isinstance(raw, list) and bool(raw)
            and all(isinstance(c, list) and c for c in raw)
            and all(isinstance(i, int) and not isinstance(i, bool) for c in raw for i in c))


def partition_from_literal(text: str, fine_count: int) -> Partition:
    """Parse a bracketed class list like [[0],[1,2]], as a partition line would."""
    raw = _load_class_list(text, 1, 1, "a class list like [[0],[1,2]]")
    if not _is_class_list(raw):
        raise ParseError(1, 1, "nonempty lists of integers", text.strip()[:40])
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


def group_slots(
    hs: HistorySet, groupings: Sequence[Sequence[Sequence[int]] | None],
) -> tuple[HistorySet, Partition]:
    """Sum projectors within each slot's groups (None keeps a slot as it is).

    Takes one grouping per slot; a merged member is labelled by joining
    its members' labels with "+". Returns the merged set and the induced
    flat-index partition, whose class k lists the fine histories of
    merged history k in ascending order. class_sums of the fine extended
    probabilities over that partition equal the merged set's chain
    extended probabilities (multilinearity).
    """
    if len(groupings) != hs.n_times:
        raise DimensionMismatch(f"{len(groupings)} groupings for {hs.n_times} times")
    slots, group_of = [], []
    for slot, groups in zip(hs.slots, groupings):
        if groups is None:
            slots.append(slot)
            group_of.append(np.arange(slot.size))
            continue
        grouping = Partition(slot.size, tuple(tuple(g) for g in groups))  # validates shape
        members = tuple(
            Projector(sum(slot.members[i].entries for i in g),
                      label="+".join(slot.members[i].label for i in g))
            for g in grouping.classes)
        slots.append(ProjectorSet(members, time=slot.time))
        group_of.append(grouping.class_of())
    merged = HistorySet(tuple(slots))
    fine = np.unravel_index(np.arange(hs.size), hs.shape, order="F")   # earliest fastest
    coarse = np.ravel_multi_index(tuple(g[c] for g, c in zip(group_of, fine)),
                                  merged.shape, order="F")
    members_of = np.argsort(coarse, kind="stable")
    bounds = np.cumsum(np.bincount(coarse, minlength=merged.size))[:-1]
    return merged, Partition(hs.size, tuple(np.split(members_of, bounds)))


@dataclass(frozen=True)
class GreedySearchResult:
    partition: Partition
    dec: float
    succeeded: bool
    # ((i, j), dec_after): class indices at the moment of each merge
    trace: tuple[tuple[tuple[int, int], float], ...]


def _cross_row(current: np.ndarray, a: int) -> np.ndarray:
    """[b] = sum over l != a, b of |D_al + D_bl|: the cross terms of classes a
    and b merged. Entry a is not meaningful."""
    terms = np.abs(current[a] + current)
    terms[:, a] = 0.0
    np.fill_diagonal(terms, 0.0)
    return terms.sum(axis=1)


def _exact_cross(current: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """[p] = sum over l != i[p], j[p] of |D_il + D_jl|, each summed like the
    plain row sum np.abs(D[i, mask] + D[j, mask]).sum(). Takes k pairs at a
    time, so no temporary outgrows k x k."""
    k = current.shape[0]
    out = []
    for start in range(0, len(i), k):
        bi, bj = i[start:start + k], j[start:start + k]
        terms = np.abs(current[bi] + current[bj])
        kept = np.ones(terms.shape, dtype=bool)
        rows = np.arange(len(bi))
        kept[rows, bi] = kept[rows, bj] = False
        out.append(terms[kept].reshape(len(bi), k - 2).sum(axis=1))
    return np.concatenate(out)


def greedy_merge_functional(functional: np.ndarray, target_tol: float) -> GreedySearchResult:
    """Greedy pair merging on an explicit functional matrix.

    Merges the class pair whose merge minimizes the resulting dec, until
    dec <= target_tol or one class is left. The total merge always reaches
    dec = 0, so any target_tol >= 0 is met.
    Ties go to the lexicographically lowest (i, j), i < j, among the current
    classes. target_tol must be finite; a negative one merges down to one
    class. The functional must be square (DimensionMismatch), finite,
    Hermitian to TOL_HERM and small enough for its merge scores to stay
    finite (InvariantViolation).

    Cost: an O(m^3) set-up builds cross[a, b] = sum over l != a, b of
    |D_al + D_bl| one row at a time; each merge then scores every pair from
    it and updates it in O(k^2) numpy work for k current classes. The pairs
    whose score lies within a rounding bound of the best are scored again
    term by term, so the chosen pair and every float are the ones a full
    rescan of all pairs gives.
    """
    if not -inf < target_tol < inf:
        raise InvariantViolation("tolerance", target_tol, "greedy target must be finite")
    current = HermitianOperator(functional).entries
    m = current.shape[0]
    cross = np.array([_cross_row(current, a) for a in range(m)]).reshape(m, m)
    # no cross entry ever exceeds the input's off-diagonal mass, so its
    # accumulated rounding is a small multiple of eps * m * that mass
    off_mass = np.abs(current[~np.eye(m, dtype=bool)]).sum()
    classes = [(x,) for x in range(m)]
    trace: list[tuple[tuple[int, int], float]] = []
    dec = dec_measure(current)

    while not dec <= target_tol and len(classes) > 1:
        k = len(classes)
        absval = np.abs(current)
        absrow = absval.sum(axis=1) - np.abs(np.diag(current))
        iu, ju = np.triu_indices(k, 1)
        off = absval[iu, ju]
        old_cross = (absrow[iu] - off) + (absrow[ju] - absval[ju, iu])
        # rows and columns contribute equally (Hermitian functional)
        approx = dec + 2.0 * (cross[iu, ju] - old_cross) - 2.0 * off
        if not np.isfinite(approx).all():
            raise InvariantViolation("finite-merge-scores", absval.sum(),
                                     "functional too large for float merge scores")
        # approx differs from the term-by-term score only by rounding, a few
        # eps * m times the magnitudes involved; every pair that close to the
        # best is scored again, so the first exact minimum is among them
        slack = 128 * (m + 1) * np.finfo(float).eps * (
            off_mass + abs(dec) + np.abs(old_cross).max())
        near = np.flatnonzero(approx <= approx.min() + slack)   # row-major order

        exact_cross = _exact_cross(current, iu[near], ju[near])
        exact = dec + 2.0 * (exact_cross - old_cross[near]) - 2.0 * off[near]
        best = near[np.argmin(exact)]      # first minimum: the lowest (i, j)
        i, j = int(iu[best]), int(ju[best])

        keep = [x for x in range(k) if x != j]
        merged = current[np.ix_(keep, keep)]
        merged[i, :] += current[j, keep]
        merged[:, i] += current[keep, j]
        merged[i, i] += current[j, j]

        # columns i and j become one column; row and column i are new
        col_i, col_j, col = current[keep, i], current[keep, j], merged[:, i]
        cross = cross[np.ix_(keep, keep)]
        cross -= np.abs(col_i[:, None] + col_i) + np.abs(col_j[:, None] + col_j)
        cross += np.abs(col[:, None] + col)
        cross[i] = cross[:, i] = _cross_row(merged, i)

        current = merged
        classes[i] = tuple(sorted(classes[i] + classes[j]))
        del classes[j]
        dec = dec_measure(current)
        trace.append(((i, j), dec))

    return GreedySearchResult(Partition(m, tuple(classes)), dec, bool(dec <= target_tol),
                              tuple(trace))


def greedy_decohering_search(
    hs: HistorySet, psi: StateVector, target_tol: float,
) -> GreedySearchResult:
    """Greedy merge on the history set's own decoherence functional."""
    report = decoherence_functional(hs, psi)
    return greedy_merge_functional(report.functional, target_tol)
