"""Partitions of history sets and coarse-grained functionals.

A coarse history's class operator is the sum of its fine ones, so its
extended probability and each cell of its decoherence functional are
class sums too, and class_sums is the one code that sums over classes;
dec(D) never increases under it. Partitions act on flattened history
indices. Slot-wise ("sequence-preserving") merges, which keep the chain
form by summing projectors inside each time slot, come from group_slots
together with the partition they induce.

The greedy search repeatedly merges the class pair that most reduces
dec, breaking ties by the lexicographically lowest (i, j) pair, so runs
are reproducible; greedy_merge_functional states its cost. Exhaustive
partition enumeration is Bell-number territory and lives with the test
oracles, not here.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from math import inf, isqrt
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, ParseError
from .hilbert import HermitianOperator, Projector, ProjectorSet, StateVector
from .histories import (HistorySet, _offdiagonal_sum, all_extended_probabilities,
                        decoherence_functional)

__all__ = ["GreedySearchResult", "Partition", "class_sums", "coarse_decoherence_functional",
           "coarse_extended_probabilities", "greedy_decohering_search", "greedy_merge_functional",
           "group_slots", "partition_from_literal"]


def _index(value, name: str) -> int:
    """operator.index(value) of an integer that is not a bool, else InvariantViolation."""
    try:
        if not isinstance(value, (bool, np.bool_)):
            return operator.index(value)
    except TypeError:
        pass
    raise InvariantViolation(name, 1.0, f"{value!r} is not an integer")


@dataclass(frozen=True)
class Partition:
    """Disjoint non-empty classes of ints covering {0, ..., fine_count - 1};
    an index or fine_count that is a bool or no integer is refused, not truncated."""

    fine_count: int
    classes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "fine_count", _index(self.fine_count, "integer-fine-count"))
        classes = tuple(tuple(_index(i, "integer-class-index") for i in c) for c in self.classes)
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
        out[np.concatenate(self.classes)] = np.repeat(np.arange(self.size),
                                                      [len(c) for c in self.classes])
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
    """Each class's .sum(axis=0) of values (pairwise on 1-D), straight into the result."""
    values = np.asarray(values)
    if values.shape[0] != part.fine_count:
        raise DimensionMismatch(f"{values.shape[0]} values for fine count {part.fine_count}")
    sums = np.empty((part.size,) + values.shape[1:], values[:0].sum(axis=0).dtype)
    for k, c in enumerate(part.classes):
        np.add.reduce(values[list(c)], axis=0, out=sums[k, ...])
    return sums


def coarse_decoherence_functional(functional: np.ndarray, part: Partition) -> np.ndarray:
    """Block sums, rows then columns; dec of the result never exceeds dec of the input."""
    functional = np.asarray(functional)
    if functional.shape != (part.fine_count, part.fine_count):
        raise DimensionMismatch(
            f"functional shape {functional.shape} vs fine count {part.fine_count}")
    return class_sums(class_sums(functional, part).T, part).T


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
        sums = class_sums([p.entries for p in slot.members], grouping)
        members = tuple(Projector(entries, label="+".join(slot.members[i].label for i in g))
                        for g, entries in zip(grouping.classes, sums))
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


# cells in one run of the greedy search's cross sums and updates (1 MiB
# complex), in its twin buffers: enough to amortize numpy's per-call cost
_TILE = 1 << 16


def _drop(src: np.ndarray, dst: np.ndarray, j: int) -> None:
    """dst = src without row and column j, over the last two axes."""
    dst[..., :j, :j] = src[..., :j, :j]
    dst[..., :j, j:] = src[..., :j, j + 1:]
    dst[..., j:, :j] = src[..., j + 1:, :j]
    dst[..., j:, j:] = src[..., j + 1:, j + 1:]


class _GreedyState:
    """The greedy search over k current classes, merged one pair at a time.

    Holds the merged functional D (k x k complex), |D| and the approximate
    merged cross terms cross[a, b] = sum over l != a, b of |D_al + D_bl|
    (a < b; NaN on and below the diagonal). cross feeds only the
    approximate scores, so it may be summed in any order: every term is an
    off-diagonal modulus, so it stays within a few eps times the
    off-diagonal mass of the plain sum, far inside the search's slack.
    D lives in one of two flat buffers, |D| and cross as two planes in one
    of two more, and each is compacted into its twin at every merge; the
    twins also hold every temporary of the cross sums and updates. So
    every view is C-contiguous k x k: |D| is np.abs of D cell for cell,
    and dec is dec_measure's formula on it, bit for bit.
    """

    def __init__(self, functional: np.ndarray):
        entries = np.array(HermitianOperator(functional).entries)
        m = self.m = self.k = entries.shape[0]
        self._cbufs = [entries.ravel(), np.empty(m * m, dtype=complex)]
        self._fbufs = [np.empty(2 * m * m), np.empty(2 * m * m)]
        self._views()
        np.abs(self.current, out=self.absval)
        self.dec = _offdiagonal_sum(self.absval)
        # every score, and every sum formed on the way to one, is at most
        # about ten times the input's total modulus: below this bound none
        # can overflow, and no score needs checking
        self._bounded = bool(self.absval.sum() < np.finfo(float).max / 16)
        self._slack_unit = 128 * (m + 1) * np.finfo(float).eps
        # the off-diagonal mass bounds every cross entry; it is summed on
        # its own (in the cross plane), since the diagonal's rounding can
        # swamp it in dec
        np.copyto(self.cross, self.absval)
        np.fill_diagonal(self.cross, 0.0)
        self._off_mass = float(self.cross.sum())
        # cross is symmetric, so each pair is summed once: a few rows a
        # at a time against the b from their first a on
        self.cross.fill(np.nan)
        rows = max(1, min(8, isqrt(_TILE // m)))
        for a0 in range(0, m, rows):
            for p, row in enumerate(self._cross(a0, min(a0 + rows, m), a0)):
                self.cross[a0 + p, a0 + p + 1:] = row[p + 1:]

    def _views(self) -> None:
        k = self.k
        self.current = self._cbufs[0][:k * k].reshape(k, k)
        self._planes = self._fbufs[0][:2 * k * k].reshape(2, k, k)
        self.absval, self.cross = self._planes

    def _cross(self, a0: int, a1: int, lo: int) -> np.ndarray:
        """[a - a0, b - lo] = sum over l != a, b of |D_al + D_bl| for the rows
        a0 <= a < a1 and every b >= lo (not meaningful at b = a). A run of
        b at a time takes at most _TILE cells of D_a + D_b (one b at least)
        and never more than k x k, so it fits in the twin buffers."""
        k, current, rows = self.k, self.current, a1 - a0
        sums = np.empty((rows, k - lo))
        run = max(1, min(_TILE, k * k) // (rows * k))
        for b0 in range(lo, k, run):
            n = min(run, k - b0)
            terms = np.add(current[a0:a1, None], current[None, b0:b0 + n],
                           out=self._cbufs[1][:rows * n * k].reshape(rows, n, k))
            mags = np.abs(terms, out=self._fbufs[1][:terms.size].reshape(terms.shape))
            for p in range(rows):
                mags[p, :, a0 + p] = 0.0                        # l = a
            mags.reshape(rows, n * k)[:, b0::k + 1] = 0.0       # l = b
            mags.sum(axis=2, out=sums[:, b0 - lo:b0 - lo + n])
        return sums

    def scores(self) -> tuple[np.ndarray, float, np.ndarray]:
        """(s, slack, absrow). s[a, b] for a < b is half the approximate
        change of dec when a and b merge, approx = dec + 2 s (NaN on and
        below the diagonal); every approx lies within slack / 2 of the
        exact score. absrow is the off-diagonal row sum of |D|."""
        absval = self.absval
        absrow = absval.sum(axis=1) - absval.diagonal()
        s = self._fbufs[1][:self.k ** 2].reshape(self.k, self.k)
        # dec + 2 (cross - old cross) - 2 |D_ab|, with the old cross terms
        # (absrow_a - |D_ab|) + (absrow_b - |D_ba|) expanded
        np.add(self.cross, absval.T, out=s)
        s -= absrow[:, None]
        s -= absrow
        # |old cross| <= 2 max(absrow), and no cross entry ever exceeds the
        # input's off-diagonal mass, so the accumulated rounding of every
        # score is a small multiple of eps * m * these magnitudes
        slack = self._slack_unit * (self._off_mass + abs(self.dec) + 2.0 * absrow.max())
        return s, slack, absrow

    def best_pair(self) -> tuple[int, int]:
        """The lowest (i, j) among the pairs of least exact score.

        The first exact minimum lies within slack of the least approx, so
        it is among the pairs that close (row-major flat indices into s).
        A lone such pair is it; several are scored again term by term,
        exactly as a full rescan scores them.
        """
        s, slack, absrow = self.scores()
        k, dec, absval = self.k, self.dec, self.absval
        if not self._bounded and not np.isfinite(dec + 2.0 * s[np.triu_indices(k, 1)]).all():
            raise InvariantViolation("finite-merge-scores", absval.sum(),
                                     "functional too large for float merge scores")
        near = np.flatnonzero(s <= np.fmin.reduce(s, axis=None) + 0.5 * slack)
        if len(near) > 1:
            ni, nj = np.divmod(near, k)
            off = absval[ni, nj]
            old_cross = (absrow[ni] - off) + (absrow[nj] - absval[nj, ni])
            exact = dec + 2.0 * (_exact_cross(self.current, ni, nj) - old_cross) - 2.0 * off
            near = near[np.argmin(exact):]      # first minimum: the lowest (i, j)
        return divmod(int(near[0]), k)

    def merge(self, i: int, j: int) -> None:
        """Merge class j into class i < j; the classes after j move up one."""
        k, current, absval, cross = self.k, self.current, self.absval, self.cross
        col_i = current[:, i].copy()
        # D_ii sums as the block sum does: ((D_ii + D_ji) + D_ij) + D_jj
        d_ij = current[i, j]
        current[i] += current[j]
        current[i, j] = d_ij
        current[:, i] += current[:, j]
        current[i, i] += current[j, j]
        np.abs(current[i], out=absval[i])
        np.abs(current[:, i], out=absval[:, i])
        # every pair a < b loses its l = i and l = j terms and gains the
        # merged l = i term (row and column i are rebuilt below), a run of
        # rows a at a time against the columns b >= its first a
        step = max(1, _TILE // k)
        for col, update in ((col_i, np.subtract), (current[:, j].copy(), np.subtract),
                            (current[:, i].copy(), np.add)):
            for a0 in range(0, k, step):
                block = cross[a0:a0 + step, a0:]
                terms = self._cbufs[1][:block.size].reshape(block.shape)
                terms[:] = col[a0:]
                terms += col[a0:a0 + step, None]
                update(block, np.abs(terms, out=self._fbufs[1][:block.size].reshape(block.shape)),
                       out=block)

        _drop(current, self._cbufs[1][:(k - 1) ** 2].reshape(k - 1, k - 1), j)
        _drop(self._planes, self._fbufs[1][:2 * (k - 1) ** 2].reshape(2, k - 1, k - 1), j)
        self._cbufs.reverse()
        self._fbufs.reverse()
        self.k = k = k - 1
        self._views()

        row = self._cross(i, i + 1, 0)[0]
        self.cross[i, i + 1:] = row[i + 1:]
        self.cross[:i, i] = row[:i]
        self.dec = _offdiagonal_sum(self.absval)


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

    Cost: four buffers of 64 m^2 bytes in all, allocated once, hold D,
    |D|, cross and every temporary of the cross sums. An O(m^3) set-up
    builds cross[a, b] = sum over l != a, b of |D_al + D_bl| for a < b,
    with the routine that rebuilds row i of cross at each merge. Each
    merge does O(k^2) numpy work for k current classes: it scores every
    pair with whole-matrix operations on cross and on |D|, which it keeps
    up to date; it updates row and column i of D and |D| and the three
    changed terms of cross; and it compacts each array into its twin
    buffer. The cheap scores lie within a rounding bound of the exact
    ones, so the pairs that close to the best hold the first exact
    minimum: a lone one is it, and several are scored again term by term.
    So the chosen pair and every float are the ones a full rescan of all
    pairs gives.
    """
    if not -inf < target_tol < inf:
        raise InvariantViolation("tolerance", target_tol, "greedy target must be finite")
    state = _GreedyState(functional)
    classes = [(x,) for x in range(state.m)]
    trace: list[tuple[tuple[int, int], float]] = []
    while not state.dec <= target_tol and len(classes) > 1:
        i, j = state.best_pair()
        state.merge(i, j)
        classes[i] = tuple(sorted(classes[i] + classes[j]))
        del classes[j]
        trace.append(((i, j), state.dec))
    return GreedySearchResult(Partition(state.m, tuple(classes)), state.dec,
                              bool(state.dec <= target_tol), tuple(trace))


def greedy_decohering_search(
    hs: HistorySet, psi: StateVector, target_tol: float,
) -> GreedySearchResult:
    """Greedy merge on the history set's own decoherence functional."""
    report = decoherence_functional(hs, psi)
    return greedy_merge_functional(report.functional, target_tol)
