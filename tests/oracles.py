"""Slow, independent routes to quantities the package computes faster.

Tests compare the package against these. Each one builds its value
from first principles (dense class operators, per-point amplitudes,
per-history probabilities, brute-force enumeration, a rescan of every
pair at each greedy merge), so it shares no
shortcut with the code under test.
"""
from typing import Iterator, Sequence

import numpy as np

from ephist import (
    CapExceeded,
    CompositeSystem,
    DimensionMismatch,
    GreedySearchResult,
    HistoryIndex,
    HistorySet,
    Partition,
    StateVector,
    TwoSlitConfig,
    amplitude,
    class_operator,
    dec_measure,
    dh_probability,
    extended_probability,
    identity_partition,
)

ENUMERATION_CAP = 8   # Bell(9) = 21147 partitions is past what a test should walk


def joint_class_operator(cs: CompositeSystem, indices: Sequence[HistoryIndex]) -> np.ndarray:
    """Dense C1 x ... x CN on the joint space, leftmost factor slowest."""
    if len(indices) != len(cs.factors):
        raise DimensionMismatch(f"{len(indices)} indices for {len(cs.factors)} factors")
    c = class_operator(cs.factors[0][1], indices[0])
    for (_, hs), idx in zip(cs.factors[1:], indices[1:]):
        c = np.kron(c, class_operator(hs, idx))
    return c


def coarse_class_operator(hs: HistorySet, part: Partition, class_index: int) -> np.ndarray:
    """Sum of the fine class operators in one class of the partition."""
    if part.fine_count != hs.size:
        raise DimensionMismatch(f"partition over {part.fine_count} vs {hs.size} histories")
    c = np.zeros((hs.dim, hs.dim), dtype=np.complex128)
    for flat in part.classes[class_index]:
        c += class_operator(hs, hs.index(flat))
    return c


def extended_density_from_amplitudes(cfg: TwoSlitConfig, y, slit: str = "U"):
    """|psi_slit|^2 + Re[conj(psi_other) psi_slit], from the two amplitudes."""
    own = amplitude(cfg, y, slit)   # rejects an unknown slit name
    other = amplitude(cfg, y, "L" if slit == "U" else "U")
    return np.abs(own) ** 2 + np.real(np.conj(other) * own)


def dh_ep_difference(hs: HistorySet, idx: HistoryIndex, psi: StateVector) -> float:
    """p_dh - p_ep; identically -Re sum_{b != a} D(b, a), and 0 when decoherent."""
    return dh_probability(hs, idx, psi) - extended_probability(hs, idx, psi)


def enumerate_partitions(m: int) -> Iterator[Partition]:
    """Every set partition of {0..m-1}, restricted-growth-string order."""
    if m > ENUMERATION_CAP:
        raise CapExceeded("partition enumeration size", m, ENUMERATION_CAP)

    def grow(prefix: list[int], used: int) -> Iterator[list[int]]:
        if len(prefix) == m:
            yield prefix
            return
        for c in range(used + 1):
            yield from grow(prefix + [c], max(used, c + 1))

    for rgs in grow([0], 1):
        k = max(rgs) + 1
        classes = [[] for _ in range(k)]
        for i, c in enumerate(rgs):
            classes[c].append(i)
        yield Partition(m, tuple(tuple(c) for c in classes))


def greedy_merge_loop(
    functional: np.ndarray, target_tol: float, min_classes: int = 1,
) -> GreedySearchResult:
    """greedy_merge_functional by rescanning every class pair each merge.

    O(k^3) per merge; the strict < keeps the first pair in (i, j) order
    among equal candidates.
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
