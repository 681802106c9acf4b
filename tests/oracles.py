"""Slow, independent routes to quantities the package computes faster.

Tests compare the package against these. Each one builds its value
from first principles (dense class operators, per-point amplitudes,
per-history probabilities, brute-force enumeration), so it shares no
shortcut with the code under test.
"""
from typing import Iterator, Sequence

import numpy as np

from ephist import (
    CapExceeded,
    CompositeSystem,
    DimensionMismatch,
    HistoryIndex,
    HistorySet,
    Partition,
    StateVector,
    TwoSlitConfig,
    amplitude,
    class_operator,
    dh_probability,
    extended_probability,
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
