"""The fundamental distribution over a designated fine-grained history set.

A fine-grained spec fixes one complete orthonormal basis (d rank-1
projectors) per time, in the Heisenberg picture, plus the state. The
distribution assigns w(h) = Re<psi|P_{b_n}(t_n)...P_{b_1}(t_1)|psi> to
every outcome string h = (b_1, ..., b_n); every coarse-grained value is
a class sum of these, over the partition that group_slots returns with
the coarse set. The preferred basis is a per-model designation, not
something the engine derives.

h-space enumeration is little-endian in time (b_1 varies fastest),
matching the history-set flattening.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DimensionMismatch, InvariantViolation
from .hilbert import StateVector, frozen_copy
from .histories import HistorySet, all_extended_probabilities

__all__ = ["FineGrainedDistribution", "FineGrainedSpec", "fundamental_distribution"]


@dataclass(frozen=True)
class FineGrainedSpec:
    """State plus a history set whose every slot is a complete rank-1 basis."""

    psi: StateVector
    history_set: HistorySet

    def __post_init__(self):
        hs = self.history_set
        if not isinstance(hs, HistorySet):
            raise InvariantViolation("history-set", 1.0,
                                     f"history_set is a {type(hs).__name__}, not a HistorySet")
        if self.psi.dim != hs.dim:
            raise DimensionMismatch(f"state dim {self.psi.dim} vs slot dim {hs.dim}")
        for slot in hs.slots:
            if slot.size != slot.dim or any(p.rank != 1 for p in slot.members):
                raise InvariantViolation(
                    "rank-one-basis", slot.size,
                    f"slot at time {slot.time} is not a complete rank-1 basis")


@dataclass(frozen=True)
class FineGrainedDistribution:
    """w(h) for every h, flat order (earliest-time outcome fastest)."""

    values: np.ndarray
    shape: tuple[int, ...]

    def __post_init__(self):
        v = frozen_copy(self.values, float)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "shape", tuple(int(s) for s in self.shape))
        if v.shape != (int(np.prod(self.shape)),):
            raise DimensionMismatch(f"{v.shape[0]} values for shape {self.shape}")
        defect = abs(v.sum() - 1.0)
        if not defect <= 1e-10:
            raise InvariantViolation("distribution-normalization", defect)

    @property
    def size(self) -> int:
        return self.values.shape[0]

    def outcomes(self):
        for h in product(*(range(s) for s in reversed(self.shape))):
            yield h[::-1]


def fundamental_distribution(spec: FineGrainedSpec) -> FineGrainedDistribution:
    """w over h-space; branch_matrix enforces M_CAP on the d^n histories."""
    hs = spec.history_set
    return FineGrainedDistribution(all_extended_probabilities(hs, spec.psi), hs.shape)
