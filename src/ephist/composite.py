"""Tensor products of unentangled, non-interacting subsystems.

The joint extended probability is Re of the PRODUCT of per-factor
amplitudes <psi_k|C_k|psi_k>, which is generally not the product of the
per-factor extended probabilities (Re of a product is not the product
of Re's). For recorded factor histories the amplitudes are real and the
product rule comes back.

Kronecker ordering: leftmost factor is the slowest-varying index, both
for the joint state and for the joint flat history index.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Sequence

import numpy as np

from .errors import CapExceeded, DimensionMismatch
from .hilbert import Projector, StateVector, frozen_copy
from .histories import M_CAP, HistorySet, branch_matrix, decoherence_functional
from .records import RecordSet

JOINT_DIM_CAP = 4096


@dataclass(frozen=True)
class CompositeSystem:
    """Ordered (state, history set) pairs, one per non-interacting factor."""

    factors: tuple[tuple[StateVector, HistorySet], ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        if not self.factors:
            raise DimensionMismatch("composite needs at least one factor")
        for psi, hs in self.factors:
            if psi.dim != hs.dim:
                raise DimensionMismatch(f"factor state dim {psi.dim} vs history-set dim {hs.dim}")
        if self.joint_dim > JOINT_DIM_CAP:
            raise CapExceeded("joint dimension", self.joint_dim, JOINT_DIM_CAP)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(psi.dim for psi, _ in self.factors)

    @property
    def joint_dim(self) -> int:
        return prod(self.dims)

    @property
    def counts(self) -> tuple[int, ...]:
        """Histories per factor."""
        return tuple(hs.size for _, hs in self.factors)

    @property
    def joint_count(self) -> int:
        return prod(self.counts)

    def joint_state(self) -> StateVector:
        amps = self.factors[0][0].amplitudes
        for psi, _ in self.factors[1:]:
            amps = np.kron(amps, psi.amplitudes)
        return StateVector(amps)


def _check_joint_count(cs: CompositeSystem) -> None:
    if cs.joint_count > M_CAP:
        raise CapExceeded("joint history count", cs.joint_count, M_CAP)


def joint_functional(cs: CompositeSystem) -> np.ndarray:
    """Joint decoherence functional over joint flat indices: the Kronecker
    product of the factor functionals, leftmost factor slowest."""
    _check_joint_count(cs)
    d = np.ones((1, 1), dtype=np.complex128)
    for psi, hs in cs.factors:
        d = np.kron(d, decoherence_functional(hs, psi).functional)
    return d


def product_records(cs: CompositeSystem, record_sets: Sequence[RecordSet]) -> RecordSet:
    """Joint records as Kronecker products of the per-factor records.

    Callers obtain the per-factor sets from construct_records, which
    raises NotDecoherent for any unrecorded factor before this runs.
    """
    if len(record_sets) != len(cs.factors):
        raise DimensionMismatch(f"{len(record_sets)} record sets for {len(cs.factors)} factors")
    for (psi, hs), rs in zip(cs.factors, record_sets):
        if rs.dim != hs.dim:
            raise DimensionMismatch(f"record dim {rs.dim} vs factor dim {hs.dim}")
        if rs.size != hs.size:
            raise DimensionMismatch(f"{rs.size} records for {hs.size} factor histories")
    _check_joint_count(cs)

    members = []
    for joint in np.ndindex(*cs.counts):   # leftmost factor slowest, matching kron
        entries = record_sets[0].members[joint[0]].entries
        label = record_sets[0].members[joint[0]].label
        for rs, k in zip(record_sets[1:], joint[1:]):
            entries = np.kron(entries, rs.members[k].entries)
            label = f"{label}|{rs.members[k].label}"
        members.append(Projector(entries, label=label))
    completion = 0
    for rs, count in zip(record_sets, cs.counts):
        completion = completion * count + rs.completion_index
    return RecordSet(tuple(members), time=max(rs.time for rs in record_sets),
                     completion_index=completion)


@dataclass(frozen=True)
class ProductRuleReport:
    """Joint EP values against the product of per-factor EP values."""

    joint_ep: np.ndarray
    factor_ep_product: np.ndarray
    max_violation: float

    def __post_init__(self):
        for name in ("joint_ep", "factor_ep_product"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))


def product_rule_report(cs: CompositeSystem) -> ProductRuleReport:
    """Every joint history at once: Kronecker products of the per-factor
    amplitude vectors <psi_k|C_k|psi_k>, leftmost factor slowest."""
    _check_joint_count(cs)
    amps, product = np.ones(1, dtype=np.complex128), np.ones(1)
    for psi, hs in cs.factors:
        z = psi.amplitudes.conj() @ branch_matrix(hs, psi)
        amps, product = np.kron(amps, z), np.kron(product, z.real)
    joint = amps.real
    return ProductRuleReport(joint, product, float(np.abs(joint - product).max()))
