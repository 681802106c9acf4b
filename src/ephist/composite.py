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
from functools import cached_property
from math import prod

import numpy as np

from .errors import CapExceeded, DimensionMismatch
from .hilbert import StateVector, frozen_copy
from .histories import M_CAP, HistorySet, branch_matrix

__all__ = ["CompositeSystem", "ProductRuleReport", "product_rule_report"]


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


@dataclass(frozen=True)
class ProductRuleReport:
    """Joint EP values against the product of per-factor EP values."""

    joint_ep: np.ndarray
    factor_ep_product: np.ndarray

    def __post_init__(self):
        for name in ("joint_ep", "factor_ep_product"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))

    @cached_property
    def max_violation(self) -> float:
        return float(np.abs(self.joint_ep - self.factor_ep_product).max())


def product_rule_report(cs: CompositeSystem) -> ProductRuleReport:
    """Every joint history at once: Kronecker products of the per-factor
    amplitude vectors <psi_k|C_k|psi_k>, leftmost factor slowest."""
    if cs.joint_count > M_CAP:
        raise CapExceeded("joint history count", cs.joint_count, M_CAP)
    # log2(M_CAP) factors (two histories each fill M_CAP) keep joint_dim short enough to write
    if len(cs.factors) > M_CAP.bit_length() - 1:
        raise CapExceeded("composite factor count", len(cs.factors), M_CAP.bit_length() - 1)
    amps, product = np.ones(1, dtype=np.complex128), np.ones(1)
    for psi, hs in cs.factors:
        z = psi.amplitudes.conj() @ branch_matrix(hs, psi)
        # np.kron's products of two vectors, without its per-call set-up
        amps = np.multiply.outer(amps, z).ravel()
        product = np.multiply.outer(product, z.real).ravel()
    return ProductRuleReport(amps.real, product)
