"""History sets as chains of projections.

A history set is an ordered time grid with one exhaustive projector set
per time (already in the Heisenberg picture). A history picks one
alternative per slot; its class operator is the time-ordered product of
the chosen projectors, latest time leftmost.

Two probability notions coexist: the extended probability
Re<psi|C|psi>, which is additive and normalized but may leave [0, 1],
and the branch-norm probability ||C psi||^2, which is non-negative but
only additive when the set decoheres. The decoherence functional
D(a, b) = <psi_a|psi_b> measures the interference between branches.

Multi-index flattening is row-major with the EARLIEST time varying
fastest: flat = a1 + s1*a2 + s1*s2*a3 + ... . Fixed so report matrices
are comparable across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import inf, prod
from typing import Iterator, Sequence

import numpy as np

from .errors import CapExceeded, DimensionMismatch, InvariantViolation
from .hilbert import ProjectorSet, StateVector, frozen_copy

DEFAULT_DEC_TOL = 1e-8   # off-diagonal |D| threshold for medium decoherence
M_CAP = 4096             # history-count guard against exponential blowup


def flatten_index(components: Sequence[int], shape: Sequence[int]) -> int:
    flat, stride = 0, 1
    for c, s in zip(components, shape):
        flat += c * stride
        stride *= s
    return flat


def unflatten_index(flat: int, shape: Sequence[int]) -> tuple[int, ...]:
    components = []
    for s in shape:
        components.append(flat % s)
        flat //= s
    return tuple(components)


@dataclass(frozen=True)
class HistoryIndex:
    components: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(int(c) for c in self.components))


@dataclass(frozen=True)
class HistorySet:
    """One ProjectorSet per time; times strictly increasing."""

    slots: tuple[ProjectorSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "slots", tuple(self.slots))
        if not self.slots:
            raise InvariantViolation("nonempty-history-set", 1.0, "no time slots")
        d = self.slots[0].dim
        if any(s.dim != d for s in self.slots):
            raise DimensionMismatch("slots have mixed dimensions")
        ts = self.times
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise InvariantViolation("increasing-times", 0.0, f"times {ts} not strictly increasing")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(s.time for s in self.slots)

    @property
    def dim(self) -> int:
        return self.slots[0].dim

    @property
    def n_times(self) -> int:
        return len(self.slots)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(s.size for s in self.slots)

    @property
    def size(self) -> int:
        """Number of histories in the set."""
        return prod(self.shape)

    @property
    def labels(self) -> tuple[tuple[str, ...], ...]:
        return tuple(s.labels for s in self.slots)

    def indices(self) -> Iterator[HistoryIndex]:
        for flat in range(self.size):
            yield self.index(flat)

    def flat(self, idx: HistoryIndex) -> int:
        return flatten_index(idx.components, self.shape)

    def index(self, flat: int) -> HistoryIndex:
        """Inverse of flat."""
        return HistoryIndex(unflatten_index(flat, self.shape))

    def history_label(self, idx: HistoryIndex) -> str:
        self._check_index(idx)
        return ",".join(s.labels[c] for s, c in zip(self.slots, idx.components))

    def _check_index(self, idx: HistoryIndex) -> None:
        if len(idx.components) != len(self.slots):
            raise DimensionMismatch(
                f"index has {len(idx.components)} components for {len(self.slots)} slots")
        for c, s in zip(idx.components, self.slots):
            if not 0 <= c < s.size:
                raise DimensionMismatch(f"component {c} out of range for slot of size {s.size}")


def class_operator(hs: HistorySet, idx: HistoryIndex) -> np.ndarray:
    """Chain product of the chosen projectors, latest time leftmost."""
    hs._check_index(idx)
    c = hs.slots[0].members[idx.components[0]].entries
    for slot, comp in zip(hs.slots[1:], idx.components[1:]):
        c = slot.members[comp].entries @ c
    return np.array(c)


@dataclass(frozen=True)
class BranchVector:
    """C_alpha |psi>, NOT normalized; its squared norm is the DH probability."""

    amplitudes: np.ndarray
    index: HistoryIndex

    def __post_init__(self):
        a = frozen_copy(self.amplitudes, np.complex128)
        object.__setattr__(self, "amplitudes", a)
        n = np.linalg.norm(a)
        if not n <= 1.0 + 1e-10:
            raise InvariantViolation("branch-norm-bound", n - 1.0)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


def _check_state(hs: HistorySet, psi: StateVector) -> None:
    if psi.dim != hs.dim:
        raise DimensionMismatch(f"state dim {psi.dim} vs history-set dim {hs.dim}")


def branch_vector(hs: HistorySet, idx: HistoryIndex, psi: StateVector) -> BranchVector:
    _check_state(hs, psi)
    hs._check_index(idx)
    v = psi.amplitudes
    for slot, comp in zip(hs.slots, idx.components):
        v = slot.members[comp].entries @ v
    return BranchVector(v, idx)


def branch_matrix(hs: HistorySet, psi: StateVector) -> np.ndarray:
    """All branch vectors as columns, flat order (earliest time fastest)."""
    _check_state(hs, psi)
    if hs.size > M_CAP:
        raise CapExceeded("history count", hs.size, M_CAP)
    b = psi.amplitudes[:, None]
    for slot in hs.slots:
        b = np.hstack([p.entries @ b for p in slot.members])
    return b


def chain_amplitude(hs: HistorySet, idx: HistoryIndex, psi: StateVector) -> complex:
    """<psi|C|psi>: the complex amplitude whose real part is the extended probability."""
    bv = branch_vector(hs, idx, psi)
    return complex(np.vdot(psi.amplitudes, bv.amplitudes))


def extended_probability(hs: HistorySet, idx: HistoryIndex, psi: StateVector) -> float:
    """Re<psi|C|psi>. Additive and normalized, but may be < 0 or > 1."""
    return chain_amplitude(hs, idx, psi).real


def dh_probability(hs: HistorySet, idx: HistoryIndex, psi: StateVector) -> float:
    """||C psi||^2: the branch-norm probability, always in [0, 1]."""
    bv = branch_vector(hs, idx, psi)
    return float(np.vdot(bv.amplitudes, bv.amplitudes).real)


def all_extended_probabilities(hs: HistorySet, psi: StateVector) -> np.ndarray:
    b = branch_matrix(hs, psi)
    return np.real(psi.amplitudes.conj() @ b)


@dataclass(frozen=True)
class DecoherenceReport:
    """Functional matrix plus the derived decoherence diagnostics."""

    functional: np.ndarray
    dec: float
    ep_probs: np.ndarray
    dh_probs: np.ndarray
    medium_decoherent: bool
    linearly_positive: bool
    tolerance: float

    def __post_init__(self):
        for name in ("functional", "ep_probs", "dh_probs"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))

    @property
    def size(self) -> int:
        return self.functional.shape[0]

    @property
    def max_offdiagonal(self) -> float:
        return _max_offdiagonal(self.functional)


def _max_offdiagonal(functional: np.ndarray) -> float:
    a = np.abs(functional).copy()
    np.fill_diagonal(a, 0.0)
    return float(a.max(initial=0.0))


def dec_measure(functional: np.ndarray) -> float:
    """Sum of off-diagonal |D|: the scalar distance from decoherence."""
    a = np.abs(functional)
    return float(a.sum() - np.trace(a))


def offdiagonal_offenders(functional: np.ndarray, tol: float) -> list[tuple[tuple[int, int], float]]:
    """Off-diagonal pairs with |D| > tol, worst first; upper triangle only."""
    out = []
    m = functional.shape[0]
    for a in range(m):
        for b in range(a + 1, m):
            mag = abs(functional[a, b])
            if mag > tol:
                out.append(((a, b), float(mag)))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out


def _check_tolerance(tol: float) -> float:
    """tol itself if it is finite and non-negative; NaN, inf and negatives raise."""
    if not 0.0 <= tol < inf:
        raise InvariantViolation("tolerance", tol, "tolerance must be finite and non-negative")
    return tol


def decoherence_functional(
    hs: HistorySet, psi: StateVector, tol: float = DEFAULT_DEC_TOL,
) -> DecoherenceReport:
    """Full m x m functional over flattened history indices, plus flags.

    The matrix is assembled exactly Hermitian with an exactly real
    diagonal (the diagonal is computed as squared column norms).
    """
    _check_tolerance(tol)
    b = branch_matrix(hs, psi)
    g = b.conj().T @ b
    upper = np.triu(g, 1)
    functional = upper + upper.conj().T + np.diag(np.einsum("ij,ij->j", b.conj(), b).real)
    ep = np.real(psi.amplitudes.conj() @ b)
    dh = np.diag(functional).real.copy()
    return DecoherenceReport(
        functional=functional,
        dec=dec_measure(functional),
        ep_probs=ep,
        dh_probs=dh,
        medium_decoherent=_max_offdiagonal(functional) <= tol,
        linearly_positive=bool(ep.min() >= -tol),
        tolerance=tol,
    )


def total_negative(hs: HistorySet, psi: StateVector) -> float:
    """Sum of the strictly negative extended probabilities (<= 0)."""
    ep = all_extended_probabilities(hs, psi)
    return float(ep[ep < 0].sum())
