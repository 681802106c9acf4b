"""Finite-dimensional Hilbert-space primitives.

States, Hermitian operators, projectors, exhaustive projector sets, and
Heisenberg-picture time evolution. Everything is a dense complex matrix,
16 MiB at d = 1024, the model file's cap (modelfile.DIM_CAP). Validating a
set of k nonzero members costs k^2/2 pair products of d^3 each, zero
members none: below d = 256, with d a multiple of 16, they run as one
matmul per member (validate_projector_set), else one per pair, so `eval`
on one slot of 32 members at that cap takes about 100 s (ROADMAP.md,
item 6). hbar = 1 throughout and model time is a dimensionless ordered
label.

Values are immutable after construction (frozen dataclasses over
read-only arrays) and all operations are pure, so concurrent use needs
no synchronization. Invalid inputs are rejected at construction, never
silently repaired. Every check uses the module tolerances below; no
object or call carries its own.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DimensionMismatch, InvariantViolation

__all__ = ["TOL_HERM", "TOL_NORM", "TOL_OP", "EvolutionSpec", "HermitianOperator", "Projector",
           "ProjectorSet", "ProjectorSetReport", "StateVector", "heisenberg_projector",
           "hermitian_exponential", "projector_set_from_basis", "rank_one_projector",
           "validate_projector_set"]

TOL_NORM = 1e-12   # vector norms
TOL_HERM = 1e-12   # Hermiticity, entrywise
TOL_OP = 1e-10     # operator identities (idempotency, completeness, unitarity)


def frozen_copy(values, dtype=None) -> np.ndarray:
    """A read-only copy of values (dtype=None keeps theirs), unless they own frozen C-order data."""
    if (type(values) is np.ndarray and not values.flags.writeable and values.base is None
            and values.flags.c_contiguous and (dtype is None or values.dtype == dtype)):
        return values
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


def _frozen_array(values, shape_kind: str) -> np.ndarray:
    a = frozen_copy(values, np.complex128)
    if shape_kind == "vector" and a.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {a.shape}")
    if shape_kind == "matrix" and (a.ndim != 2 or a.shape[0] != a.shape[1]):
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise DimensionMismatch(f"expected a nonempty {shape_kind}, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class StateVector:
    """Unit complex vector; the initial state of the closed system."""

    amplitudes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "amplitudes", _frozen_array(self.amplitudes, "vector"))
        defect = abs(np.linalg.norm(self.amplitudes) - 1.0)
        if not defect <= TOL_NORM:   # also rejects NaN and inf
            raise InvariantViolation("state-norm", defect)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]


@dataclass(frozen=True)
class HermitianOperator:
    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, "matrix"))
        defect = np.abs(self.entries - self.entries.conj().T).max(initial=0.0)
        if not defect <= TOL_HERM:
            raise InvariantViolation("hermiticity", defect)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        """np.linalg.eigh(entries) as read-only arrays, computed on first use."""
        w, v = np.linalg.eigh(self.entries)
        w.setflags(write=False)
        v.setflags(write=False)
        return w, v


@dataclass(frozen=True)
class Projector:
    """Hermitian idempotent matrix representing one alternative."""

    entries: np.ndarray
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, "matrix"))
        if not self.entries.any():   # exactly Hermitian and idempotent; NaN and inf are nonzero
            return
        herm = np.abs(self.entries - self.entries.conj().T).max(initial=0.0)
        if not herm <= TOL_HERM:
            raise InvariantViolation("projector-hermiticity", herm, self.label)
        idem = np.abs(self.entries @ self.entries - self.entries).max(initial=0.0)
        if not idem <= TOL_OP:
            raise InvariantViolation("projector-idempotency", idem, self.label)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def rank(self) -> int:
        return int(round(self.entries.trace().real))


def _rank_one_entries(vec) -> np.ndarray:
    """|v><v| / <v|v> for a nonzero vector v, as a plain matrix."""
    v = np.asarray(vec, dtype=np.complex128)
    n = np.linalg.norm(v)
    if n < 1e-14:
        raise InvariantViolation("nonzero-vector", n, "cannot project onto a zero vector")
    v = v / n
    return np.outer(v, v.conj())


def rank_one_projector(vec, label: str = "") -> Projector:
    """|v><v| / <v|v> for a nonzero vector v."""
    return Projector(_rank_one_entries(vec), label=label)


@dataclass(frozen=True)
class ProjectorSetReport:
    completeness_defect: float
    exclusivity_defect: float

    @property
    def worst(self) -> float:
        """The larger defect; NaN if either defect is NaN."""
        return float(np.max((self.completeness_defect, self.exclusivity_defect)))

    @property
    def passes(self) -> bool:
        return self.worst <= TOL_OP


def validate_projector_set(members: Union["ProjectorSet", Sequence[Projector]]) -> ProjectorSetReport:
    """Check completeness and exclusivity, all a set adds to its Projector members.

    Any other member type is rejected. Both checks skip members whose
    entries are all exactly zero (a RecordSet finds them once): adding
    one changes a sum at most in the sign of a zero, which abs erases, and
    its products are exactly zero, which cannot raise the maximum, or NaN
    against a non-finite member (0 * inf is NaN), checked instead. So the
    result is the full scan's, and a set with at most d nonzero members
    (any valid set, such as the record set of a decoherent history set)
    costs O(d^2) pair products, not O(m^2), taken in one matmul per nonzero
    member where its runs stack (_exclusivity).
    """
    pset = members if isinstance(members, ProjectorSet) else None
    if pset is not None:
        members = pset.members
    for i, m in enumerate(members):
        if not isinstance(m, Projector):
            raise InvariantViolation("projector-member", 1.0,
                                     f"member {i} is a {type(m).__name__}, not a Projector")
    mats = [m.entries for m in members]
    if not mats:
        raise InvariantViolation("nonempty-projector-set", 1.0, "no members given")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise DimensionMismatch("projector set members have mixed dimensions")
    live = pset._nonzero if pset is not None else (m.any() for m in mats)
    nonzero = [m for m, keep in zip(mats, live) if keep]
    completeness = np.abs(sum(nonzero) - np.eye(d)).max()
    zeros_stay_zero = len(nonzero) == len(mats) or all(np.isfinite(m).all() for m in nonzero)
    exclusivity = _exclusivity(nonzero, d) if zeros_stay_zero else np.nan
    return ProjectorSetReport(float(completeness), exclusivity)


_RUN_CELLS = 1 << 16   # cells per stacked run of exclusivity products: 1 MiB
# Product blocks (the row bands of histories, the d-column blocks of the
# runs of _exclusivity) start at multiples of this, so each has the bits of
# the product of its own slices; blocks at offsets that are not multiples
# of 4 were seen to differ in last bits.
_ALIGN = 16


def _exclusivity(mats: list[np.ndarray], d: int) -> float:
    """max |a @ b| over the pairs (a before b) of mats, from 0.0; NaN if a
    product holds one, as ProjectorSetReport.worst folds.

    The members after the first are stacked side by side in runs of at most
    _RUN_CELLS cells, and each member takes one product with the part of a
    run after it, whose d-column blocks are the pair products, bit for bit,
    when _ALIGN divides d. Otherwise, or at d >= 256, a run is one member,
    not copied: the pair loop.
    """
    k = max(1, _RUN_CELLS // (d * d)) if d % _ALIGN == 0 else 1
    exclusivity = 0.0
    for s in range(1, len(mats), k):
        run = mats[s] if k == 1 else np.hstack(mats[s:s + k])
        for i in range(min(s + k, len(mats)) - 1):
            exclusivity = np.abs(mats[i] @ run[:, max(0, i + 1 - s) * d:]).max(initial=exclusivity)
    return float(exclusivity)


@dataclass(frozen=True)
class ProjectorSet:
    """Exhaustive, mutually exclusive projectors at one finite time label."""

    members: tuple[Projector, ...]
    time: float

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not np.isfinite(self.time):
            raise InvariantViolation("finite-time", abs(self.time), "projector set time")
        report = validate_projector_set(self)
        if not report.passes:
            raise InvariantViolation("projector-set", report.worst,
                                     f"completeness {report.completeness_defect:.3e}, "
                                     f"exclusivity {report.exclusivity_defect:.3e}")

    @property
    def _nonzero(self) -> np.ndarray:
        """Read-only mask of the members whose entries are not all exactly zero
        (NaN and inf are nonzero), which validation reads. A RecordSet keeps
        it, for the record passes that skip zero members."""
        return frozen_copy([m.entries.any() for m in self.members], bool)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(p.label for p in self.members)


def projector_set_from_basis(vectors, time: float) -> ProjectorSet:
    """Rank-1 projector set from the rows of an orthonormal basis array,
    labelled "0", "1", ... in row order."""
    vecs = np.asarray(vectors, dtype=np.complex128)
    return ProjectorSet(tuple(rank_one_projector(v, str(i)) for i, v in enumerate(vecs)), time)


@dataclass(frozen=True)
class EvolutionSpec:
    """Dynamics: a Hamiltonian, or explicit unitaries per time label."""

    hamiltonian: HermitianOperator | None = None
    unitaries: Mapping[float, np.ndarray] | None = field(default=None)

    def __post_init__(self):
        if (self.hamiltonian is None) == (self.unitaries is None):
            raise InvariantViolation("evolution-form", 1.0,
                                     "exactly one of hamiltonian / unitaries must be given")
        if self.unitaries is not None:
            frozen = {}
            for t, u in self.unitaries.items():
                u = _frozen_array(u, "matrix")
                defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
                if not defect <= TOL_OP:
                    raise InvariantViolation("unitarity", defect, f"unitary at time {t}")
                frozen[float(t)] = u
            object.__setattr__(self, "unitaries", frozen)

    @classmethod
    def zero(cls, dim: int) -> "EvolutionSpec":
        return cls(hamiltonian=HermitianOperator(np.zeros((dim, dim))))


def hermitian_exponential(h: HermitianOperator, t: float) -> np.ndarray:
    """exp(-i H t) from h's one eigendecomposition; raises if the result is not unitary."""
    w, v = h.eigh
    u = (v * np.exp(-1j * w * t)) @ v.conj().T
    defect = np.abs(u.conj().T @ u - np.eye(h.dim)).max()
    if not defect <= TOL_OP:
        raise InvariantViolation("unitarity", defect, "eigendecomposition produced a non-unitary")
    return u


def evolution_operator(evo: EvolutionSpec, t: float, dim: int) -> np.ndarray:
    """U(t) for projectors of dimension dim: exp(-iHt), or the unitary declared at t."""
    if evo.hamiltonian is not None:
        if evo.hamiltonian.dim != dim:
            raise DimensionMismatch(
                f"projector dim {dim} vs Hamiltonian dim {evo.hamiltonian.dim}")
        if not np.isfinite(t):
            raise InvariantViolation("finite-time", abs(t))
        return hermitian_exponential(evo.hamiltonian, t)
    if float(t) not in evo.unitaries:
        raise InvariantViolation("known-time", float(t),
                                 f"no explicit unitary at time {t}")
    u = evo.unitaries[float(t)]
    if u.shape[0] != dim:
        raise DimensionMismatch(f"projector dim {dim} vs unitary dim {u.shape[0]}")
    return u


def heisenberg_projectors(members: Sequence[tuple[np.ndarray, str]], t: float,
                          evo: EvolutionSpec) -> tuple[Projector, ...]:
    """Projector(U(t)^dag P U(t), label) for each (P, label) of one slot; U(t) computed once."""
    u = evolution_operator(evo, t, members[0][0].shape[0])
    return tuple(Projector(u.conj().T @ p @ u, label=label) for p, label in members)


def heisenberg_projector(p: Projector, t: float, evo: EvolutionSpec) -> Projector:
    """exp(+iHt) P exp(-iHt), or U(t)^dag P U(t) for explicit unitaries."""
    return heisenberg_projectors(((p.entries, p.label),), t, evo)[0]
