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

A DecoherenceReport holds one history set, one state and one tolerance,
and derives the rest: it builds the d x m branch matrix once, when it is
made, and forms every Gram cell in row bands b[:, r:r+R]^dag b[:, r:],
r and R multiples of 16, which have the bits of their slices of the full
product. The offenders scan bands of about 1 MiB; the upper rows a writer
formats, the functional (built when first read) and the float |D| of dec
and max_offdiagonal come from 16-row bands. So deciding whether a set
decoheres builds no m x m array, and dec and max_offdiagonal no complex one.

Histories are numbered by one flat index, with the EARLIEST time
varying fastest: history (a1, a2, a3, ...) of slots sized (s1, s2, ...)
is flat = a1 + s1*a2 + s1*s2*a3 + ... . Fixed so report matrices are
comparable across runs.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import inf, prod
from typing import Iterator

import numpy as np

from .errors import CapExceeded, DimensionMismatch, InvariantViolation
from .hilbert import _ALIGN, ProjectorSet, StateVector, frozen_copy

__all__ = ["DEFAULT_DEC_TOL", "M_CAP", "DecoherenceReport", "HistorySet",
           "all_extended_probabilities", "branch_matrix", "dec_measure", "decoherence_functional",
           "offdiagonal_offenders"]

DEFAULT_DEC_TOL = 1e-8   # off-diagonal |D| threshold for medium decoherence
M_CAP = 4096             # history-count guard against exponential blowup
_BAND_CELLS = 1 << 16    # b^dag b cells per band of the offender scan: 1 MiB


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

    def history_labels(self) -> tuple[str, ...]:
        """One label per history, flat order: the slot labels joined by commas."""
        return tuple(",".join(reversed(t)) for t in product(*reversed(self.labels)))


def branch_matrix(hs: HistorySet, psi: StateVector) -> np.ndarray:
    """All branch vectors as columns, flat order (earliest time fastest)."""
    if psi.dim != hs.dim:
        raise DimensionMismatch(f"state dim {psi.dim} vs history-set dim {hs.dim}")
    if hs.size > M_CAP:
        raise CapExceeded("history count", hs.size, M_CAP)
    b = psi.amplitudes[:, None]
    for slot in hs.slots:
        b = np.hstack([p.entries @ b for p in slot.members])
    return b


def _ep_probs(psi: StateVector, b: np.ndarray) -> np.ndarray:
    """Re<psi|C psi> per column of a branch matrix: the extended probabilities."""
    return np.real(psi.amplitudes.conj() @ b)


def all_extended_probabilities(hs: HistorySet, psi: StateVector) -> np.ndarray:
    return _ep_probs(psi, branch_matrix(hs, psi))


@dataclass(frozen=True)
class DecoherenceReport:
    """One set in one state at one tolerance; every diagnostic, the branch
    matrix and the functional too, is derived from those three."""

    history_set: HistorySet
    psi: StateVector
    tolerance: float

    def __post_init__(self):
        _check_tolerance(self.tolerance)
        self.branches   # built now, so a cap or a dimension mismatch fires here

    @cached_property
    def branches(self) -> np.ndarray:
        b = branch_matrix(self.history_set, self.psi)
        b.setflags(write=False)
        return b

    @cached_property
    def ep_probs(self) -> np.ndarray:
        return frozen_copy(_ep_probs(self.psi, self.branches))

    @cached_property
    def dh_probs(self) -> np.ndarray:
        """||C psi||^2 per branch: the functional's exactly real diagonal."""
        return frozen_copy(np.einsum("ij,ij->j", self.branches.conj(), self.branches).real)

    @cached_property
    def functional(self) -> np.ndarray:
        """b^dag b from 16-row bands (R-row ones hold two 1 MiB bands: 1.44
        functionals at m = 512), exactly Hermitian, dh_probs on the diagonal."""
        functional = self._assembled(complex, lambda band: band)
        functional += 0.0   # the mirror's conjugates of 0.0 are -0.0
        functional.setflags(write=False)
        return functional

    def _bands(self, rows: int) -> Iterator[tuple[int, np.ndarray]]:
        """(r, b[:, r:r+rows]^dag b[:, r:]), no -0.0 off the diagonal, dh_probs on
        it, for r = 0, rows, ...: the report's only Gram cells. With rows a multiple
        of _ALIGN they have the functional's bits on and above the diagonal (a
        band from a row that is not a multiple of 4 need not)."""
        b, dh = self.branches, self.dh_probs
        for r in range(0, b.shape[1], rows):
            band = b[:, r:r + rows].conj().T @ b[:, r:]
            band += 0.0   # so no cell off the diagonal is -0.0 (0.0 + -0.0 is 0.0)
            np.fill_diagonal(band, dh[r:r + rows])
            yield r, band

    def upper_rows(self) -> Iterator[np.ndarray]:
        """functional[i, i:] for i = 0, 1, ..., m - 1, with its bits, computed
        16 rows at a time: the functional is never built."""
        for _, band in self._bands(_ALIGN):
            for k, row in enumerate(band):
                yield row[k:]

    def _assembled(self, dtype: type, cell) -> np.ndarray:
        """m x m: cell() of the 16-row bands on and above the diagonal, and
        below it each row i the conjugate of column i above it."""
        m = self.branches.shape[1]
        out = np.empty((m, m), dtype)
        for r, band in self._bands(_ALIGN):
            out[r:r + _ALIGN, r:] = cell(band)   # the block's lower cells are mirrored below
        for i in range(1, m):
            np.conjugate(out[:i, i], out=out[i, :i])
        return out

    def _modulus(self) -> np.ndarray:
        """np.abs(functional), with its bits (np.abs(z) == np.abs(z.conj())):
        from the functional when it is built, which saves the bands (8 ms in
        a sweep of 400 small reports), else assembled from np.abs of the bands."""
        if "functional" in vars(self):
            return np.abs(self.functional)
        return self._assembled(float, np.abs)

    @cached_property
    def _offdiagonal(self) -> tuple[float, float]:
        """(dec, max_offdiagonal) from one |D|, which is freed on return: the sum
        is dec_measure's, and the maximum is taken with the diagonal set to 0.0."""
        mag = self._modulus()
        dec = _offdiagonal_sum(mag)
        np.fill_diagonal(mag, 0.0)
        return dec, float(mag.max(initial=0.0))

    @property
    def dec(self) -> float:
        return self._offdiagonal[0]

    @property
    def max_offdiagonal(self) -> float:
        return self._offdiagonal[1]

    @property
    def linearly_positive(self) -> bool:
        return bool(self.ep_probs.min() >= -self.tolerance)

    @cached_property
    def offenders(self) -> np.recarray:
        """offdiagonal_offenders of bands of R rows, at most _BAND_CELLS cells (16
        rows made `records` 2% slower), shifted to the band's rows. One stable
        order by magnitude, gathered field by field, keeps ties in row-major order."""
        m = self.branches.shape[1]
        bands = []
        for r, gram in self._bands(max(_ALIGN, _BAND_CELLS // m // _ALIGN * _ALIGN)):
            band = offdiagonal_offenders(gram, self.tolerance)
            band.alpha += r
            band.beta += r
            bands.append(band)
        found = np.concatenate(bands).view(np.recarray)
        del bands, band, gram   # so the band records are freed before the sort
        order = np.argsort(-found.magnitude, kind="stable")
        for name in found.dtype.names:
            found[name] = found[name][order]
        return found

    @property
    def medium_decoherent(self) -> bool:
        return not len(self.offenders)


def dec_measure(functional: np.ndarray) -> float:
    """Sum of off-diagonal |D|: the scalar distance from decoherence."""
    return _offdiagonal_sum(np.abs(functional))


def _offdiagonal_sum(mag: np.ndarray) -> float:
    """dec of a float |D|: its sum less its trace, the one formula every dec takes."""
    return float(mag.sum() - np.trace(mag))


def offdiagonal_offenders(functional: np.ndarray, tol: float) -> np.recarray:
    """Records (alpha < beta, magnitude) of the pairs with |D| > tol, worst first.

    This is the engine's one medium-decoherence test: a set decoheres
    exactly when there is none. |D| is np.abs, the modulus
    max_offdiagonal and dec_measure take, and np.abs(z) == np.abs(z.conj()),
    so the upper triangle of an exactly Hermitian functional decides it.
    Ties keep row-major order. Test emptiness with len(), not truth:
    numpy refuses the truth value of an array of any length but one.
    The tolerance must be finite and non-negative (InvariantViolation).
    """
    _check_tolerance(tol)
    mag = np.abs(functional)
    del functional   # a caller's temporary Gram matrix is freed before the scans
    a, b = np.nonzero(np.triu(mag > tol, 1))
    mag = mag[a, b]
    order = np.argsort(-mag, kind="stable")
    return np.rec.fromarrays((a[order], b[order], mag[order]), names="alpha,beta,magnitude")


def _check_tolerance(tol: float) -> None:
    """Raise unless tol is finite and non-negative (NaN, inf and negatives)."""
    if not 0.0 <= tol < inf:
        raise InvariantViolation("tolerance", tol, "tolerance must be finite and non-negative")


def decoherence_functional(
    hs: HistorySet, psi: StateVector, tol: float = DEFAULT_DEC_TOL,
) -> DecoherenceReport:
    """The report of hs in psi at tol: its branches are built now, the m x m
    functional over flat history indices when first read."""
    return DecoherenceReport(hs, psi, tol)
