"""Record projectors: the engine's criterion for a settleable bet.

A strong record set {R_a} satisfies R_a C_b |psi> = delta_ab C_b |psi>;
it exists exactly when the history set is medium decoherent, and then
the records are projectors onto the branch directions. A weak record
only reproduces the probabilities, Re<psi|R_b C_a|psi> = delta_ba p(a).

Every function here takes one DecoherenceReport: the set, the state and
the tolerance are its own, and so are the branches and EPs every check
reads, built once per report. construct_records decides by the report's
offenders, the engine's one medium-decoherence test, and builds the
records from its branches; the correlation's epsilon is its tolerance.

Construction is deterministic: branches are orthonormalized by modified
Gram-Schmidt (with one re-orthogonalization pass) in flat index order,
zero branches (norm <= 1e-12) get rank-0 records, and the orthogonal
complement of the branch span is absorbed into the record of the lowest
flat index with a nonzero branch. Any completion choice preserves the
strong-record property since the complement annihilates every branch;
this one is fixed for reproducibility.

At most d records are nonzero, so a set's zero records (entries all
exactly zero) are found once, when the RecordSet is validated, and every
later pass skips them: validation itself, both verifiers (a zero record's
defect is read off the branch norms or EPs), record_correlation_report (a
zero record's probability is 0.0) and the CLI's ranks (0).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NotDecoherent
from .hilbert import Projector, ProjectorSet, frozen_copy
from .histories import DecoherenceReport, _check_tolerance

__all__ = ["CorrelationReport", "RecordSet", "construct_records",
           "record_correlation_report", "verify_strong_records", "verify_weak_records"]

ZERO_BRANCH_TOL = 1e-12


@dataclass(frozen=True)
class RecordSet(ProjectorSet):
    """One projector per flattened history index, at a record time after the last slot."""

    completion_index: int   # flat index whose record absorbed the complement subspace

    # found once, when the set is validated, and read by every record pass
    _nonzero = cached_property(ProjectorSet._nonzero.fget)


def _check_record_set(report: DecoherenceReport, rs: RecordSet) -> None:
    hs = report.history_set
    if rs.dim != hs.dim:
        raise DimensionMismatch(f"record dim {rs.dim} vs history-set dim {hs.dim}")
    if rs.size != hs.size:
        raise DimensionMismatch(f"{rs.size} records for {hs.size} histories")


def construct_records(report: DecoherenceReport) -> RecordSet:
    """Build the branch-projection record set of a medium-decoherent history set."""
    if len(report.offenders):
        raise NotDecoherent(report.offenders, report.tolerance)
    hs, b = report.history_set, report.branches

    norms = np.linalg.norm(b, axis=0)
    nonzero = [i for i in range(hs.size) if norms[i] > ZERO_BRANCH_TOL]

    d = hs.dim
    frames: dict[int, np.ndarray] = {}
    for i in nonzero:
        v = b[:, i].copy()
        for _ in range(2):   # MGS with one re-orthogonalization pass
            for q in frames.values():
                v -= q * np.vdot(q, v)
        n = np.linalg.norm(v)
        if n < ZERO_BRANCH_TOL:
            raise InvariantViolation(
                "independent-branches", n,
                f"branch {i} is numerically dependent on earlier branches")
        frames[i] = v / n

    q = np.column_stack([frames[i] for i in nonzero])
    complement = np.eye(d) - q @ q.conj().T
    zero = frozen_copy(np.zeros((d, d)), np.complex128)   # shared by every rank-0 record
    members, labels = [], hs.history_labels()
    for i in range(hs.size):
        r = np.outer(frames[i], frames[i].conj()) if i in frames else zero
        if i == nonzero[0]:
            r = r + complement
        members.append(Projector(r, label=labels[i]))
    return RecordSet(tuple(members), time=max(hs.times) + 1.0, completion_index=nonzero[0])


def verify_strong_records(report: DecoherenceReport, rs: RecordSet) -> float:
    """max over (a, b) of || R_a C_b psi - delta_ab C_b psi ||.

    A zero record's residual is -C_a psi in column a and 0 elsewhere, so its
    defect is ||C_a psi||, taken by the same column reduction as the rest.
    """
    _check_record_set(report, rs)
    b = report.branches
    norms = np.linalg.norm(b, axis=0)
    worst = max([0.0, *norms[~rs._nonzero].tolist()])
    for a in np.flatnonzero(rs._nonzero).tolist():
        resid = rs.members[a].entries @ b
        resid[:, a] -= b[:, a]
        worst = max(worst, float(np.linalg.norm(resid, axis=0).max()))
    return worst


def verify_weak_records(report: DecoherenceReport, rs: RecordSet) -> float:
    """max over (b, a) of | Re<psi|R_b C_a|psi> - delta_ba p(a) |.

    A zero record's row is -p(b) at b and 0 elsewhere: its defect is |p(b)|.
    """
    _check_record_set(report, rs)
    psi, b, ep = report.psi.amplitudes, report.branches, report.ep_probs
    worst = max([0.0, *np.abs(ep[~rs._nonzero]).tolist()])
    for beta in np.flatnonzero(rs._nonzero).tolist():
        row = np.real((rs.members[beta].entries @ psi).conj() @ b)
        row[beta] -= ep[beta]
        worst = max(worst, float(np.abs(row).max()))
    return worst


@dataclass(frozen=True)
class CorrelationReport:
    """Per-history record/history correlation defects.

    ``defects[a]`` is |<psi|R_a|psi> - Re<psi|C_a|psi>|. For histories
    with negative extended probability, ``negative_bound_ok[a]`` states
    whether both |<psi|R_a|psi>| and |EP| are below ``epsilon`` -- the
    only regime in which a negative value can be epsilon-recorded at all.
    """

    record_probs: np.ndarray
    ep_probs: np.ndarray
    epsilon: float

    def __post_init__(self):
        _check_tolerance(self.epsilon)
        for name in ("record_probs", "ep_probs"):
            object.__setattr__(self, name, frozen_copy(getattr(self, name)))

    @cached_property
    def defects(self) -> np.ndarray:
        return frozen_copy(np.abs(self.record_probs - self.ep_probs))

    @property
    def max_defect(self) -> float:
        return float(self.defects.max(initial=0.0))

    @property
    def negative_bound_ok(self) -> tuple[tuple[int, bool], ...]:
        rec, ep, epsilon = self.record_probs, self.ep_probs, self.epsilon
        return tuple((i, bool(abs(rec[i]) < epsilon and abs(ep[i]) < epsilon))
                     for i in np.flatnonzero(ep < 0).tolist())


def record_correlation_report(report: DecoherenceReport, rs: RecordSet) -> CorrelationReport:
    """The records' probabilities against the report's EPs, at its tolerance."""
    _check_record_set(report, rs)
    psi = report.psi.amplitudes
    rec = np.zeros(rs.size)   # a zero record's probability is 0.0
    for a in np.flatnonzero(rs._nonzero).tolist():
        rec[a] = np.vdot(psi, rs.members[a].entries @ psi).real
    return CorrelationReport(rec, report.ep_probs, report.tolerance)
