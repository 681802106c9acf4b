"""Slow, independent routes to quantities the package computes faster.

Tests compare the package against these. Each one builds its value
from first principles (histories as component tuples flattened by
loops, dense class operators, one branch vector and one chain amplitude
per history, per-point amplitudes, brute-force enumeration, a rescan of
every pair at each greedy merge, the greedy search as it was before its
buffers were reused in place, a model-file parser and a
complex-literal reader that walk each literal one character at a time,
projector-set and record checks that multiply every member, zero or
not, an offender scan that takes np.abs of one cell at a time, joint
functionals and records as Kronecker products of the factors' own), so
it shares no shortcut with the code under test. serialize_model, the
canonical model-file writer, is here too: only the tests write models.
So are the routes the CLI's JSON writer replaced: one json.dumps of the
whole payload, one dict per offender in it, and offenders as a list of
((alpha, beta), magnitude) pairs, and the functional.csv writer that kept
the mirrored text of every upper cell as its own string. So is the functional as the sum of its
two triangles and its diagonal, which the in-place assembly replaced,
and a decoherence report that computes every reading up front, which
the report's derived readings replaced. So are the coarse functional as
two gemms with a dense 0/1 membership matrix and merged slot members as
Python sums, which class_sums replaced.
"""
from math import inf
from typing import Iterator, Sequence, Union

import json
import math
from dataclasses import dataclass

import numpy as np

from ephist import (
    DEFAULT_DEC_TOL,
    DIM_CAP,
    M_CAP,
    CapExceeded,
    CompositeSystem,
    DimensionMismatch,
    GreedySearchResult,
    HermitianOperator,
    HistorySet,
    InvariantViolation,
    NotDecoherent,
    ParseError,
    Partition,
    Projector,
    ProjectorSet,
    ProjectorSetReport,
    RecordSet,
    StateVector,
    amplitude,
    branch_matrix,
    dec_measure,
    decoherence_functional,
    format_complex,
)
from ephist.cli import _json_default
from ephist.coarsegrain import _load_class_list
from ephist.modelfile import (
    _DIRECTIVES,
    CompositeClause,
    EvolutionClause,
    FineClause,
    Matrix,
    MemberClause,
    ModelDocument,
    PartitionClause,
    SlotClause,
)

ENUMERATION_CAP = 8   # Bell(9) = 21147 partitions is past what a test should walk


# A history is a tuple of components, one alternative index per slot. Its
# flat index has the earliest slot fastest; a joint history is a tuple of
# factor component tuples, and its joint flat index has the leftmost
# factor slowest.

def flatten_index(components: Sequence[int], shape: Sequence[int]) -> int:
    if len(components) != len(shape) or not all(0 <= c < s for c, s in zip(components, shape)):
        raise DimensionMismatch(f"history {tuple(components)} outside shape {tuple(shape)}")
    flat, stride = 0, 1
    for c, s in zip(components, shape):
        flat += c * stride
        stride *= s
    return flat


def unflatten_index(flat: int, shape: Sequence[int]) -> tuple[int, ...]:
    if not 0 <= flat < int(np.prod(shape)):
        raise DimensionMismatch(f"flat index {flat} outside shape {tuple(shape)}")
    components = []
    for s in shape:
        components.append(flat % s)
        flat //= s
    return tuple(components)


def joint_flat(cs: CompositeSystem, indices: Sequence[Sequence[int]]) -> int:
    flat = 0
    for (_, hs), components in zip(cs.factors, indices):
        flat = flat * hs.size + flatten_index(components, hs.shape)
    return flat


def unflatten_joint(cs: CompositeSystem, flat: int) -> tuple[tuple[int, ...], ...]:
    if not 0 <= flat < cs.joint_count:
        raise DimensionMismatch(f"joint flat index {flat} outside {cs.joint_count} histories")
    out = []
    for _, hs in reversed(cs.factors):
        out.append(unflatten_index(flat % hs.size, hs.shape))
        flat //= hs.size
    return tuple(reversed(out))


def _check_components(hs: HistorySet, components: Sequence[int]) -> None:
    if len(components) != len(hs.slots):
        raise DimensionMismatch(
            f"history has {len(components)} components for {len(hs.slots)} slots")
    for c, s in zip(components, hs.slots):
        if not 0 <= c < s.size:
            raise DimensionMismatch(f"component {c} out of range for slot of size {s.size}")


def history_label(hs: HistorySet, components: Sequence[int]) -> str:
    _check_components(hs, components)
    return ",".join(s.labels[c] for s, c in zip(hs.slots, components))


def class_operator(hs: HistorySet, components: Sequence[int]) -> np.ndarray:
    """Chain product of the chosen projectors, latest time leftmost."""
    _check_components(hs, components)
    c = hs.slots[0].members[components[0]].entries
    for slot, comp in zip(hs.slots[1:], components[1:]):
        c = slot.members[comp].entries @ c
    return np.array(c)


def branch_vector(hs: HistorySet, components: Sequence[int], psi: StateVector) -> np.ndarray:
    """C_alpha |psi>, one projector at a time; NOT normalized."""
    if psi.dim != hs.dim:
        raise DimensionMismatch(f"state dim {psi.dim} vs history-set dim {hs.dim}")
    _check_components(hs, components)
    v = psi.amplitudes
    for slot, comp in zip(hs.slots, components):
        v = slot.members[comp].entries @ v
    return v


def chain_amplitude(hs: HistorySet, components: Sequence[int], psi: StateVector) -> complex:
    """<psi|C|psi>: the complex amplitude whose real part is the extended probability."""
    return complex(np.vdot(psi.amplitudes, branch_vector(hs, components, psi)))


def extended_probability(hs: HistorySet, components: Sequence[int], psi: StateVector) -> float:
    """Re<psi|C|psi>. Additive and normalized, but may be < 0 or > 1."""
    return chain_amplitude(hs, components, psi).real


def dh_probability(hs: HistorySet, components: Sequence[int], psi: StateVector) -> float:
    """||C psi||^2: the branch-norm probability, always in [0, 1]."""
    v = branch_vector(hs, components, psi)
    return float(np.vdot(v, v).real)


def factor_amplitudes(
    cs: CompositeSystem, indices: Sequence[Sequence[int]],
) -> tuple[complex, ...]:
    if len(indices) != len(cs.factors):
        raise DimensionMismatch(f"{len(indices)} indices for {len(cs.factors)} factors")
    return tuple(chain_amplitude(hs, comps, psi) for (psi, hs), comps in zip(cs.factors, indices))


def joint_extended_probability(cs: CompositeSystem, indices: Sequence[Sequence[int]]) -> float:
    """Re of the product of per-factor amplitudes."""
    z = 1.0 + 0.0j
    for zk in factor_amplitudes(cs, indices):
        z *= zk
    return float(z.real)


def joint_class_operator(cs: CompositeSystem, indices: Sequence[Sequence[int]]) -> np.ndarray:
    """Dense C1 x ... x CN on the joint space, leftmost factor slowest."""
    if len(indices) != len(cs.factors):
        raise DimensionMismatch(f"{len(indices)} indices for {len(cs.factors)} factors")
    c = class_operator(cs.factors[0][1], indices[0])
    for (_, hs), comps in zip(cs.factors[1:], indices[1:]):
        c = np.kron(c, class_operator(hs, comps))
    return c


def joint_state(cs: CompositeSystem) -> StateVector:
    """psi_1 x ... x psi_N, leftmost factor slowest."""
    amps = cs.factors[0][0].amplitudes
    for psi, _ in cs.factors[1:]:
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


def product_rule_kron(cs: CompositeSystem) -> tuple[np.ndarray, np.ndarray]:
    """product_rule_report's joint EPs and EP products, folded with np.kron."""
    amps, product = np.ones(1, dtype=np.complex128), np.ones(1)
    for psi, hs in cs.factors:
        z = psi.amplitudes.conj() @ branch_matrix(hs, psi)
        amps, product = np.kron(amps, z), np.kron(product, z.real)
    return amps.real, product


def product_records(cs: CompositeSystem, record_sets: Sequence[RecordSet]) -> RecordSet:
    """Joint records as Kronecker products of the per-factor records.

    The per-factor sets come from construct_records, which raises
    NotDecoherent for any unrecorded factor before this runs.
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


def coarse_class_operator(hs: HistorySet, part: Partition, class_index: int) -> np.ndarray:
    """Sum of the fine class operators in one class of the partition."""
    if part.fine_count != hs.size:
        raise DimensionMismatch(f"partition over {part.fine_count} vs {hs.size} histories")
    c = np.zeros((hs.dim, hs.dim), dtype=np.complex128)
    for flat in part.classes[class_index]:
        c += class_operator(hs, unflatten_index(flat, hs.shape))
    return c


def coarse_decoherence_functional_gemm(functional: np.ndarray, part: Partition) -> np.ndarray:
    """S^T D S, with S the dense m x k 0/1 membership matrix (promoted to
    complex by the products): two gemms and O(m^2 k) work."""
    functional = np.asarray(functional)
    if functional.shape != (part.fine_count, part.fine_count):
        raise DimensionMismatch(
            f"functional shape {functional.shape} vs fine count {part.fine_count}")
    s = np.zeros((part.fine_count, part.size))
    s[np.arange(part.fine_count), part.class_of()] = 1.0
    return s.T @ functional @ s


def group_member_sums_loop(slot: ProjectorSet, groups: Sequence[Sequence[int]]) -> list[np.ndarray]:
    """Each group's member matrices added by Python's sum, which starts from 0."""
    return [sum(slot.members[i].entries for i in g) for g in groups]


def extended_density_from_amplitudes(y, slit: str = "U"):
    """|psi_slit|^2 + Re[conj(psi_other) psi_slit], from the two amplitudes."""
    own = amplitude(y, slit)   # rejects an unknown slit name
    other = amplitude(y, "L" if slit == "U" else "U")
    return np.abs(own) ** 2 + np.real(np.conj(other) * own)


def dh_ep_difference(hs: HistorySet, components: Sequence[int], psi: StateVector) -> float:
    """p_dh - p_ep; identically -Re sum_{b != a} D(b, a), and 0 when decoherent."""
    return dh_probability(hs, components, psi) - extended_probability(hs, components, psi)


def functional_sum(hs: HistorySet, psi: StateVector) -> np.ndarray:
    """The decoherence functional as the sum of its strict upper triangle, that
    triangle's conjugate transpose and the diagonal of squared branch norms."""
    b = branch_matrix(hs, psi)
    upper = np.triu(b.conj().T @ b, 1)
    dh = np.einsum("ij,ij->j", b.conj(), b).real
    return upper + upper.conj().T + np.diag(dh)


@dataclass(frozen=True)
class EagerDecoherenceReport:
    """Every reading of a DecoherenceReport, each stored as a field."""

    functional: np.ndarray
    dec: float
    ep_probs: np.ndarray
    dh_probs: np.ndarray
    max_offdiagonal: float
    linearly_positive: bool
    tolerance: float


def eager_report(functional: np.ndarray, ep: np.ndarray, tol: float) -> EagerDecoherenceReport:
    """Every reading of a report on this functional and these EPs, computed
    up front; the largest off-diagonal |D| masks the diagonal out."""
    off_diagonal = ~np.eye(functional.shape[0], dtype=bool)
    return EagerDecoherenceReport(
        functional=functional, dec=dec_measure(functional), ep_probs=ep,
        dh_probs=functional.diagonal().real.copy(),
        max_offdiagonal=float(np.abs(functional[off_diagonal]).max(initial=0.0)),
        linearly_positive=bool(ep.min() >= -tol), tolerance=tol)


def decoherence_functional_eager(
    hs: HistorySet, psi: StateVector, tol: float = DEFAULT_DEC_TOL,
) -> EagerDecoherenceReport:
    """decoherence_functional computing every reading up front, on a
    functional assembled as the sum of its upper triangle, that triangle's
    conjugate and the diagonal."""
    b = branch_matrix(hs, psi)
    functional = np.triu(b.conj().T @ b, 1)
    functional += functional.conj().T
    functional += 0.0
    np.fill_diagonal(functional, np.einsum("ij,ij->j", b.conj(), b).real)
    return eager_report(functional, np.real(psi.amplitudes.conj() @ b), tol)


def offdiagonal_offenders_loop(functional: np.ndarray, tol: float) -> list[tuple[tuple[int, int], float]]:
    """offdiagonal_offenders by visiting every upper cell and taking its np.abs."""
    out = []
    m = functional.shape[0]
    for a in range(m):
        for b in range(a + 1, m):
            mag = np.abs(functional[a, b])
            if mag > tol:
                out.append(((a, b), float(mag)))
    out.sort(key=lambda pair: (-pair[1], pair[0]))
    return out


def offdiagonal_offenders_list(functional: np.ndarray, tol: float) -> list[tuple[tuple[int, int], float]]:
    """offdiagonal_offenders as a list of ((alpha, beta), magnitude) pairs, from one
    vectorized scan and a stable sort."""
    mag = np.abs(functional)
    a, b = np.nonzero(np.triu(mag > tol, 1))
    mag = mag[a, b]
    order = np.argsort(-mag, kind="stable")
    return list(zip(zip(a[order].tolist(), b[order].tolist()), mag[order].tolist()))


def offender_pairs(offenders: np.recarray) -> list[tuple[tuple[int, int], float]]:
    """An offender record array as the ((alpha, beta), magnitude) pairs the oracles list."""
    return [((a, b), mag) for a, b, mag in offenders.tolist()]


def offender_dicts(pairs: Sequence[tuple[tuple[int, int], float]]) -> list[dict]:
    """((alpha, beta), magnitude) pairs as the one dict per offender json.dumps takes."""
    return [{"alpha": a, "beta": b, "magnitude": mag} for (a, b), mag in pairs]


def not_decoherent_payload(err: NotDecoherent) -> dict:
    """NotDecoherent's payload with one dict per offender."""
    return {**err.payload(), "offenders": offender_dicts(offender_pairs(err.offenders))}


def dump_json(obj) -> str:
    """A JSON artifact as one json.dumps of the whole payload."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_default) + "\n"


def functional_csv_pending(functional: np.ndarray) -> Iterator[str]:
    """functional.csv from a whole functional, one row per chunk, each upper cell
    formatted once: row i keeps the mirrored text of its cell (i, j), one string
    per cell, for row j until row j is written."""
    m = functional.shape[0]
    yield ",".join(f"c{j}" for j in range(m)) + "\n"
    pending = [[] for _ in range(m)]
    for i in range(m):
        row = functional[i, i:]
        cells, mirrored = pending[i], []
        pending[i] = None
        for re, im in zip(map(repr, row.real.tolist()), row.imag.tolist()):
            if im == 0.0:
                cells.append(re)
                mirrored.append(re)
            else:   # the signs format_complex gives im and -im; NaN prints "-" both ways
                mag = repr(abs(im))
                cells.append(f"{re}{'+' if im >= 0 else '-'}{mag}i")
                mirrored.append(f"{re}{'+' if im < 0 else '-'}{mag}i")
        yield ",".join(cells) + "\n"
        list(map(list.append, pending[i + 1:], mirrored[1:]))


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


def validate_projector_set_loop(
    members: Union[ProjectorSet, Sequence[Projector]],
) -> ProjectorSetReport:
    """validate_projector_set with every member in the exclusivity pair scan."""
    if isinstance(members, ProjectorSet):
        members = members.members
    mats = [m.entries for m in members]
    if not mats:
        raise InvariantViolation("nonempty-projector-set", 1.0, "no members given")
    d = mats[0].shape[0]
    if any(m.shape != (d, d) for m in mats):
        raise DimensionMismatch("projector set members have mixed dimensions")
    completeness = np.abs(sum(mats) - np.eye(d)).max()
    exclusivity = 0.0
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            exclusivity = np.max((exclusivity, np.abs(a @ b).max()))
    return ProjectorSetReport(float(completeness), float(exclusivity))


def verify_strong_records_loop(hs: HistorySet, psi: StateVector, rs: RecordSet) -> float:
    """verify_strong_records with a d x m product for every record, zero or not."""
    b = branch_matrix(hs, psi)
    worst = 0.0
    for a, r in enumerate(rs.members):
        resid = r.entries @ b
        resid[:, a] -= b[:, a]
        worst = max(worst, float(np.linalg.norm(resid, axis=0).max()))
    return worst


def verify_weak_records_loop(hs: HistorySet, psi: StateVector, rs: RecordSet) -> float:
    """verify_weak_records with a full row for every record, zero or not."""
    b = branch_matrix(hs, psi)
    ep = np.real(psi.amplitudes.conj() @ b)
    worst = 0.0
    for beta, r in enumerate(rs.members):
        row = np.real((r.entries @ psi.amplitudes).conj() @ b)
        row[beta] -= ep[beta]
        worst = max(worst, float(np.abs(row).max()))
    return worst


def record_probs_loop(psi: StateVector, rs: RecordSet) -> np.ndarray:
    """record_correlation_report's record_probs with <psi|R_a|psi> for every record, zero or not."""
    a = psi.amplitudes
    return np.array([float(np.vdot(a, r.entries @ a).real) for r in rs.members])


def greedy_merge_loop(functional: np.ndarray, target_tol: float) -> GreedySearchResult:
    """greedy_merge_functional by rescanning every class pair each merge.

    O(k^3) per merge; the strict < keeps the first pair in (i, j) order
    among equal candidates.
    """
    functional = np.asarray(functional, dtype=np.complex128)
    m = functional.shape[0]
    part = Partition(m, tuple((i,) for i in range(m)))
    current = functional.copy()
    trace: list[tuple[tuple[int, int], float]] = []

    while True:
        dec = dec_measure(current)
        if dec <= target_tol:
            return GreedySearchResult(part, dec, True, tuple(trace))
        k = part.size
        if k <= 1:
            return GreedySearchResult(part, dec, False, tuple(trace))

        # array moduli: numpy's scalar abs of a complex can differ in the last bit
        mag = np.abs(current)
        absrow = mag.sum(axis=1) - np.abs(np.diag(current))
        best_pair, best_dec = None, None
        for i in range(k):
            for j in range(i + 1, k):
                mask = np.ones(k, dtype=bool)
                mask[[i, j]] = False
                merged_cross = np.abs(current[i, mask] + current[j, mask]).sum()
                old_cross = (absrow[i] - mag[i, j]) + (absrow[j] - mag[j, i])
                # rows and columns contribute equally (Hermitian functional)
                cand = dec + 2.0 * (merged_cross - old_cross) - 2.0 * mag[i, j]
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



def _cross_row(current: np.ndarray, a: int) -> np.ndarray:
    """[b] = sum over l != a, b of |D_al + D_bl|: the cross terms of classes a
    and b merged. Entry a is not meaningful."""
    terms = np.abs(current[a] + current)
    terms[:, a] = 0.0
    np.fill_diagonal(terms, 0.0)
    return terms.sum(axis=1)


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


def greedy_merge_rescore(functional: np.ndarray, target_tol: float) -> GreedySearchResult:
    """greedy_merge_functional as it was before its working arrays were kept
    in twin buffers: a fresh gather of every array per merge, scores read
    through triu_indices, and one m x m temporary per set-up row.

    Greedy pair merging on an explicit functional matrix.

    Merges the class pair whose merge minimizes the resulting dec, until
    dec <= target_tol or one class is left. The total merge always reaches
    dec = 0, so any target_tol >= 0 is met.
    Ties go to the lexicographically lowest (i, j), i < j, among the current
    classes. target_tol must be finite; a negative one merges down to one
    class. The functional must be square (DimensionMismatch), finite,
    Hermitian to TOL_HERM and small enough for its merge scores to stay
    finite (InvariantViolation).

    Cost: an O(m^3) set-up builds cross[a, b] = sum over l != a, b of
    |D_al + D_bl| one row at a time; each merge then scores every pair from
    it and updates it in O(k^2) numpy work for k current classes. The pairs
    whose score lies within a rounding bound of the best are scored again
    term by term, so the chosen pair and every float are the ones a full
    rescan of all pairs gives.
    """
    if not -inf < target_tol < inf:
        raise InvariantViolation("tolerance", target_tol, "greedy target must be finite")
    current = HermitianOperator(functional).entries
    m = current.shape[0]
    cross = np.array([_cross_row(current, a) for a in range(m)]).reshape(m, m)
    # no cross entry ever exceeds the input's off-diagonal mass, so its
    # accumulated rounding is a small multiple of eps * m * that mass
    off_mass = np.abs(current[~np.eye(m, dtype=bool)]).sum()
    classes = [(x,) for x in range(m)]
    trace: list[tuple[tuple[int, int], float]] = []
    dec = dec_measure(current)

    while not dec <= target_tol and len(classes) > 1:
        k = len(classes)
        absval = np.abs(current)
        absrow = absval.sum(axis=1) - np.abs(np.diag(current))
        iu, ju = np.triu_indices(k, 1)
        off = absval[iu, ju]
        old_cross = (absrow[iu] - off) + (absrow[ju] - absval[ju, iu])
        # rows and columns contribute equally (Hermitian functional)
        approx = dec + 2.0 * (cross[iu, ju] - old_cross) - 2.0 * off
        if not np.isfinite(approx).all():
            raise InvariantViolation("finite-merge-scores", absval.sum(),
                                     "functional too large for float merge scores")
        # approx differs from the term-by-term score only by rounding, a few
        # eps * m times the magnitudes involved; every pair that close to the
        # best is scored again, so the first exact minimum is among them
        slack = 128 * (m + 1) * np.finfo(float).eps * (
            off_mass + abs(dec) + np.abs(old_cross).max())
        near = np.flatnonzero(approx <= approx.min() + slack)   # row-major order

        exact_cross = _exact_cross(current, iu[near], ju[near])
        exact = dec + 2.0 * (exact_cross - old_cross[near]) - 2.0 * off[near]
        best = near[np.argmin(exact)]      # first minimum: the lowest (i, j)
        i, j = int(iu[best]), int(ju[best])

        keep = [x for x in range(k) if x != j]
        merged = current[np.ix_(keep, keep)]
        merged[i, :] += current[j, keep]
        merged[:, i] += current[keep, j]
        merged[i, i] += current[j, j]

        # columns i and j become one column; row and column i are new
        col_i, col_j, col = current[keep, i], current[keep, j], merged[:, i]
        cross = cross[np.ix_(keep, keep)]
        cross -= np.abs(col_i[:, None] + col_i) + np.abs(col_j[:, None] + col_j)
        cross += np.abs(col[:, None] + col)
        cross[i] = cross[:, i] = _cross_row(merged, i)

        current = merged
        classes[i] = tuple(sorted(classes[i] + classes[j]))
        del classes[j]
        dec = dec_measure(current)
        trace.append(((i, j), dec))

    return GreedySearchResult(Partition(m, tuple(classes)), dec, bool(dec <= target_tol),
                              tuple(trace))

class _Line:
    """Cursor over one logical line; tracks the column for diagnostics."""

    def __init__(self, no: int, text: str):
        self.no = no
        self.text = text
        self.pos = 0

    def fail(self, expected: str, at: int | None = None):
        at = self.pos if at is None else at
        raise ParseError(self.no, at + 1, expected, self.text[at:].strip()[:40])

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self):
        if not self.at_end():
            self.fail("end of line")

    def word(self, expected: str) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace():
            self.pos += 1
        if self.pos == start:
            self.fail(expected, at=start)
        return self.text[start:self.pos]

    def number(self, expected: str, conv):
        start = self.pos
        w = self.word(expected)
        try:
            return conv(w)
        except ValueError:
            self.fail(expected, at=start)

    def bracket(self, open_ch: str, close_ch: str, expected: str) -> tuple[str, int]:
        """Balanced literal starting at the cursor; returns (inner, start)."""
        self.skip_ws()
        start = self.pos
        if start >= len(self.text) or self.text[start] != open_ch:
            self.fail(expected, at=start)
        depth = 0
        for k in range(start, len(self.text)):
            c = self.text[k]
            if c in "[{":
                depth += 1
            elif c in "]}":
                depth -= 1
                if depth == 0:
                    if c != close_ch:
                        self.fail(f"closing {close_ch!r}", at=k)
                    self.pos = k + 1
                    return self.text[start + 1:k], start + 1
        self.fail(f"closing {close_ch!r}", at=len(self.text))


_DIGITS = "0123456789"


def _digits_end(text: str, k: int) -> int:
    while k < len(text) and text[k] in _DIGITS:
        k += 1
    return k


def _decimal_loop(text: str) -> float:
    """A finite decimal, walked one character at a time: an optional sign,
    digits with at most one point (a digit on at least one side), then an
    optional e or E with its own optional sign and digits."""
    k = 1 if text[:1] in ("+", "-") else 0
    end = _digits_end(text, k)
    digits = end - k
    if text[end:end + 1] == ".":
        fraction_end = _digits_end(text, end + 1)
        digits += fraction_end - end - 1
        end = fraction_end
    if digits == 0:
        raise ValueError(f"no digits in {text!r}")
    if text[end:end + 1] in ("e", "E"):
        exp = end + 1 + (text[end + 1:end + 2] in ("+", "-"))
        end = _digits_end(text, exp)
        if end == exp:
            raise ValueError(f"no exponent digits in {text!r}")
    if end != len(text):
        raise ValueError(f"not a decimal: {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def _count_loop(text: str) -> int:
    """A dim or basis index: one or more of the ten ASCII digits."""
    if not text or _digits_end(text, 0) != len(text):
        raise ValueError(f"not a count: {text!r}")
    return int(text)


def parse_complex_loop(text: str) -> complex:
    """parse_complex with the real/imaginary sign found by a backwards scan."""
    s = text.strip()
    if not s:
        raise ValueError("empty number")
    if s[-1] in "ij":
        body = s[:-1]
        if body in ("", "+"):
            return 1j
        if body == "-":
            return -1j
        for k in range(len(body) - 1, 0, -1):
            if body[k] in "+-" and body[k - 1] not in "eE":
                real, imag = body[:k], body[k:]
                imag = imag if imag not in ("+", "-") else imag + "1"
                return complex(_decimal_loop(real), _decimal_loop(imag))
        return complex(0.0, _decimal_loop(body))
    return complex(_decimal_loop(s), 0.0)


def _split_top(inner: str, base: int) -> list[tuple[str, int]]:
    """Comma-split at bracket depth 0; (piece, absolute offset) pairs."""
    out = []
    depth, start = 0, 0
    for k, c in enumerate(inner + ","):
        if c in "[{":
            depth += 1
        elif c in "]}":
            depth -= 1
        elif c == "," and depth == 0:
            out.append((inner[start:k], base + start))
            start = k + 1
    return out


def _parse_vector(line: _Line, expected: str) -> tuple[complex, ...]:
    inner, base = line.bracket("[", "]", expected)
    values = []
    for piece, off in _split_top(inner, base):
        if not piece.strip():
            line.fail("a number", at=off)
        try:
            values.append(parse_complex_loop(piece))
        except ValueError:
            line.fail("a number like 1.5 or 1+2i", at=off + (len(piece) - len(piece.lstrip())))
    if not values:
        line.fail("a nonempty vector", at=base - 1)
    return tuple(values)


def _parse_matrix(line: _Line, expected: str) -> Matrix:
    inner, base = line.bracket("[", "]", expected)
    rows = []
    for piece, off in _split_top(inner, base):
        sub = _Line(line.no, line.text)
        sub.pos = off
        rows.append(_parse_vector(sub, "a row like [1,0]"))
        sub.skip_ws()
        if sub.pos < off + len(piece):
            sub.fail("',' or ']' after a row")
    if not rows:
        line.fail("a nonempty matrix", at=base - 1)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        line.fail("rows of equal length", at=base - 1)
    return tuple(rows)


def _parse_index_set(line: _Line, dim: int) -> tuple[int, ...]:
    inner, base = line.bracket("{", "}", "an index set like {0,2}")
    indices = []
    for piece, off in _split_top(inner, base):
        try:
            i = _count_loop(piece.strip())
        except ValueError:
            line.fail("a basis index", at=off)
        if not 0 <= i < dim:
            line.fail(f"an index in 0..{dim - 1}", at=off)
        indices.append(i)
    if not indices:
        line.fail("a nonempty index set", at=base - 1)
    return tuple(indices)


_DIRECTIVES = "dim, state, evolution, slot, member, partition, finegrained, composite"


class _Parser:
    def __init__(self):
        self.dim: int | None = None
        self.state = None
        self.evolution: EvolutionClause | None = None
        self.slots: list[SlotClause] = []
        self.partitions: list[PartitionClause] = []
        self.finegrained: list[FineClause] = []
        self.composites: list[CompositeClause] = []
        # open slot being accumulated: (line, time, name, [members])
        self.open_slot: tuple[_Line, float, str, list[MemberClause]] | None = None

    def need_dim(self, line: _Line, what: str) -> int:
        if self.dim is None:
            raise ParseError(line.no, 1, f"dim declared before {what}", "")
        return self.dim

    def close_slot(self):
        if self.open_slot is None:
            return
        line, time, name, members = self.open_slot
        if not members:
            raise ParseError(line.no, 1, "at least one member after slot", "")
        self.slots.append(SlotClause(time, name, tuple(members)))
        self.open_slot = None

    def check_time_order(self, line: _Line, clauses, time: float, what: str):
        pending = [self.open_slot[1]] if (what == "slot" and self.open_slot) else []
        prior = [c.time for c in clauses] + pending
        if prior and time <= prior[-1]:
            line.fail(f"{what} time greater than {prior[-1]}")

    def new_name(self, line: _Line, clauses, what: str) -> str:
        line.skip_ws()
        start = line.pos
        name = line.word(f"a {what} name")
        for c in clauses:
            if c.name == name:
                line.fail(f"a {what} name other than {name} (already declared)", at=start)
        return name

    def directive(self, line: _Line):
        head = line.word("a directive")
        if head != "member":
            self.close_slot()
        handler = getattr(self, "on_" + head, None)
        if handler is None:
            raise ParseError(line.no, 1, f"a directive ({_DIRECTIVES})", head)
        handler(line)
        line.expect_end()

    def on_dim(self, line: _Line):
        if self.dim is not None:
            line.fail("a single dim declaration")
        start = line.pos
        n = line.number("a positive integer dimension", _count_loop)
        if n < 1:
            line.fail("a positive integer dimension", at=start)
        if n > DIM_CAP:
            raise CapExceeded("dimension", n, DIM_CAP)
        self.dim = n

    def on_state(self, line: _Line):
        if self.state is not None:
            line.fail("a single state declaration")
        d = self.need_dim(line, "state")
        vec = _parse_vector(line, "an amplitude vector like [1,0]")
        if len(vec) != d:
            line.fail(f"{d} amplitudes", at=0)
        self.state = vec

    def on_evolution(self, line: _Line):
        kind = line.word("zero, hamiltonian, or unitary")
        if kind == "zero":
            if self.evolution is not None:
                line.fail("a single evolution declaration")
            self.evolution = EvolutionClause("zero")
        elif kind == "hamiltonian":
            if self.evolution is not None:
                line.fail("a single evolution declaration")
            d = self.need_dim(line, "evolution hamiltonian")
            mat = _parse_matrix(line, "a hamiltonian matrix")
            if len(mat) != d or len(mat[0]) != d:
                line.fail(f"a {d}x{d} matrix", at=0)
            self.evolution = EvolutionClause("hamiltonian", hamiltonian=mat)
        elif kind == "unitary":
            if self.evolution is not None and self.evolution.kind != "unitary":
                line.fail("a single evolution kind")
            d = self.need_dim(line, "evolution unitary")
            t = line.number("a time label", _decimal_loop)
            mat = _parse_matrix(line, "a unitary matrix")
            if len(mat) != d or len(mat[0]) != d:
                line.fail(f"a {d}x{d} matrix", at=0)
            prior = self.evolution.unitaries if self.evolution else ()
            if any(pt == t for pt, _ in prior):
                line.fail(f"a time other than {t} (already declared)")
            self.evolution = EvolutionClause("unitary", unitaries=prior + ((t, mat),))
        else:
            line.fail("zero, hamiltonian, or unitary")

    def on_slot(self, line: _Line):
        t = line.number("a time label", _decimal_loop)
        self.check_time_order(line, self.slots, t, "slot")
        name = line.word("a slot name")
        self.open_slot = (line, t, name, [])

    def on_member(self, line: _Line):
        if self.open_slot is None:
            raise ParseError(line.no, 1, "a slot line before member", "member")
        label = line.word("a member label")
        kind = line.word("basis or matrix")
        if kind == "basis":
            d = self.need_dim(line, "member basis")
            clause = MemberClause(label, "basis", indices=_parse_index_set(line, d))
        elif kind == "matrix":
            d = self.need_dim(line, "member matrix")
            mat = _parse_matrix(line, "a projector matrix")
            if len(mat) != d or len(mat[0]) != d:
                line.fail(f"a {d}x{d} matrix", at=0)
            clause = MemberClause(label, "matrix", matrix=mat)
        else:
            line.fail("basis or matrix")
        self.open_slot[3].append(clause)

    def on_partition(self, line: _Line):
        name = self.new_name(line, self.partitions, "partition")
        inner, base = line.bracket("[", "]", "a class list like [[0],[1,2]]")
        literal = "[" + inner + "]"
        raw = _load_class_list(literal, line.no, base, "a class list like [[0],[1,2]]")
        if (not isinstance(raw, list) or not raw
                or any(not isinstance(c, list) or not c for c in raw)
                or any(not isinstance(i, int) or isinstance(i, bool) for c in raw for i in c)):
            line.fail("nonempty lists of integers", at=base - 1)
        self.partitions.append(PartitionClause(name, tuple(tuple(c) for c in raw)))

    def on_finegrained(self, line: _Line):
        d = self.need_dim(line, "finegrained")
        t = line.number("a time label", _decimal_loop)
        self.check_time_order(line, self.finegrained, t, "finegrained")
        kw = line.word("the word basis")
        if kw != "basis":
            line.fail("the word basis")
        rows = _parse_matrix(line, "a basis matrix (one row per vector)")
        if len(rows) != d or len(rows[0]) != d:
            line.fail(f"a {d}x{d} basis (rows are vectors)", at=0)
        self.finegrained.append(FineClause(t, rows))

    def on_composite(self, line: _Line):
        name = self.new_name(line, self.composites, "composite")
        kw = line.word("the word factors")
        if kw != "factors":
            line.fail("the word factors")
        paths = []
        while not line.at_end():
            paths.append(line.word("a factor path"))
        if len(paths) < 2:
            line.fail("at least two factor paths")
        self.composites.append(CompositeClause(name, tuple(paths)))


def parse_model_loop(text: str) -> ModelDocument:
    """parse_model by walking each literal one character at a time."""
    parser = _Parser()
    saw_any = False
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        saw_any = True
        parser.directive(_Line(no, body))
    parser.close_slot()
    if not saw_any:
        raise ParseError(1, 1, f"at least one directive ({_DIRECTIVES})", "")
    return ModelDocument(
        dim=parser.dim,
        state=parser.state,
        evolution=parser.evolution,
        slots=tuple(parser.slots),
        partitions=tuple(parser.partitions),
        finegrained=tuple(parser.finegrained),
        composites=tuple(parser.composites),
    )



def _vector_literal(values) -> str:
    return "[" + ",".join(format_complex(complex(z)) for z in values) + "]"


def _matrix_literal(rows) -> str:
    return "[" + ",".join(_vector_literal(r) for r in rows) + "]"


def serialize_model(doc: ModelDocument) -> str:
    """Canonical text form with shortest round-trip float literals;
    parse_model inverts it exactly."""
    out = []
    if doc.dim is not None:
        out.append(f"dim {doc.dim}")
    if doc.state is not None:
        out.append(f"state {_vector_literal(doc.state)}")
    if doc.evolution is not None:
        ev = doc.evolution
        if ev.kind == "zero":
            out.append("evolution zero")
        elif ev.kind == "hamiltonian":
            out.append(f"evolution hamiltonian {_matrix_literal(ev.hamiltonian)}")
        else:
            for t, mat in ev.unitaries:
                out.append(f"evolution unitary {t!r} {_matrix_literal(mat)}")
    for slot in doc.slots:
        out.append(f"slot {slot.time!r} {slot.name}")
        for m in slot.members:
            if m.kind == "basis":
                out.append(f"member {m.label} basis {{{','.join(str(i) for i in m.indices)}}}")
            else:
                out.append(f"member {m.label} matrix {_matrix_literal(m.matrix)}")
    for part in doc.partitions:
        classes = "[" + ",".join("[" + ",".join(str(i) for i in c) + "]" for c in part.classes) + "]"
        out.append(f"partition {part.name} {classes}")
    for fc in doc.finegrained:
        out.append(f"finegrained {fc.time!r} basis {_matrix_literal(fc.rows)}")
    for comp in doc.composites:
        out.append(f"composite {comp.name} factors {' '.join(comp.paths)}")
    return "\n".join(out) + "\n"
