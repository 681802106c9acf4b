import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ephist import (
    DEFAULT_DEC_TOL,
    CorrelationReport,
    DimensionMismatch,
    HistorySet,
    M_CAP,
    InvariantViolation,
    NotDecoherent,
    Projector,
    ProjectorSet,
    RecordSet,
    StateVector,
    all_extended_probabilities,
    branch_matrix,
    build_history_set,
    build_state,
    construct_records,
    decoherence_functional,
    load_model,
    offdiagonal_offenders,
    projector_set_from_basis,
    record_correlation_report,
    validate_projector_set,
    verify_strong_records,
    verify_weak_records,
)
from conftest import (
    FLOAT_PARTS,
    decoherent_fixture,
    diagonal_fixture,
    haar_basis,
    non_decoherent_fixture,
    random_model,
    random_state,
)
from oracles import (
    flatten_index,
    history_label,
    offender_pairs,
    record_probs_loop,
    unflatten_index,
    verify_strong_records_loop,
    verify_weak_records_loop,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_construct_on_decoherent_fixture(seed):
    rng = np.random.default_rng(seed)
    psi, hs = decoherent_fixture(rng)
    report = decoherence_functional(hs, psi)
    rs = construct_records(report)
    assert verify_strong_records(report, rs) <= 1e-10
    assert verify_weak_records(report, rs) <= 1e-10
    assert validate_projector_set(rs.members).passes
    assert rs.size == hs.size
    assert rs.time == max(hs.times) + 1.0
    assert sum(r.rank for r in rs.members) == hs.dim


def test_record_set_is_a_projector_set():
    from ephist import RecordSet
    p = Projector(np.diag([1.0, 0.0]))
    rs = RecordSet((p, Projector(np.diag([0.0, 1.0]))), time=2.0, completion_index=0)
    assert isinstance(rs, ProjectorSet)
    assert (rs.dim, rs.size, rs.time, rs.labels) == (2, 2, 2.0, ("", ""))
    with pytest.raises(InvariantViolation) as exc:
        RecordSet((p, p), time=2.0, completion_index=0)
    assert exc.value.name == "projector-set"


def test_record_labels_follow_histories(rng):
    psi, hs = decoherent_fixture(rng, d=4, k=2)
    rs = construct_records(decoherence_functional(hs, psi))
    labels = [history_label(hs, unflatten_index(f, hs.shape)) for f in range(hs.size)]
    assert [r.label for r in rs.members] == labels == list(hs.history_labels())


def test_record_probabilities_match_ep(rng):
    # <psi|R_a|psi> = p(a): the record reads out the history's probability
    psi, hs = decoherent_fixture(rng)
    rs = construct_records(decoherence_functional(hs, psi))
    ep = all_extended_probabilities(hs, psi)
    rec = [np.vdot(psi.amplitudes, r.entries @ psi.amplitudes).real for r in rs.members]
    assert np.abs(np.array(rec) - ep).max() < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_non_decoherent_raises(seed):
    rng = np.random.default_rng(seed)
    psi, hs = non_decoherent_fixture(rng, threshold=1e-3)
    with pytest.raises(NotDecoherent) as exc:
        construct_records(decoherence_functional(hs, psi))
    err = exc.value
    assert err.exit_status == 4
    mags = [m for _, m in offender_pairs(err.offenders)]
    assert mags == sorted(mags, reverse=True)
    assert mags[0] >= 1e-3


def _assert_one_decision(hs, psi, tol):
    """The report's flag and maximum, its offender list and construct_records
    all take the one decision offdiagonal_offenders makes at tol."""
    report = decoherence_functional(hs, psi, tol)
    offenders = offender_pairs(report.offenders)
    assert offenders == offender_pairs(offdiagonal_offenders(report.functional, tol))
    assert report.medium_decoherent == (offenders == [])
    if offenders:
        assert report.max_offdiagonal == offenders[0][1]
    try:
        construct_records(decoherence_functional(hs, psi, tol))
    except NotDecoherent as err:
        assert offenders and offender_pairs(err.offenders) == offenders
    except InvariantViolation:   # dependent branches, found only past the decision
        assert offenders == []
    else:
        assert offenders == []


@given(seed=st.integers(0, 2**32 - 1), pick=st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_one_decision_at_boundary_tolerances(seed, pick):
    """tol at the np.abs and np.hypot values of the three largest upper cells
    and one more, and at the floats either side of each. The two moduli
    differ in the last bit on about a third of all cells."""
    psi, hs = random_model(np.random.default_rng(seed), d_max=6, n_max=2)
    functional = decoherence_functional(hs, psi).functional
    upper = functional[np.triu_indices(hs.size, 1)]
    if not upper.size:
        return
    cells = upper[np.argsort(-np.abs(upper), kind="stable")[:3]].tolist() + [upper[pick % upper.size]]
    tols = set()
    for z in cells:
        for mag in (float(np.abs(z)), float(np.hypot(z.real, z.imag))):
            tols.update((mag, float(np.nextafter(mag, 0.0)), float(np.nextafter(mag, np.inf))))
    for tol in sorted(tols):
        _assert_one_decision(hs, psi, tol)


def test_flag_and_offenders_agree_at_the_boundary():
    """|D(33, 34)| is this tol by np.abs and one ulp more by np.hypot: the
    flag said decoherent while the offender list named the pair."""
    psi, hs = random_model(np.random.default_rng(0), d_max=6, n_max=2)
    tol = 0.09060752731756261
    report = decoherence_functional(hs, psi, tol)
    assert report.medium_decoherent
    assert report.max_offdiagonal == tol
    assert offender_pairs(offdiagonal_offenders(report.functional, tol)) == []
    _assert_one_decision(hs, psi, tol)


def test_records_name_offenders_at_the_boundary():
    """|D(0, 5)| is this tol by np.hypot and one ulp more by np.abs:
    construct_records failed the set and then found no offender to name."""
    psi, hs = random_model(np.random.default_rng(3), d_max=6, n_max=2)
    tol = 3.9145052677475075e-17
    with pytest.raises(NotDecoherent) as exc:
        construct_records(decoherence_functional(hs, psi, tol))
    assert offender_pairs(exc.value.offenders) == [((0, 5), float(np.nextafter(tol, 1.0)))]
    _assert_one_decision(hs, psi, tol)


def _balanced_non_decoherent(rng):
    """Two slots of rank-3 projectors on 6 dims: every block can host its two
    branches independently, unlike slots with rank-1 members."""
    from conftest import haar_basis
    from ephist import HistorySet, ProjectorSet

    slots = []
    for t in (1.0, 2.0):
        basis = haar_basis(rng, 6)
        members = tuple(
            Projector(sum(np.outer(basis[i], basis[i].conj()) for i in g), label=f"g{gi}")
            for gi, g in enumerate(((0, 1, 2), (3, 4, 5))))
        slots.append(ProjectorSet(members, time=t))
    return random_state(rng, 6), HistorySet(tuple(slots))


def test_strong_records_imply_decoherence(rng):
    """No projector set at all can strongly record a non-decoherent set:
    any candidate's defect is at least max |D(a,b)| / 2."""
    from ephist import RecordSet

    while True:
        psi, hs = _balanced_non_decoherent(rng)
        d = hs.dim
        report = decoherence_functional(hs, psi)
        max_off = report.max_offdiagonal
        if max_off >= 1e-2:
            break

    # candidate 1: the orthonormalization construct_records would use
    b = branch_matrix(hs, psi)
    keep = [i for i in range(hs.size) if np.linalg.norm(b[:, i]) > 1e-12]
    q, _ = np.linalg.qr(b[:, keep])
    mats = [np.zeros((d, d), dtype=complex) for _ in range(hs.size)]
    for j, k in enumerate(keep):
        mats[k] = np.outer(q[:, j], q[:, j].conj())
    mats[keep[0]] = mats[keep[0]] + np.eye(d) - q @ q.conj().T
    rs = RecordSet(tuple(Projector(m) for m in mats), time=3.0, completion_index=keep[0])
    assert verify_strong_records(report, rs) >= max_off / 2 - 1e-12

    # candidate 2: a complete set unrelated to the branches
    rng2 = np.random.default_rng(1)
    z = rng2.normal(size=(d, d)) + 1j * rng2.normal(size=(d, d))
    qq, _ = np.linalg.qr(z)
    mats2 = [np.outer(qq[:, i], qq[:, i].conj()) for i in range(d)]
    extra = d - hs.size
    first = sum(mats2[: extra + 1])
    rs2 = RecordSet(tuple(Projector(m) for m in [first] + mats2[extra + 1:]),
                    time=3.0, completion_index=0)
    assert verify_strong_records(report, rs2) >= max_off / 2 - 1e-12


def test_correlation_report_flags_perturbed_records(rng):
    psi, hs = decoherent_fixture(rng, d=5, k=3)
    report = decoherence_functional(hs, psi)
    rs = construct_records(report)
    good = record_correlation_report(report, rs)
    assert good.max_defect < 1e-12
    assert good.max_defect < DEFAULT_DEC_TOL
    # same records read against a different state: correlation is broken
    other = random_state(rng, hs.dim)
    report = record_correlation_report(decoherence_functional(hs, other), rs)
    assert report.max_defect > 1e-3


def test_negative_ep_only_recorded_within_epsilon():
    """The recorded coarse three-box set has a (tiny) negative EP value;
    it is epsilon-recorded only because both the record probability and
    the EP are below epsilon."""
    from ephist import build_history_set, build_state, load_model
    doc = load_model("models/recorded.model")
    hs, psi = build_history_set(doc), build_state(doc)
    decoherence = decoherence_functional(hs, psi, 1e-10)
    report = record_correlation_report(decoherence, construct_records(decoherence))
    assert report.max_defect < 1e-10
    for flat, ok in report.negative_bound_ok:
        assert ok
        assert abs(report.ep_probs[flat]) < 1e-10
        assert abs(report.record_probs[flat]) < 1e-10


@given(pairs=st.lists(st.tuples(FLOAT_PARTS, FLOAT_PARTS), max_size=8),
       epsilon=st.sampled_from([0.0, 1e-8, 0.5, 1e300]))
@settings(max_examples=200, deadline=None)
def test_correlation_readings_follow_from_its_data(pairs, epsilon):
    """defects, max_defect and negative_bound_ok as record_correlation_report
    once stored them; the flagged indices are Python ints, as JSON needs."""
    rec = np.array([r for r, _ in pairs], dtype=float)
    ep = np.array([e for _, e in pairs], dtype=float)
    report = CorrelationReport(rec, ep, epsilon)
    defects = np.abs(rec - ep)
    assert report.defects.tobytes() == defects.tobytes() and not report.defects.flags.writeable
    assert report.max_defect == float(defects.max(initial=0.0))
    flags = tuple((i, bool(abs(rec[i]) < epsilon and abs(ep[i]) < epsilon))
                  for i in range(len(pairs)) if ep[i] < 0)
    assert report.negative_bound_ok == flags
    assert all(type(i) is int for i, _ in report.negative_bound_ok)


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_correlation_report_rejects_a_bad_epsilon(epsilon):
    """With epsilon = inf an EP of -0.5 read as epsilon-recorded; NaN and
    negatives were kept silently."""
    with pytest.raises(InvariantViolation) as exc:
        CorrelationReport(np.array([-0.5]), np.array([-0.5]), epsilon)
    assert exc.value.name == "tolerance" and exc.value.exit_status == 3


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_some_branch_carries_the_state(seed):
    """The branches of a validated set sum to psi, so the longest has norm at
    least about 1/m, far above the 1e-12 under which a branch counts as zero:
    construct_records always has a nonzero branch to complete."""
    psi, hs = random_model(np.random.default_rng(seed))
    assert hs.size * np.linalg.norm(branch_matrix(hs, psi), axis=0).max() >= 1 - 1e-9


@pytest.mark.parametrize("check", [verify_strong_records, verify_weak_records,
                                   record_correlation_report])
def test_record_checks_reject_a_record_set_of_another_model(check):
    """records of recorded.model (4 histories, d=3) against threebox.model (6,
    d=3), and against a d=2 model with 4 histories."""
    recorded = load_model(str(MODELS / "recorded.model"))
    rs = construct_records(decoherence_functional(build_history_set(recorded),
                                                  build_state(recorded)))
    box = load_model(str(MODELS / "threebox.model"))
    with pytest.raises(DimensionMismatch, match="4 records for 6 histories"):
        check(decoherence_functional(build_history_set(box), build_state(box)), rs)
    qubit = HistorySet(tuple(projector_set_from_basis(np.eye(2), float(t)) for t in (1, 2)))
    with pytest.raises(DimensionMismatch, match="record dim 3 vs history-set dim 2"):
        check(decoherence_functional(qubit, StateVector(np.eye(2)[0])), rs)


def test_construct_tolerance_is_respected(rng):
    """The tolerance only gates the decoherence check: a permissive tol lets
    construction run on a non-decoherent set (yielding a valid projector set
    with a defect no smaller than the theorem's max |D| / 2 floor), while a
    strict tol refuses the same input."""
    while True:   # 4 generic branches in 6 dims stay independent
        psi, hs = _balanced_non_decoherent(rng)
        max_off = decoherence_functional(hs, psi).max_offdiagonal
        if max_off >= 1e-3:
            break

    permissive = decoherence_functional(hs, psi, tol=10.0)
    defect = verify_strong_records(permissive, construct_records(permissive))
    assert defect >= max_off / 2 - 1e-12
    with pytest.raises(NotDecoherent):
        construct_records(decoherence_functional(hs, psi, tol=1e-8))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_construct_rejects_bad_tolerance(rng, tol):
    """tol=nan would read as "not decoherent" with no offender above nan,
    leaving NotDecoherent nothing to report."""
    for psi, hs in (decoherent_fixture(rng), non_decoherent_fixture(rng)):
        with pytest.raises(InvariantViolation) as exc:
            construct_records(decoherence_functional(hs, psi, tol=tol))
        assert exc.value.name == "tolerance"


def test_completion_absorbs_leftover_dimensions(rng):
    psi, hs = decoherent_fixture(rng, d=6, k=2)
    rs = construct_records(decoherence_functional(hs, psi))
    total = sum(r.entries for r in rs.members)
    assert np.abs(total - np.eye(hs.dim)).max() < 1e-12
    assert rs.completion_index == min(
        i for i in range(hs.size)
        if np.linalg.norm(branch_matrix(hs, psi)[:, i]) > 1e-12)


@given(seed=st.integers(0, 2**32 - 1), fixture=st.sampled_from(["diagonal", "decoherent"]),
       shuffle=st.booleans(), other_state=st.booleans())
@settings(max_examples=40, deadline=None)
def test_record_checks_skipping_zero_records_match_loops(seed, fixture, shuffle, other_state):
    """Both defects and the correlation's record probabilities equal, to the
    last bit, the ones from a product per record. Shuffled records put zero
    records on nonzero branches, and another state moves every branch, so
    the skipped records' defects are not all ~0."""
    rng = np.random.default_rng(seed)
    if fixture == "diagonal":
        psi, hs = diagonal_fixture(rng, d=int(rng.integers(3, 7)))
    else:
        psi, hs = decoherent_fixture(rng)
    rs = construct_records(decoherence_functional(hs, psi))
    assert any(not r.entries.any() for r in rs.members)
    if shuffle:
        rs = RecordSet(tuple(rs.members[i] for i in rng.permutation(rs.size)),
                       rs.time, rs.completion_index)
    if other_state:
        psi = random_state(rng, hs.dim)
    for fast, slow in ((verify_strong_records, verify_strong_records_loop),
                       (verify_weak_records, verify_weak_records_loop)):
        assert repr(fast(decoherence_functional(hs, psi), rs)) == repr(slow(hs, psi, rs))
    corr = record_correlation_report(decoherence_functional(hs, psi), rs)
    assert corr.record_probs.tobytes() == record_probs_loop(psi, rs).tobytes()
    # the zero records were found once, when the set was validated
    assert vars(rs)["_nonzero"].tolist() == [bool(r.entries.any()) for r in rs.members]


def test_records_at_the_history_cap(rng):
    """M_CAP histories over d=32: three slots of 16 rank-2 members over one
    shared basis. A history's branch is nonzero only if some basis vector
    lies in all three of its members, so at most 32 records are nonzero; the
    zero records share one read-only array."""
    d, basis = 32, haar_basis(rng, 32)
    slots, owner = [], []
    for t in range(3):
        groups = rng.permutation(d).reshape(16, 2)
        members = tuple(
            Projector(sum(np.outer(basis[i], basis[i].conj()) for i in g), label=f"t{t}g{k}")
            for k, g in enumerate(groups))
        slots.append(ProjectorSet(members, time=float(t + 1)))
        owner.append(np.argsort(groups.ravel()) // 2)   # basis vector -> member
    hs = HistorySet(tuple(slots))
    psi = random_state(rng, d)
    assert hs.size == M_CAP
    live = {flatten_index([o[k] for o in owner], hs.shape) for k in range(d)}

    report = decoherence_functional(hs, psi)
    rs = construct_records(report)
    assert verify_strong_records(report, rs) <= DEFAULT_DEC_TOL
    assert verify_weak_records(report, rs) <= DEFAULT_DEC_TOL
    assert record_correlation_report(report, rs).max_defect < DEFAULT_DEC_TOL
    assert validate_projector_set(rs).passes
    ranks = [r.rank for r in rs.members]
    assert sum(ranks) == d
    assert {i for i, r in enumerate(ranks) if r > 0} == live
    assert ranks.count(0) == M_CAP - len(live)
    zero = next(r.entries for r in rs.members if r.rank == 0)
    assert all(r.entries is zero for r in rs.members if r.rank == 0)
    assert not zero.flags.writeable and zero.dtype == np.complex128 and not zero.any()


def _standard_basis_records(d):
    """(history set, records built from a fresh report, tracemalloc peak of
    building both): three slots of the d standard-basis projectors."""
    members = tuple(Projector(np.diag(np.eye(d)[i]), label=f"e{i}") for i in range(d))
    hs = HistorySet(tuple(ProjectorSet(members, time=float(t + 1)) for t in range(3)))
    psi = random_state(np.random.default_rng(d ** 3), d)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rs = construct_records(decoherence_functional(hs, psi))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return hs, rs, peak


def test_construct_records_peak_memory():
    """At m = 512 deciding holds row bands of b^dag b, each within 1 MiB,
    beside the branches and their conjugate; the report's functional is
    never built, and the records cost less. (The bound is from when deciding
    held a whole Gram matrix and its modulus, 1.5 functionals.)"""
    hs, rs, peak = _standard_basis_records(8)
    branch_bytes = hs.dim * hs.size * 16
    assert rs.size == hs.size == 512
    assert peak <= 1.5 * 512 * 512 * 16 + 2 * branch_bytes


def test_construct_records_at_the_cap_builds_no_m_by_m_array():
    """At m = 4096 deciding and building the records peak under 1/32 of one
    functional: the offender scan holds one 1 MiB band of b^dag b at a time
    (a whole Gram matrix and its modulus took 1.5 functionals)."""
    hs, rs, peak = _standard_basis_records(16)
    assert rs.size == hs.size == M_CAP
    assert peak < M_CAP * M_CAP * 16 / 32
