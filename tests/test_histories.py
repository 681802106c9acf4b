import tracemalloc
from pathlib import Path

import ephist.histories
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ephist import (
    DEFAULT_DEC_TOL,
    CapExceeded,
    DecoherenceReport,
    DimensionMismatch,
    HermitianOperator,
    HistorySet,
    InvariantViolation,
    Projector,
    ProjectorSet,
    all_extended_probabilities,
    branch_matrix,
    build_history_set,
    build_state,
    dec_measure,
    decoherence_functional,
    load_model,
    offdiagonal_offenders,
)
from conftest import FLOAT_PARTS, diagonal_fixture, random_model, random_slot, random_state
from oracles import (
    branch_vector,
    chain_amplitude,
    class_operator,
    decoherence_functional_eager,
    dh_ep_difference,
    dh_probability,
    extended_probability,
    flatten_index,
    functional_sum,
    history_label,
    offdiagonal_offenders_list,
    offdiagonal_offenders_loop,
    offender_pairs,
    unflatten_index,
)


def _model_of_shape(rng, shape, d=4):
    """Random state and Haar-split slots with the given member counts."""
    slots = tuple(random_slot(rng, d, t + 1.0, k=k) for t, k in enumerate(shape))
    return random_state(rng, d), HistorySet(slots)


def _assert_flat_order(hs, psi):
    """Column f of branch_matrix and label f of history_labels belong to the
    history the oracle loop unflattens f into."""
    b = branch_matrix(hs, psi)
    labels = hs.history_labels()
    assert b.shape == (hs.dim, hs.size) and len(labels) == hs.size
    for f in range(hs.size):
        comps = unflatten_index(f, hs.shape)
        assert np.allclose(b[:, f], class_operator(hs, comps) @ psi.amplitudes, atol=1e-13)
        assert labels[f] == history_label(hs, comps)


@given(st.lists(st.integers(2, 5), min_size=1, max_size=4), st.data())
@settings(max_examples=50, deadline=None)
def test_flatten_unflatten_round_trip(shape, data):
    comps = tuple(data.draw(st.integers(0, s - 1)) for s in shape)
    flat = flatten_index(comps, shape)
    assert 0 <= flat < int(np.prod(shape))
    assert unflatten_index(flat, shape) == comps
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    psi, hs = _model_of_shape(rng, shape, d=max(shape))
    b = branch_matrix(hs, psi)
    assert np.allclose(b[:, flat], class_operator(hs, comps) @ psi.amplitudes, atol=1e-13)
    assert hs.history_labels()[flat] == history_label(hs, comps)


def test_flat_order_earliest_time_fastest(rng):
    # slot sizes 2 then 3: flat = a1 + 2 * a2
    shape = (2, 3)
    seen = [flatten_index((a1, a2), shape) for a2 in range(3) for a1 in range(2)]
    assert seen == list(range(6))
    assert flatten_index((1, 2), shape) == 5
    assert flatten_index((1, 0, 2), (2, 1, 3)) == 5   # a single-member slot adds no digit
    for shape in [(2, 3), (2, 1, 3), (3, 1), (1, 4)]:
        psi, hs = _model_of_shape(rng, shape)
        _assert_flat_order(hs, psi)


def two_slot_qubit():
    plus = np.array([1.0, 1.0]) / np.sqrt(2)
    minus = np.array([1.0, -1.0]) / np.sqrt(2)
    s1 = ProjectorSet((Projector(np.diag([1.0, 0.0]), "0"),
                       Projector(np.diag([0.0, 1.0]), "1")), time=1.0)
    s2 = ProjectorSet((Projector(np.outer(plus, plus), "+"),
                       Projector(np.outer(minus, minus), "-")), time=2.0)
    return HistorySet((s1, s2))


def test_class_operator_latest_time_leftmost(rng):
    hs = two_slot_qubit()
    comps = (0, 1)   # "0" at t1, "-" at t2
    p1 = hs.slots[0].members[0].entries
    p2 = hs.slots[1].members[1].entries
    assert np.allclose(class_operator(hs, comps), p2 @ p1)
    assert not np.allclose(class_operator(hs, comps), p1 @ p2)
    psi = random_state(rng, 2)
    column = branch_matrix(hs, psi)[:, flatten_index(comps, hs.shape)]
    assert np.allclose(column, p2 @ p1 @ psi.amplitudes)
    assert not np.allclose(column, p1 @ p2 @ psi.amplitudes)


def test_history_set_validation():
    slot = ProjectorSet((Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))), 1.0)
    later = ProjectorSet(slot.members, 0.5)
    with pytest.raises(InvariantViolation):
        HistorySet((slot, later))   # times must strictly increase
    with pytest.raises(InvariantViolation):
        HistorySet(())
    slot3 = ProjectorSet((Projector(np.eye(3)),), 2.0)
    with pytest.raises(DimensionMismatch):
        HistorySet((slot, slot3))


def test_labels_and_history_label():
    hs = two_slot_qubit()
    assert hs.labels == (("0", "1"), ("+", "-"))
    assert hs.history_labels()[flatten_index((1, 0), hs.shape)] == "1,+"
    assert hs.history_labels() == ("0,+", "1,+", "0,-", "1,-")


def test_chain_amplitude_routes_agree(rng):
    psi, hs = random_model(rng)
    _assert_flat_order(hs, psi)
    for f in range(hs.size):
        comps = unflatten_index(f, hs.shape)
        c = class_operator(hs, comps)
        z = np.vdot(psi.amplitudes, c @ psi.amplitudes)
        assert abs(chain_amplitude(hs, comps, psi) - z) < 1e-12
        assert abs(extended_probability(hs, comps, psi) - z.real) < 1e-12
        v = branch_vector(hs, comps, psi)
        assert abs(dh_probability(hs, comps, psi) - np.linalg.norm(v) ** 2) < 1e-12


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_sum_rule_random_models(seed):
    rng = np.random.default_rng(seed)
    psi, hs = random_model(rng)
    ep = all_extended_probabilities(hs, psi)
    assert abs(ep.sum() - 1.0) <= 1e-12


def test_all_extended_probabilities_matches_loop(rng):
    psi, hs = random_model(rng)
    ep = all_extended_probabilities(hs, psi)
    for f in range(hs.size):
        assert abs(ep[f] - extended_probability(hs, unflatten_index(f, hs.shape), psi)) < 1e-14


def test_functional_structure(rng):
    psi, hs = random_model(rng)
    rep = decoherence_functional(hs, psi)
    d = rep.functional
    assert np.array_equal(d, d.conj().T)          # Hermitian by construction, exactly
    assert np.abs(np.diag(d).imag).max() == 0.0
    assert abs(d.trace().real - 1.0) < 1e-12
    assert np.abs(np.diag(d).real - rep.dh_probs).max() < 1e-14
    # row sums recover extended probabilities: sum_beta D(beta, alpha) = <psi|Psi_alpha>
    assert np.abs(d.sum(axis=0).real - rep.ep_probs).max() < 1e-12
    # functional.csv formats the upper triangle only and mirrors its text, so
    # the real parts are bit-symmetric and a nonzero imaginary part is
    # exactly the negation of its mirror
    bits = d.real.view(np.uint64)
    assert np.array_equal(bits, bits.T)
    nonzero = d.imag != 0.0
    assert np.array_equal(d.imag[nonzero], -d.imag.T[nonzero])
    # so |D| is bit-symmetric too, and the offender scan's upper triangle
    # holds every off-diagonal magnitude max_offdiagonal reads
    mag = np.abs(d).view(np.uint64)
    assert np.array_equal(mag, mag.T)


def _standard_basis_model(rng, d, n, k=None):
    """Slots that split the standard basis into k groups (one count per slot
    when k is a tuple; drawn from 2..d when not given): every chain is a
    coordinate projector, exactly zero when its groups do not meet, so many
    branches and cross terms are exact zeros."""
    ks = k if isinstance(k, tuple) else (k,) * n
    slots = []
    for t in range(n):
        kt = int(ks[t] or rng.integers(2, d + 1))
        cuts = np.sort(rng.choice(np.arange(1, d), size=kt - 1, replace=False))
        members = [Projector(np.diag(np.isin(np.arange(d), g).astype(float)), label=f"g{gi}")
                   for gi, g in enumerate(np.split(rng.permutation(d), cuts))]
        slots.append(ProjectorSet(tuple(members), time=float(t + 1)))
    return random_state(rng, d), HistorySet(tuple(slots))


FUNCTIONAL_MODELS = {
    "random": lambda rng: random_model(rng),
    "standard-basis": lambda rng: _standard_basis_model(rng, 6, 3),
    "haar-512": lambda rng: _model_of_shape(rng, (8, 8, 8), d=8),
    "standard-basis-512": lambda rng: _standard_basis_model(rng, 8, 3, k=8),
}


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(FUNCTIONAL_MODELS)))
@example(seed=44, kind="standard-basis")
@settings(max_examples=60, deadline=None)
def test_functional_in_place_has_the_bits_of_the_sum(seed, kind):
    """The in-place assembly gives the three-term sum's bytes, signed zeros
    included, at m = 512 and with exactly zero branches."""
    psi, hs = FUNCTIONAL_MODELS[kind](np.random.default_rng(seed))
    functional = decoherence_functional(hs, psi).functional
    assert functional.tobytes() == functional_sum(hs, psi).tobytes()


READINGS = ("functional", "dec", "ep_probs", "dh_probs", "max_offdiagonal",
            "linearly_positive", "tolerance")


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(FUNCTIONAL_MODELS)),
       tol=st.sampled_from([0.0, DEFAULT_DEC_TOL, 1e-3, 0.5]))
@settings(max_examples=60, deadline=None)
def test_derived_readings_match_the_eager_report(seed, kind, tol):
    """Every reading the report derives has the bytes, or the value and type,
    the eager report stored, at m = 512 and with exactly zero branches."""
    psi, hs = FUNCTIONAL_MODELS[kind](np.random.default_rng(seed))
    report = decoherence_functional(hs, psi, tol)
    eager = decoherence_functional_eager(hs, psi, tol)
    for name in READINGS:
        got, want = getattr(report, name), getattr(eager, name)
        if isinstance(want, np.ndarray):
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape,
                                                             want.tobytes()), name
        else:
            assert (type(got), got) == (type(want), want), name


def test_readings_are_derived_once_on_first_use(monkeypatch):
    """decoherence_functional computes no reading; dh_probs, the offenders, dec
    and max_offdiagonal build no functional and call no dec_measure, and dec and
    max_offdiagonal come from one |D|; the functional is built on its first
    read, and every reading is kept."""
    calls, moduli = [], []

    def counted(functional):
        calls.append(functional)
        return dec_measure(functional)

    def counted_modulus(report):
        moduli.append(report)
        return modulus(report)

    modulus = DecoherenceReport._modulus
    monkeypatch.setattr(ephist.histories, "dec_measure", counted)
    monkeypatch.setattr(DecoherenceReport, "_modulus", counted_modulus)
    psi, hs = random_model(np.random.default_rng(9))
    report = decoherence_functional(hs, psi)
    assert calls == [] and set(vars(report)) == {"history_set", "psi", "tolerance", "branches"}
    dh = report.dh_probs
    assert report.dh_probs is dh and not dh.flags.writeable
    assert isinstance(report.medium_decoherent, bool)
    assert report.dec == report.dec and report.max_offdiagonal == report.max_offdiagonal
    assert len(moduli) == 1 and calls == []
    assert "functional" not in vars(report)
    assert report.functional is report.functional is vars(report)["functional"]


def test_functional_has_no_negative_zero_off_the_diagonal():
    """This model's Gram matrix has -0.0 in its upper triangle; the sum of the
    triangles and the diagonal turned it into 0.0, and so does the assembly."""
    psi, hs = _standard_basis_model(np.random.default_rng(44), 6, 3)
    b = branch_matrix(hs, psi)
    upper = np.triu(b.conj().T @ b, 1)
    assert any(np.signbit(part[part == 0.0]).any() for part in (upper.real, upper.imag))
    functional = decoherence_functional(hs, psi).functional
    for part in (functional.real, functional.imag):
        assert not np.signbit(part[part == 0.0]).any()


def _traced_peak(read):
    """(read(), the tracemalloc peak of the call above what was traced before it)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        value = read()
        return value, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


FUNCTIONAL_512 = 512 * 512 * 16   # bytes of one m = 512 functional


def test_report_without_its_functional_holds_no_m_by_m_array():
    """At m = 512 the report and its EPs and dh cost under 1/16 of a functional,
    and reading them builds none."""
    psi, hs = _model_of_shape(np.random.default_rng(512), (8, 8, 8), d=8)

    def read():
        report = decoherence_functional(hs, psi)
        report.ep_probs, report.dh_probs
        return report

    report, peak = _traced_peak(read)
    assert peak < FUNCTIONAL_512 / 16
    assert "functional" not in vars(report)


def test_offenders_read_after_the_functional_scan_it():
    """Offenders read after the functional is built are the records a fresh
    report finds: both scan the same row bands of b^dag b, never the built
    functional, at a peak under one functional (a second Gram beside it
    took 1.5)."""
    psi, hs = _model_of_shape(np.random.default_rng(512), (8, 8, 8), d=8)
    fresh = decoherence_functional(hs, psi).offenders
    report = decoherence_functional(hs, psi)
    report.functional
    offenders, peak = _traced_peak(lambda: report.offenders)
    assert len(offenders) and offenders.tobytes() == fresh.tobytes()
    assert peak < FUNCTIONAL_512


def _decohere_readings(report):
    """What ephist decohere reads, in its order: (dec, max_offdiagonal) first."""
    readings = (report.dec, report.max_offdiagonal)
    rows = b"".join(row.tobytes() for row in report.upper_rows())
    report.dh_probs, report.ep_probs, report.linearly_positive, report.medium_decoherent
    return readings, rows


def _assert_either_read_order(hs, psi):
    """dec and max_offdiagonal read with no functional (off Gram bands) have the
    bits of those read after it; so do the upper rows and the functional's."""
    fresh = decoherence_functional(hs, psi)
    (dec, mx), rows = _decohere_readings(fresh)
    assert "functional" not in vars(fresh)
    later = decoherence_functional(hs, psi)
    f = later.functional
    assert np.array([dec, mx]).tobytes() == np.array([later.dec, later.max_offdiagonal]).tobytes()
    assert rows == b"".join(f[i, i:].tobytes() for i in range(len(f)))


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(FUNCTIONAL_MODELS)))
@settings(max_examples=40, deadline=None)
def test_readings_have_the_same_bits_in_either_read_order(seed, kind):
    """Random models, at m = 512 and with exactly zero branches."""
    psi, hs = FUNCTIONAL_MODELS[kind](np.random.default_rng(seed))
    _assert_either_read_order(hs, psi)


def test_readings_have_the_same_bits_in_either_read_order_at_m_2048():
    """Two standard-basis slots of 16 singletons, then a Haar slot of 8 at d = 16:
    240 of every 256 branches are exactly zero, the rest interfere."""
    rng = np.random.default_rng(2048)
    psi, hs = _standard_basis_model(rng, 16, 2, k=16)
    hs = HistorySet(hs.slots + (random_slot(rng, 16, 3.0, k=8),))
    assert hs.size == 2048
    assert (~branch_matrix(hs, psi).any(axis=0)).sum() == 1920
    _assert_either_read_order(hs, psi)


@pytest.mark.parametrize("d", [2, 16, 32])
@pytest.mark.parametrize("m", [9, 384, 1000, 4096])
def test_aligned_gram_bands_have_the_bits_of_the_full_product(m, d):
    """The offender scan's premise, on the installed numpy and BLAS: a band
    b[:, r:r+R]^dag b[:, r:] whose first row is a multiple of 16 has the bits
    of its slice of b^dag b on and above the diagonal. Checked with the
    report's R and with R = 16, short last bands included. (Bands from rows
    that are not multiples of 4 were seen to differ in last bits.)"""
    rng = np.random.default_rng(m * d)
    b = rng.normal(size=(d, m)) + 1j * rng.normal(size=(d, m))
    full = b.conj().T @ b
    report_rows = max(16, ephist.histories._BAND_CELLS // m // 16 * 16)   # the report's R
    for rows in sorted({16, report_rows}):
        for r in range(0, m, rows):
            band = b[:, r:r + rows].conj().T @ b[:, r:]
            assert np.array_equal(np.triu(band).view(np.uint64),
                                  np.triu(full[r:r + rows, r:]).view(np.uint64)), (rows, r)


@pytest.mark.parametrize("shape", [(2, 5, 13), (8, 8, 6), (10, 10, 10), (10, 10, 15)])
def test_offenders_are_the_scan_of_the_functional_in_either_read_order(shape):
    """The banded offenders have the bytes offdiagonal_offenders gives on the
    whole functional, at m = 130, 384, 1000 and 1500, whether the functional
    was read before them or after."""
    psi, hs = _model_of_shape(np.random.default_rng(sum(shape)), shape, d=16)
    first = decoherence_functional(hs, psi)
    offenders = first.offenders
    assert "functional" not in vars(first)
    later = decoherence_functional(hs, psi)
    want = offdiagonal_offenders(later.functional, later.tolerance)
    assert len(want) and isinstance(offenders, np.recarray) and offenders.dtype == want.dtype
    assert offenders.tobytes() == later.offenders.tobytes() == want.tobytes()


def test_offenders_keep_ties_in_row_major_order_across_bands(monkeypatch):
    """qubit_a's x and y slots three times over (m = 64) give exactly tied
    magnitudes; with 16-row bands the ties cross band boundaries, and the
    one stable sort still lists them in row-major order."""
    doc = load_model(Path(__file__).resolve().parent.parent / "models" / "qubit_a.model")
    x, y = build_history_set(doc).slots
    hs = HistorySet(tuple(ProjectorSet(s.members, time=float(t + 1))
                          for t, s in enumerate((x, y) * 3)))
    monkeypatch.setattr(ephist.histories, "_BAND_CELLS", 0)   # R = 16: four bands
    report = decoherence_functional(hs, build_state(doc))
    offenders = report.offenders
    assert hs.size == 64
    tied = [offenders.alpha[offenders.magnitude == mag] // 16
            for mag in np.unique(offenders.magnitude)]
    assert any(len(np.unique(bands)) > 1 for bands in tied)
    assert offenders.tobytes() == offdiagonal_offenders(report.functional,
                                                        report.tolerance).tobytes()


def test_offenders_merge_their_bands_in_one_copy():
    """At m = 2048 (261,119 offenders) the merge of the band records holds
    their concatenation, one stable order and one field at a time: a peak of
    at most 2.1 times the records' bytes (sorting into a second record array
    took 2.34)."""
    psi, hs = _model_of_shape(np.random.default_rng(2048), (16, 16, 8), d=16)
    report = decoherence_functional(hs, psi)
    report.dh_probs
    offenders, peak = _traced_peak(lambda: report.offenders)
    assert len(offenders) > 10 ** 5
    assert peak <= 2.1 * offenders.nbytes


def _padded_slot(rng, d: int, t: float, k: int) -> ProjectorSet:
    """k members at dimension d: a Haar split into min(k, d) groups, then zeros."""
    members = random_slot(rng, d, t, k=min(k, d)).members
    zeros = tuple(Projector(np.zeros((d, d)), label=f"z{i}") for i in range(k - len(members)))
    return ProjectorSet(members + zeros, time=t)


@pytest.mark.parametrize("d", [2, 16, 32])
@pytest.mark.parametrize("shape", [(17,), (10, 10, 10)])
def test_functional_has_the_eager_bytes_across_bands(shape, d):
    """The functional assembled from 16-row bands, the last one short (m = 17
    and 1000), has the eager report's bytes whether it is read before the
    upper rows or after them, and the upper rows have its rows' bytes."""
    rng = np.random.default_rng(d * len(shape))
    psi = random_state(rng, d)
    hs = HistorySet(tuple(_padded_slot(rng, d, t + 1.0, k) for t, k in enumerate(shape)))
    want = decoherence_functional_eager(hs, psi).functional
    want_rows = b"".join(want[i, i:].tobytes() for i in range(hs.size))
    before = decoherence_functional(hs, psi)
    functional = before.functional
    assert b"".join(row.tobytes() for row in before.upper_rows()) == want_rows
    after = decoherence_functional(hs, psi)
    assert b"".join(row.tobytes() for row in after.upper_rows()) == want_rows
    for got in (functional, after.functional):
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -float("inf"), -1e-9])
def test_offenders_reject_a_bad_tolerance(tol):
    """NaN and inf tolerances would find no offender in a functional that
    does not decohere; they raise, as a negative one does."""
    with pytest.raises(InvariantViolation) as exc:
        offdiagonal_offenders(np.array([[0.5, 0.5], [0.5, 0.5]]), tol)
    assert exc.value.name == "tolerance" and exc.value.exit_status == 3


def test_functional_peak_memory():
    """At m = 512 the first read of the functional holds one buffer, which it
    fills from 16-row bands and mirrors in place: a peak of no more than 1.1
    functionals."""
    psi, hs = _model_of_shape(np.random.default_rng(512), (8, 8, 8), d=8)
    report = decoherence_functional(hs, psi)
    functional, peak = _traced_peak(lambda: report.functional)
    assert functional.shape == (512, 512)
    assert peak <= 1.1 * FUNCTIONAL_512


def test_functional_has_the_eager_bytes_at_m_2048_with_zero_branches():
    """The one-buffer assembly gives the eager report's bytes beyond m = 512
    (test_derived_readings_match_the_eager_report covers smaller sets)."""
    psi, hs = _standard_basis_model(np.random.default_rng(2048), 16, 3, k=(16, 16, 8))
    report = decoherence_functional(hs, psi)
    assert hs.size == 2048 and not np.linalg.norm(report.branches, axis=0).all()
    want = decoherence_functional_eager(hs, psi).functional
    # the bytes compared as 64-bit words: no 64 MiB tobytes() copies
    assert np.array_equal(report.functional.view(np.uint64), want.view(np.uint64))


def test_report_keeps_the_functional_it_was_given():
    """The functional the report builds is one frozen buffer, kept by the
    report and by HermitianOperator."""
    psi, hs = random_model(np.random.default_rng(5))
    report = decoherence_functional(hs, psi)
    functional = report.functional
    assert not functional.flags.writeable and functional.base is None
    assert report.functional is functional
    assert HermitianOperator(functional).entries is functional


def test_report_builds_its_branches_once_read_only():
    """The report's branch matrix is built with the report, owns its data,
    cannot be written and has branch_matrix's bytes."""
    psi, hs = random_model(np.random.default_rng(5))
    report = decoherence_functional(hs, psi)
    assert "branches" in vars(report)
    branches = report.branches
    assert report.branches is branches
    assert not branches.flags.writeable and branches.base is None
    assert branches.tobytes() == branch_matrix(hs, psi).tobytes()


def _writable(x):
    return x, x


def _read_only_view(x):
    view = x[:, :]
    view.setflags(write=False)
    return view, x


def _read_only_fortran(x):
    f = np.asfortranarray(x)
    f.setflags(write=False)
    return f, f


@pytest.mark.parametrize("handed", [_writable, _read_only_view, _read_only_fortran])
@pytest.mark.parametrize("keep", [lambda a: HermitianOperator(a).entries],
                         ids=["HermitianOperator"])
def test_arrays_a_caller_can_still_write_are_copied(handed, keep):
    """A writable array, a view of one and a Fortran-order array are copied:
    writing through what the caller holds afterwards changes nothing."""
    given, owner = handed(np.array([[1.0, 2j], [-2j, 3.0]]))
    kept = keep(given)
    assert kept is not given and not kept.flags.writeable
    owner.setflags(write=True)
    owner[0, 0] = 7.0
    assert kept.tolist() == [[1.0, 2j], [-2j, 3.0]]


def test_dh_ep_difference_dual_route(rng):
    psi, hs = random_model(rng)
    rep = decoherence_functional(hs, psi)
    d = rep.functional
    for flat in range(hs.size):
        direct = dh_ep_difference(hs, unflatten_index(flat, hs.shape), psi)
        via_functional = -(d[:, flat].sum() - d[flat, flat]).real
        assert abs(direct - via_functional) < 1e-12
        assert abs(direct - (rep.dh_probs[flat] - rep.ep_probs[flat])) < 1e-12


def test_decoherence_flags(rng):
    psi, hs = diagonal_fixture(rng)
    rep = decoherence_functional(hs, psi, tol=1e-10)
    assert rep.medium_decoherent
    assert rep.max_offdiagonal <= 1e-12
    assert rep.linearly_positive     # decoherent => EP = DH >= 0
    assert dec_measure(rep.functional) <= 1e-12


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-8])
def test_decoherence_functional_rejects_bad_tolerance(rng, tol):
    """A NaN tolerance would fail every |D| <= tol comparison silently."""
    psi, hs = diagonal_fixture(rng)
    with pytest.raises(InvariantViolation) as exc:
        decoherence_functional(hs, psi, tol=tol)
    assert exc.value.name == "tolerance"
    assert exc.value.exit_status == 3


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
def test_report_rejects_bad_tolerance_when_built(rng, tol):
    """A report built directly checks its tolerance as decoherence_functional does."""
    psi, hs = diagonal_fixture(rng)
    with pytest.raises(InvariantViolation) as exc:
        DecoherenceReport(hs, psi, tol)
    assert exc.value.name == "tolerance"


def test_offenders_sorted_and_thresholded(rng):
    psi, hs = random_model(rng, d_max=4, n_max=2)
    rep = decoherence_functional(hs, psi)
    offenders = offender_pairs(offdiagonal_offenders(rep.functional, tol=1e-6))
    mags = [m for _, m in offenders]
    assert mags == sorted(mags, reverse=True)
    assert all(m > 1e-6 for m in mags)
    assert all(a < b for (a, b), _ in offenders)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_offenders_match_loop_oracle(data):
    m = data.draw(st.integers(1, 7), label="m")
    parts = data.draw(st.lists(FLOAT_PARTS, min_size=2 * m * m, max_size=2 * m * m), label="parts")
    functional = np.array(parts).view(complex).reshape(m, m)
    tol = data.draw(st.one_of(st.sampled_from([0.0, 0.25, 0.5]), st.floats(0.0, 1e300)),
                    label="tol")
    offenders = repr(offender_pairs(offdiagonal_offenders(functional, tol)))
    assert offenders == repr(offdiagonal_offenders_loop(functional, tol))
    assert offenders == repr(offdiagonal_offenders_list(functional, tol))


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_abs_is_one_modulus_for_every_layout(data):
    """np.abs gives each cell one value: the scalar call, the whole array,
    its transpose, Fortran order, forward strides and the conjugate agree
    bit for bit. The decoherence decision and the reported magnitudes rely
    on it. (A reversed 1-D view takes numpy's hypot loop instead; the
    engine never hands np.abs one.)"""
    m = data.draw(st.integers(1, 6), label="m")
    parts = data.draw(st.lists(FLOAT_PARTS, min_size=2 * m * m, max_size=2 * m * m), label="parts")
    z = np.array(parts).view(complex).reshape(m, m)
    mag = np.abs(z)
    scalar = np.array([[np.abs(c) for c in row] for row in z.tolist()])
    for same in (scalar, np.abs(z.conj()), np.abs(z.T).T, np.abs(np.asfortranarray(z))):
        assert np.array_equal(same.view(np.uint64), mag.view(np.uint64))
    assert np.array_equal(np.abs(z[::2, ::3]).view(np.uint64), mag[::2, ::3].view(np.uint64))
    flat = z.ravel()
    assert np.array_equal(np.abs(flat[::2]).view(np.uint64), mag.ravel()[::2].view(np.uint64))


def test_branch_matrix_cap():
    psi = random_state(np.random.default_rng(0), 2)
    slots = tuple(
        ProjectorSet((Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))), float(t))
        for t in range(1, 14))
    hs = HistorySet(slots)   # 2**13 histories, past M_CAP
    with pytest.raises(CapExceeded) as exc:
        branch_matrix(hs, psi)
    assert exc.value.exit_status == 5


def test_state_dimension_checked(rng):
    psi, hs = random_model(rng, d_max=3)
    bad = random_state(rng, hs.dim + 1)
    with pytest.raises(DimensionMismatch):
        all_extended_probabilities(hs, bad)
