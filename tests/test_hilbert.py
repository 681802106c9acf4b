import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ephist import (
    DimensionMismatch,
    EvolutionSpec,
    HermitianOperator,
    InvariantViolation,
    Projector,
    ProjectorSet,
    ProjectorSetReport,
    StateVector,
    heisenberg_projector,
    hermitian_exponential,
    projector_set_from_basis,
    rank_one_projector,
    validate_projector_set,
)
from ephist import hilbert
from conftest import haar_basis, random_slot, random_state
from oracles import validate_projector_set_loop


def random_hermitian(rng, d):
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianOperator((z + z.conj().T) / 2)


def expm_taylor(a):
    """Scaled-squaring Taylor exponential; independent oracle for expm."""
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    m = a / (2 ** s)
    term = np.eye(a.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 40):
        term = term @ m / k
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


def test_state_vector_validates_norm():
    StateVector(np.array([1.0, 0.0]))
    with pytest.raises(InvariantViolation):
        StateVector(np.array([1.0, 0.5]))


def test_state_vector_rejects_a_matrix():
    with pytest.raises(DimensionMismatch, match="expected a vector"):
        StateVector(np.eye(2))


def test_validate_rejects_mixed_dimensions():
    members = (Projector(np.eye(2)), Projector(np.eye(3)))
    with pytest.raises(DimensionMismatch, match="mixed dimensions"):
        validate_projector_set(members)


def test_state_vector_is_read_only():
    s = StateVector(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_constructors_reject_non_finite(bad):
    with pytest.raises(InvariantViolation):
        StateVector(np.array([bad, 0.0]))
    with pytest.raises(InvariantViolation):
        Projector(np.array([[bad, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvariantViolation):
        HermitianOperator(np.array([[bad, 0.0], [0.0, 0.0]]))
    with pytest.raises(InvariantViolation):
        EvolutionSpec(unitaries={1.0: np.array([[bad, 0.0], [0.0, 1.0]])})
    for make_set in (lambda: ProjectorSet((Projector(np.eye(2)),), time=bad),
                     lambda: projector_set_from_basis(np.eye(2), time=bad)):
        with pytest.raises(InvariantViolation, match="'finite-time'"):
            make_set()


EMPTY_ARRAY_CALLS = {
    "StateVector": lambda: StateVector(np.zeros(0)),
    "Projector": lambda: Projector(np.zeros((0, 0))),
    "ProjectorSet": lambda: ProjectorSet((Projector(np.zeros((0, 0))),), time=1.0),
    "EvolutionSpec": lambda: EvolutionSpec(unitaries={1.0: np.zeros((0, 0))}),
    "hermitian_exponential": lambda: hermitian_exponential(
        HermitianOperator(np.zeros((0, 0))), 1.0),
}


@pytest.mark.parametrize("kind", EMPTY_ARRAY_CALLS)
def test_empty_arrays_are_a_dimension_mismatch(kind):
    """A zero-dimensional vector or matrix is refused where it is frozen,
    before any check that would reduce over no entries."""
    with pytest.raises(DimensionMismatch, match="nonempty"):
        EMPTY_ARRAY_CALLS[kind]()


# Non-finite in either part, or finite but huge. The huge entry is complex
# because a huge real entry on a Hermitian matrix's diagonal is valid.
BAD_ENTRIES = st.sampled_from([np.nan, np.inf, -np.inf, complex(0.0, np.nan),
                               complex(0.0, -np.inf), 1e308 * (1 + 1j)])


def _spoil(entries, position, bad):
    """A copy of entries with the entry at flat position (mod size) set to bad."""
    out = np.array(entries, dtype=np.complex128)
    out.flat[position % out.size] = bad
    return out


SPOILED_CONSTRUCTORS = {
    "StateVector": lambda rng, d, at, bad: StateVector(
        _spoil(random_state(rng, d).amplitudes, at, bad)),
    "HermitianOperator": lambda rng, d, at, bad: HermitianOperator(
        _spoil(random_hermitian(rng, d).entries, at, bad)),
    "Projector": lambda rng, d, at, bad: Projector(
        _spoil(random_slot(rng, d, 1.0).members[0].entries, at, bad)),
    "ProjectorSet": lambda rng, d, at, bad: ProjectorSet(
        tuple(Projector(m) for m in _spoil([p.entries for p in random_slot(rng, d, 1.0).members],
                                           at, bad)), time=1.0),
    "EvolutionSpec": lambda rng, d, at, bad: EvolutionSpec(
        unitaries={1.0: _spoil(haar_basis(rng, d), at, bad)}),
}


@pytest.mark.parametrize("kind", SPOILED_CONSTRUCTORS)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), position=st.integers(0, 63),
       bad=BAD_ENTRIES)
@settings(max_examples=60, deadline=None)
def test_constructor_rejects_bad_entry_anywhere(kind, seed, d, position, bad):
    with pytest.raises(InvariantViolation):
        SPOILED_CONSTRUCTORS[kind](np.random.default_rng(seed), d, position, bad)


def test_duplicate_member_cannot_double_the_sum_rule():
    """Two copies of diag(1, 0) would give extended probabilities summing to 2.
    No tolerance override exists to let such a set through."""
    p = Projector(np.diag([1.0, 0.0]))
    with pytest.raises(InvariantViolation) as exc:
        ProjectorSet((p, p), 1.0)
    assert exc.value.name == "projector-set"
    with pytest.raises(TypeError):
        ProjectorSet((p, p), 1.0, tol=1.0)
    with pytest.raises(TypeError):
        Projector(0.5 * np.eye(2), tol=1.0)
    with pytest.raises(TypeError):
        StateVector(np.array([2.0, 0.0]), tol=10.0)


@pytest.mark.parametrize("position", range(2))
def test_projector_set_report_worst_keeps_nan(position):
    defects = [0.0, 0.0]
    defects[position] = np.nan
    report = ProjectorSetReport(*defects)
    assert np.isnan(report.worst)
    assert not report.passes


def test_projector_rejects_non_idempotent():
    with pytest.raises(InvariantViolation):
        Projector(np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvariantViolation):
        Projector(np.array([[0.0, 1.0], [0.0, 0.0]]))   # not Hermitian


def test_zero_projector_skips_only_checks_it_passes_exactly():
    """An all-zero matrix, zeros of either sign, is exactly Hermitian and
    idempotent, so it is built without its checks, at rank 0. NaN counts as
    nonzero, so it and every nonzero matrix are still checked."""
    for zero in (np.zeros((3, 3)), np.full((3, 3), -0.0), np.full((3, 3), complex(-0.0, -0.0))):
        assert Projector(zero).rank == 0
    with pytest.raises(InvariantViolation, match="'projector-hermiticity'"):
        Projector(np.full((2, 2), np.nan))
    with pytest.raises(InvariantViolation, match="'projector-idempotency'"):
        Projector(np.array([[0.5, 0.0], [0.0, 0.0]]))


def test_rank_one_projector_normalizes():
    p = rank_one_projector([2.0, 0.0], "x")
    assert p.rank == 1
    assert np.allclose(p.entries, [[1, 0], [0, 0]])
    with pytest.raises(InvariantViolation):
        rank_one_projector([0.0, 0.0])


def test_validate_reports_set_defects_of_projectors():
    good = [Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))]
    assert validate_projector_set(good).passes
    # drop a member: completeness defect 1, so a broken set is reportable
    # without being constructible
    bad = validate_projector_set(good[:1])
    assert bad.completeness_defect == 1.0
    assert bad.exclusivity_defect == 0.0
    assert not bad.passes
    with pytest.raises(InvariantViolation):
        validate_projector_set([])


def test_projector_set_rejects_raw_matrix_members():
    """Only a Projector has proved itself Hermitian and idempotent, so a raw
    matrix is rejected by validate_projector_set and every set built on it."""
    p = Projector(np.diag([1.0, 0.0]))
    for members in ((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                    (p, np.diag([0.0, 1.0]))):
        for check in (lambda: ProjectorSet(members, 1.0),
                      lambda: validate_projector_set(members)):
            with pytest.raises(InvariantViolation) as exc:
                check()
            assert exc.value.name == "projector-member"
            assert exc.value.exit_status == 3


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5),
       zeros=st.lists(st.tuples(st.integers(0, 63), st.sampled_from([1.0, -1.0])), max_size=5))
@settings(max_examples=80, deadline=None)
def test_validate_skipping_zero_members_matches_loop(seed, d, zeros):
    """Every defect equals, to the last bit, the one from the scan over all pairs."""
    rng = np.random.default_rng(seed)
    members = list(random_slot(rng, d, 1.0).members)
    for position, sign in zeros:   # +0.0 and -0.0 entries
        members.insert(position % (len(members) + 1), Projector(sign * np.zeros((d, d))))
    fast, slow = validate_projector_set(members), validate_projector_set_loop(members)
    for name in ("completeness_defect", "exclusivity_defect"):
        assert repr(getattr(fast, name)) == repr(getattr(slow, name))


def _unchecked_projector(entries) -> Projector:
    """A Projector over entries it never checked (NaN and inf included)."""
    p = Projector(np.zeros(np.shape(entries)))
    object.__setattr__(p, "entries", np.array(entries, dtype=np.complex128))
    return p


@pytest.mark.parametrize("d", [1, 2, 16, 32, 48])
@pytest.mark.parametrize("run", [None, 1, 2, 3])
def test_validate_in_stacked_runs_matches_loop(d, run, monkeypatch):
    """Both defects equal, to the last bit, the loop over all pairs: with a
    zero member in every position, with NaN or inf entries in any nonzero
    member, and with runs of the module's budget or of run members, whose
    boundaries the pairs cross. At d = 1 (never stacked, and a sum along a
    stacked axis would turn pairwise) and d = 2 every run is one member."""
    if run:
        monkeypatch.setattr(hilbert, "_RUN_CELLS", run * d * d)
    rng = np.random.default_rng(d)
    slot = list(random_slot(rng, d, 1.0, k=min(d, 6)).members)
    overlapping = [rank_one_projector(rng.normal(size=d) + 1j * rng.normal(size=d))
                   for _ in range(3)]
    zero = Projector(np.zeros((d, d)))
    cases = []
    for members in (slot, slot + overlapping):
        cases += [members[:p] + [zero] + members[p:] for p in range(len(members) + 1)]
        for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
            for p, m in enumerate(members):
                spoiled = _unchecked_projector(_spoil(m.entries, 7 * p, bad))
                cases.append([zero] + members[:p] + [spoiled] + members[p + 1:])
    for members in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            fast, slow = validate_projector_set(members), validate_projector_set_loop(members)
        assert (repr((fast.completeness_defect, fast.exclusivity_defect))
                == repr((slow.completeness_defect, slow.exclusivity_defect)))
    pset = ProjectorSet(tuple(cases[1]), time=1.0)   # validated through its own zero mask
    assert repr(validate_projector_set(pset)) == repr(validate_projector_set_loop(pset))
    assert pset._nonzero.tolist() == [bool(m.entries.any()) for m in pset.members]


def test_exclusivity_keeps_a_nan_product():
    """A pair product holding a NaN makes the exclusivity defect NaN, in the
    engine and in the loop oracle, as ProjectorSetReport.worst keeps one; so
    does a zero member beside a NaN one (0 * nan is NaN), which the engine
    never multiplies."""
    spoiled = _unchecked_projector([[np.nan, 0.0], [0.0, 0.0]])
    zero = Projector(np.zeros((2, 2)))
    for members in ([spoiled, Projector(np.diag([0.0, 1.0]))], [zero, spoiled]):
        for report in (validate_projector_set(members), validate_projector_set_loop(members)):
            assert np.isnan(report.completeness_defect) and np.isnan(report.exclusivity_defect)


@pytest.mark.parametrize("d", [16, 32, 48, 64, 128, 240])
def test_stacked_run_blocks_have_the_bits_of_the_pair_products(d):
    """The exclusivity runs' premise, on the installed numpy and BLAS: with d
    a multiple of 16, each d-column block of a @ run, and of a @ the part of
    the run after its first block, has the bits of a @ b, and so does the
    modulus of either."""
    rng = np.random.default_rng(d)
    k = max(2, hilbert._RUN_CELLS // (d * d))
    a, *bs = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(k + 1))
    run = np.hstack(bs)
    for skip in (0, 1):
        stacked = a @ run[:, skip * d:]
        for j, b in enumerate(bs[skip:]):
            block = stacked[:, j * d:(j + 1) * d]
            assert np.array_equal(block.view(np.uint64), (a @ b).view(np.uint64)), (skip, j)
            assert np.array_equal(np.abs(stacked).reshape(d, -1, d)[:, j].view(np.uint64),
                                  np.abs(a @ b).view(np.uint64)), (skip, j)


def test_projector_set_rejects_incomplete():
    with pytest.raises(InvariantViolation):
        ProjectorSet((Projector(np.diag([1.0, 0.0, 0.0])),
                      Projector(np.diag([0.0, 1.0, 0.0]))), time=1.0)


def test_projector_set_rejects_overlapping():
    with pytest.raises(InvariantViolation):
        ProjectorSet((Projector(np.diag([1.0, 1.0, 0.0])),
                      Projector(np.diag([0.0, 1.0, 1.0]))), time=1.0)


def test_projector_set_from_basis_labels():
    ps = projector_set_from_basis(np.eye(3), time=0.5)
    assert ps.labels == ("0", "1", "2")
    assert ps.size == 3 and ps.dim == 3


def test_evolution_spec_exactly_one_form():
    with pytest.raises(InvariantViolation):
        EvolutionSpec()
    with pytest.raises(InvariantViolation):
        EvolutionSpec(hamiltonian=HermitianOperator(np.zeros((2, 2))), unitaries={1.0: np.eye(2)})
    with pytest.raises(InvariantViolation):
        EvolutionSpec(unitaries={1.0: np.array([[1.0, 0.0], [0.0, 2.0]])})


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6),
       t=st.floats(-3.0, 3.0, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_exponential_matches_taylor_oracle(seed, d, t):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, d)
    u = hermitian_exponential(h, t)
    oracle = expm_taylor(-1j * t * h.entries)
    assert np.abs(u - oracle).max() < 1e-12
    assert np.abs(u.conj().T @ u - np.eye(d)).max() < 1e-12


def test_heisenberg_two_level_oracle():
    # H = sx/2: U(t) = cos(t/2) I - i sin(t/2) sx, P(t) = U^dag P U
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    evo = EvolutionSpec(hamiltonian=HermitianOperator(sx / 2))
    p_up = Projector(np.diag([1.0, 0.0]), label="up")
    for t in (0.3, np.pi / 2, np.pi, 2.0):
        u = np.cos(t / 2) * np.eye(2) - 1j * np.sin(t / 2) * sx
        expected = u.conj().T @ p_up.entries @ u
        got = heisenberg_projector(p_up, t, evo)
        assert np.abs(got.entries - expected).max() < 1e-14
        assert got.label == "up"


def test_heisenberg_explicit_unitaries_and_unknown_time():
    u = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    evo = EvolutionSpec(unitaries={1.0: u})
    p = Projector(np.diag([1.0, 0.0]))
    moved = heisenberg_projector(p, 1.0, evo)
    assert np.allclose(moved.entries, np.diag([0.0, 1.0]))
    with pytest.raises(InvariantViolation):
        heisenberg_projector(p, 2.0, evo)


def test_heisenberg_rejects_mismatched_dynamics_and_infinite_time():
    p = Projector(np.diag([1.0, 0.0]))
    with pytest.raises(DimensionMismatch, match="Hamiltonian dim 3"):
        heisenberg_projector(p, 1.0, EvolutionSpec.zero(3))
    with pytest.raises(DimensionMismatch, match="unitary dim 3"):
        heisenberg_projector(p, 1.0, EvolutionSpec(unitaries={1.0: np.eye(3)}))
    with pytest.raises(InvariantViolation) as exc:
        heisenberg_projector(p, float("inf"), EvolutionSpec.zero(2))
    assert exc.value.name == "finite-time"


@given(seed=st.integers(0, 2**32 - 1), t=st.floats(-4.0, 4.0, allow_nan=False))
@settings(max_examples=30, deadline=None)
def test_heisenberg_preserves_structure(seed, t):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    evo = EvolutionSpec(hamiltonian=random_hermitian(rng, d))
    slot = random_slot(rng, d, 1.0)
    moved = [heisenberg_projector(p, t, evo) for p in slot.members]
    assert [p.rank for p in moved] == [p.rank for p in slot.members]
    assert validate_projector_set(moved).passes


def test_haar_basis_helper_is_orthonormal(rng):
    b = haar_basis(rng, 5)
    assert np.abs(b @ b.conj().T - np.eye(5)).max() < 1e-12
