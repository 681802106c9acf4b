"""Partitions, block-summed functionals, slot merges, greedy search."""
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    decoherent_fixture,
    perfbench_gen,
    random_model,
    random_partition_classes,
    random_slot,
    random_state,
    slot_grouping_classes,
)
from ephist import (
    CapExceeded,
    DimensionMismatch,
    HistorySet,
    InvariantViolation,
    ParseError,
    Partition,
    Projector,
    ProjectorSet,
    StateVector,
    all_extended_probabilities,
    build_composites,
    build_history_set,
    build_state,
    class_sums,
    coarse_decoherence_functional,
    coarse_extended_probabilities,
    dec_measure,
    decoherence_functional,
    greedy_decohering_search,
    greedy_merge_functional,
    group_slots,
    load_model,
    parse_model,
    partition_from_literal,
    three_box_report,
)
from ephist import coarsegrain
from ephist.coarsegrain import _GreedyState
from oracles import (
    _cross_row,
    _exact_cross,
    class_operator,
    coarse_class_operator,
    coarse_decoherence_functional_gemm,
    enumerate_partitions,
    greedy_merge_loop,
    greedy_merge_rescore,
    group_member_sums_loop,
    joint_functional,
    unflatten_index,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


# ---------------------------------------------------------------- partitions

def test_partition_basic():
    p = Partition(4, ((0, 2), (1,), (3,)))
    assert p.size == 3
    assert list(p.class_of()) == [0, 1, 0, 2]
    # numpy integers, as group_slots passes them, are read as Python ints
    p = Partition(np.int64(3), (np.array([0, 2]), np.array([1], dtype=np.int32)))
    assert p.classes == ((0, 2), (1,))
    assert all(type(i) is int for i in (p.fine_count, *p.classes[0], *p.classes[1]))


@pytest.mark.parametrize("classes", [
    ((0,), (), (1,)),          # empty class
    ((0, 5), (1,)),            # index out of range
    ((0, 1), (1,)),            # repeated index
    ((0,), (1,)),              # does not cover {0,1,2}
])
def test_partition_rejects_bad_classes(classes):
    with pytest.raises(InvariantViolation):
        Partition(3, classes)


@pytest.mark.parametrize("fine_count, classes, bad", [
    (3, ((0.5,), (1,), (2,)), "0.5"),
    (3, ((0,), (1,), (np.float64(2.7),)), "2.7"),
    (3, ((0,), (1,), ("2",)), "'2'"),
    (3, ((0,), (True,), (2,)), "True"),
    (3, ((0,), (np.bool_(True),), (2,)), "True"),
    (3.0, ((0,), (1,), (2,)), "3.0"),
], ids=["0.5", "2.7", "str", "True", "np.True_", "fine_count=3.0"])
def test_partition_refuses_non_integers(fine_count, classes, bad):
    """Indices and fine_count are read as integers, never truncated: a float,
    a string or a bool fails the invariant (exit 3) at construction."""
    with pytest.raises(InvariantViolation) as exc:
        Partition(fine_count, classes)
    assert exc.value.exit_status == 3
    assert exc.value.name in ("integer-class-index", "integer-fine-count")
    assert exc.value.magnitude == 1.0
    assert bad in str(exc.value)


def test_partition_literal():
    p = partition_from_literal("[[0, 2], [1]]", 3)
    assert p.classes == ((0, 2), (1,))

    for bad in ["[[0,2],[1]", "{\"a\": 1}", "[[0, true], [1]]", "[]", "[0, 1]", "[[0],[]]"]:
        with pytest.raises(ParseError) as exc:
            partition_from_literal(bad, 3)
        assert exc.value.exit_status == 2
    with pytest.raises(ParseError) as exc:
        partition_from_literal("[[0],[]]", 2)
    assert (exc.value.line, exc.value.col, exc.value.expected) == (1, 1, "nonempty lists of integers")
    with pytest.raises(ParseError) as exc:
        partition_from_literal("[[0,],[1]]", 3)
    assert (exc.value.line, exc.value.col, exc.value.found) == (1, 5, "],[1]]")


def test_class_sums():
    p = Partition(4, ((0, 3), (1, 2)))
    out = class_sums(np.array([1.0, 2.0, 3.0, 4.0]), p)
    assert np.array_equal(out, [5.0, 5.0])
    with pytest.raises(DimensionMismatch):
        class_sums(np.zeros(3), p)


def test_class_sums_keep_complex_dtype():
    p = Partition(2, ((0, 1),))
    out = class_sums(np.array([1 + 2j, 3 - 1j]), p)
    assert out[0] == 4 + 1j


@pytest.mark.parametrize("shape", [(7, 5), (9, 3, 4)])
def test_class_sums_of_arrays_are_per_class_sums(shape):
    """Along the first axis, each class is its members added in order."""
    rng = np.random.default_rng(shape[0])
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    part = Partition(shape[0], random_partition_classes(rng, shape[0]))
    out = class_sums(values, part)
    assert out.shape == (part.size,) + shape[1:]
    for k, c in enumerate(part.classes):
        brute = values[c[0]].copy()
        for i in c[1:]:
            brute = brute + values[i]
        assert np.array_equal(out[k], brute)


def test_class_sums_of_a_vector_keep_the_pairwise_sum():
    """Past 8 members numpy's pairwise .sum() differs from adding in order;
    each class keeps .sum()'s bits, so coarse EPs keep theirs."""
    rng = np.random.default_rng(9)
    values = rng.normal(size=200) * 10.0 ** rng.integers(-8, 8, size=200)
    classes = tuple(tuple(int(i) for i in c) for c in np.array_split(rng.permutation(200), 8))
    assert min(len(c) for c in classes) >= 9
    out = class_sums(values, Partition(200, classes))
    assert out.tobytes() == np.array([values[list(c)].sum() for c in classes]).tobytes()


# ----------------------------------------------------- coarse-grained objects

@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_coarse_functional_is_block_sum(seed):
    rng = np.random.default_rng(seed)
    psi, hs = random_model(rng)
    part = Partition(hs.size, random_partition_classes(rng, hs.size))
    fine = decoherence_functional(hs, psi).functional
    coarse = coarse_decoherence_functional(fine, part)
    brute = np.array([[fine[np.ix_(list(a), list(b))].sum() for b in part.classes]
                      for a in part.classes])
    assert np.allclose(coarse, brute, atol=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_coarse_probability_routes_agree(seed):
    """Class sums of fine probabilities, Re<psi|C-bar|psi>, and the coarse
    functional's row sums all give the same coarse extended probabilities."""
    rng = np.random.default_rng(seed)
    psi, hs = random_model(rng)
    part = Partition(hs.size, random_partition_classes(rng, hs.size))

    summed = coarse_extended_probabilities(hs, part, psi)
    assert np.allclose(summed, class_sums(all_extended_probabilities(hs, psi), part),
                       atol=1e-14)

    via_operator = np.array([
        np.real(np.vdot(psi.amplitudes, coarse_class_operator(hs, part, k) @ psi.amplitudes))
        for k in range(part.size)
    ])
    assert np.allclose(summed, via_operator, atol=1e-12)

    fine = decoherence_functional(hs, psi).functional
    coarse = coarse_decoherence_functional(fine, part)
    assert np.allclose(summed, np.real(coarse.sum(axis=0)), atol=1e-12)
    assert abs(summed.sum() - 1.0) < 1e-12


def test_coarse_class_operator_sums_fine_ones(rng):
    psi, hs = random_model(rng)
    part = Partition(hs.size, random_partition_classes(rng, hs.size))
    for k, cls in enumerate(part.classes):
        expect = sum(class_operator(hs, unflatten_index(f, hs.shape))
                     for f in cls)
        assert np.allclose(coarse_class_operator(hs, part, k), expect, atol=1e-13)


def test_coarse_class_operator_requires_matching_size(rng):
    psi, hs = random_model(rng)
    wrong = Partition(hs.size + 1, tuple((i,) for i in range(hs.size + 1)))
    with pytest.raises(DimensionMismatch):
        coarse_class_operator(hs, wrong, 0)
    with pytest.raises(DimensionMismatch):
        coarse_extended_probabilities(hs, wrong, psi)
    with pytest.raises(DimensionMismatch):
        coarse_decoherence_functional(np.eye(hs.size), wrong)


@pytest.fixture(scope="module")
def functional_2048():
    spec = perfbench_gen().make_model(np.random.default_rng(2048), 16, (16, 16, 8),
                                      hamiltonian=True)
    doc = parse_model(spec.text)
    return decoherence_functional(build_history_set(doc), build_state(doc)).functional


def _runs(m, size):
    return Partition(m, tuple(tuple(range(a, a + size)) for a in range(0, m, size)))


@pytest.mark.parametrize("size", [2, 1, 16])
def test_coarse_functional_is_the_gemm_bit_for_bit(functional_2048, size):
    """Pairs, singletons and sorted 16-member classes at m = 2048: the class
    sums give the 0/1-matrix gemm's bytes."""
    part = _runs(2048, size)
    coarse = coarse_decoherence_functional(functional_2048, part)
    assert coarse.tobytes() == coarse_decoherence_functional_gemm(functional_2048, part).tobytes()


def test_coarse_functional_holds_less_than_a_functional(functional_2048):
    """On pairs the call peaks under one fine functional (0.75 of one: the
    row sums and the result); the gemm took 1.5."""
    tracemalloc.start()
    try:
        coarse_decoherence_functional(functional_2048, _runs(2048, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < functional_2048.nbytes


def test_coarse_functional_is_the_gemm_to_a_few_eps():
    """On random partitions at m = 512 the two routes add each block in a
    different order: every cell is within 4 eps of its block's |D| mass
    (at most 2 is seen), and both keep dec monotone (criterion 4)."""
    spec = perfbench_gen().make_model(np.random.default_rng(512), 16, (16, 8, 4),
                                      hamiltonian=True)
    doc = parse_model(spec.text)
    fine = decoherence_functional(build_history_set(doc), build_state(doc)).functional
    rng = np.random.default_rng(512)
    for _ in range(6):
        part = Partition(512, random_partition_classes(rng, 512))
        coarse = coarse_decoherence_functional(fine, part)
        gemm = coarse_decoherence_functional_gemm(fine, part)
        mass = coarse_decoherence_functional(np.abs(fine), part).real
        assert (np.abs(coarse - gemm) <= 4 * np.finfo(float).eps * mass).all()
        for route in (coarse, gemm):
            assert dec_measure(route) <= dec_measure(fine) + 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_dec_never_increases(seed):
    rng = np.random.default_rng(seed)
    psi, hs = random_model(rng)
    part = Partition(hs.size, random_partition_classes(rng, hs.size))
    fine = decoherence_functional(hs, psi).functional
    assert dec_measure(coarse_decoherence_functional(fine, part)) <= dec_measure(fine) + 1e-12


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_total_negativity_never_increases(seed):
    """Summing class probabilities can only cancel negativity, not create it."""
    rng = np.random.default_rng(seed)
    psi, hs = random_model(rng)
    part = Partition(hs.size, random_partition_classes(rng, hs.size))
    fine = all_extended_probabilities(hs, psi)
    coarse = coarse_extended_probabilities(hs, part, psi)
    assert fine[fine < 0].sum() - 1e-12 <= coarse[coarse < 0].sum()


# ----------------------------------------------------------------- slot merges

def _labelled_model():
    rot = np.array([[1.0, 1.0, 1.0],
                    [1.0, -1.0, 0.0],
                    [1.0, 1.0, -2.0]])
    rot = rot / np.linalg.norm(rot, axis=1, keepdims=True)
    slot1 = ProjectorSet(tuple(
        Projector(np.outer(e, e), label=lab)
        for e, lab in zip(np.eye(3), ("a", "b", "c"))), time=1.0)
    slot2 = ProjectorSet(tuple(
        Projector(np.outer(r, r.conj()), label=lab)
        for r, lab in zip(rot, ("x", "y", "z"))), time=2.0)
    psi = StateVector(np.array([3.0, 4.0, 0.0]) / 5.0)
    return psi, HistorySet((slot1, slot2))


def test_group_slots_labels():
    psi, hs = _labelled_model()
    merged, _ = group_slots(hs, [[[0, 2], [1]], None])
    assert merged.slots[0].labels == ("a+c", "b")
    assert merged.slots[0].time == 1.0
    assert merged.slots[1].labels == ("x", "y", "z")



def test_slot_merge_matches_flat_partition(rng):
    for _ in range(10):
        psi, hs = random_model(rng)
        slot_index = int(rng.integers(hs.n_times))
        groups = random_partition_classes(rng, hs.slots[slot_index].size)
        merging = [None] * hs.n_times
        merging[slot_index] = groups
        merged, part = group_slots(hs, merging)
        assert merged.size == part.size
        groupings = [[(i,) for i in range(s)] for s in hs.shape]
        groupings[slot_index] = groups
        assert part.classes == slot_grouping_classes(hs.shape, groupings)
        assert np.allclose(all_extended_probabilities(merged, psi),
                           class_sums(all_extended_probabilities(hs, psi), part),
                           atol=1e-12)


def test_group_slots_members_are_the_loop_sums(rng):
    """Merged members are the members added by Python's sum (which turns a
    -0.0 into +0.0; np.array_equal does not tell them apart)."""
    for _ in range(20):
        d = int(rng.integers(2, 7))
        slot = random_slot(rng, d, 1.0)
        groups = random_partition_classes(rng, slot.size)
        merged, _ = group_slots(HistorySet((slot,)), [groups])
        loop = group_member_sums_loop(slot, groups)
        assert all(np.array_equal(p.entries, e) for p, e in zip(merged.slots[0].members, loop))


def test_slot_merge_rejects_bad_groups():
    psi, hs = _labelled_model()
    with pytest.raises(InvariantViolation):
        group_slots(hs, [[[0], [1]], None])                 # drops member 2
    with pytest.raises(InvariantViolation):
        group_slots(hs, [[[0, 1], [1, 2]], None])           # overlap


def test_group_slots_takes_one_grouping_per_slot():
    """No slot is picked by index: a groupings list shorter or longer than
    the slot count is refused, not read as some other slot."""
    psi, hs = _labelled_model()
    assert hs.n_times == 2
    for groupings in ([[[0, 1], [2]]], [[[0, 1], [2]], None, None]):
        with pytest.raises(DimensionMismatch):
            group_slots(hs, groupings)


# -------------------------------------------------------------- greedy search

def test_greedy_trivial_when_already_decoherent(rng):
    psi, hs = decoherent_fixture(rng)
    res = greedy_decohering_search(hs, psi, target_tol=1e-8)
    assert res.succeeded
    assert res.partition.classes == tuple((i,) for i in range(hs.size))
    assert res.trace == ()
    assert res.dec <= 1e-8


def test_greedy_total_merge_always_succeeds(rng):
    psi, hs = random_model(rng)
    res = greedy_decohering_search(hs, psi, target_tol=1e-15)
    assert res.succeeded
    assert res.dec <= 1e-15
    assert res.partition.size >= 1


def test_greedy_dec_matches_partition(rng):
    for _ in range(5):
        psi, hs = random_model(rng)
        fine = decoherence_functional(hs, psi).functional
        res = greedy_merge_functional(fine, target_tol=1e-6)
        again = dec_measure(coarse_decoherence_functional(fine, res.partition))
        assert abs(res.dec - again) < 1e-10


def test_greedy_single_step_is_brute_force_optimal(rng):
    for _ in range(10):
        psi, hs = random_model(rng)
        fine = decoherence_functional(hs, psi).functional
        m = hs.size
        res = greedy_merge_functional(fine, target_tol=-1.0)
        assert not res.succeeded
        assert len(res.trace) == m - 1
        (i, j), dec_after = res.trace[0]
        assert 0 <= i < j < m

        decs = {}
        for a in range(m):
            for b in range(a + 1, m):
                classes = [(x,) for x in range(m) if x not in (a, b)]
                classes.insert(a, (a, b))
                decs[a, b] = dec_measure(
                    coarse_decoherence_functional(fine, Partition(m, tuple(classes))))
        assert dec_after <= min(decs.values()) + 1e-9
        assert abs(decs[i, j] - dec_after) < 1e-12


def test_greedy_tie_break_is_lexicographic():
    res = greedy_merge_functional(np.eye(4), target_tol=-1.0)
    assert not res.succeeded
    assert res.trace == (((0, 1), 0.0),) * 3
    assert res.partition.classes == ((0, 1, 2, 3),)
    assert res.dec == 0.0


def _same_search(functional, target_tol):
    """The search and the loop oracle agree bit for bit: repr spells out every
    merge pair (and its int type), every class and every float exactly."""
    fast = greedy_merge_functional(functional, target_tol)
    slow = greedy_merge_loop(functional, target_tol)
    assert repr(fast) == repr(slow)


def _shipped_functionals():
    out = [("threebox-sector", three_box_report().sector_functional), ("eye4", np.eye(4))]
    for path in sorted(MODELS.glob("*.model")):
        doc = load_model(path)
        if doc.slots:
            hs, psi = build_history_set(doc), build_state(doc)
            out.append((path.stem, decoherence_functional(hs, psi).functional))
        if doc.composites:
            for name, cs in sorted(build_composites(doc, str(MODELS)).items()):
                out.append((f"{path.stem}:{name}", joint_functional(cs)))
    return out


SHIPPED = _shipped_functionals()


@pytest.mark.parametrize("target_tol", [1e-10, -1.0])
@pytest.mark.parametrize("name, functional", SHIPPED, ids=[n for n, _ in SHIPPED])
def test_greedy_matches_loop_oracle_on_shipped_functionals(name, functional, target_tol):
    _same_search(functional, target_tol)


def test_greedy_matches_loop_oracle_on_random_functionals():
    """Hermitian b^dagger b functionals of rank r <= m, for m up to 64."""
    rng = np.random.default_rng(11)
    for m in [64, *rng.integers(2, 64, size=19)]:
        r = int(rng.integers(1, m + 1))
        b = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
        _same_search(b.conj().T @ b, float(rng.choice([1e-8, 1e-2, -1.0])))


@st.composite
def integer_functionals(draw):
    """Real integer functionals, or Hermitian ones of Gaussian integers, whose
    moduli are rarely exact: those meet ties broken by the last bit of np.abs."""
    m = draw(st.integers(1, 9))
    parts = st.lists(st.integers(-3, 3), min_size=m * m, max_size=m * m)
    upper = np.triu(np.array(draw(parts), dtype=float).reshape(m, m))
    if draw(st.booleans()):
        parts = st.lists(st.integers(-8, 8), min_size=m * m, max_size=m * m)
        upper = upper + 1j * np.triu(np.array(draw(parts), dtype=float).reshape(m, m), 1)
    return upper + np.triu(upper, 1).conj().T


# |3+3j| is 4.242640687119285 by numpy's scalar abs and ...286 by np.abs
@given(functional=integer_functionals(), target_tol=st.sampled_from([-1.0, 0.0, 4.0]))
@example(functional=np.array([[0, 3j, 0, 0], [-3j, 0, 3 + 3j, 0], [0, 3 - 3j, 0, 0],
                              [0, 0, 0, 0]]), target_tol=-1.0)
@settings(max_examples=150, deadline=None)
def test_greedy_matches_loop_oracle_on_exact_ties(functional, target_tol):
    """Integer entries sum exactly, so many candidate merges tie exactly and
    only the tie-break decides between them; with target -1 the trace runs the
    full chain and spells out every tie-break on the way."""
    _same_search(functional, target_tol)


@pytest.mark.parametrize("functional, error", [
    (np.zeros((2, 3)), DimensionMismatch),                       # not square
    (np.full((3, 3), np.nan), InvariantViolation),               # non-finite
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), InvariantViolation),
    (np.array([[1.0, 1e-9], [0.0, 1.0]]), InvariantViolation),   # not Hermitian
    (np.full((3, 3), 1e308), InvariantViolation),                # scores overflow
])
def test_greedy_rejects_bad_functional(functional, error):
    with pytest.raises(error):
        greedy_merge_functional(functional, target_tol=1e-8)


@pytest.mark.parametrize("target_tol", [float("nan"), float("inf"), float("-inf")])
def test_greedy_rejects_non_finite_target(target_tol):
    """NaN would merge down to one class and report failure; inf would return
    at once. A finite negative target stays valid (it forces the total merge)."""
    with pytest.raises(InvariantViolation) as exc:
        greedy_merge_functional(np.array([[1.0, 0.5], [0.5, 1.0]]), target_tol)
    assert exc.value.name == "tolerance"
    assert greedy_merge_functional(np.array([[1.0, 0.5], [0.5, 1.0]]), -1.0).partition.size == 1


def _benchmark_functional(seed):
    """The functional of the benchmark's greedy-search model (m = 96)."""
    doc = parse_model(perfbench_gen().generate("greedy-search", seed)[0].text)
    return decoherence_functional(build_history_set(doc), build_state(doc)).functional


def _rank_functional(m, r, seed):
    rng = np.random.default_rng(seed)
    b = rng.normal(size=(r, m)) + 1j * rng.normal(size=(r, m))
    return b.conj().T @ b


# entries near 1e306 put the total modulus past float max / 16, the bound
# below which no merge score can overflow, so every score is checked
HUGE = np.array([[4.0, 1.0, -2.0, 0.5], [1.0, 3.0, 1.5j, 2.0],
                 [-2.0, -1.5j, 4.0, 1.0], [0.5, 2.0, 1.0, 5.0]]) * 1e306


@pytest.mark.parametrize("target_tol", [1e-8, -1.0])
@pytest.mark.parametrize("name", ["seed0", "seed1", "seed2", "rank16-256", "huge"])
def test_greedy_matches_rescore_oracle(name, target_tol):
    """Bit for bit the search as it was before its buffers were reused: the
    classes, every ((i, j), dec_after), dec and succeeded."""
    if name.startswith("seed"):
        functional = _benchmark_functional(int(name[4:]))
    elif name == "huge":
        functional = HUGE
    else:
        functional = _rank_functional(256, 16, 0)
    new = greedy_merge_functional(functional, target_tol)
    old = greedy_merge_rescore(functional, target_tol)
    assert new.partition.classes == old.partition.classes
    assert repr(new.trace) == repr(old.trace)
    assert repr(new.dec) == repr(old.dec)
    assert new.succeeded == old.succeeded


def _assert_scores_within_slack(functional):
    """At every merge every pair's approximate score lies within half the
    slack of its exact score, which is what puts the first exact minimum
    among the pairs rescored; and the pair chosen is that minimum."""
    state = _GreedyState(functional)
    while state.k > 1:
        current, dec = state.current, state.dec
        s, slack, _ = state.scores()
        iu, ju = np.triu_indices(state.k, 1)
        absval = np.abs(current)
        absrow = absval.sum(axis=1) - np.abs(np.diag(current))
        off = absval[iu, ju]
        old_cross = (absrow[iu] - off) + (absrow[ju] - absval[ju, iu])
        exact = dec + 2.0 * (_exact_cross(current, iu, ju) - old_cross) - 2.0 * off
        assert np.all(np.abs(dec + 2.0 * s[iu, ju] - exact) <= 0.5 * slack)
        assert np.isnan(s[np.tril_indices(state.k)]).all()
        best = np.argmin(exact)
        i, j = state.best_pair()
        assert (i, j) == (iu[best], ju[best])
        state.merge(i, j)


@st.composite
def scaled_functionals(draw):
    """Rank-r b^dagger b functionals, m <= 128, at scales far from 1, some
    nearly decoherent (off-diagonal entries far below the diagonal, whose
    rounding swamps them in dec and in the row sums of |D|), some with a
    Hermiticity defect inside TOL_HERM."""
    m = draw(st.integers(2, 128))
    functional = _rank_functional(m, draw(st.integers(1, m)), draw(st.integers(0, 2**32 - 1)))
    functional = (functional + functional.conj().T) * draw(st.sampled_from([1e-150, 1e-6, 1.0, 1e150]))
    diagonal = np.diag(np.diag(functional))
    functional = diagonal + draw(st.sampled_from([1.0, 1e-12, 1e-200])) * (functional - diagonal)
    if draw(st.booleans()):
        functional = functional + 1e-13 * np.triu(np.ones((m, m)), 1)
    return functional


@st.composite
def complex_integer_functionals(draw):
    """integer_functionals plus an integer antisymmetric imaginary part."""
    real = draw(integer_functionals())
    m = real.shape[0]
    imag = np.triu(np.array(draw(st.lists(st.integers(-2, 2), min_size=m * m, max_size=m * m)),
                            dtype=float).reshape(m, m), 1)
    return real + 1j * (imag - imag.T)


@given(functional=st.one_of(scaled_functionals(), integer_functionals(),
                            complex_integer_functionals()))
@settings(max_examples=80, deadline=None)
def test_greedy_scores_stay_within_slack(functional):
    _assert_scores_within_slack(functional)


def test_greedy_search_memory_is_bounded():
    """A rank-16 search at m = 512 peaks below 20 MiB under tracemalloc:
    one m x m complex temporary per set-up row took it to 25 MiB."""
    functional = _rank_functional(512, 16, 0)
    tracemalloc.start()
    try:
        greedy_merge_functional(functional, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


@pytest.mark.parametrize("tile, m", [(2, 9), (50, 30), (700, 40), (1 << 16, 512)])
def test_cross_sums_in_any_tile(monkeypatch, tile, m):
    """Whatever the tile (smaller than one pair of rows, a few rows, or the
    default), the set-up's cross terms are the per-row ones to a few eps of
    the total modulus, and NaN on and below the diagonal."""
    monkeypatch.setattr(coarsegrain, "_TILE", tile)
    functional = _rank_functional(m, 3, m)
    cross = _GreedyState(functional).cross
    iu = np.triu_indices(m, 1)
    expected = np.array([_cross_row(functional, a) for a in range(m)])
    assert np.abs(cross[iu] - expected[iu]).max() <= (
        64 * m * np.finfo(float).eps * np.abs(functional).sum())
    assert np.isnan(cross[np.tril_indices(m)]).all()


def test_greedy_setup_temporaries_live_in_its_buffers():
    """The set-up at m = 512 peaks within 0.5 MiB of its four buffers (64 m^2
    bytes): the cross sums run inside the twin buffers. Private tiles and
    a zero-diagonal copy of D took it 1.75 MiB above."""
    m = 512
    functional = _rank_functional(m, 16, 0)
    tracemalloc.start()
    try:
        state = _GreedyState(functional)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.m == m
    assert peak <= 64 * m * m + 2**19


# ----------------------------------------------------------------- enumeration

def test_partition_enumeration_counts_are_bell_numbers():
    for m, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        parts = list(enumerate_partitions(m))
        assert len(parts) == bell
        keys = {frozenset(frozenset(c) for c in p.classes) for p in parts}
        assert len(keys) == bell          # all distinct
        for p in parts:
            assert p.fine_count == m      # constructor re-validated each one


def test_partition_enumeration_cap():
    with pytest.raises(CapExceeded) as exc:
        next(enumerate_partitions(9))
    assert exc.value.exit_status == 5


def test_every_partition_is_monotone_and_additive():
    """Exhaustive over all Bell(m) partitions of small random sets: dec never
    grows under coarse graining, and the class sums of the fine extended
    probabilities are the real column sums of the coarse functional."""
    rng = np.random.default_rng(6)
    sizes = []
    while len(sizes) < 4:
        psi, hs = random_model(rng, d_max=4, n_max=2)
        if not 4 <= hs.size <= 6:
            continue
        sizes.append(hs.size)
        fine = decoherence_functional(hs, psi)
        for part in enumerate_partitions(hs.size):
            coarse = coarse_decoherence_functional(fine.functional, part)
            assert dec_measure(coarse) <= fine.dec + 1e-12
            assert np.allclose(class_sums(fine.ep_probs, part), np.real(coarse.sum(axis=0)),
                               rtol=0.0, atol=1e-12)
    assert max(sizes) == 6
