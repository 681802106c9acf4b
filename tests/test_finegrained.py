"""Fundamental distribution w(h) and cylinder-set consistency."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import haar_basis, random_partition_classes, random_state, slot_grouping_classes
from ephist import (
    M_CAP,
    CapExceeded,
    DimensionMismatch,
    FineGrainedDistribution,
    FineGrainedSpec,
    HistorySet,
    InvariantViolation,
    Partition,
    ProjectorSet,
    StateVector,
    all_extended_probabilities,
    class_sums,
    fundamental_distribution,
    group_slots,
    projector_set_from_basis,
)
from oracles import extended_probability, flatten_index


def _w(dist, h):
    """w(h) for an outcome tuple, read from the flat values."""
    return dist.values[flatten_index(h, dist.shape)]


def _random_spec(rng, d, n):
    slots = tuple(projector_set_from_basis(haar_basis(rng, d), t + 1.0) for t in range(n))
    return FineGrainedSpec(random_state(rng, d), HistorySet(slots))


# ----------------------------------------------------------------- validation

def test_spec_requires_rank_one_slots(rng):
    from ephist import Projector
    coarse = ProjectorSet((
        Projector(np.diag([1.0, 1.0, 0.0]), label="low"),
        Projector(np.diag([0.0, 0.0, 1.0]), label="high"),
    ), time=1.0)
    with pytest.raises(InvariantViolation) as exc:
        FineGrainedSpec(random_state(rng, 3), HistorySet((coarse,)))
    assert exc.value.name == "rank-one-basis"


def test_spec_requires_matching_state_dim(rng):
    slot = projector_set_from_basis(np.eye(3), 1.0)
    with pytest.raises(DimensionMismatch):
        FineGrainedSpec(random_state(rng, 2), HistorySet((slot,)))


def test_spec_requires_a_history_set(rng):
    """Raw slots are refused, as ProjectorSet refuses raw members."""
    slot = projector_set_from_basis(np.eye(2), 1.0)
    with pytest.raises(InvariantViolation) as exc:
        FineGrainedSpec(random_state(rng, 2), (slot,))
    assert exc.value.name == "history-set"


def test_distribution_must_sum_to_one():
    with pytest.raises(InvariantViolation) as exc:
        FineGrainedDistribution(np.array([0.5, 0.4]), (2,))
    assert exc.value.name == "distribution-normalization"
    with pytest.raises(DimensionMismatch):
        FineGrainedDistribution(np.array([0.5, 0.5]), (2, 2))


def test_fine_cap():
    slots = tuple(projector_set_from_basis(np.eye(2), float(t + 1)) for t in range(13))
    spec = FineGrainedSpec(StateVector(np.eye(2)[0]), HistorySet(slots))
    with pytest.raises(CapExceeded) as exc:
        fundamental_distribution(spec)     # 2**13 histories > M_CAP
    assert exc.value.exit_status == 5
    assert (exc.value.value, exc.value.cap) == (2 ** 13, M_CAP)
    assert 2 ** 12 <= M_CAP


# --------------------------------------------------------------- distribution

def test_values_are_chain_extended_probabilities(rng):
    spec = _random_spec(rng, 3, 2)
    dist = fundamental_distribution(spec)
    hs = spec.history_set
    assert abs(dist.values.sum() - 1.0) < 1e-10
    for flat, h in enumerate(dist.outcomes()):
        ep = extended_probability(hs, h, spec.psi)
        assert abs(_w(dist, h) - ep) < 1e-14
        assert _w(dist, h) == dist.values[flat]


def test_h_space_is_little_endian_in_time(rng):
    spec = _random_spec(rng, 3, 2)
    dist = fundamental_distribution(spec)
    for b1 in range(3):
        for b2 in range(3):
            assert _w(dist, (b1, b2)) == dist.values[b1 + 3 * b2]
    outs = list(dist.outcomes())
    assert outs[0] == (0, 0)
    assert outs[1] == (1, 0)     # earliest outcome varies fastest
    assert len(outs) == dist.size == 9


def test_negative_w_two_time_qubit():
    """Hand value: psi = (cos pi/8, sin pi/8), computational basis then the
    45-degree rotated basis gives w(1, 1) = -sin(pi/8)(cos(pi/8)-sin(pi/8))/2."""
    c, s = np.cos(np.pi / 8), np.sin(np.pi / 8)
    slot1 = projector_set_from_basis(np.eye(2), 1.0)
    rot = np.array([[1.0, 1.0], [-1.0, 1.0]]) / np.sqrt(2.0)
    slot2 = projector_set_from_basis(rot, 2.0)
    spec = FineGrainedSpec(StateVector(np.array([c, s])), HistorySet((slot1, slot2)))
    dist = fundamental_distribution(spec)

    expect = -s * (c - s) / 2.0
    assert expect < -0.1
    assert abs(_w(dist, (1, 1)) - expect) < 1e-12
    assert abs(dist.values[1 + 2 * 1] - expect) < 1e-12
    assert abs(dist.values.sum() - 1.0) < 1e-12
    assert abs(_w(dist, (0, 0)) - c * (c + s) / 2.0) < 1e-12
    assert abs(_w(dist, (1, 0)) - s * (c + s) / 2.0) < 1e-12
    assert abs(_w(dist, (0, 1)) - c * (c - s) / 2.0) < 1e-12


def test_class_sum_checks_size(rng):
    dist = fundamental_distribution(_random_spec(rng, 2, 2))
    with pytest.raises(DimensionMismatch):
        class_sums(dist.values, Partition(5, (tuple(range(5)),)))


# ------------------------------------------------------------------ cylinders

@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_cylinder_sums_match_coarse_chain_eps(seed):
    """Summing w over a cylinder class equals the coarse chain EP directly
    computed from the summed projectors."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    n = int(rng.integers(1, 4))
    spec = _random_spec(rng, d, n)
    dist = fundamental_distribution(spec)

    groupings = [random_partition_classes(rng, d) for _ in range(n)]
    coarse_hs, part = group_slots(spec.history_set, groupings)

    coarse_eps = all_extended_probabilities(coarse_hs, spec.psi)
    assert coarse_hs.size == part.size
    assert part.classes == slot_grouping_classes((d,) * n, groupings)
    assert np.allclose(class_sums(dist.values, part), coarse_eps, atol=1e-12)


def test_cylinder_labels(rng):
    spec = _random_spec(rng, 3, 2)
    groupings = [((0, 2), (1,)), ((0,), (1, 2))]
    hs, _ = group_slots(spec.history_set, groupings)
    assert hs.slots[0].labels == ("0+2", "1")
    assert hs.slots[1].labels == ("0", "1+2")


def test_cylinder_grouping_count_checked(rng):
    spec = _random_spec(rng, 2, 2)
    with pytest.raises(DimensionMismatch):
        group_slots(spec.history_set, [((0,), (1,))])   # one grouping, two times
