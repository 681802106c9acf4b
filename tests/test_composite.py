"""Tensor-product composites: joint EPs, functionals, records, product rule."""
from pathlib import Path

import numpy as np
import pytest

from conftest import decoherent_fixture, random_model, random_slot, random_state
from ephist import (
    CapExceeded,
    CompositeSystem,
    DimensionMismatch,
    HistorySet,
    Projector,
    ProjectorSet,
    StateVector,
    build_history_set,
    build_state,
    construct_records,
    decoherence_functional,
    load_model,
    product_rule_report,
)
from ephist.cli import run_command
from oracles import (
    factor_amplitudes,
    joint_class_operator,
    joint_extended_probability,
    joint_flat,
    joint_functional,
    joint_state,
    product_records,
    product_rule_kron,
    unflatten_joint,
)

MODELS = Path(__file__).resolve().parent.parent / "models"


def _trivial_factor(d=2):
    hs = HistorySet((ProjectorSet((Projector(np.eye(d)),), time=1.0),))
    return StateVector(np.eye(d)[0]), hs


def _two_factor(rng):
    psi1, hs1 = random_model(rng, d_max=3, n_max=2)
    psi2, hs2 = random_model(rng, d_max=3, n_max=2)
    return CompositeSystem(((psi1, hs1), (psi2, hs2)))


# ------------------------------------------------------------------ structure

def test_composite_validation():
    _, hs = _trivial_factor(2)
    other = StateVector(np.eye(3)[0])
    with pytest.raises(DimensionMismatch):
        CompositeSystem(((other, hs),))
    with pytest.raises(DimensionMismatch):
        CompositeSystem(())


def test_joint_dimension_beyond_the_history_cap(rng):
    """Two d = 65 factors of two histories each: a joint dimension of 4225, but
    only 4 joint histories, which is all product_rule_report allocates."""
    factors = tuple((random_state(rng, 65), HistorySet((random_slot(rng, 65, 1.0, k=2),)))
                    for _ in range(2))
    cs = CompositeSystem(factors)
    assert (cs.joint_dim, cs.joint_count) == (4225, 4)
    rep = product_rule_report(cs)
    for flat in range(4):
        indices = unflatten_joint(cs, flat)
        assert abs(rep.joint_ep[flat] - joint_extended_probability(cs, indices)) < 1e-12


def test_composite_factor_count_cap(tmp_path):
    """Twelve factors of one history each are reported; a thirteenth is refused
    before anything is written, since joint_dim may grow past what JSON is given."""
    one = tmp_path / "one.model"
    one.write_text("dim 32\nstate [1" + ",0" * 31 + "]\nevolution zero\nslot 1.0 s\n"
                   "member all basis {" + ",".join(map(str, range(32))) + "}\n")
    cs = CompositeSystem(tuple(_trivial_factor(32) for _ in range(12)))
    assert (cs.joint_dim, cs.joint_count) == (32 ** 12, 1)
    assert product_rule_report(cs).joint_ep.tolist() == [1.0]
    with pytest.raises(CapExceeded) as exc:
        product_rule_report(CompositeSystem(cs.factors + cs.factors[:1]))
    assert exc.value.payload()["cap"] == 12
    model = tmp_path / "many.model"
    model.write_text("composite many factors" + " one.model" * 2900 + "\n")
    assert run_command(["composite", "--model", str(model), "--out", str(tmp_path / "o")]) == 5
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == ["error.json"]


def test_joint_state_kron_order(rng):
    psi1 = random_state(rng, 2)
    psi2 = random_state(rng, 3)
    _, hs1 = _trivial_factor(2)
    _, hs2 = _trivial_factor(3)
    cs = CompositeSystem(((psi1, hs1), (psi2, hs2)))
    joint = joint_state(cs).amplitudes
    for i in range(2):
        for j in range(3):
            # leftmost factor is the slow index
            assert abs(joint[i * 3 + j] - psi1.amplitudes[i] * psi2.amplitudes[j]) < 1e-15


def test_joint_flat_round_trip(rng):
    cs = _two_factor(rng)
    for flat in range(cs.joint_count):
        indices = unflatten_joint(cs, flat)
        assert joint_flat(cs, indices) == flat
    # leftmost factor is the slow digit
    first = unflatten_joint(cs, 0)
    stepped = unflatten_joint(cs, cs.counts[1])
    assert stepped[1] == first[1]
    assert stepped[0] != first[0]
    with pytest.raises(DimensionMismatch):
        unflatten_joint(cs, cs.joint_count)   # no wrap-around to history 0


def test_factor_amplitude_count_checked(rng):
    cs = _two_factor(rng)
    with pytest.raises(DimensionMismatch):
        factor_amplitudes(cs, unflatten_joint(cs, 0)[:1])


# ------------------------------------------------------------------ joint EPs

def test_joint_ep_routes_agree(rng):
    """Product-of-amplitudes route == dense joint-class-operator route."""
    cs = _two_factor(rng)
    joint_amps = joint_state(cs).amplitudes
    for flat in range(cs.joint_count):
        indices = unflatten_joint(cs, flat)
        fast = joint_extended_probability(cs, indices)
        op = joint_class_operator(cs, indices)
        slow = float(np.real(np.vdot(joint_amps, op @ joint_amps)))
        assert abs(fast - slow) < 1e-12


def test_joint_functional_matches_branches(rng):
    cs = _two_factor(rng)
    f = joint_functional(cs)
    assert f.shape == (cs.joint_count, cs.joint_count)
    joint_amps = joint_state(cs).amplitudes
    branches = [joint_class_operator(cs, unflatten_joint(cs, a)) @ joint_amps
                for a in range(cs.joint_count)]
    for a in range(cs.joint_count):
        for b in range(cs.joint_count):
            assert abs(f[a, b] - np.vdot(branches[a], branches[b])) < 1e-12


def test_joint_functional_is_kron_of_factor_functionals(rng):
    """Bit for bit: the factors' functionals are decoherence_functional's,
    so the joint one is exactly Hermitian too."""
    for _ in range(10):
        cs = _two_factor(rng)
        parts = [decoherence_functional(hs, psi).functional for psi, hs in cs.factors]
        joint = joint_functional(cs)
        assert np.array_equal(joint.view(np.uint64), np.kron(parts[0], parts[1]).view(np.uint64))
        assert np.array_equal(joint, joint.conj().T)


def _qubit_chain(n):
    """A qubit factor with n two-member slots: 2**n histories."""
    slots = tuple(
        ProjectorSet((Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))), float(t))
        for t in range(1, n + 1))
    return StateVector(np.eye(2)[0]), HistorySet(slots)


def test_joint_functional_cap():
    cs = CompositeSystem((_qubit_chain(7), _qubit_chain(7)))   # 2**14 > M_CAP
    with pytest.raises(CapExceeded) as exc:
        joint_functional(cs)
    assert exc.value.exit_status == 5
    with pytest.raises(CapExceeded):
        product_rule_report(cs)


# --------------------------------------------------------------- product rule

def test_product_rule_report_consistent(rng):
    cs = _two_factor(rng)
    rep = product_rule_report(cs)
    worst = 0.0
    for flat in range(cs.joint_count):
        amps = factor_amplitudes(cs, unflatten_joint(cs, flat))
        assert abs(rep.joint_ep[flat] - np.prod(amps).real) < 1e-14
        assert abs(rep.factor_ep_product[flat] - np.prod([z.real for z in amps])) < 1e-14
        worst = max(worst, abs(rep.joint_ep[flat] - rep.factor_ep_product[flat]))
    assert abs(rep.max_violation - worst) < 1e-14


def test_product_rule_report_is_the_kron_fold(rng):
    """Bit for bit, the np.kron fold of the factors' amplitude vectors, for
    two to four factors of 1 to 81 histories each."""
    for n in (2, 3, 4):
        cs = CompositeSystem(tuple(random_model(rng, d_max=4, n_max=3) for _ in range(n)))
        rep, (joint_ep, product) = product_rule_report(cs), product_rule_kron(cs)
        assert rep.joint_ep.tobytes() == joint_ep.tobytes()
        assert rep.factor_ep_product.tobytes() == product.tobytes()


def test_product_rule_holds_for_recorded_factors(rng):
    """Decoherent factors have real chain amplitudes, so Re distributes."""
    for _ in range(5):
        f1 = decoherent_fixture(rng, d=3, k=2)
        f2 = decoherent_fixture(rng, d=3, k=2)
        cs = CompositeSystem((f1, f2))
        assert product_rule_report(cs).max_violation < 1e-12


def test_qubit_pair_breaks_product_rule():
    """Pinned instance: both factor amplitudes are (1 - i)/4, so every joint
    history misses the product rule by exactly 1/16."""
    docs = [load_model(MODELS / name) for name in ("qubit_a.model", "qubit_b.model")]
    cs = CompositeSystem(tuple((build_state(doc), build_history_set(doc)) for doc in docs))
    rep = product_rule_report(cs)
    assert abs(rep.max_violation - 1.0 / 16.0) < 1e-15
    assert rep.max_violation >= 0.01


# -------------------------------------------------------------------- records

def test_product_records(rng):
    f1 = decoherent_fixture(rng, d=3, k=2)
    f2 = decoherent_fixture(rng, d=3, k=2)
    cs = CompositeSystem((f1, f2))
    sets = [construct_records(decoherence_functional(hs, psi)) for psi, hs in cs.factors]
    joint_records = product_records(cs, sets)

    assert joint_records.size == cs.joint_count
    assert joint_records.dim == cs.joint_dim
    assert joint_records.time == max(rs.time for rs in sets)
    expected_completion = sets[0].completion_index * cs.counts[1] + sets[1].completion_index
    assert joint_records.completion_index == expected_completion

    # labels pair up factor record labels, slow factor first
    for flat in range(cs.joint_count):
        i, j = divmod(flat, cs.counts[1])
        assert joint_records.members[flat].label == (
            f"{sets[0].members[i].label}|{sets[1].members[j].label}")

    # strong record property on the joint space
    joint_amps = joint_state(cs).amplitudes
    branches = [joint_class_operator(cs, unflatten_joint(cs, b)) @ joint_amps
                for b in range(cs.joint_count)]
    total = np.zeros((cs.joint_dim, cs.joint_dim), dtype=complex)
    for a, rec in enumerate(joint_records.members):
        total += rec.entries
        for b in range(cs.joint_count):
            want = branches[b] if a == b else np.zeros(cs.joint_dim)
            assert np.linalg.norm(rec.entries @ branches[b] - want) < 1e-9
    assert np.allclose(total, np.eye(cs.joint_dim), atol=1e-12)

    # the records read the joint extended probabilities back out
    for a in range(cs.joint_count):
        prob = float(np.real(np.vdot(joint_amps, joint_records.members[a].entries @ joint_amps)))
        assert abs(prob - joint_extended_probability(cs, unflatten_joint(cs, a))) < 1e-12


def test_product_records_validation(rng):
    f1 = decoherent_fixture(rng, d=3, k=2)
    f2 = decoherent_fixture(rng, d=3, k=2)
    cs = CompositeSystem((f1, f2))
    rs1 = construct_records(decoherence_functional(f1[1], f1[0]))
    with pytest.raises(DimensionMismatch):
        product_records(cs, [rs1])
