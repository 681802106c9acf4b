"""Three-box example: every number here is exact rational arithmetic."""
import numpy as np
import pytest

from ephist import (
    SECTOR_FLATS,
    box_coarse_set,
    class_sums,
    coarse_extended_probabilities,
    greedy_merge_functional,
    three_box_model,
    three_box_report,
)
from ephist.coarsegrain import Partition
from oracles import branch_vector, extended_probability

NINTH = 1.0 / 9.0


def test_model_structure():
    model = three_box_model()
    assert model.fine.shape == (3, 2)
    assert model.fine.size == 6
    assert model.boxes.labels == ("A", "B", "C")
    assert model.readout.labels == ("Phi", "~Phi")
    assert model.readout.members[0].rank == 1
    assert model.readout.members[1].rank == 2
    # p(Phi) is the overlap squared
    overlap = np.vdot(model.phi_vector, model.psi.amplitudes)
    assert abs(abs(overlap) ** 2 - NINTH) < 1e-12


def test_fine_extended_probabilities():
    rep = three_box_report()
    assert np.allclose(rep.fine_eps,
                       [NINTH, NINTH, -NINTH, 2 * NINTH, 2 * NINTH, 4 * NINTH],
                       atol=1e-12)
    assert abs(rep.fine_eps.sum() - 1.0) < 1e-12
    assert abs(rep.fine_dec - 4.0 / 3.0) < 1e-12


def test_sector_values():
    model = three_box_model()
    rep = three_box_report()
    assert SECTOR_FLATS == (0, 1, 2)
    assert np.allclose(rep.sector_eps, [NINTH, NINTH, -NINTH], atol=1e-12)
    assert abs(rep.p_phi - NINTH) < 1e-12
    assert np.allclose(rep.conditionals, [1.0, 1.0, -1.0], atol=1e-12)
    assert np.allclose([extended_probability(model.fine, (x, 0), model.psi) for x in range(3)],
                       rep.sector_eps, atol=1e-15)

    expect = NINTH * np.array([[1.0, 1.0, -1.0],
                               [1.0, 1.0, -1.0],
                               [-1.0, -1.0, 1.0]])
    assert np.allclose(rep.sector_functional, expect, atol=1e-12)
    branches = [branch_vector(model.fine, (x, 0), model.psi) for x in range(3)]
    assert np.allclose([[np.vdot(a, b) for b in branches] for a in branches], expect,
                       atol=1e-12)


def test_coarse_box_sets():
    rep = three_box_report()
    a, b, c = rep.coarse
    assert (a.name, b.name, c.name) == ("A", "B", "C")

    # A-set and B-set decohere exactly, so the conditionals are probabilities
    for box in (a, b):
        assert box.decoherence.medium_decoherent
        assert box.decoherence.max_offdiagonal < 1e-12
        assert abs(box.conditional_pair[0] - 1.0) < 1e-12
        assert abs(box.conditional_pair[1] - 0.0) < 1e-12

    # the C-set does not: cross term 2/9, conditional pair (-1, 2)
    assert not c.decoherence.medium_decoherent
    assert abs(c.decoherence.max_offdiagonal - 2.0 * NINTH) < 1e-12
    assert abs(rep.c_set_cross_magnitude - 2.0 * NINTH) < 1e-12
    assert abs(c.conditional_pair[0] - (-1.0)) < 1e-12
    assert abs(c.conditional_pair[1] - 2.0) < 1e-12


def test_coarse_set_labels():
    model = three_box_model()
    hs = box_coarse_set(model, "B")
    assert hs.slots[0].labels == ("B", "A+C")
    assert hs.slots[1].labels == ("Phi", "~Phi")
    assert hs.size == 4


def test_fine_report_flags():
    model = three_box_model()
    from ephist import decoherence_functional
    rep = decoherence_functional(model.fine, model.psi)
    assert not rep.medium_decoherent      # dec = 4/3
    assert not rep.linearly_positive      # ep(C, Phi) = -1/9


def test_greedy_sector_search_lands_on_ac_merge():
    res = three_box_report().greedy
    assert res.succeeded
    assert res.partition.classes == ((0, 2), (1,))
    assert res.dec <= 1e-10
    assert len(res.trace) == 1 and res.trace[0][0] == (0, 2)


@pytest.mark.parametrize("tol", [0.0, 1e-10, 0.2, 2.0])
def test_greedy_is_the_merge_of_the_sector_functional(tol):
    rep = three_box_report(tol)
    assert rep.greedy == greedy_merge_functional(rep.sector_functional, tol)


def test_merging_a_with_c_cancels_the_negativity():
    sector = three_box_report().sector_eps
    merged = class_sums(sector, Partition(3, ((0, 2), (1,))))
    assert np.allclose(merged, [0.0, NINTH], atol=1e-12)


def test_full_set_probabilities_are_additive():
    model = three_box_model()
    # readout marginal: Phi vs ~Phi regardless of box
    part = Partition(6, ((0, 1, 2), (3, 4, 5)))
    marg = coarse_extended_probabilities(model.fine, part, model.psi)
    assert np.allclose(marg, [NINTH, 8 * NINTH], atol=1e-12)
