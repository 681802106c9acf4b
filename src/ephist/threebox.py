"""Three-box example: negative extended probability in a 3-level system.

State (|A> + |B> + |C>)/sqrt(3); at t1 which box, at t2 whether the
system is found in |Phi> = (|A> + |B> - |C>)/sqrt(3). The trivial
Hamiltonian makes chain operators products of the bare projectors.

The three histories (box X then Phi) carry extended probabilities
(1/9, 1/9, -1/9); conditioned on Phi those are (1, 1, -1). Merging the
other two boxes gives three two-slot coarse sets: the A-set and B-set
decohere exactly (so "found it in A" and "found it in B" each hold with
conditional probability one), while the C-set does not (cross term 2/9)
and its negative conditional pair (-1, 2) is not a betting probability.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hilbert import Projector, ProjectorSet, StateVector, rank_one_projector
from .histories import DecoherenceReport, HistorySet, decoherence_functional
from .coarsegrain import GreedySearchResult, greedy_merge_functional, group_slots

__all__ = ["SECTOR_FLATS", "BoxSetReport", "ThreeBoxModel", "ThreeBoxReport", "box_coarse_set",
           "three_box_model", "three_box_report"]

SECTOR_FLATS = (0, 1, 2)   # (A,Phi), (B,Phi), (C,Phi) under earliest-fastest flattening


@dataclass(frozen=True)
class ThreeBoxModel:
    psi: StateVector
    boxes: ProjectorSet      # t = 1.0: which box
    readout: ProjectorSet    # t = 2.0: Phi vs not
    fine: HistorySet
    phi_vector: np.ndarray


def three_box_model() -> ThreeBoxModel:
    s = 1.0 / math.sqrt(3.0)
    psi = StateVector(np.array([s, s, s], dtype=complex))
    phi = np.array([s, s, -s], dtype=complex)
    eye = np.eye(3, dtype=complex)
    boxes = ProjectorSet(
        tuple(rank_one_projector(eye[i], label) for i, label in enumerate("ABC")),
        time=1.0)
    p_phi = np.outer(phi, phi.conj())
    readout = ProjectorSet(
        (Projector(p_phi, label="Phi"), Projector(eye - p_phi, label="~Phi")),
        time=2.0)
    return ThreeBoxModel(psi, boxes, readout, HistorySet((boxes, readout)), phi)


def box_coarse_set(model: ThreeBoxModel, which: str) -> HistorySet:
    """Two-slot set keeping one box distinct and merging the other two."""
    keep = "ABC".index(which)
    rest = tuple(i for i in range(3) if i != keep)
    return group_slots(model.fine, (((keep,), rest), None))[0]


@dataclass(frozen=True)
class BoxSetReport:
    name: str
    decoherence: DecoherenceReport
    conditional_pair: tuple[float, float]   # (p(X|Phi), p(~X|Phi))


@dataclass(frozen=True)
class ThreeBoxReport:
    fine_eps: np.ndarray
    fine_dec: float
    sector_eps: tuple[float, float, float]
    p_phi: float
    conditionals: tuple[float, float, float]
    sector_functional: np.ndarray
    coarse: tuple[BoxSetReport, ...]
    greedy: GreedySearchResult   # pair merging on sector_functional; lands on {A,C} vs {B}

    @property
    def c_set_cross_magnitude(self) -> float:
        return self.coarse[2].decoherence.max_offdiagonal


def three_box_report(tol: float = 1e-10) -> ThreeBoxReport:
    model = three_box_model()
    fine_report = decoherence_functional(model.fine, model.psi)
    sector = fine_report.functional[np.ix_(SECTOR_FLATS, SECTOR_FLATS)]
    sector_eps = fine_report.ep_probs[list(SECTOR_FLATS)]
    p_phi = float(sector_eps.sum())
    coarse = []
    for which in "ABC":
        rep = decoherence_functional(box_coarse_set(model, which), model.psi, tol=tol)
        # flats 0, 1 are (X, Phi), (~X, Phi)
        pair = (float(rep.ep_probs[0] / p_phi), float(rep.ep_probs[1] / p_phi))
        coarse.append(BoxSetReport(which, rep, pair))
    return ThreeBoxReport(
        fine_eps=fine_report.ep_probs,
        fine_dec=fine_report.dec,
        sector_eps=tuple(float(x) for x in sector_eps),
        p_phi=p_phi,
        conditionals=tuple(float(x / p_phi) for x in sector_eps),
        sector_functional=sector,
        coarse=tuple(coarse),
        greedy=greedy_merge_functional(sector, tol),
    )
