"""Correctness checks of each workload's outputs against ``reference``.

Each ``check_*`` function takes the generator's specs and the run's work
directory and returns a list of failure messages (empty when correct).
The checks compare with the reference or with properties the method
must have, never with a stored copy of earlier output.
"""
from __future__ import annotations

import json
import os

import numpy as np

import reference as ref
from gen import sweep_partition

DEC_TOL = 1e-8      # the CLI's default decoherence tolerance (no --tol is passed)
MATCH = 1e-10       # program vs reference, entrywise
SUM_RULE = 1e-12    # |sum ep - 1| and trace(D) - 1


def _load_json(workdir, name):
    with open(os.path.join(workdir, "out", name), encoding="utf-8") as fh:
        return json.load(fh)


def _read_functional_csv(path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        fh.readline()   # header c0,c1,...
        return np.array([[complex(cell.replace("i", "j")) for cell in line.rstrip("\n").split(",")]
                         for line in fh])


def _close(name, got, want, tol, fails):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    if not err <= tol:
        fails.append(f"{name}: off by {err:.3e} (tolerance {tol:.0e})")


def check_decohere(specs, workdir) -> list[str]:
    spec, fails = specs[0], []
    b = ref.branch_matrix(spec)
    d_ref = ref.functional(b)
    d = _read_functional_csv(os.path.join(workdir, "out", "functional.csv"))
    rep = _load_json(workdir, "decoherence.json")
    tol = rep["tolerance"]
    if d.shape != d_ref.shape:
        return [f"functional.csv has shape {d.shape}, expected {d_ref.shape}"]
    _close("functional", d, d_ref, MATCH, fails)
    _close("hermiticity", d, d.conj().T, SUM_RULE, fails)
    _close("trace", np.trace(d).real, 1.0, SUM_RULE, fails)
    ep = np.array(rep["ep"])
    _close("sum ep", ep.sum(), 1.0, SUM_RULE, fails)
    _close("ep", ep, ref.amplitudes(spec, b).real, MATCH, fails)
    dec_ref = ref.dec(d_ref)
    _close("dec", rep["dec"], dec_ref, MATCH * max(1.0, dec_ref), fails)

    mag = np.abs(np.triu(d_ref, 1))
    if rep["medium_decoherent"] != bool(mag.max() <= tol):
        fails.append("medium_decoherent disagrees with the reference")
    offenders = [((o["alpha"], o["beta"]), o["magnitude"]) for o in rep["offenders"]]
    if offenders != sorted(offenders, key=lambda o: (-o[1], o[0])):
        fails.append("offenders are not worst first with (alpha, beta) tie-break")
    pairs = np.array([p for p, _ in offenders], dtype=int).reshape(-1, 2)
    got = np.zeros(mag.shape, dtype=bool)
    got[pairs[:, 0], pairs[:, 1]] = True
    borderline = np.abs(mag - tol) <= MATCH   # either side of tol is fine there
    if ((got != (mag > tol)) & ~borderline).any() or len(offenders) != int(got.sum()):
        fails.append("offender set differs from the reference")
    elif offenders:
        ref_mag = mag[pairs[:, 0], pairs[:, 1]]
        _close("offender magnitudes", [m for _, m in offenders], ref_mag, MATCH, fails)
        if (np.diff(ref_mag) > MATCH).any():
            fails.append("offender order is not worst first by the reference magnitudes")
    return fails


def check_greedy(specs, workdir) -> list[str]:
    spec, fails = specs[0], []
    d_ref = ref.functional(ref.branch_matrix(spec))
    rep = _load_json(workdir, "greedy.json")
    m = spec.size
    classes = [tuple(c) for c in rep["classes"]]
    if sorted(i for c in classes for i in c) != list(range(m)) or not all(classes):
        return ["classes are not a partition of the histories"]
    if not rep["succeeded"]:
        fails.append("greedy search reports failure")
    _close("fine_dec", rep["fine_dec"], ref.dec(d_ref), MATCH * max(1.0, ref.dec(d_ref)), fails)

    c, replay, previous = d_ref, [(i,) for i in range(m)], ref.dec(d_ref)
    for step, entry in enumerate(rep["trace"]):
        i, j = entry["merge"]
        scores = ref.merge_scores(c)
        best = float(scores.min())
        eps = MATCH * max(1.0, abs(best))
        # A lower pair within eps of the best cannot be ordered by a reference
        # summed in another order, so the tie-break is checked only beyond eps.
        if not (0 <= i < j < c.shape[0]) or not scores[i, j] <= best + eps:
            fails.append(f"merge {step} ({i}, {j}) does not minimise dec")
            break
        c, replay = ref.merge(c, replay, i, j)
        now = ref.dec(c)
        _close(f"dec_after of merge {step}", entry["dec_after"], now, eps, fails)
        if entry["dec_after"] > previous + eps:
            fails.append(f"dec increased at merge {step}")
        previous = entry["dec_after"]
    if replay != classes:
        fails.append("classes differ from the replayed merges")
    coarse_dec = ref.dec(ref.coarse_functional(d_ref, classes))
    if not coarse_dec <= DEC_TOL:
        fails.append(f"final classes do not decohere: dec {coarse_dec:.3e}")
    _close("final dec", rep["dec"], coarse_dec, MATCH, fails)
    return fails


def check_records(specs, workdir) -> list[str]:
    spec, fails = specs[0], []
    b = ref.branch_matrix(spec)
    rep = _load_json(workdir, "records.json")
    for key in ("strong_max_defect", "weak_max_defect"):
        if not rep[key] <= DEC_TOL:
            fails.append(f"{key} {rep[key]:.3e} exceeds {DEC_TOL:.0e}")
    corr = rep["correlation"]
    _close("record_probs", corr["record_probs"], np.sum(np.abs(b) ** 2, axis=0), MATCH, fails)
    ep = np.array(corr["ep_probs"])
    _close("ep", ep, ref.amplitudes(spec, b).real, MATCH, fails)
    if ep.min() < -SUM_RULE:   # zero branches are rounding noise around 0
        fails.append(f"negative ep {ep.min():.3e} in a decoherent set")
    ranks = rep["ranks"]
    if sum(ranks) != spec.dim:
        fails.append(f"record ranks sum to {sum(ranks)}, not d = {spec.dim}")
    zero = ref.empty_branches(spec.groups)
    if ranks.count(0) != zero:
        fails.append(f"{ranks.count(0)} rank-0 records for {zero} zero branches")
    return fails


def check_sweep(specs, workdir) -> list[str]:
    fails = []
    with np.load(os.path.join(workdir, "sweep_outputs.npz")) as out:
        ep_all, dec, coarse_dec, joint_all = (out[k] for k in ("ep", "dec", "coarse_dec", "joint"))
    amps, offset = [], 0
    for i, spec in enumerate(specs):
        b = ref.branch_matrix(spec)
        amp = ref.amplitudes(spec, b)
        amps.append(amp)
        ep = ep_all[offset:offset + spec.size]
        offset += spec.size
        d_ref = ref.functional(b)
        _close(f"model {i} sum ep", ep.sum(), 1.0, SUM_RULE, fails)
        _close(f"model {i} ep", ep, amp.real, MATCH, fails)
        _close(f"model {i} dec", dec[i], ref.dec(d_ref), MATCH, fails)
        coarse_ref = ref.dec(ref.coarse_functional(d_ref, sweep_partition(spec.size)))
        _close(f"model {i} coarse dec", coarse_dec[i], coarse_ref, MATCH, fails)
        if coarse_dec[i] > dec[i] + SUM_RULE:
            fails.append(f"model {i}: dec increased under coarse graining")
    if offset != ep_all.size:
        fails.append(f"{ep_all.size} ep values for {offset} histories")
    offset = 0
    for a in range(0, len(specs) - 1, 2):
        want = np.outer(amps[a], amps[a + 1]).ravel().real   # leftmost factor slowest
        _close(f"pair {a} joint ep", joint_all[offset:offset + want.size], want, MATCH, fails)
        offset += want.size
    if offset != joint_all.size:
        fails.append(f"{joint_all.size} joint ep values for {offset} joint histories")
    return fails


CHECKS = {
    "decohere-large": check_decohere,
    "greedy-search": check_greedy,
    "records-settle": check_records,
    "model-sweep": check_sweep,
}
