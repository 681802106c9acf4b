"""Command-line front end.

Every run writes its artifacts plus a manifest.json into --out. Output
is deterministic byte-for-byte for a fixed command line: floats are
written with shortest round-trip literals, JSON keys are sorted, and
the only randomness (dutchbook sampling) is seeded. Failures write
error.json and exit with the error's status: 2 parse, 3 invariant,
4 not decoherent, 5 cap exceeded; an --out that cannot be created exits
3 with no error.json. A run first removes any manifest.json or error.json
in --out. JSON is strict: never NaN or Infinity.
"""
from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import __version__
from .errors import EngineError, InvariantViolation
from .histories import DEFAULT_DEC_TOL, decoherence_functional, dec_measure
from .records import (
    construct_records,
    record_correlation_report,
    verify_strong_records,
    verify_weak_records,
)
from .coarsegrain import (
    Partition,
    class_sums,
    coarse_decoherence_functional,
    greedy_merge_functional,
    partition_from_literal,
)
from .composite import product_rule_report
from .finegrained import fundamental_distribution
from .twoslit import (
    K,
    SCREEN_DISTANCE,
    SLIT_SEPARATION,
    Y_RANGE,
    TwoSlitConfig,
    binned_extended_probabilities,
    default_config,
    deepest_fringe_location,
    delta_sweep,
    extended_density,
    arrival_density,
    interference_integrals,
    self_convergence,
)
from .threebox import three_box_report
from .dutchbook import BetSpec, exploit_negative_price, gain_report
from .modelfile import (
    build_composites,
    build_finegrained,
    build_history_set,
    build_state,
    format_complex,
    load_model,
)


def _json_default(value):
    """Encode the values json has no encoder for; everything else is native."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, complex):
        return format_complex(value)
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _fmt_cell(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, (complex, np.complexfloating)):
        return format_complex(x)
    s = str(x)
    # history labels can contain commas
    return '"' + s.replace('"', '""') + '"' if "," in s or '"' in s else s


def _csv(header: Sequence[str], rows) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt_cell(c) for c in row) for row in rows)
    return "\n".join(lines) + "\n"


def _upper_cells(row: np.ndarray) -> tuple[list[str], list[str]]:
    """The format_complex text of each cell (i, j) of an upper row and of its mirror
    cell (j, i), the same with the imaginary sign flipped."""
    cells, mirrored = [], []
    for re, im in zip(map(repr, row.real.tolist()), row.imag.tolist()):
        if im == 0.0:
            cells.append(re)
            mirrored.append(re)
        else:   # the signs format_complex gives im and -im; NaN prints "-" both ways
            mag = repr(abs(im))
            cells.append(f"{re}{'+' if im >= 0 else '-'}{mag}i")
            mirrored.append(f"{re}{'+' if im < 0 else '-'}{mag}i")
    return cells, mirrored


def _functional_csv(upper_rows: Iterable[np.ndarray]) -> Iterator[str]:
    """_csv of the c0..c{m-1} header and an exactly Hermitian functional's rows,
    one row per chunk, given its upper rows functional[i, i:] in order.

    Cell (j, i) has the real bits of cell (i, j) and the negated imaginary
    part, so only the upper cells are formatted. The rows are read 16 at a
    time; a band of rows keeps the mirrored text of its cells in column j
    below the band as one joined string until row j is written.
    """
    rows = iter(upper_rows)
    first = next(rows)
    m = len(first)
    yield ",".join(f"c{j}" for j in range(m)) + "\n"
    pending = [[] for _ in range(m)]   # per column: one string per band above its row
    rows = itertools.chain((first,), rows)
    for r in range(0, m, 16):
        tails = []   # the mirrored text of each row of the band, from its diagonal on
        for k, row in enumerate(itertools.islice(rows, 16)):
            cells, mirrored = _upper_cells(row)
            above = [tail[k - j] for j, tail in enumerate(tails)]
            yield ",".join(pending[r + k] + above + cells) + "\n"
            pending[r + k] = None
            tails.append(mirrored)
        n = len(tails)
        list(map(list.append, pending[r + n:],
                 map(",".join, zip(*(tail[n - j:] for j, tail in enumerate(tails))))))


_OFFENDER = '\n    {\n      "alpha": %d,\n      "beta": %d,\n      "magnitude": %r\n    }'


def _offender_chunks(offenders: np.recarray) -> Iterator[str]:
    """A record-array member's value: one _OFFENDER per record, one % per 4096-record block."""
    yield "["
    for start in range(0, len(offenders), 4096):
        block = offenders[start:start + 4096].tolist()
        yield ("," if start else "") + ",".join([_OFFENDER] * len(block)) % tuple(
            itertools.chain.from_iterable(block))
    yield "\n  ]" if len(offenders) else "]"


def _json_chunks(payload: dict) -> Iterator[str]:
    """json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) and a newline,
    in chunks, with each record-array member written as one object per record.

    Members are told apart by value, since a composite's name is a key too.
    The others are formatted here, indented one level (a JSON string holds no
    raw newline); a NaN or infinity raises ValueError before any chunk is taken.
    """
    chunks = []
    for key, value in sorted(payload.items()):
        chunks.append((f"{',' if chunks else '{'}\n  {json.dumps(key)}: ",))
        if isinstance(value, np.recarray):   # checked here, formatted as it is written
            if not np.isfinite(value.magnitude).all():
                raise ValueError("Out of range float values are not JSON compliant")
            chunks.append(_offender_chunks(value))
        else:
            chunks.append((json.dumps(value, indent=2, sort_keys=True, allow_nan=False,
                                      default=_json_default).replace("\n", "\n  "),))
    chunks.append(("\n}\n" if chunks else "{}\n",))
    return itertools.chain.from_iterable(chunks)


class _OutDir:
    def __init__(self, path: str):
        self.path = path
        os.makedirs(path, exist_ok=True)
        for status in ("manifest.json", "error.json"):   # left by an earlier run
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(path, status))
        self.written: list[str] = []

    def write(self, name: str, text: str | Iterable[str]):
        """Write one string, or an iterable of chunks in order."""
        with open(os.path.join(self.path, name), "w", encoding="utf-8", newline="") as fh:
            fh.writelines((text,) if isinstance(text, str) else text)
        self.written.append(name)


def _require_model(args):
    if not args.model:
        raise InvariantViolation("missing-option", 1.0, "this command needs --model PATH")
    return load_model(args.model)


def _report(args):
    """(document, its report at --tol or the engine default); slots before the state."""
    doc = _require_model(args)
    hs, psi = build_history_set(doc), build_state(doc)
    return doc, decoherence_functional(hs, psi, DEFAULT_DEC_TOL if args.tol is None else args.tol)


def _resolve_partition(doc, text: str, fine_count: int) -> Partition:
    if text.lstrip().startswith("["):
        return partition_from_literal(text, fine_count)
    named = {p.name: p.classes for p in doc.partitions}
    if text not in named:
        raise InvariantViolation("unknown-partition", 0.0,
                                 f"no partition named {text!r} in the model file")
    return Partition(fine_count, named[text])


def _negative_sum(values: np.ndarray) -> float:
    """Sum of the strictly negative entries (<= 0)."""
    return float(values[values < 0.0].sum())


def _cmd_eval(args, out: _OutDir):
    _, report = _report(args)
    hs, ep, dh = report.history_set, report.ep_probs, report.dh_probs
    rows = [(flat, label, ep[flat], dh[flat], dh[flat] - ep[flat])
            for flat, label in enumerate(hs.history_labels())]
    out.write("histories.csv", _csv(("flat", "label", "ep", "dh", "dh_minus_ep"), rows))
    out.write("summary.json", _json_chunks({
        "dim": hs.dim,
        "n_times": hs.n_times,
        "size": hs.size,
        "sum_ep": float(ep.sum()),
        "sum_dh": float(dh.sum()),
        "min_ep": float(ep.min()),
        "total_negative": _negative_sum(ep),
    }))


def _cmd_decohere(args, out: _OutDir):
    _, report = _report(args)
    dec, max_offdiagonal = report.dec, report.max_offdiagonal   # |D| is freed before the text grows
    out.write("functional.csv", _functional_csv(report.upper_rows()))
    out.write("decoherence.json", _json_chunks({
        "dec": dec,
        "dh": report.dh_probs,
        "ep": report.ep_probs,
        "linearly_positive": report.linearly_positive,
        "max_offdiagonal": max_offdiagonal,
        "medium_decoherent": report.medium_decoherent,
        "offenders": report.offenders,
        "tolerance": report.tolerance,
    }))


def _cmd_records(args, out: _OutDir):
    _, report = _report(args)
    rs = construct_records(report)
    corr = record_correlation_report(report, rs)
    out.write("records.json", _json_chunks({
        "t_rec": rs.time,
        "completion_index": rs.completion_index,
        "labels": [r.label for r in rs.members],
        "ranks": [r.rank if live else 0 for r, live in zip(rs.members, rs._nonzero.tolist())],
        "strong_max_defect": verify_strong_records(report, rs),
        "weak_max_defect": verify_weak_records(report, rs),
        "correlation": {
            "record_probs": corr.record_probs,
            "ep_probs": corr.ep_probs,
            "max_defect": corr.max_defect,
            "negative_bound_ok": corr.negative_bound_ok,
        },
    }))


def _cmd_coarsen(args, out: _OutDir):
    doc, fine = _report(args)
    if args.partition:
        part = _resolve_partition(doc, args.partition, fine.history_set.size)
        coarse_dec = dec_measure(coarse_decoherence_functional(fine.functional, part))
        coarse_ep = class_sums(fine.ep_probs, part)
        out.write("coarsen.json", _json_chunks({
            "classes": part.classes,
            "labels": [f"c{k}" for k in range(part.size)],
            "fine_dec": fine.dec,
            "coarse_dec": coarse_dec,
            "fine_ep": fine.ep_probs,
            "coarse_ep": coarse_ep,
            "fine_total_negative": _negative_sum(fine.ep_probs),
            "coarse_total_negative": _negative_sum(coarse_ep),
            "dec_monotone": bool(coarse_dec <= fine.dec + 1e-12),
        }))
    else:
        result = greedy_merge_functional(fine.functional, target_tol=fine.tolerance)
        out.write("greedy.json", _json_chunks({
            "classes": result.partition.classes,
            "dec": result.dec,
            "succeeded": result.succeeded,
            "trace": [{"merge": list(pair), "dec_after": d} for pair, d in result.trace],
            "fine_dec": fine.dec,
        }))


def _cmd_composite(args, out: _OutDir):
    composites = build_composites(_require_model(args),
                                  os.path.dirname(os.path.abspath(args.model)))
    report = {}
    for name in sorted(composites):
        cs = composites[name]
        rule = product_rule_report(cs)
        report[name] = {
            "dims": cs.dims,
            "joint_dim": cs.joint_dim,
            "counts": cs.counts,
            "joint_count": cs.joint_count,
            "joint_ep": rule.joint_ep,
            "factor_ep_product": rule.factor_ep_product,
            "max_violation": rule.max_violation,
        }
    out.write("composite.json", _json_chunks(report))


def _cmd_finegrained(args, out: _OutDir):
    doc = _require_model(args)
    dist = fundamental_distribution(build_finegrained(doc))
    part = _resolve_partition(doc, args.partition, dist.size) if args.partition else None
    rows = [(flat, ";".join(str(b) for b in outcome), dist.values[flat])
            for flat, outcome in enumerate(dist.outcomes())]
    out.write("finegrained.csv", _csv(("flat", "outcome", "w"), rows))
    summary = {
        "shape": dist.shape,
        "size": dist.size,
        "sum": float(dist.values.sum()),
        "min": float(dist.values.min()),
        "max": float(dist.values.max()),
        "total_negative": _negative_sum(dist.values),
    }
    if part is not None:
        summary["class_sums"] = class_sums(dist.values, part)
        summary["classes"] = part.classes
    out.write("summary.json", _json_chunks(summary))


def _cmd_twoslit(args, out: _OutDir):
    if args.bins is not None:
        cfg = TwoSlitConfig(bins=args.bins)
    else:
        cfg = default_config() if args.k_delta is None else default_config(args.k_delta)
    upper, lower = binned_extended_probabilities(cfg)
    edges = cfg.bin_edges()
    out.write("bins.csv", _csv(
        ("bin", "y_lo", "y_hi", "p_upper", "p_lower", "cross"),
        zip(range(cfg.bins), edges, edges[1:], upper, lower, interference_integrals(cfg)),
    ))
    ys = np.linspace(Y_RANGE[0], Y_RANGE[1], 801)
    du = extended_density(ys, "U")
    dl = extended_density(ys, "L")
    arr = arrival_density(ys)
    out.write("curve.csv", _csv(
        ("y", "density_upper", "density_lower", "arrival"),
        zip(ys, du, dl, arr),
    ))
    out.write("sweep.csv", _csv(
        ("k_delta", "bins", "min_upper", "min_lower",
         "n_negative_upper", "n_negative_lower", "max_cross_ratio"),
        ((r.k_delta, r.bins, r.min_upper, r.min_lower,
          len(r.negative_upper), len(r.negative_lower), r.max_cross_ratio)
         for r in delta_sweep()),
    ))
    out.write("summary.json", _json_chunks({
        "k": K,
        "d": SLIT_SEPARATION,
        "D": SCREEN_DISTANCE,
        "y_range": Y_RANGE,
        "bins": cfg.bins,
        "k_delta": cfg.k_delta,
        "min_upper": float(upper.min()),
        "min_lower": float(lower.min()),
        "negative_bins_upper": np.flatnonzero(upper < 0.0),
        "negative_bins_lower": np.flatnonzero(lower < 0.0),
        "deepest_fringe_abs_y": deepest_fringe_location(),
        "self_convergence_128_512": self_convergence(cfg, 128, 512),
    }))


def _cmd_threebox(args, out: _OutDir):
    report = three_box_report() if args.tol is None else three_box_report(args.tol)
    out.write("threebox.json", _json_chunks({
        "fine_ep": report.fine_eps,
        "fine_dec": report.fine_dec,
        "sector_ep": report.sector_eps,
        "p_phi": report.p_phi,
        "conditionals_given_phi": report.conditionals,
        "sector_functional": report.sector_functional,
        "coarse": [
            {
                "name": box.name,
                "ep": box.decoherence.ep_probs,
                "conditional_pair": box.conditional_pair,
                "medium_decoherent": box.decoherence.medium_decoherent,
                "max_offdiagonal": box.decoherence.max_offdiagonal,
            }
            for box in report.coarse
        ],
        "greedy_sector": {
            "classes": report.greedy.partition.classes,
            "dec": report.greedy.dec,
            "succeeded": report.greedy.succeeded,
        },
    }))


def _cmd_dutchbook(args, out: _OutDir):
    seed = 0 if args.seed is None else args.seed
    if seed < 0:
        raise InvariantViolation("seed", seed, "--seed must be non-negative")
    rng = np.random.default_rng(seed)
    canonical = exploit_negative_price(p_a=-1.0, stake=-1.0)
    rows = [("canonical", canonical)]
    for _ in range(20):
        bet = BetSpec(
            p_a=float(rng.uniform(-1.5, 1.5)),
            s_a=float(rng.uniform(-2.0, 2.0)),
            s_not_a=float(rng.uniform(-2.0, 2.0)),
        )
        rows.append(("sampled", gain_report(bet)))
    out.write("dutchbook.csv", _csv(
        ("kind", "p_a", "p_not_a", "s_a", "s_not_a", "gain_a", "gain_not_a", "sure_loss"),
        ((kind, r.bet.p_a, r.bet.p_not_a, r.bet.s_a, r.bet.s_not_a,
          r.gain_a, r.gain_not_a, r.sure_loss) for kind, r in rows),
    ))
    out.write("summary.json", _json_chunks({
        "seed": seed,
        "canonical": {
            "p_a": canonical.bet.p_a,
            "s_a": canonical.bet.s_a,
            "gain_a": canonical.gain_a,
            "gain_not_a": canonical.gain_not_a,
            "sure_loss": canonical.sure_loss,
            "loss_if_a": -canonical.gain_a,
        },
        "sampled_sure_losses": sum(1 for kind, r in rows if kind == "sampled" and r.sure_loss),
    }))


def _ascii(convert: Callable):
    """An argparse type: convert only ASCII text without "_", as model numbers.
    Range and finiteness are left to the handler, which writes error.json."""
    def parse(text: str):
        if not text.isascii() or "_" in text:
            raise argparse.ArgumentTypeError(f"not an ASCII number: {text!r}")
        return convert(text)
    parse.__name__ = convert.__name__   # argparse names it in "invalid float value"
    return parse


# add_argument keywords per flag; the manifest keys an option by its flag
# without "--"
_OPTIONS = {
    "--model": dict(help="model file path"),
    "--tol": dict(type=_ascii(float), help="tolerance override"),
    "--partition": dict(help="partition name from the model, or a literal like [[0],[1,2]]"),
    "--kDelta": dict(dest="k_delta", type=_ascii(float), help="two-slit bin width in phase units"),
    "--bins": dict(type=_ascii(int), help="two-slit bin count override"),
    "--seed": dict(type=_ascii(int), help="RNG seed"),
}


def _dest(flag: str) -> str:
    """The attribute argparse stores a flag's value under."""
    return _OPTIONS[flag].get("dest", flag[2:])


# handler, help text, and the options the handler reads besides --out; a
# tuple of names is a mutually exclusive group
_COMMANDS: dict[str, tuple[Callable, str, tuple]] = {
    "eval": (_cmd_eval, "extended and standard probabilities per history", ("--model",)),
    "decohere": (_cmd_decohere, "decoherence functional and its diagnostics",
                 ("--model", "--tol")),
    "records": (_cmd_records, "construct and verify record projectors", ("--model", "--tol")),
    "coarsen": (_cmd_coarsen, "coarse grain by partition, or search greedily",
                ("--model", ("--tol", "--partition"))),
    "composite": (_cmd_composite, "product-rule report for composite systems", ("--model",)),
    "finegrained": (_cmd_finegrained, "fundamental distribution over a fine basis",
                    ("--model", "--partition")),
    "twoslit": (_cmd_twoslit, "two-slit extended densities and binned values",
                (("--kDelta", "--bins"),)),
    "threebox": (_cmd_threebox, "built-in three-box example report", ("--tol",)),
    "dutchbook": (_cmd_dutchbook, "bet gains at quoted prices", ("--seed",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ephist",
        description="Extended-probability engine for finite closed quantum systems.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, blurb, options) in _COMMANDS.items():
        sp = sub.add_parser(name, help=blurb, description=blurb)
        sp.add_argument("--out", default="out", help="output directory (default: out)")
        for option in options:
            flags = (option,) if isinstance(option, str) else option
            group = sp if len(flags) == 1 else sp.add_mutually_exclusive_group()
            for flag in flags:
                group.add_argument(flag, **_OPTIONS[flag])
        # the manifest lists every option; one a command does not take is None
        sp.set_defaults(handler=handler, **{_dest(flag): None for flag in _OPTIONS})
    return parser


def run_command(argv: Sequence[str]) -> int:
    args = build_parser().parse_args(argv)
    try:
        out = _OutDir(args.out)
    except OSError as err:   # no directory, so no error.json
        print(f"error: cannot create output directory {args.out}: {err.strerror or err}",
              file=sys.stderr)
        return InvariantViolation.exit_status
    options = {flag[2:]: getattr(args, _dest(flag)) for flag in _OPTIONS}
    try:
        args.handler(args, out)
    except EngineError as err:
        out.write("error.json", _json_chunks({"command": args.command, **err.payload()}))
        print(f"error: {err}", file=sys.stderr)
        return err.exit_status
    out.write("manifest.json", _json_chunks({
        "command": args.command,
        "engine_version": __version__,
        "options": options,
        "outputs": sorted(out.written),
    }))
    print(f"{args.command}: wrote {len(out.written)} file(s) to {args.out}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    return run_command(sys.argv[1:] if argv is None else list(argv))


if __name__ == "__main__":
    sys.exit(main())
