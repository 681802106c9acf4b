"""Line-oriented text format for model files, with parse and build steps.

A model file declares a system in the Schrodinger picture. load_model
reads and parses it; each build_* function builds one section, slots in
the Heisenberg picture of the declared evolution. Directives, one per
line ("#" starts a comment, names are whitespace-free tokens):

    dim 3
    state [0.5+0i, 0.5, 0.5, 0.5]
    evolution zero
    evolution hamiltonian [[0,1],[1,0]]
    evolution unitary 1.0 [[0,1],[1,0]]      # repeatable, one per time
    slot 1.0 boxes
    member A basis {0}                       # sum of basis projectors
    member ~A basis {1,2}
    member X matrix [[...],[...]]            # explicit projector matrix
    partition sector [[0,1,2],[3,4,5]]       # named flat-index classes
    finegrained 2.0 basis [[1,1,-1],[1,-1,0],[1,1,2]]   # rows, normalized on build
    composite pair factors a.model b.model   # paths relative to this file

Numbers are ASCII: a decimal is a sign, digits, an optional point and
exponent (1.5, -.5, 2e-3); an entry is a decimal, "a+bi", "a-bi", "bi",
"i" or "-i" (suffix i or j); dim and basis indices are digits only.
nan, inf, 1e400, "_", other digits and inner blanks are rejected. A bracket
literal ends with a closer of its own kind, and each matrix row is exactly
one [...] with only blanks before the next "," or "]". Partition and
composite names are unique. parse_model gives ParseError with 1-based
line and column and, within a directive's arguments, the text from that
column on as found; CapExceeded for a dim above DIM_CAP.
"""
from __future__ import annotations

import cmath
import math
import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, InvariantViolation, ParseError
from .hilbert import (
    EvolutionSpec,
    HermitianOperator,
    ProjectorSet,
    StateVector,
    _rank_one_entries,
    heisenberg_projectors,
)
from .histories import HistorySet
from .coarsegrain import _is_class_list, _load_class_list
from .finegrained import FineGrainedSpec
from .composite import CompositeSystem

__all__ = ["DIM_CAP", "ModelDocument", "build_composites", "build_evolution", "build_finegrained",
           "build_history_set", "build_state", "format_complex", "load_model", "parse_complex",
           "parse_model"]

DIM_CAP = 1024   # Hilbert-space dimension; each operator is a dense d x d complex matrix

Matrix = tuple[tuple[complex, ...], ...]


@dataclass(frozen=True)
class MemberClause:
    label: str
    kind: str                     # "basis" | "matrix"
    indices: tuple[int, ...] = ()
    matrix: Matrix | None = None


@dataclass(frozen=True)
class SlotClause:
    time: float
    name: str
    members: tuple[MemberClause, ...]


@dataclass(frozen=True)
class EvolutionClause:
    kind: str                     # "zero" | "hamiltonian" | "unitary"
    hamiltonian: Matrix | None = None
    unitaries: tuple[tuple[float, Matrix], ...] = ()


@dataclass(frozen=True)
class PartitionClause:
    name: str
    classes: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class FineClause:
    time: float
    rows: Matrix


@dataclass(frozen=True)
class CompositeClause:
    name: str
    paths: tuple[str, ...]


@dataclass(frozen=True)
class ModelDocument:
    dim: int | None = None
    state: tuple[complex, ...] | None = None
    evolution: EvolutionClause | None = None
    slots: tuple[SlotClause, ...] = ()
    partitions: tuple[PartitionClause, ...] = ()
    finegrained: tuple[FineClause, ...] = ()
    composites: tuple[CompositeClause, ...] = ()


def _finite(word: str) -> float:
    """A finite ASCII decimal such as 1.5, -.5 or 2e-3; word holds no blank.

    float() also takes "_" between digits and non-ASCII digits."""
    value = float(word) if word.isascii() and "_" not in word else math.nan
    if not math.isfinite(value):
        raise ValueError(f"not a finite decimal: {word!r}")
    return value


def _count(text: str) -> int:
    """A dim or basis index: ASCII digits only."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a count: {text!r}")
    return int(text)


# One number token, of parse_complex's characters (so no blank, "_",
# parenthesis, nan, inf or non-ASCII digit); complex() reads each token.
_NUMBER = re.compile(r"[0-9+\-.eEij]++")
# Drops a literal's brackets and reads an "i" suffix as "j".
_TOKENS = str.maketrans({"[": None, "]": None, "i": "j"})


def _values(literal: str) -> list[complex] | None:
    """The finite values of a literal that _NUMBER, _VECTOR or _MATRIX matched,
    read in one split at its commas ("-i" as -1j); None if any token is not a
    finite number. str.strip drops exactly the blanks the patterns allow
    around a token, non-ASCII ones included."""
    tokens = list(map(str.strip, literal.translate(_TOKENS).split(",")))
    try:
        values = list(map(complex, tokens))
    except ValueError:
        return None
    if "-j" in tokens:   # keeps the -0.0 real part that complex("-j") drops
        values = [-1j if t == "-j" else z for t, z in zip(tokens, values)]
    return values if all(map(cmath.isfinite, values)) else None


def parse_complex(text: str) -> complex:
    """One finite literal: "1.5", "2i", "1+2i", "-1.5e-3-2e-4j"."""
    s = text.strip()
    values = _NUMBER.fullmatch(s) and _values(s)
    if not values:
        raise ValueError(f"not a finite number: {text!r}")
    return values[0]


def format_complex(z: complex) -> str:
    """Shortest round-trip text that parse_complex reads back; numpy scalars too."""
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{repr(z.real)}{sign}{repr(abs(z.imag))}i"


_SPACE = re.compile(r"\s*")
_WORD = re.compile(r"\s*+(\S++)")
_STRUCTURE = re.compile(r"[][{},]")


class _Line:
    """Cursor over one logical line; tracks the column for diagnostics."""

    def __init__(self, no: int, text: str, pos: int = 0):
        self.no = no
        self.text = text
        self.pos = pos

    def fail(self, expected: str, at: int | None = None):
        at = self.pos if at is None else at
        raise ParseError(self.no, at + 1, expected, self.text[at:].strip()[:40])

    def skip_ws(self):
        self.pos = _SPACE.match(self.text, self.pos).end()

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect_end(self):
        if not self.at_end():
            self.fail("end of line")

    def word(self, expected: str) -> str:
        m = _WORD.match(self.text, self.pos)
        if m is None:
            self.skip_ws()
            self.fail(expected)
        self.pos = m.end()
        return m.group(1)

    def keyword(self, kw: str):
        if self.word(f"the word {kw}") != kw:
            self.fail(f"the word {kw}")

    def number(self, expected: str, conv):
        start = self.pos
        w = self.word(expected)
        try:
            return conv(w)
        except ValueError:
            self.fail(expected, at=start)

    def literal(self, open_ch: str, expected: str) -> list[tuple[str, int]]:
        """Balanced literal at the cursor, split at its top-level commas.

        Returns (piece, offset) pairs and moves the cursor past the closer,
        which must be the same bracket kind as open_ch.
        """
        self.skip_ws()
        start = self.pos
        if not self.text.startswith(open_ch, start):
            self.fail(expected)
        close_ch = "]" if open_ch == "[" else "}"
        pieces, depth, piece_start = [], 0, start + 1
        for m in _STRUCTURE.finditer(self.text, start):
            c, k = m.group(), m.start()
            if c in "[{":
                depth += 1
            elif c == ",":
                if depth == 1:
                    pieces.append((self.text[piece_start:k], piece_start))
                    piece_start = k + 1
            else:
                depth -= 1
                if depth == 0:
                    if c != close_ch:
                        self.fail(f"closing {close_ch!r}", at=k)
                    pieces.append((self.text[piece_start:k], piece_start))
                    self.pos = k + 1
                    return pieces
        self.fail(f"closing {close_ch!r}", at=len(self.text))


def _scan_vector(line: _Line, expected: str) -> tuple[complex, ...]:
    values = []
    for piece, off in line.literal("[", expected):
        try:
            values.append(parse_complex(piece))
        except ValueError:
            if not piece.strip():
                line.fail("a number", at=off)
            line.fail("a number like 1.5 or 1+2i", at=off + (len(piece) - len(piece.lstrip())))
    return tuple(values)


def _scan_matrix(line: _Line, expected: str) -> Matrix:
    pieces = line.literal("[", expected)
    rows = []
    for piece, off in pieces:
        sub = _Line(line.no, line.text, off)
        rows.append(_scan_vector(sub, "a row like [1,0]"))
        sub.skip_ws()
        if sub.pos < off + len(piece):
            sub.fail("',' or ']' after a row")
    if any(len(r) != len(rows[0]) for r in rows):
        line.fail("rows of equal length", at=pieces[0][1] - 1)
    return tuple(rows)


# The whole grammar of a vector or matrix literal, so that one match validates
# it and _values reads it in one split: brackets, depth-1 commas, blanks and
# _NUMBER tokens. Every repetition is possessive, so a literal the patterns
# refuse fails at its first miss; it goes to the scanner above, which places
# the error, as does one whose tokens _values refuses.
_ROW = rf"\[\s*+{_NUMBER.pattern}(?:\s*+,\s*+{_NUMBER.pattern})*+\s*+\]"
_VECTOR = re.compile(rf"\s*+{_ROW}")
_MATRIX = re.compile(rf"\s*+\[\s*+{_ROW}(?:\s*+,\s*+{_ROW})*+\s*+\]")


def _parse_vector(line: _Line, expected: str) -> tuple[complex, ...]:
    m = _VECTOR.match(line.text, line.pos)
    values = m and _values(m.group())
    if not values:
        return _scan_vector(line, expected)
    line.pos = m.end()
    return tuple(values)


def _parse_matrix(line: _Line, expected: str) -> Matrix:
    m = _MATRIX.match(line.text, line.pos)
    values = m and _values(m.group())
    # split at "]", "," + the literal gives one piece per row (and two after
    # the last), each holding the row's comma count: its width
    widths = values and {row.count(",") for row in ("," + m.group()).split("]")[:-2]}
    if not widths or len(widths) != 1:
        return _scan_matrix(line, expected)
    line.pos = m.end()
    k = widths.pop()
    return tuple(tuple(values[i:i + k]) for i in range(0, len(values), k))


def _parse_square(line: _Line, d: int, expected: str, what: str = "matrix") -> Matrix:
    mat = _parse_matrix(line, expected)
    if len(mat) != d or len(mat[0]) != d:
        line.fail(f"a {d}x{d} {what}", at=0)
    return mat


def _parse_index_set(line: _Line, dim: int) -> tuple[int, ...]:
    indices = []
    for piece, off in line.literal("{", "an index set like {0,2}"):
        try:
            i = _count(piece.strip())
        except ValueError:
            line.fail("a basis index", at=off)
        if not 0 <= i < dim:
            line.fail(f"an index in 0..{dim - 1}", at=off)
        indices.append(i)
    return tuple(indices)


_DIRECTIVES = "dim, state, evolution, slot, member, partition, finegrained, composite"


class _Parser:
    def __init__(self):
        self.dim: int | None = None
        self.state = None
        self.evolution: EvolutionClause | None = None
        self.slots: list[SlotClause] = []
        self.partitions: list[PartitionClause] = []
        self.finegrained: list[FineClause] = []
        self.composites: list[CompositeClause] = []
        # open slot being accumulated: (line, time, name, [members])
        self.open_slot: tuple[_Line, float, str, list[MemberClause]] | None = None

    def need_dim(self, line: _Line, what: str) -> int:
        if self.dim is None:
            raise ParseError(line.no, 1, f"dim declared before {what}", "")
        return self.dim

    def close_slot(self):
        if self.open_slot is None:
            return
        line, time, name, members = self.open_slot
        if not members:
            raise ParseError(line.no, 1, "at least one member after slot", "")
        self.slots.append(SlotClause(time, name, tuple(members)))
        self.open_slot = None

    def check_time_order(self, line: _Line, clauses, time: float, what: str):
        if clauses and time <= clauses[-1].time:
            line.fail(f"{what} time greater than {clauses[-1].time}")

    def new_name(self, line: _Line, clauses, what: str) -> str:
        """The next word, refused at its column if an earlier clause has that name."""
        name = line.word(f"a {what} name")
        if any(c.name == name for c in clauses):
            line.fail(f"a {what} name other than {name} (already declared)",
                      at=line.pos - len(name))
        return name

    def directive(self, line: _Line):
        head = line.word("a directive")
        if head != "member":
            self.close_slot()
        handler = getattr(self, "on_" + head, None)
        if handler is None:
            raise ParseError(line.no, 1, f"a directive ({_DIRECTIVES})", head)
        handler(line)
        line.expect_end()

    def on_dim(self, line: _Line):
        if self.dim is not None:
            line.fail("a single dim declaration")
        start = line.pos
        n = line.number("a positive integer dimension", _count)
        if n < 1:
            line.fail("a positive integer dimension", at=start)
        if n > DIM_CAP:
            raise CapExceeded("dimension", n, DIM_CAP)
        self.dim = n

    def on_state(self, line: _Line):
        if self.state is not None:
            line.fail("a single state declaration")
        d = self.need_dim(line, "state")
        vec = _parse_vector(line, "an amplitude vector like [1,0]")
        if len(vec) != d:
            line.fail(f"{d} amplitudes", at=0)
        self.state = vec

    def on_evolution(self, line: _Line):
        kind = line.word("zero, hamiltonian, or unitary")
        if kind == "zero":
            if self.evolution is not None:
                line.fail("a single evolution declaration")
            self.evolution = EvolutionClause("zero")
        elif kind == "hamiltonian":
            if self.evolution is not None:
                line.fail("a single evolution declaration")
            d = self.need_dim(line, "evolution hamiltonian")
            mat = _parse_square(line, d, "a hamiltonian matrix")
            self.evolution = EvolutionClause("hamiltonian", hamiltonian=mat)
        elif kind == "unitary":
            if self.evolution is not None and self.evolution.kind != "unitary":
                line.fail("a single evolution kind")
            d = self.need_dim(line, "evolution unitary")
            t = line.number("a time label", _finite)
            mat = _parse_square(line, d, "a unitary matrix")
            prior = self.evolution.unitaries if self.evolution else ()
            if any(pt == t for pt, _ in prior):
                line.fail(f"a time other than {t} (already declared)")
            self.evolution = EvolutionClause("unitary", unitaries=prior + ((t, mat),))
        else:
            line.fail("zero, hamiltonian, or unitary")

    def on_slot(self, line: _Line):
        t = line.number("a time label", _finite)
        self.check_time_order(line, self.slots, t, "slot")
        name = line.word("a slot name")
        self.open_slot = (line, t, name, [])

    def on_member(self, line: _Line):
        if self.open_slot is None:
            raise ParseError(line.no, 1, "a slot line before member", "member")
        label = line.word("a member label")
        kind = line.word("basis or matrix")
        if kind == "basis":
            d = self.need_dim(line, "member basis")
            clause = MemberClause(label, "basis", indices=_parse_index_set(line, d))
        elif kind == "matrix":
            d = self.need_dim(line, "member matrix")
            clause = MemberClause(label, "matrix",
                                  matrix=_parse_square(line, d, "a projector matrix"))
        else:
            line.fail("basis or matrix")
        self.open_slot[3].append(clause)

    def on_partition(self, line: _Line):
        name = self.new_name(line, self.partitions, "partition")
        # the first piece starts just after the opening "["
        start = line.literal("[", "a class list like [[0],[1,2]]")[0][1] - 1
        literal = line.text[start:line.pos]
        raw = _load_class_list(literal, line.no, start + 1, "a class list like [[0],[1,2]]")
        if not _is_class_list(raw):
            line.fail("nonempty lists of integers", at=start)
        self.partitions.append(PartitionClause(name, tuple(tuple(c) for c in raw)))

    def on_finegrained(self, line: _Line):
        d = self.need_dim(line, "finegrained")
        t = line.number("a time label", _finite)
        self.check_time_order(line, self.finegrained, t, "finegrained")
        line.keyword("basis")
        rows = _parse_square(line, d, "a basis matrix (one row per vector)",
                             "basis (rows are vectors)")
        self.finegrained.append(FineClause(t, rows))

    def on_composite(self, line: _Line):
        name = self.new_name(line, self.composites, "composite")
        line.keyword("factors")
        paths = []
        while not line.at_end():
            paths.append(line.word("a factor path"))
        if len(paths) < 2:
            line.fail("at least two factor paths")
        self.composites.append(CompositeClause(name, tuple(paths)))


def parse_model(text: str) -> ModelDocument:
    parser = _Parser()
    saw_any = False
    for no, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        saw_any = True
        parser.directive(_Line(no, body))
    parser.close_slot()
    if not saw_any:
        raise ParseError(1, 1, f"at least one directive ({_DIRECTIVES})", "")
    return ModelDocument(
        dim=parser.dim,
        state=parser.state,
        evolution=parser.evolution,
        slots=tuple(parser.slots),
        partitions=tuple(parser.partitions),
        finegrained=tuple(parser.finegrained),
        composites=tuple(parser.composites),
    )


def _require(doc: ModelDocument, section: str):
    value = getattr(doc, section)
    if value is None or value == ():
        raise InvariantViolation("missing-section", 1.0,
                                 f"model file declares no {section}")


def build_state(doc: ModelDocument) -> StateVector:
    _require(doc, "state")
    return StateVector(np.array(doc.state, dtype=np.complex128))


def build_evolution(doc: ModelDocument) -> EvolutionSpec:
    """Declared evolution, or the trivial one if the file omits it."""
    if doc.evolution is None or doc.evolution.kind == "zero":
        _require(doc, "dim")
        return EvolutionSpec.zero(doc.dim)
    if doc.evolution.kind == "hamiltonian":
        return EvolutionSpec(hamiltonian=HermitianOperator(
            np.array(doc.evolution.hamiltonian, dtype=np.complex128)))
    return EvolutionSpec(
        unitaries={t: np.array(m, dtype=np.complex128) for t, m in doc.evolution.unitaries})


def _member_matrix(doc: ModelDocument, m: MemberClause) -> np.ndarray:
    if m.kind == "basis":
        entries = np.zeros((doc.dim, doc.dim), dtype=np.complex128)
        for i in m.indices:
            entries[i, i] = 1.0
        return entries
    return np.array(m.matrix, dtype=np.complex128)


def _heisenberg_slots(evo: EvolutionSpec, slots) -> tuple[ProjectorSet, ...]:
    """Heisenberg-picture projector sets from (time, [(matrix, label), ...]) pairs."""
    return tuple(ProjectorSet(heisenberg_projectors(members, t, evo), time=t)
                 for t, members in slots)


def build_history_set(doc: ModelDocument) -> HistorySet:
    _require(doc, "slots")
    evo = build_evolution(doc)
    return HistorySet(_heisenberg_slots(evo, (
        (sc.time, [(_member_matrix(doc, m), m.label) for m in sc.members]) for sc in doc.slots)))


def build_finegrained(doc: ModelDocument) -> FineGrainedSpec:
    _require(doc, "finegrained")
    evo = build_evolution(doc)
    slots = _heisenberg_slots(evo, (
        (fc.time, [(_rank_one_entries(row), str(i)) for i, row in enumerate(fc.rows)])
        for fc in doc.finegrained))
    return FineGrainedSpec(build_state(doc), HistorySet(slots))


def load_model(path: str) -> ModelDocument:
    """Read and parse a model file; build_* builds the sections a caller reads."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as e:
        raise InvariantViolation("model-file", 0.0,
                                 f"cannot read {path}: {e.strerror or e}") from None
    except UnicodeDecodeError as e:
        raise InvariantViolation("model-file", 0.0,
                                 f"cannot read {path}: not UTF-8 at byte offset {e.start} "
                                 f"({e.reason})") from None
    return parse_model(text)


def build_composites(doc: ModelDocument, base: str) -> dict[str, CompositeSystem]:
    """Composites by name; a factor path, relative to base, is read for state and slots."""
    _require(doc, "composites")
    composites = {}
    for comp in doc.composites:
        factors = []
        for rel in comp.paths:
            sub = load_model(os.path.join(base, rel))
            if sub.state is None or not sub.slots:
                raise InvariantViolation(
                    "missing-section", 1.0,
                    f"composite factor {rel} needs both a state and slots")
            factors.append((build_state(sub), build_history_set(sub)))
        composites[comp.name] = CompositeSystem(tuple(factors))
    return composites
