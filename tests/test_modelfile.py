"""Model-file parsing, diagnostics, serialization, and building."""
import functools
import itertools
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import perfbench_gen
from ephist import hilbert, modelfile
from ephist import (
    CapExceeded,
    EvolutionSpec,
    InvariantViolation,
    ParseError,
    Projector,
    all_extended_probabilities,
    build_composites,
    build_evolution,
    build_finegrained,
    build_history_set,
    build_state,
    format_complex,
    load_model,
    parse_complex,
    parse_model,
)
from oracles import joint_functional, parse_complex_loop, parse_model_loop, serialize_model

ROOT = Path(__file__).resolve().parent.parent
MODELS = ROOT / "models"


# -------------------------------------------------------------------- numbers

@pytest.mark.parametrize("text,value", [
    ("1.5", 1.5),
    ("-3", -3.0),
    ("2i", 2j),
    ("2j", 2j),
    ("i", 1j),
    ("+i", 1j),
    ("-i", -1j),
    ("1+2i", 1 + 2j),
    ("3-4j", 3 - 4j),
    ("1e-5+2e-6i", complex(1e-5, 2e-6)),
    ("1e+5i", 1e5j),
    ("-1.5e-3-2e-4j", complex(-1.5e-3, -2e-4)),
    (" 2.5 ", 2.5),
    ("0.5-0.5i", 0.5 - 0.5j),
])
def test_parse_complex(text, value):
    assert parse_complex(text) == value


def test_minus_i_keeps_its_negative_zero_real_part():
    assert math.copysign(1.0, parse_complex("-i").real) == -1.0
    assert math.copysign(1.0, parse_complex_loop("-i").real) == -1.0
    # a trailing -i inside vector and matrix literals, read by one pattern
    for parse in (parse_model, parse_model_loop):
        doc = parse("dim 2\nstate [0,-i]\nevolution hamiltonian [[0,-i],[i,0]]\n"
                    "slot 1 s\nmember X matrix [[0.5,-0.5j],[0.5i,0.5]]\nmember Y matrix [[1,0],[0,-j]]")
        entries = (doc.state[1], doc.evolution.hamiltonian[0][1], doc.slots[0].members[1].matrix[1][1])
        assert [(z.imag, math.copysign(1.0, z.real)) for z in entries] == [(-1.0, -1.0)] * 3


@pytest.mark.parametrize("text", ["", "abc", "1+2", "++i", "1i2",
                                  "nan", "-inf", "1e400", "nani", "1-infi", "0.5+1e400j",
                                  "1_0e-1", "1e5_0", "\u0661", "0.6 +0.8i", "0 i", "1\t+2i"])
def test_parse_complex_rejects(text):
    with pytest.raises(ValueError):
        parse_complex(text)


def _complex_outcome(parse, text):
    try:
        return repr(parse(text))
    except ValueError:
        return "ValueError"


# sign, number, exponent and gap pieces over the same alphabet: two parts and
# a suffix make well-formed and nearly well-formed literals common draws
_SIGN, _NUMBER, _EXPONENT, _GAP = (st.sampled_from(p) for p in (
    ("", "+", "-"), ("", "1", "2.5", ".5", "7.", "nan", "inf", "I"),
    ("", "e5", "E-3", "e+2", "e"), ("", " ", "\n", "\n ", "\t", "_")))
_PART = st.tuples(_SIGN, _NUMBER, _EXPONENT, _GAP).map("".join)
COMPLEX_TEXT = st.one_of(
    st.text(alphabet="0123456789+-.eEij nafI\n_\u0661\t", max_size=16),
    st.tuples(_PART, _PART, st.sampled_from(("", "i", "j"))).map("".join))


@given(text=COMPLEX_TEXT)
@settings(max_examples=1000, deadline=None)
def test_parse_complex_matches_loop_oracle(text):
    """The regex sign split reads every string over the literal alphabet as
    the backwards scan does: equal values, or ValueError from both."""
    assert _complex_outcome(parse_complex, text) == _complex_outcome(parse_complex_loop, text)


def test_parse_complex_matches_loop_oracle_on_every_short_string():
    """Every string of up to five characters over a compact literal alphabet."""
    texts = ["".join(t) for n in range(6) for t in itertools.product("01+-.eij", repeat=n)]
    assert len(texts) == 37449
    assert [t for t in texts
            if _complex_outcome(parse_complex, t) != _complex_outcome(parse_complex_loop, t)] == []


reals = st.floats(allow_nan=False, allow_infinity=False)


@given(re=reals, im=reals)
@settings(max_examples=200, deadline=None)
def test_format_complex_round_trips(re, im):
    z = complex(re, im)
    assert parse_complex(format_complex(z)) == z
    assert parse_complex(format_complex(np.complex128(z))) == z


# ------------------------------------------------------------ shipped models

ALL_MODELS = sorted(MODELS.glob("*.model"))


def test_models_are_present():
    names = {p.name for p in ALL_MODELS}
    assert {"threebox.model", "qubit_a.model", "qubit_b.model",
            "pair.model", "precession.model", "recorded.model"} <= names


@pytest.mark.parametrize("path", ALL_MODELS, ids=lambda p: p.stem)
def test_round_trip(path):
    doc = parse_model(path.read_text())
    canonical = serialize_model(doc)
    again = parse_model(canonical)
    assert again == doc
    assert serialize_model(again) == canonical   # fixed point


# ------------------------------------------------------------------ bad input

def _err(text):
    with pytest.raises(ParseError) as exc:
        parse_model(text)
    assert exc.value.exit_status == 2
    return exc.value


def _both_fail(text, line, expected):
    """parse_model and the loop oracle fail with the same line and expectation."""
    for parse in (parse_model, parse_model_loop):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.expected) == (line, expected)


def test_unknown_directive():
    e = _err("dove 3")
    assert (e.line, e.col) == (1, 1)
    assert "directive" in e.expected
    assert e.found == "dove"


def test_state_needs_dim_first():
    e = _err("state [1,0]")
    assert e.line == 1
    assert "dim declared before state" in e.expected


def test_wrong_amplitude_count():
    e = _err("dim 3\nstate [1,0]")
    assert e.line == 2
    assert "3 amplitudes" in e.expected


def test_bad_number_points_into_literal():
    e = _err("dim 2\nstate [1,zebra]")
    assert (e.line, e.col) == (2, 10)
    assert "number" in e.expected


@pytest.mark.parametrize("text,col", [
    ("dim 2\nstate [nan,0]", 8),
    ("dim 2\nstate [1,0-1e400i]", 10),
    ("dim 2\nslot inf x", 5),
    ("dim 2\nslot 1e400 x", 5),
    ("dim 2\nevolution unitary nan [[1,0],[0,1]]", 18),
    # inside a member matrix row and a Hamiltonian literal
    ("dim 2\nevolution hamiltonian [[0,nan],[nan,0]]", 27),
    ("dim 2\nslot 1 s\nmember X matrix [[1,0],[0,nan]]", 27),
    ("dim 2\nevolution hamiltonian [[0,1],[1,-inf]]", 33),
    ("dim 2\nslot 1 s\nmember X matrix [[inf,0],[0,0]]", 19),
    ("dim 2\nevolution hamiltonian [[1e400,0],[0,0]]", 25),
    ("dim 2\nslot 1 s\nmember X matrix [[1,0],[0,1-1e400i]]", 27),
])
def test_non_finite_literals_rejected_at_their_column(text, col):
    e = _err(text)
    assert (e.line, e.col) == (text.count("\n") + 1, col)
    assert _outcome(parse_model, text) == _outcome(parse_model_loop, text)


LENIENT = "dim 2\nstate [1,0]\nevolution zero\nslot 1.0 s\nmember A basis {0}\nmember B basis {1}\n"


@pytest.mark.parametrize("text,line,col,expected", [
    # amplitudes: float() took "_", non-ASCII digits and blanks inside a number
    ("dim 2\nstate [1_0e-1, 0]", 2, 8, "a number like 1.5 or 1+2i"),
    ("dim 2\nstate [1e5_0, 0]", 2, 8, "a number like 1.5 or 1+2i"),
    ("dim 2\nstate [\u0661, 0]", 2, 8, "a number like 1.5 or 1+2i"),
    ("dim 2\nstate [0.6 +0.8i, 0]", 2, 8, "a number like 1.5 or 1+2i"),
    ("dim 2\nstate [1, 0 i]", 2, 11, "a number like 1.5 or 1+2i"),
    ("dim 2\nstate [1,\t0\ti]", 2, 11, "a number like 1.5 or 1+2i"),
    # dim: int() took "_", non-ASCII digits and a sign
    ("dim 1_0", 1, 4, "a positive integer dimension"),
    ("dim \u0663", 1, 4, "a positive integer dimension"),
    ("dim +3", 1, 4, "a positive integer dimension"),
    # basis indices
    ("dim 2\nslot 1.0 s\nmember A basis {\u0661}", 3, 17, "a basis index"),
    ("dim 2\nslot 1.0 s\nmember A basis {0,1_0}", 3, 19, "a basis index"),
    ("dim 2\nslot 1.0 s\nmember A basis {+1}", 3, 17, "a basis index"),
    # slot, unitary and finegrained times
    ("dim 2\nslot 1_0 s", 2, 5, "a time label"),
    ("dim 2\nslot \u0661 s", 2, 5, "a time label"),
    ("dim 2\nevolution unitary 1_0 [[1,0],[0,1]]", 2, 18, "a time label"),
    ("dim 2\nfinegrained 2_0 basis [[1,0],[0,1]]", 2, 12, "a time label"),
    # inside a member matrix row and a Hamiltonian literal: "_", inner
    # blanks, a ragged row and a trailing -i after a blank or another -i
    ("dim 2\nevolution hamiltonian [[0,1_0],[1_0,0]]", 2, 27, "a number like 1.5 or 1+2i"),
    ("dim 2\nslot 1 s\nmember X matrix [[1,0],[0,1_0]]", 3, 27, "a number like 1.5 or 1+2i"),
    ("dim 2\nevolution hamiltonian [[0,1 +0i],[1,0]]", 2, 27, "a number like 1.5 or 1+2i"),
    ("dim 2\nslot 1 s\nmember X matrix [[1,0],[0, 0 .5 ]]", 3, 28, "a number like 1.5 or 1+2i"),
    ("dim 2\nevolution hamiltonian [[0,1],[1]]", 2, 23, "rows of equal length"),
    ("dim 2\nslot 1 s\nmember X matrix [[1,0,0],[0,1]]", 3, 17, "rows of equal length"),
    ("dim 2\nevolution hamiltonian [[0,1 -i],[1+i,0]]", 2, 27, "a number like 1.5 or 1+2i"),
    ("dim 2\nslot 1 s\nmember X matrix [[1,0],[0,2-i-i]]", 3, 27, "a number like 1.5 or 1+2i"),
])
def test_lenient_number_forms_rejected_at_their_column(text, line, col, expected):
    """Forms Python's float() and int() accept but the grammar does not are
    ParseErrors at the number's column, from the parser and from the oracle."""
    for parse in (parse_model, parse_model_loop):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col, exc.value.expected) == (line, col, expected)
    assert _outcome(parse_model, text) == _outcome(parse_model_loop, text)


@pytest.mark.parametrize("text,line,col,expected", [
    ("dim", 1, 4, "a positive integer dimension"),
    ("dim 2\nstate", 2, 6, "an amplitude vector like [1,0]"),
    ("dim 2\nslot", 2, 5, "a time label"),
    ("dim 2\nslot 1.0", 2, 9, "a slot name"),
    ("dim 2\nslot 1.0 s\nmember", 3, 7, "a member label"),
    ("dim 2\nslot 1.0 s\nmember A", 3, 9, "basis or matrix"),
    ("dim 2\nevolution", 2, 10, "zero, hamiltonian, or unitary"),
])
def test_missing_argument_at_end_of_line(text, line, col, expected):
    """A directive cut off before its argument is a ParseError just past its
    last character, from the parser and from the oracle."""
    for parse in (parse_model, parse_model_loop):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.col, exc.value.expected) == (line, col, expected)


def test_grammar_keeps_the_forms_it_accepts():
    doc = parse_model("dim 2\nstate [ .6 , -.8i ]\nevolution unitary 1. [[1,0],[0,1]]\n"
                      "slot 1e0 s\nmember A basis { 0 , 1 }\n")
    assert doc == parse_model_loop(serialize_model(doc))
    assert doc.state == (0.6, -0.8j) and doc.slots[0].time == 1.0
    assert doc.slots[0].members[0].indices == (0, 1)


def test_unterminated_bracket():
    e = _err("dim 2\nstate [1,0")
    assert (e.line, e.col) == (2, 11)
    assert "closing" in e.expected


_LARGE = "[" + ",".join(
    "[" + ",".join(format_complex(complex(i - j, (i + j) % 3 - 1)) for j in range(100)) + "]"
    for i in range(100)) + "]"


@pytest.mark.parametrize("text", [
    "dim 100\nslot 1 s\nmember X matrix " + _LARGE[:-2] + "x]",   # the last row's "]" replaced
    "dim 100\nevolution hamiltonian " + _LARGE[:-1],               # left unterminated
], ids=["last-row-closer-replaced", "unterminated"])
def test_large_refused_literal_gives_the_loop_oracles_error(text):
    """A 100x100 literal the pattern refuses near its end gives the loop
    oracle's ParseError, field for field, once the scanner places it."""
    e = _err(text)
    assert (e.line, e.col, e.expected) == (text.count("\n") + 1,
                                           len(text) - text.rindex("\n"), "closing ']'")
    assert _outcome(parse_model, text) == _outcome(parse_model_loop, text)


@pytest.mark.parametrize("text,line,col,expected", [
    ("dim 2\nstate [1,0}", 2, 11, "closing ']'"),
    ("dim 2\nslot 1 x\nmember A basis {0]", 3, 18, "closing '}'"),
    ("dim 2\npartition p [[0,1]}", 2, 19, "closing ']'"),
])
def test_mismatched_closer(text, line, col, expected):
    e = _err(text)
    assert (e.line, e.col, e.expected) == (line, col, expected)


@pytest.mark.parametrize("text,line,col,found", [
    ("dim 2\nslot 1 x\nmember A matrix [[1,0] junk,[0,0]]", 3, 24, "junk,[0,0]]"),
    ("dim 2\nevolution hamiltonian [[0,1]x[1,0],[1,0]]", 2, 29, "x[1,0],[1,0]]"),
])
def test_text_after_matrix_row(text, line, col, found):
    e = _err(text)
    assert (e.line, e.col, e.found) == (line, col, found)
    assert "after a row" in e.expected


def test_member_outside_slot():
    e = _err("dim 2\nmember A basis {0}")
    assert e.line == 2
    assert "slot line before member" in e.expected


def test_duplicate_dim():
    e = _err("dim 2\ndim 3")
    assert "single dim" in e.expected
    for text in ("dim 0", "dim  00"):
        for parse in (parse_model, parse_model_loop):
            with pytest.raises(ParseError) as exc:
                parse(text)
            e = exc.value
            # at the number's start with the number as found, as "dim 1_0" is
            assert (e.line, e.col, e.expected, e.found) == (
                1, 4, "a positive integer dimension", text[3:].strip())
    _both_fail("dim 2\nstate [1,0]\nstate [0,1]", 3, "a single state declaration")


def test_slot_times_must_increase():
    e = _err("dim 2\nstate [1,0]\n"
             "slot 2.0 a\nmember x basis {0,1}\n"
             "slot 1.0 b\nmember y basis {0,1}\n")
    assert e.line == 5
    assert "greater than 2.0" in e.expected


def test_empty_slot_rejected():
    e = _err("dim 2\nslot 1.0 x")
    assert e.line == 2
    assert "at least one member" in e.expected
    e = _err("dim 2\nslot 1.0 x\npartition p [[0]]")
    assert e.line == 2


def test_member_index_range():
    e = _err("dim 2\nslot 1.0 x\nmember A basis {5}")
    assert e.line == 3
    assert "0..1" in e.expected


def test_bad_partition_literal():
    _err("dim 2\npartition p [[0,]]")
    e = _err("dim 2\npartition p [[0,],[1]]")
    assert (e.line, e.col, e.found) == (2, 17, "],[1]]")
    e = _err("dim 2\npartition p [[0],[]]")
    assert "nonempty lists" in e.expected


@pytest.mark.parametrize("text,col,expected,found", [
    ("dim 6\npartition sector [[0,1,2],[3,4,5]]\npartition  sector [[0],[1,2,3,4,5]]",
     12, "a partition name other than sector (already declared)", "sector [[0],[1,2,3,4,5]]"),
    ("composite pair factors a.model b.model\ncomposite pair factors c.model d.model",
     11, "a composite name other than pair (already declared)", "pair factors c.model d.model"),
])
def test_repeated_name_refused_at_its_column(text, col, expected, found):
    """A second partition or composite of one name is refused at the name,
    by the parser and by the loop oracle, instead of shadowing the first."""
    for parse in (parse_model, parse_model_loop):
        with pytest.raises(ParseError) as exc:
            parse(text)
        e = exc.value
        assert (e.line, e.col, e.expected, e.found) == (text.count("\n") + 1, col, expected, found)
    # another name is a new clause
    renamed = text.replace(" sector [[0],", " other [[0],").replace("pair factors c", "two factors c")
    doc = parse_model(renamed)
    assert len(doc.partitions) + len(doc.composites) == 2


def test_composite_needs_two_factors():
    e = _err("composite pair factors a.model")
    assert "at least two factor paths" in e.expected


def test_single_evolution_kind():
    e = _err("dim 2\nevolution zero\nevolution hamiltonian [[0,1],[1,0]]")
    assert e.line == 3 and "single evolution" in e.expected
    e = _err("dim 2\nevolution warp")
    assert "zero, hamiltonian, or unitary" in e.expected
    e = _err("dim 2\n"
             "evolution unitary 1.0 [[1,0],[0,1]]\n"
             "evolution unitary 1.0 [[0,1],[1,0]]")
    assert e.line == 3 and "already declared" in e.expected
    _both_fail("dim 2\nevolution zero\nevolution zero", 3, "a single evolution declaration")
    _both_fail("dim 2\nevolution zero\nevolution unitary 1.0 [[1,0],[0,1]]", 3,
               "a single evolution kind")


def test_matrix_shape_checks():
    e = _err("dim 2\nevolution hamiltonian [[0,1]]")
    assert "2x2" in e.expected
    e = _err("dim 2\nevolution hamiltonian [[0,1],[1]]")
    assert "equal length" in e.expected


def test_trailing_junk():
    e = _err("dim 2 extra")
    assert "end of line" in e.expected


def test_empty_document():
    for text in ("", "   \n\n", "# only a comment\n"):
        e = _err(text)
        assert (e.line, e.col) == (1, 1)


def test_finegrained_checks():
    e = _err("finegrained 1.0 basis [[1]]")
    assert "dim declared before finegrained" in e.expected
    e = _err("dim 2\nfinegrained 1.0 rows [[1,0],[0,1]]")
    assert "the word basis" in e.expected
    e = _err("dim 2\n"
             "finegrained 2.0 basis [[1,0],[0,1]]\n"
             "finegrained 1.0 basis [[1,0],[0,1]]")
    assert e.line == 3 and "greater than 2.0" in e.expected


def test_parse_error_payload():
    for text, line, col, found in [
        ("dove 3", 1, 1, "dove"),
        ("dim 2\nstate [1,zebra]", 2, 10, "zebra]"),     # found starts at the column
    ]:
        payload = _err(text).payload()
        assert (payload["line"], payload["col"]) == (line, col)
        assert payload["expected"] and payload["found"] == found


EDIT_CHARS = "[]{},+-.eEij0123456789 x\n#_\u0661\t\u00a0"


def _edit(draw, text: str, lo: int, hi: int) -> str:
    """text after one single-character insert, delete or replacement at lo..hi."""
    at = draw(st.integers(lo, hi))
    edit = draw(st.sampled_from(["insert", "delete", "replace"]))
    new = "" if edit == "delete" else draw(st.sampled_from(EDIT_CHARS))
    return text[:at] + new + text[at + (edit != "insert"):]


@st.composite
def mutated_models(draw):
    """A shipped model after 1-3 single-character inserts, deletes or replacements."""
    text = draw(st.sampled_from(ALL_MODELS)).read_text()
    for _ in range(draw(st.integers(1, 3))):
        text = _edit(draw, text, 0, len(text))
    return text


@functools.cache
def _benchmark_literal_lines() -> tuple[str, ...]:
    """Seed 0 of the benchmark up to its first records-settle member line and
    up to its first model-sweep "evolution hamiltonian" line."""
    gen = perfbench_gen()
    excerpts = []
    for workload, head in (("records-settle", "member "), ("model-sweep", "evolution hamiltonian ")):
        lines = gen.generate(workload, 0)[0].text.splitlines()
        last = next(k for k, line in enumerate(lines) if line.startswith(head))
        excerpts.append("\n".join(lines[:last + 1]) + "\n")
    return tuple(excerpts)


@st.composite
def mutated_literals(draw):
    """A benchmark excerpt after 1-3 single-character edits inside the bracket
    literal of its last line, where a literal is read by one pattern."""
    text = draw(st.sampled_from(_benchmark_literal_lines()))
    lo = text.index("[", text.rindex("\n", 0, -1))   # the last line's literal
    for _ in range(draw(st.integers(1, 3))):
        text = _edit(draw, text, lo, len(text) - 2)   # the final "]" sits at len - 2
    return text


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as e:
        return ("ParseError", e.line, e.col, e.expected, e.found)
    except CapExceeded as e:
        return ("CapExceeded", e.what, e.value, e.cap)


@given(text=mutated_models())
@settings(max_examples=400, deadline=None)
def test_parser_matches_loop_oracle_on_mutated_models(text):
    """Same document, or the same error at the same place, as the
    character-walking parser in tests/oracles.py."""
    assert _outcome(parse_model, text) == _outcome(parse_model_loop, text)


@given(text=mutated_literals())
@settings(max_examples=400, deadline=None)
def test_parser_matches_loop_oracle_on_mutated_benchmark_literals(text):
    """Edits inside a large member matrix and a Hamiltonian literal give the
    loop oracle's document or its error, whichever way the pattern goes."""
    assert _outcome(parse_model, text) == _outcome(parse_model_loop, text)


def test_benchmark_models_parse_like_the_loop_oracle():
    """The benchmark's inputs stay inside the grammar: seed 0 of every
    workload (the first 20 sweep models) parses to the oracle's document."""
    gen = perfbench_gen()
    for workload in gen.WORKLOADS:
        for spec in gen.generate(workload, 0)[:20]:
            assert parse_model(spec.text) == parse_model_loop(spec.text)


def _no_scanner(monkeypatch):
    def scanner(line, expected):
        raise AssertionError(f"line {line.no} fell back to the scanner: {line.text[:60]}")

    monkeypatch.setattr(modelfile, "_scan_vector", scanner)
    monkeypatch.setattr(modelfile, "_scan_matrix", scanner)


def test_valid_literals_never_reach_the_scanner(monkeypatch):
    """Every shipped model and seed 0 of every benchmark workload is read by
    the single-pattern path alone: a literal that fell back to the scanner
    would still parse, but without the speed the pattern gives."""
    _no_scanner(monkeypatch)
    for path in ALL_MODELS:
        parse_model(path.read_text())
    gen = perfbench_gen()
    for workload in gen.WORKLOADS:
        for spec in gen.generate(workload, 0):
            parse_model(spec.text)


def test_strip_drops_exactly_the_blanks_the_patterns_allow():
    """_values strips each token with str.strip, where the patterns allow \\s:
    the same characters, across all of Unicode."""
    chars = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"\s", chars) == [c for c in chars if not c.strip()]


@pytest.mark.parametrize("b", ["\t", "\x1f", " ", "\u3000"])
def test_split_literal_reader_matches_the_loop_oracle(b, monkeypatch):
    """Vector, square and 1x1 matrix literals with a tab, a unit separator, a
    space or an ideographic space around -i, -j and i entries are read by
    the single-pattern path alone, and give the loop oracle's document field
    for field and by the repr of each value, so every -0.0 real part
    survives. A ragged last row gives the oracle's error."""
    def lit(rows):
        return "[" + ",".join(f"{b}[{b}" + f"{b},{b}".join(r) + f"{b}]{b}" for r in rows) + "]"

    text = "\n".join((
        "dim 2",
        f"state [{b}-i{b},{b}0.6{b}]",
        f"evolution hamiltonian {lit([['0', '-i'], ['i', '-0.0']])}",
        "slot 1 s",
        f"member X matrix {lit([['-j', '-0.0-2.5e-1i'], ['0.5i', '1']])}",
        f"member Y matrix {lit([['i', '-1.5e+0j'], ['-i', '-j']])}",
    ))
    one = f"dim 1\nstate [{b}-j{b}]\nslot 1 s\nmember X matrix {lit([['-i']])}"
    ragged = f"dim 2\nslot 1 s\nmember X matrix {lit([['1', '0'], ['-i']])}"
    assert _outcome(parse_model, ragged) == _outcome(parse_model_loop, ragged)
    assert _outcome(parse_model, ragged)[:4] == ("ParseError", 3, 17, "rows of equal length")
    _no_scanner(monkeypatch)
    for model in (text, one):
        assert repr(parse_model(model)) == repr(parse_model_loop(model))
    assert [math.copysign(1.0, z.real) for z in parse_model(text).state] == [-1.0, 1.0]


# ------------------------------------------------------------------- building

def test_build_state_requires_state():
    doc = parse_model("dim 2")
    with pytest.raises(InvariantViolation) as exc:
        build_state(doc)
    assert exc.value.name == "missing-section"


def test_build_evolution_defaults_to_zero():
    doc = parse_model("dim 2\nstate [1,0]\nslot 1.0 x\nmember A basis {0}\nmember B basis {1}")
    evo = build_evolution(doc)
    trivial = EvolutionSpec.zero(2)
    hs = build_history_set(doc)
    # trivial evolution leaves the declared projectors untouched
    assert np.array_equal(hs.slots[0].members[0].entries, np.diag([1.0, 0.0]))
    assert type(evo) is type(trivial)


def test_incomplete_slot_fails_on_build():
    doc = parse_model("dim 3\nslot 1.0 x\nmember A basis {0}\nmember B basis {1}")
    with pytest.raises(InvariantViolation):
        build_history_set(doc)


def test_unitary_evolution_needs_matching_times():
    """U(t) is formed before a slot's members are checked as evolved, so an
    unknown time is reported even before a member that is not a projector."""
    for member in ("member A basis {0}", "member A matrix [[0.5,0],[0,1]]"):
        doc = parse_model("dim 2\nstate [1,0]\n"
                          "evolution unitary 1.0 [[0,1],[1,0]]\n"
                          f"slot 2.0 x\n{member}\nmember B basis {{1}}")
        with pytest.raises(InvariantViolation) as exc:
            build_history_set(doc)
        assert exc.value.name == "known-time"


def test_one_eigendecomposition_per_hamiltonian(monkeypatch):
    """Three slots under one Hamiltonian: U(t) is formed at each slot time
    from a single np.linalg.eigh of H."""
    eigh, exponential = np.linalg.eigh, hilbert.hermitian_exponential
    calls = {"eigh": 0, "exp": 0}

    def counted_eigh(a):
        calls["eigh"] += 1
        return eigh(a)

    def counted_exp(h, t):
        calls["exp"] += 1
        return exponential(h, t)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(hilbert, "hermitian_exponential", counted_exp)
    text = "dim 2\nstate [1,0]\nevolution hamiltonian [[0,0.5],[0.5,0]]\n" + "".join(
        f"slot {t} s{t}\nmember A basis {{0}}\nmember B basis {{1}}\n" for t in (1, 2, 3))
    hs = build_history_set(parse_model(text))
    assert hs.n_times == 3
    assert calls == {"eigh": 1, "exp": 3}


def test_each_member_becomes_one_projector(monkeypatch):
    """Each declared member and each fine-grained basis row is checked once,
    as its evolved Projector."""
    built = []
    check = Projector.__post_init__

    def counted(self):
        check(self)
        built.append(self.label)

    monkeypatch.setattr(Projector, "__post_init__", counted)
    doc = load_model(MODELS / "threebox.model")
    build_history_set(doc)
    assert built == ["A", "B", "C", "Phi", "~Phi"]
    built.clear()
    build_finegrained(doc)
    assert built == ["0", "1", "2"] * 2


def test_precession_model_probabilities():
    """Spin precessing under H = X/2: at t = pi/2 the up/down split is even,
    and the up-at-pi/2 histories carry zero weight for this phase."""
    doc = load_model(MODELS / "precession.model")
    eps = all_extended_probabilities(build_history_set(doc), build_state(doc))
    assert np.allclose(eps, [0.0, 0.0, 0.5, 0.5], atol=1e-12)


def test_load_threebox_model():
    doc = load_model(MODELS / "threebox.model")
    hs, psi = build_history_set(doc), build_state(doc)
    assert hs.size == 6
    assert hs.history_labels()[0] == "A,Phi"
    assert {p.name for p in doc.partitions} == {"sector", "merge_ac", "cylinders"}
    assert build_finegrained(doc).history_set.n_times == 2
    assert doc.evolution is not None

    eps = all_extended_probabilities(hs, psi)
    assert np.allclose(eps, np.array([1, 1, -1, 2, 2, 4]) / 9.0, atol=1e-12)


def test_load_composite_model():
    doc = load_model(MODELS / "pair.model")
    cs = build_composites(doc, str(MODELS))["pair"]
    assert cs.joint_dim == 4 and cs.joint_count == 16
    assert doc.state is None       # the composite file itself declares no state


def test_load_missing_file(tmp_path):
    with pytest.raises(InvariantViolation) as exc:
        load_model(tmp_path / "nope.model")
    assert exc.value.name == "model-file"
    assert exc.value.exit_status == 3


def test_composite_factor_listing_itself_ends_with_missing_section(tmp_path):
    """A factor is read for its state and slots only, so its own composite
    lines are never built: a file that lists itself is one missing-section
    error naming the factor, not a recursion."""
    loop = tmp_path / "self.model"
    loop.write_text("composite loop factors self.model self.model\n")
    with pytest.raises(InvariantViolation) as exc:
        build_composites(load_model(loop), str(tmp_path))
    assert exc.value.name == "missing-section"
    assert "composite factor self.model needs both a state and slots" in str(exc.value)


def test_composite_factor_needs_state_and_slots(tmp_path):
    bare = tmp_path / "bare.model"
    bare.write_text("dim 2\n")
    top = tmp_path / "top.model"
    top.write_text("composite c factors bare.model bare.model\n")
    with pytest.raises(InvariantViolation) as exc:
        build_composites(load_model(top), str(tmp_path))
    assert exc.value.name == "missing-section"
    assert "composite factor bare.model" in str(exc.value)


def test_composite_factor_sections_past_state_and_slots_are_not_built(tmp_path):
    """A factor's non-orthogonal finegrained basis and its own composite line
    do not stop the product: only its state and slots are built."""
    text = (MODELS / "qubit_a.model").read_text()
    (tmp_path / "a.model").write_text(
        text + "finegrained 3.0 basis [[1,0],[1,1]]\ncomposite c factors x.model y.model\n")
    (tmp_path / "b.model").write_text(text)
    top = parse_model("composite pair factors a.model b.model\n")
    cs = build_composites(top, str(tmp_path))["pair"]
    shipped = build_composites(load_model(MODELS / "pair.model"), str(MODELS))["pair"]
    assert np.array_equal(joint_functional(cs), joint_functional(shipped))


def test_composite_factor_not_utf8(tmp_path):
    (tmp_path / "a.model").write_bytes((MODELS / "qubit_a.model").read_bytes() + b"#\xfe\n")
    top = parse_model("composite c factors a.model a.model\n")
    with pytest.raises(InvariantViolation) as exc:
        build_composites(top, str(tmp_path))
    assert exc.value.name == "model-file"
    assert "a.model: not UTF-8 at byte offset" in str(exc.value)


def test_serialize_canonical_order():
    text = ("partition p [[0,1]]\n"
            "dim 2\n"
            "state [1,0]\n"
            "slot 1.0 x\nmember A basis {0}\nmember B basis {1}\n")
    lines = serialize_model(parse_model(text)).splitlines()
    assert lines[0] == "dim 2"
    assert lines[1].startswith("state ")
    assert lines[2] == "slot 1.0 x"
    assert lines[3] == "member A basis {0}"
    assert lines[-1] == "partition p [[0,1]]"
