import dataclasses
from itertools import chain, product

import pytest

from monotri import (
    InvalidInputError,
    ParseError,
    SignMatrix,
    accepts,
    enum_matrices,
    enum_wni_objects,
    generate,
    parse_steps,
)
from monotri.enumeration import _matrix_class
from monotri.machines import (
    ASM_WORD,
    MACHINES,
    MODIFIED_ROW,
    TWO_ASM_COLUMN,
    backtrack,
    reach_table,
)

from golden import TWOASM_5


def test_asm_word_basics():
    assert accepts(ASM_WORD, (0, 1, 0))
    assert not accepts(ASM_WORD, (1, -1))
    assert accepts(ASM_WORD, (1,))
    assert not accepts(ASM_WORD, ())


def test_two_asm_column_basics():
    assert not accepts(TWO_ASM_COLUMN, (1, 0))
    assert not accepts(TWO_ASM_COLUMN, (1, 0, 1, 0))
    assert accepts(TWO_ASM_COLUMN, (1, 1))
    # every column of the size-5 reference matrix, read top-down
    for j in range(5):
        col = tuple(row[j] for row in TWOASM_5)
        assert accepts(TWO_ASM_COLUMN, col), col


def test_modified_row_basics():
    assert accepts(MODIFIED_ROW, (1, -1, 0))
    assert not accepts(MODIFIED_ROW, (0, 1, 0))
    assert accepts(MODIFIED_ROW, ())
    assert accepts(MODIFIED_ROW, (0, 0, 0))


def test_bad_symbols_rejected():
    with pytest.raises(InvalidInputError):
        accepts(ASM_WORD, (0, 2))
    with pytest.raises(InvalidInputError):
        accepts(ASM_WORD, (True,))
    with pytest.raises(InvalidInputError):
        accepts("no-such-machine", (0,))


def _asm_word_prose(w):
    nonzero = [x for x in w if x != 0]
    if not nonzero:
        return False
    if nonzero[0] != 1 or nonzero[-1] != 1:
        return False
    return all(a != b for a, b in zip(nonzero, nonzero[1:])) and sum(w) == 1


def _two_asm_prose(w):
    # partial sums stay in {0,1,2}, total is 2, and the word never rests
    # at partial sum 1 (the next symbol after reaching 1 must be nonzero)
    total = 0
    for i, x in enumerate(w):
        total += x
        if total not in (0, 1, 2):
            return False
        if total == 1 and (i + 1 == len(w) or w[i + 1] == 0):
            return False
    return total == 2


def _modified_row_prose(w):
    # partial sums stay in {0,1}, nonzero symbols alternate starting with 1,
    # and the total is 0
    sums = [sum(w[: i + 1]) for i in range(len(w))]
    nonzero = [x for x in w if x != 0]
    return (all(s in (0, 1) for s in sums)
            and all(x == (1 if j % 2 == 0 else -1) for j, x in enumerate(nonzero))
            and sum(w) == 0)


def _s1_column_prose(w):
    # a 2-ASM column whose every even-length prefix sums to 0 or 2: the
    # columns of the 2-ASMs that encode structured triangles (``is_s1``)
    return _two_asm_prose(w) and all(sum(w[:i]) in (0, 2) for i in range(2, len(w) + 1, 2))


@pytest.mark.parametrize("length", range(0, 9))
def test_prose_equivalence_exhaustive(length):
    for w in product((-1, 0, 1), repeat=length):
        assert accepts(ASM_WORD, w) == _asm_word_prose(w), w
        assert accepts(TWO_ASM_COLUMN, w) == _two_asm_prose(w), w
        assert accepts(MODIFIED_ROW, w) == _modified_row_prose(w), w


def test_parse_steps_goldens():
    t = parse_steps(TWO_ASM_COLUMN, (0, 0, 0, 1, 1, 0, 0))
    assert len(t.steps) == 6 and t.sigma0_zero_loops == 3
    t = parse_steps(TWO_ASM_COLUMN, (1, 1, 0, -1, -1, 1, 1))
    assert len(t.steps) == 4 and t.sigma0_zero_loops == 0
    t = parse_steps(ASM_WORD, (1,))
    assert len(t.steps) == 1
    with pytest.raises(ParseError):
        parse_steps(ASM_WORD, (1, -1))


# The paper's composite steps of each machine, tag -> (source, symbols, target):
# a second description, written out by hand, that every parsed step is
# replayed against.
_ASM_STEPS = {
    "0@0": (0, (0,), 0), "1@0": (0, (1,), 1),
    "0@1": (1, (0,), 1), "-1@1": (1, (-1,), 0),
}
_TWO_ASM_STEPS = {
    "0@0": (0, (0,), 0), "1,1@0": (0, (1, 1), 2), "1,-1@0": (0, (1, -1), 0),
    "0@2": (2, (0,), 2), "-1,-1@2": (2, (-1, -1), 0), "-1,1@2": (2, (-1, 1), 2),
}
PAPER_STEPS = {ASM_WORD: _ASM_STEPS, MODIFIED_ROW: _ASM_STEPS,
               TWO_ASM_COLUMN: _TWO_ASM_STEPS}


def replay(machine, tags):
    """Re-run a step trace through the paper's steps, from partial sum 0;
    returns (word, end state, 0-loops taken at 0)."""
    state, word, zero_loops = 0, [], 0
    for tag in tags:
        source, symbols, target = PAPER_STEPS[machine][tag]
        assert source == state, (tag, state)
        word.extend(symbols)
        zero_loops += tag == "0@0"
        state = target
    return tuple(word), state, zero_loops


@pytest.mark.parametrize("machine", [ASM_WORD, TWO_ASM_COLUMN, MODIFIED_ROW])
@pytest.mark.parametrize("length", range(0, 9))
def test_parse_roundtrip(machine, length):
    for w in product((-1, 0, 1), repeat=length):
        if not accepts(machine, w):
            continue
        trace = parse_steps(machine, w)
        word, state, zero_loops = replay(machine, trace.steps)
        assert word == w
        assert state in MACHINES[machine].accept
        assert trace.sigma0_zero_loops == zero_loops


def test_generate_goldens():
    assert list(generate(ASM_WORD, 1)) == [(1,)]
    assert list(generate(ASM_WORD, 3)) == [(0, 0, 1), (0, 1, 0), (1, -1, 1), (1, 0, 0)]
    assert list(generate(TWO_ASM_COLUMN, 2)) == [(1, 1)]
    assert list(generate(MODIFIED_ROW, 0)) == [()]


@pytest.mark.parametrize("machine", [ASM_WORD, TWO_ASM_COLUMN, MODIFIED_ROW])
@pytest.mark.parametrize("length", range(0, 7))
def test_generate_against_filter_oracle(machine, length):
    expected = sorted(w for w in product((-1, 0, 1), repeat=length) if accepts(machine, w))
    assert list(generate(machine, length)) == expected


def test_tables_list_symbols_in_increasing_order():
    # the row walks of backtrack and generate take a state's symbols in table
    # order, which makes their words lexicographic with no sort
    for spec in MACHINES.values():
        for out in spec.table.values():
            assert list(out) == sorted(out), spec.machine_id


@pytest.mark.parametrize("change", [
    {"machine_id": "copy"},
    {"accept": frozenset({0})},
    {},
], ids=["unknown-id", "changed-spec", "registered-copy"])
def test_unregistered_spec_rejected(change):
    # machines are named by id; a spec object is refused, even an unchanged one
    spec = dataclasses.replace(MACHINES[ASM_WORD], **change)
    for call in (lambda: accepts(spec, (1,)),
                 lambda: parse_steps(spec, (1,)),
                 lambda: list(generate(spec, 2)),
                 lambda: reach_table(spec, 2),
                 lambda: list(backtrack([ASM_WORD, spec], ASM_WORD, 1)),
                 lambda: list(backtrack([ASM_WORD], spec, 1))):
        with pytest.raises(InvalidInputError, match=repr(spec.machine_id)):
            call()



def _backtrack_oracle(column_machine, width, row_words):
    """The recursive backtracking that steps every word of a row through
    every column at every node: the stream ``backtrack`` must reproduce."""
    trans = MACHINES[column_machine].table
    height = len(row_words)
    table = reach_table(column_machine, height)
    if width and not table[height][0]:
        return

    def rec(r, col_states, acc):
        if r == height:
            yield tuple(acc)
            return
        reach = table[height - r - 1]
        for word in row_words[r]:
            nxt = []
            for j, sym in enumerate(word):
                state = trans[col_states[j]].get(sym)
                if state is None or not reach[state]:
                    break
                nxt.append(state)
            else:
                acc.append(word)
                yield from rec(r + 1, nxt, acc)
                acc.pop()

    yield from rec(0, [0] * width, [])


def _oracle_class(kind, n, i=None):
    # row words filtered from all words, independently of ``generate``
    row_machines, column_machine, width = _matrix_class(kind, n, i)
    words = {m: [w for w in product((-1, 0, 1), repeat=width) if accepts(m, w)]
             for m in set(row_machines)}
    return [SignMatrix(rows) for rows in
            _backtrack_oracle(column_machine, width, [words[m] for m in row_machines])]


@pytest.mark.parametrize("kind, n", [("asm", n) for n in range(1, 7)]
                         + [("2asm", n) for n in range(1, 5)])
def test_backtrack_matches_oracle_on_matrices(kind, n):
    assert list(enum_matrices(kind, n)) == _oracle_class(kind, n)


@pytest.mark.parametrize("n", range(1, 5))
def test_backtrack_matches_oracle_on_wni_objects(n):
    for i in range(1, 2 * n):
        got = [o.matrix for o in enum_wni_objects(n, i)]
        assert got == _oracle_class("wni", n, i), i


@pytest.mark.parametrize("machine", [ASM_WORD, TWO_ASM_COLUMN, MODIFIED_ROW])
def test_generate_matches_backtrack_oracle(machine):
    for length in range(0, 9):
        expected = [tuple(chain.from_iterable(rows)) for rows in
                    _backtrack_oracle(machine, 1, [((-1,), (0,), (1,))] * length)]
        assert list(generate(machine, length)) == expected, length
