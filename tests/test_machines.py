import dataclasses
from itertools import product

import pytest

from monotri import (
    InternalError,
    InvalidInputError,
    MachineSpec,
    ParseError,
    accepts,
    generate,
    parse_steps,
)
from monotri.machines import (
    ASM_WORD,
    MACHINES,
    MODIFIED_ROW,
    S1_COLUMN,
    TWO_ASM_COLUMN,
    _single_symbol_dfa,
    _t,
    backtrack,
    reach_table,
    replay,
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
    # a 2-ASM column whose every even-length prefix sums to 0 or 2
    return _two_asm_prose(w) and all(sum(w[:i]) in (0, 2) for i in range(2, len(w) + 1, 2))


@pytest.mark.parametrize("length", range(0, 9))
def test_prose_equivalence_exhaustive(length):
    for w in product((-1, 0, 1), repeat=length):
        assert accepts(ASM_WORD, w) == _asm_word_prose(w), w
        assert accepts(TWO_ASM_COLUMN, w) == _two_asm_prose(w), w
        assert accepts(MODIFIED_ROW, w) == _modified_row_prose(w), w
        assert accepts(S1_COLUMN, w) == _s1_column_prose(w), w


def test_parse_steps_goldens():
    t = parse_steps(TWO_ASM_COLUMN, (0, 0, 0, 1, 1, 0, 0))
    assert len(t.steps) == 6 and t.sigma0_zero_loops == 3
    t = parse_steps(TWO_ASM_COLUMN, (1, 1, 0, -1, -1, 1, 1))
    assert len(t.steps) == 4 and t.sigma0_zero_loops == 0
    t = parse_steps(ASM_WORD, (1,))
    assert len(t.steps) == 1
    with pytest.raises(ParseError):
        parse_steps(ASM_WORD, (1, -1))


@pytest.mark.parametrize("machine", [ASM_WORD, TWO_ASM_COLUMN, MODIFIED_ROW, S1_COLUMN])
@pytest.mark.parametrize("length", range(0, 9))
def test_parse_roundtrip(machine, length):
    for w in product((-1, 0, 1), repeat=length):
        if not accepts(machine, w):
            continue
        trace = parse_steps(machine, w)
        word, state = replay(machine, trace.steps)
        assert word == w
        from monotri.machines import MACHINES

        assert state in MACHINES[machine].accept


def test_generate_goldens():
    assert list(generate(ASM_WORD, 1)) == [(1,)]
    assert list(generate(ASM_WORD, 3)) == [(0, 0, 1), (0, 1, 0), (1, -1, 1), (1, 0, 0)]
    assert list(generate(TWO_ASM_COLUMN, 2)) == [(1, 1)]
    assert list(generate(MODIFIED_ROW, 0)) == [()]


@pytest.mark.parametrize("machine", [ASM_WORD, TWO_ASM_COLUMN, MODIFIED_ROW, S1_COLUMN])
@pytest.mark.parametrize("length", range(0, 7))
def test_generate_against_filter_oracle(machine, length):
    expected = sorted(w for w in product((-1, 0, 1), repeat=length) if accepts(machine, w))
    assert list(generate(machine, length)) == expected


def test_single_symbol_view_rejects_clashing_middle_states():
    # both split at partial sum 1, where a 1 must lead to 2 for (1,1) but to 0 for (-1,1)
    clash = MachineSpec("clash", frozenset({0, 2}), 0, frozenset({2}),
                        (_t(0, (1, 1), 2), _t(2, (-1, 1), 0)))
    # (1,1) splits at partial sum 1, a rest state, so a walk cut at the rest
    # states would read it as two steps
    rest_middle = MachineSpec("rest-middle", frozenset({0, 1, 2}), 0, frozenset({2}),
                              (_t(0, (1, 1), 2), _t(1, (0,), 1)))
    for spec in (clash, rest_middle):
        with pytest.raises(InternalError):
            _single_symbol_dfa(spec)


@pytest.mark.parametrize("change", [
    {"machine_id": "copy"},
    {"accept": frozenset({0})},
], ids=["unknown-id", "changed-spec"])
def test_unregistered_spec_rejected(change):
    # the runners' derived tables exist for the registered machines only
    spec = dataclasses.replace(MACHINES[ASM_WORD], **change)
    for call in (lambda: accepts(spec, (1,)),
                 lambda: parse_steps(spec, (1,)),
                 lambda: list(generate(spec, 2)),
                 lambda: reach_table(spec, 2),
                 lambda: list(backtrack(spec, 1, [((1,),)]))):
        with pytest.raises(InvalidInputError, match=repr(spec.machine_id)):
            call()


def test_s1_column_restricts_two_asm():
    for length in range(0, 7):
        for w in product((-1, 0, 1), repeat=length):
            if accepts(S1_COLUMN, w):
                assert accepts(TWO_ASM_COLUMN, w)
                sums = [sum(w[: i + 1]) for i in range(len(w))]
                assert all(s in (0, 2) for s in sums[1::2])
