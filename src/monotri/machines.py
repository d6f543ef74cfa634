"""The three constrained-word machines over the alphabet {-1, 0, 1}.

A machine reads a word one symbol at a time, and its state is the partial
sum of the symbols read so far, starting at 0.  Its table maps each partial
sum and symbol to the next partial sum; a missing entry rejects the word.
Two tables cover the three machines:

* ``asm-word`` (rows and columns of ordinary ASMs: partial sums in {0,1},
  final sum 1) and ``modified-row`` (the one distinguished row of a
  W-object: the same table, final sum 0);
* ``2asm-column`` (columns of 2-ASMs: partial sums in {0,1,2}, final sum 2).

A walk rests at a partial sum that has a 0-loop (``table[s].get(0) == s``):
0 and 1 in the ASM table, 0 and 2 in the 2-ASM table, whose partial sum 1
has none, since from there the next symbol is +-1.  The paper's composite
steps are the pieces of a walk cut where it rests: a single symbol, or a
pair through partial sum 1 in a 2-ASM column ((1,1) and (1,-1) from 0,
(-1,-1) and (-1,1) from 2).  ``accepts`` and ``parse_steps`` walk a word
through the table, ``reach_table`` records which states can still reach an
accept state, and ``backtrack`` builds matrices row by row with one machine
state per column, pruned by that table; ``generate`` is its one-column
case.  It lists the moves of each row from each tuple of column states
once per call, with one shared tuple per state vector, in a table that dies
with the call, and walks them with ``_paths``: the package's one
depth-first walker, over a stack of move iterators, which
``enumeration.enum_triangles`` runs too, its moves the rows above.
Machines are named by id.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .core import _check_size, _is_int
from .errors import InvalidInputError, ParseError

ASM_WORD = "asm-word"
TWO_ASM_COLUMN = "2asm-column"
MODIFIED_ROW = "modified-row"


@dataclass(frozen=True)
class MachineSpec:
    machine_id: str
    # partial sum -> symbol -> next partial sum
    table: dict
    accept: frozenset


_ASM_TABLE = {0: {0: 0, 1: 1}, 1: {0: 1, -1: 0}}
_2ASM_TABLE = {0: {0: 0, 1: 1}, 1: {1: 2, -1: 0}, 2: {0: 2, -1: 1}}

MACHINES = {
    ASM_WORD: MachineSpec(ASM_WORD, _ASM_TABLE, frozenset({1})),
    MODIFIED_ROW: MachineSpec(MODIFIED_ROW, _ASM_TABLE, frozenset({0})),
    TWO_ASM_COLUMN: MachineSpec(TWO_ASM_COLUMN, _2ASM_TABLE, frozenset({2})),
}


@dataclass(frozen=True)
class StepTrace:
    """Step decomposition of an accepted word.

    ``sigma0_zero_loops`` counts the 0-loops taken at partial sum 0; the
    remaining step count is the edge statistic used by W-object signs.
    """

    steps: tuple[str, ...]
    sigma0_zero_loops: int


def _spec(machine_id) -> MachineSpec:
    spec = MACHINES.get(machine_id) if isinstance(machine_id, str) else None
    if spec is None:
        raise InvalidInputError(f"unknown machine id {machine_id!r}")
    return spec


def _check_word(word):
    word = tuple(word)
    for s in word:
        if not (_is_int(s) and -1 <= s <= 1):
            raise InvalidInputError(f"symbol {s!r} not in {{-1,0,1}}")
    return word


def _rests(table, path) -> list[int]:
    """The positions along a walk where it rests; the steps lie between them."""
    return [j for j, state in enumerate(path) if table[state].get(0) == state]


def _walk(spec, word):
    """Partial sums the machine visits on ``word``, start included, or None
    if it rejects the word."""
    table = spec.table
    state = 0
    path = [state]
    for sym in word:
        state = table[state].get(sym)
        if state is None:
            return None
        path.append(state)
    return path if state in spec.accept else None


def accepts(machine, word) -> bool:
    """True iff the machine generates the word ending in an accept state."""
    return _walk(_spec(machine), _check_word(word)) is not None


def parse_steps(machine, word) -> StepTrace:
    """Unique step decomposition of an accepted word: the walk cut where it
    rests, each piece tagged ``"symbols@source"``."""
    spec = _spec(machine)
    word = _check_word(word)
    path = _walk(spec, word)
    if path is None:
        raise ParseError(f"word {word!r} rejected by {spec.machine_id}")
    cuts = _rests(spec.table, path)
    symbols = list(map(str, word))
    tags = tuple([f"{','.join(symbols[a:b])}@{path[a]}" for a, b in zip(cuts, cuts[1:])])
    return StepTrace(tags, tags.count("0@0"))


def reach_table(machine, length: int):
    """``table[r][state]`` is True iff an accept state is reachable from
    ``state`` in exactly ``r`` more symbols, for ``r`` up to ``length``."""
    spec = _spec(machine)
    _check_size(length, "length")
    trans = spec.table
    table = [{s: s in spec.accept for s in trans}]
    for _ in range(length):
        after = table[-1]
        table.append({s: any(map(after.__getitem__, out.values())) for s, out in trans.items()})
    return table


def _paths(start, height, moves):
    """The label tuples of every path of ``height`` moves from ``start``,
    depth first in the order of ``moves(r, state)``, the ``(label, next
    state)`` pairs of move ``r``: a stack of move iterators, no recursion."""
    if not height:
        yield ()
        return
    stack = [iter(moves(0, start))]
    path = []  # the labels taken in moves 0 .. len(stack) - 2
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            path[-1:] = []
        elif len(stack) == height:
            yield (*path, step[0])
        else:
            path.append(step[0])
            stack.append(iter(moves(len(stack), step[1])))


def backtrack(column_machine, width: int, row_words):
    """Matrices whose row ``r`` is taken from ``row_words[r]`` (words of
    length ``width``) and whose columns the column machine accepts, as
    tuples of rows in row-major lexicographic order of the word lists.
    Each column carries its machine state; the moves of row ``r`` from a
    tuple of states are the words that leave every column able to reach an
    accept state in the rows left, each with the states after it.  They are
    found once per ``(r, states)`` and call, one shared tuple per distinct
    state vector, and ``_paths`` walks them."""
    trans = _spec(column_machine).table
    height = len(row_words)
    table = reach_table(column_machine, height)
    if width and not table[height][0]:
        return iter(())
    shared = {}
    found = {}

    # not self-referring, so the table dies with the walker, not in a cycle
    def moves(r, col_states):
        out = found.get((r, col_states))
        if out is None:
            reach = table[height - r - 1]
            out = []
            for word in row_words[r]:
                nxt = []
                for state, sym in zip(col_states, word):
                    state = trans[state].get(sym)
                    if state is None or not reach[state]:
                        break
                    nxt.append(state)
                else:
                    nxt = tuple(nxt)
                    out.append((word, shared.setdefault(nxt, nxt)))
            out = found[r, col_states] = tuple(out)
        return out

    return _paths((0,) * width, height, moves)


def generate(machine, length: int):
    """All accepted words of the given length, lexicographic (-1 < 0 < 1):
    the one-column case of ``backtrack``."""
    _check_size(length, "length")
    for rows in backtrack(machine, 1, [((-1,), (0,), (1,))] * length):
        yield tuple(chain.from_iterable(rows))
