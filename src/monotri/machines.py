"""The four constrained-word machines over the alphabet {-1, 0, 1}.

* ``asm-word``: rows/columns of ordinary ASMs (partial sums in {0,1}, final 1).
* ``2asm-column``: columns of 2-ASMs.  Encoded with composite transitions
  that consume two symbols at once: from partial sum 0 one may loop on 0,
  take (1,-1), or move to partial sum 2 via (1,1); from 2 one may loop on 0,
  take (-1,1), or return to 0 via (-1,-1).  Partial sum 1 is never a rest
  state.
* ``modified-row``: same transitions as ``asm-word`` but accepting at
  partial sum 0; generates the one distinguished row of a W-object.
* ``s1-column``: a 2-ASM column whose even-length prefixes sum to 0 or 2;
  generates the columns of the 2-ASMs that encode structured triangles.

``MACHINES`` holds the one description of each machine: its composite
transitions plus the even-prefix rule.  Every run goes through the
single-symbol view ``_DFAS`` derived from it, in which a two-symbol step is
split at its partial sum (a middle state that is never a rest state).
``accepts`` and ``parse_steps`` walk a word through it, ``reach_table``
records which states can still reach an accept state, and ``backtrack``
builds matrices row by row with one machine state per column, pruned by
that table; ``generate`` is its one-column case.  Machines are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

from .errors import InternalError, InvalidInputError, ParseError

ASM_WORD = "asm-word"
TWO_ASM_COLUMN = "2asm-column"
MODIFIED_ROW = "modified-row"
S1_COLUMN = "s1-column"

MACHINE_IDS = (ASM_WORD, TWO_ASM_COLUMN, MODIFIED_ROW, S1_COLUMN)


@dataclass(frozen=True)
class Transition:
    tag: str
    source: int
    symbols: tuple[int, ...]
    target: int


@dataclass(frozen=True)
class MachineSpec:
    machine_id: str
    states: frozenset
    start: int
    accept: frozenset
    transitions: tuple[Transition, ...]
    # extra predicate: even-length prefix sums restricted to this set
    even_prefix_sums: frozenset | None = None


def _t(source, symbols, target):
    tag = ",".join(str(s) for s in symbols) + f"@{source}"
    return Transition(tag, source, tuple(symbols), target)


_ASM_TRANSITIONS = (
    _t(0, (0,), 0),
    _t(0, (1,), 1),
    _t(1, (0,), 1),
    _t(1, (-1,), 0),
)

_2ASM_TRANSITIONS = (
    _t(0, (0,), 0),
    _t(0, (1, 1), 2),
    _t(0, (1, -1), 0),
    _t(2, (0,), 2),
    _t(2, (-1, -1), 0),
    _t(2, (-1, 1), 2),
)

MACHINES = {
    ASM_WORD: MachineSpec(ASM_WORD, frozenset({0, 1}), 0, frozenset({1}), _ASM_TRANSITIONS),
    MODIFIED_ROW: MachineSpec(MODIFIED_ROW, frozenset({0, 1}), 0, frozenset({0}), _ASM_TRANSITIONS),
    TWO_ASM_COLUMN: MachineSpec(TWO_ASM_COLUMN, frozenset({0, 2}), 0, frozenset({2}), _2ASM_TRANSITIONS),
    S1_COLUMN: MachineSpec(
        S1_COLUMN, frozenset({0, 2}), 0, frozenset({2}), _2ASM_TRANSITIONS,
        even_prefix_sums=frozenset({0, 2}),
    ),
}


@dataclass(frozen=True)
class StepTrace:
    """Step decomposition of an accepted word.

    ``sigma0_zero_loops`` counts the 0-loops taken at partial sum 0; the
    remaining step count is the edge statistic used by W-object signs.
    """

    steps: tuple[str, ...]
    sigma0_zero_loops: int


def _spec(machine) -> MachineSpec:
    # the derived tables (_DFAS, _ALLOWED, _STEPS) hold registered machines only
    if isinstance(machine, MachineSpec):
        if MACHINES.get(machine.machine_id) != machine:
            raise InvalidInputError(f"machine {machine.machine_id!r} is not a registered machine")
        return machine
    try:
        return MACHINES[machine]
    except KeyError:
        raise InvalidInputError(f"unknown machine id {machine!r}") from None


def _check_word(word):
    word = tuple(word)
    for s in word:
        if s not in (-1, 0, 1):
            raise InvalidInputError(f"symbol {s!r} not in {{-1,0,1}}")
    return word


def _allowed(spec):
    """The states allowed after an even and after an odd number of symbols:
    all of the single-symbol view's, except that the even-prefix rule keeps
    only ``spec.even_prefix_sums`` after an even number, when that is set."""
    states = frozenset(_DFAS[spec.machine_id])
    if spec.even_prefix_sums is None:
        return states, states
    return states & spec.even_prefix_sums, states


def _walk(spec, word):
    """Partial sums the single-symbol view visits on ``word``, start
    included, or None if the machine rejects the word."""
    trans = _DFAS[spec.machine_id]
    allowed = _ALLOWED[spec.machine_id]
    state = spec.start
    path = [state]
    for consumed, sym in enumerate(word, start=1):
        state = trans[state].get(sym)
        if state not in allowed[consumed % 2]:
            return None
        path.append(state)
    return path if state in spec.accept else None


def accepts(machine, word) -> bool:
    """True iff the machine generates the word ending in an accept state."""
    return _walk(_spec(machine), _check_word(word)) is not None


def parse_steps(machine, word) -> StepTrace:
    """Unique step decomposition of an accepted word: the walk cut at the
    rest states, each piece one transition."""
    spec = _spec(machine)
    word = _check_word(word)
    path = _walk(spec, word)
    if path is None:
        raise ParseError(f"word {word!r} rejected by {spec.machine_id}")
    by_step = _STEPS[spec.machine_id]
    tags = []
    zero_loops = 0
    cut = 0
    for i in range(1, len(path)):
        if path[i] in spec.states:
            tr = by_step[path[cut], word[cut:i]]
            tags.append(tr.tag)
            if tr.source == 0 and tr.symbols == (0,):
                zero_loops += 1
            cut = i
    return StepTrace(tuple(tags), zero_loops)


def replay(machine, tags):
    """Re-run a step trace; returns (word, end state)."""
    spec = _spec(machine)
    by_tag = {tr.tag: tr for tr in spec.transitions}
    state = spec.start
    word = []
    for tag in tags:
        tr = by_tag.get(tag)
        if tr is None or tr.source != state:
            raise ParseError(f"step {tag!r} not applicable at state {state}")
        word.extend(tr.symbols)
        state = tr.target
    return tuple(word), state


def _single_symbol_dfa(spec):
    """Split each two-symbol transition (s0, s1) at the partial sum
    source + s0, which names its middle state; for the 2-ASM column machine
    partial sum 1 then only allows an immediate +-1 (no rest at 1).  A middle
    state must not be a rest state, so that cutting a walk at the rest states
    recovers its transitions."""
    table = {}

    def add(source, symbol, target):
        if table.setdefault(source, {}).setdefault(symbol, target) != target:
            raise InternalError(f"{spec.machine_id}: two targets for {symbol} at {source}")

    for tr in spec.transitions:
        if len(tr.symbols) == 1:
            add(tr.source, tr.symbols[0], tr.target)
        else:
            s0, s1 = tr.symbols
            middle = tr.source + s0
            if middle in spec.states:
                raise InternalError(
                    f"{spec.machine_id}: middle state {middle} of {tr.tag} is a rest state")
            add(tr.source, s0, middle)
            add(middle, s1, tr.target)
    return table


_DFAS = {mid: _single_symbol_dfa(spec) for mid, spec in MACHINES.items()}
_ALLOWED = {mid: _allowed(spec) for mid, spec in MACHINES.items()}
# each machine's transitions by (source, symbols), to name a walk's pieces
_STEPS = {mid: {(tr.source, tr.symbols): tr for tr in spec.transitions}
          for mid, spec in MACHINES.items()}


def reach_table(machine, length: int):
    """``table[r][state]`` is True iff an accept state is reachable in exactly
    ``r`` more symbols, given ``length - r`` symbols already consumed; a state
    the even-prefix rule forbids there reaches nothing."""
    spec = _spec(machine)
    trans = _DFAS[spec.machine_id]
    allowed = _ALLOWED[spec.machine_id]
    table = [{s: s in spec.accept and s in allowed[length % 2] for s in trans}]
    for r in range(1, length + 1):
        after, ok = table[-1], allowed[(length - r) % 2]
        table.append({s: s in ok and any(map(after.__getitem__, out.values()))
                      for s, out in trans.items()})
    return table


def backtrack(column_machine, width: int, row_words):
    """Matrices whose row ``r`` is taken from ``row_words[r]`` (words of
    length ``width``) and whose columns the column machine accepts, as
    tuples of rows in row-major lexicographic order of the word lists.
    Each column carries its machine state; a row is refused as soon as one
    column could no longer reach an accept state in the rows left."""
    spec = _spec(column_machine)
    trans = _DFAS[spec.machine_id]
    height = len(row_words)
    table = reach_table(spec, height)
    if width and not table[height][spec.start]:
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

    yield from rec(0, [spec.start] * width, [])


def generate(machine, length: int):
    """All accepted words of the given length, lexicographic (-1 < 0 < 1):
    the one-column case of ``backtrack``."""
    if length < 0:
        raise InvalidInputError("length must be non-negative")
    for rows in backtrack(machine, 1, [((-1,), (0,), (1,))] * length):
        yield tuple(chain.from_iterable(rows))
