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

Machines are immutable.  ``accepts``/``parse_steps`` run the composite
transitions directly (deterministic with two symbols of lookahead);
``generate`` and the enumeration module use an equivalent single-symbol
DFA view plus a reachability table for pruning.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if isinstance(machine, MachineSpec):
        return machine
    try:
        return MACHINES[machine]
    except KeyError:
        raise InvalidInputError(f"unknown machine id {machine!r}") from None


def _lookup(spec):
    # (source, first symbol) -> transition | {second symbol: transition}
    table = {}
    for tr in spec.transitions:
        key = (tr.source, tr.symbols[0])
        if len(tr.symbols) == 1:
            table[key] = tr
        else:
            table.setdefault(key, {})[tr.symbols[1]] = tr
    return table


_LOOKUPS = {mid: _lookup(spec) for mid, spec in MACHINES.items()}


def _check_word(word):
    word = tuple(word)
    for s in word:
        if s not in (-1, 0, 1):
            raise InvalidInputError(f"symbol {s!r} not in {{-1,0,1}}")
    return word


def _scan(spec, word):
    """Deterministic scan; returns (end state, transitions) or None."""
    table = _LOOKUPS[spec.machine_id]
    state = spec.start
    steps = []
    i = 0
    n = len(word)
    while i < n:
        entry = table.get((state, word[i]))
        if entry is None:
            return None
        if isinstance(entry, Transition):
            steps.append(entry)
            state = entry.target
            i += 1
        else:
            if i + 1 >= n:
                return None
            tr = entry.get(word[i + 1])
            if tr is None:
                return None
            steps.append(tr)
            state = tr.target
            i += 2
    return state, steps


def _even_prefix_ok(spec, word):
    if spec.even_prefix_sums is None:
        return True
    total = 0
    for i, s in enumerate(word, start=1):
        total += s
        if i % 2 == 0 and total not in spec.even_prefix_sums:
            return False
    return True


def accepts(machine, word) -> bool:
    """True iff the machine generates the word ending in an accept state."""
    spec = _spec(machine)
    word = _check_word(word)
    result = _scan(spec, word)
    if result is None or result[0] not in spec.accept:
        return False
    return _even_prefix_ok(spec, word)


def parse_steps(machine, word) -> StepTrace:
    """Unique step decomposition of an accepted word."""
    spec = _spec(machine)
    word = _check_word(word)
    result = _scan(spec, word)
    if result is None or result[0] not in spec.accept or not _even_prefix_ok(spec, word):
        raise ParseError(f"word {word!r} rejected by {spec.machine_id}")
    _, steps = result
    zero_loops = sum(1 for tr in steps if tr.source == 0 and tr.symbols == (0,))
    return StepTrace(tuple(tr.tag for tr in steps), zero_loops)


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
    partial sum 1 then only allows an immediate +-1 (no rest at 1)."""
    table = {}

    def add(source, symbol, target):
        if table.setdefault(source, {}).setdefault(symbol, target) != target:
            raise InternalError(f"{spec.machine_id}: two targets for {symbol} at {source}")

    for tr in spec.transitions:
        if len(tr.symbols) == 1:
            add(tr.source, tr.symbols[0], tr.target)
        else:
            s0, s1 = tr.symbols
            add(tr.source, s0, tr.source + s0)
            add(tr.source + s0, s1, tr.target)
    return table


_DFAS = {mid: _single_symbol_dfa(spec) for mid, spec in MACHINES.items()}


def dfa(machine):
    """(transition table, start state, accept set) of the single-symbol view."""
    spec = _spec(machine)
    return _DFAS[spec.machine_id], spec.start, spec.accept


def _s1_blocks(machine_id, state, consumed):
    # s1-column forbids partial sum 1 after an even number of symbols
    return machine_id == S1_COLUMN and consumed % 2 == 0 and state == 1


def reach_table(machine, length: int):
    """``table[r][state]`` is True iff an accept state is reachable in exactly
    ``r`` more symbols, given ``length - r`` symbols already consumed."""
    spec = _spec(machine)
    trans, _, accept = dfa(machine)
    table = [{s: s in accept for s in trans}]
    for r in range(1, length + 1):
        consumed = length - r
        row = {}
        for s in trans:
            ok = False
            for sym, s2 in trans[s].items():
                if _s1_blocks(spec.machine_id, s2, consumed + 1):
                    continue
                if table[r - 1][s2]:
                    ok = True
                    break
            row[s] = ok
        table.append(row)
    return table


def generate(machine, length: int):
    """All accepted words of the given length, lexicographic (-1 < 0 < 1)."""
    if length < 0:
        raise InvalidInputError("length must be non-negative")
    spec = _spec(machine)
    trans, start, accept = dfa(machine)
    table = reach_table(machine, length)

    def rec(state, consumed, prefix):
        if consumed == length:
            if state in accept:
                yield tuple(prefix)
            return
        remaining = length - consumed
        for sym in (-1, 0, 1):
            nxt = trans[state].get(sym)
            if nxt is None:
                continue
            if _s1_blocks(spec.machine_id, nxt, consumed + 1):
                continue
            if not table[remaining - 1][nxt]:
                continue
            prefix.append(sym)
            yield from rec(nxt, consumed + 1, prefix)
            prefix.pop()

    yield from rec(start, 0, [])
