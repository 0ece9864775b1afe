"""Equivalence of multiplicity automata and linear-combination expression.

Equivalence is decided on the direct sum a (+) b, whose series from the
initial vector (lam_a, -lam_b) is the difference a - b. Its states are
first merged by their coarsest backward lumping: states that share their
final weight and, per letter, their total weight into each block generate
the same series, so one coordinate per block carries the same difference.
A word basis of the quotient is then closed under letter extension from
the block sums of (lam_a, -lam_b). The vector extends linearly on the
right, so the closure computes the span of all reachable vectors; the two
series agree iff the final-weight functional vanishes on that span. A copy
that lumps onto the other side's blocks starts from zero and closes
nothing. A failing basis word is a counterexample, the least word on
which the series differ whatever the lumping, and its length never
exceeds the combined state count. The vectors the closure extends are not
the vectors themselves but the echelon rows they add to the span: each
vector reduced against the earlier rows, often sparser than the vectors,
whose entries grow with the word. Each row is a nonzero multiple of its
vector plus a combination of the earlier vectors, so the functional is
nonzero first on the same word (:func:`_word_basis`).

Combinations close from the other side. The backward vectors x(w) = mu(w) . gamma
of a direct sum of automata, closed under left letter action, span every
x(w); each series is lam . x(w) for its own initial vector lam, so any
linear equation between series holds on all words iff it holds on the
closure's rows. Expressing one series over others is then one exact solve,
or one exact feasibility problem for nonnegative coefficients, with no
search for counterexample words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Sequence

from .automata import (LinearRepresentation, MultiplicityAutomaton, Word,
                       merge_alphabets, with_alphabet)
from .linalg import (SpanBasis, _Action, _certified_closure, _closure, _feasible_point,
                     _integer_actions, _nullspace, _particular, _primitive)


@dataclass(frozen=True)
class EquivalenceOutcome:
    """Equal, or a witness word on which the two series differ."""
    equal: bool
    witness: Word | None = None
    left_value: Fraction | None = None
    right_value: Fraction | None = None


def _block_weights(pairs: list[tuple[int, int]], block: Sequence[int]) -> dict[int, int]:
    """The nonzero total weight that (target, weight) pairs send into each block."""
    acc: dict[int, int] = {}
    get = acc.get
    for j, c in pairs:
        k = block[j]
        acc[k] = get(k, 0) + c
    return {k: c for k, c in acc.items() if c}


def _lumping(final: Sequence[Fraction], actions: Sequence[_Action]) -> list[int]:
    """The block of each state in the coarsest backward lumping, blocks
    numbered in the order of their first state.

    That is the coarsest partition in which the states of a block share
    their final weight and, for each letter, their total weight into each
    block. ``actions`` are the maps v -> s v M_x of :func:`_integer_actions`,
    one scale s for all letters, so they hold per state its outgoing
    (target, integer weight) pairs and integer totals compare as the exact
    ones do. Refinement starts from the partition by final weight; each
    round splits every block by the totals of its states into the blocks
    of the round before. A state alone in its block cannot split, so only
    the states of larger blocks are weighed again. The rounds stop when
    one splits nothing or every block holds one state.
    """
    letters = len(actions)
    ids: dict = {}
    # a Fraction is in lowest terms, and its two ints hash faster than it does
    block = [ids.setdefault((x.numerator, x.denominator), len(ids)) for x in final]
    while len(ids) < len(block):
        old = block
        sizes = [0] * len(ids)
        for k in old:
            sizes[k] += 1
        ids = {}
        block = []
        for i, k in enumerate(old):
            if sizes[k] > 1:
                acc: dict[int, int] = {}
                get = acc.get
                for x, action in enumerate(actions):
                    for j, c in action[i]:
                        y = old[j] * letters + x  # (block, letter) as one int
                        acc[y] = get(y, 0) + c
                if 0 in acc.values():
                    acc = {y: c for y, c in acc.items() if c}
                k = (k, frozenset(acc.items()))
            block.append(ids.setdefault(k, len(ids)))
        if len(ids) == len(sizes):
            break
    return block


def _word_basis(a: MultiplicityAutomaton, b: MultiplicityAutomaton):
    """Basis words with sparse integer rows, spanning all reachable
    differences, and the functional that compares the two series. The words
    come from a generator, in the order the closure accepts them.

    The states of a (+) b are first merged by their coarsest backward
    lumping (:func:`_lumping`). Its block indicator P satisfies
    M_x P = P M_Q,x for the quotient maps M_Q,x, whose row for a block is
    the total weight one of its states sends into each block; the states
    of a block share their final weight, so gamma = P gamma_Q for gamma_Q
    the final weight of one state per block. With lam = (lam_a, -lam_b), the
    block sums lam P start the closure, and
    lam P M_Q(w) gamma_Q = lam M(w) gamma = a(w) - b(w) on every word. When
    every block holds one state, the closure runs on a (+) b itself.

    One closure of that start vector under the letter maps acting on the
    right. Breadth-first order reaches the words in length-lex order: each
    basis word is the length-lex least word whose vector lam P M_Q(w)
    leaves the span of the vectors before it. The row that comes back with
    a word is not a multiple of that vector but the echelon row that the
    vector added to the span: the vector reduced against the rows before it
    and divided by its content, so c times the vector, c != 0, plus a
    combination of the vectors of the earlier words. The functional f is
    gamma_Q as coprime integers, so f on a vector is a positive multiple
    of the difference of the series on its word. Once f vanishes on every
    earlier row, f on a row is c times that difference: the first row on
    which f is nonzero belongs to the first basis word on which the series
    differ.

    That word is the least word w on which the series differ, whatever the
    lumping. Were the vector of a prefix u of w in the span of the vectors
    of the words before u, the vector of w would be in the span of the
    vectors of words before w, on which f vanishes; so every prefix of w,
    and w itself, is accepted, and the witness and its values are those of
    the closure of the pairs (lam_a . mu_a(w), lam_b . mu_b(w)). When no
    states merge, even the words are that closure's: the difference is the
    pair times diag(1, -1), which commutes with the block-diagonal maps.
    When states merge, an equal verdict closes a span of the blocks only,
    and a pair whose two sides lump onto the same blocks with the same
    block sums starts from zero and accepts no word.
    """
    ra = a.to_linear_representation()
    rb = b.to_linear_representation()
    actions, _ = _integer_actions([(ra.mu[x], rb.mu[x]) for x in a.alphabet], left=False)
    start = ra.lam + tuple(-x for x in rb.lam)
    final = ra.gamma + rb.gamma
    block = _lumping(final, actions)
    dim = len(set(block))
    if dim < len(block):
        sums = [Fraction(0)] * dim
        members: dict[int, int] = {}
        for i, k in enumerate(block):
            sums[k] += start[i]
            members.setdefault(k, i)
        start = sums
        final = [final[i] for i in members.values()]
        actions = [[list(_block_weights(action[i], block).items()) for i in members.values()]
                   for action in actions]
    basis = _closure(SpanBasis(dim), start, actions)
    return ((tuple(a.alphabet[k] for k in path), row) for path, row in basis), _primitive(final)


def are_equivalent(a: MultiplicityAutomaton, b: MultiplicityAutomaton) -> EquivalenceOutcome:
    """Decide whether two automata generate the same series.

    On a mismatch the returned witness is the length-lex smallest word whose
    values differ, the first basis word of :func:`_word_basis` on which
    they do, with both values re-evaluated on the inputs. The closure stops
    at that word; only an equal verdict builds the whole basis, and that on
    the quotient of a (+) b by its coarsest backward lumping, so copies of
    one automaton that differ by split, duplicated, permuted or cancelling
    states close no span at all.

    Alphabets may differ as long as their shared letters agree in order; the
    comparison then runs over the union, missing letters meaning weight zero.
    """
    alphabet = merge_alphabets(a.alphabet, b.alphabet)
    a = with_alphabet(a, alphabet)
    b = with_alphabet(b, alphabet)
    basis, gamma = _word_basis(a, b)
    for word, row in basis:
        if sum([gamma[j] * y for j, y in row.items()]):
            return EquivalenceOutcome(False, word, a.evaluate(word), b.evaluate(word))
    return EquivalenceOutcome(True)


@dataclass(frozen=True)
class CombinationOutcome:
    """Expressible with the given coefficients, or infeasible."""
    expressible: bool
    coefficients: tuple[Fraction, ...] | None = None


# From this dimension of the direct sum on, _backward_closure runs mod a
# prime (linalg._certified_closure). The crossover, measured as process CPU
# time, median of 15, exact -> modular, on a 2-core Xeon with Python 3.11.7.
# Split ring copies (2n dimensions, rank n): 0.30 -> 0.46 ms at 12
# dimensions, 0.67 -> 0.65 ms at 16, 1.47 -> 1.38 ms at 20, 2.42 -> 1.86 ms
# at 24, 7.7 -> 4.3 ms at 40 and 15.4 -> 5.3 ms at 48; at 32, eight copies
# ran 0.48 to 0.98 times as long. Signed automata with a duplicated state or
# cancelling copies: 10% to 30% slower up to 14 dimensions, 0.78 to 1.18
# times as long at 16-18, and 0.50 to 0.94 times as long at 24-30. Below the
# gate the exact check costs about what the fill-in it avoids does.
MODULAR_MIN_DIM = 24


def _backward_closure(reps: Sequence[LinearRepresentation]
                      ) -> tuple[SpanBasis, list[_Action], int]:
    """The span of every x(w) = mu(w) . gamma of a direct sum, with the integer
    letter maps it was closed under and their scale.

    The representations share one alphabet. Their direct sum has the
    concatenated final vectors and block-diagonal letter matrices, so block i
    of x(w) is representation i's own mu(w) . gamma. The closure starts from
    gamma and extends, by each letter on the left, the echelon row that
    each vector enlarging the span adds (``linalg._closure``), so the span
    reached holds every x(w). A series with initial vector lam on block i
    takes the value lam . x(w)[i] on w, so a linear equation between such
    series holds on every word iff it holds on the span's rows; in
    particular, two initial vectors of one representation give equal
    series iff they agree on every row. The closure is fraction-free: the
    span keeps its reduced echelon rows as primitive integers, and the maps
    are v -> s mu(x) . v on the direct sum, one per letter in alphabet
    order, with one scale s per call, stored per input coordinate; s comes
    back with them.

    From ``MODULAR_MIN_DIM`` dimensions on, the same closure runs mod
    a prime (``linalg._certified_closure``), where the rows that the exact
    closure would fill in do not grow. Its rows are rebuilt as rationals
    and kept only if gamma and every row's image under every letter lie in
    their row space, which makes them the exact rows; otherwise the exact
    closure runs. Every caller gets the same span either way.
    """
    alphabet = reps[0].alphabet if reps else ()
    if any(r.alphabet != alphabet for r in reps):
        raise ValueError("alphabet mismatch")
    dim = sum(r.dim for r in reps)
    actions, scale = _integer_actions([[r.mu[x] for r in reps] for x in alphabet], left=True)
    gamma = [y for r in reps for y in r.gamma]
    if dim >= MODULAR_MIN_DIM:
        return _certified_closure(dim, gamma, actions), actions, scale
    span = SpanBasis(dim)
    for _ in _closure(span, gamma, actions):
        pass
    return span, actions, scale


def combination_on_rows(rows: Sequence[Sequence[Fraction | int]], target: int,
                        columns: Sequence[int], nonneg: bool) -> CombinationOutcome:
    """Coefficients c with row[target] = sum_j c_j row[columns[j]] on every row.

    Each row holds the values of several series on one backward vector, or
    a multiple of them, as built from the integer rows of
    :func:`_backward_closure`; scaling a row changes no solution, and where
    only feasibility is read, neither does scaling a column by a positive
    factor. The rows [columns | target] go straight into the fraction-free
    solve (``linalg._particular``). Over the field the answer is the particular
    solution of the reduced row-echelon form, which depends only on the
    row space. With ``nonneg`` every solution is x = p + N y, p that
    particular solution and N the nullspace read off the same echelon rows
    (``linalg._nullspace``); the rows x_i >= 0 in y reach Fourier-Motzkin
    as primitive integer rows (``linalg._feasible_point``), the same input
    ``lp_feasible`` builds for these equations with x >= 0, so the answer
    is its exact feasible point.
    """
    n = len(columns)
    solved = _particular(([row[j] for j in columns] + [row[target]] for row in rows), n)
    if solved is None:
        return CombinationOutcome(False)
    coeffs, echelon = solved
    if nonneg:
        null = _nullspace(echelon, n)
        coeffs = _feasible_point(coeffs, null, ([v[i] for v in null] + [coeffs[i]]
                                                for i in range(n)))
        if coeffs is None:
            return CombinationOutcome(False)
    return CombinationOutcome(True, tuple(coeffs))


def _blocks(series: Sequence[MultiplicityAutomaton]
            ) -> tuple[list[MultiplicityAutomaton], list[int]]:
    """The first series of each distinct structure (states, final weights and
    transitions), in order, and the index of each series' block.

    Series in one block differ only in their initial vector, so they share
    every derived object that the initial vector does not enter.
    """
    blocks: list[MultiplicityAutomaton] = []
    block_of: list[int] = []
    for s in series:
        k = next((i for i, b in enumerate(blocks)
                  if s.states == b.states and s.tau == b.tau and s.phi == b.phi), None)
        if k is None:
            k = len(blocks)
            blocks.append(s)
        block_of.append(k)
    return blocks, block_of


def _value_table(series: Sequence[MultiplicityAutomaton]) -> list[list[int]]:
    """Rows of integers, one column per series, on which every linear
    equation between the series holds iff it holds on every word.

    The series are grouped into one block per distinct structure
    (:func:`_blocks`). One backward closure of the blocks' direct sum
    (:func:`_backward_closure`) yields rows x on which each series takes the
    value lam . x[its block], and the rows span every x(w). The initial
    vectors are scaled to integers by one common denominator and paired
    with the span's sparse integer rows; neither that positive scale, which
    every column shares, nor the scale of a row changes a solution of
    :func:`combination_on_rows`.
    """
    blocks, block_of = _blocks(series)
    bounds = list(accumulate((b.n_states for b in blocks), initial=0))
    scale = lcm(*(w.denominator for s in series for w in s.iota.values()))
    lams = []
    for s, k in zip(series, block_of):
        lam = [0] * bounds[-1]
        for j, q in enumerate(s.states, start=bounds[k]):
            w = s.iota_weight(q)
            lam[j] = w.numerator * (scale // w.denominator)
        lams.append(lam)
    span = _backward_closure([b.to_linear_representation() for b in blocks])[0]
    return [[sum([lam[j] * y for j, y in row.items()]) for lam in lams]
            for row in span._rows.values()]


def express_combination(target: MultiplicityAutomaton,
                        generators: Sequence[MultiplicityAutomaton],
                        nonneg: bool) -> CombinationOutcome:
    """Coefficients expressing the target series over the generators' series.

    One table of the series' values on the backward rows of their blocks
    (:func:`_value_table`) holds equations that are complete: they imply
    target(w) = sum c_j generator_j(w) on every word, and no candidate
    needs checking afterwards. One call to :func:`combination_on_rows` then
    decides the question: over the field the coefficients are the reduced
    row-echelon particular solution of the complete system, and with
    ``nonneg`` the exact feasible point with every coefficient >= 0.
    """
    generators = list(generators)
    if any(g.alphabet != target.alphabet for g in generators):
        raise ValueError("alphabet mismatch")
    return combination_on_rows(_value_table([target] + generators), 0,
                               range(1, len(generators) + 1), nonneg)
