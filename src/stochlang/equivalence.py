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
search for counterexample words. The backward closure, which rank,
reduction and residual exploration share, merges the states of its direct
sum by the same coarsest backward lumping first: with block indicator P,
x(w) = P x_Q(w) for the backward vectors of the quotient, so it closes the
quotient's span and expands each row back by P, which gives the reduced
echelon rows over all states (:func:`_backward_closure`). Split,
duplicated, permuted and cancelling copies close the span of the
automaton they copy. From ``MODULAR_MIN_DIM`` dimensions of the quotient
on, that closure runs mod a prime and is checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Callable, Sequence

from .automata import MultiplicityAutomaton, Word, _IntegerForm, merge_alphabets, with_alphabet
from .linalg import (SpanBasis, _Action, _certified_closure, _closure, _feasible_point,
                     _nullspace, _particular, _primitive)


@dataclass(frozen=True)
class EquivalenceOutcome:
    """Equal, or a witness word on which the two series differ."""
    equal: bool
    witness: Word | None = None
    left_value: Fraction | None = None
    right_value: Fraction | None = None


def _totals(rows: Sequence[_Action], i: int, block: Sequence[int]) -> dict[int, int]:
    """The nonzero total weight that state i sends into each block under each
    letter, keyed by block * letters + letter, from each letter's outgoing
    (target, weight) pairs per state."""
    letters = len(rows)
    acc: dict[int, int] = {}
    get = acc.get
    for x, row in enumerate(rows):
        for j, c in row[i]:
            y = block[j] * letters + x
            acc[y] = get(y, 0) + c
    return {y: c for y, c in acc.items() if c} if 0 in acc.values() else acc


def _direct_sum(forms: Sequence[_IntegerForm], letters: int, left: bool
                ) -> tuple[list[_Action], int]:
    """The integer letter maps of the direct sum of automata, from their
    integer forms (``automata._IntegerForm``), with their scale.

    The scale is L = lcm(s_i) over the scales s_i of the forms. Each form's
    maps v -> s_i M_x v (``left``) or v -> s_i v M_x, one per letter, have
    their coefficients multiplied by L / s_i and their coordinates moved
    past the states of the forms before it; a form whose factor is 1 and
    whose states come first is taken as it is.
    """
    scale = lcm(*(form.scale for form in forms))
    actions: list[_Action] = [[] for _ in range(letters)]
    offset = 0
    for form in forms:
        k = scale // form.scale
        for terms, action in zip(actions, form.left if left else form.right):
            if offset or k != 1:
                action = [[(i + offset, c * k) for i, c in pairs] for pairs in action]
            terms += action
        offset += len(form.tau)
    return actions, scale


def _joined(parts: Sequence[tuple[Sequence[int], Fraction]]) -> list[int]:
    """The concatenation of the vectors f w of the (integer vector w, factor
    f) pairs, times the least common multiple of the factors' denominators:
    one positive integer multiple of the exact vector of a direct sum."""
    d = lcm(*(f.denominator for _, f in parts))
    out: list[int] = []
    for w, f in parts:
        k = f.numerator * (d // f.denominator)
        out += w if k == 1 else [k * x for x in w]
    return out


def _quotient(final: Sequence[int], outgoing: Callable[[], Sequence[_Action]], left: bool
              ) -> tuple[list[int], list[int], list[_Action]] | None:
    """The quotient of a representation by its coarsest backward lumping, or
    None when no two states merge.

    The coarsest backward lumping is the coarsest partition in which the
    states of a block share their final weight and, for each letter, their
    total weight into each block. Its block indicator P satisfies
    M_x P = P M_Q,x, where the row of M_Q,x for a block is the total weight
    that one of its states sends into each block, and the final vector is
    P gamma_Q for gamma_Q the final weight of one state per block.

    ``final`` holds the final weights as one positive integer multiple of
    them (:func:`_joined`), so equal entries are equal weights, and
    ``outgoing`` gives the integer letter maps v -> s v M_x of the direct
    sum (:func:`_direct_sum`), one scale s for all letters, which hold each
    state's outgoing (target, weight) pairs, so integer totals compare as
    the exact ones do. Refinement starts from the partition by final
    weight; when that is discrete, ``outgoing`` is never called. The next
    partition adds, per letter, the total weight into all states; when
    that is discrete nothing else is computed. Otherwise each round splits every
    block by the totals (:func:`_totals`) of its states into the blocks of
    the round before. A state alone in its block
    cannot split, so only the states of larger blocks are weighed again.
    The rounds stop when every block holds one state, and the result is
    None, or when a round splits nothing: the blocks are then those of the
    round before, so the totals of that round give the entries of M_Q,x,
    and only the states alone in their block are weighed once more.

    Returns the block of each state, blocks numbered in the order of their
    first state; the first state of each block, in block order; and the
    maps of M_Q,x under the same scale, built for v -> s M_Q,x v
    (``left``) or for v -> s v M_Q,x.
    """
    n = len(final)
    ids: dict = {}
    block = [ids.setdefault(x, len(ids)) for x in final]
    if len(ids) == n:
        return None
    rows = outgoing()
    sums = [[sum([c for _, c in pairs]) for pairs in action] for action in rows]
    ids = {}
    block = [ids.setdefault(key, len(ids)) for key in zip(block, *sums)]
    if len(ids) == n:
        return None
    while True:
        old = block
        sizes = [0] * len(ids)
        for k in old:
            sizes[k] += 1
        ids = {}
        block = []
        weighed: dict[int, dict[int, int]] = {}
        for i, k in enumerate(old):
            if sizes[k] > 1:
                weighed[i] = totals = _totals(rows, i, old)
                k = (k, frozenset(totals.items()))
            block.append(ids.setdefault(k, len(ids)))
        if len(ids) == n:
            return None
        if len(ids) == len(sizes):
            break
    first: list[int] = []
    for i, k in enumerate(block):
        if k == len(first):
            first.append(i)
    letters = len(rows)
    maps: list[_Action] = [[[] for _ in first] for _ in rows]
    for k, i in enumerate(first):
        totals = weighed.get(i)
        for y, c in (_totals(rows, i, block) if totals is None else totals).items():
            x, j = y % letters, y // letters
            if left:
                maps[x][j].append((k, c))
            else:
                maps[x][k].append((j, c))
    return block, first, maps


def _word_basis(a: MultiplicityAutomaton, b: MultiplicityAutomaton):
    """Basis words with sparse integer rows, spanning all reachable
    differences, and the functional that compares the two series. The words
    come from a generator, in the order the closure accepts them.

    The closure reads the integer letter maps v -> s v M_x of a (+) b, built
    from the integer forms of a and b (:func:`_direct_sum`), and starts
    from (lam_a, -lam_b) as one positive integer multiple of it
    (:func:`_joined`). The states of a (+) b are first merged by their
    coarsest backward lumping (:func:`_quotient`), with block indicator P
    and quotient maps M_Q,x, M_x P = P M_Q,x, and gamma = P gamma_Q. With
    lam = (lam_a, -lam_b), the block sums lam P start the closure, and
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
    fa, fb = a._integer_form(), b._integer_form()
    actions, _ = _direct_sum((fa, fb), len(a.alphabet), left=False)
    start = _joined(((fa.iota, fa.iota_factor), (fb.iota, -fb.iota_factor)))
    final = _joined(((fa.tau, fa.tau_factor), (fb.tau, fb.tau_factor)))
    maps = actions
    quotient = _quotient(final, lambda: actions, left=False)
    if quotient is not None:
        block, first, maps = quotient
        sums = [0] * len(first)
        for i, k in enumerate(block):
            sums[k] += start[i]
        start = sums
        final = [final[i] for i in first]
    basis = _closure(SpanBasis(len(final)), start, maps)
    return (((tuple(a.alphabet[k] for k in path), row) for path, row in basis),
            _primitive(final))


def are_equivalent(a: MultiplicityAutomaton, b: MultiplicityAutomaton) -> EquivalenceOutcome:
    """Decide whether two automata generate the same series.

    On a mismatch the returned witness is the length-lex smallest word whose
    values differ, the first basis word of :func:`_word_basis` on which
    they do, with both values evaluated on the inputs by integer pushes
    through their integer forms (``MultiplicityAutomaton.evaluate``). The
    closure stops at that word; only an equal verdict builds the whole
    basis, and that on the quotient of a (+) b by its coarsest backward
    lumping, so copies of one automaton that differ by split, duplicated,
    permuted or cancelling states close no span at all.

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


# From this dimension on, a span closure runs mod a prime
# (linalg._certified_closure): the backward closure of _backward_closure on
# its quotient (the direct sum merged by its coarsest backward lumping), and
# the forward closure of reduction.hankel_rank on the span of the backward
# rows. The crossover of the packed semi-echelon span, measured on quotients
# as process CPU time, median of 15, exact -> modular, on a 2-core Xeon with
# Python 3.11.7. Full-rank quotients, where the closure stops at the
# dim-th row: split ring copies x0.59 at 8, x0.43 at 10, x0.34 at 12,
# x0.26-0.30 at 14-20, x0.10-0.13 at 24-32 and x0.03 at 48 (2.88 -> 0.76 ms
# at 16); duplicated-state and cancelling copies of signed automata
# x0.48-0.56 at 7-9, x0.38-0.39 at 10-11, x0.25-0.37 at 12-16 and
# x0.13-0.14 at 31-32. Rank-deficient quotients, where the rows are reduced,
# rebuilt and checked: a ring with a convex state (rank one short) x1.25 at
# 7, x1.08 at 9, x0.81 at 11, x0.61 at 13 and x0.50-0.57 at 15-17; a ring PA
# summed with a copy in another basis (rank half the dimension) x2.37 at 8,
# x1.37-1.60 at 10-12, x1.12 at 14, x0.64 at 16-20 and x0.24-0.55 at 24-48,
# and a signed automaton summed with such a copy x2.63 at 8, x1.43-1.50 at
# 10-12, x0.80-0.84 at 16-24 and x0.64 at 32. Forward closures of the rank
# of split ring copies (full rank, whose exact rows stay small) x1.02-1.03
# at 6-10 rows and x0.36-1.27 at 12-32. Full-rank quotients now gain a
# third or more from 8 dimensions on, but rank-deficient ones lose up to 9
# (one short) and 14 (half rank), and forward closures gain nothing below
# 12, so the gate stays at 12.
MODULAR_MIN_DIM = 12


def _backward_closure(automata: Sequence[MultiplicityAutomaton]
                      ) -> tuple[SpanBasis, list[_Action], int]:
    """The span of every x(w) = mu(w) . gamma of a direct sum, with the integer
    letter maps it was closed under and their scale.

    The automata share one alphabet. Their direct sum has the concatenated
    final vectors and block-diagonal letter matrices, so block i of x(w) is
    automaton i's own mu(w) . gamma. The closure starts from
    gamma and extends, by each letter on the left, the echelon row that
    each vector enlarging the span adds (``linalg._closure``), so the span
    reached holds every x(w). A series with initial vector lam on block i
    takes the value lam . x(w)[i] on w, so a linear equation between such
    series holds on every word iff it holds on the span's rows; in
    particular, two initial vectors of one automaton give equal series iff
    they agree on every row. The closure is fraction-free: the span keeps
    its reduced echelon rows as primitive integers, and the maps are
    v -> s mu(x) . v on the direct sum, one per letter in alphabet order,
    stored per input coordinate. They come from the automata's integer
    forms (:func:`_direct_sum`): s is the lcm of their scales, each form's
    coefficients are multiplied by s over its own scale, and a form whose
    factor is 1 is read as it is. s comes back with the maps; gamma enters
    as one positive integer multiple of it (:func:`_joined`).

    The states of the direct sum are first merged by their coarsest
    backward lumping (:func:`_quotient`): with block indicator P,
    M_x P = P M_Q,x and gamma = P gamma_Q, so x(w) = P x_Q(w) for the
    backward vectors x_Q(w) = M_Q(w) . gamma_Q of the quotient, and the
    closure runs there. P is injective, so each reduced echelon row r of
    the quotient's span expands to the row r P^T of the span of every x(w),
    whose entry at state i is r's entry at i's block. Blocks are numbered
    by their first state, so a state before the first state of block k lies
    in a block before k: the expanded row is zero before the first state
    of its pivot block, positive there, zero at the first state of every
    other pivot block, and as primitive as r. These are the unique reduced
    echelon rows of the span of every x(w), the rows its own closure
    would find. When no two states merge, the closure runs on the direct
    sum itself. The lumping reads the outgoing pairs of the direct sum,
    its maps v -> s v M_x, which are built only when the final weights
    alone leave two states in one block.

    From ``MODULAR_MIN_DIM`` dimensions of the quotient on, the same
    closure runs mod a prime (``linalg._certified_closure``), where the
    rows that the exact closure would fill in do not grow. Its rows are
    rebuilt as rationals and kept only if the start vector and every row's
    image under every letter lie in their row space, which makes them the
    exact rows; otherwise the exact closure runs. Every caller gets the
    same span either way.
    """
    alphabet = automata[0].alphabet if automata else ()
    if any(a.alphabet != alphabet for a in automata):
        raise ValueError("alphabet mismatch")
    forms = [a._integer_form() for a in automata]
    actions, scale = _direct_sum(forms, len(alphabet), left=True)
    gamma = _joined([(form.tau, form.tau_factor) for form in forms])
    dim = len(gamma)
    quotient = _quotient(gamma, lambda: _direct_sum(forms, len(alphabet), left=False)[0],
                         left=True)
    if quotient is None:
        return _closed_span(dim, gamma, actions), actions, scale
    block, first, maps = quotient
    closed = _closed_span(len(first), [gamma[i] for i in first], maps)
    members: list[list[int]] = [[] for _ in first]
    for i, k in enumerate(block):
        members[k].append(i)
    span = SpanBasis(dim)
    span._rows = {first[p]: {i: y for k, y in row.items() for i in members[k]}
                  for p, row in closed._rows.items()}
    return span, actions, scale


def _closed_span(dim: int, start: Sequence[int], actions: Sequence[_Action]
                 ) -> SpanBasis:
    """The span of every image of ``start`` under the maps: mod a prime and
    certified from ``MODULAR_MIN_DIM`` dimensions on, exact below. Both
    closures of ``reduction.hankel_rank`` come here, the backward one on
    the quotient and the forward one on the span of the backward rows."""
    if dim >= MODULAR_MIN_DIM:
        return _certified_closure(dim, start, actions)
    span = SpanBasis(dim)
    for _ in _closure(span, start, actions):
        pass
    return span


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
    """The first series of each distinct structure, in order, and the index
    of each series' block.

    Two series share a structure when they have the same states and the
    same integer form (``automata._IntegerForm``) but for the initial
    vector: the same scale, letter maps and final vector. Series in one
    block differ only in their initial vector, so they share every derived
    object that the initial vector does not enter. The letter maps keep
    the order of the transitions, so equal weights given in another order
    make a block of their own, which shares nothing but changes no
    result.
    """
    blocks: list[MultiplicityAutomaton] = []
    keys: list[tuple] = []
    block_of: list[int] = []
    for s in series:
        f = s._integer_form()
        key = (s.states, f.scale, f.tau_factor, f.tau, f.right)
        k = next((i for i, other in enumerate(keys) if other == key), None)
        if k is None:
            k = len(blocks)
            blocks.append(s)
            keys.append(key)
        block_of.append(k)
    return blocks, block_of


def _value_table(series: Sequence[MultiplicityAutomaton]) -> list[list[int]]:
    """Rows of integers, one column per series, on which every linear
    equation between the series holds iff it holds on every word.

    The series are grouped into one block per distinct structure
    (:func:`_blocks`). One backward closure of the blocks' direct sum
    (:func:`_backward_closure`) yields rows x on which each series takes the
    value lam . x[its block], and the rows span every x(w). The initial
    vectors, read off the integer forms as coprime integers with their
    factors, are scaled to integers by one common denominator and paired
    with the span's sparse integer rows; neither that positive scale, which
    every column shares, nor the scale of a row changes a solution of
    :func:`combination_on_rows`.
    """
    blocks, block_of = _blocks(series)
    bounds = list(accumulate((b.n_states for b in blocks), initial=0))
    forms = [s._integer_form() for s in series]
    scale = lcm(*(f.iota_factor.denominator for f in forms))
    lams = []
    for f, k in zip(forms, block_of):
        c = f.iota_factor.numerator * (scale // f.iota_factor.denominator)
        lam = [0] * bounds[-1]
        lam[bounds[k]:bounds[k + 1]] = [c * x for x in f.iota]
        lams.append(lam)
    span = _backward_closure(blocks)[0]
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
