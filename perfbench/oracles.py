"""Oracle checks for decision outputs.

Each factory returns ``check(code, out) -> reason | None``: None when the
exit code and stdout of a decision are right, otherwise a one-line reason.
Answers come from construction where possible, and otherwise from the
benchmark's own exact model, never from stochlang.
"""

from __future__ import annotations

from fractions import Fraction

from model import (F, Auto, closure, format_word, parse_word, vec_mat,
                   words_up_to)


def parse_lines(out: str) -> tuple[dict, str]:
    """Split CLI stdout into its ``key: value`` lines and a trailing document."""
    head, sep, doc = out.partition("{")
    lines = {}
    for line in head.splitlines():
        key, colon, value = line.partition(": ")
        if colon:
            lines[key] = value
    return lines, sep + doc


def equal_series(a: Auto, b: Auto) -> bool:
    """Exact series equality: the reachable span of the joint forward vector
    must be orthogonal to (gamma_a, -gamma_b)."""
    if a.alphabet != b.alphabet:
        return False
    la, ma, ga = a.dense()
    lb, mb, gb = b.dense()
    n = a.n

    def stepper(x):
        return lambda v: vec_mat(v[:n], ma[x]) + vec_mat(v[n:], mb[x])

    gamma = ga + [-g for g in gb]
    basis = closure(la + lb, [stepper(x) for x in a.alphabet])
    return all(sum((p * q for p, q in zip(v, gamma)), F(0)) == 0 for v in basis)


def _doc(out: str) -> Auto | None:
    _, doc = parse_lines(out)
    try:
        return Auto.from_doc(doc)
    except (ValueError, KeyError, TypeError):
        return None


def _frac(text) -> Fraction | None:
    try:
        return Fraction(text)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _code(code, expected) -> str | None:
    return None if code == expected else f"exit {code}, expected {expected}"


# ---------------------------------------------------------------- sums

def sum_value(value: Fraction):
    def check(code, out):
        lines, _ = parse_lines(out)
        if (bad := _code(code, 0)) or lines.get("converges") != "true":
            return bad or "not reported convergent"
        return None if _frac(lines.get("value")) == value else f"value {lines.get('value')}"
    return check


def divergent(flag: str):
    def check(code, out):
        lines, _ = parse_lines(out)
        if bad := _code(code, 13):
            return bad
        return None if lines.get(flag) == "false" else f"{flag} not false"
    return check


def state_sum_vector(states, values):
    """``sums`` prints one line per state, in state order, with the known sum."""
    def check(code, out):
        lines, _ = parse_lines(out)
        if (bad := _code(code, 0)) or lines.get("convergent") != "true":
            return bad or "not reported convergent"
        for q, v in zip(states, values):
            if _frac(lines.get(f"sum.{q}")) != v:
                return f"sum.{q} = {lines.get(f'sum.{q}')}, expected {v}"
        return None
    return check


# ---------------------------------------------------------------- equivalence

def equal():
    def check(code, out):
        lines, _ = parse_lines(out)
        return _code(code, 0) or (None if lines.get("equal") == "true" else "not equal")
    return check


def distinct(a: Auto, b: Auto):
    """Witness re-evaluated with the path-sum evaluator on both documents."""
    def check(code, out):
        lines, _ = parse_lines(out)
        if (bad := _code(code, 10)) or lines.get("equal") != "false":
            return bad or "not reported distinct"
        word = parse_word(lines.get("witness", ""), a.alphabet)
        if len(word) > a.n + b.n:
            return f"witness length {len(word)} exceeds {a.n + b.n}"
        left, right = a.evaluate(word), b.evaluate(word)
        if left == right:
            return "witness does not separate the series"
        if (_frac(lines.get("left")), _frac(lines.get("right"))) != (left, right):
            return "printed witness values are wrong"
        return None
    return check


def rank_value(r: int):
    def check(code, out):
        lines, _ = parse_lines(out)
        return _code(code, 0) or (None if lines.get("rank") == str(r)
                                  else f"rank {lines.get('rank')}, expected {r}")
    return check


def reduced(source: Auto, states: int | None, *, cone: bool):
    """Output generates the source series; field mode has exactly ``states`` states,
    cone mode at most ``states`` and only nonnegative weights."""
    def check(code, out):
        lines, _ = parse_lines(out)
        if bad := _code(code, 0):
            return bad
        got = _doc(out)
        if got is None or lines.get("states") != str(got.n):
            return "missing or inconsistent output document"
        if (got.n > states) if cone else (got.n != states):
            return f"{got.n} states, expected {'at most ' if cone else ''}{states}"
        if cone and not got.is_pa():
            return "cone reduction of a PA is not a PA"
        return None if equal_series(source, got) else "output series differs"
    return check


# ---------------------------------------------------------------- residuals

def pda(source: Auto, residuals: int):
    def check(code, out):
        lines, _ = parse_lines(out)
        if bad := _code(code, 0):
            return bad
        got = _doc(out)
        if got is None or lines.get("states") != str(residuals) or got.n != residuals:
            return f"states {lines.get('states')}, expected {residuals}"
        if not (got.is_pa() and got.is_deterministic()):
            return "output is not a deterministic PA"
        return None if equal_series(source, got) else "output series differs"
    return check


def bound_exceeded(max_states: int):
    def check(code, out):
        lines, _ = parse_lines(out)
        if (bad := _code(code, 12)) or lines.get("bound_exceeded") != "true":
            return bad or "bound not reported"
        return (None if lines.get("discovered") == str(max_states + 1)
                else f"discovered {lines.get('discovered')}, expected {max_states + 1}")
    return check


def residual(source: Auto, word, mass: Fraction):
    """The output series is w -> value(word w) / mass, checked on short words
    and exactly against the pushed initial vector."""
    expected = Auto(source.alphabet, source.states,
                    {q: w / mass for q, w in source.forward(word).items()},
                    source.final, source.trans)

    def check(code, out):
        if bad := _code(code, 0):
            return bad
        got = _doc(out)
        if got is None:
            return "missing output document"
        for v in words_up_to(source.alphabet, 2):
            if got.evaluate(v) * mass != source.evaluate(tuple(word) + v):
                return f"residual value wrong on {format_word(v, source.alphabet)}"
        return None if equal_series(expected, got) else "output series differs"
    return check


def minimal_gens(words):
    """Conclusive with exactly these witness words, or inconclusive when None."""
    def check(code, out):
        lines, _ = parse_lines(out)
        if words is None:
            return _code(code, 15) or (None if lines.get("conclusive") == "false"
                                       else "not reported inconclusive")
        if (bad := _code(code, 0)) or lines.get("conclusive") != "true":
            return bad or "not reported conclusive"
        return (None if lines.get("generators") == " ".join(words)
                else f"generators {lines.get('generators')!r}, expected {' '.join(words)!r}")
    return check


# ---------------------------------------------------------------- cone and LP

def combination(target: Auto, generators, alphabet):
    """Nonnegative coefficients whose mixture reproduces the target on probe words."""
    probes = words_up_to(alphabet, 3)
    want = [target.evaluate(w) for w in probes]
    values = [[g.evaluate(w) for w in probes] for g in generators]

    def check(code, out):
        lines, _ = parse_lines(out)
        if (bad := _code(code, 0)) or lines.get("expressible") != "true":
            return bad or "not reported expressible"
        coeffs = [_frac(lines.get(f"coeff.{i + 1}")) for i in range(len(generators))]
        if any(c is None or c < 0 for c in coeffs):
            return "missing or negative coefficient"
        for k in range(len(probes)):
            if sum((c * v[k] for c, v in zip(coeffs, values)), F(0)) != want[k]:
                return f"mixture misses the target on {format_word(probes[k], alphabet)}"
        return None
    return check


def infeasible():
    def check(code, out):
        lines, _ = parse_lines(out)
        return _code(code, 11) or (None if lines.get("expressible") == "false"
                                   else "not reported infeasible")
    return check


def hardness(states: int):
    def check(code, out):
        if bad := _code(code, 0):
            return bad
        got = _doc(out)
        if got is None or got.n != states or not got.is_pa():
            return f"output is not a PA with {states} states"
        return None
    return check


def classify_pa(pra: bool | None, max_len: int):
    """PA report with a known residual-automaton verdict (None: not decided here)."""
    def check(code, out):
        lines, _ = parse_lines(out)
        if bad := _code(code, 0):
            return bad
        for key, want in (("pa", "true"), ("sum_is_one", "true"),
                          ("nonneg_checked_length", str(max_len))):
            if lines.get(key) != want:
                return f"{key}: {lines.get(key)}, expected {want}"
        if pra is not None and lines.get("pra") != ("true" if pra else "false"):
            return f"pra: {lines.get('pra')}, expected {pra}"
        return None
    return check


def not_pra():
    def check(code, out):
        lines, _ = parse_lines(out)
        return _code(code, 14) or (None if lines.get("pra") == "false" else "pra not false")
    return check


def prefixial(source: Auto):
    def check(code, out):
        lines, _ = parse_lines(out)
        if (bad := _code(code, 0)) or lines.get("pra") != "true":
            return bad or "pra not true"
        got = _doc(out)
        if got is None or not got.is_pa():
            return "output is not a PA"
        return None if equal_series(source, got) else "output series differs"
    return check
