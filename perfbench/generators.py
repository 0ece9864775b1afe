"""Seeded input families for the benchmark.

Each generator returns an :class:`Auto` (or a DFA description) whose
relevant answers are known by construction: PAs sum to 1, a change of basis
maps the state-sum vector 1 to P.1, a split copy generates the same series,
a planted loop of weight 1 diverges, and so on.

Two random streams feed them. ``shape`` draws the support (which edges,
letters and states) and ``rng`` draws the weights. Callers seed ``shape`` per
decision, independently of the workload seed, so runs with different seeds
measure the same shapes with different numbers: the cost of an exact
decision depends far more on its support than on its weights, and varying
the support between seeds would mostly add noise.
"""

from __future__ import annotations

import random
from fractions import Fraction

from model import F, Auto, invert, mat_mul, mat_vec, vec_mat

AB = ("a", "b")


def _normalise(rows: dict, finals: dict) -> tuple[dict, dict]:
    """Scale each state's final weight and leaving edges to total mass 1."""
    trans, final = {}, {}
    for q, f in finals.items():
        edges = rows.get(q, {})
        total = f + sum(edges.values())
        final[q] = F(f, total)
        for key, w in edges.items():
            trans[key] = trans.get(key, F(0)) + F(w, total)
    return trans, final


def ring_pa(rng: random.Random, shape: random.Random, n: int, alphabet=AB) -> Auto:
    """Random connected PA: each state has a final weight, a ring edge and two random edges.

    Raw weights come from ``randint(1, 5)``; every state stops with positive
    probability, so the sum converges and equals 1, as does every state's sum.
    """
    states = [f"q{i}" for i in range(n)]
    rows: dict = {}
    finals = {}
    for i, q in enumerate(states):
        finals[q] = rng.randint(1, 5)
        edges = rows.setdefault(q, {})
        targets = [states[(i + 1) % n], shape.choice(states), shape.choice(states)]
        for r in targets:
            key = (q, shape.choice(alphabet), r)
            edges[key] = edges.get(key, 0) + rng.randint(1, 5)
    trans, final = _normalise(rows, finals)
    return Auto(alphabet, states, {states[0]: 1}, final, trans)


def deterministic_pa(rng: random.Random, shape: random.Random, n: int, alphabet=AB) -> Auto:
    """Random PA with deterministic support: letter a follows the ring, b jumps.

    Its residuals are the normalised state series it reaches, so there are
    at most n of them.
    """
    states = [f"q{i}" for i in range(n)]
    rows: dict = {}
    finals = {}
    for i, q in enumerate(states):
        finals[q] = rng.randint(1, 5)
        rows[q] = {(q, alphabet[0], states[(i + 1) % n]): rng.randint(1, 5)}
        for x in alphabet[1:]:
            rows[q][(q, x, shape.choice(states))] = rng.randint(1, 5)
    trans, final = _normalise(rows, finals)
    return Auto(alphabet, states, {states[0]: 1}, final, trans)


def random_pa(rng: random.Random, shape: random.Random, n: int, alphabet=AB) -> Auto:
    """Small PA with a random initial distribution and dense random rows."""
    states = [f"g{i}" for i in range(n)]
    raw = {q: rng.randint(1, 5) for q in states}
    total = sum(raw.values())
    rows = {q: {(q, x, r): rng.randint(1, 5) for x in alphabet for r in states
                if shape.random() < 0.6} for q in states}
    finals = {q: rng.randint(1, 5) for q in states}
    trans, final = _normalise(rows, finals)
    return Auto(alphabet, states, {q: F(w, total) for q, w in raw.items()}, final, trans)


def _random_basis(rng: random.Random, shape: random.Random, n: int):
    """Invertible rational P = L.U with small unit-diagonal triangular factors."""
    def entry():
        if shape.random() < 0.5:
            return F(0)
        return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    lower = [[F(1) if i == j else (entry() if j < i else F(0)) for j in range(n)]
             for i in range(n)]
    upper = [[F(1) if i == j else (entry() if j > i else F(0)) for j in range(n)]
             for i in range(n)]
    return mat_mul(lower, upper)


def change_of_basis(rng: random.Random, shape: random.Random, a: Auto) -> tuple[Auto, list]:
    """Copy generating the same series under a random rational basis P.

    With lam' = lam.P^-1, M'_x = P.M_x.P^-1 and gamma' = P.gamma the series
    is unchanged and the state-sum vector becomes P times the old one. The
    weights come out signed and dense. Returns the copy and P.
    """
    n = a.n
    p = _random_basis(rng, shape, n)
    p_inv = invert(p)
    lam, mu, gamma = a.dense()
    states = [f"c{i}" for i in range(n)]
    new_lam = vec_mat(lam, p_inv)
    new_gamma = mat_vec(p, gamma)
    trans = {}
    for x, m in mu.items():
        conj = mat_mul(mat_mul(p, m), p_inv)
        for i in range(n):
            for j in range(n):
                trans[(states[i], x, states[j])] = conj[i][j]
    return Auto(a.alphabet, states, dict(zip(states, new_lam)),
                dict(zip(states, new_gamma)), trans), p


def split_copy(rng: random.Random, a: Auto) -> Auto:
    """2n-state copy: every state q becomes q.0 and q.1 with the same series.

    Initial weight and every incoming edge are split between the two copies
    in a random ratio; each copy keeps q's final weight and leaving edges.
    """
    def share():
        return F(rng.randint(1, 5), 6)

    states = [f"{q}.{k}" for q in a.states for k in (0, 1)]
    initial = {}
    for q, w in a.initial.items():
        s = share()
        initial[f"{q}.0"] = w * s
        initial[f"{q}.1"] = w * (1 - s)
    final = {f"{q}.{k}": w for q, w in a.final.items() for k in (0, 1)}
    trans = {}
    for (q, x, r), w in a.trans.items():
        s = share()
        for k in (0, 1):
            trans[(f"{q}.{k}", x, f"{r}.0")] = w * s
            trans[(f"{q}.{k}", x, f"{r}.1")] = w * (1 - s)
    return Auto(a.alphabet, states, initial, final, trans)


def nudged(a: Auto, q: str) -> Auto:
    """Same PA with 1/1000 of one leaving edge of q moved to q's final weight.

    The series changes on the shortest word reaching q, so the result is
    distinct from ``a`` by construction and still a PA.
    """
    key = next(k for k in sorted(a.trans) if k[0] == q and a.trans[k] > F(1, 1000))
    trans = dict(a.trans)
    trans[key] -= F(1, 1000)
    final = dict(a.final)
    final[q] = final.get(q, F(0)) + F(1, 1000)
    return Auto(a.alphabet, a.states, a.initial, final, trans)


def planted_divergence(shape: random.Random, a: Auto) -> Auto:
    """Add a reachable, co-reachable state with a self-loop of weight 1."""
    src = shape.choice(a.states)
    key = next(k for k in sorted(a.trans) if k[0] == src)
    trans = dict(a.trans)
    trans[key] /= 2
    trans[(src, key[1], "loop")] = a.trans[key] / 2
    trans[("loop", shape.choice(a.alphabet), "loop")] = F(1)
    final = dict(a.final)
    final["loop"] = F(1, 2)
    return Auto(a.alphabet, a.states + ("loop",), a.initial, final, trans)


def hidden_divergence(shape: random.Random, a: Auto) -> Auto:
    """Add a divergent block that the initial vector never reaches.

    The total sum still converges to 1, but the per-state sums diverge.
    """
    final = dict(a.final)
    final["h0"] = F(1)
    final["h1"] = F(1, 2)
    trans = dict(a.trans)
    trans[("h0", a.alphabet[0], "h1")] = F(1)
    trans[("h1", a.alphabet[-1], "h0")] = F(1)
    trans[("h1", a.alphabet[0], shape.choice(a.states))] = F(1, 3)
    return Auto(a.alphabet, a.states + ("h0", "h1"), a.initial, final, trans)


def convex_state(rng: random.Random, shape: random.Random, a: Auto) -> tuple[Auto, str]:
    """Add a state whose series is a convex mixture of two existing states' series.

    One edge into it makes it reachable; its final weight and leaving edges
    are then the mixture of the two states' rows, which makes its series the
    same mixture of theirs. Cone reduction can remove it.
    """
    qi, qj = shape.sample(a.states, 2)
    alpha = F(rng.randint(1, 4), 5)
    mix = "mix"
    src = a.states[-1]
    key = next(k for k in sorted(a.trans) if k[0] == src)
    trans = dict(a.trans)
    trans[key] /= 2
    trans[(src, key[1], mix)] = a.trans[key] / 2
    for (q, x, r), w in list(trans.items()):
        if q in (qi, qj):
            share = alpha if q == qi else 1 - alpha
            trans[(mix, x, r)] = trans.get((mix, x, r), F(0)) + share * w
    final = dict(a.final)
    final[mix] = alpha * a.final.get(qi, F(0)) + (1 - alpha) * a.final.get(qj, F(0))
    return Auto(a.alphabet, a.states + (mix,), a.initial, final, trans), mix


def mixture(generators, coeffs) -> Auto:
    """Disjoint union realising sum_i c_i * generator_i."""
    alphabet = generators[0].alphabet
    states, initial, final, trans = [], {}, {}, {}
    for i, (g, c) in enumerate(zip(generators, coeffs)):
        name = {q: f"m{i}.{q}" for q in g.states}
        states.extend(name[q] for q in g.states)
        initial.update({name[q]: c * w for q, w in g.initial.items()})
        final.update({name[q]: w for q, w in g.final.items()})
        trans.update({(name[q], x, name[r]): w for (q, x, r), w in g.trans.items()})
    return Auto(alphabet, states, initial, final, trans)


def divergent_pair_counterexample() -> tuple[Auto, Fraction]:
    """Unary automaton whose total converges while one state's sum diverges.

    Two divergent copies d1, d2 of one state carry initial weights +1 and -1
    and cancel; c is convergent. The total is 1 and the prefix mass of "a"
    is 1/2, so the residual at "a" exists. Returns it with that prefix mass.
    """
    auto = Auto(("a",), ("c", "d1", "d2"),
                {"c": 1, "d1": 1, "d2": -1},
                {"c": F(1, 2), "d1": 1, "d2": 1},
                {("c", "a", "c"): F(1, 2), ("d1", "a", "d1"): 1, ("d2", "a", "d2"): 1})
    return auto, F(1, 2)


# ---------------------------------------------------------------- DFAs

def mod_counter(k: int, residue: int, letter: str = "a", alphabet=AB) -> dict:
    """DFA over ``alphabet`` accepting words whose count of ``letter`` is residue mod k."""
    states = [f"r{i}" for i in range(k)]
    delta = [[states[i], x, states[(i + 1) % k] if x == letter else states[i]]
             for i in range(k) for x in alphabet]
    return {"alphabet": list(alphabet), "states": states, "initial": states[0],
            "finals": [states[residue]], "transitions": delta}


def union_universal(dfas) -> bool:
    """Whether every word is accepted by some DFA: BFS over the product automaton."""
    alphabet = dfas[0]["alphabet"]
    deltas = [{(q, x): r for q, x, r in d["transitions"]} for d in dfas]
    start = tuple(d["initial"] for d in dfas)
    seen = {start}
    queue = [start]
    while queue:
        tup = queue.pop()
        if not any(q is not None and q in d["finals"] for q, d in zip(tup, dfas)):
            return False
        for x in alphabet:
            nxt = tuple(None if q is None else delta.get((q, x))
                        for q, delta in zip(tup, deltas))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


# ---------------------------------------------------------------- paper examples

def example1_p() -> Auto:
    """Even mixture of a^n -> 2^-(n+1) and a^n -> 3.2^-(2n+2); infinitely many residuals."""
    return Auto(("a",), ("q0", "q1"), {"q0": F(1, 2), "q1": F(1, 2)},
                {"q0": F(1, 2), "q1": F(3, 4)},
                {("q0", "a", "q0"): F(1, 2), ("q1", "a", "q1"): F(1, 4)})


def fig5() -> Auto:
    """Two-state unary PA whose residuals are pairwise distinct."""
    return Auto(("a",), ("q0", "q1"), {"q0": 1}, {"q0": F(1, 2)},
                {("q0", "a", "q1"): F(1, 2), ("q1", "a", "q0"): F(1, 2),
                 ("q1", "a", "q1"): F(1, 2)})


def support_word(shape: random.Random, a: Auto, length: int) -> tuple:
    """Random word that follows transitions of ``a`` from an initial state."""
    q = shape.choice(sorted(a.initial))
    word = []
    for _ in range(length):
        q_edges = sorted(k for k in a.trans if k[0] == q)
        _, x, q = shape.choice(q_edges)
        word.append(x)
    return tuple(word)
