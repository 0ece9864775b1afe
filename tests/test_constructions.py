import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from stochlang import (ConstructionError, MultiplicityAutomaton, are_equivalent,
                       determinize_to_pda, fixtures, is_pa, is_pda,
                       minimal_residual_generators, residual_automaton,
                       state_series_automaton, synthesize_pa,
                       to_prefixial_pra)

from helpers import (oracle_determinize_to_pda, oracle_minimal_residual_generators,
                     random_pda, ring_pa, split_copy)

F = Fraction


def single_state_pa():
    return MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1}, {})


class TestSynthesizePa:
    def test_example1_mixture(self):
        target = fixtures.build("example1_p")
        built = synthesize_pa(target, [fixtures.build("example1_p1"),
                                       fixtures.build("example1_p2")])
        assert built is not None
        assert is_pa(built)
        assert are_equivalent(built, target).equal
        assert built.iota == {"s0": F(1, 2), "s1": F(1, 2)}
        assert built.tau == {"s0": F(1, 2), "s1": F(3, 4)}
        assert built.phi == {("s0", "a", "s0"): F(1, 2), ("s1", "a", "s1"): F(1, 4)}

    def test_self_representation(self):
        p1 = fixtures.build("example1_p1")
        built = synthesize_pa(p1, [p1])
        assert built is not None
        assert built.iota == {"s0": F(1)}
        assert built.tau == {"s0": F(1, 2)}
        assert built.phi == {("s0", "a", "s0"): F(1, 2)}

    def test_fig3_over_its_residual_basis_is_infeasible(self):
        app = fixtures.build("fig3_App")
        res = residual_automaton(app, ("a",))
        assert synthesize_pa(app, [app, res]) is None

    def test_rejects_non_unit_mass_generator(self):
        half = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": F(1, 2)}, {})
        with pytest.raises(ValueError):
            synthesize_pa(single_state_pa(), [half])

    def test_success_invariants_on_random_mixtures(self):
        # single-state generators form shift-stable families by construction
        from stochlang import weighted_sum
        rng = random.Random(61)

        def geometric(stop_num, stop_den):
            stop = F(stop_num, stop_den)
            return MultiplicityAutomaton(("a",), ("g",), {"g": 1}, {"g": stop},
                                         {("g", "a", "g"): 1 - stop})

        for _ in range(8):
            gens = [geometric(rng.randint(1, 3), rng.randint(3, 5)) for _ in range(2)]
            c = F(rng.randint(0, 4), 4)
            target = weighted_sum(gens, (c, 1 - c))
            built = synthesize_pa(target, gens)
            assert built is not None
            assert is_pa(built)
            assert are_equivalent(built, target).equal


class TestDeterminize:
    def test_fig2_two_states(self):
        out = determinize_to_pda(fixtures.build("fig2_A"), 8)
        assert not out.bound_exceeded
        assert out.discovered_residuals == 2
        assert out.pda.n_states == 2
        assert is_pda(out.pda)
        assert are_equivalent(out.pda, fixtures.build("fig2_A")).equal

    def test_example1_exceeds_bound(self):
        out = determinize_to_pda(fixtures.build("example1_p"), 8)
        assert out.bound_exceeded
        assert out.discovered_residuals == 9

    def test_fig5_exceeds_bound(self):
        out = determinize_to_pda(fixtures.build("fig5"), 16)
        assert out.bound_exceeded
        assert out.discovered_residuals == 17

    def test_divergent_input_rejected(self):
        diverging = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                          {("q0", "a", "q0"): 1})
        with pytest.raises(ValueError):
            determinize_to_pda(diverging, 4)

    def test_non_unit_mass_rejected(self):
        half = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": F(1, 2)}, {})
        with pytest.raises(ValueError):
            determinize_to_pda(half, 4)

    @pytest.mark.parametrize("bound", [0, -1])
    def test_bound_below_one_rejected(self, bound):
        with pytest.raises(ValueError, match="max_states must be at least 1"):
            determinize_to_pda(fixtures.build("example1_p"), bound)

    def test_idempotence_on_pdas(self):
        rng = random.Random(62)
        for _ in range(8):
            a = random_pda(rng, rng.randint(2, 3), ("a", "b"))
            if not is_pda(a):
                continue
            out = determinize_to_pda(a, 8)
            assert not out.bound_exceeded
            assert out.pda.n_states <= a.n_states
            assert are_equivalent(out.pda, a).equal

    def test_state_count_matches_discovery(self):
        out = determinize_to_pda(fixtures.build("fig2_A"), 8)
        assert out.pda.n_states == out.discovered_residuals

    def test_one_sum_per_explored_edge(self, monkeypatch):
        module = importlib.import_module("stochlang.constructions")
        calls = []

        def counted(powers, v):
            calls.append(v)
            return real(powers, v)
        real = module._mass
        monkeypatch.setattr(module, "_mass", counted)
        a = fixtures.build("fig2_A")
        out = determinize_to_pda(a, 8)
        # the root residual is the series itself; every other sum is one edge
        assert len(calls) == out.discovered_residuals * len(a.alphabet)

    @pytest.mark.parametrize("bound", [2, 8, 32])
    def test_one_letter_sum_matrix_per_call(self, monkeypatch, bound):
        # every residual shares M and gamma, so the integer table of A^k g
        # is built once per call, however many residuals the call explores
        module = importlib.import_module("stochlang.constructions")
        calls = []

        def counted(a):
            calls.append(a)
            return real(a)
        real = module._sum_table
        monkeypatch.setattr(module, "_sum_table", counted)
        out = determinize_to_pda(ring_pa(8), bound)
        assert out.discovered_residuals == bound + 1
        assert len(calls) == 1

    def test_signed_unit_mass_series_is_a_construction_error(self):
        # values 2 on the empty word and -1 on "a": mass 1, not a distribution
        a = MultiplicityAutomaton(("a",), ("q0", "q1"), {"q0": 1},
                                  {"q0": 2, "q1": -1}, {("q0", "a", "q1"): 1})
        with pytest.raises(ConstructionError, match="not a probability distribution"):
            determinize_to_pda(a, 4)


class TestPrefixial:
    def test_fig5(self):
        a = fixtures.build("fig5")
        built = to_prefixial_pra(a, {"q0": (), "q1": ("a",)})
        assert built.states == ("@", "a")
        assert built.tau == {"@": F(1, 2)}
        assert built.phi == {("@", "a", "a"): F(1, 2),
                             ("a", "a", "@"): F(1, 2),
                             ("a", "a", "a"): F(1, 2)}
        assert is_pa(built)
        assert are_equivalent(built, a).equal

    def test_fig2_rebuilds_itself(self):
        a = fixtures.build("fig2_A")
        built = to_prefixial_pra(a, {"q0": (), "q1": ("a",)})
        assert built.states == ("@", "a")
        assert built.tau == {"a": F(1)}
        assert built.phi == {("@", "a", "a"): F(1, 2), ("@", "b", "@"): F(1, 2)}
        assert are_equivalent(built, a).equal

    def test_single_state(self):
        a = single_state_pa()
        built = to_prefixial_pra(a, {"q0": ()})
        assert built.states == ("@",)
        assert are_equivalent(built, a).equal

    def test_state_words_are_prefix_closed(self):
        a = fixtures.build("fig5")
        built = to_prefixial_pra(a, {"q0": (), "q1": ("a",)})
        from stochlang import parse_word
        words = {parse_word(q, built.alphabet) for q in built.states}
        assert all(w[:i] in words for w in words for i in range(len(w)))

    def test_every_state_series_is_its_own_residual(self):
        for name, witnesses in (("fig5", {"q0": (), "q1": ("a",)}),
                                ("fig2_A", {"q0": (), "q1": ("a",)})):
            built = to_prefixial_pra(fixtures.build(name), witnesses)
            from stochlang import parse_word
            for q in built.states:
                w = parse_word(q, built.alphabet)
                assert are_equivalent(residual_automaton(built, w),
                                      state_series_automaton(built, q)).equal

    def test_bad_witness_rejected(self):
        a = fixtures.build("fig5")
        with pytest.raises(ValueError, match="^witness verification failure for state "
                                             "'q1': the residual at aa differs at @$"):
            to_prefixial_pra(a, {"q0": (), "q1": ("a", "a")})

    def test_duplicate_witnesses_rejected(self):
        a = fixtures.build("fig5")
        with pytest.raises(ValueError):
            to_prefixial_pra(a, {"q0": (), "q1": ()})

    def test_non_pa_rejected(self):
        with pytest.raises(ValueError):
            to_prefixial_pra(fixtures.build("fig3_App"), {"q0": (), "q1": ("a",)})


class TestMinimalResidualGenerators:
    def test_fig2(self):
        assert minimal_residual_generators(fixtures.build("fig2_A"), 2) == [(), ("a",)]

    def test_example1_inconclusive(self):
        assert minimal_residual_generators(fixtures.build("example1_p"), 3) is None

    def test_single_state(self):
        assert minimal_residual_generators(single_state_pa(), 1) == [()]

    def test_stable_under_depth_increase(self):
        a = fixtures.build("fig2_A")
        assert (minimal_residual_generators(a, 2)
                == minimal_residual_generators(a, 3)
                == minimal_residual_generators(a, 4))
        b = single_state_pa()
        assert minimal_residual_generators(b, 1) == minimal_residual_generators(b, 3)

    def test_divergent_rejected(self):
        diverging = MultiplicityAutomaton(("a",), ("q0",), {"q0": 1}, {"q0": 1},
                                          {("q0", "a", "q0"): 1})
        with pytest.raises(ValueError):
            minimal_residual_generators(diverging, 2)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        with pytest.raises(ValueError, match="depth must be at least 1"):
            minimal_residual_generators(fixtures.build("fig2_A"), depth)


# ------------------------------------------- residuals as values on backward rows

def _oracle_inputs():
    inputs = [(name, fixtures.build(name)) for name in fixtures.FIXTURE_NAMES]
    inputs += [(f"ring{n}", ring_pa(n)) for n in range(2, 9)]
    rng = random.Random(61)
    pdas = [random_pda(rng, n, ("a", "b")) for n in (4, 6, 8)]
    inputs += [(f"pda{a.n_states}", a) for a in pdas]
    inputs += [(f"pda{a.n_states}-split", split_copy(a, rng)) for a in pdas]
    return inputs


ORACLE_INPUTS = _oracle_inputs()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ConstructionError) as exc:
        return type(exc), str(exc)


def test_oracle_inputs_reach_sixteen_states():
    assert max(a.n_states for _, a in ORACLE_INPUTS) == 16


@pytest.mark.parametrize("bound", [3, 8, 16])
@pytest.mark.parametrize("a", [a for _, a in ORACLE_INPUTS],
                         ids=[name for name, _ in ORACLE_INPUTS])
def test_determinize_matches_pairwise_oracle(a, bound):
    assert _outcome(determinize_to_pda, a, bound) == _outcome(oracle_determinize_to_pda, a, bound)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("a", [a for _, a in ORACLE_INPUTS],
                         ids=[name for name, _ in ORACLE_INPUTS])
def test_minimal_generators_match_pairwise_oracle(a, depth):
    assert (_outcome(minimal_residual_generators, a, depth)
            == _outcome(oracle_minimal_residual_generators, a, depth))


@pytest.fixture
def calls(monkeypatch):
    """Counts of equivalence-layer calls, direct or nested, by function name."""
    counts = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for module in ("stochlang.constructions", "stochlang.equivalence"):
        mod = importlib.import_module(module)
        for name in ("are_equivalent", "express_combination", "value_rows"):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return counts


@pytest.mark.parametrize("name", ["fig2_A", "fig5", "example1_p"])
def test_determinize_uses_one_closure_and_no_pairwise_check(calls, name):
    determinize_to_pda(fixtures.build(name), 16)
    assert calls == {"value_rows": 1}


@pytest.mark.parametrize("name", ["fig2_A", "fig5", "example1_p"])
def test_minimal_generators_use_one_closure_and_no_search(calls, name):
    minimal_residual_generators(fixtures.build(name), 3)
    assert calls == {"value_rows": 1}


@pytest.mark.parametrize("name", ["fig2_A", "fig5"])
def test_prefixial_runs_only_the_final_equivalence_check(calls, name):
    to_prefixial_pra(fixtures.build(name), {"q0": (), "q1": ("a",)})
    assert calls["are_equivalent"] == 1
    assert calls["express_combination"] == 0
