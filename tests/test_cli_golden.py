"""Byte-exact CLI output of the decision commands on every fixture.

``tests/data/cli_golden/`` holds, per fixture and command, the exact stdout
(``<fixture>.<case>.out``), the exit code (``exit_codes.json``) and the
stderr (``stderr.json``) of the CLI. The documents in its ``inputs/``
directory drive the error paths of the sum kernel (a divergent sum, a
divergent or zero prefix mass, a total mass other than 1, also as the
target of ``synth-pa``), whose
``error:`` lines are pinned the same way under ``<input>.<case>`` keys,
and the state sums of edge cases: no states, no letters, and two 8-state
signed automata, one with state sums other than 1 and one whose total
converges while a state sum diverges.
Larger inputs there pin the cone decisions beyond the fixtures: cone
reduction of a ring PA with two planted convex states and of a signed
automaton that keeps a field-only dependency, field and cone reduction of
split copies that halve their state count (8 to 4 states, and 16 to 8 on a
split copy of an 8-state ring PA), the field stall of an automaton with an
unreachable state, ``combine`` over four generators of which two share one
structure, and ``classify`` on the union-universality instance of three
mod-3 counters.
Others pin residual exploration: ``pda`` on an 8-state split copy of a
4-state deterministic PA and on a signed automaton of total mass 1 whose
residual masses take both signs and vanish on one edge (a construction
error), and ``minimal-gens`` and ``prefixial`` (witness words up to length
3) on that 4-state PA.
``synth-pa`` runs on the four state series of that PA, each split into 8
states, and on a convex mixture of two of them: with the PA as target, and
with the mixture as target and first generator, where the coefficients are
not unique and the output pins the point that the cone solve picks. Two
more ``synth-pa`` cases pin an infeasible family and the mass check of a
generator with no states.
``combine`` and ``synth-pa`` take a target and a list of generator
fixtures; their outputs are pinned under ``<target>.<case>`` keys.
Every case runs twice: with ``equivalence.MODULAR_MIN_DIM`` as committed,
and with it patched to 0, so that every backward closure and every forward
closure of a rank runs mod a prime, through the packed span, its
reduction, the reconstruction and the exact check (rank-deficient spans
included), and must print the same bytes. A third run forbids the
``Fraction`` matrix form: every decision reads the automata's integer
forms, so no case may call ``to_linear_representation`` or build a
``Matrix``.
Any change to these outputs is a change of public behaviour. To rewrite the files after a deliberate change,
run ``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from stochlang import Matrix, MultiplicityAutomaton, equivalence
from stochlang.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden"
INPUTS = GOLDEN / "inputs"
FIXTURES = sorted(p.stem for p in DATA.glob("*.json"))
CASES = {
    "pda8": ["pda", "--max-states", "8"],
    "pda16": ["pda", "--max-states", "16"],
    "mingens2": ["minimal-gens", "--depth", "2"],
    "mingens3": ["minimal-gens", "--depth", "3"],
    "prefixial": ["prefixial"],
    "classify": ["classify"],
    "rank": ["rank"],
    "sum": ["sum"],
    "sums": ["sums"],
    "residual_empty": ["residual", "@"],
    "reduce_field": ["reduce", "--mode", "field"],
    "reduce_cone": ["reduce", "--mode", "cone"],
}
# equivalence of each fixture with each fixture: the right-hand document
# is passed after the left one
CASES.update({f"equiv_{other}": ["equiv", str(DATA / f"{other}.json")]
              for other in FIXTURES})
# argument lists of the error-path cases, keyed <input>.<case>
ERROR_CASES = {
    "divergent.sum": ["sum", str(INPUTS / "divergent.json")],
    "divergent.sums": ["sums", str(INPUTS / "divergent.json")],
    "divergent.residual_empty": ["residual", str(INPUTS / "divergent.json"), "@"],
    "divergent.pda8": ["pda", str(INPUTS / "divergent.json"), "--max-states", "8"],
    "divergent.mingens2": ["minimal-gens", str(INPUTS / "divergent.json"), "--depth", "2"],
    "divergent.classify": ["classify", str(INPUTS / "divergent.json")],
    "mass_two.sum": ["sum", str(INPUTS / "mass_two.json")],
    "mass_two.residual_a": ["residual", str(INPUTS / "mass_two.json"), "a"],
    "mass_two.pda8": ["pda", str(INPUTS / "mass_two.json"), "--max-states", "8"],
    "mass_two.mingens2": ["minimal-gens", str(INPUTS / "mass_two.json"), "--depth", "2"],
    "mass_two.classify": ["classify", str(INPUTS / "mass_two.json")],
    "mass_two.synth_pa_p1": ["synth-pa", str(INPUTS / "mass_two.json"),
                             str(DATA / "example1_p1.json")],
    "prefix_divergent.sum": ["sum", str(INPUTS / "prefix_divergent.json")],
    "prefix_divergent.residual_a": ["residual", str(INPUTS / "prefix_divergent.json"), "a"],
    "prefix_divergent.residual_b": ["residual", str(INPUTS / "prefix_divergent.json"), "b"],
    "prefix_divergent.pda8": ["pda", str(INPUTS / "prefix_divergent.json"),
                              "--max-states", "8"],
    "fig2_A.residual_aa": ["residual", str(DATA / "fig2_A.json"), "aa"],
    "mass_two.sums": ["sums", str(INPUTS / "mass_two.json")],
    "prefix_divergent.sums": ["sums", str(INPUTS / "prefix_divergent.json")],
    "no_states.sums": ["sums", str(INPUTS / "no_states.json")],
    "no_letters.sums": ["sums", str(INPUTS / "no_letters.json")],
    "signed_sums.sums": ["sums", str(INPUTS / "signed_sums.json")],
    "state_divergent.sums": ["sums", str(INPUTS / "state_divergent.json")],
}


def _documents(*names):
    return [str(DATA / f"{name}.json") for name in names]


# argument lists of the cases over a target and generators, keyed
# <target>.<case>; the list p1 p2 p is dependent, so its field
# coefficients are the particular solution of the echelon form
COMBINATION_CASES = {
    "example1_p.combine_p1_p2": ["combine", *_documents(
        "example1_p", "example1_p1", "example1_p2")],
    "example1_p.combine_nonneg_p1_p2": ["combine", "--nonneg", *_documents(
        "example1_p", "example1_p1", "example1_p2")],
    "example1_p.combine_p1_p2_p": ["combine", *_documents(
        "example1_p", "example1_p1", "example1_p2", "example1_p")],
    "example1_p.combine_nonneg_p1_p2_p": ["combine", "--nonneg", *_documents(
        "example1_p", "example1_p1", "example1_p2", "example1_p")],
    "example1_p1.combine_nonneg_p_p2": ["combine", "--nonneg", *_documents(
        "example1_p1", "example1_p", "example1_p2")],
    "example1_p.synth_pa_p1_p2": ["synth-pa", *_documents(
        "example1_p", "example1_p1", "example1_p2")],
    "example1_p1.synth_pa_p": ["synth-pa", *_documents("example1_p1", "example1_p")],
}


# argument lists of the cases on the larger inputs, keyed <input>.<case>
GENERATORS = [str(INPUTS / f"{name}.json")
              for name in ("gen_shared_1", "gen_shared_2", "gen_3", "gen_4")]
# the four state series of pda4, each trimmed and split into 8 states
PDA4_GENERATORS = [str(INPUTS / f"pda4_gen_q{i}.json") for i in range(4)]
LARGER_CASES = {
    "ring_two_convex.reduce_cone": ["reduce", str(INPUTS / "ring_two_convex.json"),
                                    "--mode", "cone"],
    "signed_cone.reduce_cone": ["reduce", str(INPUTS / "signed_cone.json"), "--mode", "cone"],
    "signed_cone.reduce_field": ["reduce", str(INPUTS / "signed_cone.json"), "--mode", "field"],
    "pda4_split.reduce_field": ["reduce", str(INPUTS / "pda4_split.json"), "--mode", "field"],
    "pda4_split.reduce_cone": ["reduce", str(INPUTS / "pda4_split.json"), "--mode", "cone"],
    "split_ring8.reduce_field": ["reduce", str(INPUTS / "split_ring8.json"), "--mode", "field"],
    "split_ring8.reduce_cone": ["reduce", str(INPUTS / "split_ring8.json"), "--mode", "cone"],
    "untrimmed_pair.reduce_field": ["reduce", str(INPUTS / "untrimmed_pair.json"),
                                    "--mode", "field"],
    "mix_feasible.combine_nonneg_4": ["combine", "--nonneg", str(INPUTS / "mix_feasible.json"),
                                      *GENERATORS],
    "mix_infeasible.combine_nonneg_4": ["combine", "--nonneg",
                                        str(INPUTS / "mix_infeasible.json"), *GENERATORS],
    "mix_infeasible.combine_4": ["combine", str(INPUTS / "mix_infeasible.json"), *GENERATORS],
    "hardness_k3.classify": ["classify", str(INPUTS / "hardness_k3.json")],
    "pda4_split.pda16": ["pda", str(INPUTS / "pda4_split.json"), "--max-states", "16"],
    "signed_residuals.pda8": ["pda", str(INPUTS / "signed_residuals.json"),
                              "--max-states", "8"],
    "pda4.mingens3": ["minimal-gens", str(INPUTS / "pda4.json"), "--depth", "3"],
    "pda4.prefixial": ["prefixial", str(INPUTS / "pda4.json")],
    "pda4.synth_pa_q0_q3_mix": ["synth-pa", str(INPUTS / "pda4.json"), *PDA4_GENERATORS,
                                str(INPUTS / "pda4_gen_mix.json")],
    "pda4_gen_mix.synth_pa_mix_q0_q3": ["synth-pa", str(INPUTS / "pda4_gen_mix.json"),
                                        str(INPUTS / "pda4_gen_mix.json"), *PDA4_GENERATORS],
    "fig2_A.synth_pa_fig2_A": ["synth-pa", *_documents("fig2_A", "fig2_A")],
    "pda4.synth_pa_no_states": ["synth-pa", str(INPUTS / "pda4.json"),
                                str(INPUTS / "no_states.json")],
    "mass_two.synth_pa_no_states": ["synth-pa", str(INPUTS / "mass_two.json"),
                                    str(INPUTS / "no_states.json")],
}


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def fixture_argv(fixture, case):
    command, *options = CASES[case]
    return [command, str(DATA / f"{fixture}.json"), *options]


def all_argvs():
    """The argument list of every case, keyed as its golden files are."""
    argvs = {f"{fixture}.{case}": fixture_argv(fixture, case)
             for fixture in FIXTURES for case in sorted(CASES)}
    argvs.update(ERROR_CASES)
    argvs.update(COMBINATION_CASES)
    argvs.update(LARGER_CASES)
    return argvs


def check(key, argv):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    errors = json.loads((GOLDEN / "stderr.json").read_text())
    code, out, err = run(argv)
    assert code == codes[key]
    assert out == (GOLDEN / f"{key}.out").read_text()
    assert err == errors[key]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fixture", FIXTURES)
def test_output_is_unchanged(fixture, case):
    check(f"{fixture}.{case}", fixture_argv(fixture, case))


@pytest.mark.parametrize("key", sorted(ERROR_CASES))
def test_error_path_output_is_unchanged(key):
    check(key, ERROR_CASES[key])


@pytest.mark.parametrize("key", sorted(COMBINATION_CASES))
def test_combination_output_is_unchanged(key):
    check(key, COMBINATION_CASES[key])


@pytest.mark.parametrize("key", sorted(LARGER_CASES))
def test_larger_input_output_is_unchanged(key):
    check(key, LARGER_CASES[key])


@pytest.mark.parametrize("key", sorted(all_argvs()))
def test_output_is_unchanged_with_every_closure_modular(key, monkeypatch):
    monkeypatch.setattr(equivalence, "MODULAR_MIN_DIM", 0)
    check(key, all_argvs()[key])


@pytest.mark.parametrize("key", sorted(all_argvs()))
def test_no_case_reads_the_fraction_matrix_form(key, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a decision built the Fraction matrix form")

    monkeypatch.setattr(MultiplicityAutomaton, "to_linear_representation", forbidden)
    monkeypatch.setattr(Matrix, "__init__", forbidden)
    monkeypatch.setattr(Matrix, "from_entries", forbidden)
    check(key, all_argvs()[key])


# the decisions that read only integer forms; equiv over two alphabets
# included, whose automata with_alphabet extends from their weight pairs
INTEGER_FORM_COMMANDS = {"sum", "sums", "equiv", "rank", "combine", "minimal-gens"}


@pytest.mark.parametrize("key", sorted(key for key, argv in all_argvs().items()
                                       if argv[0] in INTEGER_FORM_COMMANDS))
def test_integer_form_cases_build_no_fraction_weight_maps(key, monkeypatch):
    def forbidden(self):
        raise AssertionError("a decision built the Fraction weight maps")

    monkeypatch.setattr(MultiplicityAutomaton, "_fraction_maps", forbidden)
    check(key, all_argvs()[key])


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes, errors = {}, {}
    for key, argv in all_argvs().items():
        codes[key], out, errors[key] = run(argv)
        (GOLDEN / f"{key}.out").write_text(out)
    for name, table in (("exit_codes", codes), ("stderr", errors)):
        (GOLDEN / f"{name}.json").write_text(
            json.dumps(table, indent=2, sort_keys=True) + "\n")
