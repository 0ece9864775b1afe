import stochlang
from stochlang import linalg
from stochlang.linalg import Matrix


def test_every_exported_name_resolves_once():
    assert len(set(stochlang.__all__)) == len(stochlang.__all__)
    namespace = {}
    exec("from stochlang import *", namespace)
    for name in stochlang.__all__:
        assert namespace[name] is getattr(stochlang, name)


def test_helpers_without_a_library_caller_are_not_exported():
    # no library code calls them; tests/helpers.py keeps them for the tests
    assert "membership_in_span" not in stochlang.__all__
    for owner, name in [(stochlang, "membership_in_span"), (linalg, "membership_in_span"),
                        (Matrix, "diagonal"), (Matrix, "from_columns")]:
        assert not hasattr(owner, name), name
