"""Unit tests for actions and action sets."""

import pytest

from repro.automata.actions import (
    ANY,
    NU,
    Action,
    ActionPattern,
    EmptyActionSet,
    FiniteActionSet,
    PatternActionSet,
    PredicateActionSet,
    UnionActionSet,
    action_set,
)


class TestAction:
    def test_equality_is_structural(self):
        assert Action("READ", (1,)) == Action("READ", (1,))
        assert Action("READ", (1,)) != Action("READ", (2,))
        assert Action("READ", (1,)) != Action("WRITE", (1,))

    def test_hashable(self):
        assert len({Action("A", (1,)), Action("A", (1,)), Action("B", ())}) == 2

    def test_node_is_first_int_param(self):
        assert Action("READ", (3,)).node == 3
        assert Action("SENDMSG", (0, 1, "m")).node == 0

    def test_node_none_without_params(self):
        assert Action("GLOBAL").node is None

    def test_node_none_for_non_int_first_param(self):
        assert Action("X", ("s",)).node is None

    def test_repr_contains_name_and_params(self):
        text = repr(Action("SENDMSG", (0, 1, "m")))
        assert "SENDMSG" in text and "m" in text

    @pytest.mark.parametrize("action,text", [
        (Action("GLOBAL"), "GLOBAL()"),
        (Action("READ", (3,)), "READ_3()"),
        (Action("X", ("it's",)), 'X_"it\'s"()'),
        (Action("SENDMSG", (0, 1, "m")), "SENDMSG_0(1, 'm')"),
        (Action("ESENDMSG", (2, 0, ("upd", 4, ("w", 1.5)), 0.25)),
         "ESENDMSG_2(0, ('upd', 4, ('w', 1.5)), 0.25)"),
        (Action("Y", ((1, 2), 'say "hi"', "don't", None, [1])),
         "Y_(1, 2)('say \"hi\"', \"don't\", None, [1])"),
    ], ids=["zero", "one", "quoted-head", "many", "nested", "quotes"])
    def test_repr_is_pinned(self, action, text):
        # the recorder's trace hashes and the scheduler's sort keys read it
        assert repr(action) == str(action) == text


class TestTimePassage:
    def test_nu_is_singleton(self):
        from repro.automata.actions import _TimePassage

        assert _TimePassage() is NU

    def test_nu_not_in_any_action_set(self):
        assert NU not in FiniteActionSet([Action("A")])
        assert NU not in PatternActionSet([ActionPattern("A")])

    def test_nu_repr(self):
        assert repr(NU) == "nu"


class TestFiniteActionSet:
    def test_membership(self):
        s = FiniteActionSet([Action("A", (1,)), Action("B")])
        assert Action("A", (1,)) in s
        assert Action("A", (2,)) not in s

    def test_empty_hint(self):
        assert FiniteActionSet([]).is_empty_hint()
        assert not FiniteActionSet([Action("A")]).is_empty_hint()


class TestActionPattern:
    def test_name_only_matches_any_params(self):
        p = ActionPattern("SENDMSG")
        assert p.matches(Action("SENDMSG", (0, 1, "x")))
        assert p.matches(Action("SENDMSG"))
        assert not p.matches(Action("RECVMSG", (0, 1, "x")))

    def test_prefix_constrains_leading_params(self):
        p = ActionPattern("SENDMSG", (0, 1))
        assert p.matches(Action("SENDMSG", (0, 1, "x")))
        assert not p.matches(Action("SENDMSG", (1, 0, "x")))

    def test_prefix_longer_than_params_never_matches(self):
        p = ActionPattern("SENDMSG", (0, 1))
        assert not p.matches(Action("SENDMSG", (0,)))

    def test_wildcard_position(self):
        p = ActionPattern("RECVMSG", (ANY, 2))
        assert p.matches(Action("RECVMSG", (0, 2, "x")))
        assert p.matches(Action("RECVMSG", (9, 2)))
        assert not p.matches(Action("RECVMSG", (0, 3, "x")))


class TestUnionAndPredicate:
    def test_union_flattens(self):
        u = UnionActionSet(
            [
                UnionActionSet([FiniteActionSet([Action("A")])]),
                EmptyActionSet(),
                PatternActionSet([ActionPattern("B")]),
            ]
        )
        assert len(u.members) == 2
        assert Action("A") in u
        assert Action("B", (1,)) in u
        assert Action("C") not in u

    def test_or_operator(self):
        s = FiniteActionSet([Action("A")]) | PatternActionSet([ActionPattern("B")])
        assert Action("A") in s and Action("B") in s

    def test_predicate_set(self):
        s = PredicateActionSet(lambda a: a.name.startswith("X"), "starts-with-X")
        assert Action("XY") in s
        assert Action("YX") not in s


class TestActionSetConstructor:
    def test_mixed_specs(self):
        s = action_set("READ", ("SENDMSG", (0,)), Action("SPECIAL", (9,)))
        assert Action("READ", (5,)) in s
        assert Action("SENDMSG", (0, 1, "m")) in s
        assert Action("SENDMSG", (1, 0, "m")) not in s
        assert Action("SPECIAL", (9,)) in s

    def test_empty(self):
        assert action_set().is_empty_hint()

    def test_rejects_garbage(self):
        with pytest.raises(TypeError):
            action_set(42)
