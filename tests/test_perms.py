import itertools

import pytest

from bruhat_hypercubes.perms import (
    all_perms,
    apply_reflection,
    bruhat_leq,
    compose,
    descents,
    format_perm,
    identity,
    inverse,
    length,
    longest_element,
    parse_perm,
    reflection_between,
    reflection_length_delta,
    reflections,
    right_cycle,
    right_transposition,
    root_of,
)

from helpers import brute_length, reachability_leq


def test_parse_digits_and_brackets():
    assert parse_perm("21354") == (2, 1, 3, 5, 4)
    assert parse_perm("[2,1,3,5,4]") == (2, 1, 3, 5, 4)
    big = "[" + ",".join(str(i) for i in range(1, 12)) + "]"
    assert parse_perm(big) == tuple(range(1, 12))


@pytest.mark.parametrize(
    "bad", ["213541", "2135", "0123", "[1,1,2]", "abc", "[2,1", "[2,,1]", "[1,2,]", "[,1]"]
)
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_perm(bad)


def test_format_roundtrip():
    for w in all_perms(4):
        assert parse_perm(format_perm(w)) == w
    w = tuple(range(11, 0, -1))
    assert format_perm(w).startswith("[")
    assert parse_perm(format_perm(w)) == w


def test_compose_examples():
    w = (3, 1, 4, 2)
    assert compose(identity(4), w) == w
    assert compose((2, 1, 3, 4), (1, 2, 3, 4)) == (2, 1, 3, 4)
    assert compose((2, 3, 1), (3, 1, 2)) == (1, 2, 3)
    # direct evaluation oracle: result(k) = a(b(k))
    for a in all_perms(3):
        for b in all_perms(3):
            c = compose(a, b)
            assert all(c[k] == a[b[k] - 1] for k in range(3))


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((1, 2), (1, 2, 3))


def test_length_examples():
    assert length((1, 2, 3, 4)) == 0
    assert length((3, 2, 1)) == 3
    assert length((2, 1, 3, 5, 4)) == brute_length((2, 1, 3, 5, 4)) == 2


def test_descents_examples():
    assert descents(identity(5)) == set()
    assert descents((3, 2, 1)) == {(1, 2), (2, 3)}
    assert descents((2, 1, 3, 5, 4)) == {(1, 2), (4, 5)}


def test_root_of():
    assert root_of((1, 2), 2) == (1, -1)
    assert root_of((2, 5), 5) == (0, 1, 0, 0, -1)
    assert root_of((3, 4), 5) == (0, 0, 1, -1, 0)


def test_bruhat_leq_examples():
    for w in all_perms(4):
        assert bruhat_leq(identity(4), w)
    assert bruhat_leq((1, 3, 2, 4), (4, 2, 3, 1))
    assert not bruhat_leq((4, 2, 3, 1), (1, 3, 2, 4))
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_bruhat_leq_matches_graph_reachability():
    for n in (3, 4):
        oracle = reachability_leq(n)
        for u in all_perms(n):
            for v in all_perms(n):
                assert bruhat_leq(u, v) == oracle[(u, v)], (u, v)


def test_bruhat_partial_order_axioms_s4():
    perms = list(all_perms(4))
    leq = {(u, v): bruhat_leq(u, v) for u in perms for v in perms}
    for u in perms:
        assert leq[(u, u)]
    for u in perms:
        for v in perms:
            if leq[(u, v)] and leq[(v, u)]:
                assert u == v
    for u in perms:
        ups = [v for v in perms if leq[(u, v)]]
        for v in ups:
            for w in perms:
                if leq[(v, w)]:
                    assert leq[(u, w)], (u, v, w)


def test_reflection_parity_and_delta():
    # the facts the interval scan reads off positions: t = (i, j) lowers w
    # exactly when j sits left of i, t*w swaps the entries at those two
    # positions, and the length changes by an odd amount
    for n in (4, 5):
        for w in all_perms(n):
            where = inverse(w)
            for t in reflections(n):
                i, j = t
                tw = apply_reflection(t, w)
                delta = brute_length(tw) - brute_length(w)
                assert (delta < 0) == (where[j - 1] < where[i - 1]), (w, t)
                assert tw == right_transposition(w, where[i - 1], where[j - 1])
                assert delta % 2 == 1
                assert delta == reflection_length_delta(t, w)


def test_reflection_between_inverts_apply_reflection_s5():
    for w in all_perms(5):
        for t in reflections(5):
            assert reflection_between(w, apply_reflection(t, w)) == t, (w, t)
    with pytest.raises(ValueError):
        reflection_between((1, 2, 3), (2, 3, 1))  # a 3-cycle apart
    with pytest.raises(ValueError):
        reflection_between((1, 2, 3), (1, 2, 3))
    with pytest.raises(ValueError):
        reflection_between((2, 1, 3), (2, 1, 3, 4))


def test_length_complement_identity():
    for n in (3, 4, 5):
        w0 = longest_element(n)
        total = n * (n - 1) // 2
        for w in all_perms(n):
            assert length(w) + length(compose(w, w0)) == total


def test_inverse_and_right_cycle():
    for w in all_perms(4):
        assert compose(w, inverse(w)) == identity(4)
    # right multiplication acts on positions
    assert right_cycle((1, 3, 2), (1, 2, 3)) == (3, 2, 1)
    assert right_cycle((1, 2, 3), (1, 3)) == (3, 2, 1)
    w = (2, 1, 3, 5, 4)
    sigma = (1, 4, 5)
    moved = right_cycle(w, sigma)
    assert moved[0] == w[3] and moved[3] == w[4] and moved[4] == w[0]
