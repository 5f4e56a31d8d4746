import itertools
import random

import pytest

from bruhat_hypercubes.hypercubes import enumerate_diamonds, standard_hcd
from bruhat_hypercubes.intervals import build_interval
from bruhat_hypercubes.perms import (
    all_perms,
    bruhat_leq,
    identity,
    length,
    longest_element,
    reflections,
    root_of,
)
from bruhat_hypercubes.polynomials import rtilde_from_r
from bruhat_hypercubes.reflection_orders import (
    check_E_properties,
    construct_order,
    lex_order,
    make_order,
    reverse_order,
    rtilde_by_paths,
    standard_E_order,
    validate_reflection_order,
)

from helpers import (
    bruhat_edges,
    comparable_pairs,
    naive_increasing_paths,
    random_functional_order,
)


def all_valid_orders(n):
    return [
        seq
        for seq in itertools.permutations(reflections(n))
        if validate_reflection_order(seq)
    ]


def test_validate_examples():
    assert validate_reflection_order([(1, 2), (1, 3), (2, 3)])
    assert not validate_reflection_order([(1, 2), (2, 3), (1, 3)])
    assert validate_reflection_order([(1, 2)])
    with pytest.raises(ValueError):
        validate_reflection_order([(1, 2), (1, 3), (1, 3)])
    with pytest.raises(ValueError):
        validate_reflection_order([(1, 2), (1, 3)])


def test_s3_has_exactly_two_valid_orders():
    got = all_valid_orders(3)
    assert got == [((1, 2), (1, 3), (2, 3)), ((2, 3), (1, 3), (1, 2))]


def test_lex_order_valid_and_reversal():
    for n in (2, 3, 4, 5, 6):
        order = lex_order(n)
        assert validate_reflection_order(order.ordered)
        assert validate_reflection_order(reverse_order(order).ordered)


def test_construct_order_examples():
    order = construct_order(3, [(1, 2), (2, 3)], 1)
    assert order.ordered[0] == (1, 2)
    assert validate_reflection_order(order.ordered)

    assert construct_order(2, [(1, 2)], 1).ordered == ((1, 2),)

    assert standard_E_order(3, 1).ordered == ((2, 3), (1, 3), (1, 2))

    with pytest.raises(ValueError):
        construct_order(3, [(1, 2), (2, 3)], 3)
    with pytest.raises(ValueError):
        # dependent roots: (1,3) = (1,2) + (2,3)
        construct_order(3, [(1, 2), (2, 3), (1, 3)], 1)


def _span_coords(n, ts, t):
    # express root(t) in the basis of root(ts), None if outside the span
    from fractions import Fraction

    cols = [root_of(s, n) for s in ts]
    target = root_of(t, n)
    rows = [[Fraction(c[i]) for c in cols] + [Fraction(target[i])] for i in range(n)]
    r = 0
    pivots = []
    for c in range(len(cols)):
        piv = next((k for k in range(r, n) if rows[k][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for k in range(n):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] != 0 for row in rows[r:]):
        return None
    out = [Fraction(0)] * len(cols)
    for ridx, c in enumerate(pivots):
        out[c] = rows[ridx][-1]
    return out


@pytest.mark.parametrize(
    "n,ts,i",
    [
        (3, [(1, 2), (2, 3)], 1),
        (4, [(1, 2), (3, 4)], 1),
        (4, [(2, 3), (1, 2), (3, 4)], 2),
        (5, [(2, 3), (3, 4), (4, 5), (1, 2)], 3),
        (5, [(1, 4), (2, 3)], 1),
    ],
)
def test_construct_order_contract(n, ts, i):
    order = construct_order(n, ts, i)
    pos = order.position
    assert validate_reflection_order(order.ordered)
    # (i): prescribed chain
    assert all(pos[ts[j]] < pos[ts[j + 1]] for j in range(len(ts) - 1))
    # (ii): span of the first i roots is an interval under the order
    span = [t for t in order.ordered if _span_coords(n, ts[:i], t) is not None]
    positions = sorted(pos[t] for t in span)
    assert positions == list(range(positions[0], positions[0] + len(positions)))
    # (iii): reflections of the big span with non-negative coordinates on the
    # tail roots come after every reflection of the small span
    for t2 in order.ordered:
        coords = _span_coords(n, ts, t2)
        if coords is None or all(c == 0 for c in coords[i:]):
            continue
        if all(c >= 0 for c in coords[i:]):
            assert pos[t2] > max(positions)


def test_paths_trivial_cases():
    iv = build_interval((2, 1, 3), (2, 1, 3))
    assert rtilde_by_paths(iv, lex_order(3)) == (1,)
    iv = build_interval((1, 2, 3), (2, 1, 3))
    assert rtilde_by_paths(iv, lex_order(3)) == (0, 1)


def test_paths_match_rtilde_all_s3_orders():
    for u, v in comparable_pairs(3):
        iv = build_interval(u, v)
        want = rtilde_from_r(u, v)
        for seq in all_valid_orders(3):
            assert rtilde_by_paths(iv, make_order(seq)) == want


def test_paths_match_rtilde_sampled_s4_orders():
    rng = random.Random(7)
    orders = [random_functional_order(4, rng) for _ in range(4)]
    for u, v in comparable_pairs(4)[::3]:
        iv = build_interval(u, v)
        want = rtilde_from_r(u, v)
        for order in orders:
            assert rtilde_by_paths(iv, order) == want, (u, v)


def test_memoized_paths_equal_naive_enumeration():
    rng = random.Random(11)
    orders = [lex_order(4), reverse_order(lex_order(4)), random_functional_order(4, rng)]
    for u, v in comparable_pairs(4)[::9]:
        iv = build_interval(u, v)
        for order in orders:
            assert rtilde_by_paths(iv, order) == naive_increasing_paths(iv, order)


def test_check_E_vacuous_on_singleton_ideal():
    iv = build_interval((1, 2, 3), (3, 2, 1))
    for seq in all_valid_orders(3):
        flags = check_E_properties(iv, 1, make_order(seq))
        assert flags.e1 and flags.e2 and flags.e


def test_check_E_requires_lower_set():
    iv = build_interval((1, 2, 3), (3, 2, 1))
    top_only = 1 << (iv.size - 1)
    with pytest.raises(ValueError):
        check_E_properties(iv, top_only, lex_order(3))


def test_check_E_properties_against_edge_scan_s4():
    # E1, E2 and E read straight off the labelled edge list, for every
    # lower interval [u, z] of every third S_4 interval under three orders
    rng = random.Random(5)
    orders = [lex_order(4), reverse_order(lex_order(4)), random_functional_order(4, rng)]
    e2_values = set()
    for u, v in comparable_pairs(4)[::3]:
        iv = build_interval(u, v)
        edges = bruhat_edges(iv)
        for z in range(iv.size):
            ideal = iv.down_mask[z]
            for order in orders:
                pos = order.position
                lead: dict[int, int] = {}  # x in I -> smallest label leaving I
                for i, j, t in edges:
                    if ideal >> i & 1 and not ideal >> j & 1:
                        lead[i] = min(lead.get(i, pos[t]), pos[t])
                internal = [(i, j, pos[t]) for i, j, t in edges if ideal >> j & 1]
                e1 = all(p < lead[i] for i, _, p in internal if i in lead)
                e2 = all(p < lead[j] for _, j, p in internal if j in lead)
                e = not lead or all(p < min(lead.values()) for _, _, p in internal)
                flags = check_E_properties(iv, ideal, order)
                assert (flags.e1, flags.e2, flags.e) == (e1, e2, e), (u, v, z)
                e2_values.add(e2)
    assert e2_values == {True, False}


def test_standard_order_satisfies_E_on_standard_ideal():
    from bruhat_hypercubes.hypercubes import first_disagreement

    for n in (3, 4):
        for u, v in comparable_pairs(n):
            if u == v:
                continue
            iv = build_interval(u, v)
            hcd = standard_hcd(iv)
            order = standard_E_order(n, first_disagreement(u, v))
            flags = check_E_properties(iv, hcd.ideal, order)
            assert flags.e, (u, v)


def test_reversed_order_breaks_E1_somewhere_in_s3():
    iv = build_interval((1, 2, 3), (3, 2, 1))
    rev = reverse_order(lex_order(3))
    # the two-atom lower ideal {123, 132, 213}
    ideal = 0b111
    flags = check_E_properties(iv, ideal, rev)
    assert not flags.e1


def test_diamond_flip_order_law_s4():
    # in any diamond, once the two paths are named so the bottom labels
    # satisfy t1 < t1', the zigzag holds; in particular the flip of an
    # increasing pair is decreasing
    rng = random.Random(23)
    orders = [lex_order(4), reverse_order(lex_order(4))] + [
        random_functional_order(4, rng) for _ in range(3)
    ]
    iv = build_interval(identity(4), longest_element(4))
    labels = {(i, j): t for i, j, t in bruhat_edges(iv)}
    diamonds = enumerate_diamonds(iv)
    assert diamonds
    for x1, x2, x3, x4 in diamonds:
        for order in orders:
            pos = order.position
            s1, s2 = pos[labels[(x1, x2)]], pos[labels[(x2, x4)]]
            r1, r2 = pos[labels[(x1, x3)]], pos[labels[(x3, x4)]]
            if r1 < s1:
                s1, s2, r1, r2 = r1, r2, s1, s2
            assert s1 < s2 and s2 > r2 and r2 < r1 and r1 > s1
            if s1 < s2:
                assert r1 > r2


def test_paths_match_rtilde_all_valid_s4_orders():
    # every valid order of the 6 reflections of S_4 (there are 16) gives the
    # same path count as the substitution route, on every S_4 interval
    orders = [make_order(seq) for seq in all_valid_orders(4)]
    assert len(orders) == 16
    for u, v in comparable_pairs(4):
        iv = build_interval(u, v)
        want = rtilde_from_r(u, v)
        for order in orders:
            assert rtilde_by_paths(iv, order) == want, (u, v)


def test_paths_match_rtilde_sampled_s5():
    rng = random.Random(41)
    orders = [random_functional_order(5, rng) for _ in range(3)]
    for u, v in comparable_pairs(5)[::50]:
        iv = build_interval(u, v)
        want = rtilde_from_r(u, v)
        for order in orders:
            assert rtilde_by_paths(iv, order) == want, (u, v)


def test_paths_rejects_mismatched_degree():
    iv = build_interval((1, 2, 3), (3, 2, 1))
    with pytest.raises(ValueError):
        rtilde_by_paths(iv, lex_order(4))
