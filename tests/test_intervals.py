import itertools
import json
import random

import networkx as nx
import pytest

from bruhat_hypercubes import intervals
from bruhat_hypercubes.errors import EmptyIntervalError
from bruhat_hypercubes.intervals import (
    atoms,
    build_interval,
    interval_to_json,
    poset_isomorphic,
)
from bruhat_hypercubes.perms import (
    all_perms,
    apply_reflection,
    bruhat_leq,
    identity,
    length,
    longest_element,
    reflections,
    root_of,
)

from helpers import (
    bruhat_edges,
    brute_length,
    comparable_pairs,
    interval_from_json,
    reachability_leq,
)


def test_single_element_interval():
    iv = build_interval((2, 1, 3), (2, 1, 3))
    assert iv.size == 1
    assert iv.hasse_edges == () and bruhat_edges(iv) == ()
    assert atoms(iv) == ()


def test_empty_interval_error():
    with pytest.raises(EmptyIntervalError):
        build_interval((2, 1, 3), (1, 2, 3))


def test_hypercube_interval_shape():
    iv = build_interval((1, 3, 2, 4), (4, 2, 3, 1))
    assert iv.size == 16
    assert len(iv.hasse_edges) == 32
    assert len(atoms(iv)) == 4


def test_whole_s3_interval():
    iv = build_interval(identity(3), longest_element(3))
    assert iv.size == 6
    got = {(a, t) for a, t, _ in atoms(iv)}
    assert got == {((2, 1, 3), (1, 2)), ((1, 3, 2), (2, 3))}
    for a, t, root in atoms(iv):
        assert root == root_of(t, 3)


def test_interval_contents_and_edges_s4():
    # membership, rank grading, edge law, and cover containment
    for u, v in comparable_pairs(3) + comparable_pairs(4)[:80]:
        iv = build_interval(u, v)
        base = length(u)
        assert iv.elements[0] == u and iv.elements[-1] == v
        for x in iv.elements:
            assert bruhat_leq(u, x) and bruhat_leq(x, v)
        for i, x in enumerate(iv.elements):
            assert iv.rank[i] == length(x) - base
        hasse = set(iv.hasse_edges)
        for i, j, t in bruhat_edges(iv):
            assert iv.elements[j] == apply_reflection(t, iv.elements[i])
            assert iv.rank[i] < iv.rank[j]
            if iv.rank[j] == iv.rank[i] + 1:
                assert (i, j) in hasse
        for i, j in hasse:
            assert iv.rank[j] == iv.rank[i] + 1


def test_interval_is_complete_against_brute_force_order():
    # the one downward scan must find every element, in (length, one-line)
    # order with its rank, and every Bruhat edge: all of S_4 and every 25th
    # pair of S_5, against the order rebuilt from scratch as the transitive
    # closure of the length-raising edges
    for n, pairs in ((4, comparable_pairs(4)), (5, comparable_pairs(5)[::25])):
        leq = reachability_leq(n)
        group = list(all_perms(n))
        for u, v in pairs:
            iv = build_interval(u, v)
            members = {x for x in group if leq[(u, x)] and leq[(x, v)]}
            order = sorted(members, key=lambda x: (brute_length(x), x))
            assert iv.elements == tuple(order), (u, v)
            assert iv.rank == tuple(brute_length(x) - brute_length(u) for x in order)
            want = sorted(
                (iv.index[x], t, iv.index[y])
                for x in members
                for t in reflections(n)
                for y in [apply_reflection(t, x)]
                if y in members and brute_length(y) > brute_length(x)
            )
            assert bruhat_edges(iv) == tuple((i, j, t) for i, t, j in want), (u, v)


def test_comparable_pairs_are_read_off_the_group_interval():
    # the down-masks of [e, w0] against bruhat_leq over all pairs
    for n in range(2, 6):
        assert tuple(intervals.comparable_pairs(n)) == comparable_pairs(n), n
    assert len(tuple(intervals.comparable_pairs(6))) == 98407


def test_unique_min_max_and_chain_connectivity():
    for u, v in comparable_pairs(4)[::7]:
        iv = build_interval(u, v)
        assert iv.rank.count(0) == 1
        assert iv.rank.count(iv.length) == 1
        ups = [0] * iv.size
        downs = [0] * iv.size
        for i, j in iv.hasse_edges:
            ups[i] += 1
            downs[j] += 1
        for i in range(iv.size):
            if iv.rank[i] < iv.length:
                assert ups[i] > 0
            if iv.rank[i] > 0:
                assert downs[i] > 0


def test_atoms_nonempty_below_top():
    for u, v in comparable_pairs(4)[::5]:
        if u != v:
            iv = build_interval(u, v)
            assert len(atoms(iv)) >= 1


def test_rank_two_subintervals_are_diamonds():
    iv = build_interval(identity(4), longest_element(4))
    for i in range(iv.size):
        for j in range(iv.size):
            if iv.leq(i, j) and iv.rank[j] - iv.rank[i] == 2:
                middle = [
                    k
                    for k in range(iv.size)
                    if k != i and k != j and iv.leq(i, k) and iv.leq(k, j)
                ]
                assert len(middle) == 2, (iv.elements[i], iv.elements[j])


def test_poset_isomorphic_examples():
    p = build_interval((1, 3, 2, 4), (4, 2, 3, 1))
    q = build_interval(tuple(range(1, 9)), (2, 1, 4, 3, 6, 5, 8, 7))
    mapping = poset_isomorphic(p.poset, q.poset)
    assert mapping is not None
    hasse_q = set(q.poset.hasse)
    assert {(mapping[a], mapping[b]) for a, b in p.poset.hasse} == hasse_q

    a = build_interval((2, 1, 3), (2, 1, 3))
    b = build_interval((1, 3, 2), (1, 3, 2))
    assert poset_isomorphic(a.poset, b.poset) == (0,)

    small = build_interval(identity(3), longest_element(3))
    assert poset_isomorphic(small.poset, p.poset) is None


def _hasse_digraph(iv):
    g = nx.DiGraph()
    g.add_nodes_from(range(iv.size))
    g.add_edges_from(iv.hasse_edges)
    return g


def test_poset_isomorphic_against_networkx():
    # every equal-size pair of S_4 intervals, then every pair with equal size
    # and Hasse edge count among 300 seeded S_5 intervals; a poset
    # isomorphism is a directed isomorphism of the Hasse diagrams
    pairs = [
        (p, q)
        for p, q in itertools.combinations(
            [build_interval(u, v) for u, v in comparable_pairs(4)], 2
        )
        if p.size == q.size
    ]
    rng = random.Random(41)
    groups: dict = {}
    for u, v in rng.sample(comparable_pairs(5), 300):
        iv = build_interval(u, v)
        groups.setdefault((iv.size, len(iv.hasse_edges)), []).append(iv)
    pairs += [pq for ivs in groups.values() for pq in itertools.combinations(ivs, 2)]
    found = {True: 0, False: 0}
    for p, q in pairs:
        want = nx.is_isomorphic(_hasse_digraph(p), _hasse_digraph(q))
        got = poset_isomorphic(p.poset, q.poset) is not None
        assert got == want, (p.bottom, p.top, q.bottom, q.top)
        found[want] += 1
    assert found[True] > 1000 and found[False] > 50, found


def test_isomorphism_carries_unlabelled_bruhat_graph_s4():
    # the unlabelled directed Bruhat graph is determined by the poset, so
    # any poset isomorphism must carry Bruhat edges to Bruhat edges
    groups: dict = {}
    from bruhat_hypercubes.intervals import iso_signature

    for u, v in comparable_pairs(4):
        iv = build_interval(u, v)
        groups.setdefault(iso_signature(iv.poset), []).append(iv)
    checked = 0
    for members in groups.values():
        rep = members[0]
        rep_edges = {(i, j) for i, j, _ in bruhat_edges(rep)}
        for other in members[1:]:
            mapping = poset_isomorphic(rep.poset, other.poset)
            assert mapping is not None
            other_edges = {(i, j) for i, j, _ in bruhat_edges(other)}
            assert {(mapping[i], mapping[j]) for i, j in rep_edges} == other_edges
            checked += 1
    assert checked > 50


def test_interval_json_roundtrip():
    iv = build_interval((1, 2, 3), (3, 2, 1))
    payload = interval_to_json(iv)
    text = json.dumps(payload, sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text
    rebuilt = interval_from_json(json.loads(text))
    assert rebuilt.elements == iv.elements
    assert bruhat_edges(rebuilt) == bruhat_edges(iv)
    with pytest.raises(ValueError):
        interval_from_json({**payload, "elements": payload["elements"][::-1]})
