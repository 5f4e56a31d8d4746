import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_hypercubes import polynomials
from bruhat_hypercubes.errors import InvariantViolation
from bruhat_hypercubes.intervals import build_interval
from bruhat_hypercubes.perms import all_perms, identity, length
from bruhat_hypercubes.polynomials import (
    EQUAL,
    GREATER_EQUAL,
    INCOMPARABLE,
    LESS_EQUAL,
    compare_coefficientwise,
    format_qpoly,
    kl_poly,
    qp_add,
    qp_deg,
    qp_mirror,
    qp_mul,
    qp_normalize,
    qp_shift,
    r_poly,
    rtilde_from_r,
)
from bruhat_hypercubes.reflection_orders import rtilde_by_paths

from helpers import (
    comparable_pairs,
    draw_comparable_pair,
    oracle_kl,
    oracle_r,
    qp_eval,
    r_from_rtilde,
    r_with_choice,
    random_functional_order,
)


def test_qp_basics():
    assert qp_normalize([1, 0, 2, 0, 0]) == (1, 0, 2)
    assert qp_add((1,), (0, 1)) == (1, 1)
    assert qp_mul((-1, 1), (-1, 1)) == (1, -2, 1)
    assert qp_shift((1, 1), 2) == (0, 0, 1, 1)
    assert qp_deg(()) == -1
    assert qp_eval((1, -2, 1), 1) == 0
    assert qp_mirror((1, 1), 4) == (0, 0, 0, 1, 1)


def test_format_qpoly():
    assert format_qpoly(()) == "0"
    assert format_qpoly((1, 1, 3)) == "1 + q + 3q^2"
    assert format_qpoly((-1, 1)) == "-1 + q"
    assert format_qpoly((0, 1, 0, 1)) == "q + q^3"


def test_compare_coefficientwise():
    assert compare_coefficientwise((0, 1, 1), (0, 1, 1)) == EQUAL
    assert compare_coefficientwise((0, 2, 1), (0, 1, 1)) == GREATER_EQUAL
    assert compare_coefficientwise((0, 1, 1), (0, 2, 1)) == LESS_EQUAL
    assert compare_coefficientwise((0, 0, 1), (0, 1)) == INCOMPARABLE


def test_r_poly_base_cases():
    w = (2, 1, 4, 3)
    assert r_poly(w, w) == (1,)
    assert r_poly((2, 1, 3, 4), (1, 2, 4, 3)) == ()
    for u, v in comparable_pairs(4):
        if length(v) - length(u) == 1:
            assert r_poly(u, v) == (-1, 1)


def test_r_poly_against_path_oracle():
    for u, v in comparable_pairs(4):
        assert r_poly(u, v) == oracle_r(u, v), (u, v)


def test_r_poly_descent_choice_independence():
    first: dict = {}
    last: dict = {}
    for u, v in comparable_pairs(4):
        assert (
            r_with_choice(u, v, False, first)
            == r_with_choice(u, v, True, last)
            == r_poly(u, v)
        )


def test_r_poly_degree_and_value_at_one():
    for u, v in comparable_pairs(4):
        if u != v:
            r = r_poly(u, v)
            assert qp_deg(r) == length(v) - length(u)
            assert qp_eval(r, 1) == 0


def test_kl_poly_base_and_small_lengths():
    assert kl_poly((3, 1, 2, 4), (3, 1, 2, 4)) == (1,)
    assert kl_poly((2, 1, 3, 4), (1, 2, 4, 3)) == ()
    for u, v in comparable_pairs(4):
        if 0 < length(v) - length(u) <= 2:
            assert kl_poly(u, v) == (1,), (u, v)


def test_kl_poly_frozen_values():
    # derived with the exact-linear-algebra oracle over path-counted R's;
    # the hypercube interval has P = 1, matching its smooth lower-interval twin
    assert kl_poly((1, 3, 2, 4), (4, 2, 3, 1)) == (1,)
    assert oracle_kl((1, 3, 2, 4), (4, 2, 3, 1)) == (1,)
    assert kl_poly(identity(4), (4, 2, 3, 1)) == (1, 1)
    assert kl_poly(identity(4), (3, 4, 1, 2)) == (1, 1)
    nontrivial = {
        (u, v)
        for u, v in comparable_pairs(4)
        if kl_poly(u, v) not in ((), (1,))
    }
    assert nontrivial == {
        (identity(4), (3, 4, 1, 2)),
        (identity(4), (4, 2, 3, 1)),
        ((1, 2, 4, 3), (4, 2, 3, 1)),
        ((1, 3, 2, 4), (3, 4, 1, 2)),
        ((2, 1, 3, 4), (4, 2, 3, 1)),
        ((2, 1, 4, 3), (4, 2, 3, 1)),
    }


def test_kl_poly_against_linear_oracle_s4(monkeypatch):
    # every pair of S_4, from cold memos: the P memo is emptied before each
    # pair, so each kl_poly call fills its own table over [u, v], summing
    # P(a, v) per distinct R-tilde(x, a)
    monkeypatch.setattr(polynomials, "_P_MEMO", {})
    monkeypatch.setattr(polynomials, "_RT_MEMO", {})
    polynomials._r_of.cache_clear()
    cache: dict = {}
    for u, v in comparable_pairs(4):
        polynomials._P_MEMO.clear()
        assert kl_poly(u, v) == oracle_kl(u, v, cache), (u, v)


def test_defining_identity_exact_s4():
    for u, v in comparable_pairs(4):
        ell = length(v) - length(u)
        total = ()
        for a in build_interval(u, v).elements:
            total = qp_add(total, qp_mul(r_poly(u, a), kl_poly(a, v)))
        assert total == qp_mirror(kl_poly(u, v), ell), (u, v)
        if u != v:
            assert 2 * qp_deg(kl_poly(u, v)) <= ell - 1


def test_rtilde_examples():
    w = (2, 3, 1, 4)
    assert rtilde_from_r(w, w) == (1,)
    for u, v in comparable_pairs(3):
        if length(v) - length(u) == 1:
            assert rtilde_from_r(u, v) == (0, 1)
    assert rtilde_from_r((1, 2, 3), (3, 2, 1)) == (0, 1, 0, 1)
    with pytest.raises(ValueError, match="u <= v"):
        rtilde_from_r((2, 1, 3), (1, 2, 3))


def test_r_family_rejects_mixed_degrees():
    # ValueError, not an IndexError from the recurrence's positions
    for a, b in itertools.product(all_perms(3), all_perms(4)):
        for u, v in ((a, b), (b, a)):
            for fn in (rtilde_from_r, r_poly, kl_poly):
                with pytest.raises(ValueError):
                    fn(u, v)


def test_kl_memo_holds_no_zero_s4(monkeypatch):
    # P(u, v) = 0 off the order is decided by bruhat_leq and not memoized
    monkeypatch.setattr(polynomials, "_P_MEMO", {})
    pairs = set(comparable_pairs(4))
    for u, v in itertools.product(all_perms(4), repeat=2):
        assert (kl_poly(u, v) != ()) == ((u, v) in pairs), (u, v)
    memo = polynomials._P_MEMO
    assert all(memo.values())
    assert set(memo) <= pairs


def test_rtilde_memo_holds_the_comparable_pairs_only_s5(monkeypatch):
    # the recurrence walks comparable pairs only, so a cold memo filled by
    # every comparable pair of S_5 holds exactly those pairs, none of them
    # zero; incomparable pairs are decided before the memo and stay out
    monkeypatch.setattr(polynomials, "_RT_MEMO", {})
    pairs = comparable_pairs(5)
    for u, v in pairs:
        rtilde_from_r(u, v)
    memo = polynomials._RT_MEMO
    assert all(memo.values())
    assert set(memo) == set(pairs)
    for (u, v), rt in memo.items():
        assert r_from_rtilde(rt, length(v) - length(u)) == oracle_r(u, v), (u, v)
    incomparable = set(itertools.product(all_perms(5), repeat=2)) - set(pairs)
    assert len(incomparable) == 120**2 - len(pairs)
    for u, v in incomparable:
        assert r_poly(u, v) == ()
        with pytest.raises(ValueError):
            rtilde_from_r(u, v)
    assert set(memo) == set(pairs)


def test_rtilde_shape_s4():
    for u, v in comparable_pairs(4):
        rt = rtilde_from_r(u, v)
        ell = length(v) - length(u)
        assert qp_deg(rt) == ell
        assert rt[-1] == 1
        assert all(c >= 0 for c in rt)
        assert all(c == 0 for k, c in enumerate(rt) if (k - ell) % 2)


def test_substitution_identity_both_ways_s4():
    # r_poly reads R off R-tilde; it must equal R from its own descent
    # recurrence on every pair of S_4 and S_5 and on every ordered pair of S_4
    # (incomparable ones give 0), and R from path counting on all of S_4 and
    # every 3rd pair of S_5.  t^ell * rtilde(t - 1/t) = R(t^2) then holds
    # with R-tilde and R each from its own recurrence
    memo: dict = {}
    for n in (4, 5):
        for k, (u, v) in enumerate(comparable_pairs(n)):
            want = r_with_choice(u, v, False, memo)
            assert r_poly(u, v) == want, (u, v)
            if n == 4 or k % 3 == 0:
                assert oracle_r(u, v) == want, (u, v)
            ell = length(v) - length(u)
            assert r_from_rtilde(rtilde_from_r(u, v), ell) == want, (u, v)
    for u, v in itertools.product(all_perms(4), repeat=2):
        assert r_poly(u, v) == r_with_choice(u, v, False, memo), (u, v)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_rtilde_against_r_and_paths_s6_s7(data):
    u, v = draw_comparable_pair(data, 8)
    rt = rtilde_from_r(u, v)
    want = r_with_choice(u, v)
    assert r_poly(u, v) == want == oracle_r(u, v)
    assert r_from_rtilde(rt, length(v) - length(u)) == want
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    order = random_functional_order(len(u), rng)
    assert rtilde_by_paths(build_interval(u, v), order) == rt


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_kl_poly_against_linear_oracle_s6_s7(data):
    u, v = draw_comparable_pair(data, 5)
    assert kl_poly(u, v) == oracle_kl(u, v), (u, v)
