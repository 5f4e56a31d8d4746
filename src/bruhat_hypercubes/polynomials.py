"""
Exact integer polynomial arithmetic and the R / P / R-tilde families.

A polynomial in q is a tuple of int coefficients, index k holding the
coefficient of q^k, with no trailing zeros; the zero polynomial is ().
Python ints make overflow impossible by construction.

R-tilde comes from one descent recurrence and R is read off it by a
substitution; P comes from one table over the interval [u, v].  R-tilde and
P are memoized module-wide, keyed by one-line tuples, so repeated interval
analyses share work.  All functions are pure; under CPython the dict caches
are safe to share across threads, and results are deterministic either way.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .errors import InvariantViolation
from .intervals import bits, build_interval
from .perms import Perm, bruhat_leq, descents, right_transposition

QPoly = tuple[int, ...]

ZERO: QPoly = ()
ONE: QPoly = (1,)
Q: QPoly = (0, 1)

LESS_EQUAL = "less-equal"
GREATER_EQUAL = "greater-equal"
EQUAL = "equal"
INCOMPARABLE = "incomparable"


def qp_normalize(coeffs: Sequence[int]) -> QPoly:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return tuple(coeffs[:end])


def qp_add(a: QPoly, b: QPoly) -> QPoly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, c in enumerate(b):
        out[k] += c
    return qp_normalize(out)


def qp_mul(a: QPoly, b: QPoly) -> QPoly:
    if not a or not b:
        return ZERO
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return qp_normalize(out)


def qp_shift(a: QPoly, k: int) -> QPoly:
    """Multiply by q^k."""
    return (0,) * k + a if a else ZERO


def qp_deg(a: QPoly) -> int:
    """Degree, with the zero polynomial assigned -1."""
    return len(a) - 1


def qp_mirror(a: QPoly, ell: int) -> QPoly:
    """q^ell * a(1/q); requires deg(a) <= ell."""
    if qp_deg(a) > ell:
        raise ValueError("degree exceeds the mirror exponent")
    out = [0] * (ell + 1)
    for k, c in enumerate(a):
        out[ell - k] = c
    return qp_normalize(out)


def format_qpoly(a: QPoly) -> str:
    """Render ascending, e.g. "1 + q + 3q^2"; the zero polynomial is "0"."""
    if not a:
        return "0"
    parts: list[str] = []
    for k, c in enumerate(a):
        if c == 0:
            continue
        if k == 0:
            body = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else str(abs(c))
            body = f"{mag}q" if k == 1 else f"{mag}q^{k}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


def compare_coefficientwise(a: QPoly, b: QPoly) -> str:
    """The tightest of equal / less-equal / greater-equal / incomparable,
    comparing coefficientwise after zero padding."""
    width = max(len(a), len(b))
    pa = a + (0,) * (width - len(a))
    pb = b + (0,) * (width - len(b))
    le = all(x <= y for x, y in zip(pa, pb))
    ge = all(x >= y for x, y in zip(pa, pb))
    if le and ge:
        return EQUAL
    if le:
        return LESS_EQUAL
    if ge:
        return GREATER_EQUAL
    return INCOMPARABLE


# ---------------------------------------------------------------------------
# the R / P / R-tilde families

_P_MEMO: dict[tuple[Perm, Perm], QPoly] = {}
_RT_MEMO: dict[tuple[Perm, Perm], QPoly] = {}


def r_poly(u: Perm, v: Perm) -> QPoly:
    """The R-polynomial, read off R-tilde(u, v) = sum of c_k q^k
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Sec. 5.3): from
    R(t^2) = t^l R-tilde(t - 1/t), R(u, v) = sum of c_k q^((l - k)/2) (q - 1)^k,
    where l = l(u, v) is the degree of R-tilde and c_k = 0 unless k = l mod 2.
    R(u, u) = 1, and R(u, v) = 0 when u is not <= v.
    """
    return _r_of(rtilde_from_r(u, v)) if bruhat_leq(u, v) else ZERO


@cache
def _r_of(rt: QPoly) -> QPoly:
    """R read off R-tilde, as r_poly describes; each distinct R-tilde is
    read once."""
    ell = len(rt) - 1
    out = [0] * (ell + 1)
    for k, c in enumerate(rt):
        if c:
            shift = (ell - k) // 2
            for m, b in enumerate(_q_minus_one_power(k)):
                out[shift + m] += c * b
    return qp_normalize(out)


@cache
def _q_minus_one_power(k: int) -> QPoly:
    """(q - 1)^k, each power built once from the one below it."""
    return ONE if k == 0 else qp_mul(_q_minus_one_power(k - 1), (-1, 1))


def kl_poly(u: Perm, v: Perm) -> QPoly:
    """The Kazhdan-Lusztig polynomial P(u, v).

    Determined by P(v, v) = 1, deg P <= (l(x,v) - 1)/2 for x < v, and the
    inversion identity  q^l P(1/q) = sum over a in [x, v] of R(x, a) P(a, v)
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Sec. 5.1).  One table
    over the interval [u, v] gives P(x, v) for every x in it, top down: the
    unknown P(x, v) is read off the high coefficients of the partial sum over
    a in [x, v], a != x (the two sides cannot overlap in degree), then the
    full identity is re-verified exactly.  The partial sum adds up P(a, v)
    per distinct R-tilde(x, a) first, and multiplies each total once by its
    R.  Every nonzero entry is memoized.
    """
    key = (u, v)
    hit = _P_MEMO.get(key)
    if hit is not None:
        return hit
    if not bruhat_leq(u, v):
        return ZERO
    iv = build_interval(u, v)
    _P_MEMO[(v, v)] = ONE
    table: list[QPoly] = [ONE] * iv.size
    for i in range(iv.size - 2, -1, -1):
        x = iv.elements[i]
        hit = _P_MEMO.get((x, v))
        if hit is not None:
            table[i] = hit
            continue
        by_rt: dict[QPoly, QPoly] = {}
        for a in bits(iv.up_mask[i] ^ (1 << i)):
            rt = rtilde_from_r(x, iv.elements[a])
            by_rt[rt] = qp_add(by_rt.get(rt, ZERO), table[a])
        partial = ZERO
        for rt, total in by_rt.items():
            partial = qp_add(partial, qp_mul(_r_of(rt), total))
        ell = iv.length - iv.rank[i]
        bound = (ell - 1) // 2
        res = qp_normalize(
            [partial[ell - j] if ell - j < len(partial) else 0 for j in range(bound + 1)]
        )
        if qp_mirror(res, ell) != qp_add(res, partial):
            raise InvariantViolation(
                f"P extraction failed the defining identity at ({x}, {v})"
            )
        table[i] = _P_MEMO[(x, v)] = res
    return table[0]


def rtilde_from_r(u: Perm, v: Perm) -> QPoly:
    """The R-tilde polynomial, by the one descent recurrence of this module
    (Bjorner-Brenti, Combinatorics of Coxeter Groups, Sec. 5.3); raises
    ValueError unless u <= v.

    R-tilde(u, u) = 1; otherwise, for the smallest right descent s of v:
    R-tilde(us, vs) when s is also a descent of u, else R-tilde(us, vs) +
    q R-tilde(u, vs), where the first term is zero unless us <= vs.  By the
    lifting property (ibid., Prop. 2.2.7) u <= v iff us <= vs in the first
    case and iff u <= vs in the second, so the recurrence walks comparable
    pairs from a comparable pair and incomparable ones from an incomparable
    pair, down to v = e, which has no descent.  There it raises, having
    memoized nothing, so the memo holds no zero polynomial.  The recursion
    goes through this module's global, so a wrapper on the name another
    module imported sees top-level calls only.
    """
    key = (u, v)
    hit = _RT_MEMO.get(key)
    if hit is not None:
        return hit
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {len(u)} vs {len(v)}")
    if u == v:
        res = ONE
    else:
        ds = descents(v)
        if not ds:
            raise ValueError("R-tilde requires u <= v")
        i, j = min(ds)
        vs = right_transposition(v, i, j)
        us = right_transposition(u, i, j)
        if u[i - 1] > u[j - 1]:
            res = rtilde_from_r(us, vs)
        else:
            res = qp_shift(rtilde_from_r(u, vs), 1)
            if bruhat_leq(us, vs):
                res = qp_add(rtilde_from_r(us, vs), res)
    _RT_MEMO[key] = res
    return res
