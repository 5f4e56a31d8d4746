"""
Reflection orders on the transpositions of S_n: validation, construction
from prescribed root data, increasing-path counting, and the E / E1 / E2
compatibility checks between an order and an order ideal.

A total order on the reflections T is a reflection order when every triple
a < b < c appears as (a b) < (a c) < (b c) or reversed.  Sorting T by the
ratio F1(root) / F2(root) of two linear functionals with F2 positive on
all roots and injective ratios always produces one; construct_order builds
its functionals with exact rationals so results are reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InvariantViolation
from .intervals import BruhatInterval, bits
from .perms import Reflection, reflections, root_forest
from .polynomials import ONE, QPoly, ZERO, qp_add, qp_shift


class ReflectionOrder:
    """A validated total order on the reflections of S_n, smallest first,
    with the position of each reflection in it."""

    def __init__(self, n: int, ordered: tuple[Reflection, ...], position: dict[Reflection, int]):
        self.n = n
        self.ordered = ordered
        self.position = position


def _degree_from_count(count: int) -> int:
    n = round((1 + (1 + 8 * count) ** 0.5) / 2)
    if n * (n - 1) // 2 != count:
        raise ValueError(f"{count} is not a triangular number of reflections")
    return n


def validate_reflection_order(seq: Sequence[Reflection]) -> bool:
    """True iff the triple condition holds for every a < b < c.

    Raises ValueError when seq is not a permutation of all reflections.
    """
    n = _degree_from_count(len(seq))
    if set(seq) != set(reflections(n)):
        raise ValueError("sequence is not a permutation of the reflections")
    pos = {t: k for k, t in enumerate(seq)}
    for a in range(1, n - 1):
        for b in range(a + 1, n):
            for c in range(b + 1, n + 1):
                ab, ac, bc = pos[(a, b)], pos[(a, c)], pos[(b, c)]
                if not (ab < ac < bc or bc < ac < ab):
                    return False
    return True


def make_order(seq: Sequence[Reflection]) -> ReflectionOrder:
    """Wrap a sequence as a ReflectionOrder after validating it."""
    if not validate_reflection_order(seq):
        raise ValueError("not a reflection order")
    seq = tuple(seq)
    return ReflectionOrder(
        n=_degree_from_count(len(seq)),
        ordered=seq,
        position={t: k for k, t in enumerate(seq)},
    )


def lex_order(n: int) -> ReflectionOrder:
    """Lexicographic order on (i, j) pairs; always a reflection order."""
    return make_order(reflections(n))


def reverse_order(order: ReflectionOrder) -> ReflectionOrder:
    """The reversal of a reflection order is again a reflection order."""
    return make_order(tuple(reversed(order.ordered)))


# ---------------------------------------------------------------------------
# construction from prescribed roots


def _tree_coordinates(n: int, basis: Sequence[Reflection]):
    """Coordinates of every root of S_n in a root basis whose edges form a
    spanning tree of {1..n}.  The signed sum p(x) of the basis roots along
    the tree path from 1 to x is e_1 - e_x, so e_a - e_b is p(b) - p(a)."""
    steps: dict[int, list[tuple[int, int, int]]] = {a: [] for a in range(1, n + 1)}
    for j, (a, b) in enumerate(basis):
        steps[a].append((b, j, 1))  # stepping a -> b adds e_a - e_b
        steps[b].append((a, j, -1))
    path = {1: [0] * len(basis)}
    stack = [1]
    while stack:
        x = stack.pop()
        for y, j, sign in steps[x]:
            if y not in path:
                path[y] = list(path[x])
                path[y][j] += sign
                stack.append(y)
    return {
        (a, b): tuple(cb - ca for ca, cb in zip(path[a], path[b]))
        for a, b in reflections(n)
    }


def _f2(t: Reflection) -> Fraction:
    # F2(e_i) = n - i gives F2(root of (a, b)) = b - a > 0
    return Fraction(t[1] - t[0])


def construct_order(n: int, ts: Sequence[Reflection], i: int) -> ReflectionOrder:
    """A reflection order with t_1 < ... < t_k, such that the reflections
    whose roots lie in the span of the first i prescribed roots form an
    initial interval, and reflections with non-negative coordinates on the
    later prescribed roots come after that interval.

    Requires the roots of ts to be linearly independent and 1 <= i <= k.
    Sorts by the ratio of two exact rational functionals; the perturbation
    schedule (shrinking epsilon, growing geometric spacings) is retried
    deterministically until every required property verifies.
    """
    ts = [tuple(t) for t in ts]
    k = len(ts)
    if not 1 <= i <= k:
        raise ValueError(f"i = {i} out of range 1..{k}")
    if root_forest(n, ts) is None:
        raise ValueError("prescribed roots must be distinct and linearly independent")

    # extend to a spanning tree by the simple reflections that join components
    basis = list(ts)
    for a in range(1, n):
        comp = root_forest(n, basis)
        if comp[a] != comp[a + 1]:
            basis.append((a, a + 1))
    coords = _tree_coordinates(n, basis)
    m = len(basis)

    def in_span_i(t: Reflection) -> bool:
        return all(coords[t][j] == 0 for j in range(i, m))

    def must_follow_span(t2: Reflection) -> bool:
        # t2 lies in the span of the k prescribed roots, outside the i-span,
        # with non-negative coordinates on roots i+1..k: every reflection of
        # the i-span is required to precede it
        ct2 = coords[t2]
        return (
            all(ct2[j] == 0 for j in range(k, m))
            and any(ct2[j] != 0 for j in range(i, k))
            and all(ct2[j] >= 0 for j in range(i, k))
        )

    for attempt in range(64):
        lam = Fraction(attempt + 2)
        mu = Fraction(attempt + 2)
        eps = Fraction(1, (attempt + 2) ** (2 * m + 2))
        basis_ratio = [
            eps * mu ** (j + 1) if j < i else lam ** (j + 1) for j in range(m)
        ]
        f1 = {
            t: sum(
                coords[t][j] * basis_ratio[j] * _f2(basis[j]) for j in range(m)
            )
            for t in reflections(n)
        }
        ratios = {t: f1[t] / _f2(t) for t in reflections(n)}
        if len(set(ratios.values())) != len(ratios):
            continue
        seq = tuple(sorted(reflections(n), key=lambda t: ratios[t]))
        pos = {t: idx for idx, t in enumerate(seq)}
        if not validate_reflection_order(seq):
            continue
        if any(pos[ts[j]] >= pos[ts[j + 1]] for j in range(k - 1)):
            continue
        span_positions = sorted(pos[t] for t in seq if in_span_i(t))
        if span_positions != list(
            range(span_positions[0], span_positions[0] + len(span_positions))
        ):
            continue
        span_max = max(pos[t] for t in seq if in_span_i(t))
        if all(
            pos[t2] > span_max
            for t2 in seq
            if not in_span_i(t2) and must_follow_span(t2)
        ):
            return ReflectionOrder(n=n, ordered=seq, position=pos)
    raise InvariantViolation("no perturbation produced a valid order")


def standard_E_order(n: int, d: int) -> ReflectionOrder:
    """The order used to certify the standard decomposition: the simple
    reflections (d+1, d+2), ..., (n-1, n) come first (their span collects
    the labels of edges that stay inside the standard ideal), then
    (1, 2), ..., (d, d+1)."""
    if not 1 <= d <= n - 1:
        raise ValueError(f"d = {d} out of range 1..{n - 1}")
    ts = [(a, a + 1) for a in range(d + 1, n)] + [(a, a + 1) for a in range(1, d + 1)]
    i = n - 1 - d
    if i == 0:
        # the ideal is {u}: no internal edges, any reflection order works
        return construct_order(n, ts, len(ts))
    return construct_order(n, ts, i)


# ---------------------------------------------------------------------------
# increasing-path counting


def rtilde_by_paths(iv: BruhatInterval, order: ReflectionOrder) -> QPoly:
    """Sum of q^(edge count) over directed paths bottom -> top in the Bruhat
    graph whose labels strictly increase in the given order.

    Memoized on (vertex, minimum admissible label position); equals the
    naive path enumeration exactly.
    """
    if order.n != iv.n:
        raise ValueError("order degree does not match the interval")
    pos = order.position
    top = iv.size - 1
    memo: dict[tuple[int, int], QPoly] = {}
    # the edges leaving each x as (target, position of the label)
    out = [
        [(y, pos[iv.label(x, y)]) for y in bits(targets)]
        for x, targets in enumerate(iv.out_mask)
    ]

    def count(x: int, min_pos: int) -> QPoly:
        key = (x, min_pos)
        hit = memo.get(key)
        if hit is not None:
            return hit
        acc = ONE if x == top else ZERO
        for y, p in out[x]:
            if p >= min_pos:
                acc = qp_add(acc, qp_shift(count(y, p + 1), 1))
        memo[key] = acc
        return acc

    return count(0, 0)


# ---------------------------------------------------------------------------
# E-properties of an order relative to an ideal


class EFlags:
    """The E1, E2 and E verdicts of check_E_properties."""

    def __init__(self, e1: bool, e2: bool, e: bool):
        self.e1 = e1
        self.e2 = e2
        self.e = e


def check_E_properties(iv: BruhatInterval, mask: int, order: ReflectionOrder) -> EFlags:
    """Check the compatibility properties of ``order`` with the lower ideal
    ``mask``.

    E1: at each x in I, labels of edges x -> I precede labels of edges
    x -> outside.  E2: same with labels of edges I -> x.  E: every label of
    an edge inside I precedes every label of an edge leaving I.
    """
    for x in bits(mask):
        if iv.down_mask[x] & ~mask:
            raise ValueError("ideal is not a lower set of the interval")
    pos = order.position
    # every edge into a member of the lower set I starts inside I
    in_max = [-1] * iv.size
    for y in bits(mask):
        for x in bits(iv.out_mask[y]):
            in_max[x] = max(in_max[x], pos[iv.label(y, x)])

    e1 = e2 = True
    internal_max = -1
    leaving_min = len(order.ordered)
    for x in bits(mask):
        targets = iv.out_mask[x]
        out_in = [pos[iv.label(x, y)] for y in bits(targets & mask)]
        out_leaving = [pos[iv.label(x, y)] for y in bits(targets & ~mask)]
        if out_leaving:
            lead = min(out_leaving)
            if out_in and max(out_in) >= lead:
                e1 = False
            if in_max[x] >= lead:
                e2 = False
            leaving_min = min(leaving_min, lead)
        if out_in:
            internal_max = max(internal_max, max(out_in))
    e = internal_max < leaving_min
    if e and not (e1 and e2):
        raise InvariantViolation("E must imply E1 and E2")
    return EFlags(e1=e1, e2=e2, e=e)

