"""Independent oracles and small utilities shared by the test modules.

Everything here recomputes its answers from first principles (graph
reachability, explicit path enumeration, exact linear algebra), so the
library's recursive implementations are checked against genuinely
different routes.
"""

from __future__ import annotations

import itertools
import os
import weakref
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from hypothesis import strategies as st

import bruhat_hypercubes
from bruhat_hypercubes.errors import ClusterError
from bruhat_hypercubes.hypercubes import (
    HypercubeCluster,
    HypercubeDecomposition,
    build_cluster,
    enumerate_diamonds,
    htilde,
)
from bruhat_hypercubes.intervals import (
    BruhatInterval,
    build_interval,
    interval_to_json,
)
from bruhat_hypercubes.perms import (
    Perm,
    Reflection,
    all_perms,
    apply_reflection,
    bruhat_leq,
    descents,
    format_perm,
    length,
    parse_perm,
    reflections,
    right_transposition,
)
from bruhat_hypercubes.polynomials import (
    QPoly,
    compare_coefficientwise,
    qp_add,
    qp_mul,
    qp_normalize,
    qp_shift,
)
from bruhat_hypercubes.reflection_orders import ReflectionOrder, make_order


def brute_length(w: Perm) -> int:
    return sum(
        1
        for i in range(len(w))
        for j in range(i + 1, len(w))
        if w[i] > w[j]
    )


@lru_cache(maxsize=None)
def reachability_leq(n: int) -> dict[tuple[Perm, Perm], bool]:
    """Bruhat order on S_n from scratch: transitive closure of the edge
    relation w -> t*w with length increasing."""
    elements = list(all_perms(n))
    idx = {w: i for i, w in enumerate(elements)}
    m = len(elements)
    reach = [1 << i for i in range(m)]
    by_length = sorted(range(m), key=lambda i: -brute_length(elements[i]))
    succ = [[] for _ in range(m)]
    for i, w in enumerate(elements):
        for t in reflections(n):
            y = apply_reflection(t, w)
            if brute_length(y) > brute_length(w):
                succ[i].append(idx[y])
    for i in by_length:
        for j in succ[i]:
            reach[i] |= reach[j]
    return {
        (elements[i], elements[j]): bool(reach[i] >> j & 1)
        for i in range(m)
        for j in range(m)
    }


def naive_increasing_paths(iv: BruhatInterval, order: ReflectionOrder) -> QPoly:
    """Explicit enumeration of increasing paths bottom -> top, no memo."""
    pos = order.position
    top = iv.size - 1
    out_edges: list[list[tuple[int, Reflection]]] = [[] for _ in range(iv.size)]
    for i, j, t in bruhat_edges(iv):
        out_edges[i].append((j, t))
    counts: dict[int, int] = {}

    def walk(x: int, last: int, edges: int) -> None:
        if x == top:
            counts[edges] = counts.get(edges, 0) + 1
        for y, t in out_edges[x]:
            if pos[t] > last:
                walk(y, pos[t], edges + 1)

    walk(0, -1, 0)
    if not counts:
        return ()
    out = [0] * (max(counts) + 1)
    for k, c in counts.items():
        out[k] = c
    return qp_normalize(out)


def r_from_rtilde(rt: QPoly, ell: int) -> QPoly:
    """Forward substitution: R(q) from R-tilde via R(t^2) = t^ell rt(t - 1/t)."""
    terms: dict[int, int] = {}
    for k, c in enumerate(rt):
        if not c:
            continue
        for m in range(k + 1):
            e = ell + k - 2 * m
            terms[e] = terms.get(e, 0) + c * (-1) ** m * _binom(k, m)
    out = [0] * (max(terms, default=0) // 2 + 1)
    for e, c in terms.items():
        if c:
            assert e % 2 == 0 and e >= 0, "substitution produced odd powers"
            out[e // 2] += c
    return qp_normalize(out)


def _binom(n: int, k: int) -> int:
    import math

    return math.comb(n, k)


def oracle_r(u: Perm, v: Perm) -> QPoly:
    """R-polynomial via lexicographic path counting plus forward substitution;
    never touches the descent recurrence."""
    if u == v:
        return (1,)
    if not bruhat_leq(u, v):
        return ()
    iv = build_interval(u, v)
    rt = naive_increasing_paths(iv, make_order(reflections(len(u))))
    return r_from_rtilde(rt, length(v) - length(u))


def r_with_choice(u: Perm, v: Perm, pick_last: bool = False, memo=None) -> QPoly:
    """R-polynomial by its own descent recurrence (Bjorner-Brenti, Sec. 5.1),
    recursing on the smallest right descent of v, or the largest with
    pick_last: R(u, u) = 1; R(u, v) = 0 when u is not <= v; otherwise
    R(us, vs) when s is also a descent of u, else q R(us, vs) + (q - 1) R(u, vs).
    The library reads R off R-tilde instead, so this is an independent route."""
    if memo is None:
        memo = {}
    key = (u, v)
    if key in memo:
        return memo[key]
    if u == v:
        res = (1,)
    elif not bruhat_leq(u, v):
        res = ()
    else:
        ds = sorted(descents(v))
        i, j = ds[-1] if pick_last else ds[0]
        vs = right_transposition(v, i, j)
        us = right_transposition(u, i, j)
        if u[i - 1] > u[j - 1]:
            res = r_with_choice(us, vs, pick_last, memo)
        else:
            res = qp_add(
                qp_shift(r_with_choice(us, vs, pick_last, memo), 1),
                qp_mul((-1, 1), r_with_choice(u, vs, pick_last, memo)),
            )
    memo[key] = res
    return res


def oracle_kl(u: Perm, v: Perm, cache=None) -> QPoly:
    """Kazhdan-Lusztig polynomial by exact rational linear algebra: unknowns
    are the coefficients of P(u, v); the defining functional equation gives
    one linear constraint per power of q."""
    if cache is None:
        cache = {}
    key = (u, v)
    if key in cache:
        return cache[key]
    if not bruhat_leq(u, v):
        cache[key] = ()
        return ()
    if u == v:
        cache[key] = (1,)
        return (1,)
    iv = build_interval(u, v)
    ell = length(v) - length(u)
    partial = [0] * (ell + 1)
    for a in iv.elements:
        if a == u:
            continue
        prod = _mul(oracle_r(u, a), oracle_kl(a, v, cache))
        for k, c in enumerate(prod):
            partial[k] += c
    bound = (ell - 1) // 2
    width = bound + 1
    rows = []
    rhs = []
    for m_exp in range(ell + 1):
        row = [Fraction(0)] * width
        j = ell - m_exp
        if 0 <= j <= bound:
            row[j] += 1
        if m_exp <= bound:
            row[m_exp] -= 1
        rows.append(row)
        rhs.append(Fraction(partial[m_exp]))
    sol = _solve_exact(rows, rhs)
    assert sol is not None, "the defining system must be solvable"
    assert all(x.denominator == 1 for x in sol)
    res = qp_normalize([int(x) for x in sol])
    cache[key] = res
    return res


def _mul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return qp_normalize(out)


def _solve_exact(rows, rhs):
    """Least-assumption Gaussian elimination for a consistent overdetermined
    system; returns None if inconsistent."""
    m = len(rows)
    width = len(rows[0]) if rows else 0
    aug = [list(rows[i]) + [rhs[i]] for i in range(m)]
    r = 0
    pivots = []
    for c in range(width):
        pivot = next((k for k in range(r, m) if aug[k][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [x * inv for x in aug[r]]
        for k in range(m):
            if k != r and aug[k][c] != 0:
                f = aug[k][c]
                aug[k] = [x - f * y for x, y in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
    for row in aug[r:]:
        if row[-1] != 0:
            return None
    out = [Fraction(0)] * width
    for ridx, c in enumerate(pivots):
        out[c] = aug[ridx][-1]
    return out


def subprocess_env() -> dict[str, str]:
    """The environment for a child Python that imports this package."""
    return {**os.environ, "PYTHONPATH": str(Path(bruhat_hypercubes.__file__).parents[1])}


def bruhat_edges(iv: BruhatInterval) -> tuple[tuple[int, int, Reflection], ...]:
    """The labelled Bruhat edges (i, j, t) of an interval, in (lower end,
    label) order: the edges are the bits of ``out_mask``, and each label is
    found by trying every reflection t for x_j = t x_i."""
    T = reflections(iv.n)
    edges = []
    for i, targets in enumerate(iv.out_mask):
        x = iv.elements[i]
        for j in mask_bits(targets):
            (t,) = [t for t in T if apply_reflection(t, x) == iv.elements[j]]
            edges.append((i, t, j))
    return tuple((i, j, t) for i, t, j in sorted(edges))


_DIAMONDS = weakref.WeakKeyDictionary()


def interval_diamonds(iv: BruhatInterval) -> list[tuple[int, int, int, int]]:
    """``enumerate_diamonds(iv)``, computed once per interval object."""
    found = _DIAMONDS.get(iv)
    if found is None:
        found = _DIAMONDS[iv] = enumerate_diamonds(iv)
    return found


def diamond_closure(iv: BruhatInterval, mask: int) -> int:
    """Smallest superset of mask closed under completing diamonds with three
    vertices present."""
    diamonds = interval_diamonds(iv)
    changed = True
    while changed:
        changed = False
        for x1, x2, x3, x4 in diamonds:
            present = (
                (mask >> x1 & 1) + (mask >> x2 & 1) + (mask >> x3 & 1) + (mask >> x4 & 1)
            )
            if present == 3:
                mask |= (1 << x1) | (1 << x2) | (1 << x3) | (1 << x4)
                changed = True
    return mask


def is_diamond_closed(iv: BruhatInterval, mask: int) -> bool:
    """True iff no diamond has exactly three vertices in mask, for any mask:
    a scan of every diamond, the oracle of the library's lower-set test of
    HD2."""
    for x1, x2, x3, x4 in interval_diamonds(iv):
        present = (
            (mask >> x1 & 1) + (mask >> x2 & 1) + (mask >> x3 & 1) + (mask >> x4 & 1)
        )
        if present == 3:
            return False
    return True


def zscan_row(iv: BruhatInterval, z: int, rt: QPoly) -> dict:
    """The strong, reason, h_tilde and verdict fields of the z-scan row of
    [u, z], by the per-z route: HD2 by scanning every diamond with
    ``is_diamond_closed``, then ``build_cluster`` at each x of [u, z] in
    index order, the first ``ClusterError`` giving the HD3 reason."""
    ideal = iv.down_mask[z]
    row = {"strong": False, "reason": None, "h_tilde": None, "verdict": None}
    if not is_diamond_closed(iv, ideal):
        row["reason"] = f"HD2: [u, {format_perm(iv.elements[z])}] is not diamond-closed"
        return row
    clusters = {}
    for x in mask_bits(ideal):
        try:
            clusters[x] = build_cluster(iv, z, x)
        except ClusterError as err:
            row["reason"] = f"HD3: no cluster at {format_perm(iv.elements[x])}: {err.reason}"
            return row
    h = htilde(iv, HypercubeDecomposition(z=z, ideal=ideal, clusters=clusters))
    row.update(strong=True, h_tilde=list(h), verdict=compare_coefficientwise(h, rt))
    return row


def check_cluster_axioms(iv: BruhatInterval, ideal: int, cluster: HypercubeCluster) -> None:
    """Assert that ``cluster`` satisfies the cluster axioms of the
    ``hypercubes`` module docstring relative to the lower set ``ideal``,
    reading only ``out_mask``, ``up_mask`` and ``down_mask``; it never calls
    ``build_cluster``, so it backs every cluster the library builds (those
    of ``check_strong_hcd``, ``standard_hcd`` and ``zscan_row``)."""
    x, theta = cluster.base, cluster.images
    frontier = iv.out_mask[x] & ~ideal
    assert ideal >> x & 1 and cluster.frontier == frontier
    members = list(mask_bits(frontier))

    def comparable(a: int, b: int) -> bool:
        return bool((iv.up_mask[a] | iv.down_mask[a]) >> b & 1)

    # the antichains of the frontier, level by level
    antichains = {0}
    level = [0]
    while level:
        level = [
            y | 1 << j
            for y in level
            for j in members
            if j > y.bit_length() - 1 and not any(comparable(j, k) for k in mask_bits(y))
        ]
        antichains.update(level)
    assert set(theta) == antichains, "keys are not the antichains of the frontier"

    assert theta[0] == x
    assert all(theta[1 << y] == y for y in members)
    for y in antichains:
        for p in mask_bits(y):
            assert iv.out_mask[theta[y ^ 1 << p]] >> theta[y] & 1, "HC3"
        images, sub = {theta[y]}, y
        while sub:
            sub = (sub - 1) & y
            images.add(theta[sub])
        assert len(images) == 1 << y.bit_count(), "not injective"
    # HC4: over two antichains Y + a and Y + b, the common out-neighbours of
    # their images are exactly theta of the union if it is an antichain, and
    # none otherwise
    for y in antichains:
        ext = [j for j in members if not y >> j & 1 and y | 1 << j in antichains]
        for a, b in itertools.combinations(ext, 2):
            common = iv.out_mask[theta[y | 1 << a]] & iv.out_mask[theta[y | 1 << b]]
            union = y | 1 << a | 1 << b
            assert common == (1 << theta[union] if union in antichains else 0), "HC4"


def qp_eval(a: QPoly, x: int) -> int:
    """The value of the polynomial a at q = x, by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def interval_from_json(payload: dict) -> BruhatInterval:
    """Rebuild an interval from its JSON form, validating the payload."""
    iv = build_interval(parse_perm(payload["u"]), parse_perm(payload["v"]))
    if interval_to_json(iv) != payload:
        raise ValueError("interval payload does not match its rebuilt form")
    return iv


@lru_cache(maxsize=None)
def comparable_pairs(n: int) -> tuple[tuple[Perm, Perm], ...]:
    perms = sorted(all_perms(n), key=lambda w: (length(w), w))
    return tuple(
        (u, v) for v in perms for u in perms if bruhat_leq(u, v)
    )


def draw_comparable_pair(data, max_length):
    """A comparable pair u <= v of S_6 or S_7 with l(v) - l(u) <= max_length,
    reached from a random v by a random walk down Bruhat covers."""
    n = data.draw(st.sampled_from((6, 7)))
    v = tuple(data.draw(st.permutations(range(1, n + 1))))
    u = v
    for _ in range(data.draw(st.integers(0, max_length))):
        covers = [
            t
            for t in reflections(n)
            if brute_length(apply_reflection(t, u)) == brute_length(u) - 1
        ]
        if not covers:
            break
        u = apply_reflection(data.draw(st.sampled_from(covers)), u)
    return u, v


def random_functional_order(n: int, rng) -> ReflectionOrder:
    """A random valid reflection order, by sorting roots by the ratio of a
    random integer functional to the pinned positive one."""
    from bruhat_hypercubes.perms import root_of

    while True:
        f1 = [rng.randrange(-50, 50) for _ in range(n)]
        ratios = {}
        ok = True
        for t in reflections(n):
            root = root_of(t, n)
            num = sum(f1[i] * root[i] for i in range(n))
            den = sum((n - 1 - i) * root[i] for i in range(n))
            ratio = Fraction(num, den)
            if ratio in ratios.values():
                ok = False
                break
            ratios[t] = ratio
        if ok:
            return make_order(sorted(reflections(n), key=lambda t: ratios[t]))


def down_set_masks(iv: BruhatInterval) -> list[int]:
    """All order ideals of the interval, as bitmasks."""
    m = iv.size
    out = []

    def rec(pos: int, mask: int) -> None:
        if pos == m:
            out.append(mask)
            return
        below = iv.down_mask[pos] & ~(1 << pos)
        if below & ~mask == 0:
            rec(pos + 1, mask | (1 << pos))
        rec(pos + 1, mask)

    rec(0, 0)
    return out


def mask_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
