"""
Bruhat intervals [u, v]: element sets, Bruhat graphs, Hasse diagrams, and
abstract-poset isomorphism.

The Bruhat order of all of S_n is the interval [e, w0], bruhat_order(n),
which a sweep over S_n builds once.  An interval [u, v] is read off it when
the caller holds it, as a sweep does; otherwise, as for a single query of
any degree, it is materialised in one downward scan of the reflections from
v, which finds its elements and its Bruhat graph together, reading each
step off positions (see perms).  Elements are referenced by dense integer
indices, assigned in (rank, one-line notation) order, so index 0 is u and
the last index is v.  Subsets of an interval are bitmasks (Python ints) over
these indices, and so is the Bruhat graph: one mask of edge targets per
element.  Edge labels and covers are not stored; they are read off the
endpoints when asked for.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Iterator, Optional

from .errors import EmptyIntervalError, InvariantViolation
from .perms import (
    Perm,
    Reflection,
    bruhat_leq,
    format_perm,
    identity,
    inverse,
    length,
    longest_element,
    reflection_between,
    reflections,
    right_transposition,
)


class BruhatInterval:
    """The interval [u, v] with its Bruhat graph and order.

    Immutable by convention after construction; build with build_interval.
    out_mask[i] is the bitmask of Bruhat-edge targets of i, the interval's
    one edge store: label(i, j) reads an edge's reflection off its endpoints,
    and an edge is a cover when the rank rises by one.  up_mask[i] /
    down_mask[i] are bitmasks of {j : x_i <= x_j} and {j : x_j <= x_i}.
    Compared by identity.
    """

    def __init__(
        self,
        bottom: Perm,
        top: Perm,
        elements: tuple[Perm, ...],
        index: dict[Perm, int],
        rank: tuple[int, ...],
        out_mask: tuple[int, ...],
        up_mask: tuple[int, ...],
        down_mask: tuple[int, ...],
    ):
        self.bottom = bottom
        self.top = top
        self.elements = elements
        self.index = index
        self.rank = rank
        self.out_mask = out_mask
        self.up_mask = up_mask
        self.down_mask = down_mask

    @property
    def n(self) -> int:
        return len(self.bottom)

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def length(self) -> int:
        return self.rank[-1]

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up_mask[i] >> j & 1)

    def label(self, i: int, j: int) -> Reflection:
        """The reflection t with x_j = t x_i: the label of the edge i -> j."""
        return reflection_between(self.elements[i], self.elements[j])

    @cached_property
    def hasse_edges(self) -> tuple[tuple[int, int], ...]:
        """The covers (i, j), in (lower, upper) index order."""
        rank = self.rank
        return tuple(
            (i, j)
            for i, targets in enumerate(self.out_mask)
            for j in bits(targets)
            if rank[j] == rank[i] + 1
        )

    @cached_property
    def poset(self) -> "AbstractPoset":
        return AbstractPoset(self.size, self.hasse_edges, self.rank)


def bits(mask: int):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def build_interval(
    u: Perm, v: Perm, group: Optional[BruhatInterval] = None
) -> BruhatInterval:
    """Materialize [u, v]; raises EmptyIntervalError when u is not <= v.

    Given group, the order [e, w0] of S_n (bruhat_order(n)), [u, v] is read
    off it: its elements are up_mask[u] & down_mask[v], and its edges are
    the group's edges between them.  The group's (length, one-line) index
    order restricts to the interval's own, so both routes give the same
    interval.  A group of another degree raises ValueError.

    Without group, [u, v] is found in one downward scan from v.  Every
    element x found so far is expanded along each reflection t = (i, j),
    i < j, with j left of i in x, which is when l(t x) < l(x); t x swaps
    those two positions of x.  y = t x belongs to the interval iff u <= y,
    a verdict taken once per y.  Every Bruhat edge y -> x of [u, v] is met
    exactly once, at its upper end x.  Ranks are lengths, taken once per
    element after the scan.
    """
    if group is not None:
        return _project(u, v, group)
    if not bruhat_leq(u, v):
        raise EmptyIntervalError(
            f"{format_perm(u)} is not <= {format_perm(v)} in Bruhat order"
        )
    T = reflections(len(u))
    member = {v: True}  # the verdict u <= y for every y reached
    found = [v]
    scanned: list[tuple[Perm, Perm]] = []
    for x in found:  # grows while it is scanned
        where = inverse(x)
        for i, j in T:
            if where[i - 1] < where[j - 1]:
                continue
            y = right_transposition(x, where[i - 1], where[j - 1])
            if y not in member:
                member[y] = bruhat_leq(u, y)
                if member[y]:
                    found.append(y)
            if member[y]:
                scanned.append((y, x))

    ell = {x: length(x) for x in found}
    elements = sorted(found, key=lambda x: (ell[x], x))
    index = {x: i for i, x in enumerate(elements)}
    out_mask = [0] * len(elements)
    for y, x in scanned:
        out_mask[index[y]] |= 1 << index[x]
    return _closed(elements, index, [ell[x] - ell[u] for x in elements], out_mask)


def _project(u: Perm, v: Perm, group: BruhatInterval) -> BruhatInterval:
    """[u, v] read off the group interval [e, w0] of the same degree."""
    n = len(u)
    if group.bottom != identity(n) or group.top != longest_element(n) or len(v) != n:
        raise ValueError(
            f"[{format_perm(u)}, {format_perm(v)}] cannot be read off"
            f" [{format_perm(group.bottom)}, {format_perm(group.top)}]"
        )
    gu, gv = group.index[u], group.index[v]
    members = group.up_mask[gu] & group.down_mask[gv]
    if not members:
        raise EmptyIntervalError(
            f"{format_perm(u)} is not <= {format_perm(v)} in Bruhat order"
        )
    where = list(bits(members))  # group index of each local index
    local = {g: i for i, g in enumerate(where)}
    group_out = group.out_mask
    out_mask = []
    for g in where:
        mask = 0
        for h in bits(group_out[g] & members):
            mask |= 1 << local[h]
        out_mask.append(mask)
    elements = [group.elements[g] for g in where]
    index = {x: i for i, x in enumerate(elements)}
    rank = group.rank
    return _closed(elements, index, [rank[g] - rank[gu] for g in where], out_mask)


def _closed(
    elements: list[Perm], index: dict[Perm, int], rank: list[int], out_mask: list[int]
) -> BruhatInterval:
    """The interval with these edges, its up/down masks closed along them."""
    # the edges rise in index: closing in index order reads only complete
    # masks
    m = len(elements)
    up_mask = [1 << i for i in range(m)]
    down_mask = list(up_mask)
    for i, targets in enumerate(out_mask):
        below = down_mask[i]
        while targets:
            low = targets & -targets
            targets ^= low
            down_mask[low.bit_length() - 1] |= below
    for i in reversed(range(m)):
        targets, above = out_mask[i], up_mask[i]
        while targets:
            low = targets & -targets
            targets ^= low
            above |= up_mask[low.bit_length() - 1]
        up_mask[i] = above

    return BruhatInterval(
        bottom=elements[0],
        top=elements[-1],
        elements=tuple(elements),
        index=index,
        rank=tuple(rank),
        out_mask=tuple(out_mask),
        up_mask=tuple(up_mask),
        down_mask=tuple(down_mask),
    )


@lru_cache(maxsize=1)
def bruhat_order(n: int) -> BruhatInterval:
    """[e, w0]: the Bruhat order of all of S_n.  The order of the last n
    asked for is kept, so a sweep over S_n builds it once."""
    return build_interval(identity(n), longest_element(n))


def comparable_pairs(n: int, start: int = 0, step: int = 1) -> Iterator[tuple[Perm, Perm]]:
    """The pairs u <= v in S_n, sorted by (length(v), v, u): the down-masks
    of [e, w0], read in index order; of these, the start-th and every
    step-th after it, as islice(pairs, start, None, step) would give them.

    [e, w0] is bruhat_order(n), built here and kept for the sweep that reads
    its intervals off it; the pairs are streamed, never held.  A down-mask
    holding no pair to give is skipped whole, by its bit count.
    """
    if start < 0 or step < 1:
        raise ValueError("comparable_pairs needs start >= 0 and step >= 1")
    group = bruhat_order(n)
    return _strided_pairs(group, start, step)


def _strided_pairs(group: BruhatInterval, k: int, step: int) -> Iterator[tuple[Perm, Perm]]:
    w = group.elements
    pos = 0  # the position, among all pairs, of the lowest bit left in below
    for v, below in zip(w, group.down_mask):
        end = pos + below.bit_count()
        while k < end:
            for _ in range(k - pos):
                below &= below - 1
            pos = k
            yield w[(below & -below).bit_length() - 1], v
            k += step
        pos = end


def atom_indices(iv: BruhatInterval) -> tuple[tuple[int, Reflection], ...]:
    """Indices of the elements covering u, ascending, with their edge labels."""
    return tuple((j, iv.label(0, j)) for j in bits(iv.out_mask[0]) if iv.rank[j] == 1)


# ---------------------------------------------------------------------------
# abstract posets and isomorphism


class AbstractPoset:
    """A graded poset given by its Hasse relation on {0, ..., size-1}.

    Its cover lists and its stable colouring are derived on first use and
    kept, so every search and signature over one poset shares them."""

    def __init__(self, size: int, hasse: tuple[tuple[int, int], ...], rank: tuple[int, ...]):
        self.size = size
        self.hasse = hasse
        self.rank = rank

    @cached_property
    def covers(self) -> tuple[list[list[int]], list[list[int]]]:
        """(up, down): up[x] lists the elements covering x and down[x] those
        x covers, each ascending, as the Hasse relation is sorted."""
        up = [[] for _ in range(self.size)]
        down = [[] for _ in range(self.size)]
        for a, b in self.hasse:
            up[a].append(b)
            down[b].append(a)
        return up, down

    @cached_property
    def stable_colors(self) -> tuple[list[int], list[tuple]]:
        """Rank colours refined by the colours of the upper and lower covers
        until the partition is stable, as (colors, signatures): a colour is
        the rank of its signature among the sorted distinct signatures, so
        every isomorphism preserves colours."""
        up, down = self.covers
        col = list(self.rank)
        while True:
            raw = [
                (
                    col[x],
                    tuple(sorted(col[y] for y in up[x])),
                    tuple(sorted(col[y] for y in down[x])),
                )
                for x in range(self.size)
            ]
            ids = {s: k for k, s in enumerate(sorted(set(raw)))}
            new = [ids[s] for s in raw]
            if len(ids) == len(set(col)):
                return new, raw
            col = new


def poset_isomorphic(p: AbstractPoset, q: AbstractPoset) -> Optional[tuple[int, ...]]:
    """A rank-preserving isomorphism p -> q as an index tuple, or None.

    Backtracking, with an explicit stack, over candidates of equal stable
    colour; the returned mapping is verified against both edge sets.
    """
    if p.size != q.size or len(p.hasse) != len(q.hasse):
        return None
    col_p, sig_p = p.stable_colors
    col_q, sig_q = q.stable_colors
    if sorted(sig_p) != sorted(sig_q):
        return None
    up_p, down_p = p.covers
    up_q, down_q = q.covers
    up_q_set = [set(ys) for ys in up_q]
    down_q_set = [set(ys) for ys in down_q]

    by_color_q: dict[int, list[int]] = {}
    for y, c in enumerate(col_q):
        by_color_q.setdefault(c, []).append(y)
    # small candidate lists first keeps the search tree thin
    order = sorted(range(p.size), key=lambda x: (len(by_color_q[col_p[x]]), x))

    up_p_set = [set(ys) for ys in up_p]
    down_p_set = [set(ys) for ys in down_p]
    mapping = [-1] * p.size
    inv = [-1] * q.size
    # resume[d] is the next candidate index for order[d] once order[d + 1:]
    # is abandoned
    resume: list[int] = []
    pos = k = 0
    while pos < len(order):
        x = order[pos]
        candidates = by_color_q[col_p[x]]
        while k < len(candidates):
            y = candidates[k]
            k += 1
            if inv[y] >= 0:
                continue
            if all(
                mapping[x2] < 0 or mapping[x2] in up_q_set[y] for x2 in up_p[x]
            ) and all(
                mapping[x2] < 0 or mapping[x2] in down_q_set[y] for x2 in down_p[x]
            ) and all(
                inv[y2] < 0 or inv[y2] in up_p_set[x] for y2 in up_q[y]
            ) and all(
                inv[y2] < 0 or inv[y2] in down_p_set[x] for y2 in down_q[y]
            ):
                mapping[x] = y
                inv[y] = x
                resume.append(k)
                pos, k = pos + 1, 0
                break
        else:
            if not resume:
                return None
            pos, k = pos - 1, resume.pop()
            x = order[pos]
            inv[mapping[x]] = -1
            mapping[x] = -1
    result = tuple(mapping)
    # verify: bijection carrying the Hasse relation exactly
    if sorted(result) != list(range(p.size)):
        raise InvariantViolation("isomorphism search returned a non-bijection")
    mapped = {(result[a], result[b]) for a, b in p.hasse}
    if mapped != set(q.hasse):
        return None
    return result


def iso_signature(p: AbstractPoset):
    """A cheap isomorphism invariant, usable as a grouping key."""
    return (p.size, len(p.hasse), tuple(sorted(p.stable_colors[1])))
