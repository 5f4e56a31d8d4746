"""
Permutations of {1, ..., n} in one-line notation.

A permutation w is the tuple (w(1), ..., w(n)) of the values 1..n.  The
conventions every other module relies on are pinned here:

* composition is functional: compose(a, b)(k) = a(b(k));
* a transposition acting on the LEFT swaps values: apply_reflection((i, j), w)
  exchanges the entries equal to i and j, wherever they sit;
* multiplication on the RIGHT acts on positions: right_cycle(w, (c1, ..., ck))
  is w * sigma for the cycle sigma: c1 -> c2 -> ... -> ck -> c1, so the entry
  at position c1 becomes w(c2) and the entry at position ck becomes w(c1).

A reflection is a pair (i, j) with i < j, standing for the transposition of
i and j (of values when multiplied on the left, of positions on the right).
Left multiplication by (i, j) equals right multiplication by the swap of the
positions of i and j, and it lowers the length exactly when j sits left of i.
"""

from __future__ import annotations

import itertools
from bisect import insort
from functools import lru_cache
from typing import Iterable, Iterator, Optional, Sequence

Perm = tuple[int, ...]
Reflection = tuple[int, int]
Root = tuple[int, ...]


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def longest_element(n: int) -> Perm:
    """The order-reversing permutation n, n-1, ..., 1."""
    return tuple(range(n, 0, -1))


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order of one-line notation."""
    return itertools.permutations(range(1, n + 1))


def is_perm(w: Sequence[int]) -> bool:
    return sorted(w) == list(range(1, len(w) + 1))


def parse_perm(text: str) -> Perm:
    """
    Parse one-line notation, either as a digit string (n <= 9) or as a
    bracketed comma-separated list (any n).

    >>> parse_perm("21354")
    (2, 1, 3, 5, 4)
    >>> parse_perm("[2,1,3,5,4]")
    (2, 1, 3, 5, 4)
    """
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unbalanced brackets in permutation {text!r}")
        parts = text[1:-1].split(",")
        if not all(part.strip() for part in parts):
            raise ValueError(f"empty entry in permutation {text!r}")
        entries = tuple(int(part) for part in parts)
    else:
        if not text.isdigit():
            raise ValueError(f"cannot parse permutation {text!r}")
        entries = tuple(int(ch) for ch in text)
    if not entries or not is_perm(entries):
        raise ValueError(f"{text!r} is not a permutation of 1..{len(entries)}")
    return entries


@lru_cache(maxsize=None)  # a sweep names the same few elements over and over
def format_perm(w: Perm) -> str:
    """Inverse of parse_perm: digits for n <= 9, bracketed list otherwise."""
    if len(w) <= 9:
        return "".join(str(x) for x in w)
    return "[" + ",".join(str(x) for x in w) + "]"


def compose(a: Perm, b: Perm) -> Perm:
    """
    The product a*b acting as a(b(k)).

    >>> compose((2, 3, 1), (3, 1, 2))
    (1, 2, 3)
    """
    if len(a) != len(b):
        raise ValueError(f"degree mismatch: {len(a)} vs {len(b)}")
    return tuple(a[x - 1] for x in b)


def inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for pos, val in enumerate(w, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def length(w: Perm) -> int:
    """
    Coxeter length = number of inversions.

    >>> length((3, 2, 1))
    3
    """
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def descents(w: Perm) -> set[Reflection]:
    """Right descents, as simple reflections (i, i+1) with w(i) > w(i+1)."""
    return {(i, i + 1) for i in range(1, len(w)) if w[i - 1] > w[i]}


def reflections(n: int) -> tuple[Reflection, ...]:
    """All n(n-1)/2 reflections of S_n, in lexicographic order."""
    return tuple((i, j) for i in range(1, n) for j in range(i + 1, n + 1))


def apply_reflection(t: Reflection, w: Perm) -> Perm:
    """Left multiplication t*w: swap the values i and j in w."""
    i, j = t
    return tuple(j if x == i else i if x == j else x for x in w)


def reflection_between(x: Perm, y: Perm) -> Reflection:
    """
    The reflection t with y = t*x, the label of the Bruhat edge between x
    and y: its two values sit at the first position where x and y differ.
    Raises ValueError when y is not t*x for any reflection t.

    >>> reflection_between((1, 2, 3, 4), (4, 2, 3, 1))
    (1, 4)
    >>> reflection_between((2, 3, 1), (1, 3, 2))
    (1, 2)
    """
    for a, b in zip(x, y):
        if a != b:
            t = (a, b) if a < b else (b, a)
            if apply_reflection(t, x) == y:
                return t
            break
    raise ValueError(f"{format_perm(y)} is not a reflection times {format_perm(x)}")


def right_transposition(w: Perm, i: int, j: int) -> Perm:
    """Right multiplication by (i, j): swap the entries at positions i, j."""
    lst = list(w)
    lst[i - 1], lst[j - 1] = lst[j - 1], lst[i - 1]
    return tuple(lst)


def right_cycle(w: Perm, cycle: Sequence[int]) -> Perm:
    """
    Right multiplication by the cycle (c1, ..., ck), acting on positions.

    >>> right_cycle((1, 3, 2), (1, 2, 3))
    (3, 2, 1)
    """
    lst = list(w)
    k = len(cycle)
    for m in range(k):
        lst[cycle[m] - 1] = w[cycle[(m + 1) % k] - 1]
    return tuple(lst)


def root_of(t: Reflection, n: int) -> Root:
    """The root e_i - e_j of t = (i, j), as an integer vector of length n."""
    i, j = t
    vec = [0] * n
    vec[i - 1], vec[j - 1] = 1, -1
    return tuple(vec)


def root_forest(n: int, ts: Iterable[Reflection]) -> Optional[list[int]]:
    """Union-find over {1..n}, joining i and j for every reflection (i, j).

    The roots e_i - e_j of ts are linearly independent exactly when these
    edges form a forest.  Returns None when some edge closes a cycle, else
    the component representative of each point k at index k (index 0 unused).
    """
    parent = list(range(n + 1))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, j in ts:
        ri, rj = find(i), find(j)
        if ri == rj:
            return None
        parent[ri] = rj
    return [find(a) for a in range(n + 1)]


# no caller in the library: perfbench/record_refs.py imports this name
def reflection_length_delta(t: Reflection, w: Perm) -> int:
    """length(t*w) - length(w), computed in O(n)."""
    i, j = t
    pi = w.index(i)
    pj = w.index(j)
    lo, hi = (pi, pj) if pi < pj else (pj, pi)
    between = sum(1 for p in range(lo + 1, hi) if i < w[p] < j)
    delta = 1 + 2 * between
    return delta if pi < pj else -delta


def bruhat_leq(u: Perm, v: Perm) -> bool:
    """
    Bruhat order comparison via the sorted-prefix dominance criterion:
    u <= v iff for every k the increasingly sorted prefixes satisfy
    sorted(u[:k])[m] <= sorted(v[:k])[m] for all m.

    >>> bruhat_leq((1, 3, 2, 4), (4, 2, 3, 1))
    True
    >>> bruhat_leq((4, 2, 3, 1), (1, 3, 2, 4))
    False
    """
    n = len(u)
    if n != len(v):
        raise ValueError(f"degree mismatch: {n} vs {len(v)}")
    pu: list[int] = []
    pv: list[int] = []
    for k in range(n - 1):
        insort(pu, u[k])
        insort(pv, v[k])
        for a, b in zip(pu, pv):
            if a > b:
                return False
    return True
