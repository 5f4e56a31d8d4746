"""
Diamonds, diamond closures, strong hypercube clusters and decompositions,
the standard decomposition, the H-tilde polynomial, simplicity, coset form
of diamond-closed ideals, and special matchings.

Terminology, relative to an interval [u, v] and a lower ideal I:

* a diamond is a pair of length-2 directed paths in the Bruhat graph with
  common endpoints and distinct middles;
* the cluster at x maps each antichain Y of Bruhat-edge targets outside I
  to an element theta(Y), with theta(empty) = x, theta({y}) = y, edges
  theta(Y') -> theta(Y) for covers Y' < Y, and diamond-completion coherence
  (every completion over two such middles exists, is unique, and lands on
  theta of the union -- which must itself be an antichain);
* a strong decomposition is an ideal [u, z], diamond-closed, with a valid
  cluster at every point.

Clusters are built greedily by antichain size; uniqueness of the completion
is enforced for every pair of removed elements, which catches non-strong
ideals as early as possible.  Ideals, frontiers and antichains are bitmasks
over the interval's element indices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import ClusterError, InvariantViolation
# build_interval is not called here: perfbench/tracing.py wraps this name
from .intervals import BruhatInterval, atom_indices, bits, build_interval
from .perms import (
    Perm,
    format_perm,
    inverse,
    right_cycle,
    root_forest,
)
from .polynomials import QPoly, ZERO, qp_add, qp_shift, rtilde_from_r


class Diamond(NamedTuple):
    x1: int
    x2: int
    x3: int
    x4: int


def enumerate_diamonds(iv: BruhatInterval) -> list[Diamond]:
    """All diamonds of the Bruhat graph, each once, with x2 < x3 by index."""
    out = []
    out_mask = iv.out_mask
    for x1, targets in enumerate(out_mask):
        for x2 in bits(targets):
            for x3 in bits(targets >> (x2 + 1) << (x2 + 1)):
                for x4 in bits(out_mask[x2] & out_mask[x3]):
                    out.append(Diamond(x1, x2, x3, x4))
    return out


def diamond_closure(iv: BruhatInterval, mask: int) -> int:
    """Smallest superset of mask closed under completing diamonds with three
    vertices present."""
    diamonds = iv.diamonds
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
    for x1, x2, x3, x4 in iv.diamonds:
        present = (
            (mask >> x1 & 1) + (mask >> x2 & 1) + (mask >> x3 & 1) + (mask >> x4 & 1)
        )
        if present == 3:
            return False
    return True


# ---------------------------------------------------------------------------
# strong hypercube clusters


@dataclass(frozen=True)
class HypercubeCluster:
    """The cluster map at a base element: antichains of the frontier
    (Bruhat-edge targets outside the ideal) to interval elements."""

    base: int
    frontier: int
    images: dict[int, int]


def _antichain_masks(incomp: dict[int, int]) -> list[int]:
    """All antichains of a frontier, given as the incomparable members of
    each member, in (size, value) order."""
    out = [0]

    def extend(mask: int, allowed: int) -> None:
        rest = allowed
        while rest:
            low = rest & -rest
            rest ^= low
            nxt = mask | low
            out.append(nxt)
            extend(nxt, allowed & incomp[low.bit_length() - 1] & ~((low << 1) - 1))

    extend(0, sum(1 << j for j in incomp))
    out.sort(key=lambda m: (m.bit_count(), m))
    return out


def build_cluster(iv: BruhatInterval, z: int, x: int) -> HypercubeCluster:
    """Construct the strong hypercube cluster at x relative to the ideal
    [u, z], or raise ClusterError when none exists.

    Singletons are forced; each larger antichain is completed through every
    pair of its elements and all completions must exist, agree, and be
    unique.  A final pass checks the diamond-coherence axiom in both
    directions: completions over two antichains differing in one element
    must land on theta of their union, and must not exist at all when that
    union is not an antichain.
    """
    if not 0 <= z < iv.size:
        raise ValueError(f"z = {z} is not an element index of the interval")
    ideal = iv.down_mask[z]
    if not ideal >> x & 1:
        raise ValueError("x must belong to [u, z]")

    frontier = iv.out_mask[x] & ~ideal
    incomp = {
        j: frontier & ~(iv.up_mask[j] | iv.down_mask[j]) for j in bits(frontier)
    }
    antichains = _antichain_masks(incomp)
    is_antichain = set(antichains)

    theta: dict[int, int] = {0: x}
    for j in bits(frontier):
        theta[1 << j] = j

    out_mask = iv.out_mask
    for ymask in antichains:
        k = ymask.bit_count()
        if k < 2:
            continue
        members = list(bits(ymask))
        image: Optional[int] = None
        for ai in range(k):
            for bi in range(ai + 1, k):
                m1 = theta[ymask ^ (1 << members[ai])]
                m2 = theta[ymask ^ (1 << members[bi])]
                if m1 == m2:
                    raise ClusterError(
                        "hypercube image collapsed",
                        f"x={format_perm(iv.elements[x])}",
                    )
                common = out_mask[m1] & out_mask[m2]
                if not common:
                    raise ClusterError(
                        "no completion", f"x={format_perm(iv.elements[x])}"
                    )
                if common & (common - 1):
                    raise ClusterError(
                        "ambiguous completion", f"x={format_perm(iv.elements[x])}"
                    )
                w = common.bit_length() - 1
                if image is None:
                    image = w
                elif image != w:
                    raise ClusterError(
                        "ambiguous completion",
                        f"pairs disagree at x={format_perm(iv.elements[x])}",
                    )
        # injectivity within the hypercube below ymask
        sub = (ymask - 1) & ymask
        while True:
            if theta[sub] == image:
                raise ClusterError(
                    "hypercube image collapsed", f"x={format_perm(iv.elements[x])}"
                )
            if sub == 0:
                break
            sub = (sub - 1) & ymask
        theta[ymask] = image

    # HC3 for every cover pair of antichains
    for ymask in antichains:
        for p in bits(ymask):
            if not out_mask[theta[ymask ^ (1 << p)]] >> theta[ymask] & 1:
                raise ClusterError(
                    "HC3 violated", f"x={format_perm(iv.elements[x])}"
                )

    # HC4 in full: unions that are not antichains must admit no completion
    for zmask in antichains:
        ext = [j for j in bits(frontier & ~zmask) if (zmask | 1 << j) in is_antichain]
        for ai in range(len(ext)):
            for bi in range(ai + 1, len(ext)):
                a, b = ext[ai], ext[bi]
                if incomp[a] >> b & 1:
                    continue  # union is an antichain: covered by construction
                m1 = theta[zmask | 1 << a]
                m2 = theta[zmask | 1 << b]
                if m1 != m2 and out_mask[m1] & out_mask[m2]:
                    raise ClusterError(
                        "HC4 violated", f"x={format_perm(iv.elements[x])}"
                    )

    return HypercubeCluster(base=x, frontier=frontier, images=theta)


# ---------------------------------------------------------------------------
# strong hypercube decompositions


@dataclass(frozen=True)
class HypercubeDecomposition:
    interval: BruhatInterval
    z: int
    ideal: int
    clusters: dict[int, HypercubeCluster]

    @property
    def proper(self) -> bool:
        return self.z != self.interval.size - 1


@dataclass(frozen=True)
class HcdCheck:
    ok: bool
    failed_axiom: Optional[str] = None
    reason: Optional[str] = None
    decomposition: Optional[HypercubeDecomposition] = None


def check_strong_hcd(iv: BruhatInterval, z: int) -> HcdCheck:
    """Check HD1-HD3 for the ideal [u, z]; on success the decomposition is
    returned inside the check result."""
    if not 0 <= z < iv.size:
        raise ValueError(f"z = {z} is not an element index of the interval")
    ideal = iv.down_mask[z]
    if not is_diamond_closed(iv, ideal):
        return HcdCheck(False, "HD2", f"[u, {format_perm(iv.elements[z])}] is not diamond-closed")
    clusters: dict[int, HypercubeCluster] = {}
    for x in bits(ideal):
        try:
            clusters[x] = build_cluster(iv, z, x)
        except ClusterError as err:
            return HcdCheck(
                False,
                "HD3",
                f"no cluster at {format_perm(iv.elements[x])}: {err.reason}",
            )
    return HcdCheck(
        True,
        decomposition=HypercubeDecomposition(
            interval=iv, z=z, ideal=ideal, clusters=clusters
        ),
    )


def htilde(iv: BruhatInterval, hcd: HypercubeDecomposition) -> QPoly:
    """Sum over x in the ideal and antichains Y with theta(Y) = v of
    q^|Y| R-tilde(u, x)."""
    top = iv.size - 1
    acc = ZERO
    for x in bits(hcd.ideal):
        hits = [y.bit_count() for y, img in hcd.clusters[x].images.items() if img == top]
        if hits:
            rt = rtilde_from_r(iv.bottom, iv.elements[x])
            for k in hits:
                acc = qp_add(acc, qp_shift(rt, k))
    return acc


# ---------------------------------------------------------------------------
# the standard decomposition


def first_disagreement(u: Perm, v: Perm) -> int:
    """The smallest value whose position differs between u and v."""
    iu, iv_ = inverse(u), inverse(v)
    for d in range(1, len(u) + 1):
        if iu[d - 1] != iv_[d - 1]:
            return d
    raise ValueError("u and v coincide")


def standard_hcd(iv: BruhatInterval) -> HypercubeDecomposition:
    """The standard decomposition (Blundell-Buesing-Davies-Velickovic-
    Williamson, arXiv:2111.15161), read on [u, v] itself at the smallest
    disagreeing value d.

    The values 1..d-1 sit at the same positions in every element of [u, v],
    so the ideal is {x : x(p) = d} for p = u^-1(d), the frontier of each x
    is reached by moving d to a later position, and the cluster maps are
    given by an explicit right-multiplication cycle formula through p.

    The result is validated: it must agree exactly with the clusters rebuilt
    by diamond completion, so a successful return is a verified strong
    decomposition.
    """
    u, v = iv.bottom, iv.top
    if u == v:
        raise ValueError("the interval must have positive length")
    d = first_disagreement(u, v)
    p = u.index(d) + 1  # position of the value d, fixed across the ideal
    ideal = sum(1 << i for i, x in enumerate(iv.elements) if x[p - 1] == d)

    z = ideal.bit_length() - 1  # the top of the ideal, if it is [u, z]
    if iv.down_mask[z] != ideal:
        raise InvariantViolation("standard ideal is not a lower interval [u, z]")
    if z == iv.size - 1:
        raise InvariantViolation("standard ideal must be proper")

    clusters: dict[int, HypercubeCluster] = {}
    for i in bits(ideal):
        x = iv.elements[i]
        frontier = iv.out_mask[i] & ~ideal
        position: dict[int, int] = {}
        for j in bits(frontier):
            pos_of_d = iv.elements[j].index(d) + 1
            if pos_of_d <= p or right_cycle(x, (p, pos_of_d)) != iv.elements[j]:
                raise InvariantViolation("frontier element is not a cycle image")
            position[j] = pos_of_d
        images: dict[int, int] = {0: i}
        sub = 0
        while sub := (sub - frontier) & frontier:  # nonempty subsets, ascending
            pos_list = sorted(position[j] for j in bits(sub))
            decreasing = all(x[a - 1] > x[b - 1] for a, b in zip(pos_list, pos_list[1:]))
            antichain = all(
                sub & (iv.up_mask[j] | iv.down_mask[j]) == 1 << j for j in bits(sub)
            )
            if antichain != decreasing:
                raise InvariantViolation(
                    "antichains do not match decreasing position sets"
                )
            if not antichain:
                continue
            target = right_cycle(x, (p, *pos_list))
            j = iv.index.get(target)
            if j is None:
                raise InvariantViolation("cycle image left the interval")
            images[sub] = j
        clusters[i] = HypercubeCluster(base=i, frontier=frontier, images=images)

    # the explicit formula must agree with the generic diamond-completion
    # construction; this also certifies HD1-HD3
    verdict = check_strong_hcd(iv, z)
    if not verdict.ok:
        raise InvariantViolation(
            f"standard decomposition failed {verdict.failed_axiom}: {verdict.reason}"
        )
    rebuilt = verdict.decomposition
    for i in bits(ideal):
        if rebuilt.clusters[i].images != clusters[i].images:
            raise InvariantViolation(
                "standard cluster disagrees with the rebuilt cluster"
            )
    return HypercubeDecomposition(
        interval=iv, z=z, ideal=ideal, clusters=clusters
    )


# ---------------------------------------------------------------------------
# simplicity and the coset form of diamond-closed ideals


def is_simple(iv: BruhatInterval) -> bool:
    """True iff the roots of the atom reflections are linearly independent,
    that is, iff the atom edges {i, j} form a forest on {1..n}."""
    return root_forest(iv.n, (t for _, t in atom_indices(iv))) is not None


def coset_ideal_form(iv: BruhatInterval, mask: int) -> tuple[tuple[int, ...], ...]:
    """For a diamond-closed order ideal of a simple interval: the partition
    of {1..n} whose block permutations generate the reflection subgroup W'
    with ideal = [u, v] with x W'-related to u.

    Verifies ideal == {x : x u^-1 preserves every block}; failure to verify
    is an internal alarm, not an input error.
    """
    if not is_simple(iv):
        raise ValueError("the interval must be simple")
    for x in bits(mask):
        if iv.down_mask[x] & ~mask:
            raise ValueError("ideal is not a lower set")
    if not is_diamond_closed(iv, mask):
        raise ValueError("ideal is not diamond-closed")

    comp = root_forest(iv.n, (t for j, t in atom_indices(iv) if mask >> j & 1))
    blocks: dict[int, list[int]] = {}
    for a in range(1, iv.n + 1):
        blocks.setdefault(comp[a], []).append(a)
    partition = tuple(tuple(sorted(b)) for b in sorted(blocks.values()))

    block_of = {}
    for b in partition:
        for a in b:
            block_of[a] = b
    u_inv = inverse(iv.bottom)
    coset = 0
    for idx, x in enumerate(iv.elements):
        pi = tuple(x[u_inv[k - 1] - 1] for k in range(1, iv.n + 1))  # x * u^-1
        if all(block_of[k] is block_of[pi[k - 1]] for k in range(1, iv.n + 1)):
            coset |= 1 << idx
    if coset != mask:
        raise InvariantViolation(
            "diamond-closed ideal is not the coset intersection predicted"
        )
    return partition


# ---------------------------------------------------------------------------
# special matchings


def special_matchings(iv: BruhatInterval) -> list[tuple[int, ...]]:
    """All special matchings of the Hasse diagram: involutions M matching
    every element to a cover or cocover, such that every cover x < y with
    M(x) != y has M(x) < M(y).  Exhaustive backtracking, matching elements
    lowest-index-first so ranks are paired off early."""
    m = iv.size
    if m % 2:
        return []
    nbrs: list[list[int]] = [[] for _ in range(m)]
    touching: list[list[tuple[int, int]]] = [[] for _ in range(m)]
    for a, b in iv.hasse_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
        touching[a].append((a, b))
        touching[b].append((a, b))
    for lst in nbrs:
        lst.sort()

    partner = [-1] * m
    results: list[tuple[int, ...]] = []

    def edge_ok(a: int, b: int) -> bool:
        pa, pb = partner[a], partner[b]
        if pa < 0 or pb < 0:
            return True
        if pa == b:
            return True
        return pa != pb and iv.leq(pa, pb)

    # an explicit stack of (x, next candidate index into nbrs[x]), one frame
    # per matched pair x <-> partner[x]
    resume: list[tuple[int, int]] = []
    x, k = 0, 0
    while True:
        while x < m and partner[x] >= 0:
            x += 1
        if x == m:
            results.append(tuple(partner))
        while x < m and k < len(nbrs[x]):
            w = nbrs[x][k]
            k += 1
            if partner[w] >= 0:
                continue
            partner[x] = w
            partner[w] = x
            if all(edge_ok(a, b) for a, b in touching[x]) and all(
                edge_ok(a, b) for a, b in touching[w]
            ):
                resume.append((x, k))
                x, k = x + 1, 0
                break
            partner[x] = -1
            partner[w] = -1
        else:
            if not resume:
                return results
            x, k = resume.pop()
            partner[partner[x]] = -1
            partner[x] = -1
