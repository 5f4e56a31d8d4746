"""
Diamonds, strong hypercube clusters and decompositions, the standard
decomposition, the H-tilde polynomial, simplicity, coset form of
diamond-closed ideals, and special matchings.

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

Clusters are built in one pass over the antichains, level by level: the
pairs of extensions of each antichain either grow the level two sizes up
(incomparable pairs) or are checked against HC4 (comparable ones).  Every
completion must exist, agree and be unique, for every pair of removed
elements; these construction errors raise at once, and an HC4 witness is
reported only once every level is built.  This is the one cluster
construction: the standard decomposition takes its clusters from it and
checks the explicit cycle formula on them.  Every check is local to one
antichain, so a cluster on a frontier F restricts to a cluster on every
F' inside F: a scan over z keeps the clusters it built and restricts one
whose frontier covers the next z's instead of building again.  Ideals,
frontiers and antichains are bitmasks over the interval's element indices,
and diamonds are plain (x1, x2, x3, x4) tuples of them.  HD2 is decided
inside [u, z]: a lower set holds three vertices of a diamond only as x1,
x2 and x3, so it fails iff two members with a common in-neighbour have a
common out-neighbour outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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


def enumerate_diamonds(iv: BruhatInterval) -> list[tuple[int, int, int, int]]:
    """All diamonds of the Bruhat graph, each once, as (x1, x2, x3, x4) with
    x2 < x3 by index."""
    out = []
    out_mask = iv.out_mask
    for x1, targets in enumerate(out_mask):
        for x2 in bits(targets):
            for x3 in bits(targets >> (x2 + 1) << (x2 + 1)):
                for x4 in bits(out_mask[x2] & out_mask[x3]):
                    out.append((x1, x2, x3, x4))
    return out


def _closed_lower_set(iv: BruhatInterval, ideal: int) -> bool:
    """HD2 for a lower set: True iff no diamond has exactly three vertices
    in it (see the module docstring).  False at the first x3 in some
    out_mask[x1] & ideal that shares an out-neighbour outside the set with
    an earlier x2 there."""
    out_mask = iv.out_mask
    outside = ~ideal
    for x1 in bits(ideal):
        seen = 0  # out-neighbours outside the set of the x2 so far
        for x3 in bits(out_mask[x1] & ideal):
            leaving = out_mask[x3] & outside
            if leaving & seen:
                return False
            seen |= leaving
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


def build_cluster(iv: BruhatInterval, z: int, x: int) -> HypercubeCluster:
    """Construct the strong hypercube cluster at x relative to the ideal
    [u, z], or raise ClusterError when none exists.

    One pass over the antichains of the frontier, level by level.  The round
    at size k walks every pair a < b of extensions of each antichain Y of
    size k: Y + a + b joins the level k + 2 when a and b are incomparable,
    and when they are comparable, theta(Y + a) != theta(Y + b) with a common
    out-neighbour is a witness against HC4.  Singletons are forced; each new
    level is then built in ascending mask order, theta(Y) being the
    completion through every pair of members of Y, which must exist, agree
    and be unique.  That makes theta(Y) a common out-neighbour of every
    theta(Y - p), so the edges of HC3 hold by construction; and as Bruhat
    edges rise strictly in index, theta is injective on the subsets of each
    antichain.

    Failure order: a construction error ("hypercube image collapsed", "no
    completion", "ambiguous completion") raises at once, at the first
    antichain in (size, mask) order; "HC4 violated" raises only after every
    level is built.
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
    out_mask = iv.out_mask
    theta: dict[int, int] = {0: x}
    for j in incomp:
        theta[1 << j] = j

    hc4_witness = False
    level, upper = [0], [1 << j for j in incomp]
    while upper:
        grown: set[int] = set()
        for ymask in level:
            ext = [j for j in bits(frontier & ~ymask) if not ymask & ~incomp[j]]
            for ai, a in enumerate(ext):
                ya = ymask | 1 << a
                for b in ext[ai + 1 :]:
                    if incomp[a] >> b & 1:
                        grown.add(ya | 1 << b)
                    elif not hc4_witness:
                        m1, m2 = theta[ya], theta[ymask | 1 << b]
                        hc4_witness = m1 != m2 and bool(out_mask[m1] & out_mask[m2])
        level, upper = upper, sorted(grown)
        for ymask in upper:
            below = [theta[ymask ^ 1 << p] for p in bits(ymask)]
            image: Optional[int] = None
            for ai, m1 in enumerate(below):
                for m2 in below[ai + 1 :]:
                    if m1 == m2:
                        raise ClusterError("hypercube image collapsed", _at(iv, x))
                    common = out_mask[m1] & out_mask[m2]
                    if not common:
                        raise ClusterError("no completion", _at(iv, x))
                    if common & (common - 1):
                        raise ClusterError("ambiguous completion", _at(iv, x))
                    w = common.bit_length() - 1
                    if image is None:
                        image = w
                    elif image != w:
                        raise ClusterError(
                            "ambiguous completion", f"pairs disagree at {_at(iv, x)}"
                        )
            theta[ymask] = image

    if hc4_witness:
        raise ClusterError("HC4 violated", _at(iv, x))
    return HypercubeCluster(base=x, frontier=frontier, images=theta)


def _at(iv: BruhatInterval, x: int) -> str:
    """The base of a failed cluster, as a ClusterError detail."""
    return f"x={format_perm(iv.elements[x])}"


def restrict_cluster(cluster: HypercubeCluster, frontier: int) -> HypercubeCluster:
    """The cluster at the same base on a frontier inside cluster.frontier.

    Every check build_cluster makes is local to one antichain, or to one
    pair of extensions of it, so a cluster on F is a cluster on every
    F' inside F, with theta restricted to the antichains inside F'.  The
    images keep their (size, mask) order, which is build_cluster's.  On
    the same frontier the cluster itself is returned, uncopied."""
    outside = cluster.frontier & ~frontier
    if not outside:
        return cluster
    images = {y: img for y, img in cluster.images.items() if not y & outside}
    return HypercubeCluster(base=cluster.base, frontier=frontier, images=images)


# ---------------------------------------------------------------------------
# strong hypercube decompositions


@dataclass(frozen=True)
class HypercubeDecomposition:
    z: int
    ideal: int
    clusters: dict[int, HypercubeCluster]


@dataclass(frozen=True)
class HcdCheck:
    ok: bool
    failed_axiom: Optional[str] = None
    reason: Optional[str] = None
    decomposition: Optional[HypercubeDecomposition] = None


def check_strong_hcd(
    iv: BruhatInterval,
    z: int,
    known: Optional[dict[int, list[HypercubeCluster]]] = None,
) -> HcdCheck:
    """Check HD1-HD3 for the ideal [u, z]; on success the decomposition is
    returned inside the check result.  HD2 is decided inside [u, z] alone.

    known, if given, maps a base x to clusters of this interval that
    succeeded at x, and is kept up to date: a cluster at x whose frontier
    covers this z's frontier is restricted to it (restrict_cluster) instead
    of built, and every cluster built here is added.  A restricted cluster
    always succeeds, so the first x without a cluster, which the HD3 reason
    names, is always found by a real build_cluster."""
    if not 0 <= z < iv.size:
        raise ValueError(f"z = {z} is not an element index of the interval")
    ideal = iv.down_mask[z]
    if not _closed_lower_set(iv, ideal):
        return HcdCheck(False, "HD2", f"[u, {format_perm(iv.elements[z])}] is not diamond-closed")
    if known is None:
        known = {}
    out_mask = iv.out_mask
    clusters: dict[int, HypercubeCluster] = {}
    for x in bits(ideal):
        frontier = out_mask[x] & ~ideal
        kept = known.setdefault(x, [])
        for cluster in kept:
            if not frontier & ~cluster.frontier:
                clusters[x] = restrict_cluster(cluster, frontier)
                break
        else:
            try:
                clusters[x] = build_cluster(iv, z, x)
            except ClusterError as err:
                return HcdCheck(
                    False,
                    "HD3",
                    f"no cluster at {format_perm(iv.elements[x])}: {err.reason}",
                )
            kept.append(clusters[x])
    return HcdCheck(
        True,
        decomposition=HypercubeDecomposition(z=z, ideal=ideal, clusters=clusters),
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
    so the ideal is {x : x(p) = d} for p = u^-1(d).  Its clusters are the
    ones check_strong_hcd builds by diamond completion, so a successful
    return is a verified strong decomposition.  The explicit formula is then
    checked on them as a certificate: the frontier of each x is reached by
    moving d to a later position, the antichains of the frontier are the
    sets of positions where x decreases, and each cluster image is the
    right-multiplication cycle through p and those positions.
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

    verdict = check_strong_hcd(iv, z)
    if not verdict.ok:
        raise InvariantViolation(
            f"standard decomposition failed {verdict.failed_axiom}: {verdict.reason}"
        )
    hcd = verdict.decomposition
    for i, cluster in hcd.clusters.items():
        x = iv.elements[i]
        position: dict[int, int] = {}
        for j in bits(cluster.frontier):
            pos_of_d = iv.elements[j].index(d) + 1
            if pos_of_d <= p or right_cycle(x, (p, pos_of_d)) != iv.elements[j]:
                raise InvariantViolation("frontier element is not a cycle image")
            position[j] = pos_of_d
        # antichain and decreasing position set are both pairwise conditions
        for a in position:
            for b in bits(cluster.frontier >> (a + 1) << (a + 1)):
                incomparable = not (iv.up_mask[a] | iv.down_mask[a]) >> b & 1
                first, second = sorted((position[a], position[b]))
                if incomparable != (x[first - 1] > x[second - 1]):
                    raise InvariantViolation(
                        "antichains do not match decreasing position sets"
                    )
        for ymask, image in cluster.images.items():
            cycle = (p, *sorted(position[j] for j in bits(ymask)))
            if right_cycle(x, cycle) != iv.elements[image]:
                raise InvariantViolation(
                    "standard cluster disagrees with the cycle formula"
                )
    return hcd


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
    if not _closed_lower_set(iv, mask):
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
