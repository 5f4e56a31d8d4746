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

Clusters are built in one pass over the antichains, level by level, each
antichain grown once from its parent (itself less its highest member).
Every completion must exist, agree and be unique, for every pair of
removed elements; the comparable pairs of extensions of each antichain are
checked against HC4, which a construction error outranks.  Every check is
local to one antichain, or to one antichain and a pair of its extensions,
and theta(Y) does not depend on the ideal; so cluster_record, the one
cluster construction, builds the clusters at x for a whole set of ideals
[u, z] at once, on the union of their frontiers, and reads each z's
verdict off bitmasks: an antichain Y lies inside the frontier of [u, z]
iff z is outside up(Y).  A record is the plain pair (cluster, errors);
build_cluster is its view for one z, and a z-scan makes one record per
base x, for the z above x still alive.  The standard decomposition takes
its clusters from the same construction, and under a z-scan from that
scan's records, as its z is one of the scanned z; it checks the explicit
cycle formula on its own part of them.  Ideals, frontiers and antichains are
bitmasks over the interval's element indices, and diamonds are plain
(x1, x2, x3, x4) tuples of them.  HD2 is decided inside [u, z]: a lower
set holds three vertices of a diamond only as x1, x2 and x3, so it fails
iff two members with a common in-neighbour have a common out-neighbour
outside it.
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
    rest = ideal
    while rest:
        low = rest & -rest
        rest ^= low
        seen = 0  # out-neighbours outside the set of the x2 so far
        inside = out_mask[low.bit_length() - 1] & ideal
        while inside:
            x3 = inside & -inside
            inside ^= x3
            leaving = out_mask[x3.bit_length() - 1] & outside
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


def cluster_record(
    iv: BruhatInterval, x: int, zs: int
) -> tuple[HypercubeCluster, dict[int, ClusterError]]:
    """The clusters at x for every ideal [u, z], z in the mask zs (each
    with x <= z), built once on the union of their frontiers, as the pair
    (cluster, errors).  Never raises: errors maps each z that has no
    cluster at x to its ClusterError.  cluster.frontier is the union of the
    frontiers, and cluster.images, in (size, mask) order, holds theta on
    the antichains inside them: for each z not in errors, on every
    antichain inside its own frontier, which is its cluster.

    Every check is local to one antichain Y, or to Y and a pair of its
    extensions, and theta(Y) does not depend on z; so the cluster for one z
    is the record on the antichains inside its frontier, which are those Y
    with z outside up(Y), the union of the up-sets of the members.  A Y
    whose up(Y) holds every z of zs that has not failed yet lies inside no
    frontier that still needs it: it is skipped, and with it all its
    supersets.

    The antichains grow level by level, each once, from its parent Y minus
    its highest member: its extensions (the frontier elements incomparable
    with all of it) are its parent's that are also incomparable with that
    member.  Singletons are forced; each new level is then completed in
    ascending mask order, theta(Y) being the completion through every pair
    of members of Y, which must exist, agree and be unique.  That makes
    theta(Y) a common out-neighbour of every theta(Y - p), so the edges of
    HC3 hold by construction; and as Bruhat edges rise strictly in index,
    theta is injective on the subsets of each antichain.  Once a level is
    complete, the comparable pairs a < b of extensions of each antichain Y
    below it are walked for HC4: theta(Y + a) != theta(Y + b) with a common
    out-neighbour is a witness against every z outside up(Y + a + b).

    Failure order, for each z: a construction error ("hypercube image
    collapsed", "no completion", "ambiguous completion") at the first
    antichain inside its frontier in (size, mask) order; otherwise "HC4
    violated" if a witness lies inside it.  An antichain that fails gets
    no image, so its supersets are never completed; they lie only inside
    frontiers that already failed.
    """
    out_mask, up_mask, down_mask = iv.out_mask, iv.up_mask, iv.down_mask
    # j is in the frontier of [u, z] iff z is outside up_mask[j]
    frontier = 0
    rest = out_mask[x]
    while rest:
        low = rest & -rest
        rest ^= low
        if zs & ~up_mask[low.bit_length() - 1]:
            frontier |= low
    theta: dict[int, int] = {0: x}
    # by the bit 1 << j of each frontier element j: the frontier elements
    # incomparable with it, those above it, and up_mask[j]
    incomp, above, up_of = {}, {}, {}
    upper = []  # (Y, its extensions, up(Y)) over the level being built
    rest = frontier
    while rest:
        low = rest & -rest
        rest ^= low
        j = low.bit_length() - 1
        up_of[low] = up = up_mask[j]
        incomp[low] = frontier & ~(up | down_mask[j])
        above[low] = (frontier & up) ^ low
        theta[low] = j
        upper.append((low, incomp[low], up))

    dead = 0  # the z with a construction error so far
    errors: dict[int, ClusterError] = {}
    hc4 = 0  # the z with an HC4 witness inside their frontier
    level = [(0, frontier, 0)]
    while upper:
        for ymask, ext, uy in level:
            if not zs & ~(uy | dead | hc4):
                continue
            rest = ext
            while rest:
                low = rest & -rest
                rest ^= low
                # an extension comparable to a and above it in index is
                # above it in the order
                pairs = ext & above[low]
                if not pairs:
                    continue
                m1 = theta.get(ymask | low)
                if m1 is None:
                    continue
                while pairs:
                    high = pairs & -pairs
                    pairs ^= high
                    m2 = theta.get(ymask | high)
                    if m2 is not None and m1 != m2 and out_mask[m1] & out_mask[m2]:
                        # up(b) lies inside up(a), as a < b
                        hc4 |= zs & ~(uy | up_of[low])

        grown = []
        for ymask, ext, uy in upper:
            top = ymask.bit_length()
            rest = ext >> top << top
            while rest:
                low = rest & -rest
                rest ^= low
                up = uy | up_of[low]
                if zs & ~(up | dead):
                    grown.append((ymask | low, ext & incomp[low], up))
        grown.sort()

        level, upper = upper, []
        for entry in grown:
            ymask = entry[0]
            # a superset of a failed antichain serves only failed z, and
            # was not grown
            below = []
            rest = ymask
            while rest:
                low = rest & -rest
                rest ^= low
                below.append(theta[ymask ^ low])
            try:
                theta[ymask] = _completion(iv, x, below)
            except ClusterError as err:
                failed = zs & ~(entry[2] | dead)  # the z it is first to fail
                for z in bits(failed):
                    errors[z] = err
                dead |= failed
                if dead == zs:
                    upper = []
                    break
            else:
                upper.append(entry)

    hc4 &= ~dead
    if hc4:
        err = ClusterError("HC4 violated", _at(iv, x))
        for z in bits(hc4):
            errors[z] = err
    return HypercubeCluster(base=x, frontier=frontier, images=theta), errors


def _completion(iv: BruhatInterval, x: int, below: list[int]) -> int:
    """The common out-neighbour of every pair of the images below an
    antichain, which must exist, be unique and agree across the pairs,
    the pairs taken in order; else the ClusterError of the first pair that
    fails."""
    out_mask = iv.out_mask
    image = -1
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
            if image < 0:
                image = w
            elif image != w:
                raise ClusterError("ambiguous completion", f"pairs disagree at {_at(iv, x)}")
    return image


def build_cluster(iv: BruhatInterval, z: int, x: int) -> HypercubeCluster:
    """The strong hypercube cluster at x relative to the ideal [u, z]:
    cluster_record for z alone, which prunes nothing; raises its
    ClusterError when there is none."""
    if not 0 <= z < iv.size:
        raise ValueError(f"z = {z} is not an element index of the interval")
    if not iv.down_mask[z] >> x & 1:
        raise ValueError("x must belong to [u, z]")
    cluster, errors = cluster_record(iv, x, 1 << z)
    if z in errors:
        raise errors[z]
    return cluster


def _at(iv: BruhatInterval, x: int) -> str:
    """The base of a failed cluster, as a ClusterError detail."""
    return f"x={format_perm(iv.elements[x])}"


# ---------------------------------------------------------------------------
# strong hypercube decompositions


@dataclass(frozen=True)
class HypercubeDecomposition:
    """A strong decomposition [u, z]: clusters[x] is the cluster at each x of
    the ideal.  In a z-scan's decomposition, the standard one read off a
    scan included, it is the record shared by every z it served: the
    cluster of [u, z] is its frontier outside the ideal and the antichains
    that miss the ideal."""

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
    iv: BruhatInterval, z: int, scan: Optional[dict[int, HcdCheck]] = None
) -> HcdCheck:
    """Check HD1-HD3 for the ideal [u, z]; on success the decomposition is
    returned inside the check result.  HD2 is decided inside [u, z] alone.

    scan, if given, is one dict kept across the checks of every z of iv:
    the first call fills it with every z's verdict (_verdicts over all of
    them), and each call reads its own."""
    if not 0 <= z < iv.size:
        raise ValueError(f"z = {z} is not an element index of the interval")
    if scan is None:
        return _verdicts(iv, 1 << z)[z]
    if not scan:
        scan.update(_verdicts(iv, (1 << iv.size) - 1))
    return scan[z]


def _verdicts(iv: BruhatInterval, zs: int) -> dict[int, HcdCheck]:
    """The verdict of every z in the mask zs.

    The z that pass HD2 stay alive while the bases x are taken in index
    order: each x gets one cluster_record for the alive z above it, and a z
    that has no cluster at x fails HD3 there, so its reason names the first
    such x.  A z still alive at the end is strong, with the records at the
    x of its ideal as its clusters."""
    down_mask = iv.down_mask
    checks: dict[int, HcdCheck] = {}
    alive = 0
    for z in bits(zs):
        if _closed_lower_set(iv, down_mask[z]):
            alive |= 1 << z
        else:
            checks[z] = HcdCheck(
                False, "HD2", f"[u, {format_perm(iv.elements[z])}] is not diamond-closed"
            )
    clusters: dict[int, HypercubeCluster] = {}
    for x, above in enumerate(iv.up_mask):
        needed = above & alive
        if not needed:
            continue
        clusters[x], errors = cluster_record(iv, x, needed)
        for z, err in errors.items():
            alive ^= 1 << z
            checks[z] = HcdCheck(
                False, "HD3", f"no cluster at {format_perm(iv.elements[x])}: {err.reason}"
            )
    for z in bits(alive):
        ideal = down_mask[z]
        mine = {x: clusters[x] for x in bits(ideal)}
        checks[z] = HcdCheck(True, decomposition=HypercubeDecomposition(z, ideal, mine))
    return checks


def htilde(iv: BruhatInterval, hcd: HypercubeDecomposition) -> QPoly:
    """Sum over x in the ideal and antichains Y outside it with theta(Y) = v
    of q^|Y| R-tilde(u, x)."""
    top = iv.size - 1
    ideal = hcd.ideal
    acc = ZERO
    for x in bits(ideal):
        hits = [
            y.bit_count()
            for y, img in hcd.clusters[x].images.items()
            if img == top and not y & ideal
        ]
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


def standard_hcd(
    iv: BruhatInterval, scan: Optional[dict[int, HcdCheck]] = None
) -> HypercubeDecomposition:
    """The standard decomposition (Blundell-Buesing-Davies-Velickovic-
    Williamson, arXiv:2111.15161), read on [u, v] itself at the smallest
    disagreeing value d.

    The values 1..d-1 sit at the same positions in every element of [u, v],
    so the ideal is {x : x(p) = d} for p = u^-1(d).  Its clusters are the
    ones check_strong_hcd(iv, z, scan) builds by diamond completion, so a
    successful return is a verified strong decomposition; given a z-scan's
    dict, they are that scan's shared records.  The explicit formula is
    then checked as a certificate on each cluster's own part, its frontier
    outside the ideal and the antichains that miss the ideal: that frontier
    is reached by moving d to a later position, its antichains are the sets
    of positions where x decreases, and each image is the right-
    multiplication cycle through p and those positions.
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

    verdict = check_strong_hcd(iv, z, scan)
    if not verdict.ok:
        raise InvariantViolation(
            f"standard decomposition failed {verdict.failed_axiom}: {verdict.reason}"
        )
    hcd = verdict.decomposition
    for i, cluster in hcd.clusters.items():
        x = iv.elements[i]
        frontier = cluster.frontier & ~ideal
        position: dict[int, int] = {}
        for j in bits(frontier):
            pos_of_d = iv.elements[j].index(d) + 1
            if pos_of_d <= p or right_cycle(x, (p, pos_of_d)) != iv.elements[j]:
                raise InvariantViolation("frontier element is not a cycle image")
            position[j] = pos_of_d
        # antichain and decreasing position set are both pairwise conditions
        for a in position:
            for b in bits(frontier >> (a + 1) << (a + 1)):
                incomparable = not (iv.up_mask[a] | iv.down_mask[a]) >> b & 1
                first, second = sorted((position[a], position[b]))
                if incomparable != (x[first - 1] > x[second - 1]):
                    raise InvariantViolation(
                        "antichains do not match decreasing position sets"
                    )
        for ymask, image in cluster.images.items():
            if ymask & ideal:
                continue  # an antichain of another z of a shared record
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
    up, down = iv.poset.covers
    # covers rise in index, so the cocovers of x come before its covers
    nbrs = [down[x] + up[x] for x in range(m)]

    partner = [-1] * m
    results: list[tuple[int, ...]] = []

    def edge_ok(a: int, b: int) -> bool:
        pa, pb = partner[a], partner[b]
        if pa < 0 or pb < 0:
            return True
        if pa == b:
            return True
        return pa != pb and iv.leq(pa, pb)

    def covers_ok(x: int) -> bool:
        return all(edge_ok(a, x) for a in down[x]) and all(edge_ok(x, b) for b in up[x])

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
            if covers_ok(x) and covers_ok(w):
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
