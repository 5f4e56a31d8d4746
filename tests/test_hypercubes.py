import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bruhat_hypercubes.errors import (
    ClusterError,
    InvariantViolation,
)
from bruhat_hypercubes import cli, hypercubes, intervals
from bruhat_hypercubes.hypercubes import (
    HypercubeCluster,
    build_cluster,
    check_strong_hcd,
    coset_ideal_form,
    enumerate_diamonds,
    first_disagreement,
    htilde,
    is_simple,
    special_matchings,
    standard_hcd,
)
from bruhat_hypercubes.intervals import atom_indices, build_interval, poset_isomorphic
from bruhat_hypercubes.perms import (
    all_perms,
    apply_reflection,
    bruhat_leq,
    compose,
    format_perm,
    identity,
    inverse,
    length,
    longest_element,
    reflections,
    right_cycle,
)
from bruhat_hypercubes.polynomials import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    compare_coefficientwise,
    rtilde_from_r,
)
from bruhat_hypercubes.reflection_orders import (
    check_E_properties,
    lex_order,
    make_order,
    reverse_order,
    rtilde_by_paths,
)

from helpers import (
    bruhat_edges,
    check_cluster_axioms,
    comparable_pairs,
    diamond_closure,
    down_set_masks,
    draw_comparable_pair,
    is_diamond_closed,
    mask_bits,
    random_functional_order,
    reference_cluster,
)


def _successors(iv):
    out = [[] for _ in range(iv.size)]
    for i, j, _ in bruhat_edges(iv):
        out[i].append(j)
    return out


def brute_force_diamonds(iv):
    out = _successors(iv)
    seen = set()
    for x1 in range(iv.size):
        for x2 in out[x1]:
            for x4 in out[x2]:
                for x3 in out[x1]:
                    if x3 != x2 and x4 in out[x3]:
                        a, b = min(x2, x3), max(x2, x3)
                        seen.add((x1, a, b, x4))
    return seen


def test_enumerate_diamonds_counts():
    iv1 = build_interval((1, 2, 3), (2, 1, 3))
    assert enumerate_diamonds(iv1) == []

    iv3 = build_interval((1, 2, 3), (3, 2, 1))
    assert len(enumerate_diamonds(iv3)) == 4

    ivh = build_interval((1, 3, 2, 4), (4, 2, 3, 1))
    got = enumerate_diamonds(ivh)
    # the Bruhat graph here is exactly the 4-hypercube: C(4,2) * 2^2
    assert len(got) == 24
    assert set(got) == brute_force_diamonds(ivh)
    assert all(d[1] < d[2] for d in got)


def test_diamonds_match_brute_force_s4():
    for u, v in comparable_pairs(4)[::13]:
        iv = build_interval(u, v)
        assert set(enumerate_diamonds(iv)) == brute_force_diamonds(iv)


def test_diamond_flip_total_and_involutive_on_intervals():
    # the flip x1 -> x2 -> x4  <->  x1 -> x3 -> x4 is total and involutive
    # on interval edge pairs exactly when every such edge path lies in one
    # diamond: the completing vertex lies in [x1, x4], hence in the interval
    checked = 0
    for u, v in comparable_pairs(4)[::17]:
        iv = build_interval(u, v)
        out = _successors(iv)
        holding: dict = {}
        for x1, x2, x3, x4 in enumerate_diamonds(iv):
            for path in ((x1, x2, x4), (x1, x3, x4)):
                holding[path] = holding.get(path, 0) + 1
        paths = [(x1, x2, x4) for x1 in range(iv.size) for x2 in out[x1] for x4 in out[x2]]
        assert sorted(holding) == sorted(paths), (u, v)
        assert set(holding.values()) <= {1}, (u, v)
        checked += len(paths)
    assert checked > 100


def test_diamond_closure_examples():
    iv = build_interval(identity(3), longest_element(3))
    full = (1 << iv.size) - 1
    assert diamond_closure(iv, full) == full
    assert diamond_closure(iv, 1) == 1
    # three vertices of a diamond pull in the fourth (and then close up)
    seed = 1 | 1 << iv.index[(2, 1, 3)] | 1 << iv.index[(1, 3, 2)]
    closed = diamond_closure(iv, seed)
    assert closed >> iv.index[(2, 3, 1)] & 1 and closed >> iv.index[(3, 1, 2)] & 1


def test_is_diamond_closed_examples():
    iv = build_interval(identity(3), longest_element(3))
    assert is_diamond_closed(iv, (1 << iv.size) - 1)
    assert not is_diamond_closed(
        iv, 1 | 1 << iv.index[(2, 1, 3)] | 1 << iv.index[(1, 3, 2)]
    )


def test_closed_lower_set_against_is_diamond_closed():
    # HD2's test, read inside [u, z], against the scan of every diamond
    checked = unclosed = 0
    for u, v in comparable_pairs(5) + comparable_pairs(6)[::97]:
        iv = build_interval(u, v)
        for z in range(iv.size):
            ideal = iv.down_mask[z]
            expected = not is_diamond_closed(iv, ideal)
            assert hypercubes._closed_lower_set(iv, ideal) != expected, (u, v, z)
            checked += 1
            unclosed += expected
    # every z of 3,781 S_5 and 1,015 S_6 intervals; both verdicts occur
    assert (checked, unclosed) == (102_440, 45_753)


def test_reflection_subgroup_cosets_are_diamond_closed():
    # any subset of reflections generates a product of symmetric groups;
    # its coset through u meets every interval in a diamond-closed set
    rng = random.Random(5)
    T = reflections(4)
    for trial in range(25):
        gens = rng.sample(T, rng.randrange(1, 4))
        parent = list(range(5))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in gens:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
        u, v = comparable_pairs(4)[rng.randrange(len(comparable_pairs(4)))]
        iv = build_interval(u, v)
        coset = sum(
            1 << i
            for i, x in enumerate(iv.elements)
            if all(find(k) == find(compose(x, inverse(u))[k - 1]) for k in range(1, 5))
        )
        assert is_diamond_closed(iv, coset), (gens, u, v)


def test_lemma_dc_of_atoms_recovers_ideal_s4():
    # every nonempty diamond-closed order ideal is the diamond closure of
    # {u} together with its atoms; checked over every order ideal of every
    # interval of S_4
    for u, v in comparable_pairs(4):
        iv = build_interval(u, v)
        atom_mask = sum(1 << j for j, _ in atom_indices(iv))
        for mask in down_set_masks(iv):
            if not mask:
                continue
            if not is_diamond_closed(iv, mask):
                continue
            seed = 1 | (atom_mask & mask)
            assert diamond_closure(iv, seed) == mask, (u, v, mask)


def matches_reference(iv, z, x):
    """build_cluster(iv, z, x) against reference_cluster: the same cluster,
    images in the same order, or the same ClusterError (reason and
    detail); returns the cluster, or None."""
    try:
        want = reference_cluster(iv, z, x)
    except ClusterError as err:
        with pytest.raises(ClusterError) as got:
            build_cluster(iv, z, x)
        assert (got.value.reason, str(got.value)) == (err.reason, str(err))
        return None
    got = build_cluster(iv, z, x)
    assert got.base == want.base and got.frontier == want.frontier
    assert list(got.images.items()) == list(want.images.items())
    return got


def test_build_cluster_trivial_and_hypercube():
    iv = build_interval((1, 2, 3), (2, 1, 3))
    # ideal is everything: empty frontier
    cl = matches_reference(iv, 1, 1)
    assert cl.frontier == 0 and cl.images == {0: 1}

    ivh = build_interval((1, 3, 2, 4), (4, 2, 3, 1))
    cl = matches_reference(ivh, 0, 0)
    assert cl.frontier.bit_count() == 4
    assert len(cl.images) == 16  # every subset of the atoms is an antichain
    assert cl.images[cl.frontier] == ivh.size - 1


def test_build_cluster_equals_reference_cluster_s4():
    # every base x of every ideal [u, z] of every S_4 interval
    built = failed = 0
    for u, v in comparable_pairs(4):
        iv = build_interval(u, v)
        for z in range(iv.size):
            for x in mask_bits(iv.down_mask[z]):
                if matches_reference(iv, z, x) is None:
                    failed += 1
                else:
                    built += 1
    assert (built, failed) == (3_673, 292)


def test_build_cluster_failure_modes():
    iv = build_interval(identity(3), longest_element(3))
    with pytest.raises(ClusterError) as err:
        build_cluster(iv, 0, 0)
    assert err.value.reason == "ambiguous completion"
    assert matches_reference(iv, 0, 0) is None
    z = iv.index[(1, 3, 2)]  # [u, z] = {123, 132}
    assert matches_reference(iv, z, 0).base == 0
    with pytest.raises(ValueError):
        build_cluster(iv, z, iv.index[(2, 3, 1)])  # x outside [u, z]
    with pytest.raises(ValueError):
        build_cluster(iv, iv.size, 0)  # z out of range
    with pytest.raises(ValueError):
        build_cluster(iv, -1, 0)  # no wrap-around to the top


def test_build_cluster_final_hc4_pass_fires_s5():
    # verify 5 --exhaustive-z reports "HC4 violated" at u = 12345,
    # v = 14532, z = 12435, x = u: every completion over an antichain union
    # exists and is unique, yet two images over a union that is not an
    # antichain still have a common out-neighbour
    iv = build_interval((1, 2, 3, 4, 5), (1, 4, 5, 3, 2))
    z, x = iv.index[(1, 2, 4, 3, 5)], 0
    with pytest.raises(ClusterError) as err:
        build_cluster(iv, z, x)
    assert err.value.reason == "HC4 violated"
    assert matches_reference(iv, z, x) is None

    # the same witness from the masks alone: theta by unique completion,
    # antichain by antichain, then a completion over a non-antichain union
    members = list(mask_bits(iv.out_mask[x] & ~iv.down_mask[z]))

    def comparable(a: int, b: int) -> bool:
        return bool((iv.up_mask[a] | iv.down_mask[a]) >> b & 1)

    theta = {0: x, **{1 << j: j for j in members}}
    level = list(theta)[1:]
    while level:
        level = [
            y | 1 << j
            for y in level
            for j in members
            if j > y.bit_length() - 1 and not any(comparable(j, k) for k in mask_bits(y))
        ]
        for y in level:
            p, q = list(mask_bits(y))[:2]
            common = iv.out_mask[theta[y ^ 1 << p]] & iv.out_mask[theta[y ^ 1 << q]]
            assert common.bit_count() == 1
            theta[y] = common.bit_length() - 1
    witnesses = [
        (y, a, b)
        for y in theta
        for a, b in itertools.combinations(members, 2)
        if comparable(a, b)
        and y | 1 << a in theta
        and y | 1 << b in theta
        and theta[y | 1 << a] != theta[y | 1 << b]
        and iv.out_mask[theta[y | 1 << a]] & iv.out_mask[theta[y | 1 << b]]
    ]
    assert witnesses


def test_build_cluster_construction_errors_win_over_hc4():
    # at u = 12345, v = 15432, z = x = u the cluster fails two ways: the
    # first 2-antichain has two completions, and two comparable frontier
    # elements share an out-neighbour; the construction error is the one
    # reported, since "HC4 violated" waits until every level is built
    iv = build_interval((1, 2, 3, 4, 5), (1, 5, 4, 3, 2))
    z = x = 0
    with pytest.raises(ClusterError) as err:
        build_cluster(iv, z, x)
    assert err.value.reason == "ambiguous completion"
    assert matches_reference(iv, z, x) is None
    assert check_strong_hcd(iv, z).reason == "no cluster at 12345: ambiguous completion"

    # both failures from the masks alone, among the singletons theta({j}) = j
    members = list(mask_bits(iv.out_mask[x] & ~iv.down_mask[z]))

    def comparable(a: int, b: int) -> bool:
        return bool((iv.up_mask[a] | iv.down_mask[a]) >> b & 1)

    pairs = list(itertools.combinations(members, 2))
    _, a, b = min((1 << a | 1 << b, a, b) for a, b in pairs if not comparable(a, b))
    assert (iv.out_mask[a] & iv.out_mask[b]).bit_count() == 2
    assert any(comparable(a, b) and iv.out_mask[a] & iv.out_mask[b] for a, b in pairs)


def _hand_built(edges: dict[int, tuple[int, ...]], rank: list[int]):
    """An interval over dummy elements 0, 1, ... with these edges, which
    must rise in index, and ranks."""
    elements = [(k,) for k in range(len(rank))]
    out_mask = [sum(1 << j for j in edges.get(i, ())) for i in range(len(rank))]
    return intervals._closed(elements, {x: i for i, x in enumerate(elements)}, rank, out_mask)


def test_build_cluster_raises_on_a_collapsed_image():
    # the three 2-antichains of the frontier {1, 2, 3} all complete to 4,
    # so the images below {1, 2, 3} coincide
    iv = _hand_built({0: (1, 2, 3), 1: (4,), 2: (4,), 3: (4,)}, [0, 1, 1, 1, 2])
    with pytest.raises(ClusterError) as err:
        build_cluster(iv, 0, 0)
    assert err.value.reason == "hypercube image collapsed"
    assert str(err.value) == "hypercube image collapsed: x=0"
    assert matches_reference(iv, 0, 0) is None


def test_build_cluster_raises_when_pair_completions_disagree():
    # every pair completion is unique: {1, 2} -> 4, {1, 3} -> 5, {2, 3} -> 6;
    # over {1, 2, 3}, the pair (6, 5) completes to 7 but (6, 4) to 8
    edges = {0: (1, 2, 3), 1: (4, 5), 2: (4, 6), 3: (5, 6), 4: (8, 9), 5: (7, 9), 6: (7, 8)}
    iv = _hand_built(edges, [0, 1, 1, 1, 2, 2, 2, 3, 3, 3])
    with pytest.raises(ClusterError) as err:
        build_cluster(iv, 0, 0)
    assert err.value.reason == "ambiguous completion"
    assert str(err.value) == "ambiguous completion: pairs disagree at x=0"
    assert matches_reference(iv, 0, 0) is None


def test_cluster_axiom_oracle_rejects_tampered_clusters():
    ivh = build_interval((1, 3, 2, 4), (4, 2, 3, 1))
    cl = build_cluster(ivh, 0, 0)
    check_cluster_axioms(ivh, 1, cl)
    a, b = [y for y in cl.images if y.bit_count() == 2][:2]
    swapped = {**cl.images, a: cl.images[b], b: cl.images[a]}
    missing = {y: img for y, img in cl.images.items() if y != cl.frontier}
    for images in (swapped, missing, {**cl.images, 0: 1}):
        with pytest.raises(AssertionError):
            check_cluster_axioms(ivh, 1, hypercubes.HypercubeCluster(0, cl.frontier, images))
    with pytest.raises(AssertionError):
        check_cluster_axioms(ivh, 0b11, cl)  # the frontier of another ideal


def test_strong_clusters_satisfy_the_axioms_s5():
    # build_cluster checks neither HC3 nor injectivity, which hold by
    # construction; the oracle re-checks every axiom on every cluster of
    # every strong [u, z] of S_5
    strong = clusters = 0
    for u, v in comparable_pairs(5):
        iv = build_interval(u, v)
        for z in range(iv.size):
            chk = check_strong_hcd(iv, z)
            if chk.ok:
                strong += 1
                for cluster in chk.decomposition.clusters.values():
                    check_cluster_axioms(iv, chk.decomposition.ideal, cluster)
                    clusters += 1
    assert (strong, clusters) == (25_490, 158_091)


def test_standard_clusters_satisfy_the_axioms_s6():
    # every 194th S_6 pair keeps this under a few seconds
    checked = 0
    for u, v in comparable_pairs(6)[::194]:
        if u == v:
            continue
        iv = build_interval(u, v)
        hcd = standard_hcd(iv)
        for cluster in hcd.clusters.values():
            check_cluster_axioms(iv, hcd.ideal, cluster)
        checked += 1
    assert checked == 500


def recorded(monkeypatch, run):
    """The records cluster_record makes while run() runs, as
    (x, zs, (cluster, errors)) in the order they are made."""
    made = []
    real = hypercubes.cluster_record

    def recording(iv, x, zs):
        record = real(iv, x, zs)
        made.append((x, zs, record))
        return record

    with monkeypatch.context() as patch:
        patch.setattr(hypercubes, "cluster_record", recording)
        run()
    return made


def z_scan(iv):
    """The verdicts of one z-scan of iv, the scan cli.analyze_interval runs."""
    verdicts: dict = {}
    for z in range(iv.size):
        check_strong_hcd(iv, z, verdicts)
    return verdicts


def scan_records(monkeypatch, iv):
    """The records of one z-scan of iv."""
    return recorded(monkeypatch, lambda: z_scan(iv))


def test_scan_records_agree_with_reference_clusters_s5(monkeypatch):
    # every record of the z-scan of every S_5 interval, at every z it
    # serves: the antichains inside that z's frontier are reference_cluster's
    # in its (size, mask) order and pass the axiom oracle, or the record
    # gives that z the reference's error
    served = failed = 0
    for u, v in comparable_pairs(5):
        iv = build_interval(u, v)
        for x, zs, (cluster, errors) in scan_records(monkeypatch, iv):
            for z in mask_bits(zs):
                ideal = iv.down_mask[z]
                try:
                    want = reference_cluster(iv, z, x)
                except ClusterError as err:
                    got = errors[z]
                    assert (got.reason, str(got)) == (err.reason, str(err)), (u, v, z, x)
                    failed += 1
                    continue
                assert z not in errors
                inside = [(y, img) for y, img in cluster.images.items() if not y & ideal]
                assert inside == list(want.images.items()), (u, v, z, x)
                check_cluster_axioms(iv, ideal, HypercubeCluster(x, want.frontier, dict(inside)))
                served += 1
    assert (served, failed) == (158_262, 9_304)


def test_a_scan_makes_one_record_per_element_s5(monkeypatch):
    # one record per base x serves every z above it, so a scan makes at most
    # one per element; in S_5 every element gets one, where building per z
    # takes 167,566 clusters.  The sweep's report makes no more: under the
    # scan, the standard decomposition reads its clusters off it, and alone
    # it makes one record per element of its ideal
    records = reported = standard_only = 0
    for u, v in comparable_pairs(5):
        iv = build_interval(u, v)
        bases = [x for x, _, _ in scan_records(monkeypatch, iv)]
        assert bases == list(range(iv.size))
        records += len(bases)
        reported += len(recorded(monkeypatch, lambda: cli.analyze_interval(iv, True)))
        standard_only += len(recorded(monkeypatch, lambda: cli.analyze_interval(iv, False)))
    assert records == reported == 52_800
    assert standard_only == 18_134


def test_a_record_skips_antichains_in_no_single_frontier():
    # [123, 231] at x = u: [u, 132] leaves the frontier {213}, [u, 213]
    # leaves {132}.  {132, 213} is an antichain of the union of the two,
    # inside neither, so their record gives it no image; [u, u] alone
    # leaves both, and its cluster completes the pair to 231
    iv = build_interval((1, 2, 3), (2, 3, 1))
    a, b = iv.index[(1, 3, 2)], iv.index[(2, 1, 3)]
    pair = 1 << a | 1 << b
    assert not (iv.up_mask[a] | iv.down_mask[a]) >> b & 1
    cluster, errors = hypercubes.cluster_record(iv, 0, pair)  # z = 132 and 213
    assert cluster.frontier == pair and not errors
    assert cluster.images == {0: 0, 1 << a: a, 1 << b: b}
    assert build_cluster(iv, 0, 0).images[pair] == iv.index[(2, 3, 1)]


def test_is_strong_hcd_examples():
    ivh = build_interval((1, 3, 2, 4), (4, 2, 3, 1))
    assert check_strong_hcd(ivh, 0).ok
    # z = v: improper but always strong, with empty frontiers
    chk = check_strong_hcd(ivh, ivh.size - 1)
    assert chk.ok and chk.decomposition.z == ivh.size - 1
    assert htilde(ivh, chk.decomposition) == rtilde_from_r(ivh.bottom, ivh.top)

    iv3 = build_interval(identity(3), longest_element(3))
    chk = check_strong_hcd(iv3, 0)
    assert not chk.ok and chk.failed_axiom == "HD3"
    chk = check_strong_hcd(iv3, iv3.index[(2, 3, 1)])
    assert not chk.ok and chk.failed_axiom == "HD2"
    with pytest.raises(ValueError):
        check_strong_hcd(iv3, 99)


def test_remark_strict_inequality_witness_is_strong():
    u, v, z = (1, 3, 2, 5, 4, 6), (6, 5, 1, 2, 3, 4), (6, 1, 2, 3, 4, 5)
    iv = build_interval(u, v)
    chk = check_strong_hcd(iv, iv.index[z])
    assert chk.ok
    h = htilde(iv, chk.decomposition)
    rt = rtilde_from_r(u, v)
    assert compare_coefficientwise(h, rt) == GREATER_EQUAL and h != rt


def test_standard_hcd_examples():
    # d is computed from inverse one-line notations
    assert first_disagreement((1, 3, 2, 5, 4, 6), (6, 5, 1, 2, 3, 4)) == 1
    assert first_disagreement((1, 2, 3), (1, 3, 2)) == 2

    iv = build_interval(identity(3), longest_element(3))
    hcd = standard_hcd(iv)
    assert {format_perm(iv.elements[i]) for i in mask_bits(hcd.ideal)} == {"123", "132"}
    assert hcd.z != iv.size - 1  # proper

    # length-one interval: ideal {u}, single cluster with frontier {v}
    iv1 = build_interval((1, 2, 3), (2, 1, 3))
    hcd1 = standard_hcd(iv1)
    assert hcd1.ideal == 1
    assert hcd1.clusters[0].frontier == 0b10
    assert htilde(iv1, hcd1) == (0, 1)

    with pytest.raises(ValueError):
        standard_hcd(build_interval((1, 2, 3), (1, 2, 3)))


def test_standard_ideal_of_strict_inequality_interval():
    u, v = (1, 3, 2, 5, 4, 6), (6, 5, 1, 2, 3, 4)
    iv = build_interval(u, v)
    hcd = standard_hcd(iv)
    # the ideal fixes the position of the value 1; it is NOT [u, 612345]
    assert all(iv.elements[i][0] == 1 for i in mask_bits(hcd.ideal))
    assert iv.elements[hcd.z] != (6, 1, 2, 3, 4, 5)
    assert htilde(iv, hcd) == rtilde_from_r(u, v)


def test_standard_hcd_with_nontrivial_standardization():
    # d > 1: the ideal fixes the position of the value d, not of 1, and the
    # cycle formula runs through that position on [u, v] itself
    pairs = [(u, v) for u, v in comparable_pairs(4) if u != v and first_disagreement(u, v) > 1]
    assert pairs
    for u, v in pairs[::3]:
        iv = build_interval(u, v)
        hcd = standard_hcd(iv)
        d = first_disagreement(u, v)
        pos = inverse(u)[d - 1]
        assert all(inverse(iv.elements[i])[d - 1] == pos for i in mask_bits(hcd.ideal))
        assert htilde(iv, hcd) == rtilde_from_r(u, v)


def test_standard_hcd_builds_no_second_interval(monkeypatch):
    # every d > 1 interval of S_4 is decomposed on the interval it is given
    pairs = [(u, v) for u, v in comparable_pairs(4) if u != v and first_disagreement(u, v) > 1]
    ivs = [build_interval(u, v) for u, v in pairs]

    def refuse(u, v):
        raise AssertionError("standard_hcd built an interval")

    monkeypatch.setattr(hypercubes, "build_interval", refuse)
    for iv in ivs:
        hcd = standard_hcd(iv)
        assert htilde(iv, hcd) == rtilde_from_r(iv.bottom, iv.top)


def standard_both_ways(u, v):
    """standard_hcd on [u, v] alone, and on the shared records of a filled
    z-scan: one callable each, on a fresh interval."""
    alone, shared = build_interval(u, v), build_interval(u, v)
    return [lambda: standard_hcd(alone), lambda: standard_hcd(shared, z_scan(shared))]


def test_standard_hcd_reads_its_own_clusters_off_the_scan_s5():
    # the shared records hold the standard z's clusters: its own part of
    # each (the frontier outside the ideal, the antichains that miss it) is
    # what standard_hcd builds alone, in the same order
    checked = 0
    for u, v in comparable_pairs(5):
        if u == v:
            continue
        iv = build_interval(u, v)
        alone = standard_hcd(iv)
        shared = standard_hcd(iv, z_scan(iv))
        assert (shared.z, shared.ideal) == (alone.z, alone.ideal)
        assert list(shared.clusters) == list(alone.clusters)
        for x, cluster in shared.clusters.items():
            own = [(y, img) for y, img in cluster.images.items() if not y & alone.ideal]
            assert own == list(alone.clusters[x].images.items()), (u, v, x)
            assert cluster.frontier & ~alone.ideal == alone.clusters[x].frontier
        checked += 1
    assert checked == 3_661


def test_standard_certificate_rejects_a_wrong_cycle_formula(monkeypatch):
    # the cycle formula is checked on the clusters diamond completion built,
    # alone or shared with a z-scan, so a wrong formula makes standard_hcd
    # raise wherever it matters
    ivs = [build_interval(u, v) for u, v in comparable_pairs(4) if u != v]
    wide = [
        max(y.bit_count() for c in standard_hcd(iv).clusters.values() for y in c.images) >= 2
        for iv in ivs
    ]
    assert 0 < sum(wide) < len(ivs)

    # run backwards, a 2-cycle is the same transposition, so the frontier
    # still checks out and only the images of antichains of size >= 2 go wrong
    monkeypatch.setattr(hypercubes, "right_cycle", lambda w, c: right_cycle(w, c[::-1]))
    for iv, has_wide in zip(ivs, wide):
        for call in standard_both_ways(iv.bottom, iv.top):
            if has_wide:
                with pytest.raises(InvariantViolation) as err:
                    call()
                assert "frontier" not in str(err.value)
            else:
                call()

    monkeypatch.setattr(hypercubes, "right_cycle", lambda w, c: w)
    for iv, has_wide in zip(ivs, wide):
        for call in standard_both_ways(iv.bottom, iv.top):
            if has_wide:
                with pytest.raises(InvariantViolation, match="frontier element is not a cycle image"):
                    call()


def test_standard_certificate_rejects_a_wrong_antichain(monkeypatch):
    # after the real clusters are built, mark one incomparable frontier pair
    # of the standard ideal comparable: the pairwise test of standard_hcd
    # must see that the positions still decrease there
    real = hypercubes.check_strong_hcd

    def tampered(iv, z, scan=None):
        verdict = real(iv, z, scan)
        hcd = verdict.decomposition
        a, b = next(
            mask_bits(y)
            for cluster in hcd.clusters.values()
            for y in cluster.images
            if y.bit_count() == 2 and not y & hcd.ideal
        )
        iv.up_mask = tuple(m | 1 << b if i == a else m for i, m in enumerate(iv.up_mask))
        return verdict

    wide = [
        (u, v)
        for u, v in comparable_pairs(4)
        if u != v
        and any(
            y.bit_count() == 2
            for cluster in standard_hcd(build_interval(u, v)).clusters.values()
            for y in cluster.images
        )
    ]
    assert wide
    monkeypatch.setattr(hypercubes, "check_strong_hcd", tampered)
    for u, v in wide:
        for call in standard_both_ways(u, v):
            with pytest.raises(InvariantViolation, match="antichains do not match"):
                call()


def test_standard_hcd_proper_on_all_s4():
    for u, v in comparable_pairs(4):
        if u != v:
            iv = build_interval(u, v)
            hcd = standard_hcd(iv)
            assert hcd.ideal.bit_count() < iv.size


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_standard_htilde_equals_paths_rtilde_s6_s7(data):
    # H~ of the standard decomposition against increasing lex-order paths
    u, v = draw_comparable_pair(data, 6)
    assume(u != v)
    iv = build_interval(u, v)
    assert htilde(iv, standard_hcd(iv)) == rtilde_by_paths(iv, lex_order(len(u))), (u, v)


def test_htilde_spot_values():
    iv = build_interval(identity(3), longest_element(3))
    hcd = standard_hcd(iv)
    assert htilde(iv, hcd) == (0, 1, 0, 1)


def test_is_simple_examples():
    for v in all_perms(4):
        assert is_simple(build_interval(identity(4), v))
    assert not is_simple(build_interval((1, 3, 2, 4), (4, 2, 3, 1)))
    assert is_simple(build_interval((2, 1, 3, 5, 4), (5, 2, 3, 4, 1)))


def test_coset_ideal_form_examples():
    iv = build_interval(identity(3), longest_element(3))
    assert coset_ideal_form(iv, 1) == ((1,), (2,), (3,))
    hcd = standard_hcd(iv)
    blocks = coset_ideal_form(iv, hcd.ideal)
    assert blocks == ((1,), (2, 3))
    with pytest.raises(ValueError):
        coset_ideal_form(build_interval((1, 3, 2, 4), (4, 2, 3, 1)), 1)


def test_coset_ideal_form_rejects_what_is_not_a_diamond_closed_ideal():
    iv = build_interval(identity(3), longest_element(3))
    s1, s2 = iv.index[(2, 1, 3)], iv.index[(1, 3, 2)]
    # {213} leaves out 123 below it
    with pytest.raises(ValueError, match="not a lower set"):
        coset_ideal_form(iv, 1 << s1)
    # {123, 213, 132} is a lower set holding three vertices of the
    # diamonds 123 -> {213, 132} -> 231 and 312
    with pytest.raises(ValueError, match="not diamond-closed"):
        coset_ideal_form(iv, 1 | 1 << s1 | 1 << s2)


def test_coset_form_of_every_dc_ideal_in_simple_s4_intervals():
    for u, v in comparable_pairs(4):
        iv = build_interval(u, v)
        if not is_simple(iv):
            continue
        for mask in down_set_masks(iv):
            if not mask:
                continue
            if is_diamond_closed(iv, mask):
                coset_ideal_form(iv, mask)  # raises on verification failure


def test_special_matchings_examples():
    iv1 = build_interval((1, 2, 3), (2, 1, 3))
    assert special_matchings(iv1) == [(1, 0)]

    iv3 = build_interval(identity(3), longest_element(3))
    found = special_matchings(iv3)
    assert found
    # right multiplication by s1 is one of them
    right_s1 = tuple(iv3.index[(x[1], x[0], x[2])] for x in iv3.elements)
    assert right_s1 in found
    # every reported matching satisfies the axioms
    for m in found:
        for x in range(iv3.size):
            assert m[m[x]] == x and m[x] != x
            assert abs(iv3.rank[m[x]] - iv3.rank[x]) == 1
            lo, hi = sorted((x, m[x]), key=lambda i: iv3.rank[i])
            assert (lo, hi) in set(iv3.hasse_edges)
        for a, b in iv3.hasse_edges:
            if m[a] != b:
                assert m[a] != m[b] and iv3.leq(m[a], m[b])


def test_deep_searches_need_no_recursion_s7():
    # 4,128 elements: a search that recursed once per matched element would
    # exceed the interpreter's recursion limit
    iv = build_interval((1, 3, 2, 4, 5, 7, 6), longest_element(7))
    assert iv.size == 4128
    assert len(special_matchings(iv)) == 8
    assert poset_isomorphic(iv.poset, iv.poset) is not None


def test_no_special_matching_interval():
    iv = build_interval((2, 1, 3, 5, 4), (5, 2, 3, 4, 1))
    assert is_simple(iv)
    assert special_matchings(iv) == []


def test_unique_increasing_chain_in_cluster_hypercubes():
    # for every antichain of every standard cluster, exactly one ordering of
    # the antichain gives an increasing path through the hypercube image
    rng = random.Random(17)
    orders = [lex_order(4), reverse_order(lex_order(4)), random_functional_order(4, rng)]
    labels_cache = {}
    for u, v in comparable_pairs(4)[::4]:
        if u == v:
            continue
        iv = build_interval(u, v)
        labels = {(i, j): t for i, j, t in bruhat_edges(iv)}
        hcd = standard_hcd(iv)
        for x, cl in hcd.clusters.items():
            for Y in cl.images:
                if Y.bit_count() < 2:
                    continue
                for order in orders:
                    pos = order.position
                    increasing = 0
                    for perm in itertools.permutations(mask_bits(Y)):
                        chain = [sum(1 << y for y in perm[:k]) for k in range(len(perm) + 1)]
                        seq = [
                            pos[labels[(cl.images[a], cl.images[b])]]
                            for a, b in zip(chain, chain[1:])
                        ]
                        if all(s < t for s, t in zip(seq, seq[1:])):
                            increasing += 1
                    assert increasing == 1, (u, v, x, Y)


def test_transport_of_decompositions_under_isomorphism():
    p = build_interval((1, 3, 2, 4), (4, 2, 3, 1))
    q = build_interval(tuple(range(1, 9)), (2, 1, 4, 3, 6, 5, 8, 7))
    mapping = poset_isomorphic(p.poset, q.poset)
    assert mapping is not None
    for z in range(p.size):
        chk_p = check_strong_hcd(p, z)
        chk_q = check_strong_hcd(q, mapping[z])
        assert chk_p.ok == chk_q.ok
        if not chk_p.ok:
            continue
        for x, cl in chk_p.decomposition.clusters.items():
            cl_q = chk_q.decomposition.clusters[mapping[x]]
            transported = {
                sum(1 << mapping[y] for y in mask_bits(ys)): mapping[img]
                for ys, img in cl.images.items()
            }
            assert transported == cl_q.images


def test_rh_relation_follows_E_flags_s4():
    # with property E the two polynomials agree; with E1 alone the path count
    # is dominated by H, with E2 alone it dominates H
    rng = random.Random(29)
    orders = [lex_order(4), reverse_order(lex_order(4))] + [
        random_functional_order(4, rng) for _ in range(4)
    ]
    seen_e1_only = seen_e2_only = 0
    for u, v in comparable_pairs(4):
        if u == v:
            continue
        iv = build_interval(u, v)
        rt = rtilde_from_r(u, v)
        for z in range(iv.size):
            chk = check_strong_hcd(iv, z)
            if not chk.ok:
                continue
            h = htilde(iv, chk.decomposition)
            verdict = compare_coefficientwise(h, rt)
            for order in orders:
                flags = check_E_properties(iv, chk.decomposition.ideal, order)
                if flags.e:
                    assert verdict == EQUAL
                elif flags.e1:
                    assert verdict in (EQUAL, GREATER_EQUAL)
                    seen_e1_only += 1
                elif flags.e2:
                    assert verdict in (EQUAL, LESS_EQUAL)
                    seen_e2_only += 1
    assert seen_e1_only and seen_e2_only


def test_simple_intervals_have_equal_rh_for_every_strong_hcd_s4():
    for u, v in comparable_pairs(4):
        if u == v:
            continue
        iv = build_interval(u, v)
        if not is_simple(iv):
            continue
        rt = rtilde_from_r(u, v)
        for z in range(iv.size):
            chk = check_strong_hcd(iv, z)
            if chk.ok:
                assert htilde(iv, chk.decomposition) == rt, (u, v, z)


def test_simple_intervals_have_equal_rh_s5_sampled():
    # deterministic sample of the S_5 sweep; the S_4 half runs exhaustively
    rng = random.Random(59)
    sampled = [p for p in comparable_pairs(5) if rng.random() < 0.08]
    for u, v in sampled:
        if u == v:
            continue
        iv = build_interval(u, v)
        if not is_simple(iv):
            continue
        rt = rtilde_from_r(u, v)
        for z in range(iv.size):
            chk = check_strong_hcd(iv, z)
            if chk.ok:
                assert htilde(iv, chk.decomposition) == rt, (u, v, z)
