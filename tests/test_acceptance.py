"""Acceptance suite: every criterion at its stated scale and tolerance (all
comparisons are exact integer identities).  Each test prints one pass line;
a failure in any assertion is the corresponding fail line.

The full S_6 sweep is not part of the desk-scale gate; it is an opt-in long
run, enabled by BRUHAT_LONG_TESTS=1 (see the last test).
"""

import itertools
import json
import os
import random
import subprocess
import sys
import threading
import time

import pytest

from bruhat_hypercubes.cli import analyze_interval
from bruhat_hypercubes.hypercubes import (
    check_strong_hcd,
    coset_ideal_form,
    enumerate_diamonds,
    first_disagreement,
    htilde,
    is_simple,
    special_matchings,
    standard_hcd,
)
from bruhat_hypercubes.intervals import (
    atom_indices,
    build_interval,
    iso_signature,
    poset_isomorphic,
)
from bruhat_hypercubes.perms import (
    all_perms,
    bruhat_leq,
    identity,
    length,
    longest_element,
    parse_perm,
)
from bruhat_hypercubes.polynomials import (
    EQUAL,
    GREATER_EQUAL,
    compare_coefficientwise,
    kl_poly,
    qp_add,
    qp_deg,
    qp_mirror,
    qp_mul,
    r_poly,
    rtilde_from_r,
)
from bruhat_hypercubes.reflection_orders import (
    check_E_properties,
    lex_order,
    make_order,
    reverse_order,
    rtilde_by_paths,
    standard_E_order,
)

from helpers import (
    bruhat_edges,
    comparable_pairs,
    diamond_closure,
    down_set_masks,
    is_diamond_closed,
    mask_bits,
    random_functional_order,
    subprocess_env,
)


def test_criterion_1_standard_equality_s4_s5():
    """H-tilde of the standard decomposition equals R-tilde, exactly, for
    every interval of S_4 and S_5."""
    checked = 0
    for n in (4, 5):
        for u, v in comparable_pairs(n):
            if u == v:
                continue
            iv = build_interval(u, v)
            hcd = standard_hcd(iv)
            assert htilde(iv, hcd) == rtilde_from_r(u, v), (u, v)
            checked += 1
    assert checked == 213 - 24 + 3781 - 120
    print(f"\nCRITERION 1: PASS - standard H = R-tilde on {checked} intervals of S4+S5")


def test_criterion_2_inequality_exhaustive_z():
    """Every strong decomposition satisfies H >= R-tilde coefficientwise:
    exhaustively over S_4, and over a seeded 5% sample of S_5 intervals."""
    strong = 0
    for u, v in comparable_pairs(4):
        report = analyze_interval(build_interval(u, v), exhaustive_z=True)
        assert report["counterexamples"] == [], (u, v)
        strong += report["counts"]["strong"]

    rng = random.Random(20260810)
    sampled = [p for p in comparable_pairs(5) if rng.random() < 0.05]
    assert len(sampled) > 100
    for u, v in sampled:
        report = analyze_interval(build_interval(u, v), exhaustive_z=True)
        assert report["counterexamples"] == [], (u, v)
        strong += report["counts"]["strong"]
    print(
        f"\nCRITERION 2: PASS - {strong} strong decompositions on S4 (all) and"
        f" {len(sampled)} sampled S5 intervals, zero counterexamples"
    )


def test_criterion_3_smallest_strict_inequality():
    """u=132546, v=651234, z=612345 is a strong decomposition with H
    strictly above R-tilde, while the standard one is exactly equal."""
    u, v, z = parse_perm("132546"), parse_perm("651234"), parse_perm("612345")
    iv = build_interval(u, v)
    rt = rtilde_from_r(u, v)

    chk = check_strong_hcd(iv, iv.index[z])
    assert chk.ok
    h = htilde(iv, chk.decomposition)
    assert compare_coefficientwise(h, rt) == GREATER_EQUAL and h != rt

    hcd = standard_hcd(iv)
    assert htilde(iv, hcd) == rt
    print(
        "\nCRITERION 3: PASS - [132546, 651234]: strict inequality at z=612345"
        f" (H={list(h)} vs R~={list(rt)}), equality for the standard ideal"
    )


def test_criterion_4_elementary_hypercube_pair():
    """[1324, 4231] is isomorphic to [12345678, 21436587]; the former is not
    simple, the latter is."""
    p = build_interval(parse_perm("1324"), parse_perm("4231"))
    q = build_interval(
        parse_perm("[1,2,3,4,5,6,7,8]"), parse_perm("[2,1,4,3,6,5,8,7]")
    )
    mapping = poset_isomorphic(p.poset, q.poset)
    assert mapping is not None
    assert {(mapping[a], mapping[b]) for a, b in p.poset.hasse} == set(q.poset.hasse)
    assert not is_simple(p)
    assert is_simple(q)
    print("\nCRITERION 4: PASS - hypercube interval is elementary (iso found),"
          " simplicity flags as stated")


def test_criterion_5_simple_interval_without_matchings():
    """[21354, 52341] is simple and has no special matchings."""
    iv = build_interval(parse_perm("21354"), parse_perm("52341"))
    assert is_simple(iv)
    assert special_matchings(iv) == []
    print("\nCRITERION 5: PASS - [21354, 52341] simple, zero special matchings")


def test_criterion_6_path_counting_oracle_equivalence():
    """Increasing-path counting equals the substitution route for every S_4
    interval under three independently constructed orders, and under order
    reversal."""
    rng = random.Random(97)
    for u, v in comparable_pairs(4):
        iv = build_interval(u, v)
        want = rtilde_from_r(u, v)
        orders = [
            lex_order(4),
            standard_E_order(4, first_disagreement(u, v) if u != v else 1),
            random_functional_order(4, rng),
        ]
        for order in orders:
            assert rtilde_by_paths(iv, order) == want, (u, v)
            assert rtilde_by_paths(iv, reverse_order(order)) == want, (u, v)
    print("\nCRITERION 6: PASS - path counting matches the substitution route"
          " on all 213 S4 intervals x 3 orders x reversal")


def test_criterion_7_defining_identities_s4():
    """The inversion identity holds exactly after computing P; degree bounds
    and R-tilde shape (monic, degree l, parity-pure, non-negative) hold for
    every S_4 pair."""
    for u, v in comparable_pairs(4):
        ell = length(v) - length(u)
        p = kl_poly(u, v)
        total = ()
        for a in build_interval(u, v).elements:
            total = qp_add(total, qp_mul(r_poly(u, a), kl_poly(a, v)))
        assert total == qp_mirror(p, ell), (u, v)
        if u != v:
            assert 2 * qp_deg(p) <= ell - 1, (u, v)
        rt = rtilde_from_r(u, v)
        assert qp_deg(rt) == ell and rt[-1] == 1
        assert all(c >= 0 for c in rt)
        assert all(c == 0 for k, c in enumerate(rt) if (k - ell) % 2)
    print("\nCRITERION 7: PASS - defining identity, degree bound and R-tilde"
          " shape exact on all 213 S4 pairs")


def test_criterion_8_lemma_suite_s4():
    """Diamond-flip order law, unique increasing chains through cluster
    hypercubes, atom-closure of diamond-closed ideals, and the coset form of
    diamond-closed ideals in simple intervals, all over S_4."""
    rng = random.Random(8)
    orders = [lex_order(4), reverse_order(lex_order(4))] + [
        random_functional_order(4, rng) for _ in range(3)
    ]

    # flip of an increasing pair is decreasing: all diamonds of the full
    # Bruhat graph (hence of every interval, whose graphs are induced)
    big = build_interval(identity(4), longest_element(4))
    labels = {(i, j): t for i, j, t in bruhat_edges(big)}
    diamonds = enumerate_diamonds(big)
    assert len(diamonds) == 82  # matches the brute-force pair scan
    for x1, x2, x3, x4 in diamonds:
        for order in orders:
            pos = order.position
            left_incr = pos[labels[(x1, x2)]] < pos[labels[(x2, x4)]]
            right_incr = pos[labels[(x1, x3)]] < pos[labels[(x3, x4)]]
            assert not (left_incr and right_incr), (x1, x2, x3, x4)

    # unique increasing chain from x to theta(Y) inside each cluster cube
    chains = 0
    for u, v in comparable_pairs(4):
        if u == v:
            continue
        iv = build_interval(u, v)
        edge_label = {(i, j): t for i, j, t in bruhat_edges(iv)}
        hcd = standard_hcd(iv)
        for x, cl in hcd.clusters.items():
            for Y in cl.images:
                if Y.bit_count() < 2:
                    continue
                for order in orders[:2]:
                    pos = order.position
                    increasing = 0
                    for perm in itertools.permutations(mask_bits(Y)):
                        chain = [sum(1 << y for y in perm[:k]) for k in range(len(perm) + 1)]
                        seq = [
                            pos[edge_label[(cl.images[a], cl.images[b])]]
                            for a, b in zip(chain, chain[1:])
                        ]
                        if all(s < t for s, t in zip(seq, seq[1:])):
                            increasing += 1
                    assert increasing == 1, (u, v, x, Y)
                    chains += 1

    # dc({u} + atoms) recovers every diamond-closed order ideal, and in
    # simple intervals every such ideal is a verified coset intersection
    ideals = 0
    for u, v in comparable_pairs(4):
        iv = build_interval(u, v)
        atom_mask = sum(1 << j for j, _ in atom_indices(iv))
        simple = is_simple(iv)
        for mask in down_set_masks(iv):
            if not mask:
                continue
            if not is_diamond_closed(iv, mask):
                continue
            seed = 1 | (atom_mask & mask)
            assert diamond_closure(iv, seed) == mask, (u, v)
            if simple:
                coset_ideal_form(iv, mask)
            ideals += 1
    print(
        f"\nCRITERION 8: PASS - flip law on {len(diamonds)} diamonds x"
        f" {len(orders)} orders, {chains} unique-chain checks,"
        f" {ideals} diamond-closed ideals closed from atoms (+ coset form)"
    )


def test_criterion_9_invariance_of_p_on_iso_classes():
    """Grouping all S_4 intervals, and all S_5 intervals of length at most 4,
    by poset isomorphism: each class carries a single Kazhdan-Lusztig
    polynomial."""
    buckets: dict = {}
    npairs = 0
    for u, v in comparable_pairs(4):
        iv = build_interval(u, v)
        buckets.setdefault(iso_signature(iv.poset), []).append(iv)
        npairs += 1
    for u, v in comparable_pairs(5):
        if length(v) - length(u) <= 4:
            iv = build_interval(u, v)
            buckets.setdefault(iso_signature(iv.poset), []).append(iv)
            npairs += 1

    classes = 0
    for members in buckets.values():
        reps: list = []
        for iv in members:
            for rep in reps:
                if poset_isomorphic(rep[0].poset, iv.poset) is not None:
                    rep.append(iv)
                    break
            else:
                reps.append([iv])
        for cls in reps:
            polys = {kl_poly(iv.bottom, iv.top) for iv in cls}
            assert len(polys) == 1, [
                (iv.bottom, iv.top) for iv in cls
            ]
            classes += 1
    assert npairs == 3146  # 213 in S4 plus 2933 of length <= 4 in S5
    print(
        f"\nCRITERION 9: PASS - {npairs} intervals in {classes} isomorphism"
        " classes, each with a single P"
    )


# The strict rows H~ > R~ of all of S_6, as (u, v, z): all at a proper z of a
# non-simple interval; hcd U V Z reports each as greater-equal.
STRICT_S6 = {
    ("132546", "345621", "234561"),
    ("215463", "456321", "345612"),
    ("243165", "456321", "345612"),
    ("153624", "564312", "456123"),
    ("321654", "564312", "456123"),
    ("351426", "564312", "456123"),
    ("132546", "651234", "612345"),
    ("216435", "654123", "561234"),
    ("413265", "654123", "561234"),
}


# runs python ARGS... and then prints its wait4 peak RSS as one JSON line.
# Linux carries the high-water mark of the image that spawns a process into
# the child's ru_maxrss, so a shard spawned from pytest would report pytest's;
# spawned from this small process, it reports its own.
SHARD_LAUNCHER = """
import json, os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(json.dumps({"peak_rss_kib": usage.ru_maxrss}), flush=True)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _tally_s6_stream(stream, tally: dict) -> None:
    """Count one verify --exhaustive-z --json stream as it arrives, and the
    launcher's peak RSS line after it."""
    for line in stream:
        obj = json.loads(line)
        if "peak_rss_kib" in obj:
            tally["peak_rss_kib"] = obj["peak_rss_kib"]
            continue
        if "summary" in obj:
            tally["summary"] = obj["summary"]
            continue
        counts = obj["counts"]
        tally["reports"] += 1
        tally["counterexamples"] += len(obj["counterexamples"])
        tally["strong"] += counts["strong"]
        if obj["simple"]:
            tally["simple"] += 1
            tally["simple_strong"] += counts["strong"]
            tally["simple_equal"] += counts["equal"]
        for row in obj["z_scan"]:
            if row["verdict"] == GREATER_EQUAL:
                tally["strict"].append((obj["u"], obj["v"], row["z"], obj["simple"]))


@pytest.mark.skipif(
    os.environ.get("BRUHAT_LONG_TESTS") != "1",
    reason="the full S_6 run takes minutes: set BRUHAT_LONG_TESTS=1 to run it",
)
def test_full_s6_verification_opt_in():
    # every z of every interval of S_6 (verify 6 --exhaustive-z), through the
    # CLI as two shards side by side, each spawned by SHARD_LAUNCHER; the
    # streams are read as they arrive, never held.  The counts were first
    # taken at fc7d326, where every interval was scanned from v and every
    # cluster built afresh.
    start = time.monotonic()
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", SHARD_LAUNCHER, "-m", "bruhat_hypercubes", "verify", "6"]
            + ["--exhaustive-z", "--json", "--shard", f"{k}/2"],
            stdout=subprocess.PIPE,
            text=True,
            env=subprocess_env(),
        )
        for k in (1, 2)
    ]
    keys = ("reports", "counterexamples", "strong", "simple", "simple_strong", "simple_equal")
    tallies = [
        {**dict.fromkeys(keys, 0), "strict": [], "summary": None, "peak_rss_kib": None}
        for _ in procs
    ]
    readers = [
        threading.Thread(target=_tally_s6_stream, args=(proc.stdout, tally))
        for proc, tally in zip(procs, tallies)
    ]
    for reader in readers:
        reader.start()
    for proc, reader in zip(procs, readers):
        reader.join()
        assert proc.wait() == 0
    wall = time.monotonic() - start
    peak_mb = [tally["peak_rss_kib"] / 1024 for tally in tallies]  # KiB on Linux

    def total(key):
        return sum(tally[key] for tally in tallies)

    assert total("reports") == 98407
    assert sum(t["summary"]["intervals"] for t in tallies) == 98407
    assert total("counterexamples") == 0
    assert sum(t["summary"]["counterexamples"] for t in tallies) == 0
    assert total("strong") == 1_163_182
    # simple intervals: every strong z gives equality
    assert total("simple") == 72_873
    assert total("simple_strong") == total("simple_equal") == 767_441
    strict = [row for tally in tallies for row in tally["strict"]]
    assert not any(simple for *_, simple in strict)
    assert {row[:3] for row in strict} == STRICT_S6 and len(strict) == 9
    print(
        f"\nS_6 exhaustive: 98407 intervals, 1163182 strong z, 9 strict,"
        f" 0 counterexamples in {wall:.0f}s on 2 shards,"
        f" peak RSS {max(peak_mb):.1f} MB per shard"
    )
