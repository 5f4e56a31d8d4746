"""
Command-line harness: polynomial queries, decomposition reports, and batch
verification of the standard-decomposition equality, the coefficientwise
inequality for every strong decomposition, and constancy of the
Kazhdan-Lusztig polynomial on poset-isomorphism classes.

Exit codes: 0 when every asserted identity holds, 2 when a counterexample
was found, 1 on usage or internal errors.  Reports are emitted as one JSON
object per line with sorted keys (--json) or as human-readable text, in
(length(v), v, u) order regardless of scheduling; counterexamples are also
echoed to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from typing import Iterable, Optional

from .errors import EmptyIntervalError
from .hypercubes import (
    check_strong_hcd,
    first_disagreement,
    htilde,
    is_simple,
    special_matchings,
    standard_hcd,
)
from .intervals import (
    BruhatInterval,
    bits,
    bruhat_order,
    build_interval,
    comparable_pairs,
    iso_signature,
    poset_isomorphic,
)
from .perms import Perm, bruhat_leq, format_perm, parse_perm
from .polynomials import (
    EQUAL,
    GREATER_EQUAL,
    compare_coefficientwise,
    format_qpoly,
    kl_poly,
    r_poly,
    rtilde_from_r,
)


# ---------------------------------------------------------------------------
# per-interval analysis


def analyze_interval(iv: BruhatInterval, exhaustive_z: bool) -> dict:
    u, v = iv.bottom, iv.top
    rt = rtilde_from_r(u, v)
    report: dict = {
        "u": format_perm(u),
        "v": format_perm(v),
        "length": iv.length,
        "size": iv.size,
        "simple": is_simple(iv),
        "r_tilde": list(rt),
        "counterexamples": [],
    }
    counts = {"strong": 0, "equal": 0, "strict": 0}
    hcd = None
    if u != v:
        hcd = standard_hcd(iv)
        standard_h = htilde(iv, hcd)
        verdict = compare_coefficientwise(standard_h, rt)
        report["standard"] = {
            "d": first_disagreement(u, v),
            "z": format_perm(iv.elements[hcd.z]),
            "ideal_size": hcd.ideal.bit_count(),
            "h_tilde": list(standard_h),
            "verdict": verdict,
        }
        if verdict != EQUAL:
            report["counterexamples"].append(
                f"standard decomposition of [{format_perm(u)}, {format_perm(v)}]"
                f" gives H = {format_qpoly(standard_h)} != R-tilde = {format_qpoly(rt)}"
            )
    else:
        report["standard"] = None

    if exhaustive_z:
        scan = []
        # the clusters of this interval that succeeded, by base: every z
        # restricts one whose frontier covers its own instead of building
        known = {} if hcd is None else {x: [c] for x, c in hcd.clusters.items()}
        for z in range(iv.size):
            check = check_strong_hcd(iv, z, known)
            ok = check.ok
            reason = None if ok else f"{check.failed_axiom}: {check.reason}"
            h = htilde(iv, check.decomposition) if ok else None
            row: dict = {
                "z": format_perm(iv.elements[z]),
                "strong": ok,
                "proper": z != iv.size - 1,
                "reason": reason,
                "h_tilde": None,
                "verdict": None,
            }
            if ok:
                counts["strong"] += 1
                verdict = compare_coefficientwise(h, rt)
                row["h_tilde"] = list(h)
                row["verdict"] = verdict
                if verdict == EQUAL:
                    counts["equal"] += 1
                elif verdict == GREATER_EQUAL:
                    counts["strict"] += 1
                else:
                    report["counterexamples"].append(
                        f"strong decomposition [u, {row['z']}] of"
                        f" [{format_perm(u)}, {format_perm(v)}] has verdict {verdict}"
                    )
            scan.append(row)
        report["z_scan"] = scan
    report["counts"] = counts
    return report


# ---------------------------------------------------------------------------
# subcommands


def _parse_pair(a: str, b: str) -> tuple[Perm, Perm]:
    u, v = parse_perm(a), parse_perm(b)
    if len(u) != len(v):
        raise ValueError(f"degree mismatch: {a} vs {b}")
    return u, v


def _emit(obj: dict, as_json: bool, lines: Iterable[str]) -> None:
    if as_json:
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_kl(args) -> int:
    u, v = _parse_pair(args.u, args.v)
    if not bruhat_leq(u, v):
        print(f"error: {args.u} and {args.v} are not comparable", file=sys.stderr)
        return 1
    p, r, rt = kl_poly(u, v), r_poly(u, v), rtilde_from_r(u, v)
    _emit(
        {"u": args.u, "v": args.v, "P": list(p), "R": list(r), "R_tilde": list(rt)},
        args.json,
        [
            f"P = {format_qpoly(p)}",
            f"R = {format_qpoly(r)}",
            f"R~ = {format_qpoly(rt)}",
        ],
    )
    return 0


def cmd_rtilde(args) -> int:
    u, v = _parse_pair(args.u, args.v)
    if not bruhat_leq(u, v):
        print(f"error: {args.u} and {args.v} are not comparable", file=sys.stderr)
        return 1
    rt = rtilde_from_r(u, v)
    _emit(
        {"u": args.u, "v": args.v, "R_tilde": list(rt)},
        args.json,
        [f"R~ = {format_qpoly(rt)}"],
    )
    return 0


def cmd_simple(args) -> int:
    u, v = _parse_pair(args.u, args.v)
    iv = build_interval(u, v)
    flag = is_simple(iv)
    _emit(
        {"u": args.u, "v": args.v, "simple": flag},
        args.json,
        [f"simple = {str(flag).lower()}"],
    )
    return 0


def cmd_matchings(args) -> int:
    u, v = _parse_pair(args.u, args.v)
    iv = build_interval(u, v)
    found = special_matchings(iv)
    payload = {
        "u": args.u,
        "v": args.v,
        "count": len(found),
        "matchings": [
            [[format_perm(iv.elements[i]), format_perm(iv.elements[m[i]])] for i in range(iv.size) if i < m[i]]
            for m in found
        ],
    }
    lines = [f"special matchings: {len(found)}"]
    for m in found:
        pairs = ", ".join(
            f"{format_perm(iv.elements[i])}<->{format_perm(iv.elements[m[i]])}"
            for i in range(iv.size)
            if i < m[i]
        )
        lines.append(f"  {pairs}")
    _emit(payload, args.json, lines)
    return 0


def cmd_iso(args) -> int:
    u, v = _parse_pair(args.u, args.v)
    u2, v2 = _parse_pair(args.u2, args.v2)
    p = build_interval(u, v)
    q = build_interval(u2, v2)
    mapping = poset_isomorphic(p.poset, q.poset)
    if mapping is None:
        _emit(
            {"isomorphic": False},
            args.json,
            ["not isomorphic"],
        )
    else:
        pairs = {
            format_perm(p.elements[i]): format_perm(q.elements[mapping[i]])
            for i in range(p.size)
        }
        _emit(
            {"isomorphic": True, "mapping": pairs},
            args.json,
            ["isomorphic"]
            + [f"  {a} -> {b}" for a, b in pairs.items()],
        )
    return 0


def cmd_hcd(args) -> int:
    u, v = _parse_pair(args.u, args.v)
    iv = build_interval(u, v)
    rt = rtilde_from_r(u, v)
    if args.z is None:
        hcd = standard_hcd(iv)
        h = htilde(iv, hcd)
        payload = {
            "u": args.u,
            "v": args.v,
            "d": first_disagreement(u, v),
            "z": format_perm(iv.elements[hcd.z]),
            "ideal": [format_perm(iv.elements[i]) for i in bits(hcd.ideal)],
            "clusters": [
                {
                    "base": format_perm(iv.elements[x]),
                    "frontier": [format_perm(iv.elements[j]) for j in bits(cl.frontier)],
                    "images": [
                        {
                            "antichain": sorted(format_perm(iv.elements[y]) for y in bits(ys)),
                            "image": format_perm(iv.elements[img]),
                        }
                        for ys, img in sorted(
                            cl.images.items(),
                            key=lambda kv: (kv[0].bit_count(), list(bits(kv[0]))),
                        )
                    ],
                }
                for x, cl in sorted(hcd.clusters.items())
            ],
            "simple": is_simple(iv),
            "special_matchings": len(special_matchings(iv)),
            "h_tilde": list(h),
            "r_tilde": list(rt),
            "verdict": compare_coefficientwise(h, rt),
        }
        lines = [
            f"d = {payload['d']}, z = {payload['z']}, ideal size {len(payload['ideal'])}",
            f"ideal = {{{', '.join(payload['ideal'])}}}",
            f"simple = {str(payload['simple']).lower()}, special matchings = {payload['special_matchings']}",
            f"H~ = {format_qpoly(h)}",
            f"R~ = {format_qpoly(rt)}",
            f"verdict: {payload['verdict']}",
        ]
    else:
        z_perm = parse_perm(args.z)
        if z_perm not in iv.index:
            print(f"error: {args.z} is not in the interval", file=sys.stderr)
            return 1
        check = check_strong_hcd(iv, iv.index[z_perm])
        payload = {
            "u": args.u,
            "v": args.v,
            "z": args.z,
            "strong": check.ok,
            "failed_axiom": check.failed_axiom,
            "reason": check.reason,
            "r_tilde": list(rt),
            "h_tilde": None,
            "verdict": None,
        }
        lines = [f"strong = {str(check.ok).lower()}"]
        if check.ok:
            h = htilde(iv, check.decomposition)
            payload["h_tilde"] = list(h)
            payload["verdict"] = compare_coefficientwise(h, rt)
            lines += [
                f"H~ = {format_qpoly(h)}",
                f"R~ = {format_qpoly(rt)}",
                f"verdict: {payload['verdict']}",
            ]
        else:
            lines.append(f"failed {check.failed_axiom}: {check.reason}")
    _emit(payload, args.json, lines)
    return 0


def _parse_shard(text: Optional[str]) -> tuple[int, int]:
    if text is None:
        return (1, 1)
    try:
        k_str, m_str = text.split("/")
        k, m = int(k_str), int(m_str)
    except ValueError as exc:
        raise ValueError(f"--shard expects K/M, got {text!r}") from exc
    if not 1 <= k <= m:
        raise ValueError(f"--shard expects 1 <= K <= M, got {text!r}")
    return (k, m)


def cmd_verify(args) -> int:
    n = args.n
    if not 2 <= n <= 7:
        print(f"error: verify expects 2 <= n <= 7, got {n}", file=sys.stderr)
        return 1
    shard_k, shard_m = _parse_shard(args.shard)
    if args.iso_classes and shard_m > 1:
        # a shard would group only its own intervals, splitting classes
        raise ValueError("--iso-classes cannot be combined with --shard K/M, M > 1")
    start = time.monotonic()

    if args.interval:
        u, v = _parse_pair(*args.interval)
        if len(u) != n:
            raise ValueError(
                f"--interval expects a pair of S_{n}, got {' '.join(args.interval)}"
            )
        pairs = ((u, v),) if bruhat_leq(u, v) else ()
        group = None  # one interval: the reflection scan builds it alone
    else:
        pairs = comparable_pairs(n)
        group = bruhat_order(n)  # built by comparable_pairs, and kept

    reported = failures = 0
    iso_groups: dict = {}
    for u, v in itertools.islice(pairs, shard_k - 1, None, shard_m):
        reported += 1
        iv = build_interval(u, v, group)
        report = analyze_interval(iv, args.exhaustive_z)
        failures += len(report["counterexamples"])
        for message in report["counterexamples"]:
            print(f"COUNTEREXAMPLE: {message}", file=sys.stderr)
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            std = report["standard"]
            line = (
                f"[{report['u']}, {report['v']}] size={report['size']}"
                f" simple={str(report['simple']).lower()}"
            )
            if std:
                line += f" standard: H{'=' if std['verdict'] == EQUAL else '!'}=R~"
            if args.exhaustive_z:
                c = report["counts"]
                line += (
                    f" strong={c['strong']} equal={c['equal']} strict={c['strict']}"
                )
            if report["counterexamples"]:
                line += " COUNTEREXAMPLE"
            print(line)
        if args.iso_classes:
            key = iso_signature(iv.poset)
            iso_groups.setdefault(key, []).append((u, v, iv.poset, kl_poly(u, v)))
    if not reported and pairs:
        # pairs is empty only for an incomparable --interval; otherwise the
        # shard left everything out, and nothing was printed yet, so the
        # error stands alone
        raise ValueError(f"--shard {args.shard} selects no interval of S_{n}")

    if args.iso_classes:
        class_id = 0
        for key in sorted(iso_groups, key=repr):
            members = iso_groups[key]
            classes: list[list] = []
            for u, v, poset, p in members:
                for cls in classes:
                    if poset_isomorphic(cls[0][2], poset) is not None:
                        cls.append((u, v, poset, p))
                        break
                else:
                    classes.append([(u, v, poset, p)])
            for cls in classes:
                polys = {p for _, _, _, p in cls}
                obj = {
                    "iso_class": class_id,
                    "members": len(cls),
                    "representative": [format_perm(cls[0][0]), format_perm(cls[0][1])],
                    "p": [list(p) for p in sorted(polys)],
                }
                if len(polys) != 1:
                    failures += 1
                    message = (
                        "isomorphism class of "
                        f"[{format_perm(cls[0][0])}, {format_perm(cls[0][1])}]"
                        f" carries {len(polys)} distinct Kazhdan-Lusztig polynomials"
                    )
                    obj["counterexample"] = message
                    print(f"COUNTEREXAMPLE: {message}", file=sys.stderr)
                if args.json:
                    print(json.dumps(obj, sort_keys=True))
                elif len(polys) != 1:
                    print(f"iso class {class_id}: P NOT constant")
                class_id += 1
        if not args.json:
            print(f"iso classes: {class_id}, all P-constant: {failures == 0}")

    summary = {
        "summary": {
            "n": n,
            "intervals": reported,
            "counterexamples": failures,
            "seconds": round(time.monotonic() - start, 3),
        }
    }
    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        s = summary["summary"]
        print(
            f"verified {s['intervals']} intervals of S_{n}:"
            f" {s['counterexamples']} counterexamples in {s['seconds']}s"
        )
    return 2 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bruhat-hypercubes",
        description="Exact Bruhat-interval computations: Kazhdan-Lusztig"
        " polynomials and strong hypercube decompositions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_pair(sp):
        sp.add_argument("u")
        sp.add_argument("v")
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("kl", help="print P, R and R-tilde for u <= v")
    add_pair(sp)
    sp.set_defaults(func=cmd_kl)

    sp = sub.add_parser("rtilde", help="print R-tilde for u <= v")
    add_pair(sp)
    sp.set_defaults(func=cmd_rtilde)

    sp = sub.add_parser("simple", help="test linear independence of atom roots")
    add_pair(sp)
    sp.set_defaults(func=cmd_simple)

    sp = sub.add_parser("matchings", help="enumerate special matchings")
    add_pair(sp)
    sp.set_defaults(func=cmd_matchings)

    sp = sub.add_parser("iso", help="test two intervals for poset isomorphism")
    sp.add_argument("u")
    sp.add_argument("v")
    sp.add_argument("u2")
    sp.add_argument("v2")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_iso)

    sp = sub.add_parser(
        "hcd",
        help="standard decomposition report, or diagnostics for a given z",
    )
    sp.add_argument("u")
    sp.add_argument("v")
    sp.add_argument("z", nargs="?")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_hcd)

    sp = sub.add_parser("verify", help="batch verification over all of S_n")
    sp.add_argument("n", type=int)
    sp.add_argument("--exhaustive-z", action="store_true")
    sp.add_argument("--iso-classes", action="store_true")
    sp.add_argument("--shard", help="K/M: process the K-th of M slices")
    sp.add_argument("--interval", nargs=2, metavar=("U", "V"))
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; a usage error is 1, as documented, not argparse's 2
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, EmptyIntervalError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
