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
from typing import Callable, Iterable, Iterator, Optional

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
    verdicts = None
    if exhaustive_z:
        scan = []
        verdicts = {}  # every z's, filled by the first check
        h_of: dict = {}  # H~ of each strong z
        for z in range(iv.size):
            check = check_strong_hcd(iv, z, verdicts)
            ok = check.ok
            reason = None if ok else f"{check.failed_axiom}: {check.reason}"
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
                h = h_of[z] = htilde(iv, check.decomposition)
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

    if u != v:
        # under the scan, the standard z is one of the scanned z
        hcd = standard_hcd(iv, verdicts)
        standard_h = htilde(iv, hcd) if verdicts is None else h_of[hcd.z]
        verdict = compare_coefficientwise(standard_h, rt)
        report["standard"] = {
            "d": first_disagreement(u, v),
            "z": format_perm(iv.elements[hcd.z]),
            "ideal_size": hcd.ideal.bit_count(),
            "h_tilde": list(standard_h),
            "verdict": verdict,
        }
        if verdict != EQUAL:
            report["counterexamples"].insert(
                0,
                f"standard decomposition of [{format_perm(u)}, {format_perm(v)}]"
                f" gives H = {format_qpoly(standard_h)} != R-tilde = {format_qpoly(rt)}",
            )
    else:
        report["standard"] = None
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
        raise ValueError(f"{args.u} and {args.v} are not comparable")
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
        raise ValueError(f"{args.u} and {args.v} are not comparable")
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
            raise ValueError(f"{args.z} is not in the interval")
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


def _parse_jobs(text: Optional[str]) -> int:
    """--jobs: a positive integer, capped at the CPU count, and 1 where
    os.fork is missing.  By default, every CPU this process may use; but 1
    when a profiler, a debugger, or a wrapper put on a function of this
    module since import (a tracer's, a test's) is watching: such an
    observer sees only the process it runs in."""
    import os

    cpus = os.cpu_count() or 1
    if text is None:
        watched = sys.getprofile() or sys.gettrace() or any(
            globals()[name] is not fn for name, fn in _AS_IMPORTED.items()
        )
        usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(cpus)
        jobs = 1 if watched else len(usable)
    else:
        try:
            jobs = int(text)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ValueError(f"--jobs expects a positive integer, got {text!r}")
    return min(jobs, cpus) if hasattr(os, "fork") else 1


def _verify_pair(u: Perm, v: Perm, group: Optional[BruhatInterval], args) -> tuple:
    """One interval of a verify sweep: its counterexample messages, its
    report line, and for --iso-classes its (signature, (u, v, poset, P))."""
    iv = build_interval(u, v, group)
    report = analyze_interval(iv, args.exhaustive_z)
    if args.json:
        line = json.dumps(report, sort_keys=True)
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
            line += f" strong={c['strong']} equal={c['equal']} strict={c['strict']}"
        if report["counterexamples"]:
            line += " COUNTEREXAMPLE"
    iso = None
    if args.iso_classes:
        iso = (iso_signature(iv.poset), (u, v, iv.poset, kl_poly(u, v)))
    return report["counterexamples"], line, iso


def _forked_results(n: int, start: int, step: int, jobs: int, task: Callable) -> Iterator:
    """task(u, v) over comparable_pairs(n, start, step), in that order,
    computed by jobs forked workers.  Worker w takes every jobs-th of those
    pairs from the w-th on, comparable_pairs skipping to it, and pickles
    each result onto its own pipe; the results are read back round-robin.
    An exception in a worker is raised here, at its place in the order.  On
    every way out, the pipes are closed and every worker is killed and
    reaped."""
    import os
    import pickle
    import signal

    sys.stdout.flush()
    sys.stderr.flush()
    parent = os.getpid()
    pipes = [os.pipe() for _ in range(jobs)]
    pids: list[int] = []
    readers: list = []
    try:
        for w in range(jobs):
            pid = os.fork()
            if pid == 0:
                try:
                    # a worker keeps its own write end and nothing else, so
                    # a parent killed mid-sweep leaves no one holding its
                    # pipes or its stdout
                    for fd in itertools.chain.from_iterable(pipes):
                        if fd != pipes[w][1]:
                            os.close(fd)
                    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
                    with os.fdopen(pipes[w][1], "wb") as out:
                        for u, v in comparable_pairs(n, start + w * step, jobs * step):
                            if os.getppid() != parent:
                                break
                            try:
                                result = task(u, v)
                            except Exception as exc:
                                out.write(pickle.dumps(exc))
                                break
                            out.write(pickle.dumps(result))
                            out.flush()
                        else:
                            out.write(pickle.dumps(None))  # no pair left
                finally:
                    # no traceback, no atexit handler and no buffered output
                    # a second time: a broken pipe or a lost parent ends a
                    # worker quietly
                    os._exit(0)
            pids.append(pid)
        while pipes:
            r, wr = pipes.pop(0)
            os.close(wr)
            readers.append(os.fdopen(r, "rb"))
        for i in itertools.count():
            try:
                result = pickle.load(readers[i % jobs])
            except EOFError:  # no end marker: the worker was killed
                raise RuntimeError(f"verify worker {i % jobs} ended early") from None
            if result is None:
                return
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        for fd in itertools.chain.from_iterable(pipes):
            os.close(fd)
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_verify(args) -> int:
    n = args.n
    if not 2 <= n <= 7:
        raise ValueError(f"verify expects 2 <= n <= 7, got {n}")
    shard_k, shard_m = _parse_shard(args.shard)
    if args.iso_classes and shard_m > 1:
        # a shard would group only its own intervals, splitting classes
        raise ValueError("--iso-classes cannot be combined with --shard K/M, M > 1")
    jobs = _parse_jobs(args.jobs)
    start = time.monotonic()

    if args.interval:
        u, v = _parse_pair(*args.interval)
        if len(u) != n:
            raise ValueError(
                f"--interval expects a pair of S_{n}, got {' '.join(args.interval)}"
            )
        pairs = ((u, v),) if bruhat_leq(u, v) else ()
        mine = pairs[shard_k - 1 :: shard_m]
        group = None  # one interval: the reflection scan builds it alone
    else:
        pairs = mine = comparable_pairs(n, shard_k - 1, shard_m)
        group = bruhat_order(n)  # built by comparable_pairs, and kept

    def task(u: Perm, v: Perm) -> tuple:
        return _verify_pair(u, v, group, args)

    if jobs > 1 and not args.interval:
        results = _forked_results(n, shard_k - 1, shard_m, jobs, task)
    else:
        results = (task(u, v) for u, v in mine)
    reported = failures = 0
    # --iso-classes: each signature's classes in first-member order, each as
    # [u, v, poset, members, set of P], its first member representing it
    iso_classes: dict = {}
    try:
        for messages, line, iso in results:
            reported += 1
            failures += len(messages)
            for message in messages:
                print(f"COUNTEREXAMPLE: {message}", file=sys.stderr)
            print(line)
            if iso:
                key, (u, v, poset, p) = iso
                bucket = iso_classes.setdefault(key, [])
                for cls in bucket:
                    if poset_isomorphic(cls[2], poset) is not None:
                        cls[3] += 1
                        cls[4].add(p)
                        break
                else:
                    bucket.append([u, v, poset, 1, {p}])
    finally:
        results.close()
    if not reported and pairs:
        # pairs is empty only for an incomparable --interval; otherwise the
        # shard left everything out, and nothing was printed yet, so the
        # error stands alone
        raise ValueError(f"--shard {args.shard} selects no interval of S_{n}")

    if args.iso_classes:
        classes = [cls for key in sorted(iso_classes, key=repr) for cls in iso_classes[key]]
        for class_id, (u, v, _, members, polys) in enumerate(classes):
            obj = {
                "iso_class": class_id,
                "members": members,
                "representative": [format_perm(u), format_perm(v)],
                "p": [list(p) for p in sorted(polys)],
            }
            if len(polys) != 1:
                failures += 1
                message = (
                    f"isomorphism class of [{format_perm(u)}, {format_perm(v)}]"
                    f" carries {len(polys)} distinct Kazhdan-Lusztig polynomials"
                )
                obj["counterexample"] = message
                print(f"COUNTEREXAMPLE: {message}", file=sys.stderr)
            if args.json:
                print(json.dumps(obj, sort_keys=True))
            elif len(polys) != 1:
                print(f"iso class {class_id}: P NOT constant")
        if not args.json:
            print(f"iso classes: {len(classes)}, all P-constant: {failures == 0}")

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
    sp.add_argument(
        "--jobs",
        metavar="N",
        help="worker processes (default: every CPU this process may use)",
    )
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
    except ValueError as err:  # EmptyIntervalError among them
        print(f"error: {err}", file=sys.stderr)
        return 1


# the functions of this module as imported, for _parse_jobs to tell whether
# one has been wrapped since
_AS_IMPORTED = {name: fn for name, fn in globals().items() if callable(fn)}


if __name__ == "__main__":
    sys.exit(main())
