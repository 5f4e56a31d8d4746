"""Record the references the benchmark checks outputs against.

    python3 perfbench/record_refs.py [--scale full|tiny]

Writes perfbench/refs/<scale>.json from the CLI of the current checkout, so
run it only on a commit whose outputs are trusted; every recorded sweep must
exit 0 with no counterexample and every query must exit 0.  It holds:

* ``zscan_candidates``: the shards K of ``verify n --exhaustive-z --shard
  K/M`` that a seed may pick, so that seeds change which intervals a run
  sweeps but hardly how much work it holds or how the per-interval times
  spread.  First the 32 shards whose total, median and 90th-percentile
  interval size |[u, v]| lie closest to the medians of these over all M
  shards (by summed relative distance) are swept; of these, the 16 whose
  median and 90th-percentile gap between reports, over the mean gap, lie
  closest to the medians of these over the 32 are kept.  Interval sizes
  alone do not predict how per-interval times spread: over 16 shards picked
  by size, the median gap over the mean ran from 0.28 to 0.39, and it sets
  ``query_p50_ms`` on ``s6-zscan``.  The gaps are timed, so recording again
  may keep other shards;
* ``sweeps``: for each recorded sweep, one digest per line of its ``--json``
  stream, the summary's ``seconds`` left out;
* ``queries``: per query stratum, a pool of CLI argument lists with the
  digest of their ``--json`` output.  Pairs are drawn at random, with a
  fixed seed, by walking down a random chain of Bruhat covers from a random
  permutation.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys

import run as bench

sys.path.insert(0, str(bench.SRC))

from bruhat_hypercubes.cli import comparable_pairs  # noqa: E402
from bruhat_hypercubes.intervals import build_interval  # noqa: E402
from bruhat_hypercubes.perms import (  # noqa: E402
    all_perms,
    apply_reflection,
    bruhat_leq,
    format_perm,
    length,
    reflection_length_delta,
    reflections,
)

CANDIDATES = 16
POOL = {"full": 40, "tiny": 4}


def interval_sizes(n: int) -> list[int]:
    """|[u, v]| for every comparable pair, in the CLI's report order."""
    perms = sorted(all_perms(n), key=lambda w: (length(w), w))
    index = {w: i for i, w in enumerate(perms)}
    up = [0] * len(perms)
    down = [0] * len(perms)
    for i, u in enumerate(perms):
        for j, v in enumerate(perms):
            if bruhat_leq(u, v):
                up[i] |= 1 << j
                down[j] |= 1 << i
    return [bin(up[index[u]] & down[index[v]]).count("1") for u, v in comparable_pairs(n)]


def closest_to_medians(stats: dict[int, tuple], count: int) -> list[int]:
    """The ``count`` keys whose statistics lie closest to the medians of
    each statistic over all keys, by summed relative distance; sorted."""
    columns = range(len(next(iter(stats.values()))))
    mids = [statistics.median(row[i] for row in stats.values()) for i in columns]

    def distance(k: int) -> float:
        return sum(abs(x - mid) / mid for x, mid in zip(stats[k], mids))

    return sorted(sorted(stats, key=lambda k: (distance(k), k))[:count])


def size_candidates(scale: bench.Scale, count: int) -> list[int]:
    m = scale.zscan_shards
    sizes = interval_sizes(scale.zscan_n)
    stats = {}
    for k in range(1, m + 1):
        shard = sizes[k - 1 :: m]
        stats[k] = (sum(shard), statistics.median(shard), statistics.quantiles(shard, n=10)[8])
    return closest_to_medians(stats, count)


def gap_shape(run: bench.Run) -> tuple[float, float]:
    """The median and 90th-percentile gap between interval reports of a
    sweep, over the mean gap."""
    gaps = bench.sweep_timings(run)["gaps_ms"]
    mean = statistics.fmean(gaps)
    return statistics.median(gaps) / mean, statistics.quantiles(gaps, n=10)[8] / mean


def random_pair(rng: random.Random, n: int, ell: int):
    perms = list(all_perms(n))
    while True:
        v = rng.choice(perms)
        if length(v) < ell:
            continue
        u = v
        for _ in range(ell):
            down = [t for t in reflections(n) if reflection_length_delta(t, u) == -1]
            u = apply_reflection(rng.choice(down), u)
        return u, v


def make_query(rng: random.Random, stratum: bench.Stratum) -> list[str]:
    ell = rng.choice(stratum.lengths)
    u, v = random_pair(rng, stratum.n, ell)
    pair = [format_perm(u), format_perm(v)]
    if stratum.command == "hcd-z":
        z = rng.choice(build_interval(u, v).elements)
        return ["hcd", *pair, format_perm(z), "--json"]
    if stratum.command == "iso":
        # half the time, insist on an equal-size second pair, so that the
        # isomorphism search itself runs and not only the size test
        want = build_interval(u, v).size if rng.random() < 0.5 else None
        for _ in range(200):
            u2, v2 = random_pair(rng, stratum.n, ell)
            if want is None or build_interval(u2, v2).size == want:
                break
        return ["iso", *pair, format_perm(u2), format_perm(v2), "--json"]
    return [stratum.command, *pair, "--json"]


def record_sweep(argv: list[str], expected: int) -> tuple[list[str], bench.Run]:
    result = bench.run_process(bench.cli_command(argv))
    problems = bench.sweep_problems(result, expected)
    if problems:
        raise SystemExit(f"{' '.join(argv)}: {problems}")
    print(f"recorded {' '.join(argv)}: {len(result.lines)} lines", file=sys.stderr)
    return bench.stream_digests(result.lines), result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=sorted(bench.SCALES), default="full")
    args = parser.parse_args()
    scale = bench.SCALES[args.scale]
    bench.WORK.mkdir(exist_ok=True)

    streams, shapes = {}, {}
    for k in size_candidates(scale, 2 * CANDIDATES):
        argv, expected = bench.zscan_sweep(scale, k)
        lines, run = record_sweep(argv, expected)
        streams[k] = (" ".join(argv), lines)
        shapes[k] = gap_shape(run)
    candidates = closest_to_medians(shapes, CANDIDATES)
    refs: dict = {"zscan_candidates": candidates, "sweeps": dict(streams[k] for k in candidates), "queries": {}}

    rng = random.Random(20230328)
    for stratum in scale.strata:
        pool = refs["queries"][stratum.label] = []
        for _ in range(POOL[args.scale]):
            argv = make_query(rng, stratum)
            result = bench.run_process(bench.cli_command(argv))
            if result.returncode != 0:
                raise SystemExit(f"{' '.join(argv)}: exit {result.returncode}: {result.stderr}")
            pool.append({"argv": argv, "digest": bench.digest(b"".join(result.lines))})
        print(f"recorded {stratum.label}: {len(pool)} queries", file=sys.stderr)

    shutil.rmtree(bench.WORK, ignore_errors=True)
    bench.REFS.mkdir(exist_ok=True)
    with open(bench.REFS / f"{args.scale}.json", "w", encoding="utf-8") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(refs.items())))
        fh.write("\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
