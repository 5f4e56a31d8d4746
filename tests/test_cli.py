import functools
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bruhat_hypercubes import cli, intervals
from bruhat_hypercubes.errors import InvariantViolation
from bruhat_hypercubes.intervals import build_interval
from bruhat_hypercubes.perms import format_perm
from bruhat_hypercubes.polynomials import rtilde_from_r

from helpers import comparable_pairs, subprocess_env, zscan_row


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kl_text_and_json(capsys):
    code, out, _ = run(capsys, "kl", "1324", "4231")
    assert code == 0
    assert "P = 1" in out and "R~ = q^4" in out

    code, out, _ = run(capsys, "kl", "123", "123", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["P"] == [1] and obj["R"] == [1] and obj["R_tilde"] == [1]

    code, out, err = run(capsys, "kl", "4231", "1324")
    assert code == 1
    assert "not comparable" in err


def test_kl_parse_failure(capsys):
    code, _, err = run(capsys, "kl", "11", "21")
    assert code == 1 and "error" in err


def test_rtilde_and_simple(capsys):
    code, out, _ = run(capsys, "rtilde", "123", "321", "--json")
    assert code == 0
    assert json.loads(out)["R_tilde"] == [0, 1, 0, 1]

    code, out, _ = run(capsys, "simple", "21354", "52341", "--json")
    assert json.loads(out)["simple"] is True
    code, out, _ = run(capsys, "simple", "1324", "4231", "--json")
    assert json.loads(out)["simple"] is False


def test_matchings_command(capsys):
    code, out, _ = run(capsys, "matchings", "21354", "52341", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_matchings_lists_each_matching_by_its_covers(capsys):
    iv = build_interval((1, 2, 3), (3, 2, 1))
    names = [format_perm(x) for x in iv.elements]
    covers = {(names[i], names[j]) for i, j in iv.hasse_edges}
    code, out, _ = run(capsys, "matchings", "123", "321", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["count"] == len(obj["matchings"]) == 4
    for matching in obj["matchings"]:
        assert all(tuple(pair) in covers for pair in matching)
        assert sorted(x for pair in matching for x in pair) == sorted(names)

    code, out, _ = run(capsys, "matchings", "123", "321")
    assert code == 0
    head, *rows = out.splitlines()
    assert head == "special matchings: 4"
    listed = [[pair.split("<->") for pair in row.strip().split(", ")] for row in rows]
    assert listed == obj["matchings"]


def test_iso_command(capsys):
    code, out, _ = run(
        capsys, "iso", "1324", "4231", "[1,2,3,4,5,6,7,8]", "[2,1,4,3,6,5,8,7]", "--json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["isomorphic"] is True and obj["mapping"]["1324"] == "12345678"

    code, out, _ = run(capsys, "iso", "123", "321", "1324", "4231", "--json")
    assert json.loads(out)["isomorphic"] is False


def test_hcd_standard_report(capsys):
    code, out, _ = run(capsys, "hcd", "123", "321", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ideal"] == ["123", "132"]
    assert obj["h_tilde"] == obj["r_tilde"] == [0, 1, 0, 1]
    assert obj["verdict"] == "equal"
    assert obj["d"] == 1


def test_hcd_example_interval_reports_simple_and_matchings(capsys):
    code, out, _ = run(capsys, "hcd", "21354", "52341", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["simple"] is True and obj["special_matchings"] == 0
    assert obj["verdict"] == "equal"


def test_hcd_with_z_strict_inequality(capsys):
    code, out, _ = run(capsys, "hcd", "132546", "651234", "612345", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["strong"] is True
    assert obj["verdict"] == "greater-equal"
    assert obj["h_tilde"] != obj["r_tilde"]

    code, out, err = run(capsys, "hcd", "123", "321", "213")
    assert code == 0  # z = 213 gives a strong decomposition
    code, out, err = run(capsys, "hcd", "123", "321", "312")
    assert code == 0
    assert "strong = false" in out

    code, _, err = run(capsys, "hcd", "123", "321", "4123")
    assert code == 1


def test_verify_stream_and_roundtrip(capsys):
    code, out, err = run(capsys, "verify", "3", "--exhaustive-z", "--json")
    assert code == 0
    lines = [line for line in out.strip().splitlines()]
    for line in lines:
        assert json.dumps(json.loads(line), sort_keys=True) == line
    summary = json.loads(lines[-1])["summary"]
    assert summary["counterexamples"] == 0
    assert summary["intervals"] == 19
    reports = [json.loads(line) for line in lines[:-1] if "summary" not in line]
    from bruhat_hypercubes.perms import length, parse_perm

    keys = [(length(parse_perm(r["v"])), r["v"], r["u"]) for r in reports]
    assert keys == sorted(keys)


def test_verify_4_clean(capsys):
    code, out, err = run(capsys, "verify", "4", "--json")
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["intervals"] == 213 and summary["counterexamples"] == 0


def test_verify_interval_filter(capsys):
    code, out, _ = run(
        capsys, "verify", "6", "--interval", "132546", "651234", "--exhaustive-z", "--json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    report = json.loads(lines[0])
    strict_rows = [
        row
        for row in report["z_scan"]
        if row["strong"] and row["verdict"] == "greater-equal"
    ]
    assert any(row["z"] == "612345" for row in strict_rows)
    assert report["standard"]["verdict"] == "equal"
    assert report["counts"]["strict"] >= 1


def test_verify_interval_rejects_a_shard_that_leaves_it_out(capsys):
    code, out, err = run(
        capsys, "verify", "4", "--interval", "1324", "4231", "--shard", "2/3"
    )
    assert code == 1
    assert err.startswith("error:") and out == ""
    code, out, _ = run(
        capsys, "verify", "4", "--interval", "1324", "4231", "--shard", "1/3", "--json"
    )
    assert code == 0
    assert json.loads(out.splitlines()[-1])["summary"]["intervals"] == 1


def test_verify_interval_rejects_a_wrong_degree_pair(capsys):
    code, out, err = run(capsys, "verify", "4", "--interval", "132", "321")
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_verify_iso_classes(capsys):
    code, out, _ = run(capsys, "verify", "3", "--iso-classes", "--json")
    assert code == 0
    classes = [
        json.loads(line)
        for line in out.strip().splitlines()
        if "iso_class" in json.loads(line)
    ]
    assert classes
    assert all(len(c["p"]) == 1 for c in classes)
    assert sum(c["members"] for c in classes) == 19


def test_verify_shards_partition_the_work(capsys):
    full_code, full_out, _ = run(capsys, "verify", "3", "--json")
    full = {
        (json.loads(line)["u"], json.loads(line)["v"])
        for line in full_out.strip().splitlines()
        if "summary" not in json.loads(line)
    }
    pieces = []
    for k in (1, 2, 3):
        _, out, _ = run(capsys, "verify", "3", "--shard", f"{k}/3", "--json")
        pieces.append(
            {
                (json.loads(line)["u"], json.loads(line)["v"])
                for line in out.strip().splitlines()
                if "summary" not in json.loads(line)
            }
        )
    assert set.union(*pieces) == full
    assert sum(len(p) for p in pieces) == len(full)
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["verify", "3", "--shard"])
    code, _, err = run(capsys, "verify", "3", "--shard", "5/3")
    assert code == 1


@pytest.mark.parametrize("k, m", [(1, 1), (2, 3), (3, 3), (5, 7), (7, 7)])
def test_verify_shard_is_an_exact_stride_slice(capsys, k, m):
    # shard K/M reports pairs K-1, K-1+M, ... of the (length(v), v, u) order
    code, out, _ = run(capsys, "verify", "4", "--shard", f"{k}/{m}", "--json")
    assert code == 0
    *lines, last = (json.loads(line) for line in out.strip().splitlines())
    want = [(format_perm(u), format_perm(v)) for u, v in comparable_pairs(4)[k - 1 :: m]]
    assert [(r["u"], r["v"]) for r in lines] == want
    assert last["summary"]["intervals"] == len(want)


def test_verify_7_shard_does_not_hold_the_order_of_s7():
    # a shard streams the 3,550,919 pairs of S_7 instead of holding them;
    # held as a tuple, they alone take about 290 MB
    script = (
        "import resource, sys\n"
        "from bruhat_hypercubes import cli\n"
        "code = cli.main(['verify', '7', '--shard', '1/400000', '--json'])\n"
        "sys.stdout.flush()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)\n"
        "sys.exit(code)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=subprocess_env()
    )
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert sum("summary" not in obj for obj in lines) == 9
    assert lines[-1]["summary"]["intervals"] == 9
    peak_mb = int(proc.stderr.split()[-1]) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mb < 150, peak_mb


def test_verify_refuses_sharded_iso_classes(capsys):
    # each shard would group only its own intervals: S_3 has 4 classes,
    # but two shards would report 3 + 3
    code, out, err = run(capsys, "verify", "3", "--iso-classes", "--shard", "1/2")
    assert code == 1
    assert err.startswith("error:") and out == ""
    code, _, _ = run(capsys, "verify", "3", "--iso-classes", "--shard", "1/1")
    assert code == 0


def test_verify_rejects_bad_n(capsys):
    code, _, err = run(capsys, "verify", "9")
    assert code == 1


def test_counterexample_exit_code(capsys, monkeypatch):
    # force a wrong H-tilde to confirm the counterexample path is loud
    from bruhat_hypercubes.polynomials import qp_add

    real = cli.htilde

    def broken(iv, hcd):
        return qp_add(real(iv, hcd), (1,))

    monkeypatch.setattr(cli, "htilde", broken)
    code, out, err = run(capsys, "verify", "2", "--json")
    assert code == 2
    assert "COUNTEREXAMPLE" in err


def test_verify_tests_bruhat_order_only_inside_the_r_tilde_recurrence(capsys, monkeypatch):
    # the sweep's pairs and the x of [u, v] in H-tilde are comparable by
    # construction, so a cold R-tilde memo pays bruhat_leq only where the
    # recurrence needs it (us <= vs): 106 calls, where testing every top-level
    # memo miss too made 319, one more for each of the 213 intervals
    from bruhat_hypercubes import polynomials

    calls = []
    real = polynomials.bruhat_leq

    def counting(u, v):
        calls.append((u, v))
        return real(u, v)

    monkeypatch.setattr(polynomials, "_RT_MEMO", {})
    monkeypatch.setattr(polynomials, "bruhat_leq", counting)
    code, out, _ = run(capsys, "verify", "4", "--exhaustive-z", "--jobs", "1")
    assert code == 0 and "verified 213 intervals" in out
    assert len(calls) == 106


def test_verify_computes_each_strong_h_tilde_once(capsys, monkeypatch):
    # the standard z is one of the strong z of the scan: its H-tilde is
    # computed for its scan row and reused by the standard report
    calls = []
    real = cli.htilde

    def counting(iv, hcd):
        calls.append(tuple(map(format_perm, (iv.bottom, iv.top, iv.elements[hcd.z]))))
        return real(iv, hcd)

    monkeypatch.setattr(cli, "htilde", counting)
    code, out, _ = run(capsys, "verify", "4", "--exhaustive-z", "--json", "--jobs", "1")
    assert code == 0
    *reports, _ = map(json.loads, out.splitlines())
    strong = [
        (r["u"], r["v"], row["z"]) for r in reports for row in r["z_scan"] if row["strong"]
    ]
    assert len(strong) > len(reports)
    assert sorted(calls) == sorted(strong)


def test_verify_iso_classes_builds_each_interval_once(capsys, monkeypatch):
    calls = []
    real = cli.build_interval

    def counting(u, v, group=None):
        calls.append((u, v, group))
        return real(u, v, group)

    monkeypatch.setattr(cli, "build_interval", counting)
    # in process: the calls are counted here, not in forked workers
    code, _, _ = run(capsys, "verify", "3", "--iso-classes", "--jobs", "1")
    assert code == 0
    assert len(calls) == 19  # the comparable pairs of S_3, each built once
    # and each read off the one order of S_3
    assert {id(group) for _, _, group in calls} == {id(intervals.bruhat_order(3))}


def test_verify_iso_classes_refines_each_poset_once(capsys, monkeypatch):
    # the signature and every isomorphism test read a poset's covers and
    # stable colours: each is derived once per interval, whatever the
    # number of tests its poset takes part in
    seen: dict[str, list] = {"covers": [], "stable_colors": []}
    for name, calls in seen.items():
        real = getattr(intervals.AbstractPoset, name).func

        def counting(poset, real=real, calls=calls):
            calls.append(poset)  # held, so no id is reused
            return real(poset)

        derived = functools.cached_property(counting)
        derived.__set_name__(intervals.AbstractPoset, name)
        monkeypatch.setattr(intervals.AbstractPoset, name, derived)
    isomorphic = []
    real_isomorphic = cli.poset_isomorphic
    monkeypatch.setattr(
        cli, "poset_isomorphic", lambda p, q: isomorphic.append(q) or real_isomorphic(p, q)
    )
    code, out, _ = run(capsys, "verify", "4", "--iso-classes", "--json", "--jobs", "1")
    assert code == 0
    *lines, summary = map(json.loads, out.splitlines())
    assert summary["summary"]["intervals"] == 213
    classes = [obj for obj in lines if "iso_class" in obj]
    # every interval but the first of its signature is tested against a class
    assert len(isomorphic) >= 213 - len(classes)
    for calls in seen.values():
        assert len(calls) == len({id(p) for p in calls}) == 213


def test_verify_rejects_an_empty_shard(capsys):
    # S_2 has 3 comparable pairs, so the 4th of 4 slices holds none
    code, out, err = run(capsys, "verify", "2", "--shard", "4/4")
    assert code == 1
    assert err.startswith("error:") and out == ""


@pytest.mark.parametrize("shard", ["", " "])
def test_verify_rejects_a_blank_shard(capsys, shard):
    # only a missing --shard means "no shard"; a blank value, as an unset
    # shell variable would pass, must not sweep all of S_n
    code, out, err = run(capsys, "verify", "3", "--shard", shard)
    assert code == 1
    assert err.startswith("error:") and out == ""


def test_usage_errors_exit_1_and_help_exits_0(capsys):
    assert cli.main(["verify", "3", "--cache", "x"]) == 1
    assert cli.main(["verify", "3", "--shard"]) == 1
    assert "usage:" in capsys.readouterr().err
    assert cli.main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["kl", "4231", "1324"], "4231 and 1324 are not comparable"),
        (["rtilde", "4231", "1324"], "4231 and 1324 are not comparable"),
        (["hcd", "123", "321", "4123"], "4123 is not in the interval"),
        (["verify", "9"], "verify expects 2 <= n <= 7, got 9"),
        (["hcd", "4231", "1324"], "4231 is not <= 1324 in Bruhat order"),
    ],
)
def test_main_reports_a_usage_error_alone(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


# the "u v z reason" lines of every z-scan row of S_5, in stream order,
# recorded at f113ed4
S5_REASONS_SHA256 = "2e7af967101d6f1916c5e49b88b6637046a1035865f878e2efb817d21432568e"


def test_z_scan_rows_match_the_per_z_oracle_s5():
    # every row of every S_5 interval, the standard z's reused row included,
    # against HD2 by a scan of the diamonds and HD3 by reference_cluster per
    # x, a per-z construction apart from the scan's records; the reasons
    # also in stream order, against a digest recorded at f113ed4, which
    # pins which failure each cluster reports first independently of both
    fields = ("strong", "reason", "h_tilde", "verdict")
    rows = reused = 0
    axioms: dict = {}
    reasons = hashlib.sha256()
    for u, v in comparable_pairs(5):
        iv = build_interval(u, v)
        report = cli.analyze_interval(iv, True)
        rt = rtilde_from_r(u, v)
        standard_z = report["standard"] and report["standard"]["z"]
        for z, row in enumerate(report["z_scan"]):
            assert row["z"] == format_perm(iv.elements[z])
            want = zscan_row(iv, z, rt)
            assert {k: row[k] for k in fields} == want, (u, v, row["z"])
            rows += 1
            reused += row["z"] == standard_z
            axiom = (row["reason"] or "ok")[:3]
            axioms[axiom] = axioms.get(axiom, 0) + 1
            reasons.update(f"{report['u']} {report['v']} {row['z']} {row['reason']}\n".encode())
    assert rows == 52_800
    assert reused == 3_781 - 120  # every interval but the 120 points
    assert set(axioms) == {"ok", "HD2", "HD3"}
    assert reasons.hexdigest() == S5_REASONS_SHA256


SHARD_5_OF_16 = json.loads(
    (Path(__file__).parent / "refs" / "verify5_exhaustive_z_shard5of16.json").read_text()
)


def test_verify_5_exhaustive_z_stream_is_pinned(capsys):
    # per-line sha256 of the --json stream, recorded at c29ab02, with the
    # wall-clock seconds of the summary left out
    ref = SHARD_5_OF_16
    code, out, _ = run(capsys, *ref["argv"])
    assert code == 0
    digests = []
    for line in out.splitlines():
        if line.startswith('{"summary"'):
            obj = json.loads(line)
            del obj["summary"]["seconds"]
            line = json.dumps(obj, sort_keys=True)
        digests.append(hashlib.sha256(line.encode()).hexdigest())
    assert digests == ref["sha256"]


# ---------------------------------------------------------------------------
# --jobs: forked workers, merged back into the serial stream

# the summary's wall-clock seconds, in --json and in text
SECONDS = re.compile(r'(?<="seconds": )[0-9.]+|(?<= in )[0-9.]+(?=s$)', re.M)


@pytest.fixture
def forks(monkeypatch):
    """The pids verify forks, with up to four jobs honoured on any host."""
    pids: list[int] = []
    real = os.fork

    def fork():
        pid = real()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def run_at_jobs(capsys, forks, argv, jobs="2"):
    """(code, stdout, stderr) of verify at --jobs 1 and at --jobs J, with the
    summary's seconds masked; J workers must have been forked, and reaped."""
    got = []
    for j in ("1", jobs):
        del forks[:]
        code, out, err = run(capsys, *argv, "--jobs", j)
        assert len(forks) == (0 if j == "1" else int(j))
        assert_reaped(forks)
        got.append((code, SECONDS.sub("0", out), err))
    return got


@pytest.mark.parametrize(
    "argv, jobs",
    [
        (["verify", "5", "--iso-classes", "--json"], "2"),
        (["verify", "4", "--exhaustive-z"], "2"),  # text mode
        (["verify", "5", "--json", "--shard", "3/7"], "2"),
        (["verify", "2", "--json"], "4"),  # fewer pairs than workers
    ],
)
def test_jobs_keep_the_serial_stream(capsys, forks, argv, jobs):
    serial, forked = run_at_jobs(capsys, forks, argv, jobs)
    assert forked == serial
    assert serial[0] == 0 and serial[1].count("\n") > 3


def test_verify_5_exhaustive_z_at_two_jobs_matches_the_pins(capsys, forks):
    serial, forked = run_at_jobs(capsys, forks, ["verify", "5", "--exhaustive-z", "--json"])
    assert forked == serial
    code, out, err = forked
    assert code == 0 and err == ""
    *lines, summary = out.splitlines()
    assert json.loads(summary)["summary"]["intervals"] == len(lines) == 3781
    # shard 5/16 is every 16th line from the 5th: its pinned digests
    digests = [hashlib.sha256(line.encode()).hexdigest() for line in lines[4::16]]
    assert digests == SHARD_5_OF_16["sha256"][:-1]
    reasons = hashlib.sha256()
    for report in map(json.loads, lines):
        for row in report["z_scan"]:
            reasons.update(f"{report['u']} {report['v']} {row['z']} {row['reason']}\n".encode())
    assert reasons.hexdigest() == S5_REASONS_SHA256


@pytest.mark.parametrize("k", [6, 7])  # pairs of worker 0 and of worker 1
def test_a_failure_keeps_its_place_at_two_jobs(capsys, monkeypatch, forks, k):
    target = comparable_pairs(4)[k]
    real = cli.analyze_interval

    def failing(iv, exhaustive_z):
        if (iv.bottom, iv.top) == target:
            raise InvariantViolation(f"planted at pair {k}")
        return real(iv, exhaustive_z)

    monkeypatch.setattr(cli, "analyze_interval", failing)
    seen = []
    for jobs in ("1", "2"):
        del forks[:]
        with pytest.raises(InvariantViolation, match=f"^planted at pair {k}$"):
            cli.main(["verify", "4", "--json", "--jobs", jobs])
        assert len(forks) == (0 if jobs == "1" else 2)
        assert_reaped(forks)
        seen.append(capsys.readouterr())
    assert seen[1] == seen[0]
    assert len(seen[0].out.splitlines()) == k  # the reports before pair k


def test_a_worker_that_dies_fails_the_sweep(capsys, monkeypatch, forks):
    # a worker killed mid-sweep ends its pipe without an end marker: that
    # is an error at its place in the stream, never a shorter stream
    target = comparable_pairs(4)[7]
    real = cli.analyze_interval

    def dying(iv, exhaustive_z):
        if (iv.bottom, iv.top) == target:
            os._exit(9)  # only ever in a forked worker: --jobs 2 below
        return real(iv, exhaustive_z)

    monkeypatch.setattr(cli, "analyze_interval", dying)
    with pytest.raises(RuntimeError, match="^verify worker 1 ended early$"):
        cli.main(["verify", "4", "--json", "--jobs", "2"])
    assert len(forks) == 2
    assert_reaped(forks)
    assert len(capsys.readouterr().out.splitlines()) == 7


def test_counterexample_exit_code_at_two_jobs(capsys, monkeypatch, forks):
    # the twin of test_counterexample_exit_code: every interval u < v of S_3
    # is a counterexample, echoed on stderr in stream order
    from bruhat_hypercubes.polynomials import qp_add

    real = cli.htilde
    monkeypatch.setattr(cli, "htilde", lambda iv, hcd: qp_add(real(iv, hcd), (1,)))
    serial, forked = run_at_jobs(capsys, forks, ["verify", "3", "--json"])
    assert forked == serial
    code, out, err = forked
    assert code == 2
    reports = [json.loads(line) for line in out.splitlines()[:-1]]
    named = re.findall(r"^COUNTEREXAMPLE: standard decomposition of \[(\w+), (\w+)\]", err, re.M)
    assert named == [(r["u"], r["v"]) for r in reports if r["u"] != r["v"]]
    assert len(named) == 19 - 6


def test_z_scan_counterexample_rows_at_two_jobs(capsys, monkeypatch, forks):
    # an H-tilde of 0 lies below every R-tilde: every strong z of every
    # interval of S_3 is a counterexample row, echoed in stream order
    monkeypatch.setattr(cli, "htilde", lambda iv, hcd: ())
    serial, forked = run_at_jobs(capsys, forks, ["verify", "3", "--exhaustive-z", "--json"])
    assert forked == serial
    code, out, err = forked
    assert code == 2
    *reports, summary = map(json.loads, out.splitlines())
    strong = [(r, row) for r in reports for row in r["z_scan"] if row["strong"]]
    assert len(strong) > len(reports)
    assert all(row["verdict"] == "less-equal" for _, row in strong)
    named = re.findall(r"^COUNTEREXAMPLE: (strong decomposition .*)$", err, re.M)
    assert named == [
        f"strong decomposition [u, {row['z']}] of [{r['u']}, {r['v']}] has verdict less-equal"
        for r, row in strong
    ]
    standard = re.findall(r"^COUNTEREXAMPLE: standard decomposition ", err, re.M)
    assert len(standard) == 19 - 6
    assert summary["summary"]["counterexamples"] == len(named) + len(standard)
    # the standard message leads each report's list, ahead of its scan rows
    assert all(
        r["counterexamples"][0].startswith("standard decomposition ")
        for r in reports
        if r["u"] != r["v"]
    )


def test_an_iso_class_with_two_polynomials_is_a_counterexample(capsys, monkeypatch, forks):
    # one length-1 pair of S_3 gets P = 1 + q: the class of the 2-chains,
    # represented by its first member [123, 132], then carries two P
    real = cli.kl_poly
    planted = ((1, 2, 3), (2, 1, 3))
    monkeypatch.setattr(cli, "kl_poly", lambda u, v: (1, 1) if (u, v) == planted else real(u, v))
    message = "isomorphism class of [123, 132] carries 2 distinct Kazhdan-Lusztig polynomials"
    streams = []
    for extra in (["--json"], []):
        serial, forked = run_at_jobs(capsys, forks, ["verify", "3", "--iso-classes", *extra])
        assert forked == serial
        code, out, err = forked
        assert code == 2
        assert err == f"COUNTEREXAMPLE: {message}\n"
        streams.append(out.splitlines())
    as_json, as_text = streams
    classes = [obj for obj in map(json.loads, as_json) if "iso_class" in obj]
    assert len(classes) == 4
    (bad,) = [c for c in classes if "counterexample" in c]
    assert bad["counterexample"] == message
    assert bad["representative"] == ["123", "132"]
    assert bad["p"] == [[1], [1, 1]] and bad["members"] == 8  # the covers of S_3
    assert json.loads(as_json[-1])["summary"]["counterexamples"] == 1
    assert as_text[-3:-1] == [
        f"iso class {bad['iso_class']}: P NOT constant",
        "iso classes: 4, all P-constant: False",
    ]


def test_a_killed_verify_leaves_no_worker():
    # the parent is killed at its first report, as a set-up probe kills it:
    # its workers must let go of stdout and stderr and end, quietly
    script = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2  # two workers on any host\n"
        "from bruhat_hypercubes import cli\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    argv = ["verify", "5", "--exhaustive-z", "--json", "--jobs", "2"]
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=subprocess_env(),
        start_new_session=True,
    )
    try:
        assert json.loads(proc.stdout.readline())["u"] == "12345"
    finally:
        os.kill(proc.pid, signal.SIGKILL)
    _, err = proc.communicate(timeout=5)  # EOF on both: no worker holds them
    assert err == ""
    deadline = time.monotonic() + 5
    while True:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        assert time.monotonic() < deadline, "a worker outlived its parent"
        time.sleep(0.05)


@pytest.mark.parametrize("jobs", ["0", "-1", "x", "", " ", "1.5"])
def test_verify_rejects_a_bad_jobs_count_before_forking(capsys, forks, jobs):
    code, out, err = run(capsys, "verify", "3", f"--jobs={jobs}")
    assert code == 1
    assert err.startswith("error:") and out == ""
    assert forks == []


def test_jobs_are_capped_at_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert cli._parse_jobs("2") == 2
    assert cli._parse_jobs("8") == 3
    assert cli._parse_jobs("1") == 1
    # by default, the CPUs this process may use, within the CPU count
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._parse_jobs(None) == 2
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
    assert cli._parse_jobs(None) == 3
    # without os.fork, everything runs in process
    monkeypatch.delattr(os, "fork")
    assert cli._parse_jobs("2") == cli._parse_jobs(None) == 1


def test_default_jobs_stay_in_process_under_an_observer(monkeypatch):
    # a profiler, or a wrapper put on a function of cli, sees only the
    # process it runs in, so by default verify does not fork under one
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert cli._parse_jobs(None) == 2
    sys.setprofile(lambda *a: None)
    try:
        assert cli._parse_jobs(None) == 1
    finally:
        sys.setprofile(None)
    real = cli.build_interval
    monkeypatch.setattr(cli, "build_interval", lambda *a: real(*a))
    assert cli._parse_jobs(None) == 1
    assert cli._parse_jobs("2") == 2  # a count asked for is kept
