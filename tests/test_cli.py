import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from bruhat_hypercubes import cli, intervals
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


def test_verify_iso_classes_builds_each_interval_once(capsys, monkeypatch):
    calls = []
    real = cli.build_interval

    def counting(u, v, group=None):
        calls.append((u, v, group))
        return real(u, v, group)

    monkeypatch.setattr(cli, "build_interval", counting)
    code, _, _ = run(capsys, "verify", "3", "--iso-classes")
    assert code == 0
    assert len(calls) == 19  # the comparable pairs of S_3, each built once
    # and each read off the one order of S_3
    assert {id(group) for _, _, group in calls} == {id(intervals.bruhat_order(3))}


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


def test_z_scan_rows_match_the_per_z_oracle_s5():
    # every row of every S_5 interval, the standard z's reused row included,
    # against HD2 by a scan of the diamonds and HD3 by build_cluster per x
    # the reasons also in stream order, against a digest recorded at f113ed4:
    # zscan_row calls the library's own build_cluster, so only this pins
    # which failure each cluster reports first
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
    assert reasons.hexdigest() == (
        "2e7af967101d6f1916c5e49b88b6637046a1035865f878e2efb817d21432568e"
    )


def test_verify_5_exhaustive_z_stream_is_pinned(capsys):
    # per-line sha256 of the --json stream, recorded at c29ab02, with the
    # wall-clock seconds of the summary left out
    ref = json.loads(
        (Path(__file__).parent / "refs" / "verify5_exhaustive_z_shard5of16.json").read_text()
    )
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
