"""Command-line interface: output rows, exit codes, determinism."""

import argparse
import csv
from fractions import Fraction
import hashlib
import importlib
import inspect
import io
import math
import os
import pkgutil
import random
import subprocess
import sys
import time

import pytest

import switchlp
from switchlp import adversary, bounds, cli, clos, lpcert

from lp_oracle import solve_enumerated


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(text):
    return list(csv.reader(io.StringIO(text)))


def mixed_rate(rng):
    """A rate as trace text: k/60, a two-place decimal, or p/q with q up to
    10^6, so a few of the last already push the lcm of the denominators
    past 2^30."""
    kind = rng.randrange(3)
    if kind == 0:
        return "%d/60" % rng.randint(1, 60)
    if kind == 1:
        return "0.%02d" % rng.randint(1, 99)
    q = rng.randint(2, 10 ** 6)
    return "%d/%d" % (rng.randint(1, q), q)


def churn_trace(seed, events, arrive, live_cap):
    """Trace lines of `events` arrivals and departures.  `arrive(rng, id)`
    gives an arrival's line; a departure names a random earlier arrival
    once the number of undeparted ones reaches `live_cap`, or with
    probability 0.4 before that."""
    rng = random.Random(seed)
    live, lines = [], []
    for k in range(events):
        if live and (len(live) >= live_cap or rng.random() < 0.4):
            idx = rng.randrange(len(live))
            live[idx], live[-1] = live[-1], live[idx]
            lines.append("D %s\n" % live.pop())
        else:
            rid = "e%d" % k
            live.append(rid)
            lines.append(arrive(rng, rid))
    return lines


def lcm_of_rates(lines):
    """lcm of the denominators of the rates on arrival lines."""
    den = 1
    for line in lines:
        if line.startswith("A "):
            den = math.lcm(den, Fraction(line.split()[-1]).denominator)
    return den


class TestBound:
    def test_clos_snb(self, capsys):
        code, out, _ = run(capsys, "bound", "clos-snb", "--n", "4")
        assert code == 0
        got = rows(out)
        assert got[0] == ["kind", "n", "m_sufficient"]
        assert got[1] == ["clos-snb", "4", "7"]

    def test_multilog(self, capsys):
        code, out, _ = run(capsys, "bound", "multilog", "--d", "2",
                           "--n", "4", "--t", "1", "--f", "16")
        assert code == 0
        got = rows(out)[1]
        assert got[6] == "6"
        assert got[7] == "C2"

    def test_multilog_crosstalk(self, capsys):
        code, out, _ = run(capsys, "bound", "multilog", "--d", "2",
                           "--n", "4", "--t", "1", "--f", "16",
                           "--mode", "crosstalk")
        assert code == 0
        assert rows(out)[1][6] == "12"

    @pytest.mark.parametrize("d, n, t, f, m", [
        ("2", "20", "16", "65536", "64561"), ("2", "20", "17", "65537", "126993")])
    def test_multilog_crosstalk_large_k(self, capsys, d, n, t, f, m):
        # 2^16 and 2^16 + 1 values of k: the G1 row's tight value is found
        # by a concavity search, not a scan over k
        code, out, _ = run(capsys, "bound", "multilog", "--d", d, "--n", n,
                           "--t", t, "--f", f, "--mode", "crosstalk")
        assert code == 0
        assert rows(out)[1] == ["multilog", d, n, t, f, "crosstalk", m, "G1"]

    @pytest.mark.parametrize("argv, golden", [
        (["clos-wsnb-r2", "--n", "4"], "kind,n,m_sufficient\n"
         "clos-wsnb-r2,4,6\n"),
        (["hwang", "--d", "2", "--n", "4"], "kind,d,n,m_sufficient\n"
         "hwang,2,4,5\n"),
    ], ids=["clos-wsnb-r2", "hwang"])
    def test_golden_rows(self, capsys, argv, golden):
        assert run(capsys, "bound", *argv) == (0, golden, "")

    @pytest.mark.parametrize("row", [
        "3,4,0,1,link,11,C1", "3,4,0,81,link,27,C2", "3,4,2,9,link,13,C3",
        "3,4,2,1,link,12,C4", "3,4,3,1,link,11,C5",
        "3,4,3,9,crosstalk,29,G1", "3,5,4,1,crosstalk,39,G2",
        "2,7,6,5,crosstalk,48,G3", "3,4,3,1,crosstalk,25,G4",
        "3,4,2,1,crosstalk,37,G5", "3,4,0,1,crosstalk,17,G6",
        "3,4,1,19,crosstalk,63,G7", "2,4,1,8,crosstalk,12,G8",
        "3,4,1,81,crosstalk,63,G9", "2,5,5,3,link,11,t=n",
        "3,4,4,2,crosstalk,25,t=n",
    ], ids=lambda row: "%s-%s" % tuple(row.split(",")[4::2]))
    def test_golden_multilog_rows(self, capsys, row):
        # one point per table row and per t = n corollary, as printed when
        # each table took the least of the rows whose conditions matched
        d, n, t, f, mode = row.split(",")[:5]
        got = run(capsys, "bound", "multilog", "--d", d, "--n", n, "--t", t,
                  "--f", f, "--mode", mode)
        assert got == (0, "kind,d,n,t,f,mode,m_sufficient,branch\n"
                       "multilog,%s\n" % row, "")

    @pytest.mark.parametrize("d", ["2", "3"])
    def test_crosstalk_t_eq_n_at_n_1_is_an_integer(self, capsys, d):
        # d - (d-1)/d planes, rounded up; it printed as 1.5 at d = 2
        code, out, _ = run(capsys, "bound", "multilog", "--d", d, "--n", "1",
                           "--t", "1", "--f", "1", "--mode", "crosstalk")
        assert code == 0
        assert rows(out)[1] == ["multilog", d, "1", "1", "1", "crosstalk", d,
                                "t=n"]

    def test_multirate_scheme(self, capsys):
        code, out, _ = run(capsys, "bound", "clos-multirate", "--n", "8")
        assert code == 0
        assert rows(out)[1][3] == "46"

    @pytest.mark.parametrize("scheme, digest", [
        ("four_type",
         "a88d75d59785251a2a97d63a25d54aebbb8527f7030bf159162950c3f72f84be"),
        ("five_type_paper",
         "a2c1959fb365ea9af487458fb1bb800e5174f03bd342dff79f6e0f15053d0670")])
    def test_multirate_golden(self, capsys, scheme, digest):
        # sha256 of the rows for n = 1..64 as printed when the four-type
        # count was the hand formula 2n + ceil(3n/8) + ceil(3n/10) + 3n
        out = ""
        for n in range(1, 65):
            code, text, _ = run(capsys, "bound", "clos-multirate",
                                "--n", str(n), "--scheme", scheme)
            assert code == 0
            out += text
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_t_out_of_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "bound", "multilog", "--d", "2",
                           "--n", "4", "--t", "5", "--f", "1")
        assert code == 2
        assert "error:" in err

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "bound", "clos-snb")
        assert code == 2
        assert "--n" in err

    def test_config_file_fills_gaps(self, capsys, tmp_path):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("# defaults\nn = 4\nt = 1\nf = 16\n")
        code, out, _ = run(capsys, "bound", "multilog", "--d", "2",
                           "--config", str(cfg))
        assert code == 0
        assert rows(out)[1][6] == "6"

    def test_bad_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just words\n")
        code, _, err = run(capsys, "bound", "clos-snb", "--config", str(cfg))
        assert code == 2
        assert "key = value" in err

    def test_undecodable_config_line(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"d = 2\nn = \xff3\n")
        code, out, err = run(capsys, "bound", "multilog", "--t", "1",
                             "--f", "1", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: %s:2: not UTF-8: b'" % cfg)

    def test_config_overrides_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "net.cfg"
        cfg.write_text("mode = crosstalk\n")
        argv = ["bound", "multilog", "--d", "2", "--n", "4", "--t", "1",
                "--f", "16", "--config", str(cfg)]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert rows(out)[1][5:7] == ["crosstalk", "12"]
        # the command line still wins over the file
        code, out, _ = run(capsys, *argv, "--mode", "link")
        assert rows(out)[1][5:7] == ["link", "6"]

    def test_config_sets_seed_and_trials(self, capsys, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = 3\ntrials = 1\n")
        argv = ["simulate", "--d", "2", "--n", "3", "--t", "1", "--f", "2",
                "--steps", "30"]
        _, from_file, _ = run(capsys, *argv, "--config", str(cfg))
        _, explicit, _ = run(capsys, *argv, "--seed", "3", "--trials", "1")
        assert rows(from_file)[1][8:10] == ["3", "1"]
        assert from_file == explicit

    @pytest.mark.parametrize("text", ["colour = red\n", "n = four\n",
                                      "mode = sideways\n"])
    def test_bad_config_entry(self, capsys, tmp_path, text):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out, _ = run(capsys, "bound", "multilog", "--d", "2", "--n",
                           "4", "--t", "1", "--f", "2", "--config", str(cfg))
        assert code == 2 and out == ""


class TestSimulate:
    def test_multilog_sweep_nonblocking(self, capsys):
        code, out, _ = run(capsys, "simulate", "--network", "multilog",
                           "--d", "2", "--n", "3", "--t", "1", "--f", "2",
                           "--trials", "2", "--steps", "40", "--seed", "5",
                           "--expect-nonblocking")
        assert code == 0
        got = rows(out)[1]
        assert got[0] == "multilog"
        assert got[10] == "0"  # blocked events

    def test_sweep_deterministic(self, capsys):
        argv = ["simulate", "--network", "multilog", "--d", "2", "--n", "3",
                "--t", "1", "--f", "2", "--trials", "2", "--steps", "40",
                "--seed", "5"]
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("argv, digest", [
        (["--d", "2", "--n", "6", "--t", "3", "--f", "2", "--trials", "3",
          "--steps", "300", "--seed", "5"],
         "0b1bac012d4dce140af3e12ff3cf46b7f1df273c570d525945e28f59211c00f2"),
        (["--d", "2", "--n", "6", "--t", "3", "--f", "2", "--trials", "3",
          "--steps", "300", "--seed", "5", "--mode", "crosstalk"],
         "59bf9c595220d1dc2411291d52b56c41fed54c3893955cab55fabb94cc0aad1a"),
        # 1,515 blocked events: pins the blocked path as well
        (["--d", "2", "--n", "5", "--t", "2", "--f", "2", "--m", "2",
          "--adversary", "greedy", "--trials", "2", "--steps", "200",
          "--seed", "3"],
         "0b3f4aa6bff2ecd15a096c783c8fef7a89d399a4fc5c9a8ac62cc1bb49391bca"),
    ])
    def test_golden_sweep(self, capsys, argv, digest):
        # sha256 of the rows as printed when occupancy was scanned plane by
        # plane over DaryString keys; the key-major int occupancy must print
        # the same bytes
        code, out, _ = run(capsys, "simulate", "--network", "multilog", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("mode", ["link", "crosstalk"])
    def test_sweep_at_t_eq_n_defaults_m(self, capsys, mode):
        # with no --m the sweep takes the m that `bound multilog` prints,
        # the t = n corollary here
        args = ["--d", "2", "--n", "3", "--t", "3", "--f", "2", "--mode",
                mode]
        code, out, _ = run(capsys, "bound", "multilog", *args)
        assert code == 0
        m, branch = rows(out)[1][6:]
        assert branch == "t=n"
        code, out, err = run(capsys, "simulate", "--network", "multilog",
                             *args, "--trials", "3", "--steps", "80",
                             "--expect-nonblocking")
        assert (code, err) == (0, "")
        got = rows(out)[1]
        assert got[6] == m and got[10] == "0"

    @pytest.mark.parametrize("d, f", [(2, 1), (3, 3)])
    def test_crosstalk_sweep_at_n_1_defaults_m_to_d(self, capsys, d, f):
        # the default m used to be a float the sweep refused; m = d blocks
        # nothing under greedy pressure, and m = d - 1 blocks
        args = ["--network", "multilog", "--d", str(d), "--n", "1", "--t",
                "1", "--f", str(f), "--mode", "crosstalk", "--adversary",
                "greedy", "--trials", "5", "--steps", "200"]
        code, out, err = run(capsys, "simulate", *args,
                             "--expect-nonblocking")
        assert (code, err) == (0, "")
        got = rows(out)[1]
        assert got[6] == str(d) and got[10] == "0"
        code, out, _ = run(capsys, "simulate", *args, "--m-offset", "-1")
        assert code == 0
        assert int(rows(out)[1][10]) > 0

    @pytest.mark.parametrize("offset", [-1, 0, 5])
    def test_m_offset_shifts_default_m(self, capsys, offset):
        m, _ = bounds.multilog_planes(2, 4, 2, 2, "link")
        code, out, _ = run(capsys, "simulate", "--d", "2", "--n", "4",
                           "--t", "2", "--f", "2", "--m-offset", str(offset),
                           "--trials", "1", "--steps", "5")
        assert code == 0
        assert rows(out)[1][6] == str(m + offset)

    def test_undersized_sweep_fails(self, capsys):
        # one plane short of the sufficient count, greedy pressure
        code, out, _ = run(capsys, "simulate", "--network", "multilog",
                           "--d", "2", "--n", "3", "--t", "0", "--f", "1",
                           "--m", "1", "--adversary", "greedy",
                           "--trials", "2", "--steps", "60", "--seed", "1",
                           "--expect-nonblocking")
        assert code == 1
        assert int(rows(out)[1][10]) > 0

    def test_clos_saturation(self, capsys):
        code, out, _ = run(capsys, "simulate", "--network", "clos-snb",
                           "--n", "3", "--m", "4", "--expect-nonblocking")
        assert code == 1
        assert rows(out)[1][4] == "blocked"
        code, out, _ = run(capsys, "simulate", "--network", "clos-snb",
                           "--n", "3", "--m", "5", "--expect-nonblocking")
        assert code == 0
        assert rows(out)[1][4] == "admitted"

    @pytest.mark.parametrize("argv", [
        ["--d", "2", "--n", "3", "--t", "4", "--f", "2"],
        ["--d", "2", "--n", "3", "--t", "4", "--f", "2", "--m", "2"],
        ["--d", "2", "--n", "3", "--t", "1", "--f", "9"],
        ["--d", "2", "--n", "3", "--t", "1", "--f", "2",
         "--adversary", "exhaustive"],
        ["--network", "clos-snb", "--n", "3", "--m", "3"],
        ["--network", "clos-snb", "--n", "1"],
        ["--d", "2", "--n", "4", "--t", "2", "--f", "2", "--m", "3",
         "--m-offset", "5"],
        ["--network", "clos-snb", "--n", "3", "--m", "4", "--m-offset", "2"],
        ["--network", "clos-benes", "--n", "2", "--m", "3",
         "--m-offset", "1"],
    ])
    def test_refused_sweep_prints_nothing(self, capsys, argv):
        # refused before the header: no partial CSV on stdout
        code, out, err = run(capsys, "simulate", *argv)
        assert (code, out) == (2, "")
        assert "error" in err

    @pytest.mark.parametrize("network, lines", [
        # a set-up row that is not admitted
        ("clos-snb", ["A a 0:0 1:0\n", "A b 0:0 1:1\n", "A probe 0:0 0:0\n"]),
        # a witness whose last arrival is admitted
        ("clos-benes", ["A a 0:0 1:0\n"]),
    ])
    def test_clos_sweep_checks_the_replay(self, monkeypatch, network, lines):
        config = clos.ClosConfig(2, 3, 3)
        monkeypatch.setattr(adversary, "snb_saturation",
                            lambda n, m: (config, lines))
        monkeypatch.setattr(adversary, "benes_search",
                            lambda n, m, max_depth: lines)
        with pytest.raises(AssertionError, match="replay ends"):
            cli.main(["simulate", "--network", network, "--n", "2"])

    @pytest.mark.parametrize("network, bound", [
        ("clos-snb", bounds.clos_snb), ("clos-benes", bounds.clos_wsnb_r2)])
    def test_clos_sweep_reports_default_m(self, capsys, network, bound):
        code, out, _ = run(capsys, "simulate", "--network", network,
                           "--n", "2")
        assert code == 0
        assert rows(out)[1][2] == str(bound(2))

    @pytest.mark.parametrize("network, bound", [
        ("clos-snb", bounds.clos_snb), ("clos-benes", bounds.clos_wsnb_r2)])
    @pytest.mark.parametrize("offset", [-1, 2])
    def test_m_offset_shifts_default_clos_m(self, capsys, network, bound,
                                            offset):
        code, out, err = run(capsys, "simulate", "--network", network,
                             "--n", "3", "--m-offset", str(offset))
        assert (code, err) == (0, "")
        assert rows(out)[1][2] == str(bound(3) + offset)

    def test_benes_search(self, capsys):
        code, out, _ = run(capsys, "simulate", "--network", "clos-benes",
                           "--n", "2", "--m", "3", "--expect-nonblocking")
        assert code == 0
        assert rows(out)[1][4] == "nonblocking"
        code, out, _ = run(capsys, "simulate", "--network", "clos-benes",
                           "--n", "2", "--m", "2", "--expect-nonblocking")
        assert code == 1

    @pytest.mark.parametrize("n, m, depth", [("3", "3", "4"), ("3", "1", "0"),
                                             ("2", "3", "2")])
    def test_benes_cut_search_is_undecided(self, capsys, n, m, depth):
        # a search cut at --depth before it closed proves nothing: n = 3,
        # m = 3 blocks past depth 4, and depth 0 searches only the empty
        # state
        code, out, _ = run(capsys, "simulate", "--network", "clos-benes",
                           "--n", n, "--m", m, "--depth", depth,
                           "--expect-nonblocking")
        assert code == 1
        assert rows(out)[1][4] == "undecided"
        code, out, _ = run(capsys, "simulate", "--network", "clos-benes",
                           "--n", n, "--m", m, "--depth", depth)
        assert code == 0

    def test_depth_rule_is_the_librarys(self, capsys):
        # `--depth` and `benes_search` state one rule with one message
        with pytest.raises(ValueError) as raised:
            adversary.benes_search(3, 3, max_depth=-1)
        code, out, err = run(capsys, "simulate", "--network", "clos-benes",
                             "--n", "3", "--m", "3", "--depth", "-1")
        assert (code, out) == (2, "")
        assert err == "error: %s\n" % raised.value

    def test_benes_sweep_refuses_r(self, capsys, tmp_path):
        # the search runs the r = 2 rule, so a sweep at --r 4 is refused as
        # the replay is, not answered for r = 2
        argv = ["simulate", "--network", "clos-benes", "--n", "3", "--m",
                "4", "--r", "4", "--expect-nonblocking"]
        trace = tmp_path / "w.trace"
        trace.write_text("A r1 0:0 1:0\n")
        for extra in ([], ["--trace", str(trace)]):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out) == (2, "")
            assert err == ("error: clos-benes replays the r = 2 reuse rule; "
                           "got --r 4\n")

    def test_benes_depth_past_closure(self, capsys):
        # n = 2, m = 3 closes within 20 events, so the cut never bites
        code, out, _ = run(capsys, "simulate", "--network", "clos-benes",
                           "--n", "2", "--m", "3", "--depth", "20",
                           "--expect-nonblocking")
        assert code == 0
        assert rows(out)[1][4] == "nonblocking"

    def test_benes_witness_replays_blocked(self, capsys, tmp_path):
        # the search's witness at m = 3 < floor(3n/2) replays through the
        # command line's trace path: admitted up to its last line
        found = adversary.benes_search(3, 3)
        trace = tmp_path / "w.trace"
        trace.write_text("".join(found))
        code, out, _ = run(capsys, "simulate", "--network", "clos-benes",
                           "--n", "3", "--m", "3", "--trace", str(trace),
                           "--expect-nonblocking")
        assert code == 1
        assert [r[3] for r in rows(out)[1:]] == \
            ["ok"] * (len(found) - 1) + ["blocked"]

    def test_multilog_trace_replay(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        trace.write_text("A r1 000 000\nA r2 100 001\nD r1\n")
        code, out, _ = run(capsys, "simulate", "--network", "multilog",
                           "--trace", str(trace), "--d", "2", "--n", "3",
                           "--m", "1", "--expect-nonblocking")
        assert code == 1
        assert [r[4] for r in rows(out)[1:]] == ["ok", "blocked", "ok"]

    def test_multilog_trace_dotted_addresses(self, capsys, tmp_path):
        # base 11: the same requests written one character per digit and as
        # the dotted decimals `str` prints give the same rows
        argv = ["simulate", "--network", "multilog", "--d", "11", "--n", "2",
                "--m", "1"]
        got = []
        for text in ("A r1 00 00\nA r2 a1 a0\nA r3 a2 a5\nD r2\n"
                     "A r4 aa 1a\n",
                     "A r1 0.0 0.0\nA r2 10.1 10.0\nA r3 10.2 10.5\nD r2\n"
                     "A r4 10.10 1.10\n"):
            trace = tmp_path / "t.trace"
            trace.write_text(text)
            code, out, _ = run(capsys, *argv, "--trace", str(trace))
            assert code == 0
            got.append(rows(out))
        assert got[0] == got[1]
        assert [r[4] for r in got[0][1:]] == ["ok", "ok", "blocked", "ok",
                                              "ok"]

    def test_clos_trace_replay(self, capsys, tmp_path):
        trace = tmp_path / "c.trace"
        trace.write_text("A a 0:0 1:0\nA b 0:1 1:1\nD a\n")
        code, out, _ = run(capsys, "simulate", "--network", "clos-snb",
                           "--trace", str(trace), "--n", "2", "--m", "1",
                           "--r", "2")
        assert code == 0
        assert [r[3] for r in rows(out)[1:]] == ["ok", "blocked", "ok"]

    def test_benes_trace_uses_reuse_rule(self, capsys, tmp_path):
        # after `D a`, first fit takes the idle middle 0 for c, while the
        # reuse rule takes middle 1, which carries c's diagonal class
        trace = tmp_path / "b.trace"
        trace.write_text("A a 0:0 0:0\nA b 0:1 1:1\nD a\nA c 1:0 0:0\n")
        middles = {}
        for network in ("clos-snb", "clos-benes"):
            code, out, _ = run(capsys, "simulate", "--network", network,
                               "--trace", str(trace), "--n", "2", "--m", "3")
            assert code == 0
            middles[network] = [r[2] for r in rows(out)[1:]]
        assert middles == {"clos-snb": ["0", "1", "", "0"],
                           "clos-benes": ["0", "1", "", "1"]}

    def test_multirate_needs_trace(self, capsys):
        code, out, err = run(capsys, "simulate", "--network",
                             "clos-multirate", "--n", "2")
        assert code == 2 and out == ""
        assert "no sweep" in err and "--trace" in err
        assert "unknown network" not in err

    def test_multirate_trace_replay(self, capsys, tmp_path):
        trace = tmp_path / "m.trace"
        trace.write_text("A a 0:0 1:0 1/2\nA b 0:0 1:1 1/2\n")
        code, out, _ = run(capsys, "simulate", "--network", "clos-multirate",
                           "--trace", str(trace), "--n", "2", "--m", "40")
        assert code == 0
        assert [r[3] for r in rows(out)[1:]] == ["ok", "ok"]

    def test_golden_multirate_trace(self, capsys, tmp_path):
        # sha256 of the rows as printed when every load was a Fraction; the
        # scaled-int loads must print the same bytes, blocked rows included
        def arrive(rng, rid):
            return "A %s %d:%d %d:%d %s\n" % (
                rid, rng.randrange(3), rng.randrange(3), rng.randrange(3),
                rng.randrange(3), mixed_rate(rng))

        lines = churn_trace(7, 2000, arrive, 12)
        assert lcm_of_rates(lines) > 2 ** 30
        trace = tmp_path / "m.trace"
        trace.write_text("".join(lines))
        code, out, _ = run(capsys, "simulate", "--network", "clos-multirate",
                           "--trace", str(trace), "--n", "3", "--m", "6",
                           "--r", "3")
        assert code == 0
        assert [r[3] for r in rows(out)[1:]].count("blocked") >= 50
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "0b86bfb527b7bbe36f775c08cb715fc6510f3db347a420169d81b9ee6d188d38"


class TestDwec:
    def test_derive_constants(self, capsys):
        code, out, _ = run(capsys, "dwec", "--derive-constants",
                           "1/2,2/5,1/3")
        assert code == 0
        got = rows(out)[1]
        assert got[2] == "227/40"
        assert float(got[3]) == pytest.approx(5.675)

    def test_derive_five_type(self, capsys):
        code, out, _ = run(capsys, "dwec", "--derive-constants",
                           "1/2,2/5,1/3,11/43")
        assert code == 0
        assert rows(out)[1][2] == "156051/27520"

    @pytest.mark.parametrize("breakpoints, digest", [
        ("1/2",
         "5706bab1b0e730f82a0aecd03831bea7763869bea5f981657c4470df95293445"),
        ("1/2,2/5,1/3",
         "8bebb8921bfb74caacdc375f7cd79d9c5684de333a2cae7e5f242fcb5eec08e7"),
        ("1/2,2/5,1/3,11/43",
         "62f6e566f46f0f1f9edd99f8520379ddc294ef56f621ecd0db4fccd8ba530efe"),
        ("1/2,22/49,23/57,4/11,19/58,16/55",
         "de9b3b24b9c92632de037d4438103e651993c1a1a2537b82952d0c7a970f349f")],
        ids=["two-type", "four-type", "five-type", "best-split"])
    def test_derive_golden(self, capsys, breakpoints, digest):
        # sha256 of the row as printed when a separate derived-constants
        # record, not the scheme, carried the objective
        code, out, _ = run(capsys, "dwec", "--derive-constants", breakpoints)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_fraction(self, capsys):
        code, _, err = run(capsys, "dwec", "--derive-constants", "1/0")
        assert code == 2
        assert "error:" in err

    def test_trace_run(self, capsys, tmp_path):
        trace = tmp_path / "w.trace"
        trace.write_text("A e1 u v 3/5\nA e2 u v 1/2\nD e1\n")
        code, out, _ = run(capsys, "dwec", "--trace", str(trace))
        assert code == 0
        got = rows(out)
        assert got[0] == ["t", "colors_used", "opt_lower", "W_bar",
                          "Delta_bar"]
        assert got[1][1] == "6"

    def test_golden_trace(self, capsys, tmp_path):
        # sha256 of the rows as printed when every load was a Fraction; the
        # scaled-int loads must print the same bytes
        def arrive(rng, rid):
            return "A %s u%d v%d %s\n" % (rid, rng.randrange(8),
                                           rng.randrange(8), mixed_rate(rng))

        lines = churn_trace(11, 3000, arrive, 40)
        assert lcm_of_rates(lines) > 2 ** 30
        trace = tmp_path / "w.trace"
        trace.write_text("".join(lines))
        code, out, _ = run(capsys, "dwec", "--trace", str(trace))
        assert code == 0
        assert len(rows(out)) == 3001
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "86e05912bb03661a68c7db8608980e1dc23f3ab273b4e4b709cd9dc3cd10bfd4"

    def test_needs_trace_or_derive(self, capsys):
        code, _, err = run(capsys, "dwec")
        assert code == 2
        assert "trace" in err


class TestCertify:
    def test_small_grid_passes(self, capsys):
        code, out, _ = run(capsys, "certify", "--d", "2", "--n", "3",
                           "--f", "1", "--mode", "link")
        assert code == 0
        got = rows(out)
        assert got[0][:4] == ["d", "n", "t", "f"]
        assert len(got) > 1
        assert all(r[11] == "true" for r in got[1:])

    def test_golden_grid(self, capsys):
        # sha256 of the grid as printed when every instance enumerated its
        # addresses; the class-level build must print the same bytes
        code, out, _ = run(capsys, "certify", "--d", "2,3", "--n", "3,4,5")
        assert code == 0
        assert out.count("\n") == 4027
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "1bb6044c2180050e36d2391cc3724a08c99d7fa1292153e08bd0cc9d5043642d"

    def test_repeated_value_read_once(self, capsys):
        once = run(capsys, "certify", "--d", "2", "--n", "3", "--f", "1")
        assert once[0] == 0 and once[1].count("\n") > 1
        assert run(capsys, "certify", "--d", "2,2", "--n", "3,3",
                   "--f", "1,1") == once

    @pytest.mark.parametrize("argv", [
        ["--d", "3", "--n", "10000000"],
        # over the cap at n = 200 before the bad f at n = 3 is reached
        ["--n", "200,3", "--f", "9"],
        # n * n = 1000000 would fit the cap, C(1002, 3) per mode does not
        ["--d", str(10 ** 4000), "--n", "1000"],
    ], ids=["long-n", "cap-before-later-f", "huge-d"])
    def test_over_cap_refused_before_any_power(self, capsys, argv):
        # a (d, n) has C(n + 2, 3) rows per mode or more, so the count
        # refuses these before any d^n, of which 3^10000000 or
        # (10^4000)^1000 alone takes seconds
        start = time.perf_counter()
        code, out, err = run(capsys, "certify", *argv)
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == "error: the grid has more than 1000000 rows\n"

    def test_fuzz_reports_violations(self, capsys, monkeypatch):
        family = lpcert.dual_family

        def zeroed(inst, p, q):
            # every dual zeroed: each class constraint is violated
            sol = family(inst, p, q)
            sol.eps = {i: 0 for i in sol.eps}
            sol.gamma = {i: 0 for i in sol.gamma}
            sol.beta = {}
            sol.alpha = {j: 0 for j in sol.alpha}
            return sol

        monkeypatch.setattr(lpcert, "dual_family", zeroed)
        code, out, _ = run(capsys, "certify", "--d", "2", "--n", "3",
                           "--f", "1", "--mode", "link")
        assert code == 1
        assert any(r[8] == "false" and "DC-" in r[9]
                   for r in rows(out)[1:])


class TestOptimum:
    @pytest.mark.parametrize("argv", [
        ("2", "3", "1", "2", "1", "link"),
        ("2", "4", "1", "2", "2", "crosstalk"),
        ("2", "4", "2", "16", "3", "link"),
        ("3", "3", "1", "9", "2", "crosstalk"),
        ("2", "3", "3", "8", "8", "link"),
        ("3", "2", "0", "1", "1", "crosstalk")])
    def test_row_is_the_enumerated_optimum(self, capsys, argv):
        opts = [x for name, v in zip(("d", "n", "t", "f", "k", "mode"), argv)
                for x in ("--" + name, v)]
        code, out, err = run(capsys, "optimum", *opts)
        assert (code, err) == (0, "")
        inst = lpcert.canonical_instance(*map(int, argv[:5]), argv[5])
        assert rows(out) == [["d", "n", "t", "f", "k", "mode", "optimum"],
                             [*argv, str(solve_enumerated(inst))]]

    def test_unsound_dual_is_caught(self, capsys, monkeypatch):
        # the command checks the dual it prints the optimum beside
        def loose(inst):
            value, dual = real(inst)
            return value - 1, dual
        real = lpcert.lp_optimum
        monkeypatch.setattr(lpcert, "lp_optimum", loose)
        with pytest.raises(AssertionError, match="optimal dual prices"):
            cli.main(["optimum", "--d", "2", "--n", "3", "--t", "1",
                      "--f", "2", "--k", "1"])
        assert capsys.readouterr().out == ""

    def test_bad_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "optimum", "--d", "2", "--n", "3",
                           "--t", "1", "--f", "1", "--k", "2")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("t, f, message", [
        ("-1", "1", "t=-1: need integer 0 <= t <= 3"),
        ("4", "1", "t=4: need integer 0 <= t <= 3"),
        ("1", "9", "f=9: need integer 1 <= f <= 8")],
        ids=["t-below-0", "t-above-n", "f-above-d^n"])
    def test_range_errors_name_the_argument(self, capsys, t, f, message):
        code, out, err = run(capsys, "optimum", "--d", "2", "--n", "3",
                             "--t", t, "--f", f, "--k", "1")
        assert (code, out) == (2, "")
        assert message in err


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_unknown_network(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--network", "mystery"])

    @pytest.mark.parametrize("argv, message", [
        (["bound", "multilog", "--d", "1", "--n", "3", "--t", "1",
          "--f", "1"], "d=1: need integer d >= 2"),
        (["simulate", "--network", "clos-snb", "--n", "3", "--d", "1"],
         "the clos-snb sweep does not read --d"),
        (["certify", "--d", "2", "--n", "3", "--f", "2,0"],
         "f=0: need integer 1 <= f <= 8"),
        # a multilog sweep reads --t and --f, so it is given them
        (["simulate", "--d", "2", "--n", "3", "--t", "1", "--f", "1",
          "--m", "0"], "m=0: need integer m >= 1"),
        (["simulate", "--d", "2", "--n", "3", "--t", "1", "--f", "1",
          "--trials", "0"], "trials=0: need integer trials >= 1"),
    ], ids=["bound-d", "unread-d", "certify-f-list", "m", "trials"])
    def test_least_values_carry_the_rule_message(self, capsys, argv,
                                                 message):
        # a value below an option's least reaches the library's rule for
        # that name and exits 2 with its message; a value the run does not
        # read is refused as unread
        assert run(capsys, *argv) == (2, "", "error: %s\n" % message)


def subparsers():
    """{command: its parser}, walked from `cli.build_parser()`."""
    parser = cli.build_parser()
    action, = [action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction)]
    return action.choices


def options(command):
    """{option: the argv that gives it} of every option of `command`'s
    parser but --help and --config: a flag alone, else its first choice, or
    1 where it has no choices."""
    found = {}
    for action in subparsers()[command]._actions:
        if action.option_strings and action.dest not in ("help", "config"):
            flag = action.option_strings[0]
            value = list(action.choices or ["1"])[:action.nargs != 0]
            found[flag] = [flag] + value
    return found


# each run as the command line names it: the argv that selects it with each
# option it requires, and {option: default as argv text, or None where no
# argv spells it} of the options it reads but does not require; TRACE
# stands for a trace file
RUNS = {
    "bound clos-snb": (["bound", "clos-snb", "--n", "3"], {}),
    "bound clos-wsnb-r2": (["bound", "clos-wsnb-r2", "--n", "3"], {}),
    "bound clos-multirate": (["bound", "clos-multirate", "--n", "3"],
                             {"--scheme": "four_type"}),
    "bound hwang": (["bound", "hwang", "--d", "2", "--n", "3"], {}),
    "bound multilog": (["bound", "multilog", "--d", "2", "--n", "3", "--t",
                        "1", "--f", "2"], {"--mode": "link"}),
    "the multilog sweep": (
        ["simulate", "--d", "2", "--n", "3", "--t", "1", "--f", "2"],
        {"--m": None, "--m-offset": None, "--mode": "link",
         "--adversary": "random", "--trials": "10", "--steps": "60",
         "--seed": "0", "--expect-nonblocking": None}),
    "the clos-snb sweep": (["simulate", "--network", "clos-snb", "--n", "3"],
                           {"--m": None, "--m-offset": None,
                            "--expect-nonblocking": None}),
    "the clos-benes sweep": (
        ["simulate", "--network", "clos-benes", "--n", "2"],
        {"--m": None, "--m-offset": None, "--depth": None, "--r": "2",
         "--expect-nonblocking": None}),
    "the multilog replay": (
        ["simulate", "--trace", "TRACE", "--d", "2", "--n", "3", "--m", "1"],
        {"--t": "0", "--f": "1", "--mode": "link",
         "--expect-nonblocking": None}),
    **{"the %s replay" % network: (
        ["simulate", "--network", network, "--trace", "TRACE", "--n", "2",
         "--m", "1"], {"--r": "2", "--expect-nonblocking": None})
       for network in ("clos-snb", "clos-benes", "clos-multirate")},
    "dwec --trace": (["dwec", "--trace", "TRACE"], {"--scheme": "four"}),
    "dwec --derive-constants": (["dwec", "--derive-constants", "1/2,2/5,1/3"],
                                {}),
    "certify": (["certify"], {"--d": "2", "--n": "3,4", "--f": None,
                              "--mode": None}),
    "optimum": (["optimum", "--d", "2", "--n", "3", "--t", "1", "--f", "2",
                 "--k", "1"], {"--mode": "link"}),
}

TRACES = {
    "the multilog replay": "A r1 000 000\nA r2 100 001\nD r1\n",
    "the clos-snb replay": "A a 0:0 1:0\nA b 0:1 1:1\nD a\n",
    "the clos-benes replay": "A a 0:0 0:0\nA b 0:1 1:1\nD a\nA c 1:0 0:0\n",
    "the clos-multirate replay": "A a 0:0 1:0 1/2\nA b 0:0 1:1 1/2\n",
    "dwec --trace": "A e1 u v 3/5\nA e2 u v 1/2\nD e1\n",
}

# options whose presence selects the run, so that giving or dropping one
# selects another run rather than breaking this one's rule
SELECTORS = {"simulate": ("--network", "--trace"),
             "dwec": ("--derive-constants",)}


def required(argv):
    """The options in a RUNS argv that select no run."""
    return [token for token in argv if token.startswith("--")
            and token not in SELECTORS.get(argv[0], ())]


def argv_of(name, tmp_path):
    """RUNS[name]'s argv, TRACE written out as TRACES[name]."""
    argv, _ = RUNS[name]
    trace = tmp_path / "run.trace"
    trace.write_text(TRACES.get(name, ""))
    return [str(trace) if token == "TRACE" else token for token in argv]


UNREAD = [(name, flag, given) for name, (argv, read) in RUNS.items()
          for flag, given in options(argv[0]).items()
          if flag not in SELECTORS.get(argv[0], ()) + tuple(argv)
          and flag not in read]
# a left-out --trace selects a sweep, or asks for --derive-constants
MISSING = [(name, flag) for name, (argv, _) in RUNS.items()
           for flag in required(argv) if flag != "--trace"]
READ = [(name, flag) for name, (_, read) in RUNS.items() for flag in read]


def ids(cases):
    return ["%s %s" % case[:2] for case in cases]


class TestOptionRule:
    """Each run reads its own options: `main` refuses any other option, and
    a required one left out, before any work."""

    def test_every_run_is_listed(self):
        parsers = subparsers()
        kinds, = [action.choices for action in parsers["bound"]._actions
                  if action.dest == "kind"]
        networks, = [action.choices for action in parsers["simulate"]._actions
                     if action.dest == "network"]
        assert set(parsers) == {"bound", "simulate", "dwec", "certify",
                                "optimum"}
        assert set(RUNS) == (
            {"bound " + kind for kind in kinds}
            | {"the %s replay" % network for network in networks}
            | {"the %s sweep" % network for network in networks
               if network != "clos-multirate"}   # it has no sweep
            | {"dwec --trace", "dwec --derive-constants", "certify",
               "optimum"})

    def test_every_option_is_read_by_a_run(self):
        for command in subparsers():
            read = {flag for argv, defaults in RUNS.values()
                    if argv[0] == command for flag in argv + list(defaults)}
            assert set(options(command)) <= read, command

    @pytest.mark.parametrize("name, flag, given", UNREAD, ids=ids(UNREAD))
    def test_unread_option_is_refused(self, capsys, tmp_path, name, flag,
                                      given):
        assert run(capsys, *argv_of(name, tmp_path), *given) == (
            2, "", "error: %s does not read %s\n" % (name, flag))

    @pytest.mark.parametrize("name, flag", MISSING, ids=ids(MISSING))
    def test_missing_option_is_named(self, capsys, tmp_path, name, flag):
        argv = argv_of(name, tmp_path)
        at = argv.index(flag)
        assert run(capsys, *argv[:at], *argv[at + 2:]) == (
            2, "", "error: missing %s for %s\n" % (flag, name))

    @pytest.mark.parametrize("name, flag", READ, ids=ids(READ))
    def test_read_option_is_not_refused(self, capsys, tmp_path, name, flag):
        # the table above is what each run reads: an option it lists is
        # taken, whatever a run then makes of its value
        argv = argv_of(name, tmp_path)
        _, _, err = run(capsys, *argv, *options(argv[0])[flag])
        assert "does not read" not in err and "missing" not in err

    @pytest.mark.parametrize("name", [name for name, (_, read) in RUNS.items()
                                      if any(read.values())])
    def test_defaults_change_no_byte(self, capsys, tmp_path, name):
        # each default is written once, in its run's signature; giving it
        # explicitly prints the same bytes
        argv = argv_of(name, tmp_path)
        explicit = [token for flag, default in RUNS[name][1].items()
                    if default is not None for token in (flag, default)]
        left_out = run(capsys, *argv)
        assert left_out[0] == 0 and left_out[1]
        assert run(capsys, *argv, *explicit) == left_out

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--network", "clos-snb", "--n", "3", "--r", "7"],
         "the clos-snb sweep does not read --r"),
        (["simulate", "--network", "clos-snb", "--n", "3", "--depth", "2",
          "--seed", "4", "--trials", "3", "--d", "5"],
         "the clos-snb sweep does not read --depth"),
        (["simulate", "--d", "2", "--n", "3", "--t", "1", "--f", "1", "--r",
          "9", "--depth", "4", "--trials", "1", "--steps", "5"],
         "the multilog sweep does not read --r"),
        (["bound", "clos-snb", "--n", "3", "--d", "9", "--mode",
          "crosstalk"], "bound clos-snb does not read --d"),
        (["bound", "multilog", "--d", "2", "--n", "4", "--t", "1", "--f",
          "16", "--scheme", "five_type_paper"],
         "bound multilog does not read --scheme"),
        (["dwec", "--derive-constants", "1/2,2/5,1/3", "--trace",
          "/no/such/file", "--scheme", "five"],
         "dwec --derive-constants does not read --trace"),
        (["simulate", "--trace", "TRACE", "--d", "2", "--n", "3", "--m",
          "2", "--adversary", "greedy", "--steps", "9", "--seed", "5"],
         "the multilog replay does not read --adversary"),
    ], ids=["clos-snb-r", "clos-snb-depth-seed-trials-d", "multilog-r-depth",
            "bound-clos-snb-d-mode", "bound-multilog-scheme",
            "derive-trace-scheme", "multilog-replay-adversary-steps-seed"])
    def test_options_once_dropped_are_refused(self, capsys, tmp_path, argv,
                                              message):
        # each of these once printed a row for a network or run other than
        # the options named, and exited 0
        trace = tmp_path / "t.trace"
        trace.write_text("A r1 000 000\n")
        argv = [str(trace) if token == "TRACE" else token for token in argv]
        assert run(capsys, *argv) == (2, "", "error: %s\n" % message)

    def test_config_entry_the_run_does_not_read(self, capsys, tmp_path):
        # an entry acts as an option placed before the command line
        cfg = tmp_path / "net.cfg"
        cfg.write_text("d = 2\n")
        assert run(capsys, "bound", "clos-snb", "--n", "3", "--config",
                   str(cfg)) == (
            2, "", "error: bound clos-snb does not read --d\n")


MULTILOG = ["simulate", "--network", "multilog", "--d", "2", "--n", "3",
            "--m", "2"]
SPACE = ["simulate", "--network", "clos-snb", "--n", "2", "--m", "3",
         "--r", "2"]
MULTIRATE = ["simulate", "--network", "clos-multirate", "--n", "2",
             "--m", "40"]

# argv, trace text or None, and what is expected: the line number a trace
# error names (0 when the input is not a trace), or, for a request the
# network refuses, the status column of the rows
MALFORMED = {
    "multilog-duplicate-id": (MULTILOG, "A r1 000 000\nA r1 001 001\nD r1\n"
                              "D r1\n",
                              ["ok", "duplicate_id", "ok", "unknown_id"]),
    "clos-duplicate-id": (SPACE, "A a 0:0 1:0\nA a 0:1 1:1\nD a\nD a\n",
                          ["ok", "duplicate_id", "ok", "unknown_id"]),
    "address-0x0": (MULTILOG, "A r1 000 000\nA r2 0x0 001\n", 2),
    "address-0x-n-2": (["simulate", "--network", "multilog", "--d", "2",
                        "--n", "2", "--m", "2"], "A r1 00 01\nA r2 0x 01\n",
                       2),
    "multilog-trace-m-offset": (MULTILOG + ["--m-offset", "4"],
                                "A r1 000 000\n", 0),
    "clos-trace-m-offset": (SPACE + ["--m-offset", "1"], "A a 0:0 1:0\n", 0),
    "address-arabic-indic": (MULTILOG, "A r1 \u0661\u0660\u0660 "
                             "\u0660\u0660\u0661\n", 1),
    "address-fullwidth": (MULTILOG, "A r1 000 000\n"
                          "A r2 \uff10\uff10\uff11 001\n", 2),
    "terminal-0:x": (SPACE, "A a 0:x 1:0\n", 1),
    "terminal-0_1:0": (SPACE, "A r1 0_1:0 1:1\n", 1),
    "terminal-+0:1": (SPACE, "A r1 0:0 1:0\nA r2 +0:1 0:0\n", 2),
    "terminal--0:0": (SPACE, "A r1 -0:0 1:0\n", 1),
    "terminal-arabic-indic": (SPACE, "A r1 0:0 \u0661:\u0660\n", 1),
    "terminal-9:0": (SPACE, "# comment\nA a 9:0 1:0\n", 2),
    "rate-abc": (MULTIRATE, "A a 0:0 1:0 abc\n", 1),
    "rate-3/2": (MULTIRATE, "A a 0:0 1:0 1/2\n\nA b 0:1 1:1 3/2\n", 3),
    "dwec-duplicate-edge": (["dwec"], "A e1 u v 1/2\nA e1 u w 1/4\n", 2),
    "dwec-weight-3/2": (["dwec"], "A e1 u v 3/2\n", 1),
    "dwec-unknown-departure": (["dwec"], "A e1 u v 1/2\nD e9\n", 2),
    # a byte that is not UTF-8 is named by its line like any other fault
    "multilog-not-utf-8": (MULTILOG, b"A r1 000 001\nA r2 \xff\xfe 010\n",
                           2),
    "clos-not-utf-8": (SPACE, b"A r1 0:0 1:0\r\nA r2 \xff 1:1\r\n", 2),
    "dwec-not-utf-8": (["dwec"], b"A e1 u v 1/2\nA e2 u \xe9 1/4\n", 2),
    "certify-d-1": (["certify", "--d", "1", "--n", "3"], None, 0),
    "certify-f-2,9": (["certify", "--d", "2", "--n", "3", "--f", "2,9"],
                      None, 0),
    "certify-f-9": (["certify", "--d", "2", "--n", "3", "--f", "9"], None,
                    0),
    "bound-d-1": (["bound", "multilog", "--d", "1", "--n", "3", "--t", "1",
                   "--f", "1"], None, 0),
    "certify-f-x": (["certify", "--f", "x"], None, 0),
    "simulate-f-99": (["simulate", "--d", "2", "--n", "3", "--t", "1",
                       "--f", "99"], None, 0),
    "simulate-t-5": (["simulate", "--d", "2", "--n", "3", "--t", "5",
                      "--f", "1"], None, 0),
    "derive-constants-2/5": (["dwec", "--derive-constants", "2/5"], None, 0),
    "missing-trace-file": (["dwec", "--trace", "no/such.trace"], None, 0),
    "benes-r-3": (["simulate", "--network", "clos-benes", "--n", "2", "--m",
                   "3", "--r", "3"],
                  "A r1 0:0 0:0\nA r2 1:0 1:0\nA r3 2:0 2:0\n", 0),
    "benes-depth--1": (["simulate", "--network", "clos-benes", "--n", "3",
                        "--m", "3", "--depth", "-1",
                        "--expect-nonblocking"], None, 0),
    "benes-m-0": (["simulate", "--network", "clos-benes", "--n", "3", "--m",
                   "0"], None, 0),
    "clos-snb-m-5-n-4": (["simulate", "--network", "clos-snb", "--n", "4",
                          "--m", "5"], None, 0),
    "simulate-trials--1": (["simulate", "--d", "2", "--n", "3", "--t", "1",
                            "--f", "1", "--trials", "-1"], None, 0),
    "simulate-steps-0": (["simulate", "--d", "2", "--n", "3", "--t", "1",
                          "--f", "1", "--steps", "0"], None, 0),
    "simulate-steps--1": (["simulate", "--d", "2", "--n", "3", "--t", "1",
                           "--f", "1", "--steps", "-1"], None, 0),
    "simulate-d-1": (["simulate", "--d", "1", "--n", "3", "--t", "1",
                      "--f", "1"], None, 0),
    "certify-n-0": (["certify", "--n", "0"], None, 0),
    # d and n are refused before d^n, which fails at d = 0 and n < 0
    "certify-d-0-n--1": (["certify", "--d", "0", "--n", "-1"], None, 0),
    # past the row cap: k would run up to 2^63, or the grid past 10^6 rows
    "certify-n-64": (["certify", "--n", "64"], None, 0),
    "certify-d-64-n-4": (["certify", "--d", "64", "--n", "4", "--mode",
                          "link"], None, 0),
    "optimum-n-0": (["optimum", "--d", "2", "--n", "0", "--t", "0", "--f",
                     "1", "--k", "1"], None, 0),
    "optimum-f-9": (["optimum", "--d", "2", "--n", "3", "--t", "1", "--f",
                     "9", "--k", "1"], None, 0),
    "optimum-f-huge": (["optimum", "--d", "2", "--n", "3", "--t", "1",
                        "--f", "99999999999999999999", "--k", "1"], None, 0),
    "optimum-f-0": (["optimum", "--d", "2", "--n", "3", "--t", "1", "--f",
                     "0", "--k", "1"], None, 0),
    "optimum-t--1": (["optimum", "--d", "2", "--n", "3", "--t", "-1",
                      "--f", "1", "--k", "1"], None, 0),
}


class TestInputErrors:
    @pytest.mark.parametrize("argv, trace, expect", MALFORMED.values(),
                             ids=list(MALFORMED))
    def test_malformed_input(self, capsys, tmp_path, argv, trace, expect):
        if trace is not None:
            path = tmp_path / "in.trace"
            if isinstance(trace, bytes):
                path.write_bytes(trace)
            else:
                path.write_text(trace)
            argv = argv + ["--trace", str(path)]
        code, out, err = run(capsys, *argv)
        assert "Traceback" not in err
        if isinstance(expect, list):
            assert code == 0
            assert [r[-1] for r in rows(out)[1:]] == expect
        else:
            # refused before any row: no partial CSV on stdout
            assert (code, out) == (2, "")
            assert "error:" in err
            if expect:
                assert "error: line %d:" % expect in err

    def test_validation_survives_python_O(self):
        # asserts vanish under -O; every check below must still raise
        script = "\n".join([
            "import contextlib, io, os, sys, tempfile",
            "from switchlp import adversary, banyan, clos, dary, dwec",
            "from switchlp import bounds, cli, lpcert, multilog",
            "from address_oracle import EnumeratedAddressSets",
            "assert sys.flags.optimize and False",
            "C = clos.ClosConfig.symmetric",
            "M = multilog.MultilogConfig(d=2, n=3, m=1)",
            "# a live request already owns the output a primal probe asks for;",
            "# in `quiet` its route shares no internal link with the probe's",
            "conn = multilog.ConnState(M)",
            "a = dary.DaryString(2, (0, 0, 0))",
            "conn.admit(dary.DaryString(2, (1, 0, 0)), [a], rid='r')",
            "quiet = multilog.ConnState(multilog.MultilogConfig(",
            "    d=2, n=3, m=1, t=1, f=1))",
            "quiet.admit(dary.DaryString(2, (0, 1, 0)), [a], rid='r')",
            "checks = [",
            "    lambda: multilog.MultilogConfig(d=1, n=0, m=0, mode='bogus'),",
            "    lambda: clos.ClosConfig(n=0, m=0, r=0, traffic='bogus'),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=3)).benes_admit(",
            "        (0, 0), (1, 0)),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=2, traffic='multirate'))",
            "        .snb_admit((0, 0), (1, 0)),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=2)).multirate_admit(",
            "        (0, 0), (1, 0), 1),",
            "    lambda: adversary.snb_saturation(1, 3),",
            "    lambda: adversary.benes_search(3, 0),",
            "    lambda: adversary.benes_search(0, 3),",
            "    lambda: adversary.benes_search(3, 3, max_depth=-1),",
            "    lambda: dary.AddressSets(2, 3, dary.DaryString(2, (0, 0, 0)),",
            "                             dary.all_strings(2, 3), 1),",
            "    lambda: conn.admit(dary.DaryString(2, (1, 0, 0, 0)), [a]),",
            "    lambda: lpcert.primal_from_state(conn, a, [a]),",
            "    lambda: lpcert.primal_from_state(quiet, a, [a]),",
            "    lambda: adversary.snb_saturation(4, 5),",
            "    lambda: dwec.FOUR_TYPE.beta(0, 1),",
            "    lambda: lpcert.dual_family(lpcert.canonical_instance(",
            "        2, 4, 1, 2, 1, 'link'), 0, 3).objective_bounded_delta(2),",
            "    lambda: lpcert.DualSolution(lpcert.canonical_instance(",
            "        2, 3, 1, 2, 1), eps={0: 1, 1: 1, 2: 1}, gamma={0: 1})",
            "        .objective_bounded_delta(4),",
            "    lambda: dary.DaryString(2, (0.5, 1)),",
            "    lambda: dary.DaryString.from_value(1.5, 2, 2),",
            "    lambda: multilog.ConnState(M).admit(0, [1.5]),",
            "    lambda: multilog.ConnState(M).blocking_planes(1, [2.0]),",
            "    lambda: lpcert.primal_from_state(conn, 1, [2.5]),",
            "    lambda: lpcert.solve_packing([[1]], [1], [-1]),",
            "    lambda: lpcert.solve_packing([[1, -1]], [1, 1], [1]),",
            "    lambda: bounds.multilog_planes(2, 3, 4, 2, 'link'),",
            "    lambda: dwec.ColoringState().arrive('e', 'u', 'v', '1/0'),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=2, traffic='multirate'))",
            "        .multirate_admit((0, 0), (1, 0), '1/0'),",
            "    lambda: dwec.ColoringState().arrive('e', 'u', 'v',",
            "                                        float('inf')),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=2, traffic='multirate'))",
            "        .multirate_admit((0, 0), (1, 0), float('inf')),",
            "    lambda: lpcert.DualSolution(lpcert.canonical_instance(",
            "        2, 3, 1, 2, 1), alpha={0: float('inf')}),",
            "    lambda: lpcert.DualSolution(lpcert.canonical_instance(",
            "        2, 3, 1, 2, 1), gamma={0: None}),",
            "    lambda: lpcert.DualSolution(lpcert.canonical_instance(",
            "        2, 3, 1, 2, 1), delta={0: '1'}),",
            "    lambda: lpcert.dual_family(lpcert.canonical_instance(",
            "        2, 3, 1, 2, 1), 0.5, 2),",
            "    lambda: dwec.ColoringState().arrive('e', 'u', 'v', None),",
            "    lambda: banyan.route(2, 3, 0, 1, 'bogus'),",
            "    lambda: multilog.MultilogConfig(d=2, n=3, m=2.5),",
            "    lambda: multilog.MultilogConfig(d=2.0, n=3, m=1),",
            "    lambda: multilog.MultilogConfig(d=2, n=3.0, m=1),",
            "    lambda: multilog.MultilogConfig(d=2, n=3, m=1, t=1.0),",
            "    lambda: multilog.MultilogConfig(d=2, n=3, m=1, f=1.5),",
            "    lambda: clos.ClosConfig(n=2, m=3.5, r=2),",
            "    lambda: clos.ClosConfig(n=2.0, m=3, r=2),",
            "    lambda: clos.ClosConfig(n=2, m=3, r=2.5),",
            "    lambda: dary.parse_address('\\u0661\\u0660\\u0660', 2, 3),",
            "    lambda: clos.parse_terminal('0_1:0'),",
            "    lambda: clos.parse_terminal('+1:0'),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=2)).snb_admit((0.5, 0),",
            "                                                      (1, 1)),",
            "    lambda: lpcert.LpInstance(dary.AddressSets(2, 3, 0, [0], 1),",
            "                              9),",
            "    lambda: lpcert.canonical_instance(2, 3, 1, 10 ** 20, 1),",
            "    lambda: lpcert.canonical_instance(2, 3, 1, 0, 1),",
            "    lambda: lpcert.LpInstance(dary.canonical_sets(2, 3, 1, 2),",
            "                              1),",
            "    lambda: dary.canonical_sets(2, 3, -1, 1),",
            "    lambda: dary.AddressSets(2, 3, 0, [0, 1.5], 1),",
            "    lambda: dary.AddressSets(2, 3, 0, [0, -1], 1),",
            "    lambda: dary.AddressSets(2, 3, 0, [6, 8], 1),",
            "    lambda: conn.blocking_branches(",
            "        dary.AddressSets(2, 4, 0, [1], 1)),",
            "    lambda: bounds.clos_snb(1.5),",
            "    lambda: bounds.clos_multirate(1.5),",
            "    lambda: bounds.clos_snb(True),",
            "    lambda: bounds.multilog_planes(2.5, 3, 1, 2, 'link'),",
            "    lambda: dary.AddressSets(2, 3, 0, [0], 1.0),",
            "    lambda: lpcert.LpInstance(dary.AddressSets(2, 3, 0, [0], 1),",
            "                              1.5),",
            "    lambda: dary.AddressSets(2.0, 3, 0, [0], 1),",
            "    lambda: dary.AddressSets(2, True, 0, [0], 1),",
            "    lambda: dary.AddressSets(1, 3, 0, [0], 1),",
            "    lambda: dary.AddressSets(2, 0, 0, [0], 0),",
            "    lambda: dary.AddressSets(2, 3, 0, 5, 1),",
            "    lambda: dary.AddressSets(2, 3, 0, [[0]], 1),",
            "    lambda: dary.canonical_sets(2, 3, 1, True),",
            "    lambda: dary.canonical_sets(2, 3, 1, 1.5),",
            "    lambda: lpcert.canonical_instance(2, 3, 1, 2, 1.5),",
            "    lambda: multilog.ConnState(M).admit(0, 5),",
            "    lambda: multilog.ConnState(M).blocking_planes(0, [[0]]),",
            "    lambda: lpcert.dual_family(lpcert.canonical_instance(",
            "        2, 3, 1, 2, 1), True, 2),",
            "    lambda: lpcert.LpInstance(None, 2),",
            "    lambda: dary.canonical_sets(2, 3, 1, [1]),",
            "    lambda: lpcert.canonical_instance(2, 3, 1, 2, [1]),",
            "]",
            "for i, check in enumerate(checks):",
            "    try:",
            "        check()",
            "    except ValueError:",
            "        continue",
            "    print('check %d accepted' % i)",
            "# a request's B may be passed as any collection",
            "for B in ([0], (0,), range(1)):",
            "    lpcert.LpInstance(dary.AddressSets(2, 3, 0, B, 1), 2)",
            "# --m-offset is refused beside --m, and by a replay; the size",
            "# and weight rules the command line reaches name their value",
            "with tempfile.NamedTemporaryFile('w', suffix='.trace',",
            "                                 delete=False) as fh:",
            "    fh.write('A r1 000 000\\n')",
            "with tempfile.NamedTemporaryFile('w', suffix='.trace',",
            "                                 delete=False) as rates:",
            "    rates.write('A r1 0:0 1:0 3/2\\n')",
            "refusals = [",
            "    (['--d', '2', '--n', '4', '--t', '2', '--f', '2',",
            "      '--m', '3', '--m-offset', '5'], '--m-offset'),",
            "    (['--network', 'clos-snb', '--n', '3', '--m', '4',",
            "      '--m-offset', '2'], '--m-offset'),",
            "    (['--network', 'clos-benes', '--n', '2', '--m', '3',",
            "      '--m-offset', '1'], '--m-offset'),",
            "    (['--d', '2', '--n', '3', '--m', '2', '--m-offset', '4',",
            "      '--trace', fh.name], '--m-offset'),",
            "    (['--d', '2', '--n', '3', '--t', '4', '--f', '2'],",
            "     't=4: need integer 0 <= t <= 3'),",
            "    (['--d', '2', '--n', '3', '--t', '1', '--f', '9',",
            "      '--m', '2'], 'f=9: need integer 1 <= f <= 8'),",
            "    (['--network', 'clos-multirate', '--n', '2', '--m', '40',",
            "      '--trace', rates.name],",
            "     'line 1: weight 3/2 out of (0, 1]'),",
            "]",
            "for argv, text in refusals:",
            "    err = io.StringIO()",
            "    with contextlib.redirect_stderr(err):",
            "        code = cli.main(['simulate'] + argv)",
            "    if code != 2 or text not in err.getvalue():",
            "        print('%s accepted' % argv)",
            "os.unlink(fh.name)",
            "os.unlink(rates.name)",
            "# every size rule, the tables' t < n and the weight rule, by",
            "# its one message",
            "inst = lpcert.canonical_instance(2, 3, 1, 2, 1)",
            "rules = [",
            "    (lambda: bounds.c_cost(1, 3, 0, 1, 1, 0, 3),",
            "     'd=1: need integer d >= 2'),",
            "    (lambda: bounds.cf_snb_fcast_t_eq_n(2, 0, 1),",
            "     'n=0: need integer n >= 1'),",
            "    (lambda: dary.AddressSets(2, 3, 0, [0], 4),",
            "     't=4: need integer 0 <= t <= 3'),",
            "    (lambda: multilog.MultilogConfig(d=2, n=3, m=1, f=9),",
            "     'f=9: need integer 1 <= f <= 8'),",
            "    (lambda: dary.canonical_sets(2, 3, 1, 3),",
            "     'k=3: need integer 1 <= k <= 2'),",
            "    (lambda: lpcert.dual_family(inst, 2, 2),",
            "     'p=2: need integer 0 <= p <= 1'),",
            "    (lambda: lpcert.dual_family(inst, 0, 4),",
            "     'q=4: need integer 2 <= q <= 3'),",
            "    (lambda: bounds.G_bound(2, 3, 3, 1),",
            "     'the tables take t < n, not t=3 = n'),",
            "    (lambda: clos.ClosConfig(n=2, m=0, r=2),",
            "     'm=0: need integer m >= 1'),",
            "    (lambda: dwec.as_weight(0), 'weight 0 out of (0, 1]'),",
            "    # the request and mode rules, and route's size rule",
            "    (lambda: dary.AddressSets(2, 3, 0, [], 1),",
            "     'empty output set'),",
            "    (lambda: multilog.ConnState(M).blocking_planes(0, [0, 4]),",
            "     'outputs span windows [0, 4]'),",
            "    (lambda: dary.AddressSets(2, 3, 0, [0, 4], 1),",
            "     'outputs span windows [0, 2]'),",
            "    # a range B is read by its ends, and refused as its list",
            "    (lambda: dary.AddressSets(2, 3, 0, range(3, 6), 1),",
            "     'outputs span windows [1, 2]'),",
            "    (lambda: dary.AddressSets(2, 3, 0, range(-1, 2), 2),",
            "     'address -1 out of range for d=2, n=3'),",
            "    # the depth rule, and the certify grid's row cap",
            "    (lambda: adversary.benes_search(3, 3, max_depth=-1),",
            "     'depth=-1: need integer depth >= 0'),",
            "    (lambda: cli.cmd_certify(n=[64]),",
            "     'the grid has more than 1000000 rows'),",
            "    (lambda: conn.blocking_branches((0, [1])),",
            "     '(0, [1]) is not a dary.AddressSets'),",
            "    (lambda: multilog.MultilogConfig(d=2, n=3, m=1, mode='x'),",
            "     \"unknown mode 'x'\"),",
            "    (lambda: lpcert.LpInstance(inst.sets, 2, 'x'),",
            "     \"unknown mode 'x'\"),",
            "    (lambda: banyan.route(2, 3, 0, 0, 'x'),",
            "     \"unknown mode 'x'\"),",
            "    (lambda: bounds.multilog_planes(2, 3, 1, 1, 'x'),",
            "     \"unknown mode 'x'\"),",
            "    (lambda: banyan.route(1, 3, 0, 0, 'link'),",
            "     'd=1: need integer d >= 2'),",
            "]",
            "for i, (call, text) in enumerate(rules):",
            "    try:",
            "        call()",
            "        print('rule %d accepted' % i)",
            "    except ValueError as exc:",
            "        if str(exc) != text:",
            "            print('rule %d said %r' % (i, str(exc)))",
            "# `optimum` refuses what the malformed-input table does, and",
            "# checks the dual it prints the optimum beside",
            "def optimum(*argv):",
            "    out = io.StringIO()",
            "    with contextlib.redirect_stdout(out), \\",
            "            contextlib.redirect_stderr(io.StringIO()):",
            "        try:",
            "            code = cli.main(['optimum', '--d', '2', '--k', '1']",
            "                            + list(argv))",
            "        except SystemExit as exc:",
            "            code = exc.code",
            "    return code, out.getvalue()",
            "for argv in (['--n', '0', '--t', '0', '--f', '1'],",
            "             ['--n', '3', '--t', '1', '--f', '9'],",
            "             ['--n', '3', '--t', '1', '--f', '0'],",
            "             ['--n', '3', '--t', '-1', '--f', '1']):",
            "    if optimum(*argv) != (2, ''):",
            "        print('optimum %s accepted' % argv)",
            "real = lpcert.lp_optimum",
            "lpcert.lp_optimum = lambda inst: (real(inst)[0] - 1,",
            "                                  real(inst)[1])",
            "try:",
            "    optimum('--n', '3', '--t', '1', '--f', '2')",
            "    print('an optimum its dual does not price was printed')",
            "except AssertionError:",
            "    pass",
            "lpcert.lp_optimum = real",
            "# a primal that breaks a constraint must still be refused",
            "# (one spare output in the home window, so the uv pairs share v)",
            "inst = lpcert.canonical_instance(2, 3, 1, 2, 1)",
            "ref = EnumeratedAddressSets(2, 3, inst.a, inst.B, 1)",
            "(uw, *_), ((u1, v), (u2, _), *_) = (ref.uw_pairs(3),",
            "                                    ref.uv_pairs(3))",
            "infeasible = [",
            "    lpcert.PrimalSolution(inst, xw={uw: 2}),",
            "    lpcert.PrimalSolution(inst, xw={(uw[0], inst.home): 1}),",
            "    lpcert.PrimalSolution(inst, xv={(u1, v): 1, (u2, v): 1}),",
            "]",
            "for i, primal in enumerate(infeasible):",
            "    try:",
            "        primal.check_feasible()",
            "    except lpcert.Infeasible:",
            "        continue",
            "    print('primal %d accepted' % i)",
            "# and so must coloring constants that break a blocking row",
            "try:",
            "    dwec.DwecScheme(dwec.FOUR_TYPE.breakpoints, (2, 0, 0, 0))",
            "    print('infeasible coloring constants accepted')",
            "except lpcert.Infeasible:",
            "    pass",
            "# the state audits must still catch a corrupted state",
            "def multilog_state():",
            "    st = multilog.ConnState(M)",
            "    st.admit(dary.DaryString(2, (1, 0, 0)), [a], rid='r')",
            "    return st",
            "def space_clos():",
            "    st = clos.ClosState(C(n=2, m=3, r=3))",
            "    st.snb_admit((0, 0), (1, 0), rid='r')",
            "    return st",
            "def multirate_clos():",
            "    st = clos.ClosState(C(n=2, m=3, r=2, traffic='multirate'))",
            "    st.multirate_admit((0, 0), (1, 0), '1/2', rid='r')",
            "    return st",
            "def bump_refcount(st):",
            "    counts = next(iter(st.refs.values()))",
            "    counts[next(iter(counts))] += 1",
            "def lying_route(st):",
            "    # (000 -> 001) shares a link with the live (100 -> 000); with",
            "    # its link ids rewritten only the predicate check can tell",
            "    sub = (0, [1], tuple(key + 1000",
            "                         for key in banyan.route(2, 3, 0, 1, 'link')))",
            "    st._commit('liar', 0, 1, sub)",
            "    st.requests['liar'] = (0, {1: sub})",
            "def coloring():",
            "    st = dwec.ColoringState()",
            "    st.arrive('e', 'u', 'v', '1/2')",
            "    return st",
            "corruptions = [",
            "    (multilog_state, lambda st: st.occ.popitem()),",
            "    (multilog_state, bump_refcount),",
            "    (multilog_state,",
            "     lambda st: st.occ.__setitem__(next(iter(st.occ)), 2)),",
            "    (multilog_state,",
            "     lambda st: next(iter(st.refs.values())).popitem()),",
            "    (multilog_state, lying_route),",
            "    (space_clos,",
            "     lambda st: st.in_mids.__setitem__(",
            "         0, st.in_mids[0] & (st.in_mids[0] - 1))),",
            "    (multirate_clos,",
            "     lambda st: st.load_in.__setitem__((0, 0), st.load_in[0, 0] * 2)),",
            "    (multirate_clos,",
            "     lambda st: st.load_out.__setitem__((1, 0), st.load_out[1, 0] + 1)),",
            "    (coloring, lambda st: st.classes[-1].pop()),",
            "    (coloring, lambda st: st.load.__setitem__(",
            "        ('u', 0), st.load['u', 0] + 1)),",
            "    (coloring, lambda st: setattr(st, 'den', st.den * 2)),",
            "]",
            "for i, (build, corrupt) in enumerate(corruptions):",
            "    st = build()",
            "    corrupt(st)",
            "    try:",
            "        st.audit()",
            "    except AssertionError:",
            "        continue",
            "    print('corruption %d passed the audit' % i)",
            "# a space release checks that its middle bit is set",
            "st = space_clos()",
            "st.in_mids[0] &= st.in_mids[0] - 1",
            "try:",
            "    st.release('r')",
            "    print('a release off its middle passed')",
            "except AssertionError:",
            "    pass",
        ])
        src = os.path.dirname(os.path.dirname(switchlp.__file__))
        tests = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""


class TestErrorTaxonomy:
    def test_every_exception_is_one_of_four_kinds(self):
        # refusal, malformed input, LP verdict, broken invariant; `main`
        # maps the input kind to exit 2
        from switchlp.events import SwitchError
        kinds = (SwitchError, ValueError, lpcert.Infeasible, AssertionError)
        found = {}
        for info in pkgutil.iter_modules(switchlp.__path__):
            if info.name == "__main__":  # importing it runs the command
                continue
            module = importlib.import_module("switchlp." + info.name)
            for name, obj in vars(module).items():
                if (inspect.isclass(obj) and issubclass(obj, BaseException)
                        and obj.__module__ == module.__name__):
                    found[name] = issubclass(obj, kinds)
        assert [name for name, ok in found.items() if not ok] == []
        assert {"Infeasible", "TraceError", "ColoringFailure"} <= set(found)


class TestModuleEntry:
    """`python -m switchlp` runs the command line from a checkout."""

    @staticmethod
    def module(*argv):
        src = os.path.dirname(os.path.dirname(switchlp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "switchlp", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)

    def test_certify_matches_main(self, capsys):
        proc = self.module("certify", "--d", "2", "--n", "3")
        code, out, _ = run(capsys, "certify", "--d", "2", "--n", "3")
        assert proc.returncode == code == 0, proc.stderr
        assert proc.stdout == out

    def test_bad_argument_exits_2(self):
        proc = self.module("certify", "--d", "x")
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr

    def test_every_module_imports_first(self):
        # an import cycle fails only for a caller that imports one
        # particular module of it first, so each module goes first in turn
        src = os.path.dirname(os.path.dirname(switchlp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        names = ["switchlp"] + ["switchlp." + info.name for info in
                                pkgutil.iter_modules(switchlp.__path__)
                                if info.name != "__main__"]  # runs the command
        script = "\n".join([
            "import importlib, sys",
            "for name in sys.argv[1:]:",
            "    for key in [k for k in sys.modules",
            "                if k.partition('.')[0] == 'switchlp']:",
            "        del sys.modules[key]",
            "    importlib.import_module(name)",
        ])
        proc = subprocess.run([sys.executable, "-c", script, *names],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert len(names) > 10

    def test_import_loads_no_introspection_modules(self):
        # `dataclasses` pulls in `inspect`, `ast` and `dis`, about 1 MiB of
        # resident memory that no command uses
        src = os.path.dirname(os.path.dirname(switchlp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        script = ("import sys, switchlp.adversary, switchlp.cli\n"
                  "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'}\n"
                  "             & sys.modules.keys()))")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
