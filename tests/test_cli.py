"""Command-line interface: output rows, exit codes, determinism."""

import csv
import hashlib
import io
import os
import subprocess
import sys

import pytest

import switchlp
from switchlp import bounds, cli, lpcert


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows(text):
    return list(csv.reader(io.StringIO(text)))


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

    def test_multirate_scheme(self, capsys):
        code, out, _ = run(capsys, "bound", "clos-multirate", "--n", "8")
        assert code == 0
        assert rows(out)[1][3] == "46"

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

    @pytest.mark.parametrize("network, bound", [
        ("clos-snb", bounds.clos_snb), ("clos-benes", bounds.clos_wsnb_r2)])
    def test_clos_sweep_reports_default_m(self, capsys, network, bound):
        code, out, _ = run(capsys, "simulate", "--network", network,
                           "--n", "2")
        assert code == 0
        assert rows(out)[1][2] == str(bound(2))

    def test_benes_search(self, capsys):
        code, out, _ = run(capsys, "simulate", "--network", "clos-benes",
                           "--n", "2", "--m", "3", "--expect-nonblocking")
        assert code == 0
        assert rows(out)[1][4] == "nonblocking"
        code, out, _ = run(capsys, "simulate", "--network", "clos-benes",
                           "--n", "2", "--m", "2", "--expect-nonblocking")
        assert code == 1

    def test_multilog_trace_replay(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        trace.write_text("A r1 000 000\nA r2 100 001\nD r1\n")
        code, out, _ = run(capsys, "simulate", "--network", "multilog",
                           "--trace", str(trace), "--d", "2", "--n", "3",
                           "--m", "1", "--expect-nonblocking")
        assert code == 1
        assert [r[4] for r in rows(out)[1:]] == ["ok", "blocked", "ok"]

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

    def test_fuzz_reports_violations(self, capsys):
        code, out, _ = run(capsys, "certify", "--d", "2", "--n", "3",
                           "--f", "1", "--mode", "link", "--fuzz")
        assert code == 1
        assert any(r[8] == "false" and "DC-" in r[9]
                   for r in rows(out)[1:])


class TestExportLp:
    def test_stdout_roundtrip(self, capsys):
        code, out, _ = run(capsys, "export-lp", "--d", "2", "--n", "3",
                           "--t", "1", "--f", "2", "--k", "1")
        assert code == 0
        parsed = lpcert.parse_lp(out)
        inst = lpcert.canonical_instance(2, 3, 1, 2, 1, lpcert.LINK)
        assert len(parsed["objective"]) == \
            len(inst.uw_pairs) + len(inst.uv_pairs)

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["export-lp", "--d", "2", "--n", "3", "--t", "1", "--f", "2",
                "--k", "1"]
        _, out, _ = run(capsys, *argv)
        path = tmp_path / "prob.lp"
        code, empty, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0 and empty == ""
        assert path.read_text() == out

    def test_bad_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "export-lp", "--d", "2", "--n", "3",
                           "--t", "1", "--f", "1", "--k", "2")
        assert code == 2
        assert "error:" in err


class TestParser:
    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            cli.main(["frobnicate"])

    def test_unknown_network(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["simulate", "--network", "mystery"])


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
    "terminal-0:x": (SPACE, "A a 0:x 1:0\n", 1),
    "terminal-9:0": (SPACE, "# comment\nA a 9:0 1:0\n", 2),
    "rate-abc": (MULTIRATE, "A a 0:0 1:0 abc\n", 1),
    "rate-3/2": (MULTIRATE, "A a 0:0 1:0 1/2\n\nA b 0:1 1:1 3/2\n", 3),
    "dwec-duplicate-edge": (["dwec"], "A e1 u v 1/2\nA e1 u w 1/4\n", 2),
    "dwec-weight-3/2": (["dwec"], "A e1 u v 3/2\n", 1),
    "dwec-unknown-departure": (["dwec"], "A e1 u v 1/2\nD e9\n", 2),
    "certify-d-1": (["certify", "--d", "1", "--n", "3"], None, 0),
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
    "simulate-trials--1": (["simulate", "--d", "2", "--n", "3", "--t", "1",
                            "--f", "1", "--trials", "-1"], None, 0),
    "simulate-steps-0": (["simulate", "--d", "2", "--n", "3", "--t", "1",
                          "--f", "1", "--steps", "0"], None, 0),
    "simulate-steps--1": (["simulate", "--d", "2", "--n", "3", "--t", "1",
                           "--f", "1", "--steps", "-1"], None, 0),
    "simulate-d-1": (["simulate", "--d", "1", "--n", "3", "--t", "1",
                      "--f", "1"], None, 0),
    "certify-n-0": (["certify", "--n", "0"], None, 0),
    "export-lp-n-0": (["export-lp", "--d", "2", "--n", "0", "--t", "0",
                       "--f", "1", "--k", "1"], None, 0),
}


class TestInputErrors:
    @pytest.mark.parametrize("argv, trace, expect", MALFORMED.values(),
                             ids=list(MALFORMED))
    def test_malformed_input(self, capsys, tmp_path, argv, trace, expect):
        if trace is not None:
            path = tmp_path / "in.trace"
            path.write_text(trace)
            argv = argv + ["--trace", str(path)]
        code, out, err = run(capsys, *argv)
        assert "Traceback" not in err
        if isinstance(expect, list):
            assert code == 0
            assert [r[-1] for r in rows(out)[1:]] == expect
        else:
            assert code == 2
            assert "error:" in err
            if expect:
                assert "error: line %d:" % expect in err

    def test_validation_survives_python_O(self):
        # asserts vanish under -O; every check below must still raise
        script = "\n".join([
            "import sys",
            "from switchlp import adversary, clos, dary, lpcert, multilog",
            "assert sys.flags.optimize and False",
            "C = clos.ClosConfig.symmetric",
            "# a live request already owns the output a primal probe asks for",
            "conn = multilog.ConnState(multilog.MultilogConfig(d=2, n=3, m=1))",
            "a = dary.DaryString(2, (0, 0, 0))",
            "conn.admit(dary.DaryString(2, (1, 0, 0)), [a], rid='r')",
            "checks = [",
            "    lambda: multilog.MultilogConfig(d=1, n=0, m=0, mode='bogus'),",
            "    lambda: clos.ClosConfig(n1=0, r1=0, m=0, traffic='bogus'),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=3)).benes_admit(",
            "        (0, 0), (1, 0)),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=2, traffic='multirate'))",
            "        .snb_admit((0, 0), (1, 0)),",
            "    lambda: clos.ClosState(C(n=2, m=3, r=2)).multirate_admit(",
            "        (0, 0), (1, 0), 1),",
            "    lambda: adversary.snb_saturation_events(1),",
            "    lambda: dary.AddressSets(dary.DaryString(2, (0, 0, 0)),",
            "                             dary.all_strings(2, 3), 1),",
            "    lambda: lpcert.primal_from_state(conn, a, [a]),",
            "    lambda: lpcert.dual_family(lpcert.canonical_instance(",
            "        2, 4, 1, 2, 1, 'link'), 0, 3).objective_bounded_delta(2),",
            "]",
            "for i, check in enumerate(checks):",
            "    try:",
            "        check()",
            "    except ValueError:",
            "        continue",
            "    print('check %d accepted' % i)",
        ])
        src = os.path.dirname(os.path.dirname(switchlp.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ""
