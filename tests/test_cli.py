import csv
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from commlab import cli, matio
from commlab.cli import ConfigError, main, parse_config
from conftest import random_hermitian


def read_report(path):
    with open(path) as handle:
        return {row["check_name"]: row for row in csv.DictReader(handle)}


def write_recurring_target(path):
    matio.save_matrix(path, np.diag([1 / 3, 1 / 3, 1 / 3, -1.0]).astype(complex))


class TestParseConfig:
    def test_minimal_with_defaults(self):
        cfg = parse_config("command = minimize\nseed = 7\n")
        assert cfg.command == "minimize"
        assert cfg.seed == 7
        assert cfg.restarts == 50

    def test_duplicate_key_names_line(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("command = seq\nseed = 1\nseed = 2\n")

    def test_empty_file(self):
        with pytest.raises(ConfigError, match="command required"):
            parse_config("")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("command = seq\nbogus = 1\n")

    def test_parallelism_is_an_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "job.cfg"
        config.write_text("command = minimize\nparallelism = 2\n")
        assert main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "unknown key 'parallelism'" in capsys.readouterr().err

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="unknown command"):
            parse_config("command = dance\n")

    def test_tolerance_overrides(self):
        cfg = parse_config("command = anderson-verify\ntol.verify = 1e-8\n")
        assert cfg.tolerances == {"verify": 1e-8}
        with pytest.raises(ConfigError, match="positive"):
            cli.run(parse_config("command = anderson-verify\ntol.verify = -1\n"))

    def test_comments_and_blanks(self):
        cfg = parse_config("# run\n\ncommand = lie\naction = killing\nn = 3\n")
        assert cfg.action == "killing"
        assert cfg.rank == 3


class TestSolveSelfcommCommand:
    def test_type_a_reports_norm(self, tmp_path):
        inp = tmp_path / "T.txt"
        write_recurring_target(inp)
        code = main([
            "solve-selfcomm", "--type", "A", "--input", str(inp),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rows = read_report(tmp_path / "report.csv")
        assert float(rows["solution_hs_norm"]["value"]) == pytest.approx(
            math.sqrt(2), abs=1e-12
        )
        y = matio.load_matrix(tmp_path / "Y.txt")
        assert y.shape == (4, 4)

    def test_type_a_large_scale_passes(self, tmp_path):
        # Centered normal entries times 10^3: the last partial sum, the
        # rounding of the trace, is a few 1e-12 below zero, inside the trace
        # test's slack; an absolute 1e-12 tolerance failed it with exit 3.
        x = np.random.default_rng(0).standard_normal(30)
        inp = tmp_path / "T.txt"
        matio.save_matrix(inp, np.diag((x - x.mean()) * 1e3))
        code = main([
            "solve-selfcomm", "--type", "A", "--input", str(inp),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rows = read_report(tmp_path / "report.csv")
        assert rows["partial_sum_negativity"]["pass"] == "1"

    def test_type_c(self, tmp_path, rng):
        inp = tmp_path / "T.txt"
        matio.save_matrix(inp, np.diag([1.0, 0.5, -1.0, -0.5]).astype(complex))
        code = main([
            "solve-selfcomm", "--type", "C", "--input", str(inp),
            "--out-dir", str(tmp_path),
        ])
        assert code == 0
        rows = read_report(tmp_path / "report.csv")
        assert rows["residual"]["pass"] == "1"

    def test_bad_input_is_config_error(self, tmp_path):
        missing = tmp_path / "missing.txt"
        code = main([
            "solve-selfcomm", "--type", "A", "--input", str(missing),
            "--out-dir", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG

    def test_nonzero_trace_is_config_error(self, tmp_path):
        inp = tmp_path / "T.txt"
        matio.save_matrix(inp, np.eye(3))
        code = main([
            "solve-selfcomm", "--type", "A", "--input", str(inp),
            "--out-dir", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG


class TestAndersonCommand:
    def test_sqrt_weights_pass(self, tmp_path):
        code = main([
            "anderson-verify", "--weights", "powerlog:1,-0.5,0",
            "--blocks", "8", "--out-dir", str(tmp_path),
        ])
        assert code == 0
        with open(tmp_path / "blocks.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 9  # block rows 1..blocks+1
        assert float(rows[0]["diagonal_value"]) == pytest.approx(1.0, abs=1e-12)

    def test_absurd_tolerance_fails_with_exit_3(self, tmp_path):
        code = main([
            "anderson-verify", "--weights", "powerlog:1,-0.5,0",
            "--blocks", "6", "--out-dir", str(tmp_path),
            "--tol", "verify=1e-30",
        ])
        assert code == cli.EXIT_TOLERANCE

    def test_explicit_weights(self, tmp_path):
        wfile = tmp_path / "w.txt"
        matio.save_values(wfile, np.sqrt(np.arange(1.0, 9.0)))
        code = main([
            "anderson-verify", "--weights", f"explicit:{wfile}",
            "--blocks", "6", "--out-dir", str(tmp_path),
        ])
        assert code == 0

    @pytest.mark.parametrize("family", ["powerlog:1,-400,0", "powerlog:0,-400,0"])
    def test_overflowing_weights_rejected_quietly(self, tmp_path, capsys, family):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([
                "anderson-verify", "--weights", family, "--out-dir", str(tmp_path),
            ])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_bad_weight_grammar(self, tmp_path):
        code = main([
            "anderson-verify", "--weights", "powerlog:1,2",
            "--out-dir", str(tmp_path),
        ])
        assert code == cli.EXIT_CONFIG


class TestStaircaseCommand:
    def test_round_trip(self, tmp_path, rng):
        paths = []
        for i in range(2):
            p = tmp_path / f"A{i}.txt"
            matio.save_matrix(p, random_hermitian(rng, 8))
            paths.append(str(p))
        code = main(["staircase", "--input", *paths, "--selfadjoint",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        u = matio.load_matrix(tmp_path / "unitary.txt")
        assert u.shape == (8, 8)
        with open(tmp_path / "band_0.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 8
        assert int(rows[0]["bound"]) == 3  # n(N+1) with N = 2 at row 1


class TestLieCommand:
    def test_killing(self, tmp_path):
        assert main(["lie", "killing", "--n", "3", "--out-dir", str(tmp_path)]) == 0
        rows = read_report(tmp_path / "report.csv")
        assert rows["killing_vs_closed_form"]["pass"] == "1"
        assert rows["semisimple"]["pass"] == "1"

    def test_solve_sl(self, tmp_path):
        inp = tmp_path / "A.txt"
        write_recurring_target(inp)
        assert main(["lie", "solve-sl", "--input", str(inp),
                     "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "Y.txt").exists()

    def test_solve_sl_takes_the_type_a_slack(self, tmp_path):
        # Partial sums -5e-11 and -1e-10 lie inside type A's trace slack, and
        # solve-sl's coefficients are the same partial sums.
        inp = tmp_path / "T.txt"
        matio.save_matrix(inp, np.diag([-5e-11, -5e-11]))
        for argv in (["solve-selfcomm", "--type", "A"], ["lie", "solve-sl"]):
            assert main([*argv, "--input", str(inp), "--out-dir", str(tmp_path)]) == 0
        assert read_report(tmp_path / "report.csv")["coefficient_negativity"]["pass"] == "1"


class TestMinimizeCommand:
    def test_zero_target(self, tmp_path):
        target = tmp_path / "T.txt"
        matio.save_matrix(target, np.zeros((3, 3)))
        code = main(["minimize", "--target", str(target), "--restarts", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "restarts.csv") as handle:
            reader = csv.DictReader(handle)
            rows = list(reader)
        assert reader.fieldnames == ["restart", "iters", "feasibility", "objective",
                                     "stop_reason", "converged"]
        assert [(r["stop_reason"], r["converged"]) for r in rows] == [("gtol", "1")] * 2
        assert (tmp_path / "best_a.txt").exists()

    def test_budget_exhaustion_exits_4(self, tmp_path):
        target = tmp_path / "T.txt"
        matio.save_matrix(target, np.diag([1.0, -1.0]))
        code = main(["minimize", "--target", str(target), "--restarts", "1",
                     "--max-iters", "2", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        with open(tmp_path / "restarts.csv") as handle:
            rows = list(csv.DictReader(handle))
        assert [(r["iters"], r["stop_reason"], r["converged"]) for r in rows] == [
            ("2", "budget", "0")]

    def test_seed_env_override(self, tmp_path, monkeypatch):
        target = tmp_path / "T.txt"
        matio.save_matrix(target, np.diag([1.0, -1.0]))

        def restarts(seed, out):
            main(["minimize", "--target", str(target), "--restarts", "2", "--max-iters",
                  "200", "--seed", seed, "--out-dir", str(tmp_path / out)])
            return (tmp_path / out / "restarts.csv").read_bytes()

        monkeypatch.setenv("COMMLAB_SEED", "123")
        by_env = restarts("999", "a")
        monkeypatch.delenv("COMMLAB_SEED")
        assert by_env == restarts("123", "b") != restarts("999", "c")

    def test_parallelism_flag_removed(self, tmp_path, capsys):
        target = tmp_path / "T.txt"
        matio.save_matrix(target, np.diag([1.0, -1.0]))
        with pytest.raises(SystemExit) as exc:
            main(["minimize", "--target", str(target), "--parallelism", "2",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == cli.EXIT_CONFIG


class TestSeqCommand:
    def test_classify_gap_family(self, tmp_path, capsys):
        code = main(["seq", "classify", "--family", "powerlog:1,1,2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_report(tmp_path / "report.csv")
        assert float(rows["in_trace_class"]["value"]) == 1.0
        assert float(rows["in_commutator_class"]["value"]) == 0.0

    def test_mean_round_trip(self, tmp_path):
        inp = tmp_path / "v.txt"
        matio.save_values(inp, [1.0, 0.0, 0.0, 0.0])
        code = main(["seq", "mean", "--input", str(inp),
                     "--out", str(tmp_path / "m.txt"), "--out-dir", str(tmp_path)])
        assert code == 0
        means = matio.load_values(tmp_path / "m.txt")
        assert np.allclose(means, [1.0, 0.5, 1 / 3, 0.25], atol=1e-15)


class TestRunConfigFile:
    def test_end_to_end(self, tmp_path):
        inp = tmp_path / "T.txt"
        write_recurring_target(inp)
        config = tmp_path / "job.cfg"
        config.write_text(
            "command = solve-selfcomm\n"
            f"input = {inp}\n"
            "type = A\n"
            f"output_dir = {tmp_path}\n"
        )
        assert main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "report.csv").exists()
        assert (tmp_path / "Y.txt").exists()

    def test_missing_config(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == cli.EXIT_CONFIG

    def test_artifacts_round_trip_bitwise(self, tmp_path, rng):
        inp = tmp_path / "T.txt"
        t = random_hermitian(rng, 6)
        t -= np.trace(t) / 6 * np.eye(6)
        matio.save_matrix(inp, t)
        main(["solve-selfcomm", "--type", "A", "--input", str(inp),
              "--out-dir", str(tmp_path)])
        y1 = matio.load_matrix(tmp_path / "Y.txt")
        matio.save_matrix(tmp_path / "Y2.txt", y1)
        y2 = matio.load_matrix(tmp_path / "Y2.txt")
        assert y1.tobytes() == y2.tobytes()


def one_line(capsys, prefix):
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(prefix), err
    return err[0]


class TestCommandTable:
    def test_help_lists_every_key_and_tolerance(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for name, cmd in cli.COMMANDS.items():
            assert name in text
            for opt in cmd.options + cli.COMMON:
                assert f"{opt.key} (" in text, opt.key
                if opt.flag.startswith("-"):
                    assert opt.flag in text
            for tol in cmd.tolerances:
                assert f"{tol} (" in text, tol

    def test_defaults_agree_with_run_config(self):
        base = cli.RunConfig(command="seq")
        for cmd in cli.COMMANDS.values():
            for opt in cmd.options + cli.COMMON:
                assert getattr(base, opt.field) in (None, opt.default), opt.key

    def test_only_two_commands_take_tolerances(self):
        assert {n: c.tolerances for n, c in cli.COMMANDS.items() if c.tolerances} == {
            "anderson-verify": {"verify": 1e-10}, "staircase": {"band": 1e-9}}


@pytest.fixture
def inputs(tmp_path, rng):
    d = tmp_path / "in"
    d.mkdir()
    t = random_hermitian(rng, 6)
    t -= np.trace(t) / 6 * np.eye(6)
    matio.save_matrix(d / "T.txt", t)
    matio.save_matrix(d / "C.txt", np.diag([1.0, 0.5, -1.0, -0.5]).astype(complex))
    matio.save_matrix(d / "H0.txt", random_hermitian(rng, 7))
    matio.save_matrix(d / "H1.txt", random_hermitian(rng, 7))
    write_recurring_target(d / "target.txt")
    matio.save_values(d / "v.txt", rng.standard_normal(12))
    return d


# (argv, equivalent config body); "{in}" is the input directory.
PARITY_CASES = {
    "anderson-verify": (
        "anderson-verify --weights powerlog:1,-0.5,0 --blocks 7 --tol verify=1e-9",
        "command = anderson-verify\nweights = powerlog:1,-0.5,0\nblocks = 7\n"
        "tol.verify = 1e-9\n"),
    "staircase": (
        "staircase --input {in}/H0.txt {in}/H1.txt --selfadjoint --tol band=1e-8",
        "command = staircase\ninput = {in}/H0.txt, {in}/H1.txt\nselfadjoint = true\n"
        "tol.band = 1e-8\n"),
    "solve-selfcomm-A": (
        "solve-selfcomm --type A --input {in}/T.txt",
        "command = solve-selfcomm\ntype = A\ninput = {in}/T.txt\n"),
    "solve-selfcomm-C": (
        "solve-selfcomm --type C --input {in}/C.txt",
        "command = solve-selfcomm\ntype = C\ninput = {in}/C.txt\n"),
    "lie-killing": (
        "lie killing --n 4",
        "command = lie\naction = killing\nn = 4\n"),
    "lie-semisimple": (
        "lie semisimple --n 3",
        "command = lie\naction = semisimple\nn = 3\n"),
    "lie-solve-sl": (
        "lie solve-sl --input {in}/T.txt",
        "command = lie\naction = solve-sl\ninput = {in}/T.txt\n"),
    "minimize": (
        "minimize --target {in}/target.txt --restarts 3 --max-iters 3000 --seed 4",
        "command = minimize\ntarget = {in}/target.txt\nrestarts = 3\nmax_iters = 3000\n"
        "seed = 4\n"),
    "seq-classify": (
        "seq classify --family powerlog:1,1,2",
        "command = seq\naction = classify\nfamily = powerlog:1,1,2\n"),
    "seq-mean": (
        "seq mean --input {in}/v.txt",
        "command = seq\naction = mean\ninput = {in}/v.txt\n"),
}


class TestArgvConfigParity:
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_same_config_and_artifacts(self, tmp_path, inputs, monkeypatch, case):
        argv_text, body = PARITY_CASES[case]
        seen = []
        real_run = cli.run

        def capture(cfg):
            seen.append(cfg)
            return real_run(cfg)

        monkeypatch.setattr(cli, "run", capture)
        by_argv, by_file = tmp_path / "argv", tmp_path / "file"
        argv = argv_text.format(**{"in": inputs}).split()
        assert main([*argv, "--out-dir", str(by_argv)]) == 0
        config = tmp_path / "job.cfg"
        config.write_text(body.format(**{"in": inputs}) + f"output_dir = {by_file}\n")
        assert main(["run", "--config", str(config)]) == 0

        assert seen[0] == cli.RunConfig(**{**vars(seen[1]), "output_dir": str(by_argv)})
        names = sorted(os.listdir(by_argv))
        assert "report.csv" in names and names == sorted(os.listdir(by_file))
        for name in names:
            assert (by_argv / name).read_bytes() == (by_file / name).read_bytes(), name


# argv ("{in}" the input directory, "{out}" the output directory), exit
# code, and every file the run leaves in the output directory.
FILE_SETS = {
    "anderson-verify": ("anderson-verify --weights powerlog:1,-0.5,0 --blocks 6", 0,
                        {"blocks.csv", "report.csv"}),
    "anderson-verify-exit-3": (
        "anderson-verify --weights powerlog:1,-0.5,0 --blocks 6 --tol verify=1e-30", 3,
        set()),
    "staircase": ("staircase --input {in}/H0.txt {in}/H1.txt", 0,
                  {"unitary.txt", "transformed_0.txt", "transformed_1.txt", "band_0.csv",
                   "band_1.csv", "report.csv"}),
    "staircase-report": ("staircase --input {in}/H0.txt --selfadjoint "
                         "--report {out}/checks.csv", 0,
                         {"unitary.txt", "transformed_0.txt", "band_0.csv", "checks.csv"}),
    "solve-selfcomm-A": ("solve-selfcomm --type A --input {in}/T.txt", 0,
                         {"Y.txt", "report.csv"}),
    "solve-selfcomm-C-out": ("solve-selfcomm --type C --input {in}/C.txt "
                             "--out {out}/sol.txt", 0, {"sol.txt", "report.csv"}),
    "lie-killing": ("lie killing --n 3", 0, {"report.csv"}),
    "lie-semisimple-report": ("lie semisimple --n 3 --report {out}/lie.csv", 0,
                              {"lie.csv"}),
    "lie-solve-sl": ("lie solve-sl --input {in}/T.txt", 0, {"Y.txt", "report.csv"}),
    "lie-solve-sl-out": ("lie solve-sl --input {in}/T.txt --out {out}/W.txt", 0,
                         {"W.txt", "report.csv"}),
    "minimize-out": ("minimize --target {in}/target.txt --restarts 3 --max-iters 3000 "
                     "--seed 4 --out {out}/r.csv", 0,
                     {"r.csv", "best_a.txt", "best_b.txt", "report.csv"}),
    "minimize-exit-4": ("minimize --target {in}/target.txt --restarts 1 --max-iters 2", 4,
                        {"restarts.csv", "best_a.txt", "best_b.txt"}),
    "minimize-exit-4-redirects": (
        "minimize --target {in}/target.txt --restarts 1 --max-iters 2 "
        "--out {out}/r.csv --report {out}/checks.csv", 4,
        {"r.csv", "best_a.txt", "best_b.txt"}),
    "seq-classify": ("seq classify --family powerlog:1,1,2", 0, {"report.csv"}),
    "seq-mean": ("seq mean --input {in}/v.txt", 0, {"mean.txt", "report.csv"}),
    "seq-mean-out": ("seq mean --input {in}/v.txt --out {out}/m.txt --report {out}/s.csv",
                     0, {"m.txt", "s.csv"}),
}


class TestFilesLeft:
    @pytest.mark.parametrize("case", sorted(FILE_SETS))
    def test_exact_file_set(self, tmp_path, inputs, case):
        argv_text, code, names = FILE_SETS[case]
        out = tmp_path / "out"
        argv = argv_text.format(**{"in": inputs, "out": out}).split()
        assert main([*argv, "--out-dir", str(out)]) == code
        assert set(os.listdir(out)) == names


class TestRejections:
    @pytest.mark.parametrize("argv", [
        ["solve-selfcomm", "--type", "A", "--tol", "bogus=1"],
        ["solve-selfcomm", "--type", "A", "--tol", "residual=1e-300"],
        ["solve-selfcomm", "--type", "A", "--tol", "residual=1e-300", "--tol", "bogus=1"],
        ["anderson-verify", "--weights", "powerlog:1,-0.5,0", "--tol", "band=1e-9"],
        ["anderson-verify", "--weights", "powerlog:1,-0.5,0", "--tol", "verify=0"],
        ["anderson-verify", "--weights", "powerlog:1,-0.5,0", "--tol", "verify=x"],
        ["staircase", "--tol", "verify=1e-9"],
    ])
    def test_bad_tolerance_exits_2(self, tmp_path, inputs, capsys, argv):
        if argv[0] != "anderson-verify":
            argv = [*argv, "--input", str(inputs / "T.txt")]
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        one_line(capsys, "error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, message", [
        ("command = seq\nrestarts = 3\n", "unknown key 'restarts' for seq"),
        ("command = minimize\ntarget = t.txt\nweights = powerlog:1,0,0\n",
         "unknown key 'weights' for minimize"),
        ("command = lie\ninput = a.txt\nselfadjoint = true\n",
         "unknown key 'selfadjoint' for lie"),
        ("command = anderson-verify\nweights = powerlog:1,-0.5,0\ntol.band = 1e-9\n",
         "unknown tolerance 'band' for anderson-verify"),
        ("command = solve-selfcomm\ntype = A\ninput = T.txt\ntol.residual = 1e-300\n",
         "unknown tolerance 'residual' for solve-selfcomm"),
        ("command = solve-selfcomm\ntype = B\ninput = T.txt\n",
         "unknown solve-selfcomm type 'B'"),
        ("command = staircase\n", "staircase needs input"),
        ("command = anderson-verify\nseed = 5\n", "unknown key 'seed' for anderson-verify"),
        ("command = staircase\nseed = 5\n", "unknown key 'seed' for staircase"),
        ("command = solve-selfcomm\nseed = 5\n", "unknown key 'seed' for solve-selfcomm"),
        ("command = seq\nseed = 5\n", "unknown key 'seed' for seq"),
        ("command = lie\nseed = 5\n", "unknown key 'seed' for lie"),
        ("command = lie\naction = semisimple\nseed = 5\n", "unknown key 'seed' for lie"),
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, body, message):
        config = tmp_path / "job.cfg"
        config.write_text(body + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert message in one_line(capsys, "error:")

    def test_common_keys_valid_everywhere(self, tmp_path):
        for command in cli.COMMANDS:
            cfg = parse_config(f"command = {command}\noutput_dir = o\nreport = r.csv\n")
            assert (cfg.output_dir, cfg.report_path) == ("o", "r.csv")
        assert parse_config("command = minimize\nseed = 3\n").seed == 3

    def test_honoured_tolerance_still_reaches_its_check(self, tmp_path, capsys):
        code = main(["anderson-verify", "--weights", "powerlog:1,-0.5,0", "--blocks", "6",
                     "--tol", "verify=1e-30", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_TOLERANCE
        one_line(capsys, "verification failure:")


class TestActionOptions:
    """An option the chosen lie/seq action does not read is rejected, not ignored."""

    @pytest.mark.parametrize("argv, message", [
        (["lie", "killing", "--n", "3", "--input", "/nonexistent.txt"],
         "lie killing does not read 'input'"),
        (["lie", "semisimple", "--out", "Y.txt"], "lie semisimple does not read 'out'"),
        (["lie", "solve-sl", "--input", "T.txt", "--n", "4"],
         "lie solve-sl does not read 'n'"),
        (["seq", "classify", "--input", "v.txt"], "seq classify does not read 'input'"),
        (["seq", "mean", "--family", "powerlog:1,1,2"], "seq mean does not read 'family'"),
        (["seq", "mean", "--input", "v.txt", "--family", "powerlog:1,1,2"],
         "seq mean does not read 'family'"),
    ])
    def test_argv_exits_2(self, tmp_path, capsys, argv, message):
        assert main([*argv, "--out-dir", str(tmp_path / "out")]) == cli.EXIT_CONFIG
        assert message in one_line(capsys, "error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("body, message", [
        ("command = lie\ninput = T.txt\n", "lie killing does not read 'input'"),
        ("command = lie\naction = semisimple\nout = Y.txt\n",
         "lie semisimple does not read 'out'"),
        ("command = lie\naction = solve-sl\ninput = T.txt\nn = 4\n",
         "lie solve-sl does not read 'n'"),
        ("command = seq\ninput = v.txt\n", "seq classify does not read 'input'"),
        ("command = seq\naction = mean\nfamily = powerlog:1,1,2\n",
         "seq mean does not read 'family'"),
    ])
    def test_config_exits_2(self, tmp_path, capsys, body, message):
        config = tmp_path / "job.cfg"
        config.write_text(body + f"output_dir = {tmp_path / 'out'}\n")
        assert main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert message in one_line(capsys, "error:")
        assert not (tmp_path / "out").exists()

    def test_unknown_action_reported_as_such(self, tmp_path, capsys):
        config = tmp_path / "job.cfg"
        config.write_text(f"command = lie\naction = bogus\ninput = T.txt\n"
                          f"output_dir = {tmp_path}\n")
        assert main(["run", "--config", str(config)]) == cli.EXIT_CONFIG
        assert "unknown lie action 'bogus'" in one_line(capsys, "error:")

    @pytest.mark.parametrize("command, required", [
        ("anderson-verify", ["--weights", "powerlog:1,-0.5,0"]),
        ("staircase", ["--input", "A.txt"]),
        ("solve-selfcomm", ["--type", "A", "--input", "T.txt"]),
        ("seq", ["classify"]),
        ("lie", ["killing"]),
        ("lie", ["semisimple"]),
        ("lie", ["solve-sl", "--input", "T.txt"]),
    ])
    def test_seed_rejected_where_unread(self, tmp_path, capsys, command, required):
        with pytest.raises(SystemExit) as exc:
            main([command, *required, "--seed", "5", "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_seed_env_ignored_where_unread(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COMMLAB_SEED", "not-a-number")
        assert main(["lie", "killing", "--n", "3", "--out-dir", str(tmp_path)]) == 0
        assert main(["lie", "semisimple", "--n", "3", "--out-dir", str(tmp_path)]) == 0
        assert main(["seq", "classify", "--family", "powerlog:1,1,2",
                     "--out-dir", str(tmp_path)]) == 0

    def test_restricted_options_name_real_actions(self):
        for cmd in cli.COMMANDS.values():
            action = next((o for o in cmd.options if o.key == "action"), None)
            for opt in cmd.options:
                assert set(opt.actions) <= set(action.choices if action else ())


class TestNumericFailures:
    @pytest.mark.parametrize("kernel", ["svd", "pinv"])
    def test_lie_semisimple_linalg_failure_exits_4(self, tmp_path, capsys, monkeypatch,
                                                    kernel):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, kernel, fail)
        code = main(["lie", "semisimple", "--n", "3", "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        one_line(capsys, "numeric failure:")

    def test_staircase_stream_failure_exits_4(self, tmp_path, inputs, capsys):
        code = main(["staircase", "--input", str(inputs / "H0.txt"), "--tol", "band=10",
                     "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        one_line(capsys, "numeric failure:")
        assert not (tmp_path / "unitary.txt").exists()

    def test_staircase_stream_failure_exits_4_under_optimize(self, tmp_path, inputs):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "commlab.cli", "staircase",
             "--input", str(inputs / "H0.txt"), "--tol", "band=10",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == cli.EXIT_NUMERIC
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("numeric failure:"), proc.stderr
        assert not (tmp_path / "unitary.txt").exists()

    @pytest.mark.parametrize("solver, name", [("A", "T.txt"), ("C", "C.txt")])
    def test_eigh_failure_exits_4(self, tmp_path, inputs, capsys, monkeypatch, solver, name):
        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code = main(["solve-selfcomm", "--type", solver, "--input", str(inputs / name),
                     "--out-dir", str(tmp_path)])
        assert code == cli.EXIT_NUMERIC
        assert "did not converge" in one_line(capsys, "numeric failure:")
