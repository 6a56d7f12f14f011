"""Command-line surface: exit codes, pipelines, diagnostics."""
import contextlib
import io
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cvarpath
from cvarpath import read_scenario_file
from cvarpath import cli
from cvarpath.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from conftest import small_portfolio


def run_cli(*argv):
    """The command in a fresh interpreter, so an uncaught error shows as a traceback."""
    env = dict(os.environ, PYTHONPATH=str(Path(cvarpath.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, "-m", "cvarpath.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def gen_file(tmp_path, name="scen.csv", groups=6, scenarios=200):
    out = tmp_path / name
    code = main(["gen", "--seed", "5", "--groups", str(groups),
                 "--scenarios", str(scenarios), "--out", str(out)])
    assert code == EXIT_OK
    return out


class TestGen:
    def test_gen_writes_readable_file(self, tmp_path, capsys):
        out = gen_file(tmp_path)
        assert "wrote" in capsys.readouterr().out
        matrix = read_scenario_file(out)
        assert matrix.n_groups == 6
        assert matrix.n_scenarios == 200

    def test_gen_block_size_must_divide(self, tmp_path, capsys):
        code = main(["gen", "--seed", "1", "--groups", "5", "--scenarios", "10",
                     "--block-size", "2", "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_DOMAIN
        assert "error_code=config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,name", [
        ("--scale", "nan", "loss_scale"), ("--scale", "inf", "loss_scale"),
        ("--scale", "0", "loss_scale"), ("--base", "nan", "base_value"),
        ("--base", "-5", "base_value"), ("--base", "inf", "base_value"),
    ])
    def test_gen_scale_and_base_must_be_finite_and_positive(self, tmp_path, capsys, flag,
                                                            value, name):
        code = main(["gen", "--seed", "1", "--groups", "4", "--scenarios", "10",
                     flag, value, "--out", str(tmp_path / "x.csv")])
        assert code == EXIT_DOMAIN
        assert f"error_code=config {name} must be finite and positive" in capsys.readouterr().err


class TestAnalyze:
    def test_analyze_prints_report(self, tmp_path, capsys):
        out = gen_file(tmp_path)
        code = main(["analyze", "--scenarios", str(out), "--beta", "0.9",
                     "--returns", "0.05"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "cvar=" in text
        assert "diversification_index=" in text
        assert text.count("\n") >= 6 + 1 + 6  # headline block + header + one row per group

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["analyze", "--scenarios", str(tmp_path / "absent.csv"),
                     "--beta", "0.9"])
        assert code == EXIT_DOMAIN
        assert "error_code=io" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", ("nan", "1", "-0.1", "inf", "1.5"))
    def test_bad_beta_is_config_error(self, tmp_path, capsys, beta):
        """As ``beta`` in a run config: a config error, naming the option."""
        out = gen_file(tmp_path)
        capsys.readouterr()
        code = main(["analyze", "--scenarios", str(out), "--beta", beta])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err.startswith("error_code=config --beta must be in [0, 1)")


class TestOptimize:
    def write_config(self, tmp_path, scen):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"scenarios = {scen}\n"
            "objective = min_risk\n"
            "mode = revenue_only\n"
            "policy = fixed\n"
            "beta = 0.9\n"
            "delta_c = 1e-3\n"
            "total_cost = 0.01\n"
            "returns = 0.05\n"
            f"output = {tmp_path / 'path.csv'}\n")
        return cfg

    def test_optimize_pipeline(self, tmp_path, capsys):
        scen = gen_file(tmp_path)
        cfg = self.write_config(tmp_path, scen)
        code = main(["optimize", "--config", str(cfg)])
        assert code == EXIT_OK
        assert "reason=" in capsys.readouterr().out
        lines = (tmp_path / "path.csv").read_text().strip().splitlines()
        assert len(lines) >= 2

    def test_optimize_requires_output(self, tmp_path, capsys):
        scen = gen_file(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"scenarios = {scen}\nobjective = min_risk\nmode = revenue_only\n"
            "beta = 0.9\ndelta_c = 1e-3\ntotal_cost = 0.01\nreturns = 0.05\n")
        code = main(["optimize", "--config", str(cfg)])
        assert code == EXIT_DOMAIN
        assert "error_code=config" in capsys.readouterr().err

    def test_empty_output_fails_before_the_read(self, tmp_path, capsys, monkeypatch):
        """An empty ``output =`` is no output path: a config error raised
        before the scenario file is read, not an io error after the run."""
        cfg = self.write_config(tmp_path, gen_file(tmp_path))
        cfg.write_text(cfg.read_text().replace(f"output = {tmp_path / 'path.csv'}", "output ="))

        def never(*args):
            raise AssertionError("the scenarios were read or the path ran")

        monkeypatch.setattr(cli, "read_scenario_file", never)
        monkeypatch.setattr(cli, "run", never)
        code = main(["optimize", "--config", str(cfg)])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == ("error_code=config no output path given "
                                           "(config 'output' or --output)\n")

    def test_fixed_total_risk_runs_its_budget(self, tmp_path, capsys):
        """At the default steady_tol the pinned CVaR does not end a moving path."""
        matrix, state = small_portfolio(seed=35)
        scen = tmp_path / "scen.csv"
        cvarpath.write_scenarios(matrix, scen)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenarios = {scen}\nobjective = max_return\nmode = none\n"
                       "beta = 0.95\ndelta_c = 1e-3\ntotal_cost = 0.2\n"
                       "fixed_total_risk = true\n"
                       f"returns = {','.join(map(repr, state.returns.tolist()))}\n")
        code = main(["optimize", "--config", str(cfg), "--output", str(tmp_path / "p.csv")])
        assert code == EXIT_OK
        assert "steps=200 c=0.2 reason=budget" in capsys.readouterr().out

    @pytest.mark.parametrize("parent", ("missing_dir", "missing_dir/deeper", "a_file"))
    def test_missing_output_directory_fails_before_the_run(self, tmp_path, capsys,
                                                           monkeypatch, parent):
        """An output whose directory is missing, or is a file, ends in the
        error that writing it would raise, without running the path."""
        scen = gen_file(tmp_path)
        cfg = self.write_config(tmp_path, scen)
        (tmp_path / "a_file").write_text("")
        output = tmp_path / parent / "p.csv"
        with pytest.raises(OSError) as raised:
            open(output, "w")
        capsys.readouterr()

        def no_run(*args):
            raise AssertionError("the path ran")

        monkeypatch.setattr(cli, "run", no_run)
        code = main(["optimize", "--config", str(cfg), "--output", str(output)])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error_code=io {raised.value}\n"
        assert not output.parent.is_dir()

    def test_directory_output_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        """An output that is an existing directory ends in the error that
        writing it would raise, without running the path."""
        cfg = self.write_config(tmp_path, gen_file(tmp_path))
        output = tmp_path / "out"
        output.mkdir()
        with pytest.raises(OSError) as raised:
            open(output, "w")
        capsys.readouterr()

        def no_run(*args):
            raise AssertionError("the path ran")

        monkeypatch.setattr(cli, "run", no_run)
        code = main(["optimize", "--config", str(cfg), "--output", str(output)])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error_code=io {raised.value}\n"
        assert list(output.iterdir()) == []

    def test_output_override(self, tmp_path):
        scen = gen_file(tmp_path)
        cfg = self.write_config(tmp_path, scen)
        other = tmp_path / "other.csv"
        assert main(["optimize", "--config", str(cfg), "--output", str(other)]) == EXIT_OK
        assert other.exists()


class TestBadValues:
    """Malformed numbers end in a config error naming the key, never a traceback."""

    def optimize_with(self, tmp_path, key, value):
        scen = gen_file(tmp_path)
        settings = {"scenarios": scen, "objective": "min_risk", "mode": "revenue_only",
                    "policy": "fixed", "beta": "0.9", "delta_c": "1e-3",
                    "total_cost": "0.01", "returns": "0.05",
                    "output": tmp_path / "path.csv", key: value}
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        return run_cli("optimize", "--config", str(cfg))

    @pytest.mark.parametrize("key,value", [
        ("returns", "abc"), ("costs", "1,zz"), ("kappa1", "abc"), ("kappa2", "1e"),
        ("max_steps", "1.5"), ("beta", "nan"), ("delta_c", "nan"), ("total_cost", "inf"),
        ("delta_c", "1e-320"), ("returns", "nan"), ("costs", "nan"), ("costs", "0"),
    ])
    def test_optimize_config_error(self, tmp_path, key, value):
        proc = self.optimize_with(tmp_path, key, value)
        assert proc.returncode == EXIT_DOMAIN
        assert "error_code=config" in proc.stderr
        assert key in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_optimize_config_error_names_its_line(self, tmp_path):
        scen = gen_file(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenarios = {scen}\nobjective = min_risk\nbeta = 0.9\n"
                       "total_cost = 0.01\nreturns = 0.05\n"
                       "# step size\n\ndelta_c = abc\n")
        proc = run_cli("optimize", "--config", str(cfg), "--output", str(tmp_path / "p.csv"))
        assert proc.returncode == EXIT_DOMAIN
        assert "error_code=config line 8: delta_c: expected float" in proc.stderr

    @pytest.mark.parametrize("key", ["returns", "costs"])
    def test_optimize_vector_of_wrong_length(self, tmp_path, key):
        proc = self.optimize_with(tmp_path, key, "0.1,0.2")
        assert proc.returncode == EXIT_DOMAIN
        assert f"error_code=config {key} has 2 entries, expected 6" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_analyze_bad_returns(self, tmp_path):
        scen = gen_file(tmp_path)
        proc = run_cli("analyze", "--scenarios", str(scen), "--beta", "0.9", "--returns", "abc")
        assert proc.returncode == EXIT_DOMAIN
        assert "error_code=config" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_convergence_bad_deltas(self, tmp_path):
        cfg = write_good_config(tmp_path, gen_file(tmp_path))
        proc = run_cli("convergence", "--config", str(cfg), "--deltas", "abc")
        assert proc.returncode == EXIT_DOMAIN
        assert "error_code=config --deltas: expected float, got 'abc'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_optimize_overflowing_losses(self, tmp_path):
        """Every cell is finite, but the portfolio loss of the first row overflows."""
        scen = tmp_path / "big.csv"
        scen.write_text("group,a,b\ninitial,1,1\n-1.2e308,-1.2e308\n0.5,1.5\n1.5,0.5\n")
        cfg = write_good_config(tmp_path, scen)
        proc = run_cli("optimize", "--config", str(cfg), "--output", str(tmp_path / "p.csv"))
        assert proc.returncode == EXIT_DOMAIN
        assert "error_code=data losses must all be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_optimize_overflowing_factor_product(self, tmp_path):
        """x0 - V is finite in every cell and Z @ s in every row, but V @ s
        overflows in the first: one line on stderr, no warning."""
        scen = tmp_path / "big.csv"
        scen.write_text("group,a,b\ninitial,8e307,8e307\n1.6e308,1.6e308\n"
                        "8.1e307,7.9e307\n7.9e307,8.1e307\n")
        cfg = write_good_config(tmp_path, scen)
        proc = run_cli("optimize", "--config", str(cfg), "--output", str(tmp_path / "p.csv"))
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stderr.splitlines() == ["error_code=data losses must all be finite"]

    def test_analyze_undecodable_byte_in_a_cell(self, tmp_path):
        scen = tmp_path / "scen.csv"
        scen.write_bytes(b"group,a,b\ninitial,10,10\n9,11\n11,9\xff\n")
        proc = run_cli("analyze", "--scenarios", str(scen), "--beta", "0.9")
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stderr.splitlines() == [
            "error_code=data line 4: byte 0xff is not valid UTF-8"]

    def test_optimize_undecodable_byte_in_a_config_value(self, tmp_path):
        """A Latin-1 byte in a value fails at its line; one in a comment is cut with it."""
        cfg = write_good_config(tmp_path, gen_file(tmp_path))
        cfg.write_bytes(cfg.read_bytes() + b"# r\xe9sum\xe9\noutput = r\xe9sum\xe9.csv\n")
        proc = run_cli("optimize", "--config", str(cfg))
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stderr.splitlines() == [
            "error_code=config line 9: byte 0xe9 is not valid UTF-8"]

    def test_gen_block_size_zero(self, tmp_path):
        proc = run_cli("gen", "--seed", "1", "--groups", "4", "--scenarios", "10",
                       "--block-size", "0", "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == EXIT_DOMAIN
        assert "error_code=config block size must be at least 1" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestRunLimits:
    """Run inputs that overflow a step, or ask for more steps than a run can
    hold, end in exit 1 with a typed error, never a traceback or a hang."""

    def optimize_with(self, tmp_path, **keys):
        scen = tmp_path / "g.csv"
        assert main(["gen", "--seed", "1", "--groups", "4", "--scenarios", "50",
                     "--out", str(scen)]) == EXIT_OK
        settings = {"scenarios": scen, "objective": "min_risk", "mode": "revenue_only",
                    "beta": "0.9", "delta_c": "1e-3", "total_cost": "0.01",
                    "returns": "0.05", "output": tmp_path / "path.csv"} | keys
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
        return run_cli("optimize", "--config", str(cfg))

    @pytest.mark.parametrize("keys", [
        dict(objective="max_return", mode="none", returns="1e200"),
        dict(objective="min_risk", mode="revenue_only", returns="1e306"),
        dict(costs="1e-150"),
    ])
    def test_overflowing_step_constants(self, tmp_path, keys):
        proc = self.optimize_with(tmp_path, **keys)
        assert proc.returncode == EXIT_DOMAIN
        assert "error_code=domain step constants U, V, W, F, G, H must be finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("key,value,message", [
        ("costs", "1e-300", "costs squared must be finite and nonzero, and so must its "
                            "reciprocal; got min 1e-300, max 1e-300"),
        ("costs", "1e200", "costs squared must be finite and nonzero, and so must its "
                           "reciprocal; got min 1e+200, max 1e+200"),
        ("returns", "1e308", "returns times the base value 100.0 must be finite"),
    ])
    def test_returns_and_costs_out_of_float_range(self, tmp_path, key, value, message):
        """Values that pass as numbers but overflow or underflow a step, or a
        return priced at its group value; one line on stderr, no warning."""
        proc = self.optimize_with(tmp_path, **{key: value})
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stderr.splitlines() == [f"error_code=config {message}"]

    def test_analyze_returns_overflowing_the_base_value(self, tmp_path):
        scen = tmp_path / "g.csv"
        assert main(["gen", "--seed", "1", "--groups", "4", "--scenarios", "50",
                     "--out", str(scen)]) == EXIT_OK
        proc = run_cli("analyze", "--scenarios", str(scen), "--beta", "0.9",
                       "--returns", "1e308")
        assert proc.returncode == EXIT_DOMAIN
        assert proc.stderr.splitlines() == [
            "error_code=config returns times the base value 100.0 must be finite"]

    @pytest.mark.parametrize("key,value,message", [
        ("max_steps", "-5", "max_steps must be non-negative, got -5"),
        ("steady_window", "0", "steady_state_window must be at least 1, got 0"),
        ("steady_window", "-3", "steady_state_window must be at least 1, got -3"),
        ("kappa1", "nan", "kappa1 must be finite, got nan"),
        ("kappa1", "inf", "kappa1 must be finite, got inf"),
        ("kappa2", "-inf", "kappa2 must be finite, got -inf"),
    ])
    def test_config_limits(self, tmp_path, key, value, message):
        proc = self.optimize_with(tmp_path, **{key: value})
        assert proc.returncode == EXIT_DOMAIN
        assert f"error_code=config {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_tiny_step_without_steady_state_ends_at_once(self, tmp_path):
        start = time.perf_counter()
        proc = self.optimize_with(tmp_path, delta_c="1e-300", steady_tol="0")
        assert time.perf_counter() - start < 10.0
        assert proc.returncode == EXIT_DOMAIN
        assert "error_code=config delta_c 1e-300 asks for 1e+298 steps" in proc.stderr
        assert "max_steps" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_gen_overflow_is_a_config_error(self, tmp_path):
        proc = run_cli("gen", "--seed", "1", "--groups", "4", "--scenarios", "50",
                       "--base", "1e308", "--scale", "10", "--out", str(tmp_path / "g.csv"))
        assert proc.returncode == EXIT_DOMAIN
        # one line: no RuntimeWarning and no traceback before it
        assert proc.stderr.splitlines() == [
            "error_code=config loss_scale 10.0 and base_value 1e+308 give non-finite "
            "scenario values"]


BAD_TOKENS = ("nan", "inf", "-Infinity", "1e400", "", "abc", "-0.5", "1.5")
# Values that parse and are finite but overflow a step, underflow a square,
# or lie outside a count's range.
EXTREME_TOKENS = ("1e200", "1e-300", "-5", "0")
# "9" and the byte 0xff, which is not UTF-8, as read with errors="surrogateescape"
UNDECODABLE = "9\udcff"
GOOD_CONFIG = {"objective": "min_risk", "mode": "revenue_only", "beta": "0.9",
               "delta_c": "0.01", "total_cost": "0.05", "returns": "0.05"}
RUN_KEYS = sorted(GOOD_CONFIG) + ["costs", "kappa1", "kappa2", "max_steps", "steady_window"]


def write_good_config(directory, scenarios):
    """``directory/run.cfg``: the config above, reading ``scenarios``."""
    cfg = Path(directory) / "run.cfg"
    cfg.write_text("".join(f"{k} = {v}\n" for k, v in GOOD_CONFIG.items())
                   + f"scenarios = {scenarios}\n")
    return cfg


@st.composite
def scenario_texts(draw):
    """A small valid scenario file with up to two faults: a bad token or a
    byte that is not UTF-8 in a cell, or a row one cell short or long."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(1, 5))
    has_prob = draw(st.booleans())
    number = st.sampled_from(("8", "9.5", "10", "11", "12.25"))
    rows = [["initial"] + ["10"] * n]
    for _ in range(k):
        rows.append([repr(1.0 / k)] * has_prob + draw(st.lists(number, min_size=n,
                                                               max_size=n)))
    for _ in range(draw(st.integers(0, 2))):
        row = rows[draw(st.integers(0, k))]
        if draw(st.booleans()):
            row[draw(st.integers(0, len(row) - 1))] = draw(
                st.sampled_from(BAD_TOKENS + (UNDECODABLE,)))
        elif draw(st.booleans()):
            row.append("10")
        else:
            row.pop()
    header = ["group"] + ["prob"] * has_prob + [f"g{i}" for i in range(n)]
    return with_inserted_lines(draw, [",".join(row) for row in [header] + rows], ("",))


def with_inserted_lines(draw, lines, fillers):
    """The lines joined into a file, with up to three filler lines inserted anywhere."""
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(fillers)))
    return "\n".join(lines) + "\n"


@st.composite
def run_configs(draw):
    """The valid config above with up to two values, its own or optional ones,
    replaced by bad or extreme tokens or one holding a byte that is not UTF-8."""
    config = dict(GOOD_CONFIG)
    for key in draw(st.sets(st.sampled_from(RUN_KEYS), max_size=2)):
        config[key] = draw(st.sampled_from(BAD_TOKENS + EXTREME_TOKENS + (UNDECODABLE,)))
    return config


GEN_BASELINE = {"--seed": "3", "--groups": "4", "--rho": "0.3", "--tail": "0.5",
                "--scale": "0.1", "--base": "100"}
GEN_VALUES = {
    "--seed": ("3", "-1"),
    "--groups": ("0", "1", "2", "4", "6", "-2", "abc"),
    "--block-size": ("0", "-1", "1", "2", "3", "abc"),
    "--rho": ("0", "0.3", "0.99", "1", "-0.1", "nan", "inf", "abc"),
    "--tail": ("0.5", "2", "0", "-1", "nan", "inf", "19", "30", "100", "1e308", "abc"),
    "--scale": ("0.1", "2", "0", "-1", "nan", "inf", "-inf", "1e308", "abc"),
    "--base": ("100", "1", "0", "-5", "nan", "inf", "-inf", "1e308", "abc"),
}


@st.composite
def gen_options(draw):
    """``gen`` options: the valid baseline above with one option replaced."""
    options = dict(GEN_BASELINE)
    option = draw(st.sampled_from(sorted(GEN_VALUES)))
    options[option] = draw(st.sampled_from(GEN_VALUES[option]))
    return [token for pair in options.items() for token in pair]


def assert_lines_within(stderr, text):
    """Every ``line N:`` an error names lies in 1 .. the file's physical lines + 1."""
    for number in re.findall(r"line (\d+):", stderr):
        assert 1 <= int(number) <= text.count("\n") + 1


class TestCliFuzz:
    """Bad files and bad config values end in exit 0, 1 or 2, never an exception,
    and a line an error names exists in the file at fault."""

    @given(scenario_texts(), run_configs(), st.sampled_from(("0.9",) + BAD_TOKENS),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_exit_code_only(self, scenarios, config, beta, data):
        with tempfile.TemporaryDirectory() as tmp:
            scen = Path(tmp) / "scen.csv"
            scen.write_bytes(scenarios.encode("utf-8", "surrogateescape"))
            cfg = Path(tmp) / "run.cfg"
            cfg_text = with_inserted_lines(
                data.draw, [f"scenarios = {scen}", f"output = {Path(tmp) / 'path.csv'}"]
                + [f"{key} = {value}" for key, value in config.items()], ("", "# note"))
            cfg.write_bytes(cfg_text.encode("utf-8", "surrogateescape"))
            exits = (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                assert main(["optimize", "--config", str(cfg)]) in exits
            text = cfg_text if "error_code=config" in stderr.getvalue() else scenarios
            assert_lines_within(stderr.getvalue(), text)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                assert main(["analyze", "--scenarios", str(scen), "--beta", beta,
                             "--returns", config["returns"]]) in exits
            assert_lines_within(stderr.getvalue(), scenarios)

    def test_each_config_value_alone(self, tmp_path):
        """Each key the run fuzz perturbs, set alone to each token it draws, on a
        valid file: exit 0 or 1, never an exception.  60 random examples of two
        faults in two files rarely reach a given pair; this sweep reaches all."""
        scen = tmp_path / "g.csv"
        assert main(["gen", "--seed", "1", "--groups", "4", "--scenarios", "50",
                     "--out", str(scen)]) == EXIT_OK
        cfg = tmp_path / "run.cfg"
        escaped = []
        for key in RUN_KEYS:
            for token in BAD_TOKENS + EXTREME_TOKENS:
                settings = GOOD_CONFIG | {key: token, "scenarios": scen,
                                          "output": tmp_path / "path.csv"}
                cfg.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
                try:
                    with contextlib.redirect_stdout(io.StringIO()), \
                            contextlib.redirect_stderr(io.StringIO()):
                        code = main(["optimize", "--config", str(cfg)])
                except Exception as exc:  # any escape is the finding
                    escaped.append((key, token, repr(exc)))
                    continue
                if code not in (EXIT_OK, EXIT_DOMAIN):
                    escaped.append((key, token, f"exit {code}"))
        assert escaped == []

    @given(options=gen_options(),
           deltas=st.lists(st.sampled_from(("1e-2", "5e-3", "2e-3", "1e-3", "0", "-1e-3",
                                            "nan", "inf", "abc", "")), max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_gen_and_convergence_exit_code_only(self, options, deltas):
        """``gen`` argv, then ``convergence --deltas`` on its file (or a good one).
        ``gen`` reads no data, so a bad option is never a data error."""
        exits = (EXIT_OK, EXIT_DOMAIN, EXIT_USAGE)
        stderr = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            scen = Path(tmp) / "scen.csv"
            code = main(["gen", *options, "--scenarios", "20", "--out", str(scen)])
            assert code in exits
            assert "error_code=data" not in stderr.getvalue()
            if code != EXIT_OK:  # the sweep below still needs a scenario file
                assert main(["gen", "--seed", "3", "--groups", "3", "--scenarios", "20",
                             "--out", str(scen)]) == EXIT_OK
            cfg = write_good_config(tmp, scen)
            assert main(["convergence", "--config", str(cfg),
                         "--deltas", ",".join(deltas)]) in exits


class TestConvergence:
    def test_convergence_prints_table(self, tmp_path, capsys):
        scen = gen_file(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"scenarios = {scen}\nobjective = min_risk\nmode = revenue_only\n"
            "beta = 0.9\ndelta_c = 1e-4\ntotal_cost = 0.01\nreturns = 0.05\n"
            "steady_tol = 0\n")
        code = main(["convergence", "--config", str(cfg),
                     "--deltas", "1e-2,1e-3,1e-4"])
        assert code == EXIT_OK
        text = capsys.readouterr().out
        assert "delta_c,terminal_cvar_rel,error,failed,reason" in text
        assert "slope=" in text


    def test_repeated_step_size_is_named(self, tmp_path, capsys):
        """``--deltas`` is sorted, so only a repeat can break the order."""
        cfg = write_good_config(tmp_path, gen_file(tmp_path))
        code = main(["convergence", "--config", str(cfg), "--deltas", "1e-2,1e-2,1e-3"])
        assert code == EXIT_DOMAIN
        assert capsys.readouterr().err == ("error_code=config step sizes must be distinct "
                                           "and in descending order\n")


class TestOutOfMemory:
    """A table too large to allocate (say ``gen --scenarios 1000000000000``)
    ends in exit 1 and one ``error_code=memory`` line.  The generator and the
    reader are replaced by ones that raise at once, so nothing is allocated."""

    @pytest.mark.parametrize("error,message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "out of memory"),
    ])
    @pytest.mark.parametrize("command", ("gen", "analyze", "optimize"))
    def test_one_error_line(self, tmp_path, capsys, monkeypatch, command, error, message):
        def refuse(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "generate", refuse)
        monkeypatch.setattr(cli, "read_scenario_file", refuse)
        scen = tmp_path / "scen.csv"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"scenarios = {scen}\nobjective = min_risk\nmode = revenue_only\n"
                       "beta = 0.9\ndelta_c = 1e-3\ntotal_cost = 0.01\nreturns = 0.05\n"
                       f"output = {tmp_path / 'path.csv'}\n")
        argv = {"gen": ["gen", "--seed", "1", "--groups", "2", "--scenarios", "10",
                        "--out", str(scen)],
                "analyze": ["analyze", "--scenarios", str(scen), "--beta", "0.9"],
                "optimize": ["optimize", "--config", str(cfg)]}[command]
        assert main(argv) == EXIT_DOMAIN
        assert capsys.readouterr().err == f"error_code=memory {message}\n"
        assert not scen.exists()


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == EXIT_USAGE

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_flag_is_usage_error(self):
        assert main(["gen", "--seed", "1"]) == EXIT_USAGE
