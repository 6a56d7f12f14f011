"""Scenario files, run configs, the generator, and the path table."""
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cvarpath import (
    ConfigError,
    ContinuationConfig,
    DataError,
    ExtremumAutopilot,
    FixedKappas,
    GeneratorSpec,
    ObjectiveKind,
    PATH_COLUMNS,
    ConstraintMode,
    ScenarioMatrix,
    ConstraintVariant,
    generate,
    initial_state,
    parse_run_config,
    read_scenario_file,
    run,
    write_path,
    write_scenarios,
)
from cvarpath import data
from conftest import random_matrix
from oracle import generate_reference


class TestScenarioRoundTrip:
    @pytest.mark.parametrize("spread", (0, 300))
    def test_bit_exact_round_trip(self, tmp_path, spread):
        """Values spread over 10**±spread re-read to the same bits."""
        rng = np.random.default_rng(2)
        matrix = random_matrix(rng, n=5, k=40)
        values = matrix.values * 10.0 ** rng.integers(-spread, spread + 1, matrix.values.shape)
        matrix = ScenarioMatrix(initial_values=matrix.initial_values, values=values,
                                probabilities=matrix.probabilities)
        path = tmp_path / "scen.csv"
        write_scenarios(matrix, path)
        back = read_scenario_file(path)
        np.testing.assert_array_equal(back.initial_values, matrix.initial_values)
        np.testing.assert_array_equal(back.values, matrix.values)
        np.testing.assert_array_equal(back.probabilities, matrix.probabilities)
        assert back.group_ids == matrix.group_ids

    def test_parse_diagnostics(self, tmp_path):
        matrix = random_matrix(np.random.default_rng(2), n=3, k=10)
        path = tmp_path / "scen.csv"
        write_scenarios(matrix, path)
        back = read_scenario_file(path)
        assert (back.n_scenarios, back.n_groups) == (10, 3)
        # the written probabilities, not uniform ones and not normalised again
        np.testing.assert_array_equal(back.probabilities, matrix.probabilities)

    def test_probabilities_normalized_within_band(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("group,prob,a,b\n"
                        "initial,10,10\n"
                        "0.5002,9,11\n"
                        "0.5002,11,9\n")
        probabilities = read_scenario_file(path).probabilities
        np.testing.assert_array_equal(probabilities, [0.5, 0.5])
        assert probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p,total", (("0.7", "1.4"), ("1e308", "inf")))
    def test_probabilities_outside_band_rejected(self, tmp_path, p, total):
        """A sum that overflows is outside the band too, without a numpy warning."""
        path = tmp_path / "scen.csv"
        path.write_text("group,prob,a,b\n"
                        "initial,10,10\n"
                        f"{p},9,11\n"
                        f"{p},11,9\n")
        with pytest.raises(DataError, match=f"probabilities sum to {total}, outside") as err:
            read_scenario_file(path)
        assert err.value.line == 3

    @pytest.mark.parametrize("row,message", [
        ("0.5,oops,9", "cannot parse scenario value 'oops'"),
        ("0.5,9,abc", "cannot parse scenario value 'abc'"),
        ("abc,9,11", "cannot parse probability 'abc'"),
        ("0.5,,9", "scenario row has 3 cells, cell 2 is empty"),
        ("nan,9,11", "scenario cells must all be finite"),
        ("0.5,9,-inf", "scenario cells must all be finite"),
    ])
    def test_bad_cell_names_its_line(self, tmp_path, row, message):
        path = tmp_path / "scen.csv"
        path.write_text("group,prob,a,b\n"
                        "initial,10,10\n"
                        "0.5,9,11\n"
                        f"{row}\n")
        with pytest.raises(DataError, match=message) as err:
            read_scenario_file(path)
        assert err.value.line == 4

    @pytest.mark.parametrize("token", ("1_000", "nan", "+inf", "-Infinity", "1e400", "0x10"))
    def test_cells_parse_as_python_float(self, tmp_path, token):
        path = tmp_path / "scen.csv"
        path.write_text("group,a,b\n"
                        "initial,10,10\n"
                        "9,11\n"
                        f"{token},9\n")
        try:
            expected = float(token)
        except ValueError:
            with pytest.raises(DataError, match="cannot parse scenario value") as err:
                read_scenario_file(path)
            assert err.value.line == 4
            return
        if not np.isfinite(expected):
            with pytest.raises(DataError, match="scenario cells must all be finite") as err:
                read_scenario_file(path)
            assert err.value.line == 4
            return
        assert read_scenario_file(path).values[1, 0] == expected

    def test_non_finite_initial_value_names_its_line(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("group,a,b\n"
                        "initial,10,inf\n"
                        "9,11\n"
                        "11,9\n")
        with pytest.raises(DataError, match="initial values must all be finite") as err:
            read_scenario_file(path)
        assert err.value.line == 2

    def test_nonpositive_initial_value_names_its_line(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("group,a,b\n"
                        "initial,10,-5\n"
                        "9,11\n"
                        "11,9\n")
        message = "all initial group values must be strictly positive"
        with pytest.raises(DataError, match=message) as err:
            read_scenario_file(path)
        assert err.value.line == 2

    def test_wrong_cell_count_names_its_line(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("group,prob,a,b\n"
                        "initial,10,10\n"
                        "0.5,9,11,3\n"
                        "0.5,11,9\n")
        with pytest.raises(DataError) as err:
            read_scenario_file(path)
        assert err.value.line == 3

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("a,b\ninitial,10,10\n0.5,9,11\n")
        with pytest.raises(DataError) as err:
            read_scenario_file(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("text,line", [
        ("", 1),
        ("\n\ngroup,a,b\ninitial,10,10\n", 5),
        ("group,a,b\n\n\ninitial,10,10", 5),
        ("group,a,b\n", 2),
    ])
    def test_short_file_names_the_line_after_its_end(self, tmp_path, text, line):
        """Blank lines count: the missing row is reported after the last physical line."""
        path = tmp_path / "scen.csv"
        path.write_text(text)
        with pytest.raises(DataError, match="file needs a header") as err:
            read_scenario_file(path)
        assert err.value.line == line

    def test_identical_columns_name_the_header(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text("\ngroup,a,b\ninitial,10,10\n9,9\n11,11\n")
        with pytest.raises(DataError, match="all scenario columns are identical") as err:
            read_scenario_file(path)
        assert err.value.line == 2

    @pytest.mark.parametrize("newline", ("\n", "\r\n", "\r"))
    def test_lines_counted_across_line_endings(self, tmp_path, newline):
        path = tmp_path / "scen.csv"
        text = newline.join(["group,a,b", "initial,10,10", "", "9,11", "11,x", ""])
        path.write_bytes(text.encode())
        with pytest.raises(DataError, match="cannot parse scenario value 'x'") as err:
            read_scenario_file(path)
        assert err.value.line == 5

    def test_peak_memory_is_a_small_multiple_of_the_table(self, tmp_path):
        """One pass: the file's text is never held whole (N=100, K=2000, 3.9 MB)."""
        path = tmp_path / "scen.csv"
        write_scenarios(generate(GeneratorSpec(seed=4, n_groups=100, n_scenarios=2000)), path)
        tracemalloc.start()
        try:
            values = read_scenario_file(path).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3 * values.nbytes


FLAGS = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED")


def assert_same_read(path):
    """``read_scenario_file`` and the exact row loop give the same arrays, bit
    for bit and with the same flags, or the same error type, message and line."""
    def read(reader):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither path may print a warning
            try:
                return reader(path), None
            except Exception as exc:  # the error is the outcome under comparison
                return None, exc

    got, got_exc = read(read_scenario_file)
    want, want_exc = read(data._read_exactly)
    if want_exc is not None or got_exc is not None:
        assert type(got_exc) is type(want_exc)
        assert str(got_exc) == str(want_exc)
        assert getattr(got_exc, "line", None) == getattr(want_exc, "line", None)
        return
    assert got.group_ids == want.group_ids
    for name in ("initial_values", "values", "probabilities"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert [a.flags[f] for f in FLAGS] == [b.flags[f] for f in FLAGS], name


# Cells float() reads but numpy's reader does not, cells neither reads, and
# cells both read to a value a row check rejects.
ODD_CELLS = ("1_000", "\u0661\u0662", "nan", "-inf", "Infinity", "1e400", "0x10", "abc",
             "", " ", "1 2", "-0", "0", "-1")


@st.composite
def scenario_files(draw):
    """Scenario file text: ``%.17g`` cells with blanks around them, odd cells,
    rows of the wrong width, blank and whitespace-only lines, any line end,
    and files with and without the ``prob`` column."""
    n = draw(st.integers(2, 3))
    k = draw(st.integers(0, 4))
    has_prob = draw(st.booleans())
    value = st.floats(-1e6, 1e6, allow_nan=False).map(lambda x: "%.17g" % x)
    blank = st.sampled_from(("", " ", "\t", "\xa0"))

    def cell(clean):
        """``clean`` in most cells, else an odd one; blanks around either."""
        core = clean if draw(st.integers(0, 4)) else st.sampled_from(ODD_CELLS)
        return draw(blank) + draw(core) + draw(blank)

    # probabilities in the band, off it, and summing to 1 with a row not positive
    column = draw(st.sampled_from((["%.17g" % (1.0 / max(k, 1))] * k, ["0.7"] * k,
                                   ["1"] + ["0"] * k)))
    lines = ["group," + "prob," * has_prob + ",".join(f"g{i}" for i in range(n)),
             "initial," + ",".join(["10"] * n)]
    every_row_long = draw(st.integers(0, 9)) == 0  # a width off the header's
    for i in range(k):
        row = [cell(st.just(column[i]))] * has_prob + [cell(value) for _ in range(n)]
        if every_row_long:
            row.append("1")
        elif draw(st.integers(0, 9)) == 0:  # one cell short or long
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", "  ", "\t"))))
    newline = draw(st.sampled_from(("\n", "\r\n", "\r")))
    return newline.join(lines) + newline * draw(st.booleans())


class TestFastReader:
    @given(scenario_files())
    @settings(max_examples=300, deadline=None)
    def test_fast_reader_equals_the_row_loop(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scen.csv"
            path.write_bytes(text.encode())
            assert_same_read(path)

    @pytest.mark.parametrize("text", [
        "group,prob,a,b\ninitial,10,10\n0.5, 9 ,11\n0.5,11,9\n",
        "group,a,b\ninitial,10,10\n\n9,1_1\n11,9\n",
        "group,prob,a,b\ninitial,10,10\n0.7,9,11\n0.7,11,9\n",
        "group,prob,a,b\ninitial,10,10\n0,9,11\n1,11,9\n",
        "group,prob,a,b\ninitial,10,10\n-inf,0,0\nInfinity,0,0\n",
        "group,a,b\ninitial,10,10\n9,11\n9,11,12\n",
        "group,a,b,c\ninitial,10,10,10\n9,11\n9,11\n",
        "group,a,b\ninitial,10,10\n9,9\n11,11\n",
        "group,a,b\ninitial,10,10\n\n",
    ])
    def test_each_fallback_case(self, tmp_path, text):
        """A width off the header, a cell only float() reads, probabilities off
        the band, not positive or summing to NaN, identical columns, and no
        scenario rows."""
        path = tmp_path / "scen.csv"
        path.write_text(text)
        assert_same_read(path)

    def test_clean_files_take_the_fast_path(self, tmp_path, monkeypatch):
        """A silent fallback on a file the writer made, or on a clean file
        without probabilities, would fail here."""
        def no_fallback(path):
            raise AssertionError(f"{path} fell back to the row loop")

        monkeypatch.setattr(data, "_read_exactly", no_fallback)
        written = tmp_path / "written.csv"
        write_scenarios(generate(GeneratorSpec(seed=3, n_groups=6, n_scenarios=50)), written)
        assert read_scenario_file(written).n_scenarios == 50
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b"group,a,b\r\ninitial,10,10\r\n\r\n 9 ,11\r\n11,\t9\r\n")
        assert read_scenario_file(plain).values.tolist() == [[9.0, 11.0], [11.0, 9.0]]

    def test_writer_bytes_equal_per_cell_formatting(self, tmp_path):
        """One %-format per row writes what f"{x:.17g}" per cell wrote."""
        rng = np.random.default_rng(8)
        values = rng.normal(10.0, 3.0, (20, 4)) * 10.0 ** rng.integers(-300, 300, (20, 4))
        values[0, :3] = (-0.0, 5e-324, sys.float_info.max)
        probabilities = rng.uniform(0.1, 1.0, 20)
        probabilities /= probabilities.sum()
        matrix = ScenarioMatrix(initial_values=[1.0, 2.5, 1e-300, 7.0], values=values,
                                probabilities=probabilities)
        path = tmp_path / "scen.csv"
        write_scenarios(matrix, path)

        def cells(xs):
            return ",".join(f"{float(x):.17g}" for x in xs)

        expected = "group,prob,g1,g2,g3,g4\ninitial," + cells(matrix.initial_values) + "\n"
        expected += "".join(f"{float(p):.17g}," + cells(row) + "\n"
                            for p, row in zip(probabilities, values))
        assert path.read_bytes() == expected.encode()


class TestGenerator:
    def test_deterministic_per_seed(self):
        spec = GeneratorSpec(seed=9, n_groups=8, n_scenarios=100,
                             blocks=((4, 0.5), (4, 0.1)))
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.values, b.values)
        c = generate(GeneratorSpec(seed=10, n_groups=8, n_scenarios=100,
                                   blocks=((4, 0.5), (4, 0.1))))
        assert not np.array_equal(a.values, c.values)

    def test_block_correlation_ordering(self):
        spec = GeneratorSpec(seed=1, n_groups=10, n_scenarios=20_000,
                             blocks=((5, 0.8), (5, 0.0)))
        matrix = generate(spec)
        losses = matrix.initial_values[None, :] - matrix.values
        corr = np.corrcoef(losses.T)
        high = corr[:5, :5][np.triu_indices(5, 1)]
        low = corr[5:, 5:][np.triu_indices(5, 1)]
        assert high.mean() > 0.5
        assert abs(low.mean()) < 0.1

    def test_losses_positively_skewed(self):
        matrix = generate(GeneratorSpec(seed=2, n_groups=4, n_scenarios=50_000))
        losses = (matrix.initial_values[None, :] - matrix.values).sum(axis=1)
        centered = losses - losses.mean()
        skew = float((centered ** 3).mean() / (centered ** 2).mean() ** 1.5)
        assert skew > 0.5

    def test_overflowing_table_is_a_config_error(self):
        """Each option is finite and positive, but base / N * loss_scale overflows."""
        spec = GeneratorSpec(seed=1, n_groups=4, n_scenarios=50, loss_scale=10.0,
                             base_value=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="loss_scale 10.0 and base_value 1e[+]308"):
                generate(spec)

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(seed=0, n_groups=4, n_scenarios=10, blocks=((3, 0.5),))
        with pytest.raises(ConfigError):
            GeneratorSpec(seed=0, n_groups=4, n_scenarios=10, blocks=((4, 1.0),))
        with pytest.raises(ConfigError):
            GeneratorSpec(seed=0, n_groups=1, n_scenarios=10)

    @pytest.mark.parametrize("name, inputs", [
        ("block size", {"blocks": ((2.7, 0.3), (2.3, 0.3))}),
        ("block size", {"blocks": ((np.float64(2.0), 0.3), (2, 0.3))}),
        ("seed", {"seed": 1.5}),
        ("seed", {"seed": "1"}),
        ("n_groups", {"n_groups": 4.0, "blocks": ((2, 0.3), (2, 0.3))}),
        ("n_scenarios", {"n_scenarios": 10.5}),
        ("n_scenarios", {"n_scenarios": None}),
    ])
    def test_counts_must_be_integers(self, name, inputs):
        """A float count is neither truncated nor left to fail inside numpy."""
        spec = {"seed": 0, "n_groups": 4, "n_scenarios": 10, **inputs}
        with pytest.raises(ConfigError, match=f"^{name} must be an integer, got "):
            GeneratorSpec(**spec)

    @pytest.mark.parametrize("message, inputs", [
        ("tail must be a real number", {"tail": "0.5"}),
        ("loss_scale must be a real number", {"loss_scale": None}),
        ("base_value 10*0 is outside the float range", {"base_value": 10 ** 400}),
        ("block correlation must be a real number", {"blocks": ((2, "x"), (2, 0.3))}),
        ("block correlation must be a real number", {"blocks": ((4, None),)}),
        ("blocks must be \\(size, correlation\\) pairs", {"blocks": ((4,),)}),
        ("blocks must be \\(size, correlation\\) pairs", {"blocks": 4}),
    ])
    def test_malformed_reals_and_blocks_are_config_errors(self, message, inputs):
        """A library caller's string, None, out-of-range int or short block
        ends in a ConfigError, not a TypeError, ValueError or OverflowError."""
        spec = {"seed": 0, "n_groups": 4, "n_scenarios": 10, **inputs}
        with pytest.raises(ConfigError, match=f"^{message}"):
            GeneratorSpec(**spec)

    def test_numpy_integer_counts_are_integers(self):
        spec = GeneratorSpec(seed=np.int64(9), n_groups=np.int32(8), n_scenarios=np.uint16(100),
                             blocks=((np.int64(4), 0.5), (4, 0.1)))
        assert spec.blocks == ((4, 0.5), (4, 0.1))
        want = generate(GeneratorSpec(seed=9, n_groups=8, n_scenarios=100,
                                      blocks=((4, 0.5), (4, 0.1))))
        np.testing.assert_array_equal(generate(spec).values, want.values)

    @given(st.lists(st.tuples(st.integers(1, 6), st.floats(0.0, 0.99)), min_size=1, max_size=4),
           st.integers(1, 40), st.sampled_from((None, 1, 3)), st.integers(0, 2 ** 32 - 1),
           st.floats(0.05, 2.0), st.floats(0.01, 1.0))
    @example(blocks=[(2, 0.3)], k=1, chunk_rows=1, seed=0, tail=0.5, loss_scale=0.1)
    @example(blocks=[(3, 0.8), (1, 0.0), (2, 0.5)], k=7, chunk_rows=3, seed=42, tail=0.8,
             loss_scale=0.15)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_whole_array_reference(self, blocks, k, chunk_rows, seed, tail,
                                               loss_scale):
        """Bit for bit the reference's table, whatever the chunk: the default,
        or a chunk of 1 or 3 rows of the widest block (narrower blocks take
        more rows), with K = 1 and K not a multiple of the chunk drawn."""
        n = sum(size for size, _ in blocks)
        assume(n >= 2)
        spec = GeneratorSpec(seed=seed, n_groups=n, n_scenarios=k, blocks=tuple(blocks),
                             tail=tail, loss_scale=loss_scale)
        want = generate_reference(spec)
        with pytest.MonkeyPatch.context() as patch:
            if chunk_rows is not None:
                widest = max(size for size, _ in blocks)
                patch.setattr(data, "_CHUNK_BYTES", chunk_rows * widest * 8)
            got = generate(spec)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.values.flags.c_contiguous
        np.testing.assert_array_equal(got.initial_values, want.initial_values)
        np.testing.assert_array_equal(got.probabilities, want.probabilities)


class TestGeneratorMemory:
    """Peaks traced on a K=20,000, N=50 table (8 MB of values)."""

    @staticmethod
    def traced(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("blocks", (None, tuple((10, rho) for rho in
                                                    (0.8, 0.5, 0.2, 0.6, 0.0))))
    def test_generate_holds_one_table(self, blocks):
        """The table, plus a common-factor column (K floats), the
        probabilities and one chunk of rows: under four chunks besides the
        table.  Whole-array steps would hold several tables at once."""
        spec = GeneratorSpec(seed=1, n_groups=50, n_scenarios=20_000, blocks=blocks)
        generate(GeneratorSpec(seed=1, n_groups=2, n_scenarios=1))  # numpy.random's lazy import
        matrix, peak = self.traced(lambda: generate(spec))
        assert peak < matrix.values.nbytes + 4 * data._CHUNK_BYTES

    def test_write_scenarios_streams_rows(self, tmp_path):
        """One row's floats and text at a time: far below the table's bytes,
        where a list of all K x N floats would take four times them."""
        matrix = generate(GeneratorSpec(seed=1, n_groups=50, n_scenarios=20_000))
        path = tmp_path / "scen.csv"
        _, peak = self.traced(lambda: write_scenarios(matrix, path))
        assert peak < matrix.values.nbytes / 8
        np.testing.assert_array_equal(read_scenario_file(path).values, matrix.values)


class TestRunConfig:
    def write_scenario_file(self, tmp_path):
        matrix = random_matrix(np.random.default_rng(3), n=4, k=30)
        scen = tmp_path / "scen.csv"
        write_scenarios(matrix, scen)
        return scen

    def test_happy_path(self, tmp_path):
        scen = self.write_scenario_file(tmp_path)
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"scenarios = {scen}\n"
            "objective = min_risk   # steepest tail-risk descent\n"
            "mode = revenue_only\n"
            "policy = extremum\n"
            "fix_revenue = true\n"
            "beta = 0.9\n"
            "delta_c = 1e-3\n"
            "total_cost = 0.01\n"
            "returns = 0.02,0.03,0.04,0.05\n"
            "costs = 0.5\n"
            "output = path.csv\n")
        cfg = parse_run_config(cfg_path)
        assert cfg.continuation.objective is ObjectiveKind.MIN_RISK
        assert cfg.continuation.mode.variant is ConstraintVariant.REVENUE_ONLY
        assert isinstance(cfg.continuation.kappa_policy, ExtremumAutopilot)
        assert cfg.continuation.kappa_policy.fixed_revenue
        assert cfg.continuation.beta == 0.9
        np.testing.assert_allclose(cfg.returns, [0.02, 0.03, 0.04, 0.05])
        assert cfg.costs == 0.5
        assert cfg.output == "path.csv"

    def test_unknown_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("scenarios = x\nobjective = min_risk\nbeta = 0.9\n"
                            "delta_c = 1e-3\ntotal_cost = 0.01\nreturns = 0.02\n"
                            "bogus = 1\n")
        with pytest.raises(ConfigError, match="line 7: unknown key") as err:
            parse_run_config(cfg_path)
        assert err.value.line == 7

    @pytest.mark.parametrize("key,value,message", [
        ("delta_c", "abc", "delta_c: expected float"),
        ("max_steps", "1.5", "max_steps: expected int"),
        ("clamp", "maybe", "clamp: expected a boolean"),
        ("returns", "0.02,x", "returns: expected float"),
        ("costs", ",", "costs: expected a number"),
        ("objective", "nope", "unknown objective"),
        ("mode", "nope", "unknown constraint mode"),
        ("second", "nope", "unknown second-constraint meaning"),
        ("policy", "nope", "unknown kappa policy"),
        ("kappa1", "x", "kappa1: expected float"),
    ])
    def test_value_error_names_its_physical_line(self, tmp_path, key, value, message):
        """The bad key sits below a comment line and a blank line."""
        settings = {"scenarios": "x", "objective": "min_risk", "beta": "0.9",
                    "delta_c": "1e-3", "total_cost": "0.01", "returns": "0.02"}
        head = ("".join(f"{k} = {v}\n" for k, v in settings.items() if k != key)
                + "# the value under test\n\n")
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(head + f"{key} = {value}  # bad\n")
        with pytest.raises(ConfigError, match=message) as err:
            parse_run_config(cfg_path)
        line = head.count("\n") + 1
        assert err.value.line == line
        assert str(err.value).startswith(f"line {line}: ")

    @pytest.mark.parametrize("text,message", [
        ("scenarios = x\nobjective = min_risk\n", "missing required"),
        ("scenarios = x\nobjective = min_risk\nbeta = 0.9\ndelta_c = -1\n"
         "total_cost = 0.01\nreturns = 0.02\n", "delta_c must be positive"),
    ])
    def test_whole_config_errors_name_no_line(self, tmp_path, text, message):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(text)
        with pytest.raises(ConfigError, match=message) as err:
            parse_run_config(cfg_path)
        assert err.value.line is None

    def test_missing_required_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("scenarios = x\nobjective = min_risk\n")
        with pytest.raises(ConfigError, match="missing required"):
            parse_run_config(cfg_path)

    def test_duplicate_key_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("beta = 0.9\nbeta = 0.8\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_run_config(cfg_path)

    def test_bad_objective_rejected(self, tmp_path):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text("scenarios = x\nobjective = nope\nbeta = 0.9\n"
                            "delta_c = 1e-3\ntotal_cost = 0.01\nreturns = 0.02\n")
        with pytest.raises(ConfigError, match="unknown objective"):
            parse_run_config(cfg_path)


class TestPathTable:
    def test_path_file_columns_and_rows(self, tmp_path):
        matrix = random_matrix(np.random.default_rng(13), n=4, k=50)
        state = initial_state(matrix, 0.04)
        cfg = ContinuationConfig(objective=ObjectiveKind.MIN_RISK,
                                 mode=ConstraintMode(ConstraintVariant.REVENUE_ONLY),
                                 kappa_policy=FixedKappas(), beta=0.9,
                                 delta_c=1e-3, total_cost=0.01)
        result = run(matrix, state, cfg)
        out = tmp_path / "path.csv"
        write_path(result, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(PATH_COLUMNS)
        assert len(PATH_COLUMNS) == 13
        assert len(lines) == len(result.records) + 1
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[6]) == 1.0  # cvar_rel starts at 1
