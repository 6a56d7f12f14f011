"""Scenario file round-tripping, synthetic scenario generation, run configs,
and the plottable path table."""
from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .continuation import ContinuationConfig, ExtremumAutopilot, FixedKappas
from .errors import ConfigError, DataError
from .projection import ConstraintMode, ConstraintVariant, ObjectiveKind
from .risk import ScenarioMatrix

_NORMALIZE_BAND = (0.999, 1.001)
# The largest tail whose lognormal standard deviation, sqrt(exp(2 tail^2)), is finite.
_MAX_TAIL = math.sqrt(math.log(sys.float_info.max) / 2.0)

PATH_COLUMNS = ("m", "c", "kappa1", "kappa2", "q", "Q", "cvar_rel", "return_rel",
                "revenue_rel", "di_rel", "re2ri_rel", "clamped_count", "rescale_factor")


def _fmt(x):
    return f"{float(x):.17g}"


@dataclass
class ScenarioFile:
    """A parsed scenario file plus its parse diagnostics."""

    path: str
    matrix: ScenarioMatrix
    n_rows: int
    n_groups: int
    has_probabilities: bool
    normalized: bool


def write_scenarios(matrix, path):
    """Serialize with 17 significant digits so a re-read is bit-identical."""
    # "%.17g" % x gives the digits of f"{x:.17g}"; one format per row
    row_format = ",".join(["%.17g"] * (matrix.n_groups + 1)) + "\n"
    with open(path, "w") as handle:
        handle.write("group,prob," + ",".join(matrix.group_ids) + "\n")
        handle.write("initial," + ",".join(map(_fmt, matrix.initial_values)) + "\n")
        for p, row in zip(matrix.probabilities.tolist(), matrix.values.tolist()):
            handle.write(row_format % (p, *row))


def _parse_float(token, line_no, what):
    try:
        return float(token)
    except ValueError:
        raise DataError(f"cannot parse {what} {token!r}", line=line_no) from None


def _lines(handle, need=0, comment=None):
    """(physical line number, stripped text) of each non-blank line of an open
    text file, read one line at a time and cut at ``comment``; lines end at \\n,
    \\r or \\r\\n.  Fewer than ``need`` such lines fail at the line after the end."""
    number = 0
    for number, raw in enumerate(handle, start=1):
        text = (raw.split(comment, 1)[0] if comment else raw).strip()
        if text:
            need -= 1
            yield number, text
    if need > 0:
        raise DataError("file needs a header, an initial row, and at least one scenario row",
                        line=number + 1)


def _scenario_head(handle):
    """The header and the initial row of an open scenario file.

    Returns the line iterator, left at the first scenario row, the header's
    line number, the group ids, whether the file has a ``prob`` column, and
    the initial values.
    """
    lines = _lines(handle, need=3)
    header_no, header = next(lines)
    cells = [c.strip() for c in header.split(",")]
    if cells[0] != "group":
        raise DataError("header must start with 'group'", line=header_no)
    has_prob = len(cells) > 1 and cells[1] == "prob"
    group_ids = cells[2:] if has_prob else cells[1:]
    n = len(group_ids)
    if n < 2:
        raise DataError("need at least 2 group columns", line=header_no)

    init_no, init_line = next(lines)
    init_cells = [c.strip() for c in init_line.split(",")]
    if init_cells[0] != "initial":
        raise DataError("second row must start with 'initial'", line=init_no)
    if len(init_cells) != n + 1:
        raise DataError(f"initial row has {len(init_cells) - 1} values, expected {n}",
                        line=init_no)
    initial = np.array([_parse_float(c, init_no, "initial value") for c in init_cells[1:]])
    if not np.all(np.isfinite(initial)):
        raise DataError("initial values must all be finite", line=init_no)
    if np.any(initial <= 0.0):
        raise DataError("all initial group values must be strictly positive", line=init_no)
    return lines, header_no, group_ids, has_prob, initial


def _in_band(total):
    return _NORMALIZE_BAND[0] <= total <= _NORMALIZE_BAND[1]


def _columns(table, has_prob):
    """(values, probabilities) of a table of scenario rows.  The values are a
    view, so the table is never copied; probabilities are None without a
    ``prob`` column."""
    if not has_prob:
        return table, None
    return table[:, 1:], table[:, 0].copy()


def _scenario_file(path, header_no, group_ids, initial, values, probabilities):
    """The parsed file from checked rows.  ``probabilities`` is None for a file
    without a ``prob`` column; a sum off 1 inside the band is normalised here."""
    k = len(values)
    has_prob = probabilities is not None
    normalized = False
    if has_prob:
        total = float(probabilities.sum())
        normalized = abs(total - 1.0) > 1e-12
        if normalized:
            probabilities = probabilities / total
    else:
        probabilities = np.full(k, 1.0 / k)
    try:
        matrix = ScenarioMatrix(initial_values=initial, values=values,
                                probabilities=probabilities, group_ids=tuple(group_ids))
    except DataError as exc:
        raise DataError(str(exc), line=header_no) from None
    return ScenarioFile(path=str(path), matrix=matrix, n_rows=k, n_groups=len(group_ids),
                        has_probabilities=has_prob, normalized=normalized)


def _table_rows(handle, has_prob, n):
    """(values, probabilities) of the rest of ``handle`` by numpy's C text
    reader, or None if any row needs the exact loop of `_read_exactly`.

    The reader strips each field and converts it with ``PyOS_string_to_double``,
    the routine ``float()`` ends in, but rejects ``_`` and non-ASCII digits:
    its grammar is a strict subset of ``float()``'s, and each value it returns
    is ``float()``'s bit for bit.  None also covers every row check that
    `_read_exactly` would fail, since only that loop knows each row's line.
    """
    try:
        with warnings.catch_warnings():  # an empty remainder is the loop's error to report
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    # min and max propagate NaN
    if (not len(table) or table.shape[1] != has_prob + n
            or not (np.isfinite(table.min()) and np.isfinite(table.max()))):
        return None
    values, probabilities = _columns(table, has_prob)
    if has_prob and not ((probabilities > 0.0).all()
                         and _in_band(float(probabilities.sum()))):
        return None
    return values, probabilities


def read_scenario_file(path):
    """Parse a scenario file; every rejection names its physical line.

    The scenario rows go through numpy's C text reader (`_table_rows`) in the
    same pass as the header.  A file it cannot take whole is read again by
    `_read_exactly`, whose ``float()`` loop raises every row error and names
    its line.
    """
    with open(path) as handle:
        _, header_no, group_ids, has_prob, initial = _scenario_head(handle)
        rows = _table_rows(handle, has_prob, len(group_ids))
    if rows is None:
        return _read_exactly(path)
    return _scenario_file(path, header_no, group_ids, initial, *rows)


def _read_exactly(path):
    """`read_scenario_file` by a loop over the rows with ``float()`` semantics:
    the fallback for what numpy's reader rejects, and the tests' reference."""
    with open(path) as handle:
        lines, header_no, group_ids, has_prob, initial = _scenario_head(handle)
        kinds = ["probability"] * has_prob + ["scenario value"] * len(group_ids)
        rows = []  # (physical line number, the row's cells as floats)
        for line_no, line in lines:
            cells = [c.strip() for c in line.split(",")]
            if len(cells) != len(kinds):
                raise DataError(f"scenario row has {len(cells)} cells, expected {len(kinds)}",
                                line=line_no)
            if "" in cells:
                raise DataError(f"scenario row has {len(cells)} cells, "
                                f"cell {cells.index('') + 1} is empty", line=line_no)
            try:
                # One conversion per row: a float object per cell would fragment
                # the heap on wide files.
                row = np.array(cells, dtype=float)
            except ValueError:
                row = [_parse_float(c, line_no, kind) for c, kind in zip(cells, kinds)]
            if has_prob and row[0] <= 0.0:
                raise DataError(f"nonpositive probability {float(row[0])!r}", line=line_no)
            rows.append((line_no, row))
    table = np.array([row for _, row in rows], dtype=float)
    # checked once after the hot loop above; min and max propagate NaN
    bad = ~(np.isfinite(table.min(axis=1)) & np.isfinite(table.max(axis=1)))
    if bad.any():
        raise DataError("scenario cells must all be finite", line=rows[int(np.argmax(bad))][0])
    values, probabilities = _columns(table, has_prob)
    if has_prob and not _in_band(float(probabilities.sum())):
        raise DataError(f"probabilities sum to {float(probabilities.sum())!r}, outside the "
                        f"normalization band {_NORMALIZE_BAND}", line=rows[0][0])
    return _scenario_file(path, header_no, group_ids, initial, values, probabilities)


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic correlated fat-tailed scenario generator parameters.

    ``blocks`` lists (size, correlation) pairs summing to ``n_groups``;
    ``tail`` controls the lognormal shape of the loss marginals (larger is
    heavier and more skewed).  Output is bit-identical per seed (PCG64).
    """

    seed: int
    n_groups: int
    n_scenarios: int
    blocks: tuple = None   # ((size, rho), ...); default: one block, rho = 0.3
    tail: float = 0.5
    loss_scale: float = 0.1
    base_value: float = 100.0

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.n_groups < 2:
            raise ConfigError("need at least 2 groups")
        if self.n_scenarios < 1:
            raise ConfigError("need at least 1 scenario")
        if not 0.0 < self.tail <= _MAX_TAIL:
            raise ConfigError(f"tail parameter must be in (0, {_MAX_TAIL:.4g}], got {self.tail!r}")
        for name in ("loss_scale", "base_value"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ConfigError(f"{name} must be finite and positive, got {value!r}")
        blocks = self.blocks
        if blocks is None:
            blocks = ((self.n_groups, 0.3),)
        blocks = tuple((int(size), float(rho)) for size, rho in blocks)
        if sum(size for size, _ in blocks) != self.n_groups:
            raise ConfigError("block sizes must sum to the group count")
        for size, rho in blocks:
            if size < 1:
                raise ConfigError("block sizes must be positive")
            if not 0.0 <= rho < 1.0:
                raise ConfigError(f"block correlation {rho!r} outside [0, 1) "
                                  "(equicorrelation block not positive semidefinite)")
        object.__setattr__(self, "blocks", blocks)


def generate(spec):
    """Scenario matrix with block-correlated, positively skewed loss marginals."""
    rng = np.random.default_rng(spec.seed)
    k = spec.n_scenarios
    tau = spec.tail
    mean_ln = math.exp(tau * tau / 2.0)
    sd_ln = math.sqrt((math.exp(tau * tau) - 1.0) * math.exp(tau * tau))
    columns = []
    for size, rho in spec.blocks:
        common = rng.standard_normal((k, 1))
        idio = rng.standard_normal((k, size))
        shocks = math.sqrt(rho) * common + math.sqrt(1.0 - rho) * idio
        columns.append((np.exp(tau * shocks) - mean_ln) / sd_ln)
    standardized = np.hstack(columns)
    n = spec.n_groups
    base = np.full(n, spec.base_value / n)
    try:  # the floating-point flags catch an overflow without another pass over the table
        with np.errstate(over="raise", invalid="raise"):
            values = base[None, :] - base[None, :] * spec.loss_scale * standardized
    except FloatingPointError:
        raise ConfigError(f"loss_scale {spec.loss_scale!r} and base_value {spec.base_value!r} "
                          "give non-finite scenario values") from None
    probabilities = np.full(k, 1.0 / k)
    return ScenarioMatrix(initial_values=base, values=values, probabilities=probabilities)


@dataclass(frozen=True)
class RunConfig:
    """A flat key=value run file resolved into continuation inputs."""

    scenarios: str
    continuation: ContinuationConfig
    returns: object       # scalar or per-group vector
    costs: object         # scalar or per-group vector
    output: str = None


_OBJECTIVES = {o.value: o for o in ObjectiveKind}
_VARIANTS = {v.value: v for v in ConstraintVariant}
_POLICIES = {"fixed": FixedKappas, "extremum": ExtremumAutopilot}
_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

_KNOWN_KEYS = {"scenarios", "objective", "mode", "second", "policy", "kappa1", "kappa2",
               "fix_revenue", "fix_second", "beta", "delta_c", "total_cost", "max_steps",
               "clamp", "fixed_total_risk", "steady_tol", "steady_window",
               "returns", "costs", "output"}
_REQUIRED_KEYS = ("scenarios", "objective", "beta", "delta_c", "total_cost", "returns")


def _parse_bool(value, key):
    try:
        return _BOOL[value.lower()]
    except KeyError:
        raise ConfigError(f"{key}: expected a boolean, got {value!r}") from None


def _parse_number(value, key, kind=float):
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}") from None


def parse_vector(value, key):
    """A scalar, or a vector from comma-separated values."""
    parts = [_parse_number(p, key) for p in value.split(",") if p.strip()]
    if not parts:
        raise ConfigError(f"{key}: expected a number or a comma-separated list")
    return parts[0] if len(parts) == 1 else np.array(parts)


def _parse_choice(value, key, table, what):
    if value not in table:
        raise ConfigError(f"unknown {what} {value!r}")
    return table[value]


def parse_run_config(path):
    pairs = {}
    with open(path) as handle:
        for i, line in _lines(handle, comment="#"):
            if "=" not in line:
                raise ConfigError(f"expected key=value, got {line!r}", line=i)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _KNOWN_KEYS:
                raise ConfigError(f"unknown key {key!r}", line=i)
            if key in pairs:
                raise ConfigError(f"duplicate key {key!r}", line=i)
            pairs[key] = value, i
    missing = [k for k in _REQUIRED_KEYS if k not in pairs]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    def parsed(key, parse, default=None, *args):
        """``parse(value, key, *args)`` of a key's value; a failure names the key's line."""
        value, line = pairs.get(key, (default, None))
        try:
            return parse(value, key, *args)
        except ConfigError as exc:
            raise ConfigError(str(exc), line=line) from None

    objective = parsed("objective", _parse_choice, None, _OBJECTIVES, "objective")
    variant = parsed("mode", _parse_choice, "none", _VARIANTS, "constraint mode")
    mode = parsed("second", lambda value, _: ConstraintMode(variant=variant,
                                                            second_meaning=value), "return")
    if parsed("policy", _parse_choice, "fixed", _POLICIES, "kappa policy") is FixedKappas:
        policy = FixedKappas(kappa1=parsed("kappa1", _parse_number, "0"),
                             kappa2=parsed("kappa2", _parse_number, "0"))
    else:
        policy = ExtremumAutopilot(fixed_revenue=parsed("fix_revenue", _parse_bool, "false"),
                                   fixed_second=parsed("fix_second", _parse_bool, "false"))

    continuation = ContinuationConfig(
        objective=objective, mode=mode, kappa_policy=policy,
        beta=parsed("beta", _parse_number),
        delta_c=parsed("delta_c", _parse_number),
        total_cost=parsed("total_cost", _parse_number),
        max_steps=(parsed("max_steps", _parse_number, None, int)
                   if "max_steps" in pairs else None),
        clamp_nonnegative=parsed("clamp", _parse_bool, "true"),
        fixed_total_risk=parsed("fixed_total_risk", _parse_bool, "false"),
        steady_state_tol=parsed("steady_tol", _parse_number, "1e-12"),
        steady_state_window=parsed("steady_window", _parse_number, "50", int))
    return RunConfig(scenarios=pairs["scenarios"][0], continuation=continuation,
                     returns=parsed("returns", parse_vector),
                     costs=parsed("costs", parse_vector, "1.0"),
                     output=pairs.get("output", (None,))[0])


def write_path(result, path):
    """One plottable row per continuation step (13 fixed columns)."""
    lines = [",".join(PATH_COLUMNS)]
    for rec in result.records:
        lines.append(",".join([
            str(rec.step), _fmt(rec.c), _fmt(rec.kappa1), _fmt(rec.kappa2),
            _fmt(rec.q), _fmt(rec.Q), _fmt(rec.cvar_rel), _fmt(rec.return_rel),
            _fmt(rec.revenue_rel), _fmt(rec.di_rel), _fmt(rec.re2ri_rel),
            str(rec.frozen_count), _fmt(rec.rescale_factor)]))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
