"""Scenario file round-tripping, synthetic scenario generation, run configs,
and the plottable path table."""
from __future__ import annotations

import math
import numbers
import operator
import os
import re
import stat
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .continuation import ContinuationConfig
from .errors import ConfigError, DataError, check_real, check_type
from .projection import (ConstraintMode, ConstraintVariant, ExtremumAutopilot, FixedKappas,
                         ObjectiveKind)
from .risk import ScenarioMatrix

_NORMALIZE_BAND = (0.999, 1.001)
# The lone surrogates that errors="surrogateescape" decodes bytes 0x80-0xff into
_UNDECODED = re.compile("[\udc80-\udcff]")
# The largest tail whose lognormal standard deviation, sqrt(exp(2 tail^2)), is finite.
_MAX_TAIL = math.sqrt(math.log(sys.float_info.max) / 2.0)
# `generate` draws and transforms its shocks about this many bytes of rows at a time.
_CHUNK_BYTES = 256 * 1024

PATH_COLUMNS = ("m", "c", "kappa1", "kappa2", "q", "Q", "cvar_rel", "return_rel",
                "revenue_rel", "di_rel", "re2ri_rel", "clamped_count", "rescale_factor")


def _fmt(x):
    return f"{float(x):.17g}"


def write_scenarios(matrix, path):
    """Serialize with 17 significant digits so a re-read is bit-identical.

    The rows are formatted one at a time, so no Python float is held for
    more than one row of the table.  The bytes depend only on the matrix:
    a `generate`d table writes the same file whatever chunk size filled it.
    """
    # "%.17g" % x gives the digits of f"{x:.17g}"; one format per row
    row_format = ",".join(["%.17g"] * (matrix.n_groups + 1)) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("group,prob," + ",".join(matrix.group_ids) + "\n")
        handle.write("initial," + ",".join(map(_fmt, matrix.initial_values)) + "\n")
        for p, row in zip(matrix.probabilities, matrix.values):
            handle.write(row_format % (p, *row.tolist()))


def _parse_float(token, line_no, what):
    try:
        return float(token)
    except ValueError:
        raise DataError(f"cannot parse {what} {token!r}", line=line_no) from None


def _lines(handle, need=0, comment=None, error=DataError):
    """(physical line number, stripped text) of each non-blank line of an open
    text file, read one line at a time and cut at ``comment``; lines end at \\n,
    \\r or \\r\\n.  Fewer than ``need`` such lines fail at the line after the end.

    The file is opened with ``errors="surrogateescape"``, so a byte that is not
    UTF-8 reads as a lone surrogate: a kept line holding one raises ``error``
    at that line, and one inside a cut comment is ignored with the comment.
    """
    number = 0
    for number, raw in enumerate(handle, start=1):
        text = (raw.split(comment, 1)[0] if comment else raw).strip()
        if text:
            # isascii() reads a flag of the string, so clean lines cost no scan
            undecoded = None if text.isascii() else _UNDECODED.search(text)
            if undecoded:
                raise error(f"byte 0x{ord(undecoded[0]) - 0xDC00:02x} is not valid UTF-8",
                            line=number)
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


def _scenario_matrix(table, header_no, group_ids, has_prob, initial, first_row_no=None):
    """The checked matrix of a (K, N) table of scenario rows, or (K, N+1) with a
    ``prob`` column.

    Without that column each row gets 1/K.  With it, a sum inside the
    normalisation band is normalised, and a sum outside it fails at
    ``first_row_no``.  Every other table check is ``ScenarioMatrix``'s, and its
    errors name the header's line.  The values are a view, so the table is never
    copied.
    """
    if has_prob:
        values, probabilities = table[:, 1:], table[:, 0].copy()
        # an overflowing sum, or the NaN of -inf + inf, is outside the band
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(probabilities.sum())
        if not _NORMALIZE_BAND[0] <= total <= _NORMALIZE_BAND[1]:
            raise DataError(f"probabilities sum to {total!r}, outside the "
                            f"normalization band {_NORMALIZE_BAND}", line=first_row_no)
        if abs(total - 1.0) > 1e-12:
            probabilities = probabilities / total
    elif len(table):
        values, probabilities = table, np.full(len(table), 1.0 / len(table))
    else:
        raise DataError("need at least 1 scenario row")
    try:
        return ScenarioMatrix(initial_values=initial, values=values,
                              probabilities=probabilities, group_ids=tuple(group_ids))
    except DataError as exc:
        raise DataError(str(exc), line=header_no) from None


def read_scenario_file(path):
    """The checked ``ScenarioMatrix`` of a scenario file; every rejection names
    its physical line.

    The scenario rows go through numpy's C text reader in the same pass as the
    header.  It strips each field and converts it with ``PyOS_string_to_double``,
    the routine ``float()`` ends in, but rejects ``_`` and non-ASCII digits: its
    grammar is a strict subset of ``float()``'s, and each value it returns is
    ``float()``'s bit for bit.  A file it cannot take, or whose table the
    matrix rejects, is read again by `_read_exactly`, which names the line at
    fault.  For a regular file numpy gets an upper bound on the rows
    (`_row_bound`), so it allocates the table once; a table that fills the
    bound is read again by `_read_exactly` too.
    """
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        _, header_no, group_ids, has_prob, initial = _scenario_head(handle)
        rows = _row_bound(path, handle, has_prob + len(group_ids))
        try:
            with warnings.catch_warnings():  # an empty remainder is the loop's error to report,
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                # and a blank line is not a row, as it was without max_rows
                warnings.filterwarnings("ignore", "Input line", UserWarning)
                table = np.loadtxt(handle, delimiter=",", comments=None, ndmin=2, max_rows=rows)
            if rows is None or len(table) < rows:  # one that fills the bound may have rows left
                return _scenario_matrix(table, header_no, group_ids, has_prob, initial)
        except (ValueError, DataError):
            pass
    return _read_exactly(path)


def _row_bound(path, handle, width):
    """An upper bound on the scenario rows of a regular file, so that numpy's
    reader allocates its table once rather than growing it; None for a pipe
    or other stream, which cannot be read twice.

    Each row but the last ends in \\n, \\r or \\r\\n (counted twice), and a row of
    ``width`` cells the reader takes holds at least 2 width - 1 bytes, which
    bounds a file of blank lines.
    """
    size = os.fstat(handle.fileno())
    if not stat.S_ISREG(size.st_mode):
        return None
    ends = 1
    buffer = bytearray(1 << 18)
    chunk = np.frombuffer(buffer, dtype=np.uint8)
    with open(path, "rb", buffering=0) as raw:
        while got := raw.readinto(buffer):
            ends += np.count_nonzero(chunk[:got] == 10) + np.count_nonzero(chunk[:got] == 13)
    return min(ends, size.st_size // (2 * width - 1) + 1)


def _read_exactly(path):
    """`read_scenario_file` by a loop over the rows with ``float()`` semantics:
    the fallback for what numpy's reader rejects, and the tests' reference."""
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
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
    return _scenario_matrix(table, header_no, group_ids, has_prob, initial, rows[0][0])


@dataclass(frozen=True)
class GeneratorSpec:
    """Synthetic correlated fat-tailed scenario generator parameters.

    ``blocks`` lists (size, correlation) pairs summing to ``n_groups``;
    ``tail`` controls the lognormal shape of the loss marginals (larger is
    heavier and more skewed).  Output is bit-identical per seed (PCG64), and
    does not depend on the row chunks `generate` fills the table in.
    """

    seed: int
    n_groups: int
    n_scenarios: int
    blocks: tuple = None   # ((size, rho), ...); default: one block, rho = 0.3
    tail: float = 0.5
    loss_scale: float = 0.1
    base_value: float = 100.0

    def __post_init__(self):
        blocks = self.blocks
        if blocks is None:
            blocks = ((self.n_groups, 0.3),)
        try:
            blocks = [(size, rho) for size, rho in blocks]
        except (TypeError, ValueError):
            raise ConfigError(f"blocks must be (size, correlation) pairs, "
                              f"got {self.blocks!r}") from None
        counts = [("seed", self.seed), ("n_groups", self.n_groups),
                  ("n_scenarios", self.n_scenarios)]
        counts += [("block size", size) for size, _ in blocks]
        check_type(numbers.Integral, "an integer", *counts)
        reals = [("tail", self.tail), ("loss_scale", self.loss_scale),
                 ("base_value", self.base_value)]
        reals += [("block correlation", rho) for _, rho in blocks]
        check_real(*reals, finite=False)
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
        blocks = tuple((operator.index(size), float(rho)) for size, rho in blocks)
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
    """Scenario matrix with block-correlated, positively skewed loss marginals.

    Each block draws its K common factors, then its K x size idiosyncratic
    shocks in row order, ``_CHUNK_BYTES`` of rows at a time: consecutive
    row-major draws take the PCG64 stream exactly as one (K, size) draw does.
    Each chunk is transformed in place and written into the one K x N table,
    so no other array of that size is formed and the values do not depend on
    the chunk size.
    """
    rng = np.random.default_rng(spec.seed)
    k, n = spec.n_scenarios, spec.n_groups
    tau = spec.tail
    mean_ln = math.exp(tau * tau / 2.0)
    sd_ln = math.sqrt((math.exp(tau * tau) - 1.0) * math.exp(tau * tau))
    base = np.full(n, spec.base_value / n)
    values = np.empty((k, n))
    first = 0
    try:  # the floating-point flags catch an overflow without another pass over the table
        with np.errstate(over="raise", invalid="raise"):
            scale = base * spec.loss_scale
            for size, rho in spec.blocks:
                cols = slice(first, first + size)
                first += size
                common = rng.standard_normal((k, 1))
                step = min(k, max(1, _CHUNK_BYTES // (8 * size)))
                chunk = np.empty((step, size))
                for start in range(0, k, step):
                    shocks = chunk[:k - start]
                    rows = slice(start, start + len(shocks))
                    rng.standard_normal(out=shocks)
                    shocks *= math.sqrt(1.0 - rho)
                    shocks += math.sqrt(rho) * common[rows]
                    shocks *= tau
                    np.exp(shocks, out=shocks)
                    shocks -= mean_ln
                    shocks /= sd_ln
                    shocks *= scale[cols]
                    np.subtract(base[cols], shocks, out=values[rows, cols])
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
    with open(path, encoding="utf-8-sig", errors="surrogateescape") as handle:
        for i, line in _lines(handle, comment="#", error=ConfigError):
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
