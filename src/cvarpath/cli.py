"""Command-line surface: analyze, optimize, gen, convergence."""
from __future__ import annotations

import argparse
import errno
import os
import stat
import sys

import numpy as np

from .continuation import convergence_study, run
from .data import (GeneratorSpec, generate, parse_run_config, parse_vector,
                   read_scenario_file, write_path, write_scenarios)
from .errors import ConfigError, DataError, PortfolioError
from .risk import build_losses, check_costs, check_returns, initial_state, report

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _error_code(exc):
    if isinstance(exc, DataError):
        return "data"
    if isinstance(exc, ConfigError):
        return "config"
    return "domain"


def _build_parser():
    parser = argparse.ArgumentParser(prog="cvarpath",
                                     description="Scenario-based tail-risk portfolio "
                                                 "optimization by quadratic projection steps.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="print the risk report of a scenario file")
    analyze.add_argument("--scenarios", required=True)
    analyze.add_argument("--beta", type=float, required=True)
    analyze.add_argument("--returns", default="0.0",
                         help="scalar or comma-separated per-group returns")

    optimize = sub.add_parser("optimize", help="run a continuation per a run config")
    optimize.add_argument("--config", required=True)
    optimize.add_argument("--output", default=None, help="override the config output path")

    gen = sub.add_parser("gen", help="write a synthetic scenario file")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--groups", type=int, required=True)
    gen.add_argument("--scenarios", type=int, required=True)
    gen.add_argument("--rho", type=float, default=0.3, help="within-block correlation")
    gen.add_argument("--block-size", type=int, default=None,
                     help="groups per correlation block (default: one block)")
    gen.add_argument("--tail", type=float, default=0.5)
    gen.add_argument("--scale", type=float, default=0.1)
    gen.add_argument("--base", type=float, default=100.0)
    gen.add_argument("--out", required=True)

    conv = sub.add_parser("convergence", help="step-size convergence sweep")
    conv.add_argument("--config", required=True)
    conv.add_argument("--deltas", required=True,
                      help="comma-separated step sizes, descending")
    conv.add_argument("--total", type=float, default=None,
                      help="total cost (default: the config's total_cost)")
    return parser


def _initial_state(matrix, returns, costs=None):
    """The starting state.  A returns or costs value that the state would
    reject, a vector of the wrong length included, is a config error naming its key."""
    n = matrix.n_groups
    for key, value in (("returns", returns), ("costs", costs)):
        if np.ndim(value) and len(value) != n:
            raise ConfigError(f"{key} has {len(value)} entries, expected {n}")
    try:
        check_returns(np.atleast_1d(returns), float(matrix.initial_values.sum()), "returns")
        if costs is not None:
            check_costs(np.atleast_1d(costs), "costs")
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    return initial_state(matrix, returns, costs)


def _run_analyze(args):
    if not 0.0 <= args.beta < 1.0:  # as a run config's beta
        raise ConfigError(f"--beta must be in [0, 1), got {args.beta!r}")
    matrix = read_scenario_file(args.scenarios)
    state = _initial_state(matrix, parse_vector(args.returns, "--returns"))
    rep = report(build_losses(matrix), state, args.beta)
    print(f"beta={args.beta:.6g}")
    print(f"beta_star={rep.beta_star:.6g}")
    print(f"var={rep.var:.10g}")
    print(f"cvar={rep.cvar:.10g}")
    print(f"diversification_index={rep.diversification_index:.10g}")
    print(f"total_return={rep.total_return:.10g}")
    print(f"total_return_to_risk={rep.total_return_to_risk:.10g}")
    print("group,weight,contribution,dar,standalone_cvar,return_to_risk")
    for i, gid in enumerate(matrix.group_ids):
        print(f"{gid},{state.weights[i]:.10g},{rep.contributions[i]:.10g},"
              f"{rep.dar[i]:.10g},{rep.standalone_cvar[i]:.10g},"
              f"{rep.group_return_to_risk[i]:.10g}")
    return EXIT_OK


def _states_from_config(cfg):
    matrix = read_scenario_file(cfg.scenarios)
    return matrix, _initial_state(matrix, cfg.returns, cfg.costs)


def _check_output_dir(output):
    """Raise the ``OSError`` that opening ``output`` for writing would raise
    if its directory is missing or is not a directory, or if ``output`` is a
    directory itself, so a path is not run only to be lost at the write."""
    output = os.fspath(output)
    try:
        if not stat.S_ISDIR(os.stat(os.path.dirname(output) or os.curdir).st_mode):
            code = errno.ENOTDIR
        elif os.path.isdir(output):
            code = errno.EISDIR
        else:
            return
    except OSError as exc:
        code = exc.errno
    raise OSError(code, os.strerror(code), output)


def _run_optimize(args):
    cfg = parse_run_config(args.config)
    output = args.output or cfg.output
    if not output:
        raise ConfigError("no output path given (config 'output' or --output)")
    matrix, state = _states_from_config(cfg)
    _check_output_dir(output)
    result = run(matrix, state, cfg.continuation)
    write_path(result, output)
    terminal = result.terminal_record
    print(f"steps={terminal.step} c={terminal.c:.10g} reason={result.reason} "
          f"cvar_rel={terminal.cvar_rel:.10g}")
    return EXIT_OK


def _run_gen(args):
    if args.block_size is not None:
        if args.block_size < 1:
            raise ConfigError(f"block size must be at least 1, got {args.block_size}")
        if args.groups % args.block_size != 0:
            raise ConfigError("group count must be a multiple of the block size")
        blocks = tuple((args.block_size, args.rho)
                       for _ in range(args.groups // args.block_size))
    else:
        blocks = ((args.groups, args.rho),)
    spec = GeneratorSpec(seed=args.seed, n_groups=args.groups,
                         n_scenarios=args.scenarios, blocks=blocks,
                         tail=args.tail, loss_scale=args.scale, base_value=args.base)
    write_scenarios(generate(spec), args.out)
    print(f"wrote {args.out}: N={args.groups} K={args.scenarios} seed={args.seed}")
    return EXIT_OK


def _run_convergence(args):
    cfg = parse_run_config(args.config)
    deltas = sorted(np.atleast_1d(parse_vector(args.deltas, "--deltas")).tolist(), reverse=True)
    total = args.total if args.total is not None else cfg.continuation.total_cost
    matrix, state = _states_from_config(cfg)
    table = convergence_study(matrix, state, cfg.continuation, deltas, total)
    print("delta_c,terminal_cvar_rel,error,failed,reason")
    for row in table.rows:
        print(f"{row.delta_c:.6g},{row.terminal_cvar_rel:.10g},{row.error:.10g},"
              f"{row.failed},{row.reason}")
    print(f"slope={table.slope:.6g}")
    return EXIT_OK


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {"analyze": _run_analyze, "optimize": _run_optimize,
                "gen": _run_gen, "convergence": _run_convergence}
    try:
        return handlers[args.command](args)
    except PortfolioError as exc:
        print(f"error_code={_error_code(exc)} {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error_code=io {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except MemoryError as exc:  # say, a scenario count whose table cannot be allocated
        print(f"error_code=memory {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
