"""Command-line interface: instance generation, solving, benchmark grids, sweeps.

Every solve is named by its tag in ``bench.SOLVERS``: ``solve --solver``
takes any tag (default ``sa``, the QESA loop on the classical-annealing
sampler) and the sweeps take a tag of ``bench.QESA_TAGS`` (default
``qesa_exact``). Exit codes: 0 success, 1 runtime failure
(solver/sampler/IO), 2 usage error. Schedule and sampler defaults
(t_max=1000, t_min=0.1, 100 steps, k0=0.1, alpha=0.95, 1000 sampler reads)
make a bare ``solve`` run the reference configuration.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import anneal, bench, ising, qp


def _int_at_least(text: str, lowest: int) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from exc
    if value < lowest:
        raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    return _int_at_least(text, 0)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from exc
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def _int_list(text: str, lowest: int) -> list[int]:
    """Parse '1,5,10' and '0-4' style lists of integers >= lowest."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if "-" in part[1:]:
            lo, hi = (_int_at_least(v, lowest) for v in part.split("-", 1))
            if hi < lo:
                raise argparse.ArgumentTypeError(f"range {part!r} runs backwards")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(_int_at_least(part, lowest))
    if not out:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return out


def _positive_int_list(text: str) -> list[int]:
    return _int_list(text, 1)


def _seed_list(text: str) -> list[int]:
    return _int_list(text, 0)


def _list(text: str, parse) -> list:
    out = [parse(p) for p in text.split(",") if p.strip()]
    if not out:
        raise argparse.ArgumentTypeError(f"empty list: {text!r}")
    return out


def _positive_float_list(text: str) -> list[float]:
    return _list(text, _positive_float)


def _probability(value) -> float:
    try:
        return anneal.DirectionPolicy(retain_probability=float(value)).retain_probability
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _probability_list(text: str) -> list[float]:
    return _list(text, _probability)


def _add_config_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", default=None, metavar="FILE",
        help="JSON file of flag values (long names, dashes or underscores); "
        "explicit command-line flags take precedence",
    )


def _expand_config(argv: list[str]) -> list[str]:
    """Splice flags from a --config file in before the command-line flags.

    Later occurrences win in argparse, so anything given explicitly on the
    command line overrides the file.
    """
    i = next(
        (k for k, tok in enumerate(argv) if tok == "--config" or tok.startswith("--config=")),
        None,
    )
    if i is None:
        return argv
    if argv[i] == "--config":
        if i + 1 >= len(argv):
            return argv  # let argparse report the missing value
        path = argv[i + 1]
        rest = argv[:i] + argv[i + 2 :]
    else:
        path = argv[i].split("=", 1)[1]
        rest = argv[:i] + argv[i + 1 :]
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: config must be a JSON object of flag values")
    extra: list[str] = []
    for key, value in doc.items():
        flag = "--" + str(key).replace("_", "-")
        if isinstance(value, bool):
            if value:
                extra.append(flag)
        elif isinstance(value, list):
            extra.extend([flag, ",".join(str(v) for v in value)])
        else:
            extra.extend([flag, str(value)])
    # keep the subcommand token first so argparse can dispatch
    return rest[:1] + extra + rest[1:]


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--t-max", type=_positive_float, default=1000.0)
    parser.add_argument("--t-min", type=_positive_float, default=0.1)
    parser.add_argument("--steps", type=_positive_int, default=100)
    parser.add_argument("--k0", type=_positive_float, default=0.1)
    parser.add_argument("--alpha", type=float, default=0.95)
    parser.add_argument(
        "--cooling", choices=anneal.COOLING_FORMS, default="exponential"
    )


def _add_sampler_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--num-samples", type=_positive_int, default=1000,
                        help="sampler reads per subproblem")
    parser.add_argument("--inner-sweeps", type=_positive_int, default=100,
                        help="classical sampler sweeps per read")
    parser.add_argument("--sampler-cmd", default=None,
                        help="external sampler command (overrides QESA_EXTERNAL_SAMPLER)")
    parser.add_argument("--sampler-timeout", type=_positive_float, default=60.0)


def _sampler_cfg_from(args) -> ising.SamplerConfig:
    return ising.SamplerConfig(
        num_samples=args.num_samples,
        inner_sweeps=args.inner_sweeps,
        command=args.sampler_cmd,
        timeout_s=args.sampler_timeout,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qesa",
        description="Annealing solver for box-constrained quadratic programs "
        "with Ising-sampler-guided search directions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a random instance file")
    p_gen.add_argument("-n", "--dim", type=_positive_int, required=True)
    p_gen.add_argument("--scale", type=_positive_float, default=1.0,
                       help="diagonal scale factor")
    p_gen.add_argument("--seed", type=_seed, default=0)
    p_gen.add_argument("-o", "--out", required=True)
    _add_config_flag(p_gen)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--solver", choices=bench.SOLVERS, default="sa",
                         help="a solver tag (default sa: the QESA loop on the "
                         "classical-annealing sampler)")
    p_solve.add_argument("--seed", type=_seed, default=0)
    p_solve.add_argument("--retain-p", type=_probability, default=None,
                         help="direction retention probability (enables perturbation; "
                         f"tags {', '.join(bench.QESA_TAGS)})")
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.add_argument("-o", "--out", default=None, help="also write report JSON here")
    _add_schedule_flags(p_solve)
    _add_sampler_flags(p_solve)
    _add_config_flag(p_solve)

    p_bench = sub.add_parser("bench", help="run a solver comparison grid")
    p_bench.add_argument("--dims", type=_positive_int_list, default=[12])
    p_bench.add_argument("--scales", type=_positive_float_list, default=[1.0, 5.0, 10.0, 20.0])
    p_bench.add_argument("--seeds", type=_seed_list, default=[0, 1, 2, 3, 4])
    p_bench.add_argument(
        "--solvers",
        default="qesa_exact,sa,random_search",
        help=f"comma list from: {','.join(sorted(bench.SOLVERS))}",
    )
    p_bench.add_argument("--jobs", type=_positive_int, default=1)
    p_bench.add_argument("--plot-data", action="store_true",
                         help="also emit plot-ready TSV tables")
    p_bench.add_argument("-o", "--out-dir", required=True)
    _add_schedule_flags(p_bench)
    _add_sampler_flags(p_bench)
    _add_config_flag(p_bench)

    # the two sweeps differ only in the default scale and the swept values
    for command, help_text, scale, param, values_flag, values_type, values in (
        ("sweep-steps", "step-count sweep", 20.0, "steps", "--steps-list",
         _positive_int_list, [5, 10, 20, 40, 60, 80, 100]),
        ("sweep-p", "direction retention probability sweep", 1.0, "p", "--p-list",
         _probability_list, [0.0, 0.25, 0.5, 0.75, 1.0]),
    ):
        p_sweep = sub.add_parser(command, help=help_text)
        p_sweep.set_defaults(param=param)
        p_sweep.add_argument("-n", "--dim", type=_positive_int, default=12)
        p_sweep.add_argument("--scale", type=_positive_float, default=scale)
        p_sweep.add_argument("--seeds", type=_seed_list, default=[0, 1, 2, 3, 4])
        p_sweep.add_argument(values_flag, dest="values", type=values_type, default=values)
        p_sweep.add_argument("--solver", choices=bench.QESA_TAGS, default="qesa_exact")
        p_sweep.add_argument("--base-seed", type=_seed, default=0)
        p_sweep.add_argument("-o", "--out-dir", required=True)
        _add_schedule_flags(p_sweep)
        _add_sampler_flags(p_sweep)
        _add_config_flag(p_sweep)

    return parser


def _cmd_generate(args) -> int:
    inst = qp.generate(args.dim, args.scale, args.seed)
    qp.save(inst, args.out)
    print(f"wrote {args.out} (n={inst.n}, diag_scale={args.scale}, seed={args.seed})")
    return 0


def _cmd_solve(args, parser) -> int:
    extra = {}
    if args.retain_p is not None:
        if args.solver not in bench.QESA_TAGS:
            parser.error(f"--retain-p applies to {', '.join(bench.QESA_TAGS)}, not {args.solver}")
        extra["retain_p"] = args.retain_p
    inst = qp.load(args.instance)
    solve = bench.SOLVERS[args.solver]
    report = solve(inst, args.schedule, args.seed, _sampler_cfg_from(args), **extra)

    fraction = bench.boundary_fraction(report)
    doc = report.to_json_dict()
    doc["boundary_fraction"] = fraction
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")
    if args.json:
        print(json.dumps(doc))
    else:
        print(f"best_f: {report.best_f!r}")
        print(f"boundary_fraction: {fraction:.4f}")
        print(f"accepted: {report.accepted_count}/{report.steps}")
        print(f"eval_count: {report.eval_count}")
        print(f"wall_time_s: {report.wall_time_s:.4f}")
        print(f"sampler_time_s: {report.sampler_time_s:.4f}")
    return 0


def _cmd_bench(args, parser) -> int:
    solvers = tuple(s.strip() for s in args.solvers.split(",") if s.strip())
    unknown = [s for s in solvers if s not in bench.SOLVERS]
    if unknown:
        parser.error(f"unknown solver tags: {', '.join(unknown)}")
    grid = bench.ExperimentGrid(
        dims=tuple(args.dims),
        diag_scales=tuple(args.scales),
        seeds=tuple(args.seeds),
        solvers=solvers,
        schedule=args.schedule,
        sampler_cfg=_sampler_cfg_from(args),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    out_csv = os.path.join(args.out_dir, "grid.csv")
    rows = bench.run_grid(grid, out_path=out_csv, jobs=args.jobs)
    if args.plot_data:
        bench.write_plot_tables(rows, args.out_dir)
    failures = sum(1 for r in rows if r["error"])
    print(f"wrote {out_csv} ({len(rows)} rows, {failures} failed cells)")
    return 0


def _cmd_sweep(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    out_csv = os.path.join(args.out_dir, f"sweep_{args.param}.csv")
    rows = bench.sweep(
        args.param,
        [qp.generate(args.dim, args.scale, seed) for seed in args.seeds],
        args.values,
        out_path=out_csv,
        schedule=args.schedule,
        solver=args.solver,
        sampler_cfg=_sampler_cfg_from(args),
        base_seed=args.base_seed,
    )
    medians = bench.median_table(rows, [args.param], ["best_f"])
    bench.write_csv(medians, (args.param, "best_f"),
                    os.path.join(args.out_dir, f"plot_by_{args.param}.tsv"), delimiter="\t")
    print(f"wrote {out_csv} ({len(rows)} rows)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        argv = _expand_config(list(argv))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # the file's content is a usage error
        parser.error(str(exc))  # exits with status 2
    args = parser.parse_args(argv)
    if args.command != "generate":
        try:
            args.schedule = anneal.ScheduleConfig(
                t_max=args.t_max, t_min=args.t_min, steps=args.steps,
                k0=args.k0, alpha=args.alpha, cooling=args.cooling,
            )
        except ValueError as exc:
            parser.error(str(exc))  # exits with status 2
    if getattr(args, "solver", None) == "qesa_external" and not (
        args.sampler_cmd or os.environ.get(ising.ENV_EXTERNAL_SAMPLER)
    ):
        parser.error(
            "the external sampler needs a command: set the "
            f"{ising.ENV_EXTERNAL_SAMPLER} environment variable or pass --sampler-cmd"
        )
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "solve":
            return _cmd_solve(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        return _cmd_sweep(args)
    except (anneal.SolveError, ising.SamplerError, qp.InstanceFormatError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
