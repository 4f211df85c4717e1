"""Command-line interface.

Exit status: 0 on success, 1 on any error, 2 on selftest failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import conditioning, experiment, io_text, sensing, theory_bounds
from .io_text import format_float, parse_list
from .recovery import RecoveryConfig, recover
from .tensor_core import reconstruct


def _print_fields(fields: dict, report_path=None) -> None:
    """Print one ``name=value`` line per field, floats through `format_float`
    and other values through `str`; write the same text to ``report_path``
    when it is given."""
    text = "\n".join(f"{name}={format_float(v) if isinstance(v, float) else v}"
                     for name, v in fields.items())
    if report_path:
        with open(report_path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_gen(args) -> int:
    model = conditioning.generate_conditioned_model(
        args.dims, args.rank, args.kappa, args.seed)
    io_text.write_cpmodel(args.out, model)
    print(f"wrote {args.out}")
    return 0


def _cmd_kappa(args) -> int:
    report = conditioning.kappa(io_text.read_cpmodel(args.model))
    bound = report.cond_product_bound
    _print_fields({"status": report.status, "kappa": report.kappa,
                   "sigma_max_product": report.sigma_max_product,
                   "sigma_min_kr": report.sigma_min_kr,
                   "cond_product_bound": "unavailable" if bound is None else bound})
    return 0


def _cmd_sense(args) -> int:
    model = io_text.read_cpmodel(args.model)
    op = sensing.create_operator(args.m, model.shape, args.dist, args.alpha,
                                 args.seed)
    io_text.write_measurements(args.out, sensing.apply(op, reconstruct(model)))
    print(f"wrote {args.out}")
    return 0


def _cmd_recover(args) -> int:
    y = io_text.read_measurements(args.y)
    op = sensing.create_operator(args.m, args.shape, args.dist, args.alpha,
                                 args.op_seed)
    config = RecoveryConfig(rank=args.rank, max_iters=args.max_iters,
                            restarts=args.restarts, seed=args.seed)
    truth = io_text.read_tensor(args.truth) if args.truth else None
    report = recover(op, y, config, ground_truth=truth)
    io_text.write_cpmodel(args.out, report.model)
    fields = {"objective": report.objective, "iterations": report.iterations,
              "status": report.status, "restart_index": report.restart_index,
              "stage_index": report.stage_index}
    if report.mse is not None:
        fields["mse"] = report.mse
    fields["trace"] = ",".join(format_float(v) for v in report.objective_trace)
    _print_fields(fields, args.report)
    return 0


def _cmd_bound(args) -> int:
    inputs = theory_bounds.BoundInputs(dims=args.dims, rank=args.rank,
                                       tau=args.tau, eta=args.eta,
                                       alpha=args.alpha, c=args.C,
                                       delta=args.delta)
    t1 = theory_bounds.theorem1_measurement_bound(inputs)
    fields = {"theorem1_bound": t1, "theorem1_suggested_m": math.ceil(t1)}
    if args.delta is not None:
        p2 = theory_bounds.prop2_measurement_bound(inputs)
        fields.update(prop2_bound=p2, prop2_suggested_m=math.ceil(p2))
    _print_fields(fields)
    return 0


def _cmd_cover(args) -> int:
    value = theory_bounds.covering_log_cardinality(args.dims, args.rank,
                                                   args.tau, args.eps)
    _print_fields({"covering_log_cardinality": value})
    return 0


def _cmd_rip_probe(args) -> int:
    op = sensing.create_operator(args.m, args.dims, args.dist, args.alpha,
                                 args.op_seed)
    result = theory_bounds.rip_probe(op, args.rank, args.kappa, args.samples,
                                     args.seed)
    _print_fields({"samples": result.samples, "mean_ratio": result.mean_ratio,
                   "min_ratio": result.min_ratio, "max_ratio": result.max_ratio,
                   "delta_hat": result.delta_hat})
    return 0


def _print_progress(row) -> None:
    print(f"kappa_tilde={format_float(row.kappa_tilde)} trial={row.trial_index} "
          f"success={'true' if row.success else 'false'} "
          f"mse={format_float(row.mse)} seconds={row.wall_time_seconds:.3f}",
          file=sys.stderr)


def _check_output_directory(flag: str, path: str) -> None:
    """Reject an output path in a directory that does not exist, so that a
    sweep fails before its first trial rather than after its last."""
    directory = os.path.dirname(path)
    if directory and not os.path.isdir(directory):
        raise FileNotFoundError(
            f"{flag} {path}: directory {directory} does not exist")


def _cmd_experiment(args) -> int:
    config = experiment.load_config(args.config)
    _check_output_directory("--out", args.out)
    if args.plot_script:
        _check_output_directory("--plot-script", args.plot_script)
    rows, summary = experiment.run_experiment(config, _print_progress)
    rows_path, summary_path = experiment.write_csv(rows, summary, args.out)
    for s in summary:
        print(f"kappa_tilde={format_float(s.kappa_tilde)} m={s.m} "
              f"successes={s.success_count}/{s.trials}")
    print(f"wrote {rows_path} and {summary_path}")
    if args.plot_script:
        experiment.emit_plot_script(summary_path, args.plot_script)
        print(f"wrote {args.plot_script}")
    return 0


def _cmd_selftest(args) -> int:
    results = experiment.selftest()
    failed = False
    for name, ok in results.items():
        print(f"{name}: {'pass' if ok else 'FAIL'}")
        failed = failed or not ok
    return 2 if failed else 0


def _add_operator_flags(p) -> None:
    """The measurement count M, entry variance scale and entry distribution."""
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--dist", choices=sensing.DISTRIBUTIONS,
                   default=sensing.GAUSSIAN)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpsense",
        description="Low-CP-rank tensor compression and recovery toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a conditioned CP model")
    p.add_argument("--dims", type=parse_list, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("kappa", help="condition number of a CP model file")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("sense", help="compress a CP model file")
    p.add_argument("--model", required=True)
    _add_operator_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sense)

    p = sub.add_parser("recover", help="recover a CP model from measurements")
    p.add_argument("--y", required=True)
    p.add_argument("--op-seed", type=int, required=True)
    _add_operator_flags(p)
    p.add_argument("--shape", type=parse_list, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--restarts", type=int, default=RecoveryConfig.restarts)
    p.add_argument("--max-iters", type=int, default=RecoveryConfig.max_iters)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--truth", default=None,
                   help="optional ground-truth tensor file for MSE")
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("bound", help="measurement-count bound calculators")
    p.add_argument("--dims", type=parse_list, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.01)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--C", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=None)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("cover", help="log covering-number bound")
    p.add_argument("--dims", type=parse_list, required=True)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("rip-probe", help="empirical isometry probe")
    p.add_argument("--dims", type=parse_list, required=True)
    p.add_argument("--rank", type=int, required=True)
    _add_operator_flags(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--op-seed", type=int, default=0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_rip_probe)

    p = sub.add_parser("experiment", help="run a Monte-Carlo sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output CSV path prefix")
    p.add_argument("--plot-script", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("selftest", help="fast invariant checks")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # CLI boundary: report, do not traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
