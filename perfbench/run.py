"""Benchmark for cpsense: the paper's Fig. 1 recovery trials and the isometry probe.

Run from the repository root:

    python3 perfbench/run.py --workload fig1-easy --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` next to this directory, never from an
installed copy.  Each workload is a fixed list of operations (``--seed``
sets the probe's inputs and the order of the recovery trials), run whole and
in order, pass after pass, for as many whole passes as fit in ``--seconds``
(at least one).  Every operation's outputs are checked against plain numpy
oracles (``checks.py``) outside the timed part.  With ``--trace 0`` the last
line of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` half the budget runs untraced and half traced (``spans.py``),
and the JSON object holds the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import checks
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"

# Fig. 1 protocol, as the sweep harness derives it (README "Randomness"):
# trial_seed = mix(mix(base_seed, grid_index), trial_index), then one stream
# per tag for the planted model, the operator and the solver restarts.
FIG1_GRID = (1.0, 10.0, 100.0, 1000.0)
FIG1_BASE_SEED = 1
MODEL_STREAM, OP_STREAM, SOLVER_STREAM = 0xA7, 0x5E, 0xC3
PROBE_STREAM = 0x9B
ALPHA = 1.0
M_FACTOR = 1.5
SUCCESS_MSE = 1e-10
# criterion 1's threshold: at kappa_tilde = 1 nearly every trial recovers
KAPPA_ONE_MIN_SHARE = 0.9

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("recovery.recovered", "count"),
    ("recovery.lm_steps", "count"),
    ("recovery.damping_tries", "count"),
    ("recovery.step_accept_ratio", "ratio"),
    ("recovery.stage_runs", "count"),
    ("recovery.report_iterations", "count"),
    ("recovery.jacobian_us", "us"),
    ("recovery.jacobian_share", "ratio"),
    ("recovery.objective_us", "us"),
    ("recovery.solve_us", "us"),
    ("recovery.als_ms", "ms"),
    ("recovery.als_share", "ratio"),
    ("recovery.lm_self_share", "ratio"),
    ("tensor_core.cpmodel_builds", "count"),
    ("tensor_core.khatri_rao_chain_us", "us"),
    ("tensor_core.reconstruct_us", "us"),
    ("sensing.create_operator_ms", "ms"),
    ("sensing.apply_us", "us"),
    ("sensing.adjoint_apply_us", "us"),
    ("sensing.operator_mb", "MB"),
    ("conditioning.generate_model_us", "us"),
    ("conditioning.kappa_ms", "ms"),
    ("theory_bounds.rip_probe_sample_us", "us"),
    ("trace.overhead", "ratio"),
)


@dataclass(frozen=True)
class Scale:
    """Sizes of every workload; ``TINY`` exists for the smoke test only."""

    dims: tuple[int, ...]
    rank: int
    easy_trials: int
    hard_trials: int
    max_iters: int
    restarts: int
    probe_dims: tuple[int, ...]
    probe_rank: int
    probe_kappa: float
    probe_samples: int
    probe_ops: int
    probe_kappa_models: int
    setup_repeats: int  # set-up samples before, and again after, the passes

    @property
    def m(self) -> int:
        return math.ceil(M_FACTOR * sum(self.dims) * self.rank)

    @property
    def probe_m(self) -> int:
        return math.ceil(M_FACTOR * sum(self.probe_dims) * self.probe_rank)


FULL = Scale(dims=(8, 8, 8), rank=3, easy_trials=6, hard_trials=1,
             max_iters=500, restarts=5, probe_dims=(20, 20, 20), probe_rank=3,
             probe_kappa=10.0, probe_samples=100, probe_ops=8,
             probe_kappa_models=4, setup_repeats=4)
TINY = Scale(dims=(4, 4, 4), rank=2, easy_trials=1, hard_trials=1,
             max_iters=100, restarts=5, probe_dims=(6, 6, 6), probe_rank=2,
             probe_kappa=10.0, probe_samples=20, probe_ops=2,
             probe_kappa_models=2, setup_repeats=1)


@dataclass(frozen=True)
class Trial:
    kappa: float
    seed: int


@dataclass(frozen=True)
class ProbeItem:
    op_seed: int
    sample_seed: int


@dataclass
class Record:
    """One attempted operation."""

    position: int
    seconds: float
    failed: bool = False
    failures: list[str] = field(default_factory=list)
    kappa: float | None = None
    recovered: bool | None = None
    iterations: int = 0
    samples: int = 0
    operator_mb: float = 0.0


def load_cpsense():
    """Import cpsense from this checkout's src/, or exit with a message."""
    if not (SRC / "cpsense" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package at {SRC / 'cpsense'}")
    sys.path.insert(0, str(SRC))
    import cpsense
    from cpsense import conditioning, recovery, seeding, sensing, tensor_core, theory_bounds
    if Path(cpsense.__file__).resolve().parent != SRC / "cpsense":
        sys.exit(f"perfbench: imported cpsense from {cpsense.__file__}, not {SRC}")
    return SimpleNamespace(conditioning=conditioning, recovery=recovery,
                           mix=seeding.mix, sensing=sensing,
                           tensor_core=tensor_core, theory_bounds=theory_bounds)


# -- workloads ----------------------------------------------------------------

def fig1_items(cp, kappas, trials: int, seed: int) -> list[Trial]:
    """Fixed Fig. 1 trials; --seed only sets the order they run in."""
    items = [Trial(k, cp.mix(cp.mix(FIG1_BASE_SEED, FIG1_GRID.index(k)), t))
             for k in kappas for t in range(trials)]
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def probe_items(cp, scale: Scale, seed: int) -> list[ProbeItem]:
    base = cp.mix(seed, PROBE_STREAM)
    return [ProbeItem(cp.mix(base, 2 * i), cp.mix(base, 2 * i + 1))
            for i in range(scale.probe_ops)]


def fig1_op(cp, scale: Scale, trial: Trial):
    model = cp.conditioning.generate_conditioned_model(
        scale.dims, scale.rank, trial.kappa, cp.mix(trial.seed, MODEL_STREAM))
    truth = cp.tensor_core.reconstruct(model)
    op = cp.sensing.create_operator(scale.m, scale.dims, "gaussian", ALPHA,
                                    cp.mix(trial.seed, OP_STREAM))
    y = cp.sensing.apply(op, truth)
    config = cp.recovery.RecoveryConfig(
        rank=scale.rank, max_iters=scale.max_iters, restarts=scale.restarts,
        seed=cp.mix(trial.seed, SOLVER_STREAM))
    report = cp.recovery.recover(op, y, config, ground_truth=truth)
    return model, op, y, report


def operator_mb(op) -> float:
    """Size of a dense float64 Phi, from the operator's shape."""
    return op.m * math.prod(op.shape) * 8 / 2.0 ** 20


def fig1_check(cp, scale: Scale, trial: Trial, out, record: Record) -> None:
    model, op, y, report = out
    record.failures += checks.operator_matches(op, cp.mix(trial.seed, OP_STREAM), ALPHA)
    record.operator_mb = operator_mb(op)
    record.failures += checks.factors_conditioned(model.factors, trial.kappa)
    failures, trial_mse = checks.recovery_outputs(model.factors, op.matrix, y, report)
    record.failures += failures
    record.kappa = trial.kappa
    record.recovered = trial_mse < SUCCESS_MSE
    record.iterations = report.iterations


def probe_op(cp, scale: Scale, item: ProbeItem):
    gen = cp.conditioning.generate_conditioned_model
    op = cp.sensing.create_operator(scale.probe_m, scale.probe_dims, "gaussian",
                                    ALPHA, item.op_seed)
    result = cp.theory_bounds.rip_probe(op, scale.probe_rank, scale.probe_kappa,
                                        scale.probe_samples, item.sample_seed)
    # achieved condition number of the first few sampled tensors
    models = [gen(scale.probe_dims, scale.probe_rank, scale.probe_kappa,
                  cp.mix(item.sample_seed, i))
              for i in range(scale.probe_kappa_models)]
    kappas = [cp.conditioning.kappa(model) for model in models]
    return op, result, models, kappas


def probe_check(cp, scale: Scale, item: ProbeItem, out, record: Record) -> None:
    op, result, models, kappas = out
    record.failures += checks.operator_matches(op, item.op_seed, ALPHA)
    record.operator_mb = operator_mb(op)
    # the samples rip_probe drew, from the seeds it documents
    samples = [cp.conditioning.generate_conditioned_model(
                   scale.probe_dims, scale.probe_rank, scale.probe_kappa,
                   cp.mix(item.sample_seed, i)).factors
               for i in range(scale.probe_samples)]
    for factors in samples:
        record.failures += checks.factors_conditioned(factors, scale.probe_kappa)
    record.failures += checks.probe_outputs(result, op.matrix, samples,
                                            scale.probe_samples)
    for model, report in zip(models, kappas):
        record.failures += checks.kappa_matches(report, model.factors)
    record.samples = result.samples


def easy_items(cp, scale: Scale, seed: int) -> list[Trial]:
    return fig1_items(cp, (1.0, 10.0), scale.easy_trials, seed)


def hard_items(cp, scale: Scale, seed: int) -> list[Trial]:
    return fig1_items(cp, (100.0, 1000.0), scale.hard_trials, seed)


# name -> (list of operations, operation, output check)
WORKLOADS = {
    "fig1-easy": (easy_items, fig1_op, fig1_check),
    "fig1-hard": (hard_items, fig1_op, fig1_check),
    "probe": (probe_items, probe_op, probe_check),
}


# -- running ------------------------------------------------------------------

def run_passes(cp, scale: Scale, workload: str, items, budget_s: float,
               tracer: spans.Tracer | None = None) -> tuple[list[Record], int]:
    """Whole passes over items while the next pass is expected to fit."""
    _, op_fn, check_fn = WORKLOADS[workload]
    records: list[Record] = []
    pass_seconds: list[float] = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for position, item in enumerate(items):
            records.append(run_one(cp, scale, position, item, op_fn, check_fn,
                                   tracer))
        pass_seconds.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + max(pass_seconds) > budget_s:
            print(f"{'traced' if tracer else 'untraced'}: {len(pass_seconds)} passes, "
                  f"median {statistics.median(pass_seconds):.2f} s, "
                  f"slowest {max(pass_seconds):.2f} s")
            return records, len(pass_seconds)


def run_one(cp, scale, position, item, op_fn, check_fn, tracer) -> Record:
    out = error = None
    if tracer is not None:
        tracer.begin_op()
    t0 = time.perf_counter()
    try:
        out = op_fn(cp, scale, item)
    except Exception:
        error = traceback.format_exc()
    finally:
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_op()
    if error is not None:
        print(f"operation failed on {item}:\n{error}", file=sys.stderr)
        return Record(position, seconds, failed=True)
    record = Record(position, seconds)
    check_fn(cp, scale, item, out, record)
    for failure in record.failures:
        print(f"check failed on {item}: {failure}", file=sys.stderr)
    return record


def setup_samples(argv: list[str], repeats: int) -> list[float]:
    """Wall times of fresh processes that import cpsense and build the list."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        *argv, "--setup-only"], check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def ops_per_s(records: list[Record]) -> float:
    done = sum(not r.failed for r in records)
    return done / sum(r.seconds for r in records)


def correctness(records: list[Record]) -> bool:
    ok = all(not r.failures for r in records)
    at_one = [r.recovered for r in records if r.kappa == 1.0]
    if at_one and sum(at_one) < KAPPA_ONE_MIN_SHARE * len(at_one):
        print(f"property failed: {sum(at_one)} of {len(at_one)} trials at "
              f"kappa_tilde = 1 recovered", file=sys.stderr)
        ok = False
    return ok


def op_s_p50(records: list[Record]) -> float:
    """Median over the list of each operation's median time across passes.

    A plain median over every execution falls between two operations when
    the list is even, and then reads the noisiest executions of both.
    """
    by_position: dict[int, list[float]] = {}
    for r in records:
        if not r.failed:
            by_position.setdefault(r.position, []).append(r.seconds)
    medians = [statistics.median(v) for v in by_position.values()]
    return statistics.median(medians) if medians else 0.0


def end_to_end(records: list[Record], setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(records),
        "op_s_p50": op_s_p50(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(summary, counts, records: list[Record], passes: int,
              overhead: float) -> dict[str, float]:
    done = [r for r in records if not r.failed]
    n_ops = max(len(done), 1)
    op_s = summary[spans.OP]["incl_s"] or 1.0

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def mean_us(name, unit=1e6):
        c = calls(name)
        return summary[name]["incl_s"] / c * unit if c else 0.0

    def share(name, key="incl_s"):
        return summary.get(name, {}).get(key, 0.0) / op_s

    jac, obj = "recovery.residual_jacobian", "recovery.objective"
    samples = sum(r.samples for r in done)
    return {
        "recovery.recovered": sum(bool(r.recovered) for r in done) / passes,
        "recovery.lm_steps": calls(jac) / n_ops,
        "recovery.damping_tries": calls(obj) / n_ops,
        "recovery.step_accept_ratio": calls(jac) / calls(obj) if calls(obj) else 0.0,
        "recovery.stage_runs": calls("recovery._lm_single") / n_ops,
        "recovery.report_iterations": sum(r.iterations for r in done) / n_ops,
        "recovery.jacobian_us": mean_us(jac),
        "recovery.jacobian_share": share(jac),
        "recovery.objective_us": mean_us(obj),
        "recovery.solve_us": mean_us("numpy.linalg.solve"),
        "recovery.als_ms": mean_us("recovery._dense_cp_als", 1e3),
        "recovery.als_share": share("recovery._dense_cp_als"),
        "recovery.lm_self_share": share("recovery._lm_single", "self_s"),
        "tensor_core.cpmodel_builds": counts.get("tensor_core.CpModel", 0) / n_ops,
        "tensor_core.khatri_rao_chain_us": mean_us("tensor_core.khatri_rao_chain"),
        "tensor_core.reconstruct_us": mean_us("tensor_core.reconstruct"),
        "sensing.create_operator_ms": mean_us("sensing.create_operator", 1e3),
        "sensing.apply_us": mean_us("sensing.apply"),
        "sensing.adjoint_apply_us": mean_us("sensing.adjoint_apply"),
        "sensing.operator_mb": max((r.operator_mb for r in done), default=0.0),
        "conditioning.generate_model_us": mean_us("conditioning.generate_conditioned_model"),
        "conditioning.kappa_ms": mean_us("conditioning.kappa", 1e3),
        "theory_bounds.rip_probe_sample_us":
            summary.get("theory_bounds.rip_probe", {}).get("incl_s", 0.0) / samples * 1e6
            if samples else 0.0,
        "trace.overhead": overhead,
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true",
                   help="smoke-test sizes instead of the benchmark's")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    cp = load_cpsense()
    scale = TINY if args.tiny else FULL
    items = WORKLOADS[args.workload][0](cp, scale, args.seed)
    if args.setup_only:
        # ready for the first operation; skip interpreter teardown, which is
        # not set-up
        sys.stdout.flush()
        os._exit(0)

    if not args.trace:
        # half the set-up samples before the passes and half after, so that
        # they see the machine over the whole run, as the timings do
        setup = setup_samples(argv, scale.setup_repeats)
        records, _ = run_passes(cp, scale, args.workload, items, args.seconds)
        setup += setup_samples(argv, scale.setup_repeats)
        metrics = end_to_end(records, statistics.median(setup))
        units = dict(END_TO_END)
    else:
        plain, _ = run_passes(cp, scale, args.workload, items, args.seconds / 2)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, passes = run_passes(cp, scale, args.workload, items,
                                        args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        if tracer.absent:
            print("absent from the program, not traced: " + ", ".join(tracer.absent))
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"spans written to {trace_path.relative_to(HERE.parent)}")
        plain_rate = ops_per_s(plain)
        metrics = per_layer(tracer.summary(), tracer.counts, traced, passes,
                            ops_per_s(traced) / plain_rate if plain_rate else 0.0)
        records = plain + traced
        units = dict(PER_LAYER)

    failed = sum(r.failed for r in records)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted = {len(records)}, failed = {failed}")
    print(json.dumps({
        "correct": correctness(records),
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
