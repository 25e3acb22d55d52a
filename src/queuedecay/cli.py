"""Command line interface.

Four commands: ``rates`` (analytic decay-rate report for a model file),
``simulate`` (run one discipline, fit tail decays, compare to the
analytic rates), ``ystar-curve`` (critical truncation level across a
load grid for the unit-mean M/M/1 family), and ``validate`` (the
built-in acceptance suite).

Exit codes: 0 success, 1 configuration error, 2 unstable model,
3 numerical failure.  Documents are deterministic given the
configuration and seed; ``validate`` output includes wall-clock
timings and is exempt.  JSON output uses the Infinity token for
infinite values, which strict parsers must be told about.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional, Tuple

from .dist import moments
from .ratecalc import (NumericalFailure, QueueModel, UnstableError,
                       decay_report, gamma_p_trunc, model_from_json,
                       model_to_json, y_star)
from .simqueue import Discipline, run, service_bins, write_records_csv
from .tailest import compare_rates, fit_decay
from .validate import run_all

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_UNSTABLE = 2
EXIT_NUMERICAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="queuedecay",
        description="Decay rates of the single-server queue: analytic "
                    "computation, event-driven simulation, and tail "
                    "cross-validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, default_output="json"):
        p.add_argument("--output", choices=("json", "csv"),
                       default=default_output,
                       help=f"document format (default {default_output})")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write the document here instead of stdout")

    p_rates = sub.add_parser(
        "rates", help="analytic decay-rate report for a model file")
    p_rates.add_argument("--model", required=True, metavar="FILE",
                         help="model JSON file")
    p_rates.add_argument("--ystar", action="store_true",
                         help="also report the critical truncation level "
                              "y* and P(B > y*)")
    add_io(p_rates)
    p_rates.set_defaults(run=cmd_rates)

    p_sim = sub.add_parser(
        "simulate", help="simulate one discipline and fit tail decays")
    p_sim.add_argument("--model", required=True, metavar="FILE")
    p_sim.add_argument("--discipline",
                       choices=[d.value for d in Discipline],
                       default="fifo", help="queueing discipline "
                       "(default fifo)")
    p_sim.add_argument("--customers", type=int, default=100_000,
                       help="number of arrivals (default 100000)")
    p_sim.add_argument("--seed", type=int, default=0,
                       help="random seed (default 0)")
    p_sim.add_argument("--warmup", type=float, default=0.2,
                       help="fraction of leading records discarded "
                            "(default 0.2)")
    p_sim.add_argument("--bins", type=float, default=None, metavar="W",
                       help="fit conditional sojourn decay per service-time "
                            "bin of width W; 0 selects 0.1 E[B]")
    add_io(p_sim)
    p_sim.set_defaults(run=cmd_simulate)

    p_curve = sub.add_parser(
        "ystar-curve", help="critical truncation level across a load grid "
                            "(unit-mean M/M/1 family)")
    p_curve.add_argument("--rho-grid", default="0.05:0.95:0.05",
                         metavar="A:B:STEP", help="inclusive load grid "
                         "(default 0.05:0.95:0.05)")
    add_io(p_curve, default_output="csv")
    p_curve.set_defaults(run=cmd_ystar_curve)

    p_val = sub.add_parser(
        "validate", help="run the built-in acceptance suite")
    p_val.set_defaults(run=cmd_validate)
    return parser


def _load_model(path: str) -> QueueModel:
    try:
        with open(path) as fh:
            return model_from_json(json.load(fh))
    except OSError as exc:
        raise ValueError(f"cannot read model file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"model file {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"model file {path} nests too deeply: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def cmd_rates(args: argparse.Namespace) -> Tuple[str, int]:
    model = _load_model(args.model)
    report = decay_report(model).to_json()
    doc = {"model": model_to_json(model), "report": report}
    if args.ystar:
        crit = y_star(model)
        doc.update(y_star=crit.value, p_exceed=crit.tail_prob)
    if args.output == "json":
        return _json_text(doc), EXIT_OK
    # the report's rows, then the --ystar fields that follow it in doc
    rows = [*report.items(), *list(doc.items())[2:]]
    lines = ["key,value"] + [f"{key},{'' if value is None else value}"
                             for key, value in rows]
    return "\n".join(lines) + "\n", EXIT_OK


def _fit_block(samples, analytic: Optional[float], **window):
    block = {"fit": None, "analytic": analytic, "comparison": None,
             "skipped": None}
    try:
        fit = fit_decay(samples, **window)
    except ValueError as exc:
        block["skipped"] = str(exc)
        return block
    block["fit"] = fit.to_json()
    if analytic is not None:
        block["comparison"] = compare_rates(analytic, fit).to_json()
    return block


# The paper's map from discipline to tail decay rate: the DecayReport
# field that each targeted fit of `simulate` is compared against.  An
# SRPT job of size y decays at gamma_p of the system truncated at y, so
# the --bins entries of a gamma_v row compare against gamma_p_trunc at
# the bin midpoint.  The class-2 samples exist only for a priority row.
_TARGETS = {
    Discipline.FIFO: {"waiting": "gamma_w"},
    Discipline.LIFO_PR: {},
    Discipline.SRPT_PR: {"sojourn": "gamma_v"},
    Discipline.SRPT_NP: {"sojourn": "gamma_v"},
    Discipline.PRIO_PR: {"class2_waiting": "gamma_w2",
                         "class2_sojourn": "gamma_w2"},
    Discipline.PRIO_NP: {"class2_waiting": "gamma_w2",
                         "class2_sojourn": "gamma_w2"},
}


def cmd_simulate(args: argparse.Namespace) -> Tuple[str, int]:
    model = _load_model(args.model)
    discipline = Discipline(args.discipline)
    out = run(model, discipline, args.customers, args.seed, args.warmup)
    if args.output == "csv":
        import io
        buf = io.StringIO()
        write_records_csv(out, buf)
        return buf.getvalue(), EXIT_OK

    report = decay_report(model)
    targets = _TARGETS[discipline]
    samples = {"waiting": out.waiting(), "sojourn": out.sojourn()}
    if "class2_waiting" in targets:
        two = out.customer_class[out.kept()] == 2
        samples.update({f"class2_{name}": sample[two]
                        for name, sample in samples.items()})
    analytic = {name: getattr(report, field) for name, field in targets.items()}
    fits = {name: _fit_block(sample, analytic.get(name))
            for name, sample in samples.items()}

    bins_doc = None
    if args.bins is not None:
        width = args.bins or 0.1 * moments(model.service)[0]
        binned = targets.get("sojourn") == "gamma_v"
        bins_doc = []
        for lo, hi, idx in service_bins(out, width):
            target = gamma_p_trunc(model, 0.5 * (lo + hi)) if binned else None
            # bins hold far fewer samples than a full run, so the
            # conditional fits use a wider window and a lower floor
            bins_doc.append({"lo": lo, "hi": hi, "count": int(len(idx)),
                             **_fit_block(samples["sojourn"][idx],
                                          None if target == math.inf else target,
                                          lo_quantile=0.90, min_points=50)})

    doc = {
        "model": model_to_json(model),
        "discipline": discipline.value,
        "customers": args.customers,
        "seed": args.seed,
        "warmup": args.warmup,
        "analytic": report.to_json(),
        "summary": {
            "served": out.n,
            "total_time": out.total_time,
            "busy_periods": int(len(out.busy_durations)),
            "mean_busy": float(out.busy_durations.mean()),
            "mean_waiting": float(samples["waiting"].mean()),
            "mean_sojourn": float(samples["sojourn"].mean()),
        },
        "fits": fits,
        "bins": bins_doc,
    }
    return _json_text(doc), EXIT_OK


def _parse_grid(text: str) -> List[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--rho-grid wants A:B:STEP, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))):
        raise ValueError(f"--rho-grid needs finite A, B and STEP, got {text!r}")
    if step <= 0 or hi < lo:
        raise ValueError(f"bad grid bounds in {text!r}")
    grid = []
    k = 0
    while True:
        value = lo + k * step
        if value > hi + 1e-12:
            break
        if len(grid) == 10_000:
            raise ValueError(f"--rho-grid {text!r} has more than 10000 points")
        grid.append(round(value, 12))
        k += 1
    return grid


def cmd_ystar_curve(args: argparse.Namespace) -> Tuple[str, int]:
    from .dist import Exponential
    rows = []
    for rho in _parse_grid(args.rho_grid):
        try:
            model = QueueModel(Exponential(rho), Exponential(1.0))
            crit = y_star(model)
            rows.append({"rho": rho, "y_star": crit.value,
                         "p_exceed": crit.tail_prob, "error": None})
        except (ValueError, NumericalFailure) as exc:
            rows.append({"rho": rho, "y_star": None, "p_exceed": None,
                         "error": str(exc)})
    if args.output == "json":
        return _json_text({"family": "mm1-unit-mean-service",
                           "rows": rows}), EXIT_OK
    lines = ["rho,y_star,p_exceed,error"]
    for row in rows:
        if row["error"] is None:
            lines.append(f"{row['rho']},{row['y_star']!r},{row['p_exceed']!r},")
        else:
            err = row["error"].replace('"', "'")
            lines.append(f"{row['rho']},,,\"{err}\"")
    return "\n".join(lines) + "\n", EXIT_OK


def cmd_validate(args: argparse.Namespace) -> Tuple[str, int]:
    results = run_all()
    lines = [r.line() for r in results]
    passed = sum(r.passed for r in results)
    lines.append(f"passed {passed}/{len(results)}")
    text = "\n".join(lines) + "\n"
    if any(r.numerical_failure for r in results):
        return text, EXIT_NUMERICAL
    return text, EXIT_OK if passed == len(results) else EXIT_CONFIG


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    code = EXIT_OK
    try:
        text, code = args.run(args)
        _emit(text, getattr(args, "out", None))
    except BrokenPipeError:
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except UnstableError as exc:
        print(f"error: unstable model: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except NumericalFailure as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return code
