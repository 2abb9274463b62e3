"""Batch command line front end.

Subcommands: gen-example1, gen-example2, fit, predict, eval, spectrum.
Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 usage error, 2 data or model error. All numeric output uses 17
significant digits, so identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import classifier as clf_mod
from . import datasets as ds_mod
from .datasets import _FLOAT_FMT, _class_rows, _parse_floats, _row_line
from .errors import EnergydiscError, InvalidMatrix, ZeroSignal
from .moments import estimate_moments


# predict writes its labels in blocks of this many lines
_LABELS_PER_WRITE = 1 << 16


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _count_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _vector_arg(text: str) -> np.ndarray:
    try:
        return _parse_floats(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated vector: {text!r}")


def _matrix_arg(text: str) -> np.ndarray:
    try:
        return np.array([_parse_floats(row) for row in text.split(";")])
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a ';'-separated matrix: {text!r}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="energydisc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g1 = sub.add_parser("gen-example1", help="two Gaussian classes, orthogonal means")
    g1.add_argument("--n", type=_count_arg, required=True)
    g1.add_argument("--m1", type=_vector_arg, required=True)
    g1.add_argument("--m2", type=_vector_arg, required=True)
    cov = g1.add_mutually_exclusive_group()
    cov.add_argument("--sigma2", type=float, default=1.0,
                     help="isotropic covariance sigma2*I (default 1.0)")
    cov.add_argument("--cov", type=_matrix_arg, default=None,
                     help="full covariance, rows separated by ';'")
    g1.add_argument("--per-class", type=_count_arg, required=True)
    g1.add_argument("--seed", type=_count_arg, required=True)
    g1.add_argument("--out", required=True)

    g2 = sub.add_parser("gen-example2", help="signal in white noise vs white noise")
    g2.add_argument("--n", type=_count_arg, required=True)
    g2.add_argument("--a", type=_vector_arg, required=True)
    g2.add_argument("--sigma2", type=float, required=True)
    g2.add_argument("--per-class", type=_count_arg, required=True)
    g2.add_argument("--seed", type=_count_arg, required=True)
    g2.add_argument("--out", required=True)

    fit_p = sub.add_parser("fit", help="fit a projector-pair model from CSV data")
    fit_p.add_argument("--data", required=True)
    fit_p.add_argument("--mode", choices=[m.value for m in clf_mod.NormalizationMode],
                       default="raw")
    priors = fit_p.add_mutually_exclusive_group()
    priors.add_argument("--p1", type=float, default=0.5,
                        help="prior of class 1 (class 2 gets 1-p1)")
    priors.add_argument("--priors-from-data", action="store_true",
                        help="estimate priors from class frequencies instead of --p1")
    fit_p.add_argument("--out", required=True)

    pred = sub.add_parser("predict", help="print one class label per data row")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)

    ev = sub.add_parser("eval", help="energy and quality report for a model on data")
    ev.add_argument("--model", required=True)
    ev.add_argument("--data", required=True)

    spectrum_p = sub.add_parser(
        "spectrum", help="print the stored difference-operator spectrum")
    spectrum_p.add_argument("--model", required=True)

    return parser


def _cmd_gen_example1(args) -> int:
    if args.cov is None and not np.isfinite(args.sigma2):
        # before sigma2 * I, whose inf * 0 would warn
        raise InvalidMatrix("matrix entries must be finite")
    cov = args.cov if args.cov is not None else args.sigma2 * np.eye(args.n)
    data = ds_mod.gen_example1(args.n, args.m1, args.m2, cov, args.per_class, args.seed)
    ds_mod.save_csv(data, args.out)
    print(f"wrote {len(data)} rows")
    return 0


def _cmd_gen_example2(args) -> int:
    data = ds_mod.gen_example2(args.n, args.a, args.sigma2, args.per_class, args.seed)
    ds_mod.save_csv(data, args.out)
    print(f"wrote {len(data)} rows")
    return 0


def _class_moments(data: ds_mod.LabeledDataset, mode):
    """Moments of class 1 and class 2, from unit-normalized rows in unit
    mode; EmptyClass names a label without rows."""
    if mode is clf_mod.NormalizationMode.UNIT:
        data = ds_mod.unit_normalized(data)
    return tuple(estimate_moments(_class_rows(data.labels, data.features, label))
                 for label in (1, 2))


def _cmd_fit(args) -> int:
    mode = clf_mod.NormalizationMode(args.mode)
    data = ds_mod.load_csv(args.data)
    mom1, mom2 = _class_moments(data, mode)
    p1 = mom1.count / len(data) if args.priors_from_data else args.p1
    model = clf_mod.fit(clf_mod.ClassSpec(p1, mom1), clf_mod.ClassSpec(1.0 - p1, mom2), mode)
    clf_mod.save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = clf_mod.load_model(args.model)
    data = ds_mod.load_csv(args.data)
    labels = clf_mod.decide_batch(model, data.features)
    for start in range(0, len(labels), _LABELS_PER_WRITE):
        block = labels[start:start + _LABELS_PER_WRITE].tolist()
        sys.stdout.write("".join(f"{label}\n" for label in block))
    return 0


def _cmd_eval(args) -> int:
    model = clf_mod.load_model(args.model)
    data = ds_mod.load_csv(args.data)
    mom1, mom2 = _class_moments(data, model.mode)
    spec1 = clf_mod.ClassSpec(model.prior1, mom1)
    spec2 = clf_mod.ClassSpec(model.prior2, mom2)
    report = clf_mod.energy_report(model, spec1, spec2)
    quality, _, region, _, accuracy = clf_mod._sample_functionals(
        model, data, (model.prior1, model.prior2))
    lower_slack = report.enr_correct - region
    upper_slack = report.enr_error - lower_slack
    slack_tol = 1e-9 * max(1.0, abs(report.total))
    ok = lower_slack >= -slack_tol and upper_slack >= -slack_tol
    for key, value in (
        ("n", model.dim),
        ("mode", model.mode.value),
        ("rows", len(data)),
        ("p1", model.prior1),
        ("p2", model.prior2),
        ("enr_correct", report.enr_correct),
        ("enr_error", report.enr_error),
        ("total_energy", report.total),
        ("region_energy", region),
        ("empirical_quality", quality),
        ("accuracy", accuracy),
        ("sandwich_lower_slack", lower_slack),
        ("sandwich_upper_slack", upper_slack),
        ("sandwich_ok", "true" if ok else "false"),
    ):
        if isinstance(value, float):
            value = _FLOAT_FMT % value
        print(f"{key}={value}")
    return 0


def _cmd_spectrum(args) -> int:
    model = clf_mod.load_model(args.model)
    for value in model.spectrum:
        print(_FLOAT_FMT % value)
    return 0


_COMMANDS = {
    "gen-example1": _cmd_gen_example1,
    "gen-example2": _cmd_gen_example2,
    "fit": _cmd_fit,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "spectrum": _cmd_spectrum,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ZeroSignal as exc:
        # only fit, predict and eval normalize, each every row of --data first
        line = _row_line(args.data, exc.row)
        print(f"error: zero vector at line {line} of the data file cannot be "
              "unit-normalized", file=sys.stderr)
        return 2
    except (EnergydiscError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
