"""Batch command line front end.

Subcommands: gen-example1, gen-example2, fit, predict, eval, spectrum.
Results go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 usage error, 2 data or model error. All numeric output uses 17
significant digits, so identical inputs give byte-identical outputs.

Each command that reads a data file makes one pass over its parsed
blocks and never holds the feature array: `fit` and `eval` add each
block to a running moment sum per class, `eval` also to the sums of its
sample functionals, and `predict` keeps one byte per row for the labels
it prints once the whole file has parsed. `gen-example2` writes its rows
block by block as they are drawn. Errors come in the order that reading
the whole file first would give them.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import classifier as clf_mod
from . import datasets as ds_mod
from .datasets import _FLOAT_FMT, _parse_floats, _row_line, _unit_rows
from .errors import EmptyClass, EnergydiscError, ZeroSignal
from .moments import _MomentSum


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
    cov = args.cov if args.cov is not None else np.diag(np.full(args.n, args.sigma2))
    data = ds_mod.gen_example1(args.n, args.m1, args.m2, cov, args.per_class, args.seed)
    ds_mod.save_csv(data, args.out)
    print(f"wrote {len(data)} rows")
    return 0


def _cmd_gen_example2(args) -> int:
    blocks = ds_mod._example2_blocks(args.n, args.a, args.sigma2, args.per_class, args.seed)
    rows = 2 * args.per_class
    ds_mod._check_room(args.out, rows, args.n)
    ds_mod.save_csv(blocks, args.out)
    print(f"wrote {rows} rows")
    return 0


def _add_class_rows(sums, labels, features, mode) -> None:
    """Add the rows of one block, unit-normalized in unit mode, to the
    moment sums of class 1 and class 2."""
    if mode is clf_mod.NormalizationMode.UNIT:
        features = _unit_rows(features)
    for label, total in zip((1, 2), sums):
        total.add(features[labels == label])


def _class_summaries(sums):
    """The moments of class 1 and class 2; EmptyClass names a label without rows."""
    for label, total in zip((1, 2), sums):
        if total.count == 0:
            raise EmptyClass(f"no samples with label {label}")
    return tuple(total.summary() for total in sums)


def _cmd_fit(args) -> int:
    mode = clf_mod.NormalizationMode(args.mode)
    sums = (_MomentSum(), _MomentSum())
    rows = ds_mod.load_csv(
        args.data, lambda labels, features: _add_class_rows(sums, labels, features, mode))
    mom1, mom2 = _class_summaries(sums)
    p1 = mom1.count / rows if args.priors_from_data else args.p1
    model = clf_mod.fit(clf_mod.ClassSpec(p1, mom1), clf_mod.ClassSpec(1.0 - p1, mom2), mode)
    clf_mod.save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = clf_mod.load_model(args.model)
    digits = []  # each block's labels as ASCII digits, one byte per row
    ds_mod.load_csv(args.data, lambda labels, features: digits.append(
        (clf_mod.decide_batch(model, features) + ord("0")).astype(np.uint8)))
    for block in digits:
        for start in range(0, len(block), _LABELS_PER_WRITE):
            part = block[start:start + _LABELS_PER_WRITE]
            lines = np.column_stack((part, np.full_like(part, ord("\n"))))
            sys.stdout.write(lines.tobytes().decode("ascii"))
    return 0


def _cmd_eval(args) -> int:
    model = clf_mod.load_model(args.model)
    sums = (_MomentSum(), _MomentSum())
    scores = clf_mod._SampleSums(model)

    def feed(labels, features):
        _add_class_rows(sums, labels, features, model.mode)
        if features.shape[1] == model.dim:  # else energy_report refuses the moments
            scores.add(labels, features)

    rows = ds_mod.load_csv(args.data, feed)
    mom1, mom2 = _class_summaries(sums)
    spec1 = clf_mod.ClassSpec(model.prior1, mom1)
    spec2 = clf_mod.ClassSpec(model.prior2, mom2)
    report = clf_mod.energy_report(model, spec1, spec2)
    quality, _, region, _, accuracy = scores.functionals((model.prior1, model.prior2))
    lower_slack = report.enr_correct - region
    upper_slack = report.enr_error - lower_slack
    slack_tol = 1e-9 * max(1.0, abs(report.total))
    ok = lower_slack >= -slack_tol and upper_slack >= -slack_tol
    for key, value in (
        ("n", model.dim),
        ("mode", model.mode.value),
        ("rows", rows),
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
        # only fit, predict and eval normalize, each the rows of --data
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
