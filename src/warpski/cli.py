"""Command-line interface: experiment runs, sweeps and validation."""

from __future__ import annotations

import argparse
import json
import sys

from .exceptions import ConfigError, WarpskiError
from .experiments import (ExperimentConfig, run_numeric2d, run_separation1d,
                          run_sweep)
from .validate import check_names, run_validation

_OVERRIDE_FLAGS = [
    ("--n", int, "number of data points"),
    ("--seed", int, "random seed for sampling, probes and optimization"),
    ("--noise", float, "noise standard deviation"),
    ("--max-steps", int, "optimizer step budget"),
    ("--n-probes", int, "stochastic trace probe count"),
    ("--lanczos-steps", int, "quadrature Lanczos step count"),
    ("--cg-tol-inference", float, "CG tolerance during learning"),
    ("--cg-tol-separation", float, "CG tolerance for source separation"),
]


def _add_common(parser, unread=()):
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", dest="out_dir", metavar="DIR",
                        help="directory for report.csv and curve CSVs")
    for flag, typ, help_text in _OVERRIDE_FLAGS:
        if flag not in unread:
            parser.add_argument(flag, dest=flag.lstrip("-").replace("-", "_"),
                                type=typ, default=None, help=help_text)


def _load_config(args, kind, **fields):
    """The config file, then every flag that is set, over it; ``fields``
    maps further config fields to a subcommand's own flags. A file with
    another ``kind`` raises ``ConfigError``."""
    data = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}")
        except json.JSONDecodeError as err:
            raise ConfigError(f"{args.config}: invalid JSON: {err}")
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config}: top level must be an object")
    if data.setdefault("kind", kind) != kind:
        raise ConfigError(f"kind: config is {data['kind']!r}, not {kind!r}")
    for flag, _, _ in _OVERRIDE_FLAGS:
        dest = flag.lstrip("-").replace("-", "_")
        fields[dest] = getattr(args, dest, None)
    fields["out_dir"] = args.out_dir
    data.update((k, v) for k, v in fields.items() if v is not None)
    return ExperimentConfig.from_dict(data)


def _print_report(report):
    for name, value in report.rows():
        print(f"{name}: {value}")


def _cmd_numeric2d(args):
    config = _load_config(args, "numeric2d")
    _print_report(run_numeric2d(config))
    return 0


def _cmd_separate(args):
    config = _load_config(args, "separation1d", data_csv=args.data,
                          maternal_events_csv=args.maternal_events,
                          fetal_events_csv=args.fetal_events)
    _print_report(run_separation1d(config))
    return 0


def _comma_list(flag, text, item):
    """``item`` of each comma-separated entry; ConfigError naming ``flag``."""
    try:
        return [item(entry) for entry in text.split(",")]
    except ValueError:
        raise ConfigError(f"{flag}: cannot read {text!r}") from None


def _cmd_sweep(args):
    config = _load_config(args, "numeric2d")
    n_values = _comma_list("--n-values", args.n_values, int)
    m_axis_counts = _comma_list("--m-counts", args.m_counts, lambda pair: [
        int(c) for c in pair.split("x")])
    rows_n, rows_m = run_sweep(config, n_values, m_axis_counts)
    print("scaling vs n:")
    for i, n in enumerate(rows_n["n"]):
        print(f"  n={n}: inference {rows_n['time_inference_s'][i]:.4f}s, "
              f"nlml {rows_n['time_nlml_s'][i]:.4f}s, "
              f"rmse {rows_n['rmse'][i]:.4f}")
    print("scaling vs m:")
    for i, m in enumerate(rows_m["m_total"]):
        print(f"  m={m}: inference {rows_m['time_inference_s'][i]:.4f}s, "
              f"mvm {rows_m['mvm_time_s'][i]:.6f}s")
    return 0


def _cmd_validate(args):
    if args.list:
        print("\n".join(check_names()))
        return 0
    names = args.checks.split(",") if args.checks else None
    return 1 if run_validation(names) else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="warpski",
        description="Scalable GP regression and source separation with "
                    "warped inducing grids.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("numeric2d",
                       help="2-D warped-SE benchmark: sample, learn, infer")
    _add_common(p, unread=("--cg-tol-separation",))
    p.set_defaults(fn=_cmd_numeric2d)

    p = sub.add_parser("separate",
                       help="two-source quasi-periodic separation")
    _add_common(p)
    p.add_argument("--data", help="CSV with 'time' and 'value' columns "
                                  "(default: synthesize a mixture); needs "
                                  "both event CSVs")
    p.add_argument("--maternal-events", help="CSV of event times (seconds)")
    p.add_argument("--fetal-events", help="CSV of event times (seconds)")
    p.set_defaults(fn=_cmd_separate)

    p = sub.add_parser("sweep", help="timing curves over n and grid size")
    _add_common(p, unread=("--max-steps", "--cg-tol-separation"))
    p.add_argument("--n-values", default="1000,2000,4000,8000",
                   help="comma-separated data sizes")
    p.add_argument("--m-counts", default="32x32,45x45,64x64,90x90",
                   help="comma-separated per-axis grid counts")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("validate", help="run the built-in invariant checks")
    p.add_argument("--checks",
                   help="comma-separated check names or prefixes "
                        f"(available: {', '.join(sorted(set(n.split('.')[0] for n in check_names())))})")
    p.add_argument("--list", action="store_true", help="list check names")
    p.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except WarpskiError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
