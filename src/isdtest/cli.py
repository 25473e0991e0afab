"""Command-line surface: data ingestion, the test/rank/simulate commands,
and deterministic machine-readable reports.

Exit codes: 0 = command completed (the reject decision is data, never an
exit code), 2 = input error, 3 = configuration error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from enum import Enum
from itertools import product
from pathlib import Path

import numpy as np

from . import __version__
from .dgp import DoubleParetoParams
from .empirical import PairedSample, SortedSample, make_paired, make_sample
from .errors import ConfigError, DataError
from .functionals import FunctionalKind
from .inference import Scheme, TestConfig, _coerce, pairwise_rank, run_test
from .montecarlo import SimResult, SimSpec, preset_specs, run_table

__all__ = ["Report", "load_csv", "emit_report", "main"]


@dataclass
class Report:
    """Self-describing command report: re-running the echoed config with the
    echoed seed reproduces the results bit-exactly (wall time aside)."""

    command: str
    config: dict
    result: dict
    seed: int
    version: str
    elapsed_ms: float


def _parse_number(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DataError(f"line {line_no}: cannot parse {token!r} as a number") from None
    if not np.isfinite(value):
        raise DataError(f"line {line_no}: non-finite value {token!r}")
    if value < 0:
        raise DataError(f"line {line_no}: negative value {token!r}; the support is [0, inf)")
    return value


def _is_float(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _lines(path) -> list[str]:
    """The lines of a UTF-8 text file, line k at index k - 1, read whole.

    A leading BOM is dropped, and CRLF and lone CR end lines as LF does;
    no other character does.  A missing file or bytes that are not UTF-8
    are an input error naming the file.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"file not found: {p}")
    try:
        with open(p, encoding="utf-8-sig") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError:
        raise DataError(f"{p} is not UTF-8 text") from None


def _fields(raw: str, paired: bool) -> list[str]:
    """A line's fields, stripped; none for a blank line."""
    line = raw.strip()
    if not line:
        return []
    return [f.strip() for f in line.split(",")] if paired else [line]


def _first_error(lines: list[str], paired: bool) -> DataError | None:
    """The error of the first line that is not a valid row: a wrong column
    count, or a field that does not parse, is not finite or is negative."""
    for line_no, raw in enumerate(lines, start=1):
        fields = _fields(raw, paired)
        if not fields:
            continue
        if paired and len(fields) != 2:
            return DataError(f"line {line_no}: expected two comma-separated columns")
        if line_no == 1 and not all(_is_float(f) for f in fields):
            continue  # header row
        try:
            for f in fields:
                _parse_number(f, line_no)
        except DataError as exc:
            return exc
    return None


def load_csv(path, paired: bool = False) -> SortedSample | PairedSample:
    """Read observations from a CSV file.

    Single-column layout yields a SortedSample; two-column paired layout
    yields a PairedSample with the row pairing preserved.  A first row with
    a field that does not parse as a number is treated as a header and
    skipped; a first row of numbers (``-5``, ``nan`` and ``inf`` included)
    is data and is validated like every other row.  Blank lines are
    skipped.  The rows are parsed all at once; only a file with an invalid
    row is walked line by line, to name its first invalid line.
    """
    lines = _lines(path)
    width = 2 if paired else 1
    head = _fields(lines[0], paired)
    header = len(head) == width and not all(_is_float(f) for f in head)
    rows = [line for line in lines[header:] if line and not line.isspace()]
    if not rows:
        raise DataError(f"no data rows in {Path(path)}")
    try:
        if paired:
            if any(line.count(",") != 1 for line in rows):
                raise ValueError
            rows = ",".join(rows).split(",")
        data = np.fromiter(map(float, map(str.strip, rows)), float, len(rows)).reshape(-1, width)
        if not (np.isfinite(data).all() and (data >= 0).all()):
            raise ValueError
    except ValueError:
        raise _first_error(lines, paired) from None
    if paired:
        return make_paired(data[:, 0], data[:, 1])
    return make_sample(data[:, 0])


def _name(field) -> str:
    """A TestConfig field's name in flags, spec keys and reports: ``kind``
    is ``functional``."""
    return "functional" if field.name == "kind" else field.name


def _config_dict(cfg: TestConfig, omit=()) -> dict:
    """TestConfig's fields but those named in ``omit``, enums by value and
    an infinite bandwidth as "inf".

    ``threads`` accepts only 1 and says nothing about the test, so it is
    absent: reports must not depend on how they were computed.
    """
    values = {_name(f): getattr(cfg, f.name) for f in fields(TestConfig)
              if _name(f) not in ("threads", *omit)}
    return {key: value.value if isinstance(value, Enum) else "inf" if value == np.inf else value
            for key, value in values.items()}


# TestConfig's fields that a spec file lists values of, one cell each, by key.
_AXES = ("direction", "functional", "tau")


def _cell_dict(res: SimResult) -> dict:
    s = res.spec
    config = _config_dict(s.config)
    return {
        "dgp1": asdict(s.dgp1),
        "dgp2": asdict(s.dgp2),
        "n1": s.n1,
        "n2": s.n2,
        **{key: config[key] for key in _AXES},
        "mode": s.mode.value,
        "replications": s.replications,
        "rejection_rate": res.rejection_rate,
        "rejections": res.rejections,
        "critical_value": None if np.isnan(res.critical_value) else res.critical_value,
    }


def _emit_csv(report: Report) -> str:
    lines = []
    if report.command == "test":
        lines.append("key,value")
        for k, v in report.config.items():
            lines.append(f"config.{k},{v}")
        for k, v in report.result.items():
            lines.append(f"result.{k},{v}")
        lines.append(f"version,{report.version}")
        lines.append(f"elapsed_ms,{report.elapsed_ms}")
    elif report.command == "rank":
        # Labels are file stems: one that holds a comma or a quote is quoted,
        # and any other keeps its bytes.
        table = io.StringIO()
        writer = csv.writer(table, lineterminator="\n")
        labels = report.result["labels"]
        writer.writerow(["", *labels])
        writer.writerows([label, *row] for label, row in zip(labels, report.result["relation"]))
        return table.getvalue()
    else:
        lines.extend(_simulate_csv(report.result["cells"]))
    return "\n".join(lines) + "\n"


def _simulate_csv(cells: list) -> list:
    # One block per (functional, direction[, upper shape of the first law]);
    # rows are the contact-set bandwidths (or sizes when tau is constant),
    # columns the varying shape of the second law -- the published table
    # layout.  Any other field that tells apart two cells of one slot enters
    # the block's header too, named by its path in the cell (``n1``,
    # ``dgp1.beta``; the first law's upper shape is ``alpha``): of fields
    # that tell the same cells apart, the earliest.  The published tables
    # need none.
    values = [{**{f"{law}.{k}": x for law in ("dgp1", "dgp2") for k, x in c[law].items()},
               **{k: x for k, x in c.items() if not isinstance(x, dict)}} for c in cells]
    multi_tau = len({v["tau"] for v in values}) > 1
    betas2 = sorted({v["dgp2.beta"] for v in values})
    alphas2 = sorted({v["dgp2.alpha"] for v in values})
    col_key = "beta" if len(betas2) >= len(alphas2) else "alpha"
    cols = betas2 if col_key == "beta" else alphas2
    head = ["functional", "direction", *(["dgp1.alpha"] if multi_tau else [])]
    row, col = "tau" if multi_tau else "n1", f"dgp2.{col_key}"
    outcome = {"rejection_rate", "rejections", "critical_value"}
    rest = [k for k in values[0] if k not in {*head, row, col, *outcome}]

    def slots(keys) -> int:
        return len({tuple(v[k] for k in [*head, row, col, *keys]) for v in values})

    for key in rest[::-1]:
        if slots([k for k in rest if k != key]) == slots(rest):
            rest.remove(key)
    head += rest

    lines = []
    blocks: dict[tuple, dict] = {}
    for v in values:
        blocks.setdefault(tuple(v[k] for k in head), {})[v[row], v[col]] = v["rejection_rate"]
    for block, table in blocks.items():
        lines.append("# " + ",".join(f"{'alpha' if k == 'dgp1.alpha' else k}={x}"
                                     for k, x in zip(head, block)))
        lines.append(f"{'tau' if multi_tau else 'n'}\\{col_key}," + ",".join(map(str, cols)))
        for r in sorted({r for r, _ in table}, key=float):
            lines.append(f"{r}," + ",".join(str(table.get((r, c), "")) for c in cols))
    return lines


def _emit_text(report: Report) -> str:
    lines = [f"isdtest {report.command} (v{report.version}, seed {report.seed})"]
    if report.command == "test":
        r = report.result
        c = report.config
        lines.append(
            f"H0: sample 1 dominates sample 2 "
            f"(degree {c['m']}, {c['direction']}ward, functional {c['functional']})"
        )
        lines.append(f"statistic        {r['statistic']:.6g}")
        lines.append(f"critical value   {r['critical_value']:.6g} (alpha {c['alpha']})")
        lines.append(f"p-value          {r['p_value']:.6g}")
        lines.append(f"contact fraction {r['contact_fraction']:.4f}")
        lines.append("decision         " + ("REJECT dominance" if r["reject"]
                                            else "no evidence against dominance"))
    elif report.command == "rank":
        labels = report.result["labels"]
        width = max(len(x) for x in labels) + 1
        lines.append(" " * width + " ".join(f"{x:>{width}}" for x in labels))
        for label, row in zip(labels, report.result["relation"]):
            lines.append(f"{label:>{width}}" + " ".join(f"{x:>{width}}" for x in row))
    else:
        lines.extend(_simulate_csv(report.result["cells"]))
    lines.append(f"elapsed {report.elapsed_ms:.0f} ms")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, fmt: str = "json") -> bytes:
    """Serialize a report deterministically (fixed key order, repr floats)."""
    if fmt == "json":
        return (json.dumps(asdict(report), indent=2, allow_nan=False) + "\n").encode()
    if fmt == "csv":
        return _emit_csv(report).encode()
    if fmt == "text":
        return _emit_text(report).encode()
    raise ConfigError(f"unknown report format {fmt!r}")


class _Parser(argparse.ArgumentParser):
    # Flag misuse is a configuration error (exit 3), not an input error.
    def error(self, message):
        raise ConfigError(message)


def _given(values: dict) -> dict:
    """The entries that were given; the library applies its own default to the rest."""
    return {k: v for k, v in values.items() if v is not None}


# Help of the flags whose name does not say enough; the others have none.
_HELP = {"m": f"dominance degree (default {TestConfig.m})",
         "tau": f"contact-set bandwidth; a number or 'inf' (default {TestConfig.tau:g})",
         "threads": "accepted only as 1: the bootstrap runs on one thread"}


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    # One flag per TestConfig field but ``scheme``, named after it, of its
    # default's type (an enum's: a plain string); TestConfig checks every value.
    for f in fields(TestConfig):
        if f.name != "scheme":
            p.add_argument(f"--{_name(f)}", dest=f.name, help=_HELP.get(f.name),
                           type=str if isinstance(f.default, Enum) else type(f.default))
    p.add_argument("--format", choices=["json", "csv", "text"], default="json")
    p.add_argument("--output", default=None, help="write the report here instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isdtest",
                     description="Bootstrap tests of inverse stochastic dominance")
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", parents=[], help="test H0: sample 1 dominates sample 2")
    t.add_argument("files", nargs="+", help="two sample files, or one paired file with --matched")
    t.add_argument("--matched", action="store_true",
                   help="treat the single input file as two-column matched pairs")
    _add_test_flags(t)

    r = sub.add_parser("rank", help="pairwise strict-dominance ranking of datasets")
    r.add_argument("files", nargs="+", help="two or more sample files")
    _add_test_flags(r)

    s = sub.add_parser("simulate", help="rejection-rate tables over synthetic designs")
    s.add_argument("--spec", default=None, help="key-value simulation spec file")
    s.add_argument("--preset", default=None, help="name of a shipped design")
    s.add_argument("--replications", type=int, default=None)
    s.add_argument("--seed", type=int, default=None,
                   help="master seed, in place of the spec file's")
    s.add_argument("--format", choices=["json", "csv", "text"], default="json")
    s.add_argument("--output", default=None)
    return parser


def _functional(value, name: str) -> FunctionalKind | None:
    """The functional named by a flag or spec key, which TestConfig calls
    ``kind``; an unknown one is a ConfigError naming ``name``."""
    return None if value is None else _coerce(value, FunctionalKind, name)


def _config_from_args(args, scheme: Scheme) -> TestConfig:
    values = {f.name: getattr(args, f.name, None) for f in fields(TestConfig)}
    values["kind"] = _functional(values["kind"], "--functional")
    return TestConfig(**_given(values), scheme=scheme)


def _cmd_test(args) -> tuple:
    cfg = _config_from_args(args, Scheme.MATCHED if args.matched else Scheme.INDEPENDENT)
    if args.matched:
        if len(args.files) != 1:
            raise ConfigError("--matched takes exactly one two-column file")
        result = run_test(load_csv(args.files[0], paired=True), None, cfg)
    else:
        if len(args.files) != 2:
            raise ConfigError("test takes exactly two sample files (or one with --matched)")
        result = run_test(load_csv(args.files[0]), load_csv(args.files[1]), cfg)
    # The wall time is the report's own, at its top level.
    return _config_dict(cfg), {("T_n" if key == "t_n" else key): value
                               for key, value in asdict(result).items() if key != "elapsed_ms"}


def _cmd_rank(args) -> tuple:
    if len(args.files) < 2:
        raise ConfigError("rank takes at least two sample files")
    cfg = _config_from_args(args, Scheme.INDEPENDENT)
    datasets = [(Path(f).stem, load_csv(f)) for f in args.files]
    matrix = pairwise_rank(datasets, cfg)
    return _config_dict(cfg), {"labels": list(matrix.labels), "relation": matrix.to_table(),
                               "pairs": [asdict(d) for d in matrix.decisions]}


def _parse_spec_file(path) -> dict:
    values: dict[str, list[str]] = {}
    first: dict[str, int] = {}  # key -> its line
    for line_no, raw in enumerate(_lines(path), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"line {line_no}: expected 'key = value'")
        key, _, rest = line.partition("=")
        key = key.strip().lower()
        if key in first:
            raise ConfigError(f"spec key {key!r} is given twice, on lines {first[key]} "
                              f"and {line_no}")
        first[key] = line_no
        values[key] = rest.split()
    return values


def _cast(cast, tokens, key):
    """Each token through ``cast``; a value it rejects is a configuration error."""
    try:
        return [cast(t) for t in tokens]
    except ValueError:
        raise ConfigError(f"spec key {key!r}: cannot parse {tokens!r}") from None


# Spec keys of TestConfig's fields that take one value, each with its default's type.
_CONFIG_KEYS = {f.name: type(f.default) for f in fields(TestConfig)
                if not isinstance(f.default, Enum) and f.name not in ("tau", "threads")}
# Every key _specs_from_file reads; any other key is a configuration error.
_SPEC_KEYS = frozenset({*_CONFIG_KEYS, *_AXES, "mode", "replications", "n", "dgp2",
                        *(f"dgp{i}.{f.name}" for i in (1, 2) for f in fields(DoubleParetoParams))})


def _specs_from_file(path, overrides: dict) -> list[SimSpec]:
    """The cells of a spec file; ``overrides`` (seed, replications) replace its keys.

    A key that is not given is left out of the call to its owner
    (TestConfig, SimSpec or DoubleParetoParams), which applies its own
    default; only the sample size and the laws' shapes have defaults of
    the file's own.
    """
    kv = _parse_spec_file(path)
    unknown = sorted(set(kv) - _SPEC_KEYS)
    if unknown:
        raise ConfigError(f"unknown simulation spec key(s): {', '.join(map(repr, unknown))}")
    kv.update({key: [str(value)] for key, value in overrides.items()})

    def one(key, cast=str):
        """The key's single value, or None when it is not given."""
        if key not in kv:
            return None
        if len(kv[key]) != 1:
            raise ConfigError(f"spec key {key!r} takes a single value")
        return _cast(cast, kv[key], key)[0]

    def axis(key, cast=str, default=None):
        """The key's values, or ``default`` when it is not given (None: its
        owner's); a value listed twice would run its cells twice."""
        values = _cast(cast, kv[key], key) if key in kv else [default]
        repeated = [value for i, value in enumerate(values) if value in values[:i]]
        if repeated:
            raise ConfigError(f"spec key {key!r} lists the value {repeated[0]!r} twice")
        return values

    config = _given({key: one(key, cast) for key, cast in _CONFIG_KEYS.items()})
    plan = _given({"mode": one("mode"), "replications": one("replications", int)})
    scale1 = _given({"scale": one("dgp1.scale", float)})
    same = "dgp2" in kv
    if same and one("dgp2") != "same":
        raise ConfigError("spec key 'dgp2' takes only the value 'same'")
    conflicting = sorted(key for key in kv if key.startswith("dgp2."))
    if same and conflicting:
        raise ConfigError("'dgp2 = same' cannot be combined with "
                          + ", ".join(map(repr, conflicting)))
    if same:
        a2s, b2s, scale2 = [None], [None], scale1
    else:
        a2s, b2s = axis("dgp2.alpha", float, 3.0), axis("dgp2.beta", float, 2.0)
        scale2 = _given({"scale": one("dgp2.scale", float)})

    specs = []
    for kind, direction, a1, b1, a2, b2, n, tau in product(
            [_functional(kind, "spec key 'functional'") for kind in axis("functional")],
            axis("direction"), axis("dgp1.alpha", float, 3.0),
            axis("dgp1.beta", float, 2.0), a2s, b2s, axis("n", int, 2000), axis("tau", float)):
        dgp1 = DoubleParetoParams(a1, b1, **scale1)
        dgp2 = dgp1 if same else DoubleParetoParams(a2, b2, **scale2)
        cfg = TestConfig(**config, **_given({"kind": kind, "direction": direction, "tau": tau}))
        specs.append(SimSpec(dgp1, dgp2, n, n, cfg, **plan))
    return specs


def _cmd_simulate(args) -> tuple:
    if (args.spec is None) == (args.preset is None):
        raise ConfigError("simulate needs exactly one of --spec FILE or --preset NAME")
    given = _given({"seed": args.seed, "replications": args.replications})
    if args.preset is not None:
        specs = preset_specs(args.preset, **given)
    else:
        specs = _specs_from_file(args.spec, given)
    cells = [_cell_dict(r) for r in run_table(specs)]
    return _config_dict(specs[0].config, omit=_AXES), {"cells": cells}  # each cell has its axes


_COMMANDS = {"test": _cmd_test, "rank": _cmd_rank, "simulate": _cmd_simulate}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        start = time.perf_counter()
        config, result = _COMMANDS[args.command](args)
        elapsed = (time.perf_counter() - start) * 1e3
        report = Report(args.command, config, result, config["seed"], __version__, elapsed)
        payload = emit_report(report, args.format)
        if args.output:
            Path(args.output).write_bytes(payload)
        else:
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        return 0
    except (DataError, OSError) as exc:
        print(f"isdtest: input error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"isdtest: config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
