"""Command-line surface: data ingestion, the test/rank/simulate commands,
and deterministic machine-readable reports.

Exit codes: 0 = command completed (the reject decision is data, never an
exit code), 2 = input error, 3 = configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .curves import Direction
from .dgp import DoubleParetoParams
from .empirical import PairedSample, SortedSample, make_paired, make_sample
from .errors import ConfigError, DataError
from .functionals import FunctionalKind
from .inference import RankingMatrix, TestConfig, TestResult, pairwise_rank, run_test
from .montecarlo import SimMode, SimResult, SimSpec, preset_specs, run_table
from .variance import Scheme

__all__ = ["Report", "load_csv", "save_csv", "emit_report", "main"]


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


def load_csv(path, paired: bool = False) -> SortedSample | PairedSample:
    """Read observations from a CSV file.

    Single-column layout yields a SortedSample; two-column paired layout
    yields a PairedSample with the row pairing preserved.  A first row with
    a field that does not parse as a number is treated as a header and
    skipped; a first row of numbers (``-5``, ``nan`` and ``inf`` included)
    is data and is validated like every other row.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"file not found: {p}")
    rows = []
    with open(p, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            fields = [f.strip() for f in line.split(",")] if paired else [line]
            if paired and len(fields) != 2:
                raise DataError(f"line {line_no}: expected two comma-separated columns")
            if line_no == 1 and not all(_is_float(f) for f in fields):
                continue  # header row
            rows.append([_parse_number(f, line_no) for f in fields])
    if not rows:
        raise DataError(f"no data rows in {p}")
    data = np.asarray(rows, dtype=float)
    if paired:
        return make_paired(data[:, 0], data[:, 1])
    return make_sample(data[:, 0])


def save_csv(sample: SortedSample | PairedSample, path) -> None:
    """Write a sample back out with full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(sample, PairedSample):
            for a, b in zip(sample.left, sample.right):
                fh.write(f"{float(a)!r},{float(b)!r}\n")
        else:
            for v in sample.values:
                fh.write(f"{float(v)!r}\n")


def _config_dict(cfg: TestConfig) -> dict:
    # The worker cap is execution machinery, not test configuration, and is
    # deliberately absent: reports must not depend on how they were computed.
    return {
        "m": cfg.m,
        "direction": cfg.direction.value,
        "functional": cfg.kind.value,
        "alpha": cfg.alpha,
        "tau": "inf" if np.isinf(cfg.tau) else cfg.tau,
        "xi": cfg.xi,
        "eta": cfg.eta,
        "bootstrap": cfg.bootstrap,
        "seed": cfg.seed,
        "grid": cfg.grid,
        "vgrid": cfg.vgrid,
        "scheme": cfg.scheme.value,
    }


def _test_result_dict(res: TestResult) -> dict:
    return {
        "statistic": res.statistic,
        "critical_value": res.critical_value,
        "p_value": res.p_value,
        "reject": res.reject,
        "contact_fraction": res.contact_fraction,
        "T_n": res.t_n,
    }


def _rank_result_dict(matrix: RankingMatrix) -> dict:
    return {
        "labels": list(matrix.labels),
        "relation": matrix.to_table(),
        "pairs": [
            {
                "a": d.a,
                "b": d.b,
                "reject_a_dominates": d.reject_a_dominates,
                "reject_b_dominates": d.reject_b_dominates,
                "p_a_dominates": d.p_a_dominates,
                "p_b_dominates": d.p_b_dominates,
            }
            for d in matrix.decisions
        ],
    }


def _cell_dict(res: SimResult) -> dict:
    s = res.spec
    return {
        "dgp1": {"alpha": s.dgp1.alpha, "beta": s.dgp1.beta, "scale": s.dgp1.scale},
        "dgp2": {"alpha": s.dgp2.alpha, "beta": s.dgp2.beta, "scale": s.dgp2.scale},
        "n1": s.n1,
        "n2": s.n2,
        "direction": s.config.direction.value,
        "functional": s.config.kind.value,
        "tau": "inf" if np.isinf(s.config.tau) else s.config.tau,
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
        labels = report.result["labels"]
        lines.append("," + ",".join(labels))
        for label, row in zip(labels, report.result["relation"]):
            lines.append(label + "," + ",".join(row))
    else:
        lines.extend(_simulate_csv(report.result["cells"]))
    return "\n".join(lines) + "\n"


def _simulate_csv(cells: list) -> list:
    # One block per (functional, direction[, upper shape]); rows are the
    # contact-set bandwidths (or sizes when tau is constant), columns the
    # varying shape of the second law -- the published table layout.
    taus = {c["tau"] for c in cells}
    multi_tau = len(taus) > 1
    betas2 = sorted({c["dgp2"]["beta"] for c in cells})
    alphas2 = sorted({c["dgp2"]["alpha"] for c in cells})
    col_key = "beta" if len(betas2) >= len(alphas2) else "alpha"
    cols = betas2 if col_key == "beta" else alphas2

    def row_sort(value):
        return float("inf") if value == "inf" else float(value)

    lines = []
    blocks: dict[tuple, dict] = {}
    for c in cells:
        block = (c["functional"], c["direction"],
                 c["dgp1"]["alpha"] if multi_tau else None)
        row = c["tau"] if multi_tau else c["n1"]
        blocks.setdefault(block, {})[(row, c["dgp2"][col_key])] = c["rejection_rate"]
    row_label = "tau" if multi_tau else "n"
    for (functional, direction, alpha1), table in blocks.items():
        head = f"functional={functional},direction={direction}"
        if alpha1 is not None:
            head += f",alpha={alpha1}"
        lines.append(f"# {head}")
        lines.append(f"{row_label}\\{col_key}," + ",".join(str(c) for c in cols))
        for r in sorted({r for (r, _) in table}, key=row_sort):
            values = [table.get((r, c), "") for c in cols]
            lines.append(f"{r}," + ",".join(str(v) for v in values))
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


def _tau_value(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return float("inf")
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"tau must be a number or 'inf', got {text!r}") from None


def _add_test_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, default=3, help="dominance degree (default 3)")
    p.add_argument("--direction", choices=["up", "down"], default="up")
    p.add_argument("--functional", choices=["sup", "int"], default="sup")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tau", type=_tau_value, default=3.0,
                   help="contact-set bandwidth; a number or 'inf' (default 3)")
    p.add_argument("--xi", type=float, default=1e-3)
    p.add_argument("--eta", type=float, default=0.0)
    p.add_argument("--bootstrap", type=int, default=999, metavar="B")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", type=int, default=1001)
    p.add_argument("--vgrid", type=int, default=101)
    p.add_argument("--threads", type=int, default=1)
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
    s.add_argument("--preset", default=None,
                   choices=["size_up", "size_down", "power_up", "power_down",
                            "table1", "table2", "table3", "table4"])
    s.add_argument("--replications", type=int, default=None)
    s.add_argument("--seed", type=int, default=None,
                   help="master seed (default: the spec file's seed, or 0)")
    s.add_argument("--format", choices=["json", "csv", "text"], default="json")
    s.add_argument("--output", default=None)
    return parser


def _config_from_args(args, scheme: Scheme) -> TestConfig:
    return TestConfig(
        m=args.m,
        direction=Direction(args.direction),
        kind=FunctionalKind(args.functional),
        alpha=args.alpha,
        tau=args.tau,
        xi=args.xi,
        eta=args.eta,
        bootstrap=args.bootstrap,
        seed=args.seed,
        grid=args.grid,
        vgrid=args.vgrid,
        scheme=scheme,
        threads=args.threads,
    )


def _cmd_test(args) -> Report:
    start = time.perf_counter()
    if args.matched:
        if len(args.files) != 1:
            raise ConfigError("--matched takes exactly one two-column file")
        pairs = load_csv(args.files[0], paired=True)
        cfg = _config_from_args(args, Scheme.MATCHED)
        result = run_test(pairs, None, cfg)
    else:
        if len(args.files) != 2:
            raise ConfigError("test takes exactly two sample files (or one with --matched)")
        s1 = load_csv(args.files[0])
        s2 = load_csv(args.files[1])
        cfg = _config_from_args(args, Scheme.INDEPENDENT)
        result = run_test(s1, s2, cfg)
    elapsed = (time.perf_counter() - start) * 1e3
    return Report("test", _config_dict(cfg), _test_result_dict(result),
                  cfg.seed, __version__, elapsed)


def _cmd_rank(args) -> Report:
    start = time.perf_counter()
    if len(args.files) < 2:
        raise ConfigError("rank takes at least two sample files")
    datasets = [(Path(f).stem, load_csv(f)) for f in args.files]
    cfg = _config_from_args(args, Scheme.INDEPENDENT)
    matrix = pairwise_rank(datasets, cfg)
    elapsed = (time.perf_counter() - start) * 1e3
    return Report("rank", _config_dict(cfg), _rank_result_dict(matrix),
                  cfg.seed, __version__, elapsed)


def _parse_spec_file(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise DataError(f"file not found: {p}")
    values: dict[str, list[str]] = {}
    with open(p, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"line {line_no}: expected 'key = value'")
            key, _, rest = line.partition("=")
            values[key.strip().lower()] = rest.split()
    return values


def _cast(cast, tokens, key):
    """Each token through ``cast``; a value it rejects is a configuration error."""
    try:
        return [cast(t) for t in tokens]
    except ValueError:
        raise ConfigError(f"spec key {key!r}: cannot parse {tokens!r}") from None


def _specs_from_file(path, seed_override, reps_override) -> list[SimSpec]:
    kv = _parse_spec_file(path)

    def one(key, default=None, cast=str):
        if key not in kv:
            if default is None:
                raise ConfigError(f"simulation spec is missing required key {key!r}")
            return default
        if len(kv[key]) != 1:
            raise ConfigError(f"spec key {key!r} takes a single value")
        return _cast(cast, kv[key], key)[0]

    mode = one("mode", SimMode.WARPSPEED, SimMode)
    replications = reps_override if reps_override is not None else one("replications", 1000, int)
    seed = seed_override if seed_override is not None else one("seed", 0, int)
    m = one("m", 3, int)
    alpha = one("alpha", 0.05, float)
    xi = one("xi", 1e-3, float)
    eta = one("eta", 0.0, float)
    grid = one("grid", 1001, int)
    vgrid = one("vgrid", 101, int)
    bootstrap = one("bootstrap", 999, int)

    ns = _cast(int, kv.get("n", ["2000"]), "n")
    directions = _cast(Direction, kv.get("direction", ["up"]), "direction")
    kinds = _cast(FunctionalKind, kv.get("functional", ["sup"]), "functional")
    taus = _cast(_tau_value, kv.get("tau", ["3"]), "tau")
    a1s = _cast(float, kv.get("dgp1.alpha", ["3"]), "dgp1.alpha")
    b1s = _cast(float, kv.get("dgp1.beta", ["2"]), "dgp1.beta")
    scale1 = one("dgp1.scale", 1.0, float)
    same = "dgp2" in kv
    if same and one("dgp2") != "same":
        raise ConfigError("spec key 'dgp2' takes only the value 'same'")
    if same:
        a2s, b2s, scale2 = [None], [None], scale1
    else:
        a2s = _cast(float, kv.get("dgp2.alpha", ["3"]), "dgp2.alpha")
        b2s = _cast(float, kv.get("dgp2.beta", ["2"]), "dgp2.beta")
        scale2 = one("dgp2.scale", 1.0, float)

    specs = []
    for kind in kinds:
        for direction in directions:
            for a1 in a1s:
                for b1 in b1s:
                    dgp1 = DoubleParetoParams(a1, b1, scale1)
                    for a2 in a2s:
                        for b2 in b2s:
                            dgp2 = dgp1 if same else DoubleParetoParams(a2, b2, scale2)
                            for n in ns:
                                for tau in taus:
                                    cfg = TestConfig(
                                        m=m, direction=direction, kind=kind, alpha=alpha,
                                        tau=tau, xi=xi, eta=eta, bootstrap=bootstrap,
                                        seed=seed, grid=grid, vgrid=vgrid)
                                    specs.append(SimSpec(dgp1, dgp2, n, n, cfg,
                                                         replications, mode))
    return specs


def _cmd_simulate(args) -> Report:
    start = time.perf_counter()
    if (args.spec is None) == (args.preset is None):
        raise ConfigError("simulate needs exactly one of --spec FILE or --preset NAME")
    if args.preset is not None:
        specs = preset_specs(args.preset, seed=0 if args.seed is None else args.seed,
                             replications=1000 if args.replications is None else args.replications)
    else:
        specs = _specs_from_file(args.spec, args.seed, args.replications)
    results = run_table(specs)
    elapsed = (time.perf_counter() - start) * 1e3
    cfg = specs[0].config
    return Report("simulate", _config_dict(cfg),
                  {"cells": [_cell_dict(r) for r in results]},
                  cfg.seed, __version__, elapsed)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "test":
            report = _cmd_test(args)
        elif args.command == "rank":
            report = _cmd_rank(args)
        else:
            report = _cmd_simulate(args)
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
