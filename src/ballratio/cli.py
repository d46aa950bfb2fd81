"""Command-line front end: volume, bounds, verify, crossover.

Exit codes: 0 ok, 1 verification violation, 2 usage error, 3 domain error.
TEXT output renders floats at 7 significant digits, CSV at 17; JSON carries
raw floats. Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from . import analysis
from .ballvol import omega_exact
from .bounds import catalog, family_labels, parse_label
from .errors import BallRatioError, DomainError


def _n_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dimension list {text!r}") from None


def _id_list(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip() != ""]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ballratio",
        description="unit-ball volume ratios, bound catalogs, verification sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("volume", help="exact ball volumes and ratios")
    p.add_argument("--n", type=_n_list, required=True, help="comma list of dimensions")
    add_format(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("bounds", help="bound-vs-exact tables")
    p.add_argument("--target", choices=("v", "w"), required=True)
    p.add_argument("--n", type=_n_list, required=True, help="comma list of dimensions")
    p.add_argument("--ids", type=_id_list, default=None, help="comma list of bound ids")
    p.add_argument("--partial", action="store_true",
                   help="blank cells instead of failing below a bound's min n")
    add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("verify", help="sidedness sweep over the full catalog")
    p.add_argument("--n-max", type=int, default=100)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("crossover", help="where the first bound is sharper")
    p.add_argument("--target", choices=("v", "w"), required=True)
    p.add_argument("--ids", type=_id_list, required=True,
                   help="exactly two bound ids, comma separated")
    p.add_argument("--n-max", type=int, default=50)
    add_format(p)
    p.set_defaults(func=cmd_crossover)

    return parser


def _cell(v, none: str, no_yes: tuple[str, str], digits: int) -> str:
    if v is None:
        return none
    if isinstance(v, bool):
        return no_yes[v]
    if isinstance(v, float):
        return f"{v:.{digits}g}"
    return str(v)


def _text_cell(v) -> str:
    return _cell(v, "-", ("no", "yes"), 7)


def _csv_cell(v) -> str:
    return _cell(v, "", ("false", "true"), 17)


def _render_text(headers, rows, summary) -> str:
    cells = [[_text_cell(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, c in enumerate(row):
            widths[i] = max(widths[i], len(c))
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.ljust(widths[i]) for i, c in enumerate(row)).rstrip())
    if summary:
        lines.append("")
        lines.extend(f"{k}: {_text_cell(v)}" for k, v in summary.items())
    return "\n".join(lines) + "\n"


def _render_csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)  # RFC-4180: comma, CRLF, minimal quoting
    writer.writerow(headers)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def _render_json(query, headers, rows, summary) -> str:
    payload = {
        "query": query,
        "rows": [dict(zip(headers, row)) for row in rows],
        "summary": summary,
    }
    return json.dumps(payload, indent=2) + "\n"


def _emit(fmt: str, query, headers, rows, summary) -> None:
    if fmt == "text":
        out = _render_text(headers, rows, summary)
    elif fmt == "csv":
        out = _render_csv(headers, rows)
    else:
        out = _render_json(query, headers, rows, summary)
    sys.stdout.write(out)


def cmd_volume(args) -> int:
    headers = ["n", "omega", "omega_value", "v", "w"]
    rows = []
    for n in args.n:
        om = omega_exact(n)
        ratios = [analysis.exact_target(t, n) if n >= 1 else None for t in ("v", "w")]
        rows.append([n, om.symbolic(), om.to_real(), *ratios])
    query = {"command": "volume", "n": args.n}
    _emit(args.format, query, headers, rows, {"rows": len(rows)})
    return 0


def _parse_ids(target: str, tokens: list[str]) -> list:
    """BoundIds of the tokens. A malformed or unknown id is a usage error
    that lists the valid ones; a DomainError (an order above the cap) passes
    through."""
    try:
        return [parse_label(target, tok) for tok in tokens]
    except DomainError:
        raise
    except ValueError as exc:
        raise ValueError(
            f"{exc}; valid ids for target {target}: " + ", ".join(family_labels(target))
        ) from None


def cmd_bounds(args) -> int:
    target = args.target
    if args.ids is None:
        ids = [s.id for s in catalog() if s.target == target]
    else:
        ids = _parse_ids(target, args.ids)
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate bound ids in --ids")
    report = analysis.make_table(target, ids, args.n, partial=args.partial)
    query = {
        "command": "bounds",
        "target": target,
        "ids": [bid.label() for bid in ids],
        "n": args.n,
        "partial": args.partial,
    }
    summary = {"rows": len(report.rows), "bounds": len(ids)}
    _emit(args.format, query, report.headers, report.rows, summary)
    return 0


def cmd_verify(args) -> int:
    specs = catalog()
    tally = analysis.verify_tally([s.id for s in specs], args.n_max)
    headers = ["bound", "side", "target", "checked", "ok", "violations"]
    rows = []
    records = violations = 0
    for s in specs:
        t = tally.bounds[s.id]
        rows.append([s.id.label(), s.side, s.target, t.checked, t.ok, t.checked - t.ok])
        records += t.checked
        violations += t.checked - t.ok
    if not tally.klein_rota_ok:
        violations += 1
    query = {"command": "verify", "n_max": args.n_max}
    summary = {
        "n_max": args.n_max,
        "bounds": len(specs),
        "records": records,
        "violations": violations,
        "klein_rota_ok": tally.klein_rota_ok,
    }
    _emit(args.format, query, headers, rows, summary)
    return 0 if violations == 0 else 1


def cmd_crossover(args) -> int:
    if len(args.ids) != 2:
        raise ValueError("crossover needs exactly two bound ids")
    a, b = _parse_ids(args.target, args.ids)
    res = analysis.crossover(a, b, args.n_max)
    sharper = sorted(res.sharper_set)
    if not sharper:
        shape = "{}"
    elif res.threshold is not None:
        shape = f"{sharper[0]}..{sharper[-1]}"
    else:
        shape = ",".join(str(n) for n in sharper)
    headers = ["n_sharper"]
    rows = [[n] for n in sharper]
    query = {
        "command": "crossover",
        "target": args.target,
        "ids": [a.label(), b.label()],
        "n_max": args.n_max,
    }
    summary = {
        "bound_a": a.label(),
        "bound_b": b.label(),
        "count": len(sharper),
        "sharper": shape,
        "threshold": res.threshold,
    }
    _emit(args.format, query, headers, rows, summary)
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (BallRatioError, ValueError) as exc:
        print(f"ballratio: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BallRatioError) else 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
