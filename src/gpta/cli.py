"""Command-line surface: train / eval / report / gen-synth.

Exit codes are a stable scripting contract: 0 success, 1 usage error,
2 validation error (bad data or config), 3 runtime or transport error.
"""

import argparse
import logging
import sys
from pathlib import Path

from . import student as student_mod
from .dataset import load_jsonl, synth_generate, write_jsonl
from .errors import GptaError, ValidationError
from .fileio import decoding, encodes, read_json, record_from_json, write_atomic
from .metrics import MetricKind, score_prefix
from .trainer import REPORTED_SERIES, EpochRecord, RunConfig, run, write_metrics_csv

logger = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

SVG_WIDTH = 800
SVG_HEIGHT = 480


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this contract reserves 2 for
    validation, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="gpta", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run the training loop from a JSON config")
    p_train.add_argument("--config", required=True, help="path to the run config JSON")
    p_train.add_argument("--out", default="gpta_run", help="run directory (default: gpta_run)")
    p_train.add_argument("--resume", default=None, help="state_epoch{N}.json to resume from")

    p_eval = sub.add_parser("eval", help="score a student checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True, help="student checkpoint or run state JSON")
    p_eval.add_argument("--data", required=True, help="JSONL dataset to score on")
    p_eval.add_argument("--prefix", default="", help="prefix to prepend (default: none)")
    p_eval.add_argument(
        "--metric",
        required=True,
        choices=[k.value for k in MetricKind],
        help="metric to report",
    )
    p_eval.add_argument("--hash-seed", type=int, default=0, help="feature hash seed")

    p_report = sub.add_parser("report", help="emit metrics.csv and curves.svg from a run")
    p_report.add_argument("--run", required=True, help="run directory containing report.json")
    p_report.add_argument("--out", required=True, help="output directory")

    p_synth = sub.add_parser("gen-synth", help="generate a synthetic JSONL dataset")
    p_synth.add_argument("--classes", type=int, required=True)
    p_synth.add_argument("--per-class", type=int, required=True)
    p_synth.add_argument("--noise", type=float, default=0.0)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--vocab-size", type=int, default=200)
    p_synth.add_argument("--out", required=True, help="output JSONL path")

    return parser


def load_config(path: str | Path) -> RunConfig:
    """Load and strictly validate a run config; unset keys resolve to the
    shipped defaults."""
    return RunConfig.from_dict(read_json(path))


def _scale(values: list[float], lo: float, hi: float) -> list[float]:
    vmin, vmax = min(values), max(values)
    if vmax == vmin:
        return [(lo + hi) / 2.0 for _ in values]
    return [lo + (v - vmin) * (hi - lo) / (vmax - vmin) for v in values]


_COLORS = ("#d62728", "#2ca02c", "#1f77b4", "#9467bd")  # one per reported series, reused past the fourth


def render_curves_svg(epochs: list[dict]) -> str:
    """Static line chart of the reported per-epoch series on a fixed 800x480
    canvas. Each series is min-max scaled to the plot area (ranges shown in
    the legend); output bytes depend only on the input values."""
    left, right, top, bottom = 60.0, 220.0, 40.0, 40.0
    plot_w = SVG_WIDTH - left - right
    plot_h = SVG_HEIGHT - top - bottom
    n = len(epochs)
    xs = (
        [left + plot_w / 2.0]
        if n == 1
        else [left + i * plot_w / (n - 1) for i in range(n)]
    )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        '<rect width="100%" height="100%" fill="#ffffff"/>',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{plot_w:.1f}" height="{plot_h:.1f}" '
        'fill="none" stroke="#cccccc" stroke-width="1"/>',
        f'<text x="{left:.1f}" y="24" font-family="monospace" font-size="16" fill="#111111">'
        "training curves</text>",
    ]
    for i, x in enumerate(xs):
        parts.append(
            f'<text x="{x:.1f}" y="{SVG_HEIGHT - 18}" font-family="monospace" font-size="11" '
            f'fill="#555555" text-anchor="middle">{epochs[i]["epoch"]}</text>'
        )
    parts.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{SVG_HEIGHT - 4}" font-family="monospace" '
        'font-size="11" fill="#555555" text-anchor="middle">epoch</text>'
    )

    for si, name in enumerate(REPORTED_SERIES):
        color = _COLORS[si % len(_COLORS)]
        values = [float(e[name]) for e in epochs]
        ys = _scale(values, top + plot_h - 6, top + 6)  # inverted: larger is higher
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        if n == 1:
            parts.append(f'<circle cx="{xs[0]:.2f}" cy="{ys[0]:.2f}" r="4" fill="{color}"/>')
        else:
            parts.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
            )
        ly = top + 16 + 18 * si
        lx = SVG_WIDTH - right + 12
        parts.append(
            f'<rect x="{lx:.1f}" y="{ly - 9:.1f}" width="10" height="10" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{lx + 16:.1f}" y="{ly:.1f}" font-family="monospace" font-size="11" '
            f'fill="#111111">{name} [{min(values):.4f}, {max(values):.4f}]</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_report(run_dir: str | Path, out_dir: str | Path) -> None:
    """Render metrics.csv and curves.svg from a run directory's report.json."""
    out_dir = Path(out_dir)
    report_path = Path(run_dir) / "report.json"
    report = read_json(report_path)
    with decoding(str(report_path)):
        epochs = report["epochs"]
        records = [record_from_json(EpochRecord, e, f"epochs[{i}]") for i, e in enumerate(epochs)]
    if not records:
        raise ValidationError(f"malformed {report_path}: no epoch records")

    out_dir.mkdir(parents=True, exist_ok=True)
    write_metrics_csv(records, out_dir / "metrics.csv")
    write_atomic(out_dir / "curves.svg", render_curves_svg(epochs))


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    report = run(cfg, args.out, resume_from=args.resume)
    print(f"run complete: best prefix {report.best.prefix!r} "
          f"scored {report.best.score:.6f} at epoch {report.best.epoch}")
    print(f"artifacts in {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    # Argument bytes that are not UTF-8 arrive as lone surrogates, which hashing cannot encode.
    if not encodes(args.prefix):
        raise ValidationError("--prefix is not valid UTF-8")
    params = student_mod.freeze(student_mod.load_checkpoint(args.checkpoint))
    # A label past the checkpoint's classes is refused by the metric, exit 2.
    data = load_jsonl(args.data)
    score = score_prefix(params, args.prefix, data, MetricKind(args.metric), hash_seed=args.hash_seed)
    print(f"{score:.6f}")
    return EXIT_OK


def _cmd_report(args) -> int:
    emit_report(args.run, args.out)
    print(f"wrote {Path(args.out) / 'metrics.csv'} and {Path(args.out) / 'curves.svg'}")
    return EXIT_OK


def _cmd_gen_synth(args) -> int:
    data = synth_generate(
        class_count=args.classes,
        per_class=args.per_class,
        vocab_size=args.vocab_size,
        noise=args.noise,
        seed=args.seed,
    )
    write_jsonl(data, args.out)
    print(f"wrote {len(data)} examples ({args.classes} classes) to {args.out}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "report": _cmd_report,
    "gen-synth": _cmd_gen_synth,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"gpta: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except GptaError as exc:
        print(f"gpta: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"gpta: i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
