"""Batch command line: fit, rank, preprocess, eval, synth, rerun.

Every command writes a run manifest next to its outputs: the resolved
configuration snapshot, inputs, outputs, tool version, backend and wall
time. ``sigfit rerun <manifest>`` replays the recorded command and
produces byte-identical files. Diagnostics go to stderr; data goes to
files. Exit codes: 0 success, 2 parse/usage errors, 3 fit errors, 4 I/O
errors. When ``--root`` is omitted, the SIGFIT_DATA_ROOT environment
variable supplies the dataset directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, gof, ingest, models, pipeline, selection, solver, synth, verify
from ._kernels import BACKEND
from .errors import SigfitError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_IO = 4

_ALGORITHM_ALIASES = {
    "gn": solver.GAUSS_NEWTON,
    "lm": solver.LEVENBERG_MARQUARDT,
    "tr": solver.TRUST_REGION,
    solver.GAUSS_NEWTON: solver.GAUSS_NEWTON,
    solver.LEVENBERG_MARQUARDT: solver.LEVENBERG_MARQUARDT,
    solver.TRUST_REGION: solver.TRUST_REGION,
}


class _CliError(SigfitError):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _write_manifest(out_dir, command, config, inputs, outputs, started):
    manifest = {
        "command": command,
        "tool_version": __version__,
        "backend": BACKEND,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.time() - started, 3),
    }
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    return path


def _load_config_file(path):
    if not path:
        return {}
    p = Path(path)
    if not p.is_file():
        raise _CliError(f"config file not found: {p}", EXIT_IO)
    try:
        return json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise _CliError(f"bad config file {p}: {exc}", EXIT_PARSE) from exc


def _resolve(args, file_config, key, default):
    """Precedence: defaults < config file < command line flags."""
    flag = getattr(args, key.replace("-", "_"), None)
    if flag is not None:
        return flag
    if key in file_config:
        return file_config[key]
    return default


def _solver_config(args, file_config):
    algorithm = _resolve(args, file_config, "algorithm", solver.LEVENBERG_MARQUARDT)
    algorithm = _ALGORITHM_ALIASES.get(algorithm)
    if algorithm is None:
        raise _CliError(f"unknown algorithm {args.algorithm!r}", EXIT_PARSE)
    return solver.SolverConfig(
        algorithm=algorithm,
        max_iterations=int(_resolve(args, file_config, "max-iterations", 400)),
    )


def _pipeline_config(args, file_config):
    solver_cfg = _solver_config(args, file_config)
    timestamp_channel = int(_resolve(args, file_config, "timestamp-channel", 3))
    return pipeline.PipelineConfig(
        n_terms=int(_resolve(args, file_config, "terms", 11)),
        timestamp_channel=timestamp_channel if timestamp_channel > 0 else None,
        timestamp_degree=int(_resolve(args, file_config, "timestamp-degree", 1)),
        solver=solver_cfg,
        abscissa=_resolve(args, file_config, "abscissa", "index"),
        per_segment_fit=bool(_resolve(args, file_config, "per-segment-fit", False)),
        n_segments=int(_resolve(args, file_config, "segments", 11)),
    )


def _read_series(args, file_config):
    path = Path(args.file)
    if not path.is_file():
        raise _CliError(f"input file not found: {path}", EXIT_IO)
    try:
        sample = ingest.parse_sample(path.read_text())
    except SigfitError as exc:
        raise _CliError(f"cannot parse {path}: {exc}", EXIT_PARSE) from exc
    channel = int(_resolve(args, file_config, "channel", 1))
    abscissa = _resolve(args, file_config, "abscissa", "index")
    return ingest.extract_channel(sample, channel, abscissa), path


def cmd_fit(args):
    started = time.time()
    file_config = _load_config_file(args.config)
    series, in_path = _read_series(args, file_config)
    family = _resolve(args, file_config, "family", "sum-of-sines")
    n_terms = int(_resolve(args, file_config, "terms", 11))
    solver_cfg = _solver_config(args, file_config)
    try:
        result = solver.fit_series(series, family, n_terms, solver_cfg)
        report = gof.gof_report(series, result.params)
    except SigfitError as exc:
        raise _CliError(f"fit failed: {exc}", EXIT_FIT) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "family": family,
        "algorithm": solver_cfg.algorithm,
        "params": models.params_to_dict(result.params),
        "chi2": result.chi2,
        "reduced_chi2": result.reduced_chi2,
        "iterations": result.iterations,
        "termination": result.termination,
        "gof": {
            "sse": report.sse,
            "r_squared": report.r_squared,
            "adjusted_r_squared": report.adjusted_r_squared,
            "rmse": report.rmse,
            "n_points": report.n_points,
            "n_params": report.n_params,
        },
    }
    if args.trace:
        payload["trace"] = list(result.trace)
    fit_path = out_dir / "fit.json"
    fit_path.write_text(json.dumps(payload, indent=2) + "\n")
    config = {
        "file": str(in_path),
        "channel": int(_resolve(args, file_config, "channel", 1)),
        "family": family,
        "terms": n_terms,
        "algorithm": solver_cfg.algorithm,
        "abscissa": _resolve(args, file_config, "abscissa", "index"),
        "trace": bool(args.trace),
        "max-iterations": solver_cfg.max_iterations,
    }
    _write_manifest(out_dir, "fit", config, [in_path], [fit_path], started)
    if result.termination not in (solver.CONVERGED, solver.MAX_ITERATIONS):
        print(f"fit did not converge: {result.termination}", file=sys.stderr)
        return EXIT_FIT
    return EXIT_OK


def cmd_rank(args):
    started = time.time()
    file_config = _load_config_file(args.config)
    series, in_path = _read_series(args, file_config)
    candidates = _resolve(args, file_config, "candidates", None)
    if candidates is None:
        candidates = list(selection.TABLE_CANDIDATES)
    elif isinstance(candidates, str):
        candidates = [c.strip() for c in candidates.split(",") if c.strip()]
    segment_size = int(_resolve(args, file_config, "segment-size", 20))
    try:
        rankings = selection.rank_families(series, candidates, segment_size)
    except SigfitError as exc:
        raise _CliError(f"ranking failed: {exc}", EXIT_FIT) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "ranking.csv"
    csv_path.write_text(selection.ranking_csv(rankings))
    config = {
        "file": str(in_path),
        "channel": int(_resolve(args, file_config, "channel", 1)),
        "candidates": ",".join(candidates),
        "segment-size": segment_size,
        "abscissa": _resolve(args, file_config, "abscissa", "index"),
    }
    _write_manifest(out_dir, "rank", config, [in_path], [csv_path], started)
    return EXIT_OK


def _dataset_root(args):
    root = args.root or os.environ.get("SIGFIT_DATA_ROOT")
    if not root:
        raise _CliError("no dataset root: pass --root or set SIGFIT_DATA_ROOT", EXIT_PARSE)
    root = Path(root)
    if not root.is_dir():
        raise _CliError(f"dataset root not found: {root}", EXIT_IO)
    return root


def cmd_preprocess(args):
    started = time.time()
    file_config = _load_config_file(args.config)
    root = _dataset_root(args)
    config = _pipeline_config(args, file_config)
    index = ingest.load_dataset(root)
    samples = index.samples()
    if not samples:
        print(f"warning: no samples under {root}", file=sys.stderr)
    batch = pipeline.uniformize_dataset(samples, config, jobs=args.jobs)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "vectors.csv"
    csv_path.write_text(pipeline.vectors_to_csv(batch.vectors, config))
    json_path = out_dir / "vectors.json"
    json_path.write_text(json.dumps(pipeline.vectors_to_json(batch.vectors)) + "\n")
    report_path = out_dir / "batch_report.json"
    report_path.write_text(json.dumps(batch.report, indent=2) + "\n")
    manifest_path = out_dir / "dataset_manifest.json"
    ingest.write_dataset_manifest(index, manifest_path, root)
    outputs = [csv_path, json_path, report_path, manifest_path]
    snapshot = {
        "root": str(root),
        "terms": config.n_terms,
        "timestamp-channel": config.timestamp_channel or 0,
        "timestamp-degree": config.timestamp_degree,
        "abscissa": config.abscissa,
        "per-segment-fit": config.per_segment_fit,
        "segments": config.n_segments,
        "algorithm": config.solver.algorithm,
        "max-iterations": config.solver.max_iterations,
        "jobs": args.jobs,
    }
    _write_manifest(out_dir, "preprocess", snapshot, [root], outputs, started)
    return EXIT_OK


def cmd_eval(args):
    started = time.time()
    file_config = _load_config_file(args.config)
    root = _dataset_root(args)
    config = _pipeline_config(args, file_config)
    protocol = verify.Protocol(
        enroll_size=int(_resolve(args, file_config, "enroll", 10)),
        seed=int(_resolve(args, file_config, "seed", 0)),
    )
    index = ingest.load_dataset(root)
    samples = index.samples()
    try:
        results = verify.compare_preprocessors(samples, config, protocol, jobs=args.jobs)
    except SigfitError as exc:
        raise _CliError(f"evaluation failed: {exc}", EXIT_FIT) from exc
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, entry in results.items():
        roc_path = out_dir / f"roc_{name}.csv"
        roc_path.write_text(verify.roc_csv(entry["roc"]))
        outputs.append(roc_path)
    eer_csv = out_dir / "eer.csv"
    eer_csv.write_text(verify.eer_table_csv(results))
    eer_json = out_dir / "eer.json"
    eer_json.write_text(
        json.dumps({k: {"eer": v["eer"], "n_trials": v["n_trials"]} for k, v in results.items()},
                   indent=2) + "\n"
    )
    outputs.extend([eer_csv, eer_json])
    snapshot = {
        "root": str(root),
        "terms": config.n_terms,
        "timestamp-channel": config.timestamp_channel or 0,
        "timestamp-degree": config.timestamp_degree,
        "abscissa": config.abscissa,
        "per-segment-fit": config.per_segment_fit,
        "segments": config.n_segments,
        "enroll": protocol.enroll_size,
        "seed": protocol.seed,
        "algorithm": config.solver.algorithm,
        "max-iterations": config.solver.max_iterations,
        "jobs": args.jobs,
    }
    _write_manifest(out_dir, "eval", snapshot, [root], outputs, started)
    return EXIT_OK


def cmd_synth(args):
    started = time.time()
    out_dir = Path(args.out)
    paths = synth.write_dataset(
        out_dir, n_users=args.users, seed=args.seed, genuine=args.genuine, forged=args.forged
    )
    snapshot = {
        "users": args.users,
        "seed": args.seed,
        "genuine": args.genuine,
        "forged": args.forged,
    }
    _write_manifest(out_dir, "synth", snapshot, [], paths, started)
    print(f"wrote {len(paths)} samples to {out_dir}", file=sys.stderr)
    return EXIT_OK


_REPLAYABLE = ("fit", "rank", "preprocess", "eval", "synth")


def cmd_rerun(args):
    """Replay a manifest: every recorded key stands in for its flag.

    A snapshot holds resolved values, including keys that only a config
    file can set, so they go straight onto the parsed arguments rather
    than through per-command flag lists.
    """
    manifest_path = Path(args.manifest)
    if not manifest_path.is_file():
        raise _CliError(f"manifest not found: {manifest_path}", EXIT_IO)
    manifest = json.loads(manifest_path.read_text())
    command = manifest["command"]
    config = manifest["config"]
    if command not in _REPLAYABLE:
        raise _CliError(f"manifest for unknown command {command!r}", EXIT_PARSE)
    argv = [command, "--out", str(Path(args.out) if args.out else manifest_path.parent)]
    if "file" in config:  # the one required flag (fit, rank)
        argv.extend(["--file", str(config["file"])])
    replay = _build_parser().parse_args(argv)
    for key, value in config.items():
        setattr(replay, key.replace("-", "_"), value)
    return replay.func(replay)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sigfit",
        description="Fixed-length coefficient vectors from pen-capture time series",
    )
    parser.add_argument("--version", action="version", version=f"sigfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default="sigfit-out", help="output directory")
        p.add_argument("--config", default=None, help="JSON config file")

    p_fit = sub.add_parser("fit", help="fit one channel of one sample file")
    p_fit.add_argument("--file", required=True, help="SVC2004-format sample file")
    p_fit.add_argument("--channel", type=int, default=None)
    p_fit.add_argument("--family", default=None, choices=sorted(models.FAMILIES))
    p_fit.add_argument("--terms", type=int, default=None)
    p_fit.add_argument("--algorithm", default=None)
    p_fit.add_argument("--abscissa", default=None, choices=("index", "timestamp"))
    p_fit.add_argument("--max-iterations", type=int, default=None)
    p_fit.add_argument("--trace", action="store_true")
    common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_rank = sub.add_parser("rank", help="rank candidate families by area between curves")
    p_rank.add_argument("--file", required=True)
    p_rank.add_argument("--channel", type=int, default=None)
    p_rank.add_argument("--candidates", default=None, help="comma-separated family list")
    p_rank.add_argument("--segment-size", type=int, default=None)
    p_rank.add_argument("--abscissa", default=None, choices=("index", "timestamp"))
    common(p_rank)
    p_rank.set_defaults(func=cmd_rank)

    p_pre = sub.add_parser("preprocess", help="batch samples into fixed-length vectors")
    p_pre.add_argument("--root", default=None, help="dataset directory (or SIGFIT_DATA_ROOT)")
    p_pre.add_argument("--terms", type=int, default=None)
    p_pre.add_argument("--timestamp-channel", type=int, default=None)
    p_pre.add_argument("--timestamp-degree", type=int, default=None)
    p_pre.add_argument("--abscissa", default=None, choices=("index", "timestamp"))
    p_pre.add_argument("--per-segment-fit", action="store_true", default=None)
    p_pre.add_argument("--segments", type=int, default=None)
    p_pre.add_argument("--algorithm", default=None)
    p_pre.add_argument("--max-iterations", type=int, default=None)
    p_pre.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common(p_pre)
    p_pre.set_defaults(func=cmd_preprocess)

    p_eval = sub.add_parser("eval", help="EER comparison of preprocessing configurations")
    p_eval.add_argument("--root", default=None, help="dataset directory (or SIGFIT_DATA_ROOT)")
    p_eval.add_argument("--terms", type=int, default=None)
    p_eval.add_argument("--timestamp-channel", type=int, default=None)
    p_eval.add_argument("--abscissa", default=None, choices=("index", "timestamp"))
    p_eval.add_argument("--enroll", type=int, default=None)
    p_eval.add_argument("--seed", type=int, default=None)
    p_eval.add_argument("--algorithm", default=None)
    p_eval.add_argument("--max-iterations", type=int, default=None)
    p_eval.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    common(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_synth = sub.add_parser("synth", help="write a deterministic synthetic dataset")
    p_synth.add_argument("--users", type=int, default=12)
    p_synth.add_argument("--seed", type=int, default=synth.DEFAULT_SEED)
    p_synth.add_argument("--genuine", type=int, default=20)
    p_synth.add_argument("--forged", type=int, default=20)
    p_synth.add_argument("--out", default="sigfit-data")
    p_synth.set_defaults(func=cmd_synth)

    p_rerun = sub.add_parser("rerun", help="replay a recorded run manifest")
    p_rerun.add_argument("manifest")
    p_rerun.add_argument("--out", default=None, help="override output directory")
    p_rerun.set_defaults(func=cmd_rerun)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SigfitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
