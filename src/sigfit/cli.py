"""Batch command line: fit, rank, preprocess, eval, synth, rerun.

Every command writes a run manifest next to its outputs: the resolved
configuration snapshot, inputs, outputs, tool version, backend, the
environment (Python, numpy, BLAS threads, CPUs, pool start method) and
wall time. ``sigfit rerun <manifest>`` replays the recorded configuration
and produces byte-identical files. Diagnostics go to stderr; data goes to
files. Exit codes: 0 success, 2 parse/usage errors, 3 fit errors, 4 I/O
errors. When ``--root`` is omitted, the SIGFIT_DATA_ROOT environment
variable supplies the dataset directory.

One table, ``SETTINGS``, holds each command's settings: every key is at
once the flag (``--key``), the config-file key and the manifest key. A
boolean key also has ``--no-key``, so a flag can turn off what a config
file turned on.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, _blas, gof, ingest, models, pipeline, selection, solver, synth, verify
from ._kernels import BACKEND
from .errors import InvalidParamsError, SigfitError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_FIT = 3
EXIT_IO = 4

_PIPELINE = pipeline.PipelineConfig()
_SOLVER = _PIPELINE.solver
_SOLVER_KEYS = {"algorithm": _SOLVER.algorithm, "max-iterations": _SOLVER.max_iterations}
_PIPELINE_KEYS = {
    "terms": _PIPELINE.n_terms,
    "timestamp-channel": _PIPELINE.timestamp_channel or 0,
    "timestamp-degree": _PIPELINE.timestamp_degree,
    "abscissa": _PIPELINE.abscissa,
    "per-segment-fit": _PIPELINE.per_segment_fit,
    "segments": _PIPELINE.n_segments,
}
_PROTOCOL_KEYS = {"enroll": verify.Protocol().enroll_size, "seed": verify.Protocol().seed}
_JOBS = os.cpu_count() or 1

# command -> {key: default} in manifest order; the default gives the type, None a path
SETTINGS = {
    "fit": {
        "file": None,
        "channel": 1,
        "family": "sum-of-sines",
        "terms": _PIPELINE.n_terms,
        "algorithm": _SOLVER.algorithm,
        "abscissa": _PIPELINE.abscissa,
        "trace": False,
        "max-iterations": _SOLVER.max_iterations,
    },
    "rank": {
        "file": None,
        "channel": 1,
        "candidates": ",".join(selection.TABLE_CANDIDATES),
        "segment-size": selection.DEFAULT_SEGMENT_SIZE,
        "abscissa": _PIPELINE.abscissa,
    },
    "preprocess": {"root": None, **_PIPELINE_KEYS, **_SOLVER_KEYS, "jobs": _JOBS},
    "eval": {"root": None, **_PIPELINE_KEYS, **_PROTOCOL_KEYS, **_SOLVER_KEYS, "jobs": _JOBS},
    "synth": {"users": 12, "seed": synth.DEFAULT_SEED, "genuine": 20, "forged": 20},
}

# accepted value -> canonical value, for every key with a closed set
_CHOICES = {
    "family": {f: f for f in sorted(models.FAMILIES)},
    "abscissa": {"index": "index", "timestamp": "timestamp"},
    "algorithm": {
        "gn": solver.GAUSS_NEWTON,
        "lm": solver.LEVENBERG_MARQUARDT,
        "tr": solver.TRUST_REGION,
        **{a: a for a in solver.ALGORITHMS},
    },
}

_PATH_HELP = {
    "file": "SVC2004-format sample file (required)",
    "root": "dataset directory; default: $SIGFIT_DATA_ROOT",
}


class _CliError(SigfitError):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_json_object(path, what):
    """The JSON object in a config file or a manifest; what names it in errors."""
    p = Path(path)
    if not p.is_file():
        raise _CliError(f"{what} not found: {p}", EXIT_IO)
    try:
        config = json.loads(p.read_text())
        if not isinstance(config, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:  # JSONDecodeError is one
        raise _CliError(f"bad {what} {p}: {exc}", EXIT_PARSE) from exc
    return config


def _settings(args):
    """Resolve the command's table: defaults < config file < flags.

    Each value is typed, checked and made canonical wherever it came from.
    """
    file_config = _load_json_object(args.config, "config file") if args.config else {}
    settings = {}
    for key, default in SETTINGS[args.command].items():
        value = getattr(args, key.replace("-", "_"), None)
        if value is None:
            value = file_config.get(key, default)
        if value is None and key == "root":
            value = os.environ.get("SIGFIT_DATA_ROOT") or None
        settings[key] = None if value is None else _coerce(key, value, default)
    _check_ranges(args.command, settings)
    return settings


def _coerce(key, value, default):
    try:
        if key == "candidates":  # a comma-separated string or a JSON list
            names = value.split(",") if isinstance(value, str) else value
            value = ",".join(n.strip() for n in names if n.strip())
        if isinstance(default, bool) and not isinstance(value, bool):
            raise TypeError("not a boolean")
        if type(default) is int and (isinstance(value, bool) or not isinstance(value, (int, str))):
            raise TypeError("not an integer")  # int() would round 2.7 and count True as 1
        value = (str if default is None else type(default))(value)
    except (AttributeError, TypeError, ValueError) as exc:
        raise _CliError(f"bad {key} {value!r}", EXIT_PARSE) from exc
    if key in _CHOICES:
        if value not in _CHOICES[key]:
            raise _CliError(f"unknown {key} {value!r}", EXIT_PARSE)
        value = _CHOICES[key][value]
    return str(Path(value)) if default is None else value


def _check_ranges(command, settings):
    """Refuse an out-of-range value up front, before any fit runs."""
    try:
        if command in ("preprocess", "eval"):
            _pipeline_config(settings).validate()
        if command == "eval":
            _protocol(settings).validate()
        if command == "fit":
            _solver_config(settings).validate()
    except SigfitError as exc:
        raise _CliError(f"bad settings: {exc}", EXIT_PARSE) from exc
    if command in ("fit", "rank") and not 1 <= settings["channel"] <= ingest.N_CHANNELS:
        raise _CliError(f"channel {settings['channel']} not in 1..{ingest.N_CHANNELS}", EXIT_PARSE)
    if command == "rank" and settings["segment-size"] < 2:
        raise _CliError(f"segment size {settings['segment-size']} < 2", EXIT_PARSE)
    if command == "rank":
        if not settings["candidates"]:
            raise _CliError("no candidates: pass at least one family", EXIT_PARSE)
        names = settings["candidates"].split(",")
        for name in names:
            if name not in selection.TABLE_CANDIDATES and name not in models.FAMILIES:
                raise _CliError(f"unknown candidate {name!r}", EXIT_PARSE)
            if names.count(name) > 1:
                raise _CliError(f"candidate {name!r} given more than once", EXIT_PARSE)
    least = 0 if settings.get("family") == "polynomial" else 1  # a polynomial degree may be 0
    if command == "fit" and settings["terms"] < least:
        raise _CliError(f"terms must be >= {least} for {settings['family']}", EXIT_PARSE)


def _solver_config(settings):
    return solver.SolverConfig(
        algorithm=settings["algorithm"], max_iterations=settings["max-iterations"]
    )


def _protocol(settings):
    return verify.Protocol(enroll_size=settings["enroll"], seed=settings["seed"])


def _pipeline_config(settings):
    timestamp_channel = settings["timestamp-channel"]
    return pipeline.PipelineConfig(
        n_terms=settings["terms"],
        timestamp_channel=timestamp_channel if timestamp_channel > 0 else None,
        timestamp_degree=settings["timestamp-degree"],
        solver=_solver_config(settings),
        abscissa=settings["abscissa"],
        per_segment_fit=settings["per-segment-fit"],
        n_segments=settings["segments"],
    )


def _read_series(settings):
    if settings["file"] is None:
        raise _CliError("no input file: pass --file", EXIT_PARSE)
    path = Path(settings["file"])
    if not path.is_file():
        raise _CliError(f"input file not found: {path}", EXIT_IO)
    try:
        sample = ingest.parse_sample(path.read_text())
    except SigfitError as exc:
        raise _CliError(f"cannot parse {path}: {exc}", EXIT_PARSE) from exc
    return ingest.extract_channel(sample, settings["channel"], settings["abscissa"]), path


def _dataset_root(settings):
    if settings["root"] is None:
        raise _CliError("no dataset root: pass --root or set SIGFIT_DATA_ROOT", EXIT_PARSE)
    root = Path(settings["root"])
    if not root.is_dir():
        raise _CliError(f"dataset root not found: {root}", EXIT_IO)
    return root


def cmd_fit(settings, out_dir):
    series, in_path = _read_series(settings)
    solver_cfg = _solver_config(settings)
    try:
        result = solver.fit_series(series, settings["family"], settings["terms"], solver_cfg)
        f = models.evaluate(result.params, series.abscissa)
        report = gof.gof_report(series.ordinate, f, result.params.n_params)
    except SigfitError as exc:
        raise _CliError(f"fit failed: {exc}", EXIT_FIT) from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "family": settings["family"],
        "algorithm": solver_cfg.algorithm,
        "params": models.params_to_dict(result.params),
        "chi2": result.chi2,
        "reduced_chi2": result.reduced_chi2,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "termination": result.termination,
        "gof": report.to_dict(),
    }
    if settings["trace"]:
        payload["trace"] = list(result.trace)
    fit_path = out_dir / "fit.json"
    fit_path.write_text(json.dumps(payload, indent=2) + "\n")
    if result.termination not in (solver.CONVERGED, solver.STALLED, solver.MAX_ITERATIONS):
        print(f"fit did not converge: {result.termination}", file=sys.stderr)
        return EXIT_FIT, [in_path], [fit_path]
    return EXIT_OK, [in_path], [fit_path]


def cmd_rank(settings, out_dir):
    series, in_path = _read_series(settings)
    candidates = settings["candidates"].split(",") if settings["candidates"] else []
    try:
        rankings = selection.rank_families(series, candidates, settings["segment-size"])
    except SigfitError as exc:
        raise _CliError(f"ranking failed: {exc}", EXIT_FIT) from exc
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "ranking.csv"
    csv_path.write_text(selection.ranking_csv(rankings))
    return EXIT_OK, [in_path], [csv_path]


def cmd_preprocess(settings, out_dir):
    root = _dataset_root(settings)
    config = _pipeline_config(settings)
    index = ingest.load_dataset(root)
    samples = index.samples()
    if not samples:
        print(f"warning: no samples under {root}", file=sys.stderr)
    batch = pipeline.uniformize_dataset(samples, config, jobs=settings["jobs"])
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "vectors.csv"
    csv_path.write_text(pipeline.vectors_to_csv(batch.vectors, config))
    json_path = out_dir / "vectors.json"
    json_path.write_text(json.dumps(pipeline.vectors_to_json(batch.vectors)) + "\n")
    report_path = out_dir / "batch_report.json"
    report_path.write_text(json.dumps(batch.report, indent=2) + "\n")
    manifest_path = out_dir / "dataset_manifest.json"
    ingest.write_dataset_manifest(index, manifest_path)
    outputs = [csv_path, json_path, report_path, manifest_path]
    return EXIT_OK, [root], outputs


def cmd_eval(settings, out_dir):
    root = _dataset_root(settings)
    config = _pipeline_config(settings)
    protocol = _protocol(settings)
    samples = ingest.load_dataset(root).samples()
    try:
        results = verify.compare_preprocessors(samples, config, protocol, jobs=settings["jobs"])
    except SigfitError as exc:
        raise _CliError(f"evaluation failed: {exc}", EXIT_FIT) from exc
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
    return EXIT_OK, [root], outputs


def cmd_synth(settings, out_dir):
    try:
        paths = synth.write_dataset(
            out_dir, n_users=settings["users"], seed=settings["seed"],
            genuine=settings["genuine"], forged=settings["forged"],
        )
    except InvalidParamsError as exc:
        raise _CliError(str(exc), EXIT_PARSE) from exc
    print(f"wrote {len(paths)} samples to {out_dir}", file=sys.stderr)
    return EXIT_OK, [], paths


def _environment():
    """What the run ran on; recorded for the reader, never replayed."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": BACKEND,
        "blas_threads": _blas.get_threads(),
        "cpu_count": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
    }


def _run(args):
    """Resolve the settings, run the command, record its manifest."""
    started = time.time()
    settings = _settings(args)
    out_dir = Path(args.out)
    code, inputs, outputs = _COMMANDS[args.command][0](settings, out_dir)
    manifest = {
        "command": args.command,
        "tool_version": __version__,
        "backend": BACKEND,
        "config": settings,
        "environment": _environment(),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.time() - started, 3),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return code


def cmd_rerun(args):
    """Replay a manifest: every recorded ``config`` key stands in for its flag."""
    manifest_path = Path(args.manifest)
    manifest = _load_json_object(manifest_path, "manifest")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in SETTINGS:
        raise _CliError(f"manifest for unknown command {command!r}", EXIT_PARSE)
    if not isinstance(manifest.get("config"), dict):
        raise _CliError(f"bad manifest {manifest_path}: no config object", EXIT_PARSE)
    replay = _build_parser().parse_args([command, "--out", args.out or str(manifest_path.parent)])
    for key, value in manifest["config"].items():
        setattr(replay, key.replace("-", "_"), value)
    return replay.func(replay)


_COMMANDS = {
    "fit": (cmd_fit, "fit one channel of one sample file"),
    "rank": (cmd_rank, "rank candidate families by area between curves"),
    "preprocess": (cmd_preprocess, "batch samples into fixed-length vectors"),
    "eval": (cmd_eval, "EER comparison of preprocessing configurations"),
    "synth": (cmd_synth, "write a deterministic synthetic dataset"),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="sigfit",
        description="Fixed-length coefficient vectors from pen-capture time series",
    )
    parser.add_argument("--version", action="version", version=f"sigfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, text) in _COMMANDS.items():
        p = sub.add_parser(
            command, help=text, description=f"{text}. Every flag is also a config-file key."
        )
        for key, default in SETTINGS[command].items():
            choices = f"one of {', '.join(_CHOICES[key])}; " if key in _CHOICES else ""
            p.add_argument(
                f"--{key}",
                action=argparse.BooleanOptionalAction if isinstance(default, bool) else "store",
                default=None,
                help=_PATH_HELP.get(key, f"{choices}default: {default}"),
            )
        out = "sigfit-data" if command == "synth" else "sigfit-out"
        p.add_argument("--out", default=out, help=f"output directory; default: {out}")
        p.add_argument("--config", default=None, help="JSON config file")
        p.set_defaults(func=_run)

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
