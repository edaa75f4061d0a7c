"""Batch command line: fit, rank, preprocess, eval, synth, rerun.

Each command returns its files; ``_run`` alone writes them and, next to
them, a run manifest: the resolved configuration snapshot, inputs (absolute
paths), outputs, tool version, the environment (Python, numpy, backend,
BLAS threads, CPUs, pool start method) and wall time. ``sigfit rerun
<manifest>`` replays the recorded configuration from any directory and
produces byte-identical files. Diagnostics go to stderr; data goes to
files. Exit codes: 0 success, 2 parse/usage errors, 3 fit errors, 4 I/O
errors (any file error). When ``--root`` is omitted, the SIGFIT_DATA_ROOT
environment variable supplies the dataset directory.

One table, ``SETTINGS``, holds each command's settings: every key is at
once the flag (``--key``), the config-file key and the manifest key; other
keys are ignored with a warning. A boolean key also has ``--no-key``, so a
flag can turn off what a config file turned on.
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
    try:
        config = json.loads(Path(path).read_text())
        if not isinstance(config, dict):
            raise ValueError("not a JSON object")
    except ValueError as exc:  # JSONDecodeError is one
        raise _CliError(f"bad {what} {path}: {exc}", EXIT_PARSE) from exc
    return config


def _settings(command, flags, file_config):
    """Resolve the command's table: defaults < file_config < flags (None is no flag).

    Each value is typed, checked and made canonical wherever it came from.
    """
    ignored = sorted(set(file_config) - set(SETTINGS[command]))
    if ignored:
        print(f"warning: {command} does not read {', '.join(ignored)}; ignored", file=sys.stderr)
    settings = {}
    for key, default in SETTINGS[command].items():
        value = flags.get(key)
        if value is None:
            value = file_config.get(key, default)
        if value is None and key == "root":
            value = os.environ.get("SIGFIT_DATA_ROOT") or None
        settings[key] = None if value is None else _coerce(key, value, default)
    _check_ranges(command, settings)
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
    return os.path.abspath(value) if default is None else value


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
    try:
        sample = ingest.parse_sample(path.read_text())
    except (SigfitError, UnicodeDecodeError) as exc:
        raise _CliError(f"cannot parse {path}: {exc}", EXIT_PARSE) from exc
    return ingest.extract_channel(sample, settings["channel"], settings["abscissa"]), path


def _dataset_root(settings):
    if settings["root"] is None:
        raise _CliError("no dataset root: pass --root or set SIGFIT_DATA_ROOT", EXIT_PARSE)
    root = Path(settings["root"])
    if not root.is_dir():
        raise _CliError(f"dataset root not found: {root}", EXIT_IO)
    return root


def cmd_fit(settings):
    series, in_path = _read_series(settings)
    solver_cfg = _solver_config(settings)
    try:
        result = solver.fit_series(series, settings["family"], settings["terms"], solver_cfg)
        f = models.evaluate(result.params, series.abscissa)
        report = gof.gof_report(series.ordinate, f, result.params.n_params)
    except SigfitError as exc:
        raise _CliError(f"fit failed: {exc}", EXIT_FIT) from exc
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
    code = EXIT_OK
    if result.termination not in (solver.CONVERGED, solver.STALLED, solver.MAX_ITERATIONS):
        print(f"fit did not converge: {result.termination}", file=sys.stderr)
        code = EXIT_FIT
    return code, [in_path], [("fit.json", json.dumps(payload, indent=2) + "\n")]


def cmd_rank(settings):
    series, in_path = _read_series(settings)
    candidates = settings["candidates"].split(",") if settings["candidates"] else []
    try:
        rankings = selection.rank_families(series, candidates, settings["segment-size"])
    except SigfitError as exc:
        raise _CliError(f"ranking failed: {exc}", EXIT_FIT) from exc
    return EXIT_OK, [in_path], [("ranking.csv", selection.ranking_csv(rankings))]


def cmd_preprocess(settings):
    root = _dataset_root(settings)
    config = _pipeline_config(settings)
    index = ingest.load_dataset(root)
    samples = index.samples()
    if not samples:
        print(f"warning: no samples under {root}", file=sys.stderr)
    batch = pipeline.uniformize_dataset(samples, config, jobs=settings["jobs"])
    return EXIT_OK, [root], [
        ("vectors.csv", pipeline.vectors_to_csv(batch.vectors, config)),
        ("vectors.json", json.dumps(pipeline.vectors_to_json(batch.vectors)) + "\n"),
        ("batch_report.json", json.dumps(batch.report, indent=2) + "\n"),
        ("dataset_manifest.json", json.dumps(ingest.dataset_manifest(index), indent=2) + "\n"),
    ]


def cmd_eval(settings):
    root = _dataset_root(settings)
    config = _pipeline_config(settings)
    protocol = _protocol(settings)
    samples = ingest.load_dataset(root).samples()
    try:
        results = verify.compare_preprocessors(samples, config, protocol, jobs=settings["jobs"])
    except SigfitError as exc:
        raise _CliError(f"evaluation failed: {exc}", EXIT_FIT) from exc
    eers = {k: {"eer": v["eer"], "n_trials": v["n_trials"]} for k, v in results.items()}
    return EXIT_OK, [root], [
        *((f"roc_{name}.csv", verify.roc_csv(entry["roc"])) for name, entry in results.items()),
        ("eer.csv", verify.eer_table_csv(results)),
        ("eer.json", json.dumps(eers, indent=2) + "\n"),
    ]


def cmd_synth(settings):
    try:
        files = synth.dataset_files(
            n_users=settings["users"], seed=settings["seed"],
            genuine=settings["genuine"], forged=settings["forged"],
        )
    except InvalidParamsError as exc:
        raise _CliError(str(exc), EXIT_PARSE) from exc
    return EXIT_OK, [], files


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


def _run(command, settings, out_dir):
    """Run the command, then write its files and its manifest: the one writer of a run.

    Nothing is written, not even out_dir, when the command raises.
    """
    started = time.time()
    code, inputs, files = _COMMANDS[command][0](settings)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    for name, text in files:
        path = out_dir / name
        path.write_text(text)
        outputs.append(str(path))
    manifest = {
        "command": command,
        "tool_version": __version__,
        "config": settings,
        "environment": _environment(),
        "inputs": [str(p) for p in inputs],
        "outputs": outputs,
        "wall_time_s": round(time.time() - started, 3),
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return code


def _request(args):
    """(command, flags, file config, out dir); a replay's file is the manifest's config."""
    if args.command != "rerun":
        flags = {key: getattr(args, key.replace("-", "_")) for key in SETTINGS[args.command]}
        file_config = _load_json_object(args.config, "config file") if args.config else {}
        return args.command, flags, file_config, args.out
    manifest_path = Path(args.manifest)
    manifest = _load_json_object(manifest_path, "manifest")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in SETTINGS:
        raise _CliError(f"manifest for unknown command {command!r}", EXIT_PARSE)
    if not isinstance(manifest.get("config"), dict):
        raise _CliError(f"bad manifest {manifest_path}: no config object", EXIT_PARSE)
    return command, {}, manifest["config"], args.out or manifest_path.parent


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

    p_rerun = sub.add_parser("rerun", help="replay a recorded run manifest")
    p_rerun.add_argument("manifest")
    p_rerun.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        command, flags, file_config, out_dir = _request(args)
        return _run(command, _settings(command, flags, file_config), out_dir)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except SigfitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FIT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
