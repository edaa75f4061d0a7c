"""SVC2004-format file parsing and per-channel series extraction.

File layout: first line is the point count, then one point per line with
7 integer columns separated by spaces or tabs (x, y, timestamp, button
status, azimuth, altitude, pressure). Files are named ``U<user>S<sample>.TXT``
with samples 1-20 genuine and 21-40 forged (``NAME_PATTERN`` and
``GENUINE_MAX``).

Parsing is strict on structure (field count, integer tokens, declared
count) and lenient on content: semantic oddities such as decreasing
timestamps are surfaced as warnings in the dataset report, never as
rejections.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    ChannelOutOfRangeError,
    CountMismatchError,
    DirectoryNotFoundError,
    EmptyInputError,
    InvalidParamsError,
    LengthMismatchError,
    MalformedLineError,
)

GENUINE = "genuine"
FORGED = "forged"

N_CHANNELS = 7

NAME_PATTERN = re.compile(r"U(?P<user>\d+)S(?P<sample>\d+)\.(?:txt|TXT)$")
GENUINE_MAX = 20  # sample numbers up to this are genuine, the rest forged


@dataclass(frozen=True)
class SignatureSample:
    """One capture: N points x 7 integer channels plus identity metadata."""

    user_id: str
    sample_index: int
    label: str
    data: np.ndarray  # (N, 7) int64, row order = capture order
    source_path: str = ""  # the file it was read from; empty for in-memory samples

    def __post_init__(self):
        if self.data.ndim != 2 or self.data.shape[1] != N_CHANNELS:
            raise InvalidParamsError("sample data must be an (N, 7) array")
        if self.data.shape[0] < 2:
            raise EmptyInputError("a sample needs at least 2 points")

    @property
    def n_points(self):
        return self.data.shape[0]


@dataclass(frozen=True)
class ChannelSeries:
    """One channel or a part of it: paired float arrays, abscissa strictly increasing."""

    abscissa: np.ndarray
    ordinate: np.ndarray

    def __post_init__(self):
        if len(self.abscissa) != len(self.ordinate):
            raise LengthMismatchError("abscissa and ordinate lengths differ")
        if np.any(np.diff(self.abscissa) <= 0):
            raise InvalidParamsError("abscissa must be strictly increasing")

    def __len__(self):
        return len(self.ordinate)

    def on_unit_interval(self):
        """The same ordinate over the abscissa rescaled to run from 0 to 1."""
        x = self.abscissa
        return ChannelSeries((x - x[0]) / (x[-1] - x[0]), self.ordinate)


# the file grammar, in ASCII; parse_sample's docstring states it
_LINE_BREAK = re.compile(r"\r\n|\r|\n")
_FIELD = re.compile(r"[^ \t]+")
_TOKEN = re.compile(r"[+-]?[0-9]+")
_BODY_BYTES = b"0123456789+- \t\r\n"
_INT64 = np.iinfo(np.int64)
_LONG_TOKEN = 19  # characters; a shorter token always fits in int64


def parse_sample(text, user_id="?", sample_index=0, label=GENUINE, source_path=""):
    """Parse one SVC2004-format file body into a SignatureSample.

    The grammar is ASCII: a token is an optional sign and decimal digits
    whose value fits in int64; fields are separated by spaces or tabs; a
    line ends at ``\\n``, ``\\r\\n`` or a lone ``\\r``. Line numbers count
    from the first line of ``text.strip()``, blank lines included. Only the
    first field of the count line is read.
    """
    if not text or not text.strip():
        raise EmptyInputError("empty sample file")
    head, *rest = _LINE_BREAK.split(text.strip(), maxsplit=1)
    body = "".join(rest)
    field = _FIELD.match(head).group()  # stripped text starts with a field
    if not _TOKEN.fullmatch(field):
        raise MalformedLineError(1, f"point count expected, got {head!r}")
    declared = int(field)
    raw = body.encode("ascii", errors="replace")  # a non-ASCII character fails the check
    if not _well_formed(raw):
        _raise_first_malformed_line(body)
    # converted after the check's temporaries are freed, so that the kept
    # arrays pack in the heap as tightly as the per-line parser's did
    data = np.fromstring(raw, dtype=np.int64, sep=" ").reshape(-1, N_CHANNELS)
    if len(data) != declared:
        raise CountMismatchError(f"declared {declared} points, found {len(data)}")
    return SignatureSample(user_id, sample_index, label, data, source_path)


def _well_formed(raw):
    """Whether every line of ``raw`` is blank or holds 7 ASCII integers in int64.

    Tokens are the maximal runs of sign and digit bytes. A sign must open its
    token and precede a digit, so every token is an ASCII integer. Each line
    holds 0 or 7 tokens exactly when the tokens fall in consecutive groups of
    7, with a line break between two groups and none within one.
    """
    if raw.translate(None, _BODY_BYTES):
        return False
    u = np.frombuffer(b"\n" + raw + b"\n", dtype=np.uint8)
    in_token = u >= ord("+")  # signs and digits sort above space, tab, CR and LF
    edges = (in_token[1:] != in_token[:-1]).nonzero()[0]
    first, last = edges[0::2] + 1, edges[1::2]  # each token's first and last index in u
    if len(first) % N_CHANNELS:
        return False
    signs = ((u == ord("+")) | (u == ord("-"))).nonzero()[0]
    if in_token[signs - 1].any() or (u[signs + 1] < ord("0")).any():
        return False
    breaks = ((u == ord("\n")) | (u == ord("\r"))).nonzero()[0]
    line = breaks.searchsorted(first).reshape(-1, N_CHANNELS)
    if (line[:, 0] != line[:, -1]).any() or (line[1:, 0] == line[:-1, -1]).any():
        return False
    # numpy clamps an out-of-range token to the int64 bounds; only a long one can be
    return all(
        _INT64.min <= int(raw[first[i] - 1 : last[i]]) <= _INT64.max
        for i in (last - first + 1 >= _LONG_TOKEN).nonzero()[0]
    )


def _raise_first_malformed_line(body):
    """Raise MalformedLineError for the first line that ``_well_formed`` rejected."""
    for line_no, line in enumerate(_LINE_BREAK.split(body), start=2):
        fields = _FIELD.findall(line)
        if not fields:
            continue
        if len(fields) != N_CHANNELS:
            raise MalformedLineError(line_no, f"expected 7 fields, got {len(fields)}")
        if not all(_TOKEN.fullmatch(f) for f in fields):
            raise MalformedLineError(line_no, f"non-integer token in {line!r}")
        if not all(_INT64.min <= int(f) <= _INT64.max for f in fields):
            raise MalformedLineError(line_no, f"integer outside int64 in {line!r}")
    raise AssertionError("_well_formed rejected a body whose lines are all well formed")


def serialize_sample(sample):
    """Canonical text form: count line, then one space-separated row per point."""
    lines = [str(sample.n_points)]
    lines.extend(" ".join(map(str, row)) for row in sample.data.tolist())
    return "\n".join(lines) + "\n"


def check_sample(sample, source="<memory>"):
    """Semantic warnings (never fatal): timestamp order, value ranges."""
    warnings = []
    t = sample.data[:, 2]
    bad = np.nonzero(np.diff(t) < 0)[0]
    for i in bad:
        warnings.append(f"{source}: timestamp decreases at point {i + 2}")
    b = sample.data[:, 3]
    if np.any((b != 0) & (b != 1)):
        warnings.append(f"{source}: button status outside {{0, 1}}")
    for col, name in ((4, "azimuth"), (5, "altitude"), (6, "pressure")):
        if np.any(sample.data[:, col] < 0):
            warnings.append(f"{source}: negative {name} values")
    return warnings


def check_channels(channels):
    """The channel rule: a channel list is non-empty, each channel is in 1..7 and none repeats."""
    if not channels:
        raise InvalidParamsError(f"no channels: pass at least one of 1..{N_CHANNELS}")
    for c in channels:
        if not 1 <= c <= N_CHANNELS:
            raise ChannelOutOfRangeError(f"channel {c} not in 1..{N_CHANNELS}")
    if len(set(channels)) < len(channels):
        raise InvalidParamsError(f"channels {tuple(channels)} repeat a channel")
    return channels


def extract_channel(sample, channel_index, abscissa="index"):
    """Project one channel to floats against an index or timestamp abscissa.

    The default 0-based index abscissa keeps segment boundaries exact;
    ``abscissa="timestamp"`` uses device timestamps shifted to start at 0.
    """
    check_channels((channel_index,))
    ordinate = sample.data[:, channel_index - 1].astype(float)
    if abscissa == "index":
        xs = np.arange(sample.n_points, dtype=float)
    elif abscissa == "timestamp":
        t = sample.data[:, 2].astype(float)
        xs = t - t[0]
    else:
        raise InvalidParamsError(f"unknown abscissa policy {abscissa!r}")
    return ChannelSeries(xs, ordinate)


@dataclass
class FileIssue:
    path: str
    error: str


def sample_order(sample):
    """The one order of samples in a batch: numeric user ids first, then the sample number.

    Takes anything with ``user_id`` and ``sample_index``: a sample or its vector.
    """
    user = sample.user_id
    return (0, int(user)) if user.isdecimal() else (1, user), sample.sample_index


@dataclass
class DatasetIndex:
    """Parsed samples in ``sample_order``, with non-fatal warnings and per-file errors."""

    parsed: list = field(default_factory=list)  # list[SignatureSample]
    warnings: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # list[FileIssue]

    def samples(self):
        return list(self.parsed)

    def counts(self):
        """user_id -> (genuine, forged) sample counts, users in sample order."""
        out = {}
        for s in self.parsed:
            g, f = out.get(s.user_id, (0, 0))
            out[s.user_id] = (g + 1, f) if s.label == GENUINE else (g, f + 1)
        return out

    def point_count_histogram(self):
        bin_width = 50  # points
        counts = [s.n_points for s in self.parsed]
        if not counts:
            return {}
        lo = (min(counts) // bin_width) * bin_width
        hi = max(counts) + bin_width
        edges = np.arange(lo, hi + bin_width, bin_width)
        hist, _ = np.histogram(counts, bins=edges)
        return {
            f"[{int(edges[i])}, {int(edges[i + 1])})": int(hist[i])
            for i in range(len(hist))
            if hist[i] > 0
        }


def load_dataset(root):
    """Parse every matching file under ``root`` into a DatasetIndex.

    Numbers are read as integers: of ``U01S01.txt`` and ``U1S1.TXT`` the
    first in name order that parses is kept, the other is a duplicate in
    ``errors``. Bad files fail individually and are collected there too;
    one bad capture never aborts a batch. Per-user counts are reported, not
    enforced.
    """
    root = Path(root)
    if not root.is_dir():
        raise DirectoryNotFoundError(f"no such directory: {root}")
    index = DatasetIndex()
    matched = 0
    loaded = {}  # (user, sample number) -> the path it was read from
    for path in sorted(root.iterdir()):
        m = NAME_PATTERN.search(path.name)
        if not m:
            continue
        matched += 1
        user = m.group("user")
        user = str(int(user)) if user.isdecimal() else user  # U01 and U1 are one user
        sample_no = int(m.group("sample"))
        if (user, sample_no) in loaded:
            issue = f"duplicate of {loaded[user, sample_no]}: user {user}, sample {sample_no}"
            index.errors.append(FileIssue(str(path), issue))
            continue
        label = GENUINE if sample_no <= GENUINE_MAX else FORGED
        try:
            sample = parse_sample(path.read_text(), user, sample_no, label, str(path))
        except Exception as exc:  # noqa: BLE001 - per-file errors are report entries
            index.errors.append(FileIssue(str(path), f"{type(exc).__name__}: {exc}"))
            continue
        loaded[user, sample_no] = sample.source_path
        index.warnings.extend(check_sample(sample, source=sample.source_path))
        index.parsed.append(sample)
    if matched == 0:
        index.warnings.append(f"{root}: no files matched pattern {NAME_PATTERN.pattern!r}")
    index.parsed.sort(key=sample_order)
    return index


def dataset_manifest(index):
    """JSON-ready listing: one entry per parsed sample, with the file it came from."""
    entries = [
        {
            "user_id": s.user_id,
            "sample_index": s.sample_index,
            "label": s.label,
            "n_points": s.n_points,
            "source_path": s.source_path,
        }
        for s in index.samples()
    ]
    return {
        "samples": entries,
        "point_count_histogram": index.point_count_histogram(),
        "warnings": index.warnings,
        "errors": [{"path": e.path, "error": e.error} for e in index.errors],
    }
