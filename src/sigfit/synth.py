"""Deterministic generator of SVC2004-format pen-capture samples.

Produces signature-like multi-channel series for development, tests and
benchmarks when no real capture data is on disk: coordinate channels are a
level plus a few sinusoidal strokes with drift and sensor noise,
timestamps tick at a fixed device interval, the button channel carries a
handful of pen-up gaps, and angle/pressure channels move slowly. Genuine
samples of one user share a latent template with small jitter; forgeries
perturb the same template much harder, mimicking a skilled forger who
reproduces shape but not dynamics.

Everything derives from ``numpy.random.SeedSequence`` spawned per (seed,
user, sample), so a given seed always yields byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import InvalidParamsError
from .ingest import FORGED, GENUINE, GENUINE_MAX, SignatureSample, serialize_sample

DEFAULT_SEED = 20040501
DEVICE_TICK_MS = 10


@dataclass(frozen=True)
class _Tone:
    amp: float
    freq: float
    phase: float


@dataclass(frozen=True)
class _CoordTemplate:
    level: float
    tones: tuple


def _separated_frequencies(rng, n):
    """n angular frequencies on a jittered lattice, coarse strokes first.

    Guaranteed pairwise separation of ``spacing - jitter``: tones closer
    than a couple of DFT bins at the shortest sample lengths are not
    resolvable and would not appear in real pen strokes anyway.
    """
    lo, spacing, jitter = 0.035, 0.093, 0.008
    return (lo + np.arange(n) * spacing + rng.uniform(0.0, jitter, n)).tolist()


def _tones(rng, amp0_range, decay, scale_range):
    """Ten separated tones, amplitudes falling as (j + 1) ** -decay, with
    per-tone (scale, phase) draws."""
    freqs = _separated_frequencies(rng, 10)
    amp0 = rng.uniform(*amp0_range)
    draws = rng.uniform((scale_range[0], 0.0), (scale_range[1], 2 * np.pi), (len(freqs), 2))
    return tuple(
        _Tone(amp0 * (j + 1) ** -decay * scale, f, phase)
        for j, (f, (scale, phase)) in enumerate(zip(freqs, draws.tolist()))
    )


def _coord_template(rng):
    """Stroke-like trajectory: one big slow sweep plus decaying harmonics.

    Ten separated tones, so a pen trace is rich but still representable by
    an eleven-term periodic model. Swing is large relative to the level,
    as on a real tablet where the pen crosses most of the surface.
    """
    tones = _tones(rng, (1100, 1900), 0.75, (0.7, 1.3))
    swing = np.sqrt(0.5 * sum(t.amp**2 for t in tones))
    return _CoordTemplate(level=swing * rng.uniform(1.4, 2.2), tones=tones)


def _angle_template(rng, level_range, amp0_range):
    """Orientation channels: slow posture drift plus stroke-rate tremor."""
    tones = _tones(rng, amp0_range, 0.9, (0.6, 1.4))
    return _CoordTemplate(level=rng.uniform(*level_range), tones=tones)


@dataclass(frozen=True)
class UserTemplate:
    user_id: str
    x: _CoordTemplate
    y: _CoordTemplate
    azimuth: _CoordTemplate
    altitude: _CoordTemplate
    pressure_peak: float
    pressure_tone: _Tone
    n_points: int


def make_user_template(user_id, rng):
    return UserTemplate(
        user_id=user_id,
        x=_coord_template(rng),
        y=_coord_template(rng),
        azimuth=_angle_template(rng, (900, 1900), (40, 160)),
        altitude=_angle_template(rng, (400, 800), (20, 90)),
        pressure_peak=rng.uniform(350, 900),
        pressure_tone=_Tone(rng.uniform(20, 80), rng.uniform(0.05, 0.25), rng.uniform(0, 2 * np.pi)),
        n_points=int(rng.integers(210, 290)),
    )


# per-tone (amplitude scale, frequency scale, phase shift) bounds, and the
# level shift bound: a forger's error, then a genuine writer's jitter
_FORGED_JITTER = ((0.55, 0.96, -0.7), (1.45, 1.04, 0.7)), 500
_GENUINE_JITTER = ((0.93, 0.99, -0.12), (1.07, 1.01, 0.12)), 50


def _jitter_coord(tpl, rng, forged):
    (lo, hi), shift = _FORGED_JITTER if forged else _GENUINE_JITTER
    level = tpl.level + rng.uniform(-shift, shift)
    draws = rng.uniform(lo, hi, (len(tpl.tones), 3))
    tones = [
        _Tone(t.amp * scale, t.freq * fscale, t.phase + dphase)
        for t, (scale, fscale, dphase) in zip(tpl.tones, draws.tolist())
    ]
    return level, tones


def _coord_series(tpl, idx, rng, forged, noise_sd=20.0):
    level, tones = _jitter_coord(tpl, rng, forged)
    y = np.full(idx.size, level)
    for t in tones:
        y = y + t.amp * np.sin(t.freq * idx + t.phase)
    return y + rng.normal(0, noise_sd, idx.size)


def _button_series(n, rng):
    b = np.ones(n, dtype=np.int64)
    for _ in range(int(rng.integers(2, 5))):
        start = int(rng.integers(5, max(n - 8, 6)))
        b[start : start + int(rng.integers(2, 7))] = 0
    return b


def make_sample(template, sample_index, rng, forged=False, n_points=None):
    """One capture from a user template; genuine jitter or forger error."""
    if n_points is None:
        n_points = template.n_points + int(rng.integers(-15, 16))
    n = max(int(n_points), 16)
    idx = np.arange(n, dtype=float)
    x = _coord_series(template.x, idx, rng, forged)
    y = _coord_series(template.y, idx, rng, forged)
    t0 = 75_000_000 + int(rng.integers(0, 5_000_000))
    ticks = np.full(n, DEVICE_TICK_MS, dtype=np.int64)
    ticks[rng.random(n) < 0.02] += DEVICE_TICK_MS  # occasional dropped frame
    ticks[0] = 0
    timestamps = t0 + np.cumsum(ticks)
    button = _button_series(n, rng)
    az = _coord_series(template.azimuth, idx, rng, forged, noise_sd=6.0)
    alt = _coord_series(template.altitude, idx, rng, forged, noise_sd=5.0)
    envelope = np.sin(np.pi * (idx + 1) / (n + 1)) ** 0.5
    pressure = template.pressure_peak * envelope + template.pressure_tone.amp * np.sin(
        template.pressure_tone.freq * idx + template.pressure_tone.phase
    )
    pressure = pressure * button + rng.normal(0, 4, n)
    data = np.column_stack(
        [
            np.rint(x),
            np.rint(y),
            timestamps,
            button,
            np.rint(np.maximum(az, 0)),
            np.rint(np.maximum(alt, 0)),
            np.rint(np.maximum(pressure, 0)),
        ]
    ).astype(np.int64)
    label = FORGED if forged else GENUINE
    return SignatureSample(template.user_id, sample_index, label, data)


def generate_samples(n_users=12, seed=DEFAULT_SEED, genuine=20, forged=20):
    """In-memory dataset: ``genuine`` + ``forged`` samples per user.

    The first user's first two samples are pinned at 500 and 270 points so
    batches always contain markedly different lengths. At least one user
    and one sample per user are required; negative counts are refused.
    """
    if n_users < 1:
        raise InvalidParamsError(f"users {n_users} < 1: nothing to generate")
    if genuine < 0 or forged < 0:
        raise InvalidParamsError(f"negative sample count: genuine {genuine}, forged {forged}")
    if genuine + forged == 0:
        raise InvalidParamsError("genuine + forged is 0: nothing to generate")
    samples = []
    for u in range(1, n_users + 1):
        user_id = str(u)
        user_rng = np.random.default_rng(np.random.SeedSequence([seed, u, 0]))
        template = make_user_template(user_id, user_rng)
        for s in range(1, genuine + forged + 1):
            rng = np.random.default_rng(np.random.SeedSequence([seed, u, s]))
            is_forged = s > genuine
            n_points = None
            if u == 1 and s == 1:
                n_points = 500
            elif u == 1 and s == 2:
                n_points = 270
            samples.append(make_sample(template, s, rng, is_forged, n_points))
    return samples


def dataset_files(n_users=12, seed=DEFAULT_SEED, genuine=20, forged=20):
    """(U<user>S<sample>.TXT, text) pairs, each text serialized as it is read.

    The samples are made now, so refused counts raise here. File numbers follow the 20 + 20 convention ``ingest.load_dataset``
    labels by: genuine samples are S1..S<genuine> and forgeries are
    numbered from S21 on, whatever the split, so the loader reads back the
    labels written here. More than 20 genuine samples cannot be labelled
    that way and are refused, as are the counts ``generate_samples`` refuses.
    """
    if genuine > GENUINE_MAX:
        raise InvalidParamsError(
            f"genuine {genuine} > {GENUINE_MAX}: the loader labels files "
            f"S{GENUINE_MAX + 1} and up as forgeries"
        )
    samples = generate_samples(n_users, seed, genuine, forged)
    shift = GENUINE_MAX - genuine
    return (
        (f"U{s.user_id}S{s.sample_index + (shift if s.label == FORGED else 0)}.TXT",
         serialize_sample(s))
        for s in samples
    )


def write_dataset(root, n_users=12, seed=DEFAULT_SEED, genuine=20, forged=20):
    """Write ``dataset_files`` under root, each as it is made; returns the paths.

    Refused counts write nothing.
    """
    files = dataset_files(n_users, seed, genuine, forged)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in files:
        (root / name).write_text(text)
        paths.append(root / name)
    return paths
