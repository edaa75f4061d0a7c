import numpy as np
import pytest

from sigfit import ingest, synth


def make_series(x, y):
    """ChannelSeries-shaped pair of float arrays for solver/model tests."""
    return ingest.ChannelSeries(np.asarray(x, dtype=float), np.asarray(y, dtype=float))


@pytest.fixture(scope="session")
def small_dataset():
    """Three users, in memory; user 1 samples 1-2 pinned at 500/270 points."""
    return synth.generate_samples(n_users=3)


@pytest.fixture(scope="session")
def reference_series(small_dataset):
    """User 1, sample 1, x-coordinate channel: the fit-report reference."""
    return ingest.extract_channel(small_dataset[0], 1)


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    """Two users on disk in SVC2004 format."""
    root = tmp_path_factory.mktemp("svcdata")
    synth.write_dataset(root, n_users=2)
    return root
