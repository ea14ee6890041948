"""Fixtures shared by the test modules."""

import pytest

from rentlab import generators


@pytest.fixture
def trial_reads(monkeypatch):
    """The ``(seed, salt)`` of every block the trial reader hashes, in order,
    recorded at ``generators._units``, the one place that hashes, through
    which ``generators._grid_trial`` reads: salt 2b + lane is block b of the
    lane, and a trial's job count is read from lane 0, first from salt 0."""
    read, units = [], generators._units

    def recording(seed, salt, width):
        read.append((int.from_bytes(seed, "little", signed=True), salt))
        return units(seed, salt, width)

    monkeypatch.setattr(generators, "_units", recording)
    return read
