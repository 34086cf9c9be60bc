"""Self-test of the host-speed scaling in :mod:`hostclock`.

    python3 -m pytest perfbench/test_hostclock.py
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostclock  # noqa: E402
from hostclock import MIN_SAMPLES, NOMINAL_S, HostClock  # noqa: E402


def _clock(tmp_path, samples) -> HostClock:
    """A clock reading ``(time, cost)`` samples from a file, with no
    sampler process."""
    out = tmp_path / "samples.txt"
    out.write_text("".join(f"{t} {c}\n" for t, c in samples))
    return HostClock(out)


def test_scale_is_nominal_over_the_window_median(tmp_path):
    samples = [(float(t), 1e-3 * (t + 1)) for t in range(20)]
    clock = _clock(tmp_path, samples)
    # samples 4..10 fall inside; their median cost is 8e-3
    assert clock.scale(4.0, 10.0) == pytest.approx(NOMINAL_S / 8e-3)
    assert clock.scaled(2.0, 4.0, 10.0) == pytest.approx(
        2.0 * NOMINAL_S / 8e-3)


def test_short_window_widens_to_nearest_samples(tmp_path):
    samples = [(float(t), 1e-3 * (t + 1)) for t in range(20)]
    clock = _clock(tmp_path, samples)
    # one sample inside; the MIN_SAMPLES nearest to 10.1 are 8..12
    nearest = [1e-3 * (t + 1) for t in range(8, 8 + MIN_SAMPLES)]
    assert clock.scale(10.0, 10.2) == pytest.approx(
        NOMINAL_S / statistics.median(nearest))
    # past the last sample: the last MIN_SAMPLES
    last = [c for _, c in samples[-MIN_SAMPLES:]]
    assert clock.scale(50.0, 51.0) == pytest.approx(
        NOMINAL_S / statistics.median(last))


def test_cut_short_last_line_is_ignored(tmp_path):
    out = tmp_path / "samples.txt"
    out.write_text("".join(f"{t}.0 0.002\n" for t in range(MIN_SAMPLES))
                   + "9.0")
    assert HostClock(out).scale(0.0, 9.0) == pytest.approx(NOMINAL_S / 2e-3)


def test_too_few_samples_raise(tmp_path):
    clock = _clock(tmp_path, [(0.0, 1e-3)])
    with pytest.raises(RuntimeError):
        clock.scale(0.0, 1.0)


def test_paired_uses_the_references_around_each_unit():
    refs = [1e-3, 2e-3, 3e-3, 4e-3, 5e-3, 6e-3, 7e-3]
    scales = hostclock.paired(refs)
    assert len(scales) == len(refs)
    assert scales[0] == pytest.approx(NOMINAL_S / 2e-3)    # 1, 2, 3
    assert scales[3] == pytest.approx(NOMINAL_S / 4e-3)    # 2 .. 6
    assert scales[6] == pytest.approx(NOMINAL_S / 6e-3)    # 5, 6, 7


def test_sampler_runs_and_stops(tmp_path):
    with HostClock(tmp_path / "samples.txt") as clock:
        process = clock.process
        assert process.poll() is None
        assert clock.scale(0.0, 1e12) > 0
    assert process.poll() is not None
