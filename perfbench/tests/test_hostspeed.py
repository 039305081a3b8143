import pytest

from hostspeed import NOMINAL_S, WINDOW_S, HostSpeed


def test_scale_uses_the_probes_around_a_moment():
    speed = HostSpeed()
    w = WINDOW_S
    speed.times = [0.0, 0.5 * w, w, 10 * w]
    speed.durations = [NOMINAL_S, 2 * NOMINAL_S, 2 * NOMINAL_S, 4 * NOMINAL_S]
    assert speed.scale(0.4 * w) == pytest.approx(0.5)  # the first three
    assert speed.scale(5 * w) == pytest.approx(1 / 3)  # none near: 3rd and 4th
    assert speed.scale(30 * w) == pytest.approx(0.25)  # past the end: the 4th


def test_probe_records_the_kernel_time():
    speed = HostSpeed()
    end = speed.probe()
    assert speed.times[0] < end and speed.durations[0] > 0
    assert speed.probe_if_due() is None  # not due straight after a probe
    assert speed.scale(speed.times[0]) == pytest.approx(NOMINAL_S / speed.durations[0])


def test_scale_needs_a_probe():
    with pytest.raises(ValueError):
        HostSpeed().scale(0.0)
