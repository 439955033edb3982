"""Shared fixtures for the serving-simulator tests."""

import pytest

from repro.serving.traffic import Request


class FakeServiceModel:
    """Deterministic stand-in for a CogSys :class:`~repro.backends.ExecutionCache`.

    Service time is ``base[workload] * (0.5 + 0.5 * batch)`` — linear in the
    batch with a fixed amortized offset, so a batch of ``b`` costs less than
    ``b`` single-request launches (mirroring the real model's dispatch
    amortization) while unit tests stay instant and hand-checkable.
    """

    scheduler = "fake"

    def __init__(self, base=None):
        self.base = dict(base or {"nvsa": 1.0, "mimonet": 0.25, "lvrf": 1.0, "prae": 1.0})
        self.calls = 0

    def service_seconds(self, workload, batch_size):
        self.calls += 1
        return self.base[workload] * (0.5 + 0.5 * batch_size)

    def energy_joules(self, workload, batch_size):
        # 1 W chip: energy == occupancy seconds.
        return self.service_seconds(workload, batch_size)

    @property
    def cached_reports(self):
        return len(self.base)


def _check_telemetry_contract(result):
    """The one telemetry contract of every whole-run serving path.

    Every offered request (completed, lost or shed) counts once under
    ``arrivals``, every shed request once under ``shed`` and every
    completion once under ``completions``; provenance reports the offered
    count.
    """
    series = result.telemetry
    assert sum(series.column("arrivals")) == (
        result.num_requests + result.requests_lost + result.requests_shed
    )
    assert sum(series.column("shed")) == result.requests_shed
    assert sum(series.column("completions")) == result.num_requests
    assert result.provenance["num_requests"] == result.requests_arrived


@pytest.fixture(scope="session")
def telemetry_contract():
    """Asserts :func:`_check_telemetry_contract` on a finished result."""
    return _check_telemetry_contract


@pytest.fixture
def fake_model():
    """A fast fake service model with 1 s nvsa / 0.25 s mimonet batches."""
    return FakeServiceModel()


@pytest.fixture
def make_requests():
    """Build a request list from ``(workload, arrival_s)`` tuples."""

    def _make(entries):
        return [
            Request(request_id=index, workload=workload, arrival_s=arrival)
            for index, (workload, arrival) in enumerate(entries)
        ]

    return _make
