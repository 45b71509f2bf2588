"""Shared fixtures: a small deterministic MIMIC deployment reused across tests."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro.mimic import MimicGenerator, build_polystore
from repro.mimic.generator import MimicDataset


SMALL_GENERATOR = MimicGenerator(
    patient_count=60,
    waveform_patients=3,
    waveform_samples=1000,
    sample_rate_hz=50.0,
    anomaly_fraction=1.0,
    seed=42,
)

#: The CAST round-trip properties at full size, for CI
#: (``pytest tests/test_cast_roundtrip_property.py --hypothesis-profile=cast-extended``);
#: tier-1 runs them on a small fixed-seed sample.
settings.register_profile(
    "cast-extended", max_examples=400, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@pytest.fixture(scope="session")
def mimic_dataset() -> MimicDataset:
    """A small synthetic MIMIC II dataset (generated once per test session)."""
    return SMALL_GENERATOR.generate()


@pytest.fixture()
def deployment(mimic_dataset):
    """A freshly loaded polystore over the shared dataset (per test, engines are mutable)."""
    return build_polystore(dataset=mimic_dataset)
