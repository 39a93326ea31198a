"""Fixtures for the observability tests."""

from __future__ import annotations

import pytest

from repro.obs import metrics as obs_metrics


@pytest.fixture(autouse=True)
def clean_metrics_state():
    """Every obs test starts with no registry installed."""
    obs_metrics.disable()
    yield
    obs_metrics.disable()
