"""Fixtures shared by the network tests."""

import pytest

from exactrnn import network


@pytest.fixture
def kernels_built(monkeypatch):
    """Every kernel built while the test runs, in order, rebuilds
    included: step kernels, and chain kernels in the form step runs them
    (a method of their pattern); None for a pattern that took the
    interpreted loop instead."""
    built, build = [], network._kernel

    def recording(cfg, state, x):
        kern = build(cfg, state, x)
        built.append(kern)
        return kern

    monkeypatch.setattr(network, "_kernel", recording)
    return built


@pytest.fixture
def hot(monkeypatch, kernels_built):
    """Every config hot from its first step and every pattern given its
    kernel on first sight, so that each short step runs a kernel (a
    silent pattern that run_word steps gets a step kernel and, once the
    step has taught it its successor, its chain kernel); returns the
    kernels built."""
    monkeypatch.setattr(network, "_HOT_STEPS", 0)
    monkeypatch.setattr(network, "_SIGHTINGS", 1)
    return kernels_built
