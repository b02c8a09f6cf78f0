"""Fixtures shared by the network tests."""

import pytest

from exactrnn import network


@pytest.fixture
def kernels_built(monkeypatch):
    """Every kernel built while the test runs, in order, rebuilds at a
    new successor included; None for a pattern whose input is not all
    int, which takes the interpreted loop instead."""
    built, build = [], network._kernel

    def recording(cfg, pat):
        kern = build(cfg, pat)
        built.append(kern)
        return kern

    monkeypatch.setattr(network, "_kernel", recording)
    return built


@pytest.fixture
def hot(monkeypatch, kernels_built):
    """Every config hot from its first step and every pattern given its
    kernel on first sight, after the interpreted step that taught it its
    first successor, so that each later step runs a kernel, in step or
    in a chain of run_word, unless it reaches a successor its pattern
    has not seen; returns the kernels built."""
    monkeypatch.setattr(network, "_HOT_STEPS", 0)
    monkeypatch.setattr(network, "_SIGHTINGS", 1)
    return kernels_built
