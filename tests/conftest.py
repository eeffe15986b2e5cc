"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.collectives import CommCostModel
from repro.cluster.topology import h100_cluster
from repro.model.config import gpt_24
from repro.model.cost import ModelCost, build_layer_specs, fresh_states


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def gpt24_specs():
    return build_layer_specs(gpt_24())


@pytest.fixture
def gpt24_cost(gpt24_specs):
    return ModelCost(gpt24_specs)


@pytest.fixture
def gpt24_states(gpt24_specs):
    return fresh_states(len(gpt24_specs))


@pytest.fixture
def small_cluster():
    return h100_cluster(num_nodes=2, gpus_per_node=4)


@pytest.fixture
def comm(small_cluster):
    return CommCostModel(small_cluster)
