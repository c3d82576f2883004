"""Shared fixtures: the bundled repository and composed paper systems.

Composition of the big models is cached per session; tests must not mutate
the returned trees (clone first if you need to).
"""

from __future__ import annotations

import pytest

from repro.composer import Composer
from repro.ir import IRModel
from repro.modellib import standard_repository
from repro.runtime import xpdl_init_from_model
from repro.simhw import testbed_from_model


@pytest.fixture(scope="session")
def repo():
    return standard_repository()


@pytest.fixture(scope="session")
def liu_server(repo):
    return Composer(repo).compose("liu_gpu_server")


@pytest.fixture(scope="session")
def myriad_server(repo):
    return Composer(repo).compose("myriad_server")


@pytest.fixture(scope="session")
def xs_cluster(repo):
    return Composer(repo).compose("XScluster")


@pytest.fixture(scope="session")
def liu_ctx(liu_server):
    return xpdl_init_from_model(
        IRModel.from_model(liu_server.root, {"system": "liu_gpu_server"})
    )


@pytest.fixture(scope="session")
def liu_testbed(liu_server):
    return testbed_from_model(liu_server.root)


@pytest.fixture(scope="session")
def fleet_cluster_dir(tmp_path_factory):
    """The generated corpus whose first system, ``gen_sys0`` (21
    machines), the fleet benchmark sweeps."""
    from repro.corpus import generate_corpus

    path = tmp_path_factory.mktemp("fleet-corpus")
    generate_corpus(11, 40).write_to(str(path))
    return str(path)
