"""Shared fixtures: small schemas and the paper's instances.

Also registers the hypothesis settings profiles: the default "dev"
profile keeps hypothesis's standard deadline, while "ci" disables
per-example deadlines entirely — loaded CI runners stall for longer than
any fixed deadline, and a wall-clock deadline would turn that into flakes.  Select with
``HYPOTHESIS_PROFILE=ci`` (the CI workflow does).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile("dev", settings())
settings.register_profile(
    "ci",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.paper import (
    customer_schema,
    fig1_fds,
    fig1_instance,
    fig2_cfds,
    fig3_instance,
    fig4_cinds,
    source_target_schema,
)
from repro.relational.domains import INT, STRING
from repro.relational.instance import DatabaseInstance
from repro.relational.schema import DatabaseSchema, RelationSchema


@pytest.fixture
def ab_schema() -> RelationSchema:
    """A tiny two-attribute string relation R(A, B)."""
    return RelationSchema("R", [("A", STRING), ("B", STRING)])


@pytest.fixture
def abc_schema() -> RelationSchema:
    """R(A, B, C) over strings."""
    return RelationSchema("R", [("A", STRING), ("B", STRING), ("C", STRING)])


@pytest.fixture
def ab_db(ab_schema) -> DatabaseInstance:
    """An empty database over R(A, B)."""
    return DatabaseInstance(DatabaseSchema([ab_schema]))


@pytest.fixture
def customers() -> DatabaseInstance:
    return fig1_instance()


@pytest.fixture
def customer_rel_schema() -> RelationSchema:
    return customer_schema()


@pytest.fixture
def fig2() -> dict:
    return fig2_cfds()


@pytest.fixture
def fig1_fd_list() -> list:
    return fig1_fds()


@pytest.fixture
def orders_db() -> DatabaseInstance:
    return fig3_instance()


@pytest.fixture
def fig4() -> dict:
    return fig4_cinds()


@pytest.fixture
def orders_schema() -> DatabaseSchema:
    return source_target_schema()
