"""Seeded synthetic workloads with ground-truth error injection — the
substitution for the proprietary datasets of the cited experiments."""

from repro.workloads.card_billing import (
    CardBillingConfig,
    CardBillingWorkload,
    generate_card_billing,
)
from repro.workloads.customer import (
    CustomerConfig,
    CustomerWorkload,
    generate_customers,
)
from repro.workloads.noise import (
    InjectedError,
    abbreviate_name,
    address_variant,
    pick_other,
    truncate,
    typo,
)
from repro.workloads.orders import OrdersConfig, OrdersWorkload, generate_orders
from repro.workloads.soak import (
    InProcessServer,
    ServerProcess,
    SoakConfig,
    SoakReport,
    run_soak,
    smoke_config,
)
from repro.workloads.stream import (
    BatchResult,
    StreamConfig,
    StreamReport,
    stream_edits,
)
from repro.workloads.tenants import TenantSpec, make_tenants, zipf_weights

__all__ = [
    "BatchResult",
    "CardBillingConfig",
    "CardBillingWorkload",
    "CustomerConfig",
    "CustomerWorkload",
    "InProcessServer",
    "InjectedError",
    "OrdersConfig",
    "OrdersWorkload",
    "ServerProcess",
    "SoakConfig",
    "SoakReport",
    "StreamConfig",
    "StreamReport",
    "TenantSpec",
    "abbreviate_name",
    "address_variant",
    "generate_card_billing",
    "generate_customers",
    "generate_orders",
    "make_tenants",
    "pick_other",
    "run_soak",
    "smoke_config",
    "stream_edits",
    "truncate",
    "typo",
    "zipf_weights",
]
