"""Static analyses over composed models: synthesized attributes, bandwidth
downgrading, lint and configurable filtering (paper Sec. IV)."""

from .synthesized import (
    NON_PHYSICAL_KINDS,
    STANDARD_ENGINE,
    SynthesisEngine,
    SynthesizedAttribute,
    count_cores,
    count_cuda_devices,
    physical_children,
    physical_walk,
    total_static_power,
)
from .bandwidth import (
    LinkReport,
    derive_bandwidths,
    downgrade_bandwidths,
    path_bandwidth,
    topology_graph,
)
from .lint import (
    LintReport,
    count_placeholders,
    lint_model,
    placeholder_sites,
)
from .doctor import (
    REPOSITORY_SCOPE,
    RULE_CATALOG,
    DoctorReport,
    DoctorRule,
    Finding,
    RuleContext,
    check_repository,
    check_system,
    rule,
    rule_catalog,
)
from .control import (
    ControlNode,
    ControlRelation,
    control_summary,
    extend_schema_with_control,
    infer_control_relation,
)
from .filters import (
    FilterConfig,
    filter_model,
    runtime_default_filter,
)

__all__ = [
    "NON_PHYSICAL_KINDS",
    "STANDARD_ENGINE",
    "SynthesisEngine",
    "SynthesizedAttribute",
    "count_cores",
    "count_cuda_devices",
    "physical_children",
    "physical_walk",
    "total_static_power",
    "LinkReport",
    "derive_bandwidths",
    "downgrade_bandwidths",
    "path_bandwidth",
    "topology_graph",
    "REPOSITORY_SCOPE",
    "RULE_CATALOG",
    "DoctorReport",
    "DoctorRule",
    "Finding",
    "RuleContext",
    "check_repository",
    "check_system",
    "rule",
    "rule_catalog",
    "LintReport",
    "count_placeholders",
    "lint_model",
    "placeholder_sites",
    "ControlNode",
    "ControlRelation",
    "control_summary",
    "extend_schema_with_control",
    "infer_control_relation",
    "FilterConfig",
    "filter_model",
    "runtime_default_filter",
]
