"""The long-lived model service (Sec. VI deployment: models queried in
operation).

:class:`ModelHost` owns one toolchain session and keeps compiled query
indexes hot across requests; :class:`XpdlHttpServer` puts an HTTP/JSON
front on it (``xpdl serve``); :class:`ServiceClient` talks to a running
daemon.  :mod:`repro.service.options` centralizes the repository wiring
shared by every CLI entry point.
"""

from .client import ServiceClient, ServiceClientError
from .core import (
    DEFAULT_ANALYSES,
    DEFAULT_MAX_MODEL_BYTES,
    DEFAULT_RELOAD_TTL_S,
    HostedModel,
    ModelHost,
    ServiceError,
    format_info,
    format_query_results,
    handle_payload,
    info_payload,
    merged_doctor_report,
    run_analyses,
)
from .http import XpdlHttpServer, run_server
from .options import (
    RepositoryOptions,
    build_repository,
    repository_parent_parser,
)

__all__ = [
    "DEFAULT_ANALYSES",
    "DEFAULT_MAX_MODEL_BYTES",
    "DEFAULT_RELOAD_TTL_S",
    "HostedModel",
    "ModelHost",
    "RepositoryOptions",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
    "XpdlHttpServer",
    "build_repository",
    "format_info",
    "format_query_results",
    "handle_payload",
    "info_payload",
    "merged_doctor_report",
    "repository_parent_parser",
    "run_analyses",
    "run_server",
]
