"""Shared repository/store assembly: one parser, one factory.

Every ``xpdl`` subcommand — and the ``xpdl serve`` daemon — needs the
same wiring: a model search path (``-I DIR`` repeatable), optionally
served through a simulated manufacturer download site wrapped in the
resilience stack (``--simulate-remote``, ``--fault SPEC``,
``--retry-attempts``, ``--mirror-dir``, ``--no-mirror``).  This module
owns that wiring exactly once:

* :func:`repository_parent_parser` — an ``argparse`` parent parser
  declaring the flags; the CLI root parser and any standalone entry
  point inherit it with ``parents=[...]`` instead of re-declaring.
* :class:`RepositoryOptions` — the plain-data form of those flags,
  buildable from parsed args (:meth:`RepositoryOptions.from_args`) or
  directly in library code and tests.
* :func:`build_repository` — the one store-stack factory: plain
  search-path stores by default, the full resilience stack (seeded
  backoff retries, circuit breaker, offline mirror, fetch cache) when
  remote simulation or fault injection is requested.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Any

from ..repository import DEFAULT_MIRROR_DIR, ModelRepository

DEFAULT_RETRY_ATTEMPTS = 3


@dataclass(frozen=True)
class RepositoryOptions:
    """Everything needed to assemble the model repository's store stack."""

    include: tuple[str, ...] = ()
    simulate_remote: bool = False
    fault: str | None = None
    retry_attempts: int = DEFAULT_RETRY_ATTEMPTS
    mirror_dir: str | None = DEFAULT_MIRROR_DIR
    no_mirror: bool = False

    @staticmethod
    def from_args(args: Any) -> "RepositoryOptions":
        """Lift parsed argparse flags into options (missing attrs default)."""
        return RepositoryOptions(
            include=tuple(getattr(args, "include", None) or ()),
            simulate_remote=bool(getattr(args, "simulate_remote", False)),
            fault=getattr(args, "fault", None),
            retry_attempts=int(
                getattr(args, "retry_attempts", DEFAULT_RETRY_ATTEMPTS)
            ),
            mirror_dir=getattr(args, "mirror_dir", DEFAULT_MIRROR_DIR),
            no_mirror=bool(getattr(args, "no_mirror", False)),
        )

    def with_(self, **changes: Any) -> "RepositoryOptions":
        from dataclasses import replace

        return replace(self, **changes)

    @property
    def resilient(self) -> bool:
        return bool(self.simulate_remote or self.fault)


def repository_parent_parser() -> argparse.ArgumentParser:
    """The shared flags as an ``add_help=False`` argparse parent.

    Use with ``argparse.ArgumentParser(parents=[repository_parent_parser()])``
    so the CLI, the daemon and any future entry point expose identical
    repository wiring without repeating a single ``add_argument``.
    """
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "-I",
        "--include",
        action="append",
        metavar="DIR",
        help="extra model search-path directory (repeatable)",
    )
    resil = parent.add_argument_group(
        "distributed-repository resilience",
        "serve the model search path through a simulated remote store with "
        "retries, a circuit breaker and an offline mirror",
    )
    resil.add_argument(
        "--simulate-remote",
        action="store_true",
        help="wrap every store in a simulated manufacturer download site "
        "plus the resilience stack",
    )
    resil.add_argument(
        "--fault",
        metavar="SPEC",
        help="deterministic fault plan for the simulated remote "
        "(none | dead | fail:K | every:K | slow-fail:N[:FACTOR]; "
        "per-path rules as PATTERN=SPEC;...); implies --simulate-remote",
    )
    resil.add_argument(
        "--retry-attempts",
        type=int,
        default=DEFAULT_RETRY_ATTEMPTS,
        metavar="N",
        help=f"fetch attempts per descriptor before giving up "
        f"(default {DEFAULT_RETRY_ATTEMPTS})",
    )
    resil.add_argument(
        "--mirror-dir",
        default=DEFAULT_MIRROR_DIR,
        metavar="DIR",
        help=f"offline mirror root (default {DEFAULT_MIRROR_DIR})",
    )
    resil.add_argument(
        "--no-mirror",
        action="store_true",
        help="disable the offline mirror layer",
    )
    return parent


def build_repository(options: RepositoryOptions | None = None) -> ModelRepository:
    """The model repository for ``options`` (one factory for CLI + daemon).

    Plain search-path stores by default; with remote simulation (or fault
    injection) each store is served through a simulated manufacturer
    download site wrapped in the full resilience stack — seeded-backoff
    retries, circuit breaker, offline mirror, fetch cache — so behaviour
    under network failure is reproducible from every entry point.
    """
    from ..modellib import standard_repository
    from ..repository import FaultPlan, RemoteSimStore, resilient_stack

    opts = options or RepositoryOptions()
    repo = standard_repository(*opts.include)
    if not opts.resilient:
        return repo
    mirror_root = None if opts.no_mirror else opts.mirror_dir
    stores = []
    for i, store in enumerate(repo.stores):
        plan = FaultPlan.parse(opts.fault) if opts.fault else None
        remote = RemoteSimStore(
            store, host=f"models{i}.xpdl.example", faults=plan
        )
        mirror_dir = (
            os.path.join(mirror_root, f"store{i}") if mirror_root else None
        )
        stores.append(
            resilient_stack(
                remote, attempts=opts.retry_attempts, mirror_dir=mirror_dir
            )
        )
    return ModelRepository(stores)

