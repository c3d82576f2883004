"""The ``xpdl`` command-line toolchain (paper Sec. IV).

Subcommands cover the whole processing pipeline::

    xpdl list                          # descriptors in the repository
    xpdl validate <ident>              # schema validation + lint
    xpdl compose <ident> [-o out.xir]  # compose + analyses + runtime IR
    xpdl build [ident ...]             # parallel batch build of all systems
    xpdl doctor [ident ...]            # cross-descriptor static analysis
    xpdl gen --seed S --scale N -d DIR # seeded synthetic descriptor corpus
    xpdl fleet --model <ident>         # fleet energy/SLO policy simulation
    xpdl import model.yaml -d DIR      # CESDM YAML/JSON or PDL subset
    xpdl export DIR -o model.yaml      # descriptor tree -> CESDM document
    xpdl cache stats|clear|verify      # manage the persistent stage cache
    xpdl repo stats|mirror|check       # repository resilience & offline mirror
    xpdl query <file.xir> <path>       # path queries over a runtime model
    xpdl info <file.xir>               # analysis functions (cores, power...)
    xpdl benchgen <suite> -d DIR       # generate microbenchmark drivers
    xpdl bootstrap <ident>             # run simulated microbenchmarking
    xpdl codegen-cpp [-o file.hpp]     # generate the C++ query API
    xpdl codegen-py [-o file.py]       # generate the Python facade
    xpdl uml [--model <ident>]         # PlantUML views
    xpdl schema [-o xpdl_schema.xml]   # export the core schema
    xpdl discover [-d DIR]             # probe this host, emit descriptors
    xpdl to-pdl <ident>                # flatten to PEPPHER PDL (comparison)
    xpdl stats [ident ...]             # pipeline timings, counters, cache
    xpdl serve                         # long-lived model service (HTTP/JSON)

Every command that touches the repository obtains its artifacts through a
:class:`~repro.toolchain.ToolchainSession`: one repository, one shared
diagnostics sink (rendered once per invocation, with stage provenance) and
a stage cache, so e.g. a composition is performed once however many
downstream presentations consume it.

Extra search-path directories are added with ``-I DIR`` (repeatable).
``--trace`` (before the subcommand) streams the observability events of
the run as JSON-lines to stderr; ``--trace-out FILE`` writes them to a
file instead.  ``--simulate-remote`` serves the whole search path through
a simulated manufacturer download site wrapped in the resilience stack
(retries with backoff, circuit breaker, offline mirror); ``--fault SPEC``
injects a deterministic failure schedule into it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .diagnostics import DiagnosticSink, XpdlError
from .modellib import PAPER_SYSTEMS
from .obs import NULL_OBSERVER, Observer, get_observer, use_observer
from .schema import CORE_SCHEMA, schema_to_xml
from .service.core import (
    DEFAULT_MAX_MODEL_BYTES,
    DEFAULT_RELOAD_TTL_S,
    models_payload,
)
from .service.http import DEFAULT_ADDRESS, DEFAULT_PORT, DEFAULT_WORKERS
from .service.options import (
    RepositoryOptions,
    build_repository,
    repository_parent_parser,
)
from .toolchain import ToolchainSession
from .toolchain.diskcache import DEFAULT_CACHE_DIR


def _repository(args):
    """The model repository for this invocation (one shared factory).

    The flags live in :func:`repro.service.options.repository_parent_parser`
    and the assembly in :func:`repro.service.options.build_repository`, so
    the CLI and the ``xpdl serve`` daemon wire stores identically.
    """
    return build_repository(RepositoryOptions.from_args(args))


def _session(args) -> ToolchainSession:
    return ToolchainSession(_repository(args))


def _print_diagnostics(sink: DiagnosticSink) -> None:
    """Render the invocation's diagnostics exactly once, to stderr.

    Deduplicated: a diagnostic re-emitted by several systems or repeat
    rounds (shared unresolved refs, e.g.) prints once per invocation.
    """
    text = sink.render(dedupe=True)
    if text:
        print(text, file=sys.stderr)


def _observer() -> Observer:
    """This invocation's observer under ``--trace``, else a fresh one, for
    the commands that report counters whether they trace or not."""
    observer = get_observer()
    return observer if observer.enabled else Observer()


def _write_or_print(
    path: str | None, text: str, note: str | None = None, *, end: str = ""
) -> None:
    """Write ``text`` to ``path`` (``-o FILE``) and print ``note``
    (default ``wrote PATH``); without a path, print ``text`` and ``end``."""
    if not path:
        print(text, end=end)
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(note or f"wrote {path}")


def cmd_list(args) -> int:
    # The rows of the daemon's models op, so both list the same index.
    for row in models_payload(_repository(args))["models"]:
        print(
            f"{row['identifier']:32s} <{row['root_tag']}>  "
            f"{row['store']}{row['path']}"
        )
    return 0


def cmd_validate(args) -> int:
    session = _session(args)
    identifiers = (
        session.repository.identifiers() if args.all else [args.identifier]
    )
    if not identifiers or identifiers == [None]:
        print("xpdl: error: give an identifier or --all", file=sys.stderr)
        return 2
    for ident in identifiers:
        result = session.validate(ident)
        print(
            f"{ident}: {result.errors} error(s), "
            f"{result.warnings} warning(s), "
            f"{result.placeholders} placeholder(s)"
        )
    _print_diagnostics(session.sink)
    return 1 if session.sink.has_errors() else 0


def cmd_compose(args) -> int:
    session = _session(args)
    result = session.emit_ir(args.identifier, keep_all=args.keep_all)
    _print_diagnostics(session.sink)
    out = args.output or f"{args.identifier}.xir"
    result.ir.save(out)
    print(
        f"composed {args.identifier}: {len(result.ir)} elements, "
        f"{len(result.composed.referenced)} descriptors -> {out}"
    )
    return 1 if session.sink.has_errors() else 0


def cmd_build(args) -> int:
    """Batch-compile systems in parallel against the persistent cache."""
    from .toolchain import run_batch

    observer = _observer()
    sink = DiagnosticSink()
    cache_dir = None if args.no_cache else args.cache_dir
    report = run_batch(
        repository=_repository(args),
        identifiers=tuple(args.identifiers or ()),
        jobs=args.jobs,
        cache_dir=cache_dir,
        out_dir=args.out_dir,
        keep_all=args.keep_all,
        observer=observer,
        sink=sink,
    )
    _print_diagnostics(sink)
    for b in report.builds:
        if b.ok:
            sha = (b.ir_sha256 or "")[:12]
            where = f" -> {b.out_path}" if b.out_path else ""
            print(
                f"{b.identifier:24s} ok    {b.elements:5d} elements  "
                f"{b.referenced:3d} descriptors  {b.duration_s * 1e3:8.1f} ms  "
                f"[{sha}]{where}"
            )
        else:
            print(f"{b.identifier:24s} FAIL  {b.error}")
    built = sum(1 for b in report.builds if b.ok)
    cache = report.cache
    print(
        f"built {built}/{len(report.builds)} systems in {report.wall_s:.2f}s "
        f"({report.models_per_s:.1f} models/s, jobs={report.jobs}, "
        f"shards={len(report.shards)})"
    )
    print(
        f"stage cache: {cache.get('hits', 0)} memory + "
        f"{cache.get('disk_hits', 0)} disk hits, "
        f"{cache.get('misses', 0)} misses "
        f"(hit rate {report.hit_rate:.0%})"
        + (f"; persistent cache at {report.cache_dir}" if report.cache_dir else "")
    )
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_dict(), fh, indent=1, sort_keys=True)
        print(f"wrote report {args.json}")
    return 0 if report.ok and not sink.has_errors() else 1


def cmd_cache(args) -> int:
    """Inspect or maintain the persistent stage cache."""
    from .toolchain import PersistentStageCache

    cache = PersistentStageCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache:    {stats['path']}")
        print(f"version:  {stats['version']}")
        print(f"entries:  {stats['entries']}")
        print(f"bytes:    {stats['bytes']}")
        for stage, n in stats["stages"].items():
            print(f"  {stage:12s} {n}")
        print(f"images:   {stats['images']} ({stats['image_bytes']} bytes)")
        return 0
    if args.action == "clear":
        n = cache.clear()
        print(f"cleared {n} entr{'y' if n == 1 else 'ies'} from {cache.root}")
        return 0
    # verify
    checked, problems = cache.verify()
    for problem in problems:
        print(f"xpdl cache: {problem}", file=sys.stderr)
    print(
        f"verified {checked} entr{'y' if checked == 1 else 'ies'}: "
        f"{len(problems)} problem(s)"
    )
    return 1 if problems else 0


def cmd_repo(args) -> int:
    """Distributed-repository resilience tools (``xpdl repo ...``).

    ``stats``  — index summary, per-store health (fetches, retries,
    breaker state, mirror contents) and the ``repo.*`` counters.
    ``mirror`` — warm the offline mirror: fetch every descriptor through
    the resilience stack so a later run with a dead remote degrades to
    last-known-good copies (implies ``--simulate-remote``).
    ``check``  — fetch every indexed descriptor once and report typed
    failures; exits 1 when any descriptor is unreachable.
    """
    from .diagnostics import ResolutionError, TransientFetchError

    if args.action == "mirror" and not (args.simulate_remote or args.fault):
        args.simulate_remote = True  # mirroring needs the resilience stack
    observer = _observer()
    with use_observer(observer):
        session = _session(args)
        repo = session.repository
        index = repo.index(session.sink)

        if args.action == "stats":
            stats = repo.stats()
            print(f"stores:      {stats['stores']}")
            print(f"descriptors: {stats['descriptors']}")
            print(f"loaded:      {stats['loaded']}")
            for row in repo.store_stats():
                url = row.pop("url")
                detail = "  ".join(f"{k}={v}" for k, v in sorted(row.items()))
                print(f"  {url}")
                if detail:
                    print(f"      {detail}")
            counters = observer.counters_with_prefix("repo.")
            if counters:
                print("counters:")
                for name, total in counters.items():
                    print(f"  {name:34s} {total}")
            _print_diagnostics(session.sink)
            return 0

        if args.action == "mirror":
            # Indexing fetched every descriptor through the stack, which
            # write-through-populated the mirror; report what it holds.
            from .repository import OfflineMirrorStore, iter_store_chain

            entries = total_bytes = stored = 0
            roots = []
            for store in repo.stores:
                for layer in iter_store_chain(store):
                    if isinstance(layer, OfflineMirrorStore):
                        s = layer.stats()
                        entries += s["entries"]
                        total_bytes += s["bytes"]
                        stored += s["mirror_stores"]
                        roots.append(s["path"])
            _print_diagnostics(session.sink)
            if not roots:
                print(
                    "xpdl repo mirror: no offline mirror in the store stack "
                    "(use --mirror-dir)",
                    file=sys.stderr,
                )
                return 2
            print(
                f"mirror: {entries} descriptor(s), {total_bytes} bytes "
                f"({stored} newly stored) under "
                + ", ".join(sorted(set(os.path.dirname(r) or r for r in roots)))
            )
            return 1 if session.sink.has_errors() else 0

        # check: one real fetch per indexed descriptor, typed accounting.
        ok = transient = permanent = 0
        for ident in sorted(index):
            entry = index[ident]
            try:
                entry.store.fetch(entry.path)
                ok += 1
            except TransientFetchError as exc:
                transient += 1
                print(f"{ident}: transient: {exc}", file=sys.stderr)
            except ResolutionError as exc:
                permanent += 1
                print(f"{ident}: not found: {exc}", file=sys.stderr)
        _print_diagnostics(session.sink)
        print(
            f"checked {len(index)} descriptor(s): {ok} ok, "
            f"{transient} transient failure(s), {permanent} missing"
        )
        if not index and repo.stores:
            # Stores are configured but nothing indexed: every one of them
            # was unreachable (diagnosed above as XPDL0202).
            print("xpdl repo check: nothing indexed", file=sys.stderr)
            return 1
        return 1 if (transient or permanent or session.sink.has_errors()) else 0


def cmd_doctor(args) -> int:
    """Cross-descriptor static analysis: the model doctor (Sec. V)."""
    from .analysis import rule_catalog
    from .service.core import merged_doctor_report

    if args.list_rules:
        for row in rule_catalog():
            print(
                f"{row['rule']}  {row['severity']:8s} {row['scope']:11s} "
                f"{row['name']}: {row['summary']}"
            )
        return 0

    session = _session(args)
    suppress = tuple(args.suppress or ())
    # The merge lives in the service core so `xpdl doctor` and the
    # daemon's doctor op produce byte-identical JSON reports.
    merged = merged_doctor_report(
        session, list(args.identifiers or ()) or None, suppress=suppress
    )

    # Diagnostics of upstream stages (compose errors, ...) render as usual;
    # doctor findings are rendered from the report so warm cache runs —
    # which re-emit nothing through the sink — print identically.
    other = [d for d in session.sink if d.stage != "doctor"]
    if other:
        from .diagnostics import render_diagnostics

        text = render_diagnostics(other, sources=session.sink.sources, dedupe=True)
        if text:
            print(text, file=sys.stderr)

    if args.format == "json":
        text = json.dumps(merged.to_dict(), indent=1, sort_keys=True)
    else:
        lines = [
            f"{f.location}: {f.severity}: {f.message} [{f.rule}]"
            for f in sorted(
                merged.findings,
                key=lambda f: (f.rule, f.subject, f.location, f.message),
            )
        ]
        lines.append(
            f"doctor: {merged.errors} error(s), {merged.warnings} warning(s), "
            f"{merged.notes} note(s) — {len(merged.findings)} finding(s) over "
            f"{len(merged.checked)} subject(s), "
            f"{len(merged.rules_run)} rule(s)"
            + (
                f", suppressed: {', '.join(merged.suppressed)}"
                if merged.suppressed
                else ""
            )
        )
        text = "\n".join(lines)
    _write_or_print(args.output, text + "\n")
    return 1 if (not merged.ok() or session.sink.has_errors()) else 0


def cmd_gen(args) -> int:
    """Generate a seeded synthetic descriptor corpus (``xpdl gen``)."""
    from .corpus import GeneratorConfig, generate_corpus

    cfg = GeneratorConfig(seed=args.seed, scale=args.scale)
    corpus = generate_corpus(config=cfg)
    root = corpus.write_to(args.directory)
    print(
        f"generated {len(corpus)} descriptors "
        f"({len(corpus.systems)} systems, seed={cfg.seed}, "
        f"scale={cfg.scale}) -> {root}"
    )
    # The digest is the determinism contract: same seed+scale, same
    # sha256, in any process.
    print(f"sha256 {corpus.digest()}")
    return 0


def cmd_fleet(args) -> int:
    """Fleet-scale energy simulation under a time-varying load trace.

    Composes the model, compiles its runtime index, builds the simulated
    testbed and runs every requested DVFS governor policy over the same
    seeded trace, reporting per-policy energy and SLO attainment.
    """
    from .fleet import (
        GOVERNORS,
        index_state_catalog,
        make_trace,
        simulate_fleet,
    )
    from .runtime import xpdl_init_from_model
    from .simhw import testbed_from_model

    if not args.model:
        print("xpdl: error: fleet requires --model", file=sys.stderr)
        return 2
    session = _session(args)
    result = session.emit_ir(args.model)
    _print_diagnostics(session.sink)
    if session.sink.has_errors():
        return 1
    testbed = testbed_from_model(result.composed.root, name=args.model)
    ctx = xpdl_init_from_model(result.ir)
    catalog = index_state_catalog(ctx, testbed)
    trace = make_trace(
        args.trace_kind,
        seed=args.seed,
        intervals=args.intervals,
        interval_s=args.interval_s,
        machines=sorted(testbed.machines),
    )
    policies = list(args.policy or GOVERNORS)
    report = simulate_fleet(
        testbed,
        trace,
        policies,
        state_catalog=catalog,
        request_ops=args.request_ops,
    )
    _print_fleet_report(args, report)
    return 0


def _print_fleet_report(args, report) -> None:
    """A fleet or sweep report in ``--format``, to ``-o FILE`` or stdout."""
    if args.format == "json":
        text = report.to_json()
    else:
        text = report.render_table() + "\n"
    note = args.output and f"wrote {args.output} [{report.digest()[:12]}]"
    _write_or_print(args.output, text, note)


def cmd_fleet_sweep(args) -> int:
    """Parallel (policy, trace, seed) grid sweep over one fleet model.

    Composes the model once (persisting its XPDLRT02 image into the
    content-addressed cache), then shards the grid across worker
    processes that each reopen the image zero-copy and derive the
    power-state catalog through the compiled query engine.  The report
    is byte-identical for any ``--jobs``.
    """
    from .fleet import GOVERNORS, index_state_catalog, parse_seeds, run_sweep
    from .runtime import xpdl_init_from_model
    from .simhw import testbed_from_model
    from .toolchain import PersistentStageCache

    cache = None if args.no_cache else PersistentStageCache(args.cache_dir)
    session = ToolchainSession(_repository(args), disk_cache=cache)
    result = session.emit_ir(args.model)
    _print_diagnostics(session.sink)
    if session.sink.has_errors():
        return 1
    testbed = testbed_from_model(result.composed.root, name=args.model)
    image_path = None
    catalog = None
    if cache is not None and result.image_key:
        image_path = cache.find_image(result.image_key)
    if image_path is None:
        # No persisted image to hand the workers: build the catalog once
        # here and ship it, so workers still never re-index per cell.
        ctx = xpdl_init_from_model(result.ir)
        catalog = index_state_catalog(ctx, testbed)

    def _split(value: str) -> tuple[str, ...]:
        return tuple(s for s in (p.strip() for p in value.split(",")) if s)

    policies = _split(args.policy) if args.policy else tuple(GOVERNORS)
    report, stats = run_sweep(
        testbed,
        policies=policies,
        traces=_split(args.traces),
        seeds=parse_seeds(args.seeds),
        intervals=args.intervals,
        interval_s=args.interval_s,
        request_ops=args.request_ops,
        image_path=image_path,
        state_catalog=catalog,
        jobs=args.jobs,
    )
    _print_fleet_report(args, report)
    if args.stats_out:
        with open(args.stats_out, "w", encoding="utf-8") as fh:
            json.dump(stats.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(
            f"sweep stats: {stats.cells} cells, jobs={stats.jobs}, "
            f"{stats.wall_s:.2f}s -> {args.stats_out}",
            file=sys.stderr,
        )
    return 0


def _import_files(args) -> dict[str, str]:
    from .corpus import import_cesdm, import_pdl, load_cesdm

    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    fmt = args.format
    if fmt == "auto":
        lower = args.file.lower()
        if lower.endswith((".yaml", ".yml", ".json")):
            fmt = "cesdm"
        elif lower.endswith((".pdl", ".xml")):
            fmt = "pdl"
        else:
            fmt = "cesdm" if text.lstrip().startswith(("{", "cesdm")) else "pdl"
    if fmt == "pdl":
        return import_pdl(text, source_name=args.file)
    return import_cesdm(load_cesdm(text, source_name=args.file))


def cmd_import(args) -> int:
    """Import a foreign platform model (CESDM YAML/JSON or PDL subset)."""
    from .corpus import corpus_digest

    files = _import_files(args)
    for relpath, content in sorted(files.items()):
        path = os.path.join(args.directory, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)
    print(
        f"imported {len(files)} descriptor(s) -> {args.directory}"
    )
    print(f"sha256 {corpus_digest(files.items())}")
    if not args.check:
        return 0
    # --check: round-trip the imported tree through the doctor.
    from .service.core import merged_doctor_report

    opts = RepositoryOptions.from_args(args)
    opts = opts.with_(include=(args.directory, *opts.include))
    session = ToolchainSession(build_repository(opts))
    merged = merged_doctor_report(session, None)
    _print_diagnostics(session.sink)
    print(
        f"doctor: {merged.errors} error(s), {merged.warnings} warning(s) "
        f"over the imported tree"
    )
    return 1 if (not merged.ok() or session.sink.has_errors()) else 0


def cmd_export(args) -> int:
    """Export a descriptor tree as one CESDM YAML/JSON document."""
    from .corpus import export_cesdm

    files: dict[str, str] = {}
    for dirpath, _dirnames, filenames in sorted(os.walk(args.directory)):
        for fname in sorted(filenames):
            if not fname.endswith(".xpdl"):
                continue
            path = os.path.join(dirpath, fname)
            rel = os.path.relpath(path, args.directory)
            with open(path, encoding="utf-8") as fh:
                files[rel] = fh.read()
    if not files:
        print(
            f"xpdl export: no .xpdl descriptors under {args.directory}",
            file=sys.stderr,
        )
        return 2
    _write_or_print(
        args.output,
        export_cesdm(files, fmt=args.format),
        f"exported {len(files)} descriptor(s) -> {args.output}",
    )
    return 0


def cmd_query(args) -> int:
    from .runtime import query_all, xpdl_init
    from .service.core import format_query_results, handle_payload

    ctx = xpdl_init(args.file)
    # Render through the shared service helpers: the daemon's query op
    # and this command must print byte-identical results.
    results = [handle_payload(h) for h in query_all(ctx, args.path)]
    text = format_query_results(results)
    if text:
        print(text)
    return 0


def cmd_info(args) -> int:
    from .runtime import xpdl_init
    from .service.core import format_info, info_payload

    ctx = xpdl_init(args.file)
    print(format_info(info_payload(ctx)))
    return 0


def cmd_benchgen(args) -> int:
    from .microbench import generate_build_script, generate_marker_library, generate_suite
    from .model import Microbenchmarks

    session = _session(args)
    suite = session.load(args.suite).model
    if not isinstance(suite, Microbenchmarks):
        raise XpdlError(f"{args.suite!r} is not a microbenchmark suite")
    drivers = generate_suite(suite)
    os.makedirs(args.directory, exist_ok=True)
    for d in drivers:
        with open(os.path.join(args.directory, d.filename), "w") as fh:
            fh.write(d.source)
    with open(os.path.join(args.directory, "mb_markers.c"), "w") as fh:
        fh.write(generate_marker_library())
    script = generate_build_script(suite, drivers)
    script_path = os.path.join(args.directory, suite.attrs.get("command", "mbscript.sh"))
    with open(script_path, "w") as fh:
        fh.write(script)
    os.chmod(script_path, 0o755)
    print(f"generated {len(drivers)} drivers + script in {args.directory}")
    return 0


def cmd_bootstrap(args) -> int:
    session = _session(args)
    result = session.bootstrap(
        args.identifier,
        seed=args.seed,
        noise=args.noise,
        repetitions=args.repetitions,
    )
    _print_diagnostics(session.sink)
    total = 0
    for machine_name, report in result.reports:
        for run in report.runs:
            print(
                f"{machine_name:16s} {run.instruction:12s} "
                f"{run.energy_per_instruction.magnitude * 1e12:10.2f} pJ "
                f"(+-{run.relative_spread():.1%} over {run.repetitions} reps)"
            )
        total += len(report.runs)
    print(f"bootstrapped {total} instruction energies")
    return 0


def cmd_codegen_cpp(args) -> int:
    from .codegen import generate_cpp_header

    _write_or_print(args.output, generate_cpp_header(CORE_SCHEMA), end="\n")
    return 0


def cmd_codegen_py(args) -> int:
    from .codegen import generate_python_api

    _write_or_print(args.output, generate_python_api(CORE_SCHEMA), end="\n")
    return 0


def cmd_uml(args) -> int:
    from .codegen import model_to_plantuml, schema_to_plantuml

    if args.model:
        session = _session(args)
        composed = session.compose(args.model)
        print(model_to_plantuml(composed.root))
    else:
        print(schema_to_plantuml(CORE_SCHEMA))
    return 0


def cmd_schema(args) -> int:
    _write_or_print(args.output, schema_to_xml(CORE_SCHEMA), end="\n")
    return 0


def cmd_discover(args) -> int:
    from .discovery import canned_spec, emit_descriptors, probe_linux

    spec = probe_linux() if not args.canned else None
    if spec is None:
        spec = canned_spec()
        print("using canned host spec (probe unavailable or --canned)", file=sys.stderr)
    for relpath, text in emit_descriptors(spec).items():
        path = os.path.join(args.directory, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
        print(f"wrote {path}")
    return 0


def cmd_diff(args) -> int:
    from .model import from_document
    from .tools import diff_models, render_diff
    from .xpdlxml import parse_xml_file

    session = _session(args)

    def load_side(spec: str):
        if os.path.isfile(spec):
            return from_document(parse_xml_file(spec))
        return session.load(spec).model

    old = load_side(args.old)
    new = load_side(args.new)
    changes = diff_models(old, new)
    print(render_diff(changes))
    return 1 if changes else 0


def cmd_to_json(args) -> int:
    from .codegen import model_to_json

    session = _session(args)
    if args.compose:
        model = session.compose(args.identifier).root
    else:
        model = session.load(args.identifier).model
    _write_or_print(args.output, model_to_json(model), end="\n")
    return 0


def cmd_control(args) -> int:
    from .analysis import infer_control_relation

    session = _session(args)
    composed = session.compose(args.identifier)
    relations = infer_control_relation(composed.root, session.sink)
    _print_diagnostics(session.sink)
    for rel in relations:
        src = "explicit" if rel.explicit else "inferred"
        print(f"scope {rel.scope} ({src}):")
        if rel.root is None:
            print("  (no processing units)")
            continue

        def show(node, depth=1):
            print(f"{'  ' * depth}{node.ident} [{node.role}]")
            for c in node.children:
                show(c, depth + 1)

        show(rel.root)
    return 0


def cmd_to_pdl(args) -> int:
    from .pdl import write_pdl, xpdl_to_pdl

    session = _session(args)
    composed = session.compose(args.identifier)
    for platform in xpdl_to_pdl(composed.root):
        print(f"<!-- platform {platform.name} -->")
        print(write_pdl(platform))
    return 0


def cmd_stats(args) -> int:
    observer = _observer()
    with use_observer(observer):
        session = _session(args)
        identifiers = args.identifiers or list(PAPER_SYSTEMS)
        index = session.repository.index()
        for ident in identifiers:
            if ident not in index:
                raise XpdlError(f"unknown identifier {ident!r}")
        for _round in range(args.repeat):
            for ident in identifiers:
                if index[ident].root_tag == "system":
                    session.emit_ir(ident)  # full pipeline
                else:
                    session.validate(ident)  # meta-models: load + validate
    _print_diagnostics(session.sink)

    print(f"{'stage':28s} {'runs':>5s} {'total ms':>10s} {'mean ms':>10s}")
    for name in sorted(observer.stages):
        st = observer.stages[name]
        print(
            f"{name:28s} {st.runs:5d} {st.total_s * 1e3:10.2f} "
            f"{st.mean_s() * 1e3:10.2f}"
        )
    print("counters:")
    for name in sorted(observer.counters):
        print(f"  {name:34s} {observer.counters[name]}")
    cache = session.cache_stats()
    print(
        f"cache: hits={cache['hits']} misses={cache['misses']} "
        f"invalidations={cache['invalidations']}"
    )
    return 1 if session.sink.has_errors() else 0


def cmd_serve(args) -> int:
    """Run the long-lived model service (``xpdl serve``).

    Loads the repository once, keeps compiled query indexes hot across
    requests and serves query/info/analysis/compose/doctor over
    HTTP/JSON until SIGINT/SIGTERM, then shuts down cleanly.
    """
    import asyncio
    import signal

    from .service import ModelHost, run_server

    host = ModelHost(
        observer=_observer(),
        repo_options=RepositoryOptions.from_args(args),
        max_model_bytes=args.max_model_bytes,
        reload_ttl_s=args.reload_ttl,
        cache_dir=None if args.no_cache else args.cache_dir,
    )

    async def _main() -> None:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loop
                pass

        def announce(address: str, port: int) -> None:
            print(
                f"xpdl serve: listening on http://{address}:{port}",
                flush=True,
            )

        await run_server(
            host,
            address=args.address,
            port=args.port,
            workers=args.workers,
            stop=stop,
            announce=announce,
        )

    asyncio.run(_main())
    print("xpdl serve: shutdown complete", flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Repository wiring flags (-I, --simulate-remote, --fault, ...) are
    # declared exactly once, in the shared parent parser.
    parser = argparse.ArgumentParser(
        prog="xpdl",
        description="XPDL platform-description toolchain",
        parents=[repository_parent_parser()],
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="stream observability events as JSON-lines to stderr",
    )
    parser.add_argument(
        "--trace-out",
        metavar="FILE",
        help="write the JSON-lines event stream to FILE (implies --trace)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Flags that several subcommands share, each declared once.
    cache = argparse.ArgumentParser(add_help=False)
    cache.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help="persistent cache of stage artifacts and runtime images "
        f"(default: {DEFAULT_CACHE_DIR})",
    )
    cached = argparse.ArgumentParser(add_help=False, parents=[cache])
    cached.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the persistent cache for this run",
    )

    def fleet_report(defaults: bool) -> argparse.ArgumentParser:
        """The report flags of `fleet` and `fleet sweep`.  `sweep` takes
        them without defaults, so that its own do not overwrite a flag
        given before `sweep`; repeated after it, the later one wins."""
        parent = argparse.ArgumentParser(add_help=False)

        def default(value: object) -> object:
            return value if defaults else argparse.SUPPRESS

        parent.add_argument(
            "--interval-s",
            type=float,
            default=default(60.0),
            metavar="SECONDS",
            help="length of one interval (default 60)",
        )
        parent.add_argument(
            "--request-ops",
            type=int,
            default=default(200_000),
            metavar="N",
            help="instructions per request (default 200000)",
        )
        parent.add_argument(
            "--format",
            choices=("table", "json"),
            default=default("table"),
            help="report format (default: table)",
        )
        parent.add_argument(
            "-o", "--output", metavar="FILE", default=default(None)
        )
        return parent

    sub.add_parser("list", help="list repository descriptors").set_defaults(
        fn=cmd_list
    )

    p = sub.add_parser(
        "validate", help="validate one descriptor (or --all of them)"
    )
    p.add_argument("identifier", nargs="?")
    p.add_argument(
        "--all", action="store_true", help="validate every repository descriptor"
    )
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("compose", help="compose a system and emit runtime IR")
    p.add_argument("identifier")
    p.add_argument("-o", "--output")
    p.add_argument(
        "--keep-all",
        action="store_true",
        help="skip the uninteresting-value filter",
    )
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser(
        "build",
        help="batch-compile every system (or the given ones) in parallel",
        parents=[cached],
    )
    p.add_argument(
        "identifiers",
        nargs="*",
        help="systems to build (default: every <system> in the repository)",
    )
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="parallel worker processes (default: the CPUs available to "
        "this process — sched_getaffinity, falling back to cpu_count)",
    )
    p.add_argument(
        "-o",
        "--out-dir",
        default=None,
        metavar="DIR",
        help="write one <ident>.xir runtime model per system into DIR",
    )
    p.add_argument(
        "--keep-all",
        action="store_true",
        help="skip the uninteresting-value filter",
    )
    p.add_argument(
        "--json",
        metavar="FILE",
        help="also write the merged build report as JSON to FILE",
    )
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser(
        "cache", help="persistent stage cache maintenance", parents=[cache]
    )
    p.add_argument("action", choices=("stats", "clear", "verify"))
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "repo",
        help="distributed-repository resilience: stats, offline mirror, "
        "fetch health check",
    )
    p.add_argument("action", choices=("stats", "mirror", "check"))
    p.set_defaults(fn=cmd_repo)

    p = sub.add_parser(
        "doctor",
        help="cross-descriptor static analysis over the repository",
    )
    p.add_argument(
        "identifiers",
        nargs="*",
        help="systems to check (default: every <system>; the repository-wide "
        "pass always runs)",
    )
    p.add_argument(
        "--format",
        choices=("human", "json"),
        default="human",
        help="output format (default: human)",
    )
    p.add_argument(
        "-o",
        "--output",
        metavar="FILE",
        help="write the report to FILE",
    )
    p.add_argument(
        "--suppress",
        action="append",
        metavar="RULE",
        help="suppress a rule by id (XPDL0703) or name "
        "(unused-descriptor); repeatable",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    p.set_defaults(fn=cmd_doctor)

    p = sub.add_parser(
        "gen",
        help="generate a seeded synthetic descriptor corpus in "
        "repository layout",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="generator seed (default 0)"
    )
    p.add_argument(
        "--scale",
        type=int,
        default=100,
        metavar="N",
        help="target descriptor count (default 100)",
    )
    p.add_argument(
        "-d",
        "--directory",
        default="corpus",
        metavar="DIR",
        help="output directory (default: corpus)",
    )
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser(
        "fleet",
        help="simulate a fleet under a load trace and compare DVFS "
        "governor policies (energy vs. SLO)",
        parents=[fleet_report(defaults=True)],
    )
    p.add_argument(
        "--model",
        help="system identifier to compose into the simulated fleet",
    )
    p.add_argument(
        "--trace",
        dest="trace_kind",
        choices=("diurnal", "poisson", "step", "spike", "failures"),
        default="diurnal",
        help="traffic trace family (default: diurnal)",
    )
    p.add_argument(
        "--policy",
        action="append",
        choices=("performance", "powersave", "ondemand", "race-to-idle"),
        metavar="NAME",
        help="governor policy to run; repeatable (default: all four)",
    )
    p.add_argument(
        "--seed", type=int, default=0, help="trace seed (default 0)"
    )
    p.add_argument(
        "--intervals",
        type=int,
        default=72,
        metavar="N",
        help="simulated intervals; the diurnal period is 24 (default 72)",
    )
    p.set_defaults(fn=cmd_fleet)

    ps = p.add_subparsers(metavar="COMMAND").add_parser(
        "sweep",
        help="parallel (policy, trace, seed) grid sweep; workers reopen "
        "the model zero-copy from the image cache",
        parents=[fleet_report(defaults=False), cached],
    )
    ps.add_argument(
        "--model",
        required=True,
        help="system identifier to compose into the simulated fleet",
    )
    ps.add_argument(
        "--policy",
        metavar="A,B,...",
        help="comma-separated governor policies (default: all four)",
    )
    ps.add_argument(
        "--trace",
        dest="traces",
        default="diurnal",
        metavar="A,B,...",
        help="comma-separated trace families (default: diurnal)",
    )
    ps.add_argument(
        "--seeds",
        default="0",
        metavar="SPEC",
        help="trace seeds: '1..32', '0,3,7' or a mix (default: 0)",
    )
    ps.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes (default: the CPUs available to this "
        "process)",
    )
    ps.add_argument(
        "--intervals",
        type=int,
        default=24,
        metavar="N",
        help="simulated intervals per cell; the diurnal period is 24 "
        "(default 24)",
    )
    ps.add_argument(
        "--stats-out",
        metavar="FILE",
        help="write run-shape stats (wall, jobs, merged counters) as "
        "JSON; kept out of the report so its digest is jobs-invariant",
    )
    ps.set_defaults(fn=cmd_fleet_sweep)

    p = sub.add_parser(
        "import",
        help="import a foreign platform model (CESDM YAML/JSON, PDL subset)",
    )
    p.add_argument("file", help="foreign model document to import")
    p.add_argument(
        "--format",
        choices=("auto", "cesdm", "pdl"),
        default="auto",
        help="input format (default: auto-detect from extension/content)",
    )
    p.add_argument(
        "-d",
        "--directory",
        default="imported",
        metavar="DIR",
        help="output directory for descriptor files (default: imported)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="round-trip the imported tree through the doctor",
    )
    p.set_defaults(fn=cmd_import)

    p = sub.add_parser(
        "export",
        help="export a descriptor tree as one CESDM YAML/JSON document",
    )
    p.add_argument(
        "directory", help="descriptor tree to export (.xpdl files, recursive)"
    )
    p.add_argument(
        "--format",
        choices=("yaml", "json"),
        default="yaml",
        help="output format (default: yaml)",
    )
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("query", help="path query over a runtime model file")
    p.add_argument("file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("info", help="analysis summary of a runtime model file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("benchgen", help="generate microbenchmark drivers")
    p.add_argument("suite")
    p.add_argument("-d", "--directory", default="mb_out")
    p.set_defaults(fn=cmd_benchgen)

    p = sub.add_parser(
        "bootstrap", help="bootstrap energy models on the simulated testbed"
    )
    p.add_argument("identifier")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--noise", type=float, default=0.05, help="meter noise (W)")
    p.add_argument("-r", "--repetitions", type=int, default=5)
    p.set_defaults(fn=cmd_bootstrap)

    p = sub.add_parser("codegen-cpp", help="generate the C++ query API header")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_codegen_cpp)

    p = sub.add_parser("codegen-py", help="generate the Python query facade")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_codegen_py)

    p = sub.add_parser("uml", help="PlantUML view of the schema or a model")
    p.add_argument("--model")
    p.set_defaults(fn=cmd_uml)

    p = sub.add_parser("schema", help="export the core schema as XML")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_schema)

    p = sub.add_parser("discover", help="probe this host and emit descriptors")
    p.add_argument("-d", "--directory", default="discovered")
    p.add_argument("--canned", action="store_true", help="use the canned spec")
    p.set_defaults(fn=cmd_discover)

    p = sub.add_parser("to-pdl", help="flatten a system to PEPPHER PDL")
    p.add_argument("identifier")
    p.set_defaults(fn=cmd_to_pdl)

    p = sub.add_parser("to-json", help="JSON view of a descriptor or system")
    p.add_argument("identifier")
    p.add_argument("-o", "--output")
    p.add_argument(
        "--compose",
        action="store_true",
        help="emit the composed tree rather than the raw descriptor",
    )
    p.set_defaults(fn=cmd_to_json)

    p = sub.add_parser(
        "control", help="show the (inferred or explicit) control hierarchy"
    )
    p.add_argument("identifier")
    p.set_defaults(fn=cmd_control)

    p = sub.add_parser(
        "diff",
        help="semantic diff of two descriptors (identifiers or .xpdl paths)",
    )
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "stats",
        help="run the pipeline and report stage timings, counters, cache",
    )
    p.add_argument(
        "identifiers",
        nargs="*",
        help="descriptors to push through the pipeline "
        "(default: the paper's concrete systems)",
    )
    p.add_argument(
        "--repeat",
        type=int,
        default=2,
        metavar="N",
        help="pipeline rounds; round 2+ should be all cache hits (default 2)",
    )
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "serve",
        help="run the long-lived model service (HTTP/JSON daemon)",
        parents=[cached],
    )
    p.add_argument(
        "--address",
        default=DEFAULT_ADDRESS,
        help=f"bind address (default {DEFAULT_ADDRESS})",
    )
    p.add_argument(
        "--port",
        type=int,
        default=DEFAULT_PORT,
        help=f"listen port, 0 for ephemeral (default {DEFAULT_PORT})",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=DEFAULT_WORKERS,
        metavar="N",
        help=f"request worker threads (default {DEFAULT_WORKERS})",
    )
    p.add_argument(
        "--max-model-bytes",
        type=int,
        default=DEFAULT_MAX_MODEL_BYTES,
        metavar="BYTES",
        help=f"hosted-model LRU byte budget (default {DEFAULT_MAX_MODEL_BYTES})",
    )
    p.add_argument(
        "--reload-ttl",
        type=float,
        default=DEFAULT_RELOAD_TTL_S,
        metavar="SECONDS",
        help="seconds a hosted model stays trusted before its source "
        f"fingerprints are re-checked (default {DEFAULT_RELOAD_TTL_S})",
    )
    p.set_defaults(fn=cmd_serve)

    return parser


def _write_trace(observer: Observer, path: str | None) -> bool:
    """Emit the event stream; returns False if the trace file is unwritable."""
    text = observer.to_jsonl()
    if not text:
        return True
    if path is None:
        print(text, file=sys.stderr)
        return True
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        print(f"xpdl: error: cannot write trace to {path}: {exc}", file=sys.stderr)
        return False
    return True


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    tracing = args.trace or args.trace_out
    observer = Observer() if tracing else NULL_OBSERVER
    try:
        with use_observer(observer):
            code = args.fn(args)
    except XpdlError as exc:
        print(f"xpdl: error: {exc}", file=sys.stderr)
        code = 2
    if tracing and not _write_trace(observer, args.trace_out):
        code = code or 1
    return code


if __name__ == "__main__":
    sys.exit(main())
