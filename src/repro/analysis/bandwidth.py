"""Bandwidth downgrading: the paper's flagship static-analysis example.

Sec. IV: the processing tool performs "static analysis of the model (for
instance, downgrading bandwidth of interconnections where applicable as the
effective bandwidth should be determined by the slowest hardware components
involved in a communication link)".

An interconnect instance connects a ``head`` and a ``tail`` endpoint.  The
achievable bandwidth of that link is the minimum of the link's nominal
``max_bandwidth`` and each endpoint's own bandwidth capability (a memory
module's bus bandwidth, another interconnect's bandwidth on a multi-hop
path).  The pass computes this minimum and records it as the derived
``effective_bandwidth`` attribute on each interconnect and channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from ..diagnostics import DiagnosticSink
from ..model import Channel, Interconnect, Memory, ModelElement
from ..units import BANDWIDTH, Quantity


@dataclass
class LinkReport:
    """Result of downgrading one interconnect instance."""

    interconnect: Interconnect
    nominal: Quantity | None
    effective: Quantity | None
    limiting: str | None  # description of the slowest component


def _endpoint_bandwidth(elem: ModelElement) -> Quantity | None:
    """Bandwidth capability of an endpoint element.

    A memory endpoint is limited by its bus bandwidth; a CPU/device endpoint
    by the slowest memory module it directly contains (data ultimately comes
    from there); endpoints without modeled bandwidth impose no limit.
    """
    own = elem.quantity("bandwidth", BANDWIDTH)
    if own is not None:
        return own
    mems = [m for m in elem.find_all(Memory)]
    best: Quantity | None = None
    for m in mems:
        bw = m.quantity("bandwidth", BANDWIDTH)
        if bw is not None and (best is None or bw > best):
            best = bw  # parallel modules: the fastest module bounds the link
    return best


def derive_bandwidths(root: ModelElement) -> list[LinkReport]:
    """The effective bandwidth of every interconnect instance, derived
    without writing anything into the model.

    Returns one report per interconnect instance that has endpoints.  The
    derivation reads only nominal and endpoint bandwidths, never a
    derived value, so the reports do not depend on whether the model was
    downgraded before.
    """
    by_id: dict[str, ModelElement] = {}
    for elem in root.walk():
        if elem.ident and elem.ident not in by_id:
            by_id[elem.ident] = elem
    reports: list[LinkReport] = []
    for ic in root.find_all(Interconnect):
        head = ic.attrs.get("head")
        tail = ic.attrs.get("tail")
        if head is None and tail is None:
            continue  # technology meta-model, not a link instance
        nominal = ic.max_bandwidth
        effective = nominal
        limiting: str | None = None
        for end_name, end_ref in (("head", head), ("tail", tail)):
            if end_ref is None:
                continue
            endpoint = by_id.get(end_ref)
            if endpoint is None:
                continue  # dangling refs are reported by the composer
            cap = _endpoint_bandwidth(endpoint)
            if cap is None:
                continue
            if effective is None or cap < effective:
                effective = cap
                limiting = f"{end_name} {endpoint.label()} ({cap})"
        reports.append(LinkReport(ic, nominal, effective, limiting))
    return reports


def downgrade_bandwidths(
    root: ModelElement, sink: DiagnosticSink | None = None
) -> list[LinkReport]:
    """Compute and record effective bandwidths for all interconnects.

    Returns :func:`derive_bandwidths`' reports.  The
    ``effective_bandwidth`` attribute is written into the model so the
    runtime IR carries it, and each downgrade is noted (``XPDL0500``).
    """
    sink = sink if sink is not None else DiagnosticSink()
    reports = derive_bandwidths(root)
    for report in reports:
        ic, nominal, effective = report.interconnect, report.nominal, report.effective
        if effective is None:
            continue
        ic.effective_bandwidth = effective
        for ch in ic.find_all(Channel):
            ch_bw = ch.max_bandwidth
            ch_eff = effective if ch_bw is None or effective < ch_bw else ch_bw
            ch.set_quantity("effective_bandwidth", ch_eff)
        if nominal is not None and effective < nominal:
            sink.note(
                "XPDL0500",
                f"interconnect {ic.label()}: bandwidth downgraded from "
                f"{nominal} to {effective} (limited by {report.limiting})",
                ic.span,
            )
    return reports


def topology_graph(root: ModelElement) -> "nx.MultiDiGraph":
    """Communication topology as a networkx graph.

    Nodes are element ids; edges are interconnect instances annotated with
    nominal/effective bandwidth.  Useful for path queries (multi-hop
    effective bandwidth = min over edges) and for visual inspection.
    """
    g = nx.MultiDiGraph()
    for ic in root.find_all(Interconnect):
        head = ic.attrs.get("head")
        tail = ic.attrs.get("tail")
        if head is None or tail is None:
            continue
        eff = ic.effective_bandwidth or ic.max_bandwidth
        g.add_edge(
            head,
            tail,
            key=ic.ident or ic.label(),
            interconnect=ic,
            bandwidth=eff.magnitude if eff is not None else None,
        )
    return g


def path_bandwidth(
    root: ModelElement, src: str, dst: str
) -> tuple[Quantity | None, list[str]]:
    """Effective bandwidth along the best path from ``src`` to ``dst``.

    Treats links as bidirectional (full-duplex) for routing purposes and
    returns (bottleneck bandwidth, hop ids).  Returns (None, []) when no
    path exists.
    """
    g = topology_graph(root)
    ug = nx.Graph()
    for u, v, data in g.edges(data=True):
        bw = data.get("bandwidth")
        if bw is None:
            continue
        # Keep the fastest parallel link between a node pair.
        if ug.has_edge(u, v):
            if ug[u][v]["bandwidth"] >= bw:
                continue
        ug.add_edge(u, v, bandwidth=bw, key=data.get("interconnect"))
    if src not in ug or dst not in ug:
        return None, []
    # Maximize the bottleneck: widest-path via max-spanning structure.
    try:
        path = _widest_path(ug, src, dst)
    except nx.NetworkXNoPath:
        return None, []
    bottleneck = min(
        ug[u][v]["bandwidth"] for u, v in zip(path, path[1:])
    )
    return Quantity(bottleneck, BANDWIDTH), path


def _widest_path(g: "nx.Graph", src: str, dst: str) -> list[str]:
    """Widest (maximum-bottleneck) path via binary search over thresholds."""
    if src == dst:
        return [src]
    widths = sorted({d["bandwidth"] for _u, _v, d in g.edges(data=True)})
    best: list[str] | None = None
    lo, hi = 0, len(widths) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        thresh = widths[mid]
        sub = nx.Graph(
            (u, v, d)
            for u, v, d in g.edges(data=True)
            if d["bandwidth"] >= thresh
        )
        if sub.has_node(src) and sub.has_node(dst) and nx.has_path(sub, src, dst):
            best = nx.shortest_path(sub, src, dst)
            lo = mid + 1
        else:
            hi = mid - 1
    if best is None:
        raise nx.NetworkXNoPath(f"no path {src} -> {dst}")
    return best
