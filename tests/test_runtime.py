"""Tests for the runtime query API (the paper's four function categories)."""

import pytest

from repro.diagnostics import QueryError
from repro.ir import IRModel
from repro.model import from_document
from repro.runtime import (
    query_all,
    query_all_naive,
    query_first,
    xpdl_init,
    xpdl_init_from_model,
)
from repro.units import POWER
from repro.xpdlxml import parse_xml


def ctx_of(text: str):
    model = from_document(parse_xml(text))
    return xpdl_init_from_model(IRModel.from_model(model))


SAMPLE = """
<system id='s'>
  <node id='n0'>
    <cpu id='c0' frequency='2' frequency_unit='GHz'>
      <core/><core/>
    </cpu>
    <device id='g0' static_power='25' static_power_unit='W'>
      <programming_model type='cuda6.0,opencl'/>
    </device>
  </node>
  <software>
    <installed name='CUDA_6.0' provides='cuda,nvcc'/>
    <installed name='MKL' provides='blas,sparse_blas'/>
  </software>
  <properties>
    <property name='ExternalPowerMeter' value='wt210'/>
  </properties>
</system>
"""


class TestInitialization:
    def test_init_from_file(self, tmp_path, liu_server):
        path = str(tmp_path / "liu.xir")
        IRModel.from_model(liu_server.root, {"system": "liu_gpu_server"}).save(path)
        ctx = xpdl_init(path)
        assert ctx.meta("system") == "liu_gpu_server"
        assert ctx.root.kind == "system"

    def test_init_missing_file(self):
        with pytest.raises(QueryError):
            xpdl_init("/no/such/file.xir")

    def test_init_directory_raises_query_error(self, tmp_path):
        # Every OSError from opening the file is typed, naming the path
        # and the OS reason; a missing file keeps its own message.
        with pytest.raises(QueryError, match="Is a directory") as exc:
            xpdl_init(str(tmp_path))
        assert str(tmp_path) in str(exc.value)
        with pytest.raises(QueryError, match="runtime model file not found"):
            xpdl_init(str(tmp_path / "missing.xir"))

    def test_cli_on_directory_exits_2(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        assert cli_main(["query", str(tmp_path), "//core"]) == 2
        assert cli_main(["info", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("xpdl: error: cannot open runtime model file") == 2


class TestBrowsing:
    def test_children_and_first(self):
        ctx = ctx_of(SAMPLE)
        node = ctx.root.first("node")
        assert node is not None and node.label() == "n0"
        assert ctx.root.first("cluster") is None
        kinds = [c.kind for c in node.children()]
        assert kinds == ["cpu", "device"]

    def test_parent(self):
        ctx = ctx_of(SAMPLE)
        cpu = ctx.by_id("c0")
        assert cpu.parent().kind == "node"
        assert ctx.root.parent() is None

    def test_descendants(self):
        ctx = ctx_of(SAMPLE)
        assert len(ctx.root.descendants("core")) == 2

    def test_by_id(self):
        ctx = ctx_of(SAMPLE)
        assert ctx.by_id("g0").kind == "device"
        assert ctx.by_id("nope") is None

    def test_handle_equality(self):
        ctx = ctx_of(SAMPLE)
        assert ctx.by_id("c0") == ctx.by_id("c0")
        assert ctx.by_id("c0") != ctx.by_id("g0")
        assert len({ctx.by_id("c0"), ctx.by_id("c0")}) == 1


class TestGetters:
    def test_generated_getter_convention(self):
        # The paper's m.get_id() spelling.
        ctx = ctx_of(SAMPLE)
        assert ctx.by_id("c0").get_id() == "c0"
        assert ctx.by_id("c0").get_frequency() == "2"
        assert ctx.by_id("c0").get_nonexistent() is None

    def test_typed_getters(self):
        ctx = ctx_of(SAMPLE)
        dev = ctx.by_id("g0")
        assert dev.get_quantity("static_power", POWER).to("W") == pytest.approx(25)
        cpu = ctx.by_id("c0")
        assert cpu.get_quantity("frequency").to("GHz") == pytest.approx(2)

    def test_attrs_copy(self):
        ctx = ctx_of(SAMPLE)
        attrs = ctx.by_id("c0").attrs()
        attrs["id"] = "mutated"
        assert ctx.by_id("c0").get_id() == "c0"


class TestAnalysisFunctions:
    def test_count_cores(self):
        assert ctx_of(SAMPLE).count_cores() == 2

    def test_count_cuda_devices(self):
        assert ctx_of(SAMPLE).count_cuda_devices() == 1

    def test_static_power(self):
        ctx = ctx_of(SAMPLE)
        assert ctx.total_static_power().to("W") == pytest.approx(25)

    def test_subtree_scoping(self):
        ctx = ctx_of(SAMPLE)
        node = ctx.by_id("n0")
        assert ctx.count_cores(under=node) == 2
        dev = ctx.by_id("g0")
        assert ctx.count_cores(under=dev) == 0

    def test_handle_from_another_context_raises(self, liu_ctx, xs_cluster):
        # The handle's node index means another node in liu's tables: at
        # index 3 liu answered 4 cores, XScluster's n0 holds 5384.
        xs = xpdl_init_from_model(IRModel.from_model(xs_cluster.root))
        n0 = xs.by_id("n0")
        assert xs.count_cores(under=n0) == 5384
        for analysis in (
            lambda: liu_ctx.count_cores(under=n0),
            lambda: liu_ctx.count_kind("cpu", under=n0),
            lambda: liu_ctx.count_cuda_devices(under=n0),
            lambda: liu_ctx.total_static_power(under=n0),
        ):
            with pytest.raises(QueryError, match="another QueryContext"):
                analysis()
        # Two contexts over one IR share the index, but not handles.
        twin = xpdl_init_from_model(liu_ctx.ir)
        with pytest.raises(QueryError):
            twin.count_cores(under=liu_ctx.root)

    def test_installed_software(self):
        ctx = ctx_of(SAMPLE)
        assert len(ctx.installed_software()) == 2
        assert ctx.has_installed("sparse_blas")
        assert ctx.has_installed("CUDA_6.0")
        assert ctx.has_installed("cuda")
        assert not ctx.has_installed("opencl_runtime")

    def test_properties(self):
        ctx = ctx_of(SAMPLE)
        assert ctx.properties()["ExternalPowerMeter"] == "wt210"

    def test_liu_analysis(self, liu_ctx):
        assert liu_ctx.count_cores() == 2500
        assert liu_ctx.count_cuda_devices() == 1
        assert liu_ctx.total_static_power().to("W") == pytest.approx(33)
        assert liu_ctx.has_installed("gpu_sparse_blas")
        assert liu_ctx.has_installed("cpu_sparse_blas")


class TestPathQueries:
    def test_simple_paths(self):
        ctx = ctx_of(SAMPLE)
        assert len(query_all(ctx, "node/cpu/core")) == 2
        assert query_first(ctx, "node/device").label() == "g0"

    def test_descendant_axis(self):
        ctx = ctx_of(SAMPLE)
        assert len(query_all(ctx, "//core")) == 2
        assert len(query_all(ctx, "//installed")) == 2

    def test_predicates(self):
        ctx = ctx_of(SAMPLE)
        mkl = query_first(ctx, "//installed[@name='MKL']")
        assert mkl is not None
        assert query_all(ctx, "//installed[@name='ghost']") == []
        assert query_first(ctx, "//installed[1]").attr("name") == "MKL"

    def test_no_match(self):
        ctx = ctx_of(SAMPLE)
        assert query_all(ctx, "cluster/node") == []

    def test_malformed_raises(self):
        ctx = ctx_of(SAMPLE)
        # The whole path is checked first, also behind a segment that
        # matches nothing ("gpu").
        for path in ("node[", "gpu/node[", "gpu/node[@]"):
            for query in (query_all, query_all_naive):
                with pytest.raises(QueryError):
                    query(ctx, path)
        # `xpdl query` and the service's /query error bodies carry this text.
        with pytest.raises(QueryError, match=r"malformed query segment 'node\['"):
            query_all(ctx, "gpu/node[")

    def test_liu_queries(self, liu_ctx):
        k20 = query_first(liu_ctx, "//device[@type='Nvidia_K20c']")
        assert k20 is not None
        l3 = query_first(liu_ctx, "//cache[@name='L3']")
        assert l3.get_quantity("size").to("MiB") == pytest.approx(15)
        sms = query_all(liu_ctx, "//group[@prefix='SM']")
        assert len(sms) == 1  # the expanded SMs container
