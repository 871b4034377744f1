"""Unit coverage of the whole-program index and its call graph.

The project checks are only as sound as the resolution tiers under
them, so each tier — direct names, imported symbols, ``self``
methods, base-class walks, typed receivers — is pinned here, along
with the conservative fallback (``confident=False``) and the
cycle/depth behavior of the reachability walks.
"""

import ast

from repro.devtools.config import CheckConfig
from repro.devtools.project import (
    ProjectIndex,
    module_name_for_path,
    summarize_module,
)


def build_index(files):
    """Assemble an index from ``{path: source}``."""
    index = ProjectIndex(CheckConfig())
    for path, source in files.items():
        tree = ast.parse(source, filename=path)
        index.add(summarize_module(path, source, tree, index.config))
    return index


class TestModuleNames:
    def test_src_relative_dotted(self):
        assert module_name_for_path("src/repro/runtime/wal.py") == (
            "repro.runtime.wal"
        )

    def test_package_init_maps_to_package(self):
        assert module_name_for_path("src/repro/__init__.py") == "repro"

    def test_plain_file_uses_stem(self):
        assert module_name_for_path("scripts/tool.py") == "scripts.tool"


class TestCallResolution:
    def test_direct_module_level_name(self):
        index = build_index(
            {
                "src/pkg/a.py": (
                    "def helper():\n    return 1\n\n"
                    "def caller():\n    return helper()\n"
                )
            }
        )
        module = index.modules["pkg.a"]
        function = module.functions["caller"]
        resolution = index.resolve_call(module, function, ("helper",))
        assert resolution.confident
        assert resolution.candidates == ["pkg.a::helper"]

    def test_imported_project_function(self):
        index = build_index(
            {
                "src/pkg/b.py": "def helper():\n    return 2\n",
                "src/pkg/a.py": (
                    "from pkg.b import helper\n\n"
                    "def caller():\n    return helper()\n"
                ),
            }
        )
        module = index.modules["pkg.a"]
        function = module.functions["caller"]
        resolution = index.resolve_call(module, function, ("helper",))
        assert resolution.confident
        assert resolution.candidates == ["pkg.b::helper"]

    def test_self_method_resolution(self):
        index = build_index(
            {
                "src/pkg/a.py": (
                    "class Engine:\n"
                    "    def step(self):\n"
                    "        return self.finish()\n\n"
                    "    def finish(self):\n"
                    "        return 0\n"
                )
            }
        )
        module = index.modules["pkg.a"]
        function = module.functions["Engine.step"]
        resolution = index.resolve_call(module, function, ("self", "finish"))
        assert resolution.confident
        assert resolution.candidates == ["pkg.a::Engine.finish"]

    def test_self_method_through_base_class(self):
        index = build_index(
            {
                "src/pkg/a.py": (
                    "class Base:\n"
                    "    def finish(self):\n"
                    "        return 0\n\n\n"
                    "class Engine(Base):\n"
                    "    def step(self):\n"
                    "        return self.finish()\n"
                )
            }
        )
        module = index.modules["pkg.a"]
        function = module.functions["Engine.step"]
        resolution = index.resolve_call(module, function, ("self", "finish"))
        assert resolution.confident
        assert resolution.candidates == ["pkg.a::Base.finish"]

    def test_typed_receiver_from_annotation(self):
        index = build_index(
            {
                "src/pkg/w.py": (
                    "class Writer:\n"
                    "    def flush(self):\n"
                    "        return None\n"
                ),
                "src/pkg/a.py": (
                    "from pkg.w import Writer\n\n"
                    "def drain(writer: Writer):\n"
                    "    writer.flush()\n"
                ),
            }
        )
        module = index.modules["pkg.a"]
        function = module.functions["drain"]
        resolution = index.resolve_call(module, function, ("writer", "flush"))
        assert resolution.confident
        assert resolution.candidates == ["pkg.w::Writer.flush"]

    def test_unknown_receiver_falls_back_unconfident(self):
        index = build_index(
            {
                "src/pkg/x.py": (
                    "class A:\n"
                    "    def close(self):\n"
                    "        return None\n\n\n"
                    "class B:\n"
                    "    def close(self):\n"
                    "        return None\n"
                ),
                "src/pkg/a.py": (
                    "def shutdown(thing):\n    thing.close()\n"
                ),
            }
        )
        module = index.modules["pkg.a"]
        function = module.functions["shutdown"]
        resolution = index.resolve_call(module, function, ("thing", "close"))
        assert not resolution.confident
        assert sorted(resolution.candidates) == [
            "pkg.x::A.close",
            "pkg.x::B.close",
        ]

    def test_external_callable_resolves_empty_but_confident(self):
        index = build_index(
            {
                "src/pkg/a.py": (
                    "import json\n\n"
                    "def render(data):\n    return json.dumps(data)\n"
                )
            }
        )
        module = index.modules["pkg.a"]
        function = module.functions["render"]
        resolution = index.resolve_call(module, function, ("json", "dumps"))
        assert resolution.confident
        assert resolution.candidates == []


class TestReachability:
    def test_cycles_terminate(self):
        index = build_index(
            {
                "src/pkg/a.py": (
                    "def ping():\n    return pong()\n\n"
                    "def pong():\n    return ping()\n\n"
                    "def _worker_main():\n    return ping()\n"
                )
            }
        )
        reached = index.reachable_from(["pkg.a::_worker_main"])
        assert "pkg.a::ping" in reached
        assert "pkg.a::pong" in reached
        assert reached["pkg.a::ping"] == "pkg.a::_worker_main"

    def test_unconfident_edges_not_traversed(self):
        index = build_index(
            {
                "src/pkg/x.py": (
                    "class A:\n"
                    "    def close(self):\n"
                    "        return None\n\n\n"
                    "class B:\n"
                    "    def close(self):\n"
                    "        return None\n"
                ),
                "src/pkg/a.py": (
                    "def _worker_main(thing):\n    thing.close()\n"
                ),
            }
        )
        reached = index.reachable_from(["pkg.a::_worker_main"])
        assert "pkg.x::A.close" not in reached
        assert "pkg.x::B.close" not in reached


class TestAllocationsReachable:
    FILES = {
        "src/pkg/a.py": (
            "import numpy as np\n\n\n"
            "def depth3():\n    return np.zeros(8)\n\n\n"
            "def depth2():\n    return depth3()\n\n\n"
            "def depth1():\n    return depth2()\n\n\n"
            "def entry():\n    return depth1()\n"
        )
    }

    def test_found_within_depth(self):
        index = build_index(self.FILES)
        found = index.allocations_reachable("pkg.a::entry", "numpy")
        assert found is not None
        owner, allocation = found
        assert owner == "pkg.a::depth3"
        assert allocation["detail"] == "np.zeros"

    def test_depth_bound_cuts_off(self):
        index = build_index(self.FILES)
        assert (
            index.allocations_reachable(
                "pkg.a::entry", "numpy", max_depth=2
            )
            is None
        )


class TestModuleFacts:
    def test_protocol_constants_both_scopes(self):
        index = build_index(
            {
                "src/pkg/a.py": (
                    "WAL_MAGIC = b'W1'\n\n\n"
                    "class Reader:\n"
                    "    WAL_MAGIC = b'W0'\n"
                )
            }
        )
        records = index.modules["pkg.a"].protocol_constants
        assert {r["scope"] for r in records} == {"module", "class Reader"}
        assert {r["value_repr"] for r in records} == {"b'W1'", "b'W0'"}

    def test_mutable_globals_track_emptiness(self):
        index = build_index(
            {
                "src/pkg/a.py": (
                    "_CACHE = {}\n"
                    "_TABLE = {'a': 1}\n"
                    "__all__ = []\n"
                )
            }
        )
        mutable = index.modules["pkg.a"].mutable_globals
        assert mutable["_CACHE"]["empty"] is True
        assert mutable["_TABLE"]["empty"] is False
        assert "__all__" not in mutable

    def test_import_closure_follows_symbol_imports(self):
        index = build_index(
            {
                "src/pkg/b.py": "VALUE = 1\n",
                "src/pkg/a.py": (
                    "from pkg.b import VALUE\n\n"
                    "def use():\n    return VALUE\n"
                ),
            }
        )
        assert "pkg.b" in index.import_closure("pkg.a")
