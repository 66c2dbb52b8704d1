from __future__ import annotations

import io
import json
import re

import pytest

from heapquery.cli import _coerce_arg, _render_cell, main
from heapquery.cypher_frontend import _Parser
from heapquery.property_graph import PropertyGraph
from heapquery.query_engine import ABSENT, NodeRef, RelRef
from heapquery.snapshot_io import load_snapshot
from heapquery.subgraph import extract

from .conftest import DATA, UID, build_point_graph
from .oracles import structurally_equal


@pytest.fixture
def snapshot_path(tmp_path):
    path = tmp_path / "tree.json"
    path.write_bytes((DATA / "tree_snapshot.json").read_bytes())
    return str(path)


@pytest.fixture
def program_path(tmp_path):
    path = tmp_path / "prog.mj"
    path.write_text((DATA / "binary_tree_point.mj").read_text())
    return str(path)


class TestRun:
    def test_point_program_prints_snapshot(self, program_path, capsys):
        assert main(["run", program_path]) == 0
        out = capsys.readouterr().out
        snapshot = load_snapshot(out.encode())
        assert structurally_equal(extract(snapshot), build_point_graph())

    def test_output_is_canonical_json(self, program_path, capsys):
        main(["run", program_path])
        out = capsys.readouterr().out.strip()
        assert out == json.dumps(json.loads(out), sort_keys=True, separators=(",", ":"))

    def test_empty_program(self, tmp_path, capsys):
        path = tmp_path / "empty.mj"
        path.write_text("")
        assert main(["run", str(path)]) == 0
        assert json.loads(capsys.readouterr().out) == {"classes": [], "objects": [], "roots": {}}

    def test_unparsable_program(self, tmp_path, capsys):
        path = tmp_path / "bad.mj"
        path.write_text("class {")
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert "1:" in err

    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent/prog.mj"]) == 1


class TestQuery:
    def test_two_hop_query_renders_node_cell(self, snapshot_path, capsys):
        code = main(
            [
                "query",
                snapshot_path,
                "-q",
                "MATCH (n {$1})-[:left|right*2]->(m {value: 1}) RETURN m",
                "--root",
                str(UID["c"]),
                str(UID["c"]),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "m"
        assert out[1] == f"#{UID['a']}:BinaryTree$Node"

    def test_gc_flag_shrinks_count(self, tmp_path, capsys):
        doc = json.loads((DATA / "tree_snapshot.json").read_text())
        doc["objects"].append({"id": 99, "class": "BinaryTree$Node", "fields": {"value": 9}})
        path = tmp_path / "garbage.json"
        path.write_text(json.dumps(doc))
        main(["query", str(path), "-q", "MATCH (n:`BinaryTree$Node`) RETURN count(n)"])
        plain = int(capsys.readouterr().out.splitlines()[1])
        main(["query", str(path), "-q", "MATCH (n:`BinaryTree$Node`) RETURN count(n)", "--gc"])
        collected = int(capsys.readouterr().out.splitlines()[1])
        assert plain == 6
        assert collected == 5

    def test_conflicting_lists_exit_2(self, snapshot_path, capsys):
        code = main(
            ["query", snapshot_path, "-q", "MATCH (n) RETURN n", "--whitelist", "X", "--blacklist", "X"]
        )
        assert code == 2
        assert "whitelist" in capsys.readouterr().err

    def test_bad_query_exit_2_names_stage(self, snapshot_path, capsys):
        assert main(["query", snapshot_path, "-q", "MATCH (n RETURN n"]) == 2
        assert "[parse]" in capsys.readouterr().err

    def test_unbound_variable_names_validate_stage(self, snapshot_path, capsys):
        assert main(["query", snapshot_path, "-q", "MATCH (n) RETURN zz"]) == 2
        assert "[validate]" in capsys.readouterr().err

    def test_missing_snapshot_exit_1(self, capsys):
        assert main(["query", "/nonexistent.json", "-q", "RETURN 1"]) == 1

    def test_snapshot_not_utf8_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"classes": "\xff"}')
        assert main(["query", str(path), "-q", "RETURN 1"]) == 1
        assert capsys.readouterr().err.startswith("error: not valid JSON: 'utf-8' codec can't decode")

    def test_malformed_snapshot_shape_exit_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"classes": [], "objects": 5, "roots": {}}')
        assert main(["query", str(path), "-q", "RETURN 1"]) == 1
        assert capsys.readouterr().err == "error: objects: objects must be a list\n"

    def test_time_flag_reports_stages(self, snapshot_path, capsys):
        main(["query", snapshot_path, "-q", "MATCH (n) RETURN count(n)", "--time"])
        err = capsys.readouterr().err
        assert re.fullmatch(r"time_ms load=\d+\.\d{3}( \w+=\d+\.\d{3})+\n", err)
        stages = re.findall(r"(\w+)=", err)
        assert stages[0] == "load"  # the snapshot load comes first, before the pipeline's stages
        for stage in ("expand", "extract", "parse", "validate", "execute"):
            assert stage in stages

    @pytest.mark.parametrize(
        "arg, values",
        [("13,", ["4"]), (",", []), ("13,14,", ["4", "5"]), ("13,14", ["4", "5"])],
    )
    def test_batch_of_comma_separated_ids(self, snapshot_path, capsys, arg, values):
        assert main(["query", snapshot_path, "-q", "MATCH (n {[]1}) RETURN n.value", arg]) == 0
        assert capsys.readouterr().out.splitlines() == ["n.value", *values]

    def test_lint_warning_on_unreturned_create(self, snapshot_path, capsys):
        main(["query", snapshot_path, "-q", "CREATE (x:Tmp) RETURN 1"])
        assert "warning" in capsys.readouterr().err

    def test_query_is_parsed_once(self, snapshot_path, monkeypatch, capsys):
        calls = []
        parse_query = _Parser.parse_query

        def counting(self):
            calls.append(1)
            return parse_query(self)

        monkeypatch.setattr(_Parser, "parse_query", counting)
        assert main(["query", snapshot_path, "-q", "CREATE (x:Tmp) RETURN 1"]) == 0
        assert "warning" in capsys.readouterr().err
        assert len(calls) == 1

    def test_output_is_byte_deterministic(self, snapshot_path, capsys):
        argv = ["query", snapshot_path, "-q", "MATCH (n)-[:left|right*1..]->(m) RETURN n, m"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        assert capsys.readouterr().out == first


class TestArguments:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("7", 7),
            ("1,2,3", [1, 2, 3]),
            ("3,", [3]),  # a trailing comma marks a batch
            ("1,2,", [1, 2]),
            (",", []),
            (",,", ",,"),
            ("a,b", "a,b"),
            ("a,", "a,"),
            ("Cell", "Cell"),
        ],
    )
    def test_marker_arguments_are_coerced(self, text, value):
        assert _coerce_arg(text) == value

    def test_cells_render(self):
        graph = PropertyGraph()
        node = graph.add_node("A")
        rel = graph.add_relationship("T", node, node)
        cells = [ABSENT, RelRef(rel), True, False, NodeRef(node), 1.5]
        assert [_render_cell(graph, cell) for cell in cells] == ["null", "-[:T]-", "true", "false", "#-:A", "1.5"]

    @pytest.mark.parametrize(
        "argv, err",
        [
            (["query", "heap.json", "-q", "RETURN 1", "--bogus"], "error: unrecognized flags ['--bogus']\n"),
            (["run", "prog.mj", "extra"], "error: unexpected arguments ['extra']\n"),
            (["export", "heap.json", "-o", "csv", "extra"], "error: unexpected arguments ['extra']\n"),
            (["repl", "heap.json", "extra", "more"], "error: unexpected arguments ['extra', 'more']\n"),
        ],
    )
    def test_stray_arguments_exit_1(self, argv, err, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err == err


class TestExport:
    def test_writes_both_files(self, snapshot_path, tmp_path, capsys):
        out_dir = tmp_path / "csv"
        assert main(["export", snapshot_path, "-o", str(out_dir)]) == 0
        nodes = (out_dir / "nodes.csv").read_text().strip().splitlines()
        rels = (out_dir / "relationships.csv").read_text().strip().splitlines()
        # 6 instances + 2 class nodes + binder
        assert len(nodes) == 1 + 9
        assert len(rels) == 1 + 12

    def test_root_restricts_subgraph(self, snapshot_path, tmp_path):
        out_dir = tmp_path / "csv"
        assert main(["export", snapshot_path, "-o", str(out_dir), "--root", str(UID["a"])]) == 0
        nodes = (out_dir / "nodes.csv").read_text().strip().splitlines()
        assert len(nodes) == 1 + 2  # leaf + its class node

    def test_conflicting_lists_exit_2_names_stage(self, snapshot_path, tmp_path, capsys):
        argv = ["export", snapshot_path, "-o", str(tmp_path / "csv"), "--whitelist", "X", "--blacklist", "X"]
        assert main(argv) == 2
        assert "error: [extract]" in capsys.readouterr().err

    def test_unwritable_output(self, snapshot_path, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["export", snapshot_path, "-o", str(blocker / "sub")]) == 1


class TestRepl:
    def run_repl(self, snapshot_path, lines, monkeypatch, capsys, flags=()):
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = main(["repl", snapshot_path, *flags])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_two_queries_share_graph(self, snapshot_path, monkeypatch, capsys):
        code, out, err = self.run_repl(
            snapshot_path,
            [
                "MATCH (n {`$uid`: 13})-[*]-(m) RETURN count(DISTINCT m)",
                "MATCH (n {`$uid`: 13})-[:left|right*2]->(m {value: 1}) RETURN m",
                ":quit",
            ],
            monkeypatch,
            capsys,
        )
        assert code == 0
        assert "count(DISTINCT m)\n8\n" in out  # reachable nodes incl. binder
        assert f"m\n#{UID['a']}:BinaryTree$Node\n" in out

    def test_writes_accumulate(self, snapshot_path, monkeypatch, capsys):
        code, out, _ = self.run_repl(
            snapshot_path,
            [
                "CREATE (x:Extra {value: 1}) RETURN x",
                "MATCH (x:Extra) RETURN count(x)",
                ":quit",
            ],
            monkeypatch,
            capsys,
        )
        assert code == 0
        assert "count(x)\n1\n" in out

    def test_root_flag_restricts_the_session_graph(self, snapshot_path, monkeypatch, capsys):
        code, out, _ = self.run_repl(
            snapshot_path, ["MATCH (n) RETURN count(n)", ":quit"], monkeypatch, capsys, flags=["--root", str(UID["a"])]
        )
        assert code == 0
        assert "count(n)\n2\n" in out  # the leaf and its class node

    def test_failed_write_leaves_nothing(self, snapshot_path, monkeypatch, capsys):
        code, out, err = self.run_repl(
            snapshot_path,
            [
                "MATCH (n) CREATE (m:New) RETURN NOT 1",
                "MATCH (n) RETURN count(n)",
                "CREATE (x:Extra) RETURN x",
                "MATCH (n) RETURN count(n)",
                ":quit",
            ],
            monkeypatch,
            capsys,
        )
        assert code == 0
        assert "[execute]" in err
        assert re.findall(r"count\(n\)\n(\d+)", out) == ["9", "10"]

    def test_bad_line_names_stage(self, snapshot_path, monkeypatch, capsys):
        _, _, err = self.run_repl(snapshot_path, ["MATCH (n RETURN", ":quit"], monkeypatch, capsys)
        assert "error: [parse]" in err

    def test_bad_line_keeps_looping(self, snapshot_path, monkeypatch, capsys):
        code, out, err = self.run_repl(
            snapshot_path,
            ["MATCH (n RETURN", "RETURN 1", ":quit"],
            monkeypatch,
            capsys,
        )
        assert code == 0
        assert "error" in err
        assert "1" in out

    def test_piped_output_holds_only_tables(self, snapshot_path, monkeypatch, capsys):
        _, out, _ = self.run_repl(snapshot_path, ["RETURN 1", "MATCH (n) RETURN count(n)", ":quit"], monkeypatch, capsys)
        assert out == "1\n1\ncount(n)\n9\n"

    def test_prompt_on_a_terminal(self, snapshot_path, monkeypatch, capsys):
        stdin = io.StringIO("RETURN 1\n:quit\n")
        stdin.isatty = lambda: True
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["repl", snapshot_path]) == 0
        assert capsys.readouterr().out == "> 1\n1\n> "

    def test_quit_exits_zero(self, snapshot_path, monkeypatch, capsys):
        code, _, _ = self.run_repl(snapshot_path, [":quit"], monkeypatch, capsys)
        assert code == 0

    def test_eof_exits_zero(self, snapshot_path, monkeypatch, capsys):
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["repl", snapshot_path]) == 0
