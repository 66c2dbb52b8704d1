"""Deterministic inputs for the heapquery benchmark.

    python3 bench/generate.py --workload NAME --seed N --out DIR

writes ``DIR/snapshot.json`` (the heap snapshot, in the documented snapshot
JSON format; absent for ``ingest-export``) and ``DIR/ops.json`` (the op list,
each op with its expected answer).  The same seed gives byte-identical files.

Generation runs in its own process so that the measuring process's memory
high-water mark holds only what heapquery itself allocates.  Snapshot bytes
are written here, not by ``save_snapshot``, so the input digest does not
change when heapquery's serializer does.

Expected answers come from ``tests/oracles.py`` where an oracle exists
(``hashmap_contains``, ``worklist_repok``, ``reachable_from``) and otherwise
from the generator's own bookkeeping.  The op mix is a fixed pattern repeated
in cycles; the seed picks targets and order inside a cycle, so every seed
gives the same share of each op kind.  ``ops.json`` gives the cycle length
as ``round``; the op list is a whole number of cycles, and a run stops only
at the end of one.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from heapquery.subgraph import ClassInfo, FieldDecl, HeapObject, HeapSnapshot, Ref, RefArray  # noqa: E402
from tests.conftest import CONTAINS_KEY_QUERY, REPOK_QUERY  # noqa: E402
from tests.oracles import hashmap_contains, reachable_from, worklist_repok  # noqa: E402

# Enough ops that a run cycles through them only when an op costs well
# under a millisecond; ops are replayed from the start after the last one.
OPS_PER_WORKLOAD = 4000


def ref(object_id):
    return {"ref": object_id}


def field(name, kind, type_):
    return {"name": name, "kind": kind, "type": type_}


def encode(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def as_snapshot(doc) -> HeapSnapshot:
    """The generator's own document as heapquery data classes, for the oracles."""

    def value(v):
        if isinstance(v, dict):
            return Ref(v["ref"]) if "ref" in v else RefArray(v["refs"])
        return v

    classes = [
        ClassInfo(c["name"], c.get("superclass"), tuple(FieldDecl(f["name"], f["kind"], f["type"]) for f in c["fields"]))
        for c in doc["classes"]
    ]
    objects = [HeapObject(o["id"], o["class"], {k: value(v) for k, v in o["fields"].items()}) for o in doc["objects"]]
    return HeapSnapshot(classes, objects, dict(doc["roots"]))


def random_tree(rng: random.Random, ids: list[int]) -> dict[int, dict[str, int]]:
    """Random binary tree over ``ids`` rooted at ``ids[0]``: id -> {side: child}."""
    children: dict[int, dict[str, int]] = {i: {} for i in ids}
    open_slots = [(ids[0], "left"), (ids[0], "right")]
    for node in ids[1:]:
        k = rng.randrange(len(open_slots))
        open_slots[k], open_slots[-1] = open_slots[-1], open_slots[k]
        parent, side = open_slots.pop()
        children[parent][side] = node
        open_slots += [(node, "left"), (node, "right")]
    return children


# --- bounded-probe ------------------------------------------------------------------

STRUCTURES = 100
STRUCTURE_SIZE = 1000  # objects per structure: 1 header + tree nodes + data objects

BP_HOP = "MATCH (r {$1})-[:tree]->(t) RETURN t.key"
BP_UID = "MATCH (x {$1}) RETURN x.value"
BP_PATHS = "MATCH (n {$1})-[:left|right*1..3]->(m) RETURN count(m)"
BP_LABEL = "MATCH (n:@1) RETURN count(n)"
BP_CREATE = "MATCH (r {$1}) CREATE (r)-[:extra]->(x:@2 {value: -1}) RETURN count(x)"
BP_MERGE = "MATCH (r {$1}) MERGE (m:@2 {value: -2}) RETURN count(m)"
# Nine reads and one write per cycle of ten ops.
BP_PATTERN = ["hop", "uid", "paths", "label", "hop", "uid", "paths", "label", "uid", "write"]


def bounded_probe(rng: random.Random):
    classes = [
        {"name": "bench.Root", "fields": [
            field("tree", "reference", "bench.TreeNode"),
            field("items", "reference-array", "bench.Data"),
            field("size", "primitive", "int"),
        ]},
        {"name": "bench.TreeNode", "fields": [
            field("left", "reference", "bench.TreeNode"),
            field("right", "reference", "bench.TreeNode"),
            field("data", "reference", "bench.Data"),
            field("key", "primitive", "int"),
        ]},
        {"name": "bench.Data", "fields": [field("value", "primitive", "int")]},
    ]
    objects = []
    roots = {}
    structures = []
    for s in range(STRUCTURES):
        base = s * STRUCTURE_SIZE + 1
        n_tree = rng.randint(550, 650)
        header = base
        tree_ids = list(range(base + 1, base + 1 + n_tree))
        data_ids = list(range(base + 1 + n_tree, base + STRUCTURE_SIZE))
        children = random_tree(rng, tree_ids)
        # About 5% of the data objects are garbage: nothing points at them,
        # so a bounded query must not see them.
        live_data = [d for d in data_ids if rng.random() >= 0.05]
        holders = rng.sample(tree_ids, len(live_data))
        data_of = dict(zip(holders, live_data))
        keys = {t: rng.randrange(1_000_000) for t in tree_ids}
        values = {d: rng.randrange(1_000_000) for d in data_ids}
        items = rng.sample(live_data, 8)
        objects.append({"id": header, "class": "bench.Root", "fields": {
            "tree": ref(tree_ids[0]), "items": {"refs": items}, "size": n_tree}})
        for t in tree_ids:
            fields = {"key": keys[t]}
            for side, child in children[t].items():
                fields[side] = ref(child)
            if t in data_of:
                fields["data"] = ref(data_of[t])
            objects.append({"id": t, "class": "bench.TreeNode", "fields": fields})
        for d in data_ids:
            objects.append({"id": d, "class": "bench.Data", "fields": {"value": values[d]}})
        roots[f"s{s}"] = header

        def paths_1_to_3(node, children=children):
            level, count = [node], 0
            for _ in range(3):
                level = [c for n in level for c in children[n].values()]
                count += len(level)
            return count

        structures.append({
            "header": header, "tree_ids": tree_ids, "live_data": live_data,
            "root_key": keys[tree_ids[0]], "values": values, "paths": paths_1_to_3,
            "labels": {"bench.TreeNode": n_tree, "bench.Data": len(live_data)},
        })
    doc = {"classes": classes, "objects": objects, "roots": roots}

    ops = []
    used: list[int] = []
    unused = list(range(STRUCTURES))
    rng.shuffle(unused)
    writes = 0
    for k in range(OPS_PER_WORKLOAD):
        reuse = bool(used) and (not unused or rng.random() < 0.5)
        s = rng.choice(used) if reuse else unused.pop()
        if not reuse:
            used.append(s)
        st = structures[s]
        kind = BP_PATTERN[k % len(BP_PATTERN)]
        op = {"kind": kind, "root": st["header"]}
        if kind == "hop":
            op.update(query=BP_HOP, args=[st["header"]], expect=st["root_key"])
        elif kind == "uid":
            d = rng.choice(st["live_data"])
            op.update(query=BP_UID, args=[d], expect=st["values"][d])
        elif kind == "paths":
            t = rng.choice(st["tree_ids"])
            op.update(query=BP_PATHS, args=[t], expect=st["paths"](t))
        elif kind == "label":
            label = rng.choice(sorted(st["labels"]))
            op.update(query=BP_LABEL, args=[label], expect=st["labels"][label])
        else:
            query = BP_CREATE if writes % 2 == 0 else BP_MERGE
            writes += 1
            op.update(query=query, args=[st["header"], "bench.Data"], expect=1)
        ops.append(op)
    return doc, {"ops": ops, "round": len(BP_PATTERN)}


# --- heap-analytics -------------------------------------------------------------------

MAP_ENTRIES = (2000, 3000)
PROBES_PER_MAP = 32
TREE_NODES = 300
TREE_KINDS = ("valid", "valid", "valid", "valid", "cyclic", "shared", "size-mismatch", "forest")
# Valid-tree checks are the largest group of ops, so the median op is one of
# them and not the costlier check of a broken tree, whatever the seed.
VALID_TREE_REPEATS = 5
DAG_DEPTHS = (10, 11, 12, 12)
# The two 2,000-element lists exceed the engine's recursion depth at the
# seed commit; their ops fail and show in failed_ratio.
LIST_LENGTHS = (150, 400, 2000, 2000)
MAP_OPS_PER_CYCLE = 6

DAG_QUERY = "MATCH (n {$1})-[:a|b*]->(m) RETURN DISTINCT m"
LIST_QUERY = "MATCH (n {$1})-[:next*]->(m) RETURN count(m)"


def heap_analytics(rng: random.Random):
    classes = [
        {"name": "java.util.HashMap", "fields": [
            field("table", "reference-array", "java.util.HashMap$Node"), field("size", "primitive", "int")]},
        {"name": "java.util.HashMap$Node", "fields": [
            field("hash", "primitive", "int"), field("key", "reference", "app.Key"),
            field("next", "reference", "java.util.HashMap$Node")]},
        {"name": "app.Key", "fields": [field("val", "primitive", "int")]},
        {"name": "bench.MapProbe", "fields": [
            field("map", "reference", "java.util.HashMap"), field("probes", "reference-array", "app.Key")]},
        {"name": "BinaryTree", "fields": [
            field("root", "reference", "BinaryTree$Node"), field("size", "primitive", "int")]},
        {"name": "BinaryTree$Node", "fields": [
            field("left", "reference", "BinaryTree$Node"), field("right", "reference", "BinaryTree$Node"),
            field("value", "primitive", "int")]},
        {"name": "bench.Dag", "fields": [
            field("a", "reference", "bench.Dag"), field("b", "reference", "bench.Dag"),
            field("depth", "primitive", "int")]},
        {"name": "bench.List", "fields": [
            field("head", "reference", "bench.ListNode"), field("length", "primitive", "int")]},
        {"name": "bench.ListNode", "fields": [
            field("next", "reference", "bench.ListNode"), field("value", "primitive", "int")]},
    ]
    objects = []
    roots = {}
    next_id = [1]

    def new(cls, fields):
        object_id = next_id[0]
        next_id[0] += 1
        objects.append({"id": object_id, "class": cls, "fields": fields})
        return object_id

    maps = []  # (holder id, map id, probe ids)
    for m, n_entries in enumerate(MAP_ENTRIES):
        table_len = n_entries // 3
        values = rng.sample(range(n_entries * 10), n_entries)
        key_ids = {val: new("app.Key", {"val": val}) for val in values}
        buckets: dict[int, list[int]] = {}
        for val in values:
            buckets.setdefault(val % table_len, []).append(val)
        table = []
        for slot in range(table_len):
            head = None
            for val in reversed(buckets.get(slot, [])):
                fields = {"hash": val, "key": ref(key_ids[val])}
                if head is not None:
                    fields["next"] = ref(head)
                head = new("java.util.HashMap$Node", fields)
            table.append(head)
        map_id = new("java.util.HashMap", {"table": {"refs": table}, "size": n_entries})
        # Half the probes hit a stored key; the others miss.
        probe_vals = rng.sample(values, PROBES_PER_MAP // 2) + [
            n_entries * 10 + rng.randrange(n_entries * 10) for _ in range(PROBES_PER_MAP // 2)]
        probe_ids = [new("app.Key", {"val": val}) for val in probe_vals]
        holder = new("bench.MapProbe", {"map": ref(map_id), "probes": {"refs": probe_ids}})
        roots[f"map{m}"] = holder
        maps.append((holder, map_id, probe_ids))

    trees = []  # (tree id, kind)
    for t, kind in enumerate(TREE_KINDS):
        # Every tree has the same complete shape and its defect sits at the
        # same place, so a tree check costs the same under every seed.
        node_ids = [new("BinaryTree$Node", {}) for _ in range(TREE_NODES)]
        children = {n: {} for n in node_ids}
        for i, n in enumerate(node_ids[1:], start=1):
            children[node_ids[(i - 1) // 2]]["left" if i % 2 else "right"] = n
        size = TREE_NODES
        last = node_ids[-1]
        if kind == "cyclic":
            children[last]["left"] = node_ids[0]
        elif kind == "shared":
            children[last]["left"] = node_ids[2]  # not an ancestor of the last node
        elif kind == "size-mismatch":
            size += 1
        elif kind == "forest":
            new("BinaryTree$Node", {"value": -1})
            size += 1
        for n in node_ids:
            objects[n - 1]["fields"] = {"value": rng.randrange(1000), **{s: ref(c) for s, c in children[n].items()}}
        tree_id = new("BinaryTree", {"root": ref(node_ids[0]), "size": size})
        roots[f"tree{t}"] = tree_id
        trees.append((tree_id, kind))

    dags = []  # start ids
    for i, depth in enumerate(DAG_DEPTHS):
        ids = [new("bench.Dag", {"depth": level}) for level in range(depth + 1)]
        for level in range(depth):
            objects[ids[level] - 1]["fields"].update(a=ref(ids[level + 1]), b=ref(ids[level + 1]))
        roots[f"dag{i}"] = ids[0]
        dags.append(ids[0])

    lists = []  # (header id, head id, length)
    for i, length in enumerate(LIST_LENGTHS):
        ids = [new("bench.ListNode", {"value": rng.randrange(1000)}) for _ in range(length)]
        for a, b in zip(ids, ids[1:]):
            objects[a - 1]["fields"]["next"] = ref(b)
        header = new("bench.List", {"head": ref(ids[0]), "length": length})
        roots[f"list{i}"] = header
        lists.append((header, ids[0], length))

    doc = {"classes": classes, "objects": objects, "roots": roots}
    snapshot = as_snapshot(doc)
    map_ops = [
        {"kind": "contains-key", "root": holder, "query": CONTAINS_KEY_QUERY, "args": [map_id, probe],
         "expect": hashmap_contains(snapshot, map_id, probe)}
        for holder, map_id, probe_ids in maps for probe in probe_ids
    ]
    cycle = (
        [{"kind": "repok", "root": tree, "query": REPOK_QUERY, "args": [tree],
          "expect": worklist_repok(snapshot, tree)}
         for tree, kind in trees for _ in range(VALID_TREE_REPEATS if kind == "valid" else 1)]
        + [{"kind": "dag", "root": start, "query": DAG_QUERY, "args": [start],
            "expect_set": sorted(reachable_from(snapshot, [start]) - {start})} for start in dags]
        + [{"kind": "list", "root": header, "query": LIST_QUERY, "args": [head], "expect": length - 1}
           for header, head, length in lists]
    )
    ops = []
    while len(ops) < OPS_PER_WORKLOAD:
        batch = cycle + rng.sample(map_ops, MAP_OPS_PER_CYCLE)
        rng.shuffle(batch)
        ops += batch
    warm_roots = sorted({op["root"] for op in cycle + map_ops})
    return doc, {"ops": ops, "round": len(cycle) + MAP_OPS_PER_CYCLE, "warm_roots": warm_roots}


# --- ingest-export --------------------------------------------------------------------

PROGRAMS = 48
PROGRAM_COMMANDS = 1000
WARMUP_COMMANDS = 100

CLASS_DECLS = """\
class Cell {
  Cell next;
  Cell prev;
  int v;
  Cell(Cell next, Cell prev, int v) { this.next = next; this.prev = prev; this.v = v; }
  Cell link(Cell o) { this.next = o; o.prev = this; return this; }
}
class Box {
  Cell head;
  int size;
  Box(Cell head, int size) { this.head = head; this.size = size; }
  Box put(Cell c) { this.head = c; return this; }
}
"""

# Query the CLI runs on each saved snapshot; the answer is the number of
# Cell objects whose ``next`` field is set.
INGEST_QUERY = "MATCH (a:@1)-[:next]->(b) RETURN count(b)"


def object_program(rng: random.Random, n_commands: int):
    """A program of ``n_commands`` top-level commands and the heap it leaves.

    About 40% allocations, 35% field assignments and 25% method calls.  The
    generator replays every command on its own field table, so the expected
    object, binder and edge counts are known without running heapquery.
    """
    objects = []  # per object: [class, {field: object index}]
    cells: list[str] = []
    boxes: list[str] = []
    var_obj: dict[str, int] = {}
    lines = [CLASS_DECLS]

    def alloc(cls, fields):
        objects.append([cls, {f: o for f, o in fields.items() if o is not None}])
        return len(objects) - 1

    for k in range(n_commands):
        r = rng.random()
        if k < 2 or r < 0.4 or len(cells) < 2:
            if rng.random() < 0.15 and cells:
                name = f"b{k}"
                head = rng.choice(cells)
                lines.append(f"Box {name} = new Box({head}, {rng.randrange(100)});")
                var_obj[name] = alloc("Box", {"head": var_obj[head]})
                boxes.append(name)
                continue
            name = f"c{k}"
            nxt = rng.choice(cells) if cells and rng.random() < 0.5 else None
            if rng.random() < 0.2:
                inner = alloc("Cell", {})
                nxt_text = f"new Cell(null, null, {rng.randrange(100)})"
                next_obj = inner
            else:
                nxt_text = nxt or "null"
                next_obj = var_obj[nxt] if nxt else None
            lines.append(f"Cell {name} = new Cell({nxt_text}, null, {rng.randrange(100)});")
            var_obj[name] = alloc("Cell", {"next": next_obj})
            cells.append(name)
        elif r < 0.75:
            if boxes and rng.random() < 0.15:
                target, fieldname, value = rng.choice(boxes), "head", rng.choice(cells)
            else:
                target, fieldname, value = rng.choice(cells), rng.choice(["next", "prev"]), rng.choice(cells)
            lines.append(f"{target}.{fieldname} = {value};")
            objects[var_obj[target]][1][fieldname] = var_obj[value]
        elif boxes and rng.random() < 0.2:
            box, cell = rng.choice(boxes), rng.choice(cells)
            lines.append(f"{box}.put({cell});")
            objects[var_obj[box]][1]["head"] = var_obj[cell]
        else:
            a, b = rng.choice(cells), rng.choice(cells)
            lines.append(f"{a}.link({b});")
            objects[var_obj[a]][1]["next"] = var_obj[b]
            objects[var_obj[b]][1]["prev"] = var_obj[a]
    lines.append("/* POINT */")
    lines.append(f"return {cells[0]};")
    field_edges = sum(len(fields) for _, fields in objects)
    expect = {
        "objects": len(objects),
        "binders": len(var_obj),
        "classes": len({cls for cls, _ in objects}),
        "next_edges": sum(1 for cls, fields in objects if cls == "Cell" and "next" in fields),
        "field_edges": field_edges,
    }
    return "\n".join(lines) + "\n", expect


def ingest_export(rng: random.Random):
    programs = []
    for _ in range(PROGRAMS):
        text, expect = object_program(rng, PROGRAM_COMMANDS)
        programs.append({"kind": "ingest", "program": text, "commands": PROGRAM_COMMANDS,
                         "query": INGEST_QUERY, "args": ["Cell"], "expect": expect})
    text, expect = object_program(rng, WARMUP_COMMANDS)
    warmup = {"kind": "ingest", "program": text, "commands": WARMUP_COMMANDS,
              "query": INGEST_QUERY, "args": ["Cell"], "expect": expect}
    return None, {"ops": programs, "warmup": warmup}


GENERATORS = {
    "bounded-probe": bounded_probe,
    "heap-analytics": heap_analytics,
    "ingest-export": ingest_export,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    doc, manifest = GENERATORS[args.workload](random.Random(f"{args.workload}/{args.seed}"))
    args.out.mkdir(parents=True, exist_ok=True)
    if doc is not None:
        (args.out / "snapshot.json").write_bytes(encode(doc))
    (args.out / "ops.json").write_bytes(encode(manifest))
    return 0


if __name__ == "__main__":
    sys.exit(main())
