"""Unit tests for the DAG container and plan entities."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    DAG,
    ChunkData,
    Subtask,
    TileableData,
    build_subtask_graph,
    shape_is_known,
)


def chain_graph(n: int):
    """c0 -> c1 -> ... -> c(n-1) as a chunk graph with linked ops."""
    from repro.core.operator import Operator

    class PassOp(Operator):
        def execute(self, ctx):
            return ctx.get(self.inputs[0].key)

    graph = DAG()
    prev = ChunkData("tensor", (1,), (0,))
    graph.add_node(prev)
    chunks = [prev]
    for i in range(1, n):
        op = PassOp()
        chunk = op.new_chunk([prev], "tensor", (1,), (i,))
        graph.add_edge(prev, chunk)
        chunks.append(chunk)
        prev = chunk
    return graph, chunks


class TestDAG:
    def test_add_and_query(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("a", "c")
        assert set(g.successors("a")) == {"b", "c"}
        assert g.predecessors("b") == ["a"]
        assert g.sources() == ["a"]
        assert set(g.sinks()) == {"b", "c"}
        assert g.edge_count() == 2

    def test_duplicate_edge_ignored(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("a", "b")
        assert g.edge_count() == 1

    def test_adjacency_keeps_insertion_order(self):
        """Neighbours, nodes and the topological order follow the order
        edges were added — plan construction depends on it."""
        g = DAG()
        for src, dst in [("r", "z"), ("r", "b"), ("q", "b"), ("r", "m"),
                         ("r", "b"), ("q", "a"), ("z", "a")]:
            g.add_edge(src, dst)
        assert g.nodes() == ["r", "z", "b", "q", "m", "a"]
        assert g.successors("r") == ["z", "b", "m"]
        assert g.predecessors("b") == ["r", "q"]
        assert g.predecessors("a") == ["q", "z"]
        assert g.topological_order() == ["r", "q", "z", "m", "b", "a"]
        g.remove_node("b")
        assert g.successors("r") == ["z", "m"]
        assert g.copy().successors("r") == ["z", "m"]

    def test_topological_order(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        order = g.topological_order()
        assert order.index("a") < order.index("b") < order.index("c")

    def test_cycle_detected(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("b", "a")
        with pytest.raises(GraphError):
            g.topological_order()

    def test_remove_node(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.remove_node("b")
        assert "b" not in g
        assert g.successors("a") == []
        assert g.predecessors("c") == []

    def test_bfs_layers(self):
        g = DAG()
        g.add_edge("a", "c")
        g.add_edge("b", "c")
        g.add_edge("c", "d")
        layers = g.bfs_layers()
        assert set(layers[0]) == {"a", "b"}
        assert layers[1] == ["c"]
        assert layers[2] == ["d"]

    def test_ancestors_descendants(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        assert g.ancestors("c") == {"a", "b"}
        assert g.descendants("a") == {"b", "c"}

    def test_subgraph(self):
        g = DAG()
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        sub = g.subgraph(["a", "b"])
        assert len(sub) == 2
        assert sub.successors("a") == ["b"]
        assert "c" not in sub

    def test_copy_independent(self):
        g = DAG()
        g.add_edge("a", "b")
        h = g.copy()
        h.add_edge("b", "c")
        assert "c" not in g


class TestEntities:
    def test_shape_known(self):
        assert shape_is_known((3, 4))
        assert not shape_is_known((3, None))

    def test_chunk_defaults(self):
        chunk = ChunkData("dataframe", (10, 2), (0, 0))
        assert chunk.ndim == 2
        assert chunk.inputs == []
        assert chunk.key.startswith("c-")

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            ChunkData("blob", (1,), (0,))

    def test_tileable_with_chunks_refines_shape(self):
        t = TileableData("dataframe", (None, 2))
        chunks = [ChunkData("dataframe", (4, 2), (0, 0)),
                  ChunkData("dataframe", (6, 2), (1, 0))]
        t.with_chunks(chunks, ((4, 6), (2,)))
        assert t.shape == (10, 2)
        assert t.is_tiled

    def test_refresh_from_chunks(self):
        t = TileableData("dataframe", (None, 2))
        chunks = [ChunkData("dataframe", (None, 2), (0, 0)),
                  ChunkData("dataframe", (None, 2), (1, 0))]
        t.with_chunks(chunks, ((None, None), (2,)))
        chunks[0].shape = (3, 2)
        chunks[1].shape = (5, 2)
        t.refresh_from_chunks()
        assert t.shape == (8, 2)
        assert t.nsplits[0] == (3, 5)

    def test_entity_identity_by_key(self):
        a = ChunkData("tensor", (1,), (0,))
        b = ChunkData("tensor", (1,), (0,), key=a.key)
        assert a == b and hash(a) == hash(b)


class TestSubtasks:
    def test_subtask_io_keys(self):
        graph, chunks = chain_graph(3)
        subtask = Subtask(chunks[1:])  # c1, c2 fused; c0 external
        assert subtask.input_keys == [chunks[0].key]
        assert subtask.n_ops == 2

    def test_build_subtask_graph(self):
        graph, chunks = chain_graph(4)
        groups = [[chunks[0], chunks[1]], [chunks[2], chunks[3]]]
        sgraph = build_subtask_graph(graph, groups)
        assert len(sgraph) == 2
        order = sgraph.topological_order()
        assert order[0].chunks[0] is chunks[0]
        # the first subtask must export its boundary chunk
        assert chunks[1].key in order[0].output_keys
        # internal chunk c0 is not exported
        assert chunks[0].key not in order[0].output_keys

    def test_sink_chunks_are_outputs(self):
        graph, chunks = chain_graph(2)
        sgraph = build_subtask_graph(graph, [[chunks[0], chunks[1]]])
        (subtask,) = sgraph.nodes()
        assert subtask.output_keys == [chunks[1].key]

    def test_empty_subtask_rejected(self):
        with pytest.raises(ValueError):
            Subtask([])
