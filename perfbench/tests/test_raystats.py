"""The ``ds.stats()`` parser, on summaries captured from one traced
``bin_fine`` iteration: the ``materialize()`` of the combiner output, the
sort's ``materialize()`` and the final execution.  Later summaries repeat
the operators of the materialized datasets they read."""

from __future__ import annotations

import os

import pytest

from perfbench import raystats

DATA = os.path.join(os.path.dirname(__file__), "data", "bin_fine_stats.txt")


@pytest.fixture(scope="module")
def summaries() -> list[str]:
    with open(DATA) as f:
        return f.read().split("\n=====\n")


def test_parse_reads_every_operator(summaries):
    ops = raystats.parse(summaries[0])
    assert [op["name"] for op in ops] == \
        ["ReadParquet->MapBatches(CellEncoder)->MapBatches(combine)"]
    op = ops[0]
    assert op["blocks_out"] > 0 and op["rows_out"] > 0
    assert 0 < op["udf_s"] <= op["wall_s"]
    assert op["peak_heap_mb"] > 0


def test_merge_counts_a_materialized_operator_once(summaries):
    once = raystats.merge(summaries[:1])["ReadParquet-combine"]
    assert raystats.merge(summaries)["ReadParquet-combine"]["rows_out"] == once["rows_out"]
    assert raystats.merge(summaries + summaries) == raystats.merge(summaries)


def test_merge_covers_both_executions_of_the_sort_path(summaries):
    ops = raystats.merge(summaries)
    assert {"ReadParquet-combine", "Sort", "block_reduce", "Aggregate",
            "Repartition", "Union", "lambda-finish"} <= set(ops)
    # the sort's rows out are the combiner's rows out
    assert ops["Sort"]["rows_out"] == ops["ReadParquet-combine"]["rows_out"]
    # the final rows: one per occupied cell
    assert ops["lambda-finish"]["rows_out"] == ops["block_reduce"]["rows_out"]


def test_all_to_all_adds_its_sub_operators():
    text = (
        "Operator 2 Sort: executed in 0.25s\n\n"
        "\tSuboperator 0 SortMap: 1 tasks executed, 5 blocks produced\n"
        "\t* Remote wall time: 1ms min, 2ms max, 1.5ms mean, 7.5ms total\n"
        "\t* Remote cpu time: 1ms min, 2ms max, 1.5ms mean, 7ms total\n"
        "\t* Output num rows per block: 10 min, 30 max, 20 mean, 100 total\n\n"
        "\tSuboperator 1 SortReduce: 1 tasks executed, 4 blocks produced\n"
        "\t* Remote wall time: 1ms min, 2ms max, 1.5ms mean, 1.2s total\n"
        "\t* Remote cpu time: 1ms min, 2ms max, 1.5ms mean, 900.5us total\n"
        "\t* Output num rows per block: 10 min, 40 max, 25 mean, 100 total\n\n"
        "Dataset throughput:\n"
        "\t* Ray Data throughput: 1 rows/s\n")
    (op,) = raystats.parse(text)
    assert op["name"] == "Sort"
    assert op["wall_s"] == pytest.approx(0.0075 + 1.2)
    assert op["cpu_s"] == pytest.approx(0.007 + 0.0009005)
    assert op["rows_out"] == 100 and op["blocks_out"] == 4


def test_cached_operator_counts_nothing():
    (op,) = raystats.parse("Operator 1 Foo->MapBatches(bar): [execution cached]\n")
    assert op["wall_s"] == 0 and op["rows_out"] == 0


@pytest.mark.parametrize("name,key", [
    ("ReadParquet->MapBatches(add_part)->MapBatches(SpanCellEncoder)->MapBatches(write_batch)",
     "ReadParquet-write_batch"),
    ("MapBatches(_Descend)->MapBatches(_Descend)->MapBatches(_ExactClip)"
     "->MapBatches(BoundaryKernel)->Project", "Descend-BoundaryKernel"),
    ("UnionOperator(MapBatches(<lambda>), Repartition)", "Union"),
    ("MapBatches(<lambda>)->MapBatches(finish)", "lambda-finish"),
    ("Aggregate", "Aggregate"),
])
def test_op_key(name, key):
    assert raystats.op_key(name) == key
