"""Table 3: the graph benchmark inventory.

Regenerates the dataset table with both the paper's original sizes and the
generated analogues, and checks the analogues preserve each graph's
structural class (skew for social graphs, high diameter for road networks,
uniformity for the random graph).
"""

from __future__ import annotations

from repro.bench import experiments


def test_table3_dataset_inventory(ctx):
    result = experiments.table3(ctx)
    print()
    print(experiments.experiment("table3").render(result))

    rows = {r["abbrev"]: r for r in result["rows"]}
    assert len(rows) == len(ctx.datasets)

    for abbrev, row in rows.items():
        assert row["analogue_vertices"] > 0
        assert row["analogue_edges"] > 0
        assert row["paper_vertices"] > row["analogue_vertices"]

    # Structural-class checks mirroring Section 6's description.
    if "ER" in rows and "FB" in rows:
        assert rows["ER"]["analogue_diameter_lb"] > 10 * rows["FB"]["analogue_diameter_lb"]
    if "RC" in rows:
        assert rows["RC"]["diameter_class"] == "high"
        assert rows["RC"]["max_degree"] <= 16
    for social in {"FB", "TW", "OR"} & set(rows):
        assert rows[social]["degree_gini"] > 0.3
    if "RD" in rows:
        assert rows["RD"]["degree_gini"] < 0.3
