"""The experiment registry and its one renderer, at smoke scale.

``repro.bench.experiments.EXPERIMENTS`` is the single place an experiment is
declared; ``repro.bench.reporting`` is the single place one is rendered. On a
tiny three-graph context (LJ skewed, RC road, TW paper-scale-large, so the
K=16 batches OOM one device and failed rows occur) this file pins what every
other consumer relies on:

* every entry runs, and renders in both styles with as many cells per row as
  headers, ``None`` as ``-`` and a failed row as its cell identity + ``OOM``;
* keys are unique, every public sweep function is registered, and one new
  entry is enough to reach the renderer and ``examples/reproduce_paper.py``;
* EXPERIMENTS.md numbers its sections 1..10 in order, and its §8 reads the
  newest committed ``BENCH_<pr>.json`` or fails - it never measures - and
  that record is a full ``python -m perfbench --out`` run: every workload
  and end-to-end metric ``BENCHMARK.json`` names, no failed operation;
* the claims EXPERIMENTS.md §2 and §4 state in prose hold on every row (the
  ``benchmarks/`` suite has no test for §1-4).
"""

from __future__ import annotations

import inspect
import json
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import experiments, reporting
from repro.bench.harness import BenchmarkContext

REPO = Path(__file__).resolve().parent.parent
#: The benchmark's contract: workload and end-to-end metric names.
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ctx() -> BenchmarkContext:
    return BenchmarkContext(scale=0.05, datasets=("LJ", "RC", "TW"))


@pytest.fixture(scope="module")
def results(ctx):
    """Every registry entry, run once."""
    return {entry.key: entry.run(ctx) for entry in experiments.EXPERIMENTS}


def _markdown_tables(text):
    """The tables of a markdown rendering, each a list of cell lists."""
    tables, current = [], None
    for line in text.splitlines():
        if line.startswith("| "):
            if current is None:
                current = []
                tables.append(current)
            current.append(line.strip("| ").split(" | "))
        else:
            current = None
    return tables


def test_keys_unique_and_every_sweep_function_registered():
    keys = [entry.key for entry in experiments.EXPERIMENTS]
    assert len(keys) == len(set(keys))

    registered = set()
    for entry in experiments.EXPERIMENTS:
        registered.update([entry.sweep] if callable(entry.sweep) else entry.sweep)
    sweeps = {
        fn for name, fn in inspect.getmembers(experiments, inspect.isfunction)
        if fn.__module__ == experiments.__name__ and not name.startswith("_")
        and next(iter(inspect.signature(fn).parameters)) == "ctx"
    }
    assert sweeps and sweeps <= registered, sweeps - registered
    # A sweep's axes are literals in its body: nothing left to pass but ctx.
    for fn in registered:
        assert list(inspect.signature(fn).parameters) == ["ctx"], fn


@pytest.mark.parametrize("style", reporting.STYLES)
def test_every_entry_renders_in_both_styles(results, style):
    for entry in experiments.EXPERIMENTS:
        text = entry.render(results[entry.key], style)
        assert text.strip(), entry.key
        for table in entry.tables:
            if table.title:
                assert table.title in text, (entry.key, table.title)


def test_rendered_rows_match_their_headers(results):
    for entry in experiments.EXPERIMENTS:
        tables = _markdown_tables(entry.render(results[entry.key], "markdown"))
        if entry.key != "table2":  # a listing, not a table
            assert tables, entry.key
        for table in tables:
            header, rule, *rows = table
            assert rows, (entry.key, header)
            assert all(cell == "---" for cell in rule)
            for row in [rule] + rows:
                assert len(row) == len(header), (entry.key, header, row)


@pytest.mark.parametrize("style", reporting.STYLES)
def test_cell_formats(style):
    text = reporting.format_table(["a", "b", "c"], [[None, True, 1.25]], style)
    cells = text.splitlines()[-1].strip("| ").replace(" | ", "  ").split()
    assert cells == ["-", "yes", "1.250" if style == "text" else "1.25"]
    with pytest.raises(ValueError):
        reporting.format_table(["a"], [[1]], "json")


def test_failed_rows_render_as_oom(results):
    seen = 0
    for key, width in (("batching_throughput", 3), ("shard_scaling", 5)):
        failed = [r for r in results[key]["rows"] if r["failed"]]
        (table,) = _markdown_tables(experiments.experiment(key).render(
            results[key], "markdown"
        ))
        oom = [row for row in table[2:] if "OOM" in row]
        assert len(oom) == len(failed)
        for row in oom:
            assert row[width] == "OOM"
            assert set(row[width + 1:]) == {"-"}
            assert "-" not in row[:width]
        seen += len(oom)
    assert seen, "the TW K=16 cells should OOM one device"


def test_document_numbers_its_sections_in_order(results, tmp_path, monkeypatch):
    monkeypatch.setattr(
        experiments.Experiment, "run", lambda self, ctx: results[self.key]
    )
    path = tmp_path / "EXPERIMENTS.md"
    text = experiments.generate_experiments_md(
        str(path), scale=0.05, datasets=("LJ", "RC", "TW")
    )
    assert path.read_text() == text and text.endswith("|\n")
    assert "`scale=0.05`, `datasets=LJ,RC,TW`" in text
    sections = re.findall(r"^## (\d+)\. ", text, flags=re.MULTILINE)
    assert sections == [str(n) for n in range(1, 11)]
    assert "\n\n\n" not in text


def test_newest_record_is_a_full_perfbench_run():
    newest = sorted(REPO.glob(experiments.BENCH_RECORD_GLOB))[-1]
    record = json.loads(newest.read_text())
    assert record["meta"]["quick"] is False
    assert list(record["results"]) == [w["name"] for w in SPEC["workloads"]]
    for name, passes in record["results"].items():
        assert set(passes) == {"end_to_end", "per_layer"}, name
        for side in passes.values():
            assert side["ops_failed"] == 0 < side["ops_attempted"], name
        for metric in SPEC["end_to_end"]:
            assert passes["end_to_end"]["metrics"][metric["name"]] > 0, (name, metric)


def test_section8_reads_the_newest_record_and_never_measures(
    ctx, tmp_path, monkeypatch
):
    newest = sorted(REPO.glob(experiments.BENCH_RECORD_GLOB))[-1]
    entry = experiments.experiment("host_wallclock")
    result = entry.run(ctx)
    assert result["source"] == newest.name
    (table,) = _markdown_tables(entry.render(result, "markdown"))
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(table[0])
    assert [row[0] for row in table[2:]] == [w["name"] for w in SPEC["workloads"]]

    monkeypatch.setattr(experiments, "RECORDS_DIR", tmp_path)
    with pytest.raises(FileNotFoundError, match=r"BENCH_\[0-9\]\*\.json"):
        entry.run(ctx)
    for seed, bench_id in enumerate(("BENCH_0002", "BENCH_0010", "BENCH_0009")):
        (tmp_path / f"{bench_id}.json").write_text(
            json.dumps({"meta": {"seed": seed}, "results": {}})
        )
    result = entry.run(ctx)
    assert (result["meta"], result["source"]) == ({"seed": 1}, "BENCH_0010.json")


def test_one_entry_is_enough_to_add_an_experiment(ctx, monkeypatch, capsys):
    def toy(ctx):
        return {"rows": [{"graph": g, "n": ctx.graph(g).num_vertices / 1.0}
                         for g in ctx.datasets]}

    entry = experiments.Experiment(
        "toy", "Toy - vertex counts", toy,
        reporting.Table("Toy: vertices", (("graph", "graph"), ("|V|", "n", 0))),
    )
    monkeypatch.setattr(
        experiments, "EXPERIMENTS", experiments.EXPERIMENTS + (entry,)
    )
    assert experiments.experiment("toy") is entry
    result = entry.run(ctx)
    assert "Toy: vertices\ngraph  |V|" in entry.render(result)
    assert "### Toy: vertices\n\n| graph | |V| |" in entry.render(result, "markdown")

    monkeypatch.setattr(sys, "argv", [
        "reproduce_paper.py", "--datasets", "LJ,RC", "--scale", "0.05",
        "--only", "toy",
    ])
    runpy.run_path(str(REPO / "examples" / "reproduce_paper.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Toy - vertex counts" in out and "Toy: vertices" in out
    assert "Table 3" not in out


def test_package_import_is_lazy():
    """``python -m repro.bench.<module>`` must not find itself pre-imported."""
    code = (
        "import sys, repro.bench; "
        "assert not [m for m in sys.modules if m.startswith('repro.bench.')]; "
        "from repro.bench import experiments"
    )
    subprocess.run(
        [sys.executable, "-W", "error", "-c", code], check=True, timeout=60,
        env={"PYTHONPATH": str(REPO / "src")},
    )


def test_gather_iterations_never_ballot(results):
    """EXPERIMENTS.md §2: a gather worker's bin cannot overflow."""
    rows = results["phase_timings"]["trace_rows"]
    assert rows
    for row in rows:
        assert row["pull_ballot_iterations"] == 0, row


def test_gather_refinement_is_exact_and_only_prunes(results):
    """EXPERIMENTS.md §4: pruning settled vertices never changes a value."""
    rows = results["gather_refinement"]["rows"]
    assert rows
    for row in rows:
        assert row["values_identical"], row
        assert row["scanned_edges_pruned"] <= row["scanned_edges_unpruned"], row
