"""Pins the engine's option surface.

``EngineConfig`` holds exactly the knobs some shipped experiment, workload
or safety matrix varies. A new field has to edit ``FIELDS`` here *and* the
options table in ``docs/architecture.md`` ("Engine options") on purpose;
harness-only hooks belong in ``tests/engine_seams.py``, not in the config.
"""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from repro.core.engine import EngineConfig

FIELDS = {
    "filter_mode", "fusion", "overflow_threshold", "small_medium_separator",
    "medium_large_separator", "forced_direction", "lane_aware_split",
    "shadow_online", "atomic_combine", "sanitize", "num_shards",
}

ARCHITECTURE = Path(__file__).resolve().parent.parent / "docs" / "architecture.md"


def test_fields_are_exactly_the_documented_eleven():
    assert {f.name for f in dataclasses.fields(EngineConfig)} == FIELDS


def test_every_field_has_a_row_in_the_options_table():
    rows = re.findall(
        r"^\| `(\w+)` \|", ARCHITECTURE.read_text(encoding="utf-8"), re.M
    )
    assert set(rows) == FIELDS
    assert len(rows) == len(FIELDS)


@pytest.mark.parametrize(
    "removed",
    ["direction_auto", "max_iterations", "split_schedule", "split_margin",
     "kernel_backend", "nope"],
)
def test_unknown_keyword_rejected(removed):
    with pytest.raises(TypeError):
        EngineConfig(**{removed: None})
