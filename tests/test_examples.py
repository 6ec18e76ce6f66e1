"""Every example runs at ≈1,500 objects through ``runpy`` (each ``main``
takes the object count).  The examples are found by glob, so a new one
fails here until :data:`LAST_SECTION` names a line its last section
prints."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: example -> a line its last section prints
LAST_SECTION = {
    "quickstart": "SSD writes avoided",
    "latency_analysis": "faster backends shrink the payoff",
    "multi_tenant": "shared @ 3× rate",
    "photo_cache_study": "one-time-access exclusion for LRU",
    "production_node": "SSD lifetime",
    "serve_and_replay": "matured samples → model v",
    "ssd_lifetime_study": "write-density sanity check",
    "two_tier_cluster": "shard balance vs OC node count",
    "workload_analysis": "one-time share by hour",
}


@pytest.mark.parametrize("name", sorted(p.stem for p in EXAMPLES.glob("*.py")))
def test_example_runs_small(name, capsys):
    assert name in LAST_SECTION, f"examples/{name}.py has no LAST_SECTION entry"
    main = runpy.run_path(str(EXAMPLES / f"{name}.py"))["main"]
    main(1_500)
    assert LAST_SECTION[name] in capsys.readouterr().out
