"""The examples that drive ``run_experiment``, the paper's model, the
served node, the trace statistics or the SSD model run at ≈1,500 objects
through ``runpy`` (each ``main`` takes the object count)."""

import runpy
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"

#: example -> a line its last section prints
LAST_SECTION = {
    "quickstart": "SSD writes avoided",
    "latency_analysis": "faster backends shrink the payoff",
    "photo_cache_study": "one-time-access exclusion for LRU",
    "production_node": "SSD lifetime",
    "serve_and_replay": "matured samples → model v",
    "ssd_lifetime_study": "write-density sanity check",
    "workload_analysis": "one-time share by hour",
}


@pytest.mark.parametrize("name", sorted(LAST_SECTION))
def test_example_runs_small(name, capsys):
    main = runpy.run_path(str(EXAMPLES / f"{name}.py"))["main"]
    main(1_500)
    assert LAST_SECTION[name] in capsys.readouterr().out
