"""Smoke test of the entry census (``python -m tests.entry_census``).

The full-suite run is not a Tier-1 step; this runs it over one small test
file in a subprocess and checks what its report lists and leaves out.
"""

import subprocess
import sys

from tests.entry_census import ALLOWLIST, ROOT


def test_census_over_one_file_lists_what_it_never_entered():
    proc = subprocess.run(
        [sys.executable, "-m", "tests.entry_census", "-p", "no:cacheprovider",
         "tests/ml/test_preprocessing.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = proc.stdout.split("entry census: ", 1)[1].splitlines()
    lines = [line for line in report[1:] if line.startswith("repro.")]
    assert int(report[0].split()[0]) == len(lines) > 0
    listed = {line.split()[0] for line in lines}
    # Entered by the file's tests: not listed.
    assert "repro.ml.preprocessing.StandardScaler.transform" not in listed
    assert "repro.ml.preprocessing.UniformDiscretizer.transform" not in listed
    # Never reached from a preprocessing test: listed.
    assert "repro.server.loadgen.run_loadgen" in listed
    # Nothing to run (``raise NotImplementedError``) and the allowlist: left out.
    assert "repro.ml.base.BaseEstimator.fit" not in listed
    assert not listed & set(ALLOWLIST)
