"""The benchmark's output checks on its tiny inputs, run once each, with no timing."""

import contextlib
import io
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import run as bench  # noqa: E402
import score  # noqa: E402
import workloads  # noqa: E402
from portcall import cli  # noqa: E402


@pytest.mark.parametrize("seed", [7, 101])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_scores_clean(tmp_path, name, seed):
    """Every line has its outcome, every status is right, and no outage is missed or made up."""
    w = workloads.WORKLOADS[name]
    inputs = workloads.make_inputs(w, seed, tmp_path / "inputs", tiny=True)
    out = tmp_path / "out"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert cli.main(bench.cli_argv(w, inputs.files, out)) == cli.EXIT_OK
    result = score.score(w, inputs, workloads.expectation(inputs), out, stdout.getvalue())
    assert result.failed == 0
    assert result.status_accuracy == 1.0
    assert result.quality == dict.fromkeys(result.quality, 0)
    assert result.problems == []
