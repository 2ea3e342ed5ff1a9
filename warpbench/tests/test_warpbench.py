"""Self-tests of the benchmark at toy size (seconds, not minutes)."""

import dataclasses
import json
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from warpbench.reference import Reference  # noqa: E402
from warpbench.run import metric_units, report_lines  # noqa: E402
from warpbench.workloads import WORKLOADS, measure, run, setup  # noqa: E402

TOY = {
    "numeric2d-grad": dict(n=400, grid_counts=(16, 16),
                           sample_grid_counts=(20, 16)),
    "separation": dict(n=600, dt=0.01, grid_per_cycle=12),
    "curve-value": dict(n=300, dt=0.02, grid_per_cycle=12,
                        lanczos_steps=15),
}


def toy(name):
    small = {"n_probes": 4, "lanczos_steps": 8}
    return dataclasses.replace(WORKLOADS[name], **{**small, **TOY[name]})


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace):
    result = run(toy(name), seed=0, seconds=0.0, trace=trace)
    assert result["failed"] == 0
    lines = report_lines(result, {}, metric_units())
    expected = declared("per_layer" if trace else "end_to_end")
    printed = json.loads(lines[-1])["metrics"]
    assert set(printed) == set(expected)
    for metric, unit in expected.items():
        assert printed[metric]["unit"] == unit
        assert np.isfinite(printed[metric]["value"])
        assert any(line.startswith(f"{metric} = ") and line.endswith(unit)
                   for line in lines[:-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_nan_poisoned_y_counts_as_failed_operation(name):
    w = toy(name)
    state = setup(w, seed=0)
    state.y[3] = np.nan
    result = measure(w, state, seconds=0.0, setup_times=[0.0])
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_counts_repeat_exactly_across_runs():
    units = declared("per_layer")
    w = toy("numeric2d-grad")
    counts = [{k: v for k, v in run(w, seed=1, seconds=0.0,
                                    trace=True)["metrics"].items()
               if units[k] == "count"}
              for _ in range(2)]
    assert counts[0] == counts[1]
    assert counts[0]["operators.dmvm_calls"] > 0


def test_reference_kernel_does_fixed_work():
    # the divisor of eval_ref and solve_ref: the same inputs and the same
    # result on every run, whatever the seed of the workload
    assert Reference().run() == Reference().run()
    assert Reference().time() > 0.0
