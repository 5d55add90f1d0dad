"""Reference code the tests share and the program itself does not call.

``matmul`` is the unfused taped product that the fused ops (``linear``,
the edge ops) are checked against. ``head_names`` and ``build_dataset``
are the tests' short ways to pick a model's head tensors and to solve one
scenario into a dataset.
"""

import gridvolt.autodiff as ad
import gridvolt.dataset as ds
import gridvolt.simulation as sim


def matmul(a, b) -> ad.Tensor:
    """``a @ b`` of two 2-D tensors as one taped op."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.values.ndim != 2 or b.values.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ad.ShapeError(f"matmul: incompatible shapes {a.shape} @ "
                            f"{b.shape}")
    vals = a.values @ b.values

    def bwd(g):
        return (g @ b.values.T, a.values.T @ g)

    return ad._record("matmul", vals, (a, b), bwd)


def head_names(params) -> list[str]:
    """The names of the model's head tensors, in parameter order."""
    return [n for n, g in params.groups.items() if g == "head"]


def build_dataset(spec: sim.SubstationSpec,
                  scenario: sim.ScenarioConfig) -> ds.SnapshotDataset:
    """Run the scenario and flatten every snapshot into dataset arrays."""
    run = sim.run_timeseries(spec, scenario)
    return ds.dataset_from_states(spec, scenario, run, sim.derive_flows(run))
