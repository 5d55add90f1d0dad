"""Gradient-validation harness tests.

Besides asserting the shipped model passes, one test injects a backward
rule that is wrong by 50% and requires the harness to flag it, so a green
gradcheck is evidence and not vacuous.
"""

import numpy as np
import pytest

import gridvolt.autodiff as ad
import gridvolt.gradcheck as gc
import gridvolt.network as net

EI = net.EDGE_FEATURE_INDEX


@pytest.fixture(scope="module")
def report():
    return gc.run_gradcheck(seed=0)


def test_toy_snapshot_structure():
    item = gc.toy_snapshot(seed=0)
    assert item.node_x.shape[0] == 10
    assert set(item.node_feeder.tolist()) == {net.HUB_FEEDER, 1, 2}
    devs = [f"dev_{d}" for d in ("line", "cable", "xfmr_reg", "switch")]
    for dev in devs:
        assert item.edge_z[:, EI[dev]].sum() >= 1.0, dev
    assert (item.edge_z[:, EI["status"]] == 0.0).sum() == 1  # one open tie
    assert item.observed.any() and (~item.observed).any()
    assert len(item.phys_from) >= 4
    assert np.all(item.phys_r > 0)


def test_full_model_gradcheck_passes(report):
    assert report.all_ok
    assert report.worst_rel_err < 1e-4
    assert report.runtime_s < 60.0


def test_report_covers_every_block(report):
    names = [b.block for b in report.blocks]
    assert names == ["input+prior", "layer0", "layer1", "layer2", "layer3",
                     "conditioning", "decoder"]
    assert sum(b.n_tensors for b in report.blocks) == 3 + 4 * 12 + 5 + 4


def test_gradcheck_is_deterministic(report):
    again = gc.run_gradcheck(seed=0)
    assert again.worst_rel_err == report.worst_rel_err
    assert [b.worst_rel_err for b in again.blocks] == \
        [b.worst_rel_err for b in report.blocks]


def test_format_report_table(report):
    text = gc.format_report(report)
    assert "overall: pass" in text
    assert text.count("pass") >= len(report.blocks)
    assert "worst rel err" in text


def test_harness_catches_a_wrong_backward_rule(monkeypatch):
    def bad_absolute(x):
        x = ad.as_tensor(x)
        vals = np.abs(x.values)

        def bwd(g):
            return (g * np.sign(x.values) * 1.5,)  # deliberately wrong

        return ad._record("absolute", vals, (x,), bwd)

    monkeypatch.setattr(ad, "absolute", bad_absolute)
    report = gc.run_gradcheck(seed=0, n_samples=4)
    assert not report.all_ok


def test_harness_catches_a_wrong_l2_gradient(monkeypatch):
    # the L2 term is off the tape; seeding lam*theta instead of its
    # gradient 2*lam*theta must still show up against finite differences
    real = ad.FlatStore.l2_term

    def half_gradient(self, lam):
        return real(self, lam / 2.0)  # same value, seeds lam * theta

    monkeypatch.setattr(ad.FlatStore, "l2_term", half_gradient)
    report = gc.run_gradcheck(seed=0, n_samples=4)
    assert not report.all_ok
