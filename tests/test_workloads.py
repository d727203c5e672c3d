"""Network descriptors, and what each engine of run_network builds."""

import weakref

import pytest

from scnnsim import workloads
from scnnsim.dataflow import ConfigurationError
from scnnsim.simulator import ArchConfig
from scnnsim.workloads import (
    VARIANT_ORACLE,
    VARIANT_SCNN,
    density_sweep,
    load_network,
    run_network,
)

SHIPPED = ("alexnet", "googlenet", "inception_mini", "vggnet")

TINY_CHAIN = """\
schema_version: 1
name: tiny-chain
topology: chain
input: {channels: 3, width: 15, height: 15}
layers:
  - {name: c1, K: 8, R: 3, S: 3, stride: 2, pad: 1,
     weight_density: 0.8, act_density: 1.0, pool: {window: 2, stride: 2}}
  - {name: c2, K: 8, R: 3, S: 3, pad: 1, groups: 2,
     weight_density: 0.5, act_density: 0.6}
  - {name: c3, K: 4, R: 1, S: 1, weight_density: 0.6, act_density: 0.5}
"""


@pytest.mark.parametrize(
    "name,billions", [("alexnet", 0.69), ("googlenet", 1.1), ("vggnet", 15.3)]
)
def test_dense_multiply_total_matches_validation_target(name, billions):
    assert load_network(name).total_multiplies() == pytest.approx(billions * 1e9, rel=0.05)


def test_analytic_engine_makes_no_tensor(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the analytic engine made a tensor")

    monkeypatch.setattr(workloads, "gen_synthetic", forbidden)
    monkeypatch.setattr(workloads, "prune_magnitude", forbidden)
    arch = ArchConfig()
    for name in SHIPPED:
        net = load_network(name)
        assert len(run_network(net, arch, engine="analytic").layers) == len(net.layers)
    points = density_sweep(
        load_network("inception_mini"), arch, (1.0, 0.5), engine="analytic"
    )
    assert {p.density for p in points} == {1.0, 0.5}


def test_sim_engine_makes_weights_one_layer_ahead(monkeypatch, tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CHAIN)
    net = load_network(path)
    made, seeds, most_alive = [], [], [0]
    synth = workloads.synth_weights

    def tracked(spec, seed):
        w = synth(spec, seed)
        made.append(weakref.ref(w))
        seeds.append(seed)
        most_alive[0] = max(most_alive[0], sum(r() is not None for r in made))
        return w

    monkeypatch.setattr(workloads, "synth_weights", tracked)
    run = run_network(net, ArchConfig(), (VARIANT_SCNN, VARIANT_ORACLE), seed=5)
    assert seeds == [5, 106, 207]
    assert most_alive[0] == 2
    assert all(lr.oracle_checked for lr in run.layers)


@pytest.mark.parametrize("engine", ["analytical", "Sim", ""])
def test_unknown_engine_rejected(engine):
    net = load_network("inception_mini")
    with pytest.raises(ConfigurationError, match="unknown engine"):
        density_sweep(net, ArchConfig(), (0.5,), engine=engine)
    with pytest.raises(ConfigurationError, match="unknown engine"):
        run_network(net, ArchConfig(), engine=engine)
