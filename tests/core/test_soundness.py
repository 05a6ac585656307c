"""Ground-truth soundness of the uncertainty analysis.

The paper's derivations guarantee that an object's true position lies
inside its uncertainty region — at the query time point for ``UR(o, t)``
and at every in-window time for ``UR(o, [t_s, t_e])``.  With simulated
data we know the ground truth, so we check the guarantee directly, both
with and without the topology check (the check must tighten regions, never
cut off truth).
"""

# repro: allow-file(context-bypass): verifies the raw builders against ground truth, independent of caching

import pytest

from repro.core import (
    interval_contexts,
    interval_uncertainty,
    snapshot_contexts,
    snapshot_region,
)
from repro.geometry import Samples


def probe_times(dataset, count=7):
    start, end = dataset.time_span()
    step = (end - start) / (count + 1)
    return [start + step * (i + 1) for i in range(count)]


class TestSnapshotSoundness:
    @pytest.mark.parametrize("topology_on", [True, False], ids=["topo", "euclid"])
    def test_true_position_inside_region(self, synthetic_dataset, topology_on):
        engine = synthetic_dataset.engine(topology_check=topology_on)
        checked = 0
        for t in probe_times(synthetic_dataset):
            for context in snapshot_contexts(engine.artree, t):
                region = snapshot_region(
                    context, engine.deployment, engine.v_max, engine.topology
                )
                truth = synthetic_dataset.trajectory_of(
                    context.object_id
                ).position_at(t)
                assert region.contains(truth), (
                    f"object {context.object_id} at t={t}: true position "
                    f"{truth} outside its snapshot UR (topology={topology_on})"
                )
                checked += 1
        assert checked > 50  # the probe actually exercised many objects


class TestIntervalSoundness:
    @pytest.mark.parametrize("topology_on", [True, False], ids=["topo", "euclid"])
    def test_whole_true_subtrajectory_inside_region(
        self, synthetic_dataset, topology_on
    ):
        engine = synthetic_dataset.engine(topology_check=topology_on)
        start, end = synthetic_dataset.window(4)
        checked = 0
        for context in interval_contexts(engine.artree, start, end):
            uncertainty = interval_uncertainty(
                context, engine.deployment, engine.v_max, engine.topology
            )
            region = uncertainty.region
            trajectory = synthetic_dataset.trajectory_of(context.object_id)
            for t in trajectory.sample_times(start, end, step=7.0):
                truth = trajectory.position_at(t)
                assert region.contains(truth), (
                    f"object {context.object_id} at t={t}: true position "
                    f"{truth} outside its interval UR (topology={topology_on})"
                )
                checked += 1
        assert checked > 100


class TestTopologyCheckOnlyTightens:
    def test_checked_region_subset_of_unchecked(self, synthetic_dataset):
        euclid_engine = synthetic_dataset.engine(topology_check=False)
        topo_engine = synthetic_dataset.engine(topology_check=True)
        t = synthetic_dataset.mid_time()
        import numpy as np

        rng = np.random.default_rng(0)
        for context in snapshot_contexts(topo_engine.artree, t)[:20]:
            unchecked = snapshot_region(
                context, euclid_engine.deployment, euclid_engine.v_max, None
            )
            checked = snapshot_region(
                context,
                topo_engine.deployment,
                topo_engine.v_max,
                topo_engine.topology,
            )
            box = unchecked.mbr
            if box is None:
                continue
            xs = rng.uniform(box.min_x, box.max_x, 80)
            ys = rng.uniform(box.min_y, box.max_y, 80)
            samples = Samples.of(xs, ys)
            checked_mask = checked.contains_many(samples)
            unchecked_mask = unchecked.contains_many(samples)
            # checked ⊆ unchecked
            assert not (checked_mask & ~unchecked_mask).any()

    def test_flows_never_increase_with_topology_check(self, synthetic_dataset):
        euclid_engine = synthetic_dataset.engine(topology_check=False)
        topo_engine = synthetic_dataset.engine(topology_check=True)
        t = synthetic_dataset.mid_time()
        euclid_flows = euclid_engine.snapshot_flows(t)
        topo_flows = topo_engine.snapshot_flows(t)
        for poi_id, value in topo_flows.items():
            assert value <= euclid_flows.get(poi_id, 0.0) + 1e-9
