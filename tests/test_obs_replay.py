"""The replay kernel: world building, fault scoping, ledger comparison."""

import pytest

from repro.core.delta import DeltaSearch
from repro.experiments.config import get_scale
from repro.obs.replay import (MS_RTOL, build_world, injected_faults,
                              replay, session_path, unbalanced_fields)
from repro.storage.disk import IOStats
from repro.storage.faults import named_plan


@pytest.fixture(scope="module")
def world():
    return build_world(get_scale("small"))


def test_build_world_like_shares_the_dataset(world):
    experiment = get_scale("small")
    packed = build_world(experiment, schemes=("vertical",), compress=True,
                         like=world)
    assert packed.scene is world.scene
    assert packed.grid is world.grid
    assert packed.visibility is world.visibility
    assert list(packed.schemes) == ["vertical"]
    assert packed.scheme().codec.packed
    assert not world.scheme().codec.packed


def test_session_path_defaults_to_the_scale_length(world):
    experiment = get_scale("small")
    assert session_path(experiment, world, 1).num_frames \
        == experiment.session_frames
    assert session_path(experiment, world, 2, 7).num_frames == 7


def test_injected_faults_cover_every_file_for_the_block_only(world):
    plan = named_plan("aggressive")
    with injected_faults(world, plan, seed=3) as injector:
        assert all(pfile.faults is injector for pfile in world.files())
        with pytest.raises(RuntimeError):
            with injected_faults(world, None, seed=0) as idle:
                # No plan: nothing installed, the first injector stays.
                assert all(pfile.faults is injector
                           for pfile in world.files())
                assert idle.total_injected() == 0
                raise RuntimeError("leave through the error path")
        assert all(pfile.faults is injector for pfile in world.files())
    assert all(pfile.faults is None for pfile in world.files())


def test_unbalanced_fields_integers_exact_ms_within_tolerance():
    ledger = IOStats(reads=5, seeks=3, back_seeks=1, forward_seeks=2,
                     sequential_reads=2, bytes_read=4096,
                     simulated_ms=1000.0)
    same = ledger.to_dict()
    assert unbalanced_fields(same, ledger.to_dict()) == []
    drifted = dict(same, simulated_ms=1000.0 * (1 + MS_RTOL / 2))
    assert unbalanced_fields(drifted, same) == []
    assert unbalanced_fields(same, drifted) == []
    off = dict(same, simulated_ms=1000.0 * (1 + 10 * MS_RTOL),
               back_seeks=2, forward_seeks=1)
    assert sorted(unbalanced_fields(off, same)) \
        == ["back_seeks", "forward_seeks", "simulated_ms"]


@pytest.mark.parametrize("scheme", ["horizontal", "vertical",
                                    "indexed-vertical"])
def test_two_replays_of_one_path_charge_identical_io(scheme):
    """A replay starts cold — tree and model file heads included — so a
    second replay on the same environment repeats the first's ledgers
    field for field, seek direction split included; and the first one
    after a build is no different (the build's head positions used to
    leak into its back/forward split)."""
    experiment = get_scale("small")
    env = build_world(experiment, schemes=(scheme,))
    path = session_path(experiment, env, 4)

    def ledgers():
        system, report = replay(experiment, env, path, eta=0.001)
        return (env.light_stats.snapshot(), env.heavy_stats.snapshot(),
                system.light_total, system.heavy_total, report.frames)

    first, second = ledgers(), ledgers()
    assert first == second
    light, heavy = first[0], first[1]
    assert light.back_seeks + light.forward_seeks == light.seeks > 0
    assert heavy.back_seeks + heavy.forward_seeks == heavy.seeks > 0
    assert (light, heavy) == first[2:4]


def test_packed_replay_selects_the_same_and_reads_fewer_bytes(
        world, monkeypatch):
    """Raw vs packed build of one dataset, one path through the kernel:
    every query selects the same LoDs, so the heavy (model) ledger is
    field-for-field equal, and the light ledger reads strictly fewer
    bytes — what the packed codec is for."""
    experiment = get_scale("small")
    packed = build_world(experiment, compress=True, like=world)
    path = session_path(experiment, world, 4)
    selections = []
    query_cell = DeltaSearch.query_cell

    def recording(self, cell_id, eta):
        result = query_cell(self, cell_id, eta)
        selections.append((
            cell_id,
            sorted((o.object_id, o.fraction) for o in result.objects),
            sorted((i.node_offset, i.fraction) for i in result.internals)))
        return result

    monkeypatch.setattr(DeltaSearch, "query_cell", recording)

    def walk(env):
        del selections[:]
        replay(experiment, env, path, eta=0.001)
        return (list(selections), env.heavy_stats.snapshot(),
                env.light_stats.snapshot())

    raw_selected, raw_heavy, raw_light = walk(world)
    packed_selected, packed_heavy, packed_light = walk(packed)
    assert len(raw_selected) > 1
    assert packed_selected == raw_selected
    assert packed_heavy == raw_heavy
    assert 0 < packed_light.bytes_read < raw_light.bytes_read
