"""Direct unit tests of the checkpoint scheduler through a live (but
tiny) deployment, inspecting SchedulerState transitions."""

from repro.mpichv.config import VclConfig
from repro.mpichv.runtime import VclRuntime
from repro.workloads.nas_bt import BTWorkload


def runtime(n=4, seed=0, period=30.0, **cfg):
    cfg.setdefault("footprint", 1.2e8)
    config = VclConfig(n_procs=n, n_machines=n + 2, ckpt_period=period, **cfg)
    wl = BTWorkload(n_procs=n, niters=20, total_compute=400.0,
                    footprint=cfg["footprint"])
    return VclRuntime(config, wl.make_factory(), seed=seed)


def test_no_wave_before_all_connected():
    rt = runtime()
    rt.deploy()
    rt.engine.run(until=1.0)        # daemons still launching at t<=0.2
    sched = rt.scheduler_state
    assert sched.waves_started == 0
    assert sched.wave_id == 0


def test_waves_commit_in_sequence():
    rt = runtime()
    res = rt.run()
    sched = rt.scheduler_state
    assert sched.waves_started == sched.waves_committed >= 2
    assert sched.waves_aborted == 0
    assert sched.committed_wave == sched.wave_id
    starts = [r.t for r in res.trace.of_kind("ckpt_wave_start")]
    completes = [r.t for r in res.trace.of_kind("ckpt_wave_complete")]
    # every wave completes before the next starts ("only after the end
    # of the previous one")
    for nxt, done in zip(starts[1:], completes):
        assert done < nxt


def test_wave_duration_scales_with_footprint():
    def duration(footprint):
        rt = runtime(footprint=footprint)
        res = rt.run()
        start = res.trace.of_kind("ckpt_wave_start")[0].t
        done = res.trace.of_kind("ckpt_wave_complete")[0].t
        return done - start

    assert duration(6e8) > duration(1.2e8)


def test_abort_then_recommit_after_failure():
    rt = runtime(seed=2)
    # strike during wave 2's image drain (waves start on the 30 s grid)
    rt.engine.call_at(60.5, lambda: rt.cluster.all_procs("vdaemon")[0].kill())
    res = rt.run()
    sched = rt.scheduler_state
    assert res.outcome.value == "terminated"
    assert sched.waves_aborted >= 1
    # the system still finished, so new waves committed after recovery
    assert sched.waves_committed >= 2


def test_longer_period_means_fewer_waves():
    waves_30 = runtime(period=30.0).run().waves_committed
    waves_60 = runtime(period=60.0, seed=0).run().waves_committed
    assert waves_60 < waves_30


def test_scheduler_conns_tracks_epoch_churn():
    rt = runtime(seed=3)
    rt.engine.call_at(45.0, lambda: rt.cluster.all_procs("vdaemon")[1].kill())
    res = rt.run()
    sched = rt.scheduler_state
    # after recovery all four ranks re-registered with the scheduler
    assert res.outcome.value == "terminated"
    assert set(sched.conns) == {0, 1, 2, 3}
