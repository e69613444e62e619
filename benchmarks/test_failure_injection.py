"""Extension bench: exhaustive single-link failure injection.

For every link of the paper's 16-switch network: fail it, reconfigure
up*/down*, re-evaluate the stale OP mapping, repair and re-schedule, and
verify the recovery ordering — plus a simulated spot-check that the
rescheduled mapping out-delivers the stale one on the degraded network.
"""

from conftest import run_once

from repro.core.scheduler import CommunicationAwareScheduler
from repro.experiments.failures import (
    render_fault_study,
    render_repair_timing,
    run_fault_study,
)
from repro.faults.model import single_link_scenarios
from repro.routing.tables import RoutingTable
from repro.routing.updown import UpDownRouting
from repro.simulation.sweep import find_saturation_rate
from repro.simulation.traffic import IntraClusterTraffic
from repro.core.mapping import partition_to_mapping


def test_failure_injection(benchmark, setup16, bench_config, record):
    scenarios = single_link_scenarios(setup16.topology)
    res = run_once(benchmark, lambda: run_fault_study(setup16, scenarios))
    record("failure_injection", render_fault_study(res))
    print(render_repair_timing(res))

    assert all(r.connected for r in res.rows), \
        "the 3-regular evaluation network must survive any single failure"
    assert res.all_survivable_repaired_ok()
    recovered = sum(1 for r in res.survivable
                    if r.c_c_rescheduled - r.c_c_degraded > 1e-9)
    assert recovered >= len(res.rows) // 2, \
        "re-scheduling should recover quality after most failures"

    # Simulated spot check on the most damaging failure.
    worst = min(res.survivable, key=lambda r: r.c_c_degraded)
    failed = setup16.topology.without_links(worst.scenario.links)
    sched = CommunicationAwareScheduler(failed, routing=UpDownRouting(failed))
    rt = RoutingTable(sched.routing)
    stale = setup16.op_mapping()
    stale_mapping = partition_to_mapping(stale.partition, setup16.workload,
                                         failed)
    fresh = sched.schedule(setup16.workload, seed=1)
    tp_stale = find_saturation_rate(
        rt, IntraClusterTraffic(stale_mapping), bench_config
    )["throughput"]
    tp_fresh = find_saturation_rate(
        rt, IntraClusterTraffic(fresh.mapping), bench_config
    )["throughput"]
    print(f"\nworst failure {worst.scenario.label}: stale throughput "
          f"{tp_stale:.3f}, rescheduled {tp_fresh:.3f}")
    assert tp_fresh >= 0.95 * tp_stale, \
        "rescheduled mapping must not lose to the stale one"
