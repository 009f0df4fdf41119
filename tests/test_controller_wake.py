"""Golden DES rows for every controller variant.

The controller visits only woken banks instead of scanning all of them
on every kick.  These rows were recorded with the full-scan scheduler;
matching them to the last bit on each variant (drain policies, pausing,
coalescing, subarrays, row buffer, ranks) shows the wake rules reproduce
its decisions, and the select() accounting shows the policy is consulted
only for banks that have a candidate.
"""

import functools

import pytest

from repro.config import MemCtrlConfig, PCMOrganization, default_config
from repro.cpu.system import CMPSystem
from repro.experiments.fullsystem import (
    PrecomputedServiceModel,
    precompute_write_service,
)
from repro.memctrl.frfcfs import RowBufferModel
from repro.trace.synthetic import generate_trace

REQUESTS_PER_CORE = 300
TRACE_SEED = 20160816

BASE = default_config()
VARIANTS = {
    "default": BASE,
    "opportunistic": BASE.replace(memctrl=MemCtrlConfig(opportunistic_drain=True)),
    "sjf": BASE.replace(memctrl=MemCtrlConfig(drain_order="sjf")),
    "pausing": BASE.replace(memctrl=MemCtrlConfig(write_pausing=True)),
    "coalescing": BASE.replace(memctrl=MemCtrlConfig(write_coalescing=True)),
    "subarrays": BASE.replace(organization=PCMOrganization(subarrays_per_bank=4)),
    "rowbuffer": BASE,  # plus a RowBufferModel, see _run
    "ranks": BASE.replace(organization=PCMOrganization(num_ranks=2)),
}

# (workload, scheme, variant): (runtime_ns, mean read latency, mean write
# latency, events, drain_entries), recorded with the full-scan scheduler.
GOLDEN = {
    ('dedup', 'dcw', 'default'): (389687.0, 1340.3008474576282, 16084.832317073176, 4384, 20),
    ('dedup', 'dcw', 'opportunistic'): (336817.0, 1184.9505649717523, 6054.779471544717, 4796, 0),
    ('dedup', 'dcw', 'sjf'): (389687.0, 1340.3008474576282, 16084.832317073176, 4384, 20),
    ('dedup', 'dcw', 'pausing'): (224156.0, 104.80790960451979, 18189.134146341472, 4734, 1),
    ('dedup', 'dcw', 'coalescing'): (365930.5, 1341.5586158192098, 15364.41056910569, 4391, 19),
    ('dedup', 'dcw', 'subarrays'): (249394.0, 603.6158192090394, 14432.09654471545, 4556, 3),
    ('dedup', 'dcw', 'rowbuffer'): (370872.0, 1300.9194915254238, 15537.585365853658, 4370, 20),
    ('dedup', 'dcw', 'ranks'): (270408.0, 767.0572033898288, 11723.02134146342, 4332, 19),
    ('dedup', 'tetris', 'default'): (165731.0, 242.61370056497205, 6361.033536585367, 4503, 20),
    ('dedup', 'tetris', 'opportunistic'): (153138.0, 161.14194915254254, 897.6859756097556, 4793, 0),
    ('dedup', 'tetris', 'sjf'): (171393.0, 227.6031073446328, 6502.512195121956, 4492, 19),
    ('dedup', 'tetris', 'pausing'): (138953.5, 78.97740112994344, 5371.877032520322, 4671, 15),
    ('dedup', 'tetris', 'coalescing'): (170031.5, 234.89124293785304, 6303.013211382112, 4503, 20),
    ('dedup', 'tetris', 'subarrays'): (141904.0, 96.795197740113, 5594.802845528452, 4511, 16),
    ('dedup', 'tetris', 'rowbuffer'): (172114.5, 246.4145480225987, 6397.527439024389, 4513, 20),
    ('dedup', 'tetris', 'ranks'): (147429.5, 130.52048022598865, 5547.018292682933, 4418, 21),
    ('vips', 'dcw', 'default'): (295826.0, 1268.3567639257299, 13764.367713004493, 4415, 19),
    ('vips', 'dcw', 'opportunistic'): (299651.5, 1324.5974801061002, 6537.626681614349, 4793, 0),
    ('vips', 'dcw', 'sjf'): (295826.0, 1268.3567639257299, 13764.367713004493, 4415, 19),
    ('vips', 'dcw', 'pausing'): (197937.5, 108.75397877984076, 18112.584080717457, 4754, 1),
    ('vips', 'dcw', 'coalescing'): (282241.0, 1243.6511936339534, 13326.700672645744, 4412, 19),
    ('vips', 'dcw', 'subarrays'): (210025.5, 805.4880636604785, 14841.369955156957, 4632, 1),
    ('vips', 'dcw', 'rowbuffer'): (289262.0, 1256.3149867374016, 13462.191704035877, 4417, 19),
    ('vips', 'dcw', 'ranks'): (186290.0, 772.8315649867377, 9627.14910313902, 4364, 19),
    ('vips', 'tetris', 'default'): (90025.75, 256.01127320954936, 3957.534192825112, 4571, 19),
    ('vips', 'tetris', 'opportunistic'): (83436.75, 217.79210875331572, 1048.1939461883403, 4791, 0),
    ('vips', 'tetris', 'sjf'): (89221.75, 250.85477453580884, 3867.112107623317, 4540, 19),
    ('vips', 'tetris', 'pausing'): (61683.0, 113.53779840848796, 3078.279147982065, 4752, 7),
    ('vips', 'tetris', 'coalescing'): (88193.25, 260.2062334217508, 3816.852017937221, 4540, 19),
    ('vips', 'tetris', 'subarrays'): (60494.0, 111.10477453580896, 2959.338004484304, 4635, 8),
    ('vips', 'tetris', 'rowbuffer'): (89389.0, 265.5358090185675, 3851.449551569509, 4549, 19),
    ('vips', 'tetris', 'ranks'): (66889.75, 150.95954907161803, 2976.9742152466383, 4471, 19),
}


@functools.cache
def _trace(workload):
    return generate_trace(
        workload, requests_per_core=REQUESTS_PER_CORE, seed=TRACE_SEED
    )


def _run(workload, scheme, variant):
    """Run one cell, counting select() calls and their results."""
    trace = _trace(workload)
    cfg = VARIANTS[variant]
    table = precompute_write_service(trace, scheme, cfg)
    system = CMPSystem(
        trace,
        cfg,
        PrecomputedServiceModel(table, cfg),
        scheme_name=scheme,
        row_buffer=RowBufferModel() if variant == "rowbuffer" else None,
    )
    policy = system.controller.policy
    picks = []
    select = policy.select

    def counted_select(bank, read_queue, write_queue):
        picks.append(select(bank, read_queue, write_queue))
        return picks[-1]

    policy.select = counted_select
    result = system.run()
    return system, result, picks


@pytest.mark.parametrize("key", sorted(GOLDEN), ids="-".join)
def test_rows_match_full_scan_scheduler(key):
    system, result, picks = _run(*key)
    got = (
        result.runtime_ns,
        result.mean_read_latency_ns,
        result.mean_write_latency_ns,
        result.events,
        system.controller.policy.drain_entries,
    )
    assert got == GOLDEN[key]
    # select() runs only for a bank that has a candidate ...
    assert None not in picks
    # ... so it runs about once per bank service, not once per idle bank.
    assert len(picks) <= 2 * len(system.trace.records)
