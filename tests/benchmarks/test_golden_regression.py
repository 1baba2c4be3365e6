"""Golden-output regression pins.

Every benchmark is deterministic under a seed, and the whole
reproduction (golden diffs, FIT scaling, criticality tables) rests on
that.  These pins freeze the exact bytes of each benchmark's golden
output for one fixed seed so any accidental behavioural change —
dtype drift, reordered reductions, a changed default parameter — fails
loudly instead of silently shifting every campaign.

If a change is *intentional* (e.g. retuning a default parameter),
regenerate the table:

    python - <<'EOF'
    import hashlib, numpy as np
    from repro.benchmarks import create, names
    from repro.util import derive_rng
    for name in names():
        out = create(name).golden(derive_rng(2017, "golden-regression", name))
        print(name, hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16])
    EOF
"""

import hashlib

import numpy as np
import pytest

from repro.benchmarks import create, names
from repro.carolfi import CampaignConfig, run_campaign
from repro.util.rng import derive_rng

#: name -> (sha256[:16] of raw bytes, shape, float64 sum).
GOLDEN_PINS: dict[str, tuple[str, tuple[int, ...], float]] = {
    "clamr": ("31c9998f5ded302b", (32, 32), 3.800938e03),
    "dgemm": ("e0f96f98ff85c6b6", (60, 60), -2.977245e01),
    "hotspot": ("b011af3b324b5575", (64, 64), 3.324355e05),
    "lavamd": ("56d60183fb89620b", (4, 4, 4, 32), 1.306300e03),
    "lud": ("85e021f72a6a5dc3", (48, 48), 2.381363e03),
    "nw": ("c29417d3fcd7499d", (65, 65), -7.152580e05),
}


def test_pins_cover_every_benchmark():
    assert set(GOLDEN_PINS) == set(names())


@pytest.mark.parametrize("name", sorted(GOLDEN_PINS))
def test_golden_output_pinned(name):
    digest, shape, total = GOLDEN_PINS[name]
    out = create(name).golden(derive_rng(2017, "golden-regression", name))
    assert out.shape == shape
    assert float(np.asarray(out, dtype=np.float64).sum()) == pytest.approx(
        total, rel=1e-5
    )
    assert (
        hashlib.sha256(np.ascontiguousarray(out).tobytes()).hexdigest()[:16] == digest
    )


#: A 48-run CLAMR campaign at seed 2017, one tuple per record:
#: (run_index, outcome, due_kind, due_detail,
#:  (frame, variable, flat_index, interrupt_step), bits).
#: ``due_detail`` carries ``str(exc)``, so a kernel rewrite that changes
#: which error a corrupted run raises first fails here on any host.
#: SDC metrics (float magnitudes) are deliberately left out.  Regenerate
#: only when records are meant to change:
#:
#:     from repro.carolfi import CampaignConfig, run_campaign
#:     res = run_campaign(CampaignConfig(benchmark="clamr", injections=48, seed=2017))
#:     for r in res.records:
#:         s = r.site
#:         print((r.run_index, r.outcome.value, r.due_kind and r.due_kind.value,
#:                r.due_detail, (s.frame, s.variable, s.flat_index, r.interrupt_step),
#:                r.bits), ",")
CLAMR_RECORD_PIN = [
    (
        0,
        "due",
        "crash",
        "IndexError: corrupted neighbour index beyond live cells",
        ("tree", "nbr_table", 1362, 23),
        (44,),
    ),
    (1, "masked", None, "", ("mesh", "cell_y", 438, 6), (59, 60)),
    (2, "masked", None, "", ("mesh", "cell_hu", 676, 35), None),
    (3, "masked", None, "", ("mesh", "cell_x", 749, 43), None),
    (4, "masked", None, "", ("mesh", "cell_x", 1148, 21), (26,)),
    (5, "masked", None, "", ("mesh", "cell_y", 974, 14), (25, 28)),
    (6, "masked", None, "", ("mesh", "cell_hv", 1066, 1), None),
    (7, "masked", None, "", ("mesh", "cell_hu", 1185, 15), None),
    (8, "masked", None, "", ("mesh", "cell_x", 82, 3), (29,)),
    (9, "masked", None, "", ("mesh", "cell_x", 410, 16), (59, 63)),
    (10, "masked", None, "", ("mesh", "cell_hv", 150, 3), None),
    (11, "sdc", None, "", ("mesh", "cell_x", 92, 13), None),
    (12, "masked", None, "", ("mesh", "cell_hv", 1042, 42), (55,)),
    (13, "masked", None, "", ("mesh", "cell_parent", 51, 5), (21, 23)),
    (14, "masked", None, "", ("mesh", "cell_lev", 713, 5), None),
    (15, "masked", None, "", ("tree", "nbr_table", 527, 23), None),
    (16, "masked", None, "", ("mesh", "cell_hu", 469, 31), (9,)),
    (17, "masked", None, "", ("mesh", "cell_hv", 594, 44), (17, 18)),
    (18, "masked", None, "", ("mesh", "cell_h", 229, 3), None),
    (19, "sdc", None, "", ("mesh", "cell_y", 27, 18), None),
    (20, "masked", None, "", ("mesh", "cell_parent", 224, 45), (22,)),
    (21, "masked", None, "", ("mesh", "cell_lev", 1191, 30), (29, 31)),
    (22, "masked", None, "", ("mesh", "cell_x", 638, 30), None),
    (23, "sdc", None, "", ("sort", "reorder_hv", 174, 26), None),
    (24, "masked", None, "", ("mesh", "cell_x", 631, 18), (26,)),
    (25, "masked", None, "", ("mesh", "cell_h", 1079, 19), (2, 7)),
    (26, "masked", None, "", ("mesh", "cell_hv", 629, 45), None),
    (27, "masked", None, "", ("mesh", "cell_parent", 479, 38), None),
    (28, "masked", None, "", ("mesh", "cell_hv", 1150, 5), (41,)),
    (
        29,
        "due",
        "crash",
        "IndexError: corrupted neighbour index beyond live cells",
        ("tree", "nbr_table", 818, 16),
        (28, 30),
    ),
    (
        30,
        "due",
        "crash",
        "IndexError: corrupted cell count 877128928608813900",
        ("mesh", "ncells", 0, 19),
        None,
    ),
    (31, "due", "crash", "IndexError: corrupted cell count 0", ("mesh", "ncells", 0, 2), None),
    (32, "sdc", None, "", ("mesh", "cell_x", 160, 35), (8,)),
    (33, "masked", None, "", ("mesh", "cell_lev", 463, 27), (8, 11)),
    (34, "masked", None, "", ("mesh", "cell_hu", 838, 43), None),
    (35, "masked", None, "", ("mesh", "cell_h", 879, 31), None),
    (36, "sdc", None, "", ("tree", "nbr_table", 1145, 22), (6,)),
    (37, "masked", None, "", ("mesh", "cell_lev", 920, 51), (1, 5)),
    (38, "masked", None, "", ("mesh", "cell_y", 399, 14), None),
    (39, "sdc", None, "", ("mesh", "cell_hu", 374, 43), None),
    (40, "masked", None, "", ("mesh", "cell_y", 727, 41), (14,)),
    (41, "masked", None, "", ("mesh", "cell_y", 601, 33), (20, 22)),
    (42, "masked", None, "", ("mesh", "cell_parent", 837, 24), None),
    (
        43,
        "due",
        "crash",
        "SimulationAborted: CFL check failed: dt=0.0",
        ("mesh", "cell_h", 249, 15),
        None,
    ),
    (44, "masked", None, "", ("mesh", "cell_h", 795, 24), (34,)),
    (45, "masked", None, "", ("mesh", "cell_hu", 473, 8), (2, 7)),
    (46, "masked", None, "", ("mesh", "cell_parent", 428, 7), None),
    (47, "masked", None, "", ("mesh", "cell_y", 1078, 53), None),
]


def test_clamr_campaign_records_pinned():
    result = run_campaign(CampaignConfig(benchmark="clamr", injections=48, seed=2017))
    observed = []
    for record in result.records:
        data = record.to_dict()
        site = data["site"]
        observed.append(
            (
                data["run_index"],
                data["outcome"],
                data["due_kind"],
                data["due_detail"],
                (site["frame"], site["variable"], site["flat_index"], data["interrupt_step"]),
                tuple(data["bits"]) if data["bits"] is not None else None,
            )
        )
    assert observed == CLAMR_RECORD_PIN
