"""The committed verdict ledger (tests/verdicts.json) against fresh runs."""

import numpy as np
import pytest

from edgedpp.harness import DEFAULT_SEED, EXPERIMENT_KINDS
from ledger import SEEDS, build, load, moved


def test_ledger_covers_every_kind_at_every_seed():
    recorded = load()
    assert sorted(recorded["cells"]) == sorted(EXPERIMENT_KINDS)
    for row in recorded["cells"].values():
        assert sorted(row, key=int) == [str(seed) for seed in SEEDS]


# bulk_limit's two refusal types (QuadratureError at 11, ContourError at 24)
# and the default seed, which the benchmark runs
@pytest.mark.parametrize("seed", [11, 24, DEFAULT_SEED])
def test_every_kind_gives_its_recorded_verdict(seed):
    # verdicts and errors exactly; report hashes only on the ledger's numpy,
    # as another numpy's ufuncs may round the reports' floats differently
    recorded = load()
    assert moved(recorded, build([seed]), recorded["numpy"] == np.__version__) == []
