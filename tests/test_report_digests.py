"""Golden digests of the drivers' reports.

The drivers must give the recorded reports byte for byte at two seeds: the
same verdicts, certificates, runs and ordering.  Each digest is the SHA-256
of json.dumps(report, sort_keys=True).  A change of the rank kernel or of
the fan-out changes how a report is computed, never what it says, and this
file checks that.  The digests in report_digests.json were recorded from
the kernel that restarted each panel's Gauss-Jordan on more leading rows;
regenerate them (run this file as a script) only for an intended change of
the reports.
"""
import hashlib
import json
from pathlib import Path

import pytest

from fatpoints.engine import PrimeFieldConfig
from fatpoints.replication import run_basecases, verify_ah, verify_main_theorem
from fatpoints.secant import theorem_hypotheses
from fatpoints.spaces import Multidegree, MultiProjectiveSpace

DIGESTS = Path(__file__).with_name("report_digests.json")
SEEDS = [0, 1]
HYPOTHESES = [((2, 1), (3, 3)), ((1, 2), (3, 4)), ((2, 2), (4, 4))]


def _reports(seed):
    """(label, report) for every report checked at one seed."""
    config = PrimeFieldConfig(seed=seed)
    yield "verify_main_theorem(3, 3)", verify_main_theorem(3, 3, config=config)
    yield "verify_ah(5, 6)", verify_ah(config, max_n=5, max_d=6)
    yield "run_basecases()", run_basecases(config=config)
    for dims, degs in HYPOTHESES:
        space, degree = MultiProjectiveSpace(dims), Multidegree(degs)
        yield (
            f"theorem_hypotheses({space.label()}; {degree.label()})",
            theorem_hypotheses(space, degree, config).to_json(),
        )


def _digests(seed):
    return {
        label: hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
        for label, report in _reports(seed)
    }


@pytest.mark.parametrize("seed", SEEDS)
def test_reports_match_golden_digests(seed):
    assert _digests(seed) == json.loads(DIGESTS.read_text())[str(seed)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps({str(s): _digests(s) for s in SEEDS}, indent=1) + "\n")
