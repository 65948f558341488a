import pytest

from hyperlab.experiments import ExperimentConfig, csv_lines, run_experiment
from hyperlab.processes import SearchTrace

# the fixed desk-scale configurations used by the acceptance suite
ACCEPT_CONFIG = ExperimentConfig(
    n=250, k=3, j=2, epsilon=0.3, trials=300, m=3, base_seed=20260811
)
GRAPH_CONFIG = ExperimentConfig(
    n=5000, k=2, j=1, epsilon=0.25, trials=200, m=1, base_seed=20260811
)


@pytest.fixture(scope="session")
def accept_run():
    records, summary = run_experiment(ACCEPT_CONFIG, workers=1)
    return records, summary, csv_lines(records)


@pytest.fixture(scope="session")
def graph_run():
    records, summary = run_experiment(GRAPH_CONFIG, workers=1)
    return records, summary, csv_lines(records)


def format_trace(trace: SearchTrace) -> list[str]:
    """Stable dump format: one `STEP <idx> POP <J|K> <label>` line per pop."""
    return [
        f"STEP {i} POP {kind} {','.join(str(v) for v in label)}"
        for i, (kind, label) in enumerate(trace.pops)
    ]
