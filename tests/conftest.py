import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from pcbounds import CountTable, PartialMediationMargins

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

_ACCEPTANCE_LINES: list[tuple[int, str]] = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Record one pass/fail line per acceptance criterion.

    Lines are printed immediately (visible with -s or on failure) and
    replayed in the terminal summary so a plain ``pytest -v`` run always
    shows every verdict.
    """

    def log(criterion: int, passed: bool, detail: str) -> None:
        line = f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}"
        _ACCEPTANCE_LINES.append((criterion, line))
        print(line)

    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for _, line in sorted(_ACCEPTANCE_LINES, key=lambda pair: pair[0]):
            terminalreporter.write_line(line)


@pytest.fixture
def reference_counts():
    return CountTable(
        exposed_event=30, exposed_total=100, unexposed_event=12, unexposed_total=100
    )


@pytest.fixture
def example1_margins():
    # Rates quoted as zero-probabilities in the source tables, so each
    # margin is written as the complement of the quoted rate.
    return PartialMediationMargins(
        y00=1 - 0.98,
        y01=1 - 0.165,
        y10=1 - 0.315,
        y11=1 - 0.143,
        m0=1 - 0.73,
        m1=1 - 0.981,
    )


@pytest.fixture
def example2_margins():
    return PartialMediationMargins(
        y00=1 - 0.98,
        y01=1 - 0.67,
        y10=1 - 0.09,
        y11=1 - 0.27,
        m0=1 - 0.04,
        m1=1 - 0.26,
    )


@pytest.fixture
def criterion_4_sets(example1_margins, example2_margins):
    """The 52 margin sets of acceptance criterion 4: both worked examples and
    50 uniform draws."""
    rng = np.random.default_rng(20260817)
    margin_sets = [example1_margins, example2_margins]
    while len(margin_sets) < 52:
        y00, y01, y10, y11, m0, m1 = rng.random(6)
        margin_sets.append(
            PartialMediationMargins(y00=y00, y01=y01, y10=y10, y11=y11,
                                    m0=m0, m1=m1)
        )
    return margin_sets
