"""Shared pytest hooks: echo acceptance verdict lines after the run.

The hypothesis profile ``deep`` (``--hypothesis-profile=deep``) runs each
property test on 2000 examples; the default budget stays as it is.
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000)

ACCEPTANCE_LINES = []


def record_acceptance_line(line):
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
