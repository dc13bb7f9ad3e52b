"""The acceptance summary hook."""

CRITERIA = {}


def record_criterion(name: str, passed: bool, detail: str):
    """Register one acceptance criterion outcome for the summary block."""
    CRITERIA[name] = (bool(passed), detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(CRITERIA):
        passed, detail = CRITERIA[name]
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"{status}  {name}: {detail}")
