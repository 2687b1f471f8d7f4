"""Session-wide reporting for the test suite."""

from epsarb import programs


def pytest_terminal_summary(terminalreporter):
    """Print how often each conic program fell back to cutting planes.

    Each count is a call whose conic result failed its exact check and was
    solved again by Kelley cutting planes; the Kelley routes can go once
    these reach zero.
    """
    counts = programs.CONIC_FALLBACKS
    terminalreporter.section("conic fallbacks to cutting planes")
    terminalreporter.write_line(f"total: {sum(counts.values())}")
    for name, n in sorted(counts.items()):
        terminalreporter.write_line(f"{name}: {n}")
