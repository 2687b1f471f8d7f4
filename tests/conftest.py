"""Session-wide reporting for the test suite."""

from epsarb import programs


def pytest_terminal_summary(terminalreporter):
    """Print how often each conic program's result was rejected.

    Each count is a call whose conic result failed its exact check: the
    interior decision then returned indeterminate, every other program was
    solved again by Kelley cutting planes.  The q = 2 Kelley routes can go
    once these reach zero.
    """
    counts = programs.CONIC_FALLBACKS
    terminalreporter.section("conic results rejected (then Kelley, or indeterminate "
                             "for interior_feasibility)")
    terminalreporter.write_line(f"total: {sum(counts.values())}")
    for name, n in sorted(counts.items()):
        terminalreporter.write_line(f"{name}: {n}")
