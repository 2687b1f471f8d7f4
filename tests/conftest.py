"""Session-wide reporting for the test suite."""

from collections import Counter

from epsarb import programs

# The q = 2 measure programs, by the name ``_ratio_conic`` is given or the function.
MEASURE_PROGRAMS = {"_price_conic": "price bound", "max_min_weight_on_face": "face",
                    "interior_feasibility": "interior"}
SECOND_SOLVES: Counter = Counter()
_running = ["other"]  # the measure program whose two-solve loop runs


def _named(run, name_of):
    """A measure program wrapped to name the two-solve loop it runs."""
    def wrapped(*args, **kwargs):
        _running[0] = name_of(*args)
        return run(*args, **kwargs)
    return wrapped


def _count_second_solves(solves):
    """``programs._measure_solves`` wrapped to count, per measure program,
    the calls that went on to the untightened second solve."""
    def wrapped(*args, **kwargs):
        for n, item in enumerate(solves(*args, **kwargs)):
            if n == 1:
                SECOND_SOLVES[_running[0]] += 1
            yield item
    return wrapped


def pytest_configure(config):
    programs._measure_solves = _count_second_solves(programs._measure_solves)
    programs._price_conic = _named(programs._price_conic,
                                   lambda *_: MEASURE_PROGRAMS["_price_conic"])
    programs._ratio_conic = _named(programs._ratio_conic,
                                   lambda program, *_: MEASURE_PROGRAMS[program])


def pytest_terminal_summary(terminalreporter):
    """Print how many conic results were left without a certified answer,
    and how many measure-program calls needed their second solve.

    Each rejection is a call whose conic result failed its exact check
    after every solve: the interior decision, a price bracket
    (``cone_linear_optimum``) or a face program's attainment
    (``max_min_weight_on_face``) was left indeterminate, or the maximin
    program returned no certificate.
    """
    counts = programs.CONIC_FALLBACKS
    terminalreporter.section("conic results without a certified answer")
    terminalreporter.write_line(f"total: {sum(counts.values())}")
    for name, n in sorted(counts.items()):
        terminalreporter.write_line(f"{name}: {n}")
    terminalreporter.write_line("untightened second solves: " + ", ".join(
        f"{name} {SECOND_SOLVES[name]}" for name in MEASURE_PROGRAMS.values()))
