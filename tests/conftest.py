"""Session-wide reporting for the test suite."""

from collections import Counter

from epsarb import programs

# The measure programs, by the name ``_conic_optimum`` is given or the function.
MEASURE_PROGRAMS = {"cone_linear_optimum": "price bound", "max_min_weight_on_face": "face",
                    "_interior_conic": "interior"}
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
    programs._conic_optimum = _named(programs._conic_optimum,
                                     lambda program, *_: MEASURE_PROGRAMS[program])
    programs._interior_conic = _named(programs._interior_conic,
                                      lambda *_: MEASURE_PROGRAMS["_interior_conic"])


def pytest_terminal_summary(terminalreporter):
    """Print how many conic results were left without a certified answer,
    and how many measure-program calls needed their second solve.

    Each rejection is a call whose conic result failed its exact check
    after every solve: the interior decision returned indeterminate, the
    maximin program no certificate, a hedge pattern was skipped, and a
    price bound or face program raised.
    """
    counts = programs.CONIC_FALLBACKS
    terminalreporter.section("conic results without a certified answer")
    terminalreporter.write_line(f"total: {sum(counts.values())}")
    for name, n in sorted(counts.items()):
        terminalreporter.write_line(f"{name}: {n}")
    terminalreporter.write_line("untightened second solves: " + ", ".join(
        f"{name} {SECOND_SOLVES[name]}" for name in MEASURE_PROGRAMS.values()))
