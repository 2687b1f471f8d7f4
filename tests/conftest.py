"""Session-wide reporting for the test suite."""

from epsarb import programs

# The measure programs, by the name their node-cone second solves are counted under.
MEASURE_PROGRAMS = {"cone_linear_optimum": "price bound", "max_min_weight_on_face": "face",
                    "interior_feasibility": "interior"}


def pytest_terminal_summary(terminalreporter):
    """Print how many conic results were left without a certified answer,
    how many node programs the measure inductions and the strategy
    maximin ran by route (the scalar closed forms at d = 1, another closed
    form, or a cone program), and how many node cone programs of the
    measure inductions needed their second solve.

    Each rejection is a call whose conic result failed its exact check
    after every solve: the interior decision, a price bracket
    (``cone_linear_optimum``) or a face program's attainment
    (``max_min_weight_on_face``) was left indeterminate, or the maximin
    induction's recomputed bracket stayed open and it returned no
    certificate.

    The counters count solves, not calls: a model keeps the results of its
    interior and price programs, so a repeated call at the same level reads
    the kept result and adds nothing to any of them.
    """
    counts = programs.CONIC_FALLBACKS
    terminalreporter.section("conic results without a certified answer")
    terminalreporter.write_line(f"total: {sum(counts.values())}")
    for name, n in sorted(counts.items()):
        terminalreporter.write_line(f"{name}: {n}")
    terminalreporter.write_line("node programs: " + ", ".join(
        f"{route} {programs.NODE_PROGRAMS[route]}"
        for route in ("scalar closed form", "closed form", "cone program")))
    terminalreporter.write_line("node-cone second solves: " + ", ".join(
        f"{label} {programs.SECOND_SOLVES[name]}" for name, label in MEASURE_PROGRAMS.items()))
