"""Shared test plumbing: the acceptance criteria report and a polynomial
substitution oracle.

test_acceptance.py records one line per criterion; printing them from the
terminal-summary hook keeps them visible under pytest's output capture.
"""

from __future__ import annotations

from realrank2.multipoly import MultiPoly

acceptance_results: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_results:
        terminalreporter.write_line(line)


def substitute(poly: MultiPoly, replacements: dict, variables) -> MultiPoly:
    """poly with every variable replaced by a polynomial in `variables`,
    expanded term by term in MultiPoly arithmetic: the reference that the
    library's exponent-arithmetic pushforwards and restrictions are tested
    against."""
    total = MultiPoly.zero(variables)
    for expo, coeff in poly.terms.items():
        term = MultiPoly.constant(coeff, variables)
        for var, e in zip(poly.variables, expo):
            term = term * replacements[var] ** e
        total = total + term
    return total
