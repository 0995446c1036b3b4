"""Named operator and system corpus used by the CLI and the test suite."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    expression: str
    description: str
    global_verdict: str          # expected verdict on the projective line


OPERATORS = (
    CorpusEntry("euler", "x*d - 5",
                "Euler operator, solutions x^5", "regular"),
    CorpusEntry("euler_half", "x*d - 1/2",
                "Euler operator with fractional exponent", "regular"),
    CorpusEntry("cauchy_euler", "x^2*d^2 + x*d - 1",
                "second-order Euler operator", "regular"),
    CorpusEntry("theta_cubed", "x^3*d^3 + 3*x^2*d^2 + x*d - 2",
                "theta^3 - 2 in derivative form", "regular"),
    CorpusEntry("hypergeometric", "x*(1 - x)*d^2 + (1 - 2*x)*d - 1/4",
                "Gauss hypergeometric, a = b = 1/2, c = 1", "regular"),
    CorpusEntry("legendre2", "(1 - x^2)*d^2 - 2*x*d + 6",
                "Legendre operator, l = 2", "regular"),
    CorpusEntry("apparent", "d^3 - 2/x*d^2 + 2/x^2*d",
                "apparent singularity at 0 with solutions 1, x^2, x^3", "regular"),
    CorpusEntry("airy", "d^2 - x",
                "Airy operator, irregular at infinity", "irregular"),
    CorpusEntry("harmonic", "d^2 + 1",
                "harmonic oscillator, irregular at infinity", "irregular"),
    CorpusEntry("bessel0", "x^2*d^2 + x*d + x^2",
                "Bessel operator of order 0, irregular at infinity", "irregular"),
    CorpusEntry("kummer", "x*d^2 + (1 - x)*d - 2",
                "Kummer confluent operator, irregular at infinity", "irregular"),
    CorpusEntry("exp_inverse", "x^2*d - 1",
                "solution exp(-1/x), irregular at 0", "irregular"),
    CorpusEntry("exp_inverse_neg", "x^2*d + 1",
                "solution exp(1/x), irregular at 0", "irregular"),
)


SYSTEM_FILES = {
    "airy.sys": "rank 2\n0 ; -1\n-x ; 0\n",
    "euler.sys": "rank 1\n-5/x\n",
    "exp_twist.sys": "rank 1\n1/x^2\n",
    "diag_regular.sys": "rank 2\n0 ; 0\n0 ; -1/x\n",
}

OPERATOR_FILES = {
    f"{entry.name}.op": entry.expression + "\n" for entry in OPERATORS
}

CHART_FILES = {
    "euler_lattice.chart": "n 1\nr 1\nrank 1\ngamma 1\n1/2\n",
    "nilpotent_lattice.chart": "n 1\nr 1\nrank 2\ngamma 1\n0 ; 1\n0 ; 0\n",
    "plane_lattice.chart": "n 2\nr 2\nrank 1\ngamma 1\n1/2\ngamma 2\n3\n",
}
