"""Fit the polynomial tables of ``phaseless.special`` and print them as Python source.

    python3 tools/fit_bessel.py > tables.py

Needs mpmath (not a dependency of the package).  Every table is the
Chebyshev interpolant of its function at 48 first-kind nodes, each node
value computed by mpmath at 40 digits, truncated where the rest of the
series falls below ``TAIL`` of the function's scale on its interval,
and rewritten in the power basis of the same variable for Horner
evaluation.  All of this runs in mpmath; only the printed coefficients
are rounded to double.

x <= 8, variable u = x^2/32 - 1 in [-1, 1]:

    J0(x) = A0(u)
    J1(x) = x A1(u)
    Y0(x) = (2/pi) ln(x) J0(x) + B0(u)
    Y1(x) = (2/pi) ln(x) J1(x) - 2/(pi x) + x B1(u)

x > 8, variable t = (8/x)^2 in (0, 1], theta_n = x - (2n + 1) pi/4:

    Jn(x) = sqrt(2/(pi x)) (Pn(t) cos(theta_n) - Qn(t)/x sin(theta_n))
    Yn(x) = sqrt(2/(pi x)) (Pn(t) sin(theta_n) + Qn(t)/x cos(theta_n))

It also prints pi/4 split in three parts for the Cody-Waite reduction of
the phase and, as comments, the largest error of each rounded table
against mpmath on a dense sample of its interval.
"""

from __future__ import annotations

import math
import textwrap

import mpmath as mp

mp.mp.dps = 40
NODES = 48
TAIL = mp.mpf(2) ** -55
SPLIT = 8


def chebyshev(f, nodes=NODES):
    """Coefficients c_k of the interpolant sum c_k T_k(v) of f at first-kind nodes."""
    theta = [mp.pi * (j + mp.mpf(1) / 2) / nodes for j in range(nodes)]
    values = [f(mp.cos(th)) for th in theta]
    return [
        (2 if k else 1) * mp.fsum(v * mp.cos(k * th) for v, th in zip(values, theta)) / nodes
        for k in range(nodes)
    ]


def truncate(coef, scale):
    """The shortest head of ``coef`` whose dropped tail sums below TAIL * scale."""
    for n in range(1, len(coef)):
        if mp.fsum(abs(c) for c in coef[n:]) < TAIL * scale:
            return coef[:n]
    raise ValueError("series does not converge within the interpolation order")


def power_basis(coef):
    """Power-basis coefficients, highest degree first, of sum c_k T_k(v)."""
    prev, cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]  # T_0, T_1, lowest first
    total = [mp.mpf(0)] * len(coef)
    for k, c in enumerate(coef):
        poly = prev if k == 0 else cur
        if k >= 2:
            nxt = [mp.mpf(0)] + [2 * a for a in cur]
            for i, a in enumerate(prev):
                nxt[i] -= a
            prev, cur = cur, nxt
            poly = cur
        for i, a in enumerate(poly):
            total[i] += c * a
    return total[::-1]


def round_bits(value, bits):
    """``value`` rounded to ``bits`` significant bits."""
    mant, expo = math.frexp(float(value))
    return math.ldexp(round(math.ldexp(mant, bits)), expo - bits)


def pi_over_4_parts():
    """pi/4 = A + B + C, A and B of 24 significant bits, C a double."""
    a = round_bits(mp.pi / 4, 24)
    b = round_bits(mp.pi / 4 - a, 24)
    return a, b, float(mp.pi / 4 - a - b)


def small(kind):
    """The x <= 8 function of ``kind`` as a function of u = x^2/32 - 1."""

    def f(u):
        x = mp.sqrt(32 * (u + 1))
        j0, j1 = mp.besselj(0, x), mp.besselj(1, x)
        if kind == "A0":
            return j0
        if kind == "A1":
            return j1 / x
        if kind == "B0":
            return mp.bessely(0, x) - 2 / mp.pi * mp.log(x) * j0
        return (mp.bessely(1, x) - 2 / mp.pi * mp.log(x) * j1 + 2 / (mp.pi * x)) / x

    return f


def large(kind):
    """The x > 8 function of ``kind`` as a function of s = 2t - 1, t = (8/x)^2."""
    order = int(kind[1])

    def f(s):
        x = SPLIT / mp.sqrt((s + 1) / 2)
        theta = x - (2 * order + 1) * mp.pi / 4
        j, y = mp.besselj(order, x), mp.bessely(order, x)
        amp = mp.sqrt(mp.pi * x / 2)
        if kind[0] == "P":
            return amp * (j * mp.cos(theta) + y * mp.sin(theta))
        return x * amp * (y * mp.cos(theta) - j * mp.sin(theta))

    return f


def main() -> None:
    tables = {}
    # scale: the largest |multiplier * function| on the interval, so the
    # dropped tail is measured in units of the final value's size
    for kind, scale in (("A0", 1), ("A1", 4), ("B0", 1), ("B1", 4)):
        tables[kind] = power_basis(truncate(chebyshev(small(kind)), scale))
    for kind in ("P0", "Q0", "P1", "Q1"):
        # in s in [-1, 1]; rewritten below in t = (s + 1)/2
        head = truncate(chebyshev(large(kind)), 1)
        in_s = power_basis(head)[::-1]  # lowest first
        in_t = [mp.mpf(0)] * len(in_s)
        for i, a in enumerate(in_s):  # (2t - 1)^i by the binomial theorem
            for m in range(i + 1):
                in_t[m] += a * mp.binomial(i, m) * 2**m * (-1) ** (i - m)
        tables[kind] = in_t[::-1]
    print(f"_PIO4_A, _PIO4_B, _PIO4_C = {', '.join(map(repr, pi_over_4_parts()))}")
    for kind, coef in tables.items():
        body = ", ".join(repr(float(c)) for c in coef) + ","
        print(f"_{kind} = (")
        print(textwrap.fill(body, 88, initial_indent="    ", subsequent_indent="    "))
        print(")")
    for kind, coef in tables.items():
        f = small(kind) if kind[0] in "AB" else large(kind)
        worst = mp.mpf(0)
        rounded = [mp.mpf(float(c)) for c in coef]
        for i in range(400):  # interior points: u = -1 is x = 0, s = -1 is x = inf
            v = -1 + (i + mp.mpf(1) / 2) / 200
            arg = v if kind[0] in "AB" else (v + 1) / 2
            approx = mp.mpf(0)
            for c in rounded:
                approx = approx * arg + c
            worst = max(worst, abs(approx - f(v)))
        print(f"# {kind}: degree {len(coef) - 1}, max error of the rounded table {float(worst):.2e}")


if __name__ == "__main__":
    main()
