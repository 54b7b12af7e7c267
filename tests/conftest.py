"""Shared fixtures: the twistor line and the projective line written out as presentation files."""

from fractions import Fraction

import pytest

from curvecoh.presentation import twistor_presentation
from curvecoh.scalars import GaussianRational


def _file_coeff(z: GaussianRational) -> str:
    """A Q(i) coefficient in the presentation file syntax (imaginary part as ``3/4i``)."""
    if z.im == 0:
        return str(z.re)
    imag = f"{z.im}i"
    return imag if z.re == 0 else f"{z.re}{'+' if z.im > 0 else ''}{imag}"


def _rescaled_twistor_file(top: int, c: Fraction) -> str:
    """The built-in twistor line up to degree ``top`` as a file, with t replaced by c*t."""
    tw = twistor_presentation()
    basis = tw.basis_up_to(top)
    lines = ["fields rational gaussian", "flags leading_exact"]
    lines += [f"basis b{i} {tw.degree_of(i)}" for i in basis]
    for a in basis:
        for b in basis:
            if a <= b and tw.degree_of(a) + tw.degree_of(b) <= top:
                rhs = " + ".join(f"{s}*b{k}" for k, s in tw.mul_basis(a, b).items())
                lines.append(f"mul b{a} b{b} = {rhs}")
    for i in basis:
        w = tw.embed_basis(i)
        terms = [f"{_file_coeff(w.coeffs[e] * c**e)}*t^{e}" for e in sorted(w.coeffs, reverse=True)]
        lines.append(f"embed b{i} = {' + '.join(terms)}")
    return "\n".join(lines)


@pytest.fixture(scope="session")
def rescaled_twistor_file():
    """``(top, c) -> text`` of the twistor line with Gaussian coefficients, t -> c*t."""
    return _rescaled_twistor_file


def _p1_file(top: int, embed_exponent) -> str:
    """p1 up to degree ``top`` as a presentation file; t_k embeds as t^embed_exponent(k)."""
    lines = ["fields gaussian gaussian", "flags leading_exact"]
    lines += [f"basis t{k} {k}" for k in range(top + 1)]
    lines += [f"mul t{i} t{j} = 1*t{i + j}" for i in range(top + 1) for j in range(i, top + 1 - i)]
    lines += [f"embed t{k} = 1*t^{embed_exponent(k)}" for k in range(top + 1)]
    return "\n".join(lines)


@pytest.fixture(scope="session")
def p1_file():
    """``(top, embed_exponent) -> text`` of p1 with t_k embedded as t^embed_exponent(k)."""
    return _p1_file
