"""Shared fixtures: the twistor line, the projective line and numerical-semigroup rings as presentation files."""

from fractions import Fraction

import pytest

from curvecoh.presentation import twistor_presentation
from curvecoh.scalars import GaussianRational
from curvecoh.series import gaussian_window


def _file_coeff(z: GaussianRational) -> str:
    """A Q(i) coefficient in the presentation file syntax (imaginary part as ``3/4i``)."""
    if z.im == 0:
        return str(z.re)
    imag = f"{z.im}i"
    return imag if z.re == 0 else f"{z.re}{'+' if z.im > 0 else ''}{imag}"


def _rescaled_twistor_file(top: int, c: Fraction, scale=lambda k: 1) -> str:
    """The built-in twistor line up to degree ``top`` as a file, with t replaced by c*t.

    Basis element b<k> stands for scale(k) times the built-in one, so the
    structure constants become s*scale(a)*scale(b)/scale(k).
    """
    tw = twistor_presentation()
    basis = tw.basis_up_to(top)
    lines = ["fields rational gaussian", "flags leading_exact"]
    lines += [f"basis b{i} {tw.degree_of(i)}" for i in basis]
    for a in basis:
        for b in basis:
            if a <= b and tw.degree_of(a) + tw.degree_of(b) <= top:
                rhs = " + ".join(f"{s * Fraction(scale(a) * scale(b)) / scale(k)}*b{k}"
                                 for k, s in tw.mul_basis(a, b).items())
                lines.append(f"mul b{a} b{b} = {rhs}")
    for i in basis:
        w = tw.embed_basis(i)
        terms = [f"{_file_coeff(w.coeffs[e] * c**e * scale(i))}*t^{e}" for e in sorted(w.coeffs, reverse=True)]
        lines.append(f"embed b{i} = {' + '.join(terms)}")
    return "\n".join(lines)


@pytest.fixture(scope="session")
def rescaled_twistor_file():
    """``(top, c[, scale]) -> text`` of the twistor line with Gaussian coefficients, t -> c*t."""
    return _rescaled_twistor_file


def _p1_file(top: int, embed_exponent, scale=lambda k: 1) -> str:
    """p1 up to degree ``top`` as a presentation file; t_k embeds as scale(k)*t^embed_exponent(k).

    So t_i*t_j = scale(i)*scale(j)/scale(i+j) * t_(i+j), a Q(i) constant.
    """
    def coeff(x):
        return _file_coeff(GaussianRational.of(x))

    lines = ["fields gaussian gaussian", "flags leading_exact"]
    lines += [f"basis t{k} {k}" for k in range(top + 1)]
    lines += [f"mul t{i} t{j} = {coeff(GaussianRational.of(scale(i)) * scale(j) / scale(i + j))}*t{i + j}"
              for i in range(top + 1) for j in range(i, top + 1 - i)]
    lines += [f"embed t{k} = {coeff(scale(k))}*t^{embed_exponent(k)}" for k in range(top + 1)]
    return "\n".join(lines)


@pytest.fixture(scope="session")
def p1_file():
    """``(top, embed_exponent[, scale]) -> text`` of p1 with t_k embedded as scale(k)*t^embed_exponent(k)."""
    return _p1_file


def _semigroup_file(generators, top: int = 16, w=None, fields: str = "gaussian gaussian") -> str:
    """k[S] = span{t^s : s in S} up to degree ``top`` as a presentation file, with s_K -> w^K.

    ``w`` is a LaurentWindow a*t + b (a != 0), t by default; written out, its
    powers keep the structure constants s_A * s_B = s_(A+B) and the answer.
    """
    w = w or gaussian_window({1: 1})
    elements = [0]
    for s in range(1, top + 1):
        if any(s - g in elements for g in generators):
            elements.append(s)
    lines = [f"fields {fields}", "flags leading_exact"]
    lines += [f"basis s{k} {k}" for k in elements]
    lines += [f"mul s{a} s{b} = 1*s{a + b}" for a in elements for b in elements if a <= b and a + b <= top]
    for k in elements:
        wk = w.power(k)
        terms = [f"{_file_coeff(GaussianRational.of(wk.coeffs[e]))}*t^{e}" for e in sorted(wk.coeffs, reverse=True)]
        lines.append(f"embed s{k} = {' + '.join(terms)}")
    return "\n".join(lines)


@pytest.fixture(scope="session")
def semigroup_file():
    """``(generators[, top, w, fields]) -> text`` of the numerical-semigroup ring k[S] up to ``top``."""
    return _semigroup_file
