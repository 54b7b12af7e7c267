"""Kronecker substitution: an integer polynomial as one Python int at t = 2^B.

A polynomial sum a_e*t^e whose digits have |a_e| < 2^(B-1) is the int
sum a_e*2^(B*e) with signed digits, and sums and products of such ints
are the sums and products of the polynomials as long as every digit of the
result stays below 2^(B-1) in size. One big-int operation then replaces a
loop over terms (Schönhage 1982; Harvey, *J. Symb. Comput.* 44, 2009).
``presentation.check_ring_map`` checks each basis product as one such
identity, and ``scalars.TruncatedPowerSeries.compose`` runs its Horner
loop on packed accumulators (``horner``).
"""

from __future__ import annotations


def pack(terms, bits: int, lo: int = 0) -> int:
    """sum x*t^(e - lo) over terms [(e, x)] at t = 2^bits."""
    return sum(x << bits * (e - lo) for e, x in terms)


def unpack(value: int, nbytes: int, count: int) -> dict:
    """{e: a_e} of the nonzero signed digits of ``value`` below t^count, t = 2^(8*nbytes).

    The bias 2^(B-1) in every digit makes all of them nonnegative, so one
    ``to_bytes`` splits them.
    """
    zero = 1 << (8 * nbytes - 1)
    bias = int.from_bytes((bytes(nbytes - 1) + b"\x80") * count, "little")
    raw = memoryview((value + bias).to_bytes(nbytes * count, "little"))
    return {e: z - zero for e in range(count)
            if (z := int.from_bytes(raw[e * nbytes:(e + 1) * nbytes], "little")) != zero}


def horner(s_re: dict, s_im: dict, top: int, inner: tuple, den: int, m: int, v: int, nbytes: int) -> tuple:
    """(re, im) of A = sum S_k*den^(top-k)*I^k below xi^m, as {exponent: int}.

    S = s_re + i*s_im and I = ``inner`` (term lists (re, im), valuation v)
    are Gaussian-integer numerators; A <- A*I + S_k*den^(top-k) runs from
    k = top down, each part of A one int at t = 2^B (B = 8*nbytes) that is
    read below xi^(m-k*v) only: one shifted multiply-add per term of I,
    then the remainder mod t^(m-k*v), lifted to signed digits. The caller
    picks B with every digit of every A below 2^(B-1) in size.
    """
    bits = 8 * nbytes
    i_re = [(bits * e, x) for e, x in inner[0]]
    i_im = [(bits * e, y) for e, y in inner[1]]
    a_re = a_im = 0
    scale = 1  # den^(top-k)
    for k in range(top, -1, -1):
        re, im = s_re.get(k, 0) * scale, s_im.get(k, 0) * scale
        for shift, x in i_re:
            re += x * a_re << shift
            im += x * a_im << shift
        for shift, y in i_im:
            re -= y * a_im << shift
            im += y * a_re << shift
        size = bits * (m - k * v)
        mask, half = (1 << size) - 1, 1 << (size - 1)
        a_re, a_im = re & mask, im & mask
        if a_re >= half:
            a_re -= half << 1
        if a_im >= half:
            a_im -= half << 1
        scale *= den
    return unpack(a_re, nbytes, m), unpack(a_im, nbytes, m)
