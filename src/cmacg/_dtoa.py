"""Exact "%.17g" text for blocks of floats, computed with numpy.

A float with 1e-4 <= |x| < 1e17 has decimal exponent X = floor(log10|x|) in
[-4, 16], where "%.17g" prints it in fixed notation, and its 17 significant
digits are D = round-half-even(|x|·10^e), e = 16 − X in [0, 20], with
10^16 <= D < 10^17.  |x|·2^e is exact, and so is its product with 5^e (an
exact double, 5^20 < 2^53) as p + err, by Dekker's algorithm.  p >= 2^53 is
even, so D = p + rint(err) exactly: the digits "%.17g" prints, correctly
rounded as in Gay's dtoa.

Each cell, led by the separator before it, is laid out on 44 bytes, as 11
four-byte words: a head of 7 bytes, the 17 digits, then "00." and the 17
digits again.  The head is looked up by X, the sign and whether the cell
starts a row; it ends at the first digit with the separator, "-" and, below
1, "0." and -X − 1 zeros.  A mask looked up by X, the number of significant
digits and the sign keeps the head and what "%.17g" prints after it: the
digits below 1; else the digits before the point from the first copy, and
the point and the rest from the second.  Other cells (zero, subnormals,
inf, nan, tiny or huge) are printed by "%.17g" into their row.
"""

from __future__ import annotations

import numpy as np

_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp's splitting factor


class BlockEncoder:
    """Float blocks as CSV text, each cell as "%.17g" prints it; see the module docstring."""

    def __init__(self):
        x = np.arange(-4, 17)[:, None, None, None]  # X, by t = X + 4
        self.pow2 = np.ldexp(1.0, 16 - x.ravel())
        self.pow5 = np.power(5, 16 - x.ravel()).astype(np.float64)
        self.pow5_hi = self.pow5 * _SPLIT - (self.pow5 * _SPLIT - self.pow5)
        self.pow5_lo = self.pow5 - self.pow5_hi
        places = np.indices((10,) * 4, np.uint8).reshape(4, -1)  # the four digits of 0..9999
        quad_chars = np.ascontiguousarray(places.T + ord("0"))
        self.quad_words = quad_chars.view(np.uint32)[:, 0]  # "0000".."9999"
        zero = places == 0
        self.quad_zeros = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0])))  # trailing
        point_chars = quad_chars[:10].copy()
        point_chars[:, 2] = ord(".")
        self.point_words = point_chars.view(np.uint32)[:, 0]  # "00.0".."00.9"
        # heads by (t·2 + starts a row)·2 + negative, then ·10 + leading digit
        starts_row, negative = np.arange(2)[:, None, None], np.arange(2)[:, None]
        at = 6 - np.arange(7)  # distance from the head's end
        number = np.maximum(-x - 1, 0) + 2 * (x < 0)  # "0." and -X − 1 zeros
        chars = np.where(at < number, np.where(at == number - 2, ord("."), ord("0")), ord(" "))
        separator = np.where(starts_row == 1, ord("\n"), ord(","))
        chars = np.where(at == number + negative, separator, chars)
        chars = np.where((negative == 1) & (at == number), ord("-"), chars).astype(np.uint8)
        self.head_words = chars[..., :4].copy().view(np.uint32).ravel()
        digit_chars = np.empty(chars.shape[:3] + (10, 4), np.uint8)
        digit_chars[..., :3] = chars[..., None, 4:]
        digit_chars[..., 3] = np.arange(10) + ord("0")
        self.head_digit_words = digit_chars.view(np.uint32).ravel()
        # masks by (t·18 + significant digits)·2 + negative
        nd, k = np.arange(18)[:, None, None], np.arange(17)
        point = np.maximum(x + 1, 0)  # digits before the point
        keep = np.zeros((len(x), 18, 2, 44), bool)
        keep[..., :7] = at < number + 1 + negative
        keep[..., 7:24] = np.where(point > 0, k < point, k < nd)
        keep[..., 26:27] = (point > 0) & (nd > point)
        keep[..., 27:] = (point > 0) & (k >= point) & (k < nd)
        self.keep = keep.reshape(-1, 44)

    def digits(self, a: np.ndarray, t: np.ndarray) -> np.ndarray:
        """round-half-even(a·10^(16−X)) as int64, exactly, for X = t − 4."""
        a = a * np.take(self.pow2, t)
        b, b_hi, b_lo = np.take(self.pow5, t), np.take(self.pow5_hi, t), np.take(self.pow5_lo, t)
        c = a * _SPLIT
        a_hi = c - (c - a)
        a_lo = a - a_hi
        p = a * b
        err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
        return p.astype(np.int64) + np.rint(err).astype(np.int64)

    def __call__(self, block: np.ndarray) -> str:
        """A (rows, width) block as text, each cell led by its separator: a newline starts a row."""
        rows, width = block.shape
        x = block.ravel()
        a = np.abs(x)
        exact = (a >= 1e-4) & (a < 1e17)
        a = np.where(exact, a, 1.0)
        t = np.clip(np.floor(np.log10(a)).astype(np.intp) + 4, 0, len(self.pow2) - 1)
        d = self.digits(a, t)
        # log10 may put X one off next to a power of ten; D then leaves [10^16, 10^17)
        off = np.flatnonzero((d < 10**16) | (d >= 10**17))
        if off.size:
            t[off] += np.where(d[off] < 10**16, -1, 1)
            d[off] = self.digits(a[off], t[off])
        # D as its leading digit and four groups of four digits
        quads = np.empty((5, len(d)), np.int64)
        high = d // 10**8
        low = d - high * 10**8
        quads[0] = high // 10**8
        high -= quads[0] * 10**8
        quads[1] = high // 10**4
        quads[2] = high - quads[1] * 10**4
        quads[3] = low // 10**4
        quads[4] = low - quads[3] * 10**4
        zeros = np.take(self.quad_zeros, quads[1:])
        trailing = zeros[3] + (quads[4] == 0) * (
            zeros[2] + (quads[3] == 0) * (zeros[1] + (quads[2] == 0) * zeros[0]))
        negative = np.signbit(x)
        starts_row = np.zeros((rows, width), np.intp)
        starts_row[:, 0] = 1
        starts_row = starts_row.ravel()
        head = (t * 2 + starts_row) * 2 + negative
        words = np.take(self.quad_words, quads[1:]).T
        canvas = np.empty((len(d), 11), np.uint32)
        canvas[:, 0] = np.take(self.head_words, head)
        canvas[:, 1] = np.take(self.head_digit_words, head * 10 + quads[0])
        canvas[:, 2:6] = words
        canvas[:, 6] = np.take(self.point_words, quads[0])
        canvas[:, 7:] = words
        canvas = canvas.view(np.uint8)
        keep = np.take(self.keep, (t * 18 + 17 - trailing) * 2 + negative, axis=0)
        fallback = np.flatnonzero(~exact)
        if fallback.size:
            cells = zip(starts_row[fallback].tolist(), x[fallback].tolist())
            text = [",\n"[starts] + "%.17g" % v for starts, v in cells]
            canvas[fallback] = np.array(text, "S44").view(np.uint8).reshape(-1, 44)
            keep[fallback] = canvas[fallback] != 0
        return canvas.ravel()[keep.ravel()].tobytes().decode("ascii")
