"""Bit-manipulation helpers shared by index and tag hash functions.

Branch predictors address their tables with hashes of the program counter
and (folded) branch history.  The helpers in this module keep those hash
functions short and explicit at the call sites.
"""

from __future__ import annotations

__all__ = ["mask", "bit_select", "fold_bits", "mix_hash"]


def mask(width: int) -> int:
    """Return a bit mask with ``width`` low-order bits set.

    >>> mask(4)
    15
    >>> mask(0)
    0
    """
    if width < 0:
        raise ValueError(f"mask width must be non-negative, got {width}")
    return (1 << width) - 1


def bit_select(value: int, low: int, width: int) -> int:
    """Extract ``width`` bits of ``value`` starting at bit ``low``.

    >>> bit_select(0b110100, 2, 3)
    5
    """
    if low < 0 or width < 0:
        raise ValueError("bit_select requires non-negative low and width")
    return (value >> low) & mask(width)


def fold_bits(value: int, input_width: int, output_width: int) -> int:
    """Fold ``input_width`` bits of ``value`` down to ``output_width`` by XOR.

    This mirrors what a hardware "circular shift register" fold computes
    when done combinationally: the input is cut into ``output_width``-bit
    chunks which are XORed together.

    >>> fold_bits(0b1111_0000_1010, 12, 4)
    5
    """
    if output_width <= 0:
        raise ValueError("output_width must be positive")
    value &= mask(input_width)
    chunk = mask(output_width)
    folded = 0
    while value:
        folded ^= value & chunk
        value >>= output_width
    return folded


def mix_hash(*values: int, width: int) -> int:
    """Combine several integers into a ``width``-bit hash.

    The mixing is deliberately simple (shift-XOR, as in published TAGE
    source code) rather than cryptographic: hardware index functions are
    built from a handful of XOR gates.

    >>> 0 <= mix_hash(0x400812, 0x3F, width=10) < 1024
    True
    """
    acc = 0
    for i, value in enumerate(values):
        acc ^= (value >> i) ^ (value << (i + 1))
    return acc & mask(width)
