"""Orientations and colourings of a dual tree that the tests read and the
pipeline never computes."""


def base_orientation(system, vertex: int) -> int:
    """Class-side choice of a family vertex, as a bitmask of flipped classes."""
    o = 0
    for k, g in enumerate(system.class_norm):
        if (g >> vertex) & 1:
            o |= 1 << k
    return o


def tree_colors(tree) -> list[int]:
    """Each tree vertex's parity of flips: adjacent vertices differ."""
    return [flips.bit_count() % 2 for flips in tree.flips]
