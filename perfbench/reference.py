"""Published reference data the checks compare against, kept apart from permlab.

``TABLE2`` holds the paper's size-8 first-letter censuses for the catalog
pairs the ``catalog`` workload runs; ``TRIANGLE_PAIRS`` are the nine pairs
whose censuses the paper proves equal to the Schroeder triangle.
"""

from __future__ import annotations


def pair_of(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """'1243,1423' -> ((1, 2, 4, 3), (1, 4, 2, 3))."""
    a, b = text.split(",")
    return tuple(map(int, a)), tuple(map(int, b))


#: Size of the censuses in Table 2.
TABLE2_N = 8

#: Table 2 rows for three complement couples: each pair and the pair of its
#: complemented patterns, whose census is the same row read backwards.  One
#: couple joins a triangle pair to its mirror, one has a census counted by
#: the Schroeder numbers without being the triangle row, and one is counted
#: by the smaller sequence (total 6968 at n = 8).
TABLE2_COUPLES = (
    (("1243,1423", (64, 224, 512, 928, 1412, 1806, 1806, 1806)),
     ("4132,4312", (1806, 1806, 1806, 1412, 928, 512, 224, 64))),
    (("2134,3124", (1806, 1161, 795, 644, 614, 710, 1022, 1806)),
     ("2431,3421", (1806, 1022, 710, 614, 644, 795, 1161, 1806))),
    (("2413,4123", (1584, 1036, 996, 956, 879, 751, 533, 233)),
     ("1432,3142", (233, 533, 751, 879, 956, 996, 1036, 1584))),
)

TABLE2 = {pair_of(text): row for couple in TABLE2_COUPLES for text, row in couple}

#: The nine pairs of the triangle theorem.
TRIANGLE_PAIRS = tuple(pair_of(text) for text in (
    "1234,1243", "1243,1324", "1243,1342", "1243,1423", "1324,1342",
    "1324,1423", "1342,1423", "1342,1432", "1423,1432",
))

#: The classes the bijection maps between, in the paper's notation.
BIJECTION_SOURCE = pair_of("1342,1432")
BIJECTION_TARGET = pair_of("1234,1243")

#: The functional-equation systems, as named in ``permlab.systems.SYSTEMS``.
SYSTEMS = ("sites", "1243_1423", "1243_1342", "1243_1324")

#: The first-letter closed forms and the pair each one counts.
FIRST_LETTER_FORMS = {
    "first_letter_1243_1423": pair_of("1243,1423"),
    "first_letter_1243_1342": pair_of("1243,1342"),
    "first_letter_1243_1324": pair_of("1243,1324"),
}
