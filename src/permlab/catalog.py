"""Reference first-letter censuses at size 8 for 57 pattern-pair classes.

The catalog lists, for the 57 inequivalent pattern pairs in the families
surrounding the triangle conjecture (49 of them counted by the large
Schroeder numbers, the remaining 8 by a smaller sequence), the census of
permutations of length 8 in the class by first letter.  Entries flagged
``"triangle"`` have censuses equal to row 8 of the Schroeder triangle (the
classes whose refinement the rest of the package studies); entries flagged
``"reversed"`` are their mirror images under complementation, with the same
census read backwards.  :func:`diff_catalog` recomputes any subset with the
exact census of :func:`permlab.perms.first_letter_distribution` and reports
disagreements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .perms import Pair, first_letter_distribution, parse_pair

#: Length at which the catalog censuses were taken.
REFERENCE_N = 8


@dataclass(frozen=True)
class CatalogEntry:
    """One pattern pair with its reference census by first letter."""

    pair: Pair
    counts: tuple[int, ...]
    flag: str = ""

    @property
    def label(self) -> str:
        return ",".join("".join(map(str, p)) for p in self.pair)

    @property
    def total(self) -> int:
        return sum(self.counts)


def _entry(pair_text: str, counts: tuple[int, ...], flag: str = "") -> CatalogEntry:
    return CatalogEntry(parse_pair(pair_text), counts, flag)


_REVERSED = (1806, 1806, 1806, 1412, 928, 512, 224, 64)
_TRIANGLE = (64, 224, 512, 928, 1412, 1806, 1806, 1806)
_UNIFORM = (1806, 1092, 752, 629, 629, 752, 1092, 1806)
_TAILTOP = (1806, 1806, 1502, 1152, 840, 594, 429, 429)
_HEADTOP = (429, 429, 594, 840, 1152, 1502, 1806, 1806)

CATALOG: tuple[CatalogEntry, ...] = (
    _entry("2413,4123", (1584, 1036, 996, 956, 879, 751, 533, 233)),
    _entry("3142,4123", (1584, 1584, 1252, 912, 637, 443, 323, 233)),
    _entry("3142,3214", (1584, 1584, 736, 396, 292, 304, 488, 1584)),
    _entry("2341,2413", (1584, 488, 304, 292, 396, 736, 1584, 1584)),
    _entry("2341,3142", (1584, 811, 587, 489, 481, 577, 855, 1584)),
    _entry("2413,3214", (1584, 855, 577, 481, 489, 587, 811, 1584)),
    _entry("2431,3421", (1806, 1022, 710, 614, 644, 795, 1161, 1806)),
    _entry("2431,4231", (1806, 1092, 1008, 1045, 1120, 1134, 924, 429)),
    _entry("2314,3124", _UNIFORM),
    _entry("2314,3214", _UNIFORM),
    _entry("2341,3241", _UNIFORM),
    _entry("2413,3142", _UNIFORM),
    _entry("2431,3241", _UNIFORM),
    _entry("2134,3124", (1806, 1161, 795, 644, 614, 710, 1022, 1806)),
    _entry("3241,3421", (1806, 1806, 1198, 678, 406, 342, 516, 1806)),
    _entry("3214,3241", (1806, 1806, 1220, 672, 390, 342, 516, 1806)),
    _entry("3124,4123", _TAILTOP),
    _entry("3214,4213", _TAILTOP),
    _entry("3241,4231", _TAILTOP),
    _entry("3412,4312", _TAILTOP),
    _entry("3421,4231", _TAILTOP),
    _entry("3421,4321", _TAILTOP),
    _entry("4123,4132", _REVERSED, "reversed"),
    _entry("4123,4213", _REVERSED, "reversed"),
    _entry("4132,4213", _REVERSED, "reversed"),
    _entry("4132,4231", _REVERSED, "reversed"),
    _entry("4132,4312", _REVERSED, "reversed"),
    _entry("4213,4231", _REVERSED, "reversed"),
    _entry("4213,4312", _REVERSED, "reversed"),
    _entry("4231,4312", _REVERSED, "reversed"),
    _entry("4312,4321", _REVERSED, "reversed"),
    _entry("3124,3214", (1806, 1806, 788, 540, 484, 540, 788, 1806)),
    _entry("3412,3421", (1806, 1806, 788, 540, 484, 540, 788, 1806)),
    _entry("2314,2341", (1806, 516, 342, 390, 672, 1220, 1806, 1806)),
    _entry("2134,2314", (1806, 516, 342, 406, 678, 1198, 1806, 1806)),
    _entry("2134,2143", (1806, 788, 540, 484, 540, 788, 1806, 1806)),
    _entry("2341,2431", (1806, 788, 540, 484, 540, 788, 1806, 1806)),
    _entry("1432,2413", (233, 323, 443, 637, 912, 1252, 1584, 1584)),
    _entry("1432,3142", (233, 533, 751, 879, 956, 996, 1036, 1584)),
    _entry("1234,2134", _HEADTOP),
    _entry("1243,2143", _HEADTOP),
    _entry("1324,2134", _HEADTOP),
    _entry("1324,2314", _HEADTOP),
    _entry("1342,2341", _HEADTOP),
    _entry("1432,2431", _HEADTOP),
    _entry("1324,3124", (429, 924, 1134, 1120, 1045, 1008, 1092, 1806)),
    _entry("1423,4123", (429, 924, 1344, 1582, 1582, 1344, 924, 429)),
    _entry("1432,4132", (429, 924, 1344, 1582, 1582, 1344, 924, 429)),
    _entry("1234,1243", _TRIANGLE, "triangle"),
    _entry("1243,1324", _TRIANGLE, "triangle"),
    _entry("1243,1342", _TRIANGLE, "triangle"),
    _entry("1243,1423", _TRIANGLE, "triangle"),
    _entry("1324,1342", _TRIANGLE, "triangle"),
    _entry("1324,1423", _TRIANGLE, "triangle"),
    _entry("1342,1423", _TRIANGLE, "triangle"),
    _entry("1342,1432", _TRIANGLE, "triangle"),
    _entry("1423,1432", _TRIANGLE, "triangle"),
)

#: The nine pairs whose first-letter census equals the triangle row.
TRIANGLE_PAIRS: tuple[Pair, ...] = tuple(
    e.pair for e in CATALOG if e.flag == "triangle"
)


def entries(flag: str | None = None) -> tuple[CatalogEntry, ...]:
    """Catalog entries, optionally filtered by flag."""
    if flag is None:
        return CATALOG
    return tuple(e for e in CATALOG if e.flag == flag)


def recompute_entry(entry: CatalogEntry, n: int = REFERENCE_N) -> list[int]:
    """Exact first-letter census for one entry (defaults to the reference
    size), counted over collapsed prefix states, not avoider by avoider."""
    return first_letter_distribution(n, entry.pair)


def diff_catalog(
    entries_to_check: tuple[CatalogEntry, ...] | None = None,
) -> list[tuple[CatalogEntry, list[int]]]:
    """Recompute censuses by enumeration; return entries that disagree.

    An empty list means every checked row of the catalog is confirmed.
    """
    bad = []
    for entry in entries_to_check if entries_to_check is not None else CATALOG:
        got = recompute_entry(entry)
        if tuple(got) != entry.counts:
            bad.append((entry, got))
    return bad
