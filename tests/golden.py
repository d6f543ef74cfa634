"""Reference objects used across the test suite, declared independently of
the package so tests cross-check the library's own copies."""

# size-5 monotone triangle with bottom row (2,4,5,8,9)
MT5_ROWS = (
    (4,),
    (4, 5),
    (3, 5, 7),
    (2, 5, 6, 8),
    (2, 4, 5, 8, 9),
)

# the five decreasing monotone triangles with bottom row (6,3,3,2,1),
# in display order; dd counts the boldfaced pairs: 4, 4, 2, 3, 2
DMTS_63321 = (
    ((2,), (2, 2), (3, 2, 2), (3, 3, 2, 2), (6, 3, 3, 2, 1)),
    ((3,), (3, 3), (3, 3, 2), (3, 3, 2, 2), (6, 3, 3, 2, 1)),
    ((3,), (3, 3), (3, 3, 2), (4, 3, 2, 2), (6, 3, 3, 2, 1)),
    ((2,), (2, 2), (4, 2, 2), (5, 3, 2, 2), (6, 3, 3, 2, 1)),
    ((3,), (3, 3), (3, 3, 2), (5, 3, 2, 2), (6, 3, 3, 2, 1)),
)
DMTS_63321_DD = (4, 4, 2, 3, 2)

# a 10 x 5 2-ASM and the corresponding size-10 triangle
TWOASM_5 = (
    (0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 0, 1, 0),
    (0, 1, -1, 1, 0),
    (1, -1, 1, 0, 0),
    (1, 0, -1, 0, 1),
    (0, 1, -1, 0, 1),
    (0, 1, 0, 0, 0),
    (0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0),
)
DMT_10 = (
    (3,),
    (3, 3),
    (4, 3, 3),
    (4, 4, 3, 2),
    (4, 4, 3, 3, 1),
    (5, 4, 4, 3, 1, 1),
    (5, 5, 4, 4, 2, 1, 1),
    (5, 5, 4, 4, 2, 2, 1, 1),
    (5, 5, 4, 4, 3, 2, 2, 1, 1),
    (5, 5, 4, 4, 3, 3, 2, 2, 1, 1),
)

# an eight-row decreasing monotone triangle (statistics exercise)
DMT_8 = (
    (6,),
    (6, 6),
    (6, 6, 3),
    (6, 6, 3, 3),
    (6, 6, 4, 3, 3),
    (7, 6, 5, 3, 3, 2),
    (7, 7, 5, 5, 3, 2, 2),
    (8, 7, 5, 5, 3, 3, 2, 1),
)

# one object counted by the signed difference number for (n, i) = (4, 3)
W43_MATRIX = (
    (0, 1, 0),
    (0, 1, 0),
    (0, 0, 1),
    (1, -1, 1),
    (1, -1, 0),
    (0, 1, 0),
    (0, 1, 0),
)

# ASM numbers 1..7 and the refined rows for n <= 4
ASM_COUNTS = (1, 2, 7, 42, 429, 7436, 218348)
REFINED = {1: (1,), 2: (1, 1), 3: (2, 3, 2), 4: (7, 14, 14, 7)}

# alpha(n; n, n-1, ..., 1) for the odd sizes with known values
STAIRCASE_TABLE = {3: -1, 5: 3, 7: -26, 9: 646, 11: -45885, 13: 9304650, 15: -5382618660,
                   17: 8878734657276}


def mt_bottom(n):
    return tuple(range(1, n + 1))


def dmt_bottom(n):
    return tuple(v for x in range(n, 0, -1) for v in (x, x))
