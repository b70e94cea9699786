"""Facts of the classification, typed in from the paper.

The correctness checks compare the program's outputs with these values and
with properties every correct output must have; none of them is a copy of
what the program printed at some commit.
"""

# stabilizer dimension of every catalog entry: one row per underlying algebra,
# one column per grading index j of the label (f|j)
STAB_TABLE = {
    "1": (0, 0, 0), "2": (1, 1, 1, 1), "3": (2, 2, 2, 1), "4": (2, 1), "5": (3, 2),
    "6": (4, 2, 4), "7": (4, 2, 3, 2), "8": (5, 3, 3, 3), "9": (9, 5, 5, 9),
    "10": (3, 1), "11": (4, 3, 2, 2), "12": (6, 3, 4), "13": (2, 1),
    "14": (3, 3, 2, 2), "15": (3, 3, 2, 2), "16": (4, 3, 3, 2), "17": (6, 3, 4),
    "18;l": (4, 3, 2), "19": (4, 2),
}
ROW_ORDER = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13",
             "14", "15", "16", "17", "18;l", "19")

# dimension of the basis-change group fixing the unit (n^2 - n for n = 4)
GROUP_DIM = 12

FAMILIES = ("(18;l|0)", "(18;l|1)", "(18;l|2)")

# certificates per packaged set, as published
CERT_COUNTS = {
    "spec_dim3": 17, "spec_dim2": 21, "family_limits": 5,
    "obstructions_dim3": 24, "obstructions_dim2": 39, "obstructions_dim0": 8,
}
CERT_SETS = tuple(CERT_COUNTS)

# the one published obstruction that the dimension table itself contradicts
ERRATUM = ("(10|1)", "(11|3)")

# the component whose even part is 2-dimensional: its sources (the eight
# generic structures plus (6|2) and (19|1), which the open pairs leave
# unresolved) and the open pairs inside it
COMPONENT_2_SOURCES = ("(1|2)", "(10|1)", "(11|3)", "(14|3)", "(15|3)", "(17|2)",
                       "(18;l|1)", "(18;l|2)", "(6|2)", "(19|1)")
COMPONENT_2_OPEN_PAIRS = (
    ("(1|2)", "(6|2)"), ("(2|3)", "(6|2)"), ("(18;l|2)", "(19|1)"),
    ("(2|3)", "(7|3)"), ("(14|3)", "(16|2)"), ("(15|3)", "(16|1)"),
)


def split_label(label: str):
    """'(18;l|2)' -> ('18;l', 2)."""
    family, j = label.strip("()").split("|")
    return family, int(j)


def stab_dim(label: str) -> int:
    family, j = split_label(label)
    return STAB_TABLE[family][j]


def orbit_dim(label: str) -> int:
    return GROUP_DIM - stab_dim(label)


def all_labels():
    return [f"({f}|{j})" for f in ROW_ORDER for j in range(len(STAB_TABLE[f]))]
