"""
Census of multiplication-closed subspaces over F_2
==================================================

All 2,491 subspaces of the 8-dimensional algebra over F_2 that are closed
under the product are found, without testing all 417,199 subspaces, and
labelled by orbit type.  The census is one int8 column stack per
dimension: the bases, one column per invariant and a label code.
"""

from collections import defaultdict

from splitoct import algebra, census_columns, label_counts
from splitoct.classify import LABELS

columns = census_columns(algebra(2))
counts = label_counts(columns)

print(f"closed subspaces over F_{columns[0].p}: {sum(counts.values())}")

# counts by dimension: note the gap at dimension 7
by_dim = defaultdict(int)
for (dim, _label), n in counts.items():
    by_dim[dim] += n
for dim in range(9):
    print(f"  dim {dim}: {by_dim.get(dim, 0)}")

# the full table: one line per (dimension, orbit label)
print("\n(dim, label) -> count")
for (dim, label), n in counts.items():
    print(f"  {dim}  {label:<12} {n}")

# flags: associativity stops at dimension 4 except for the two one-sided
# ideal orbits; commutativity survives further in characteristic 2
non_assoc = sorted({LABELS[code].value for c in columns
                    for code in c.label[c.assoc == 0].tolist()})
comm = sorted({LABELS[code].value for c in columns
               for code in c.label[c.comm == 1].tolist()})
print("\nnon-associative orbits:", non_assoc)
print("commutative orbits:", comm)
print("commutative => associative:",
      all(c.assoc[c.comm == 1].all() for c in columns))
