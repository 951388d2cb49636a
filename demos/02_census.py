"""
Census of multiplication-closed subspaces over F_2
==================================================

All 2,491 subspaces of the 8-dimensional algebra over F_2 that are closed
under the product are found, without testing all 417,199 subspaces, and
labelled by orbit type.
"""

from collections import defaultdict

from splitoct import algebra, census_report, enumerate_subalgebras

records = enumerate_subalgebras(algebra(2))
summary = census_report(records)

print(f"closed subspaces over F_{summary.p}: {summary.closed_count}")

# counts by dimension: note the gap at dimension 7
by_dim = defaultdict(int)
for (dim, _label), n in summary.counts.items():
    by_dim[dim] += n
for dim in range(9):
    print(f"  dim {dim}: {by_dim.get(dim, 0)}")

# the full table: one line per (dimension, orbit label)
print("\n(dim, label) -> count")
for (dim, label), n in sorted(summary.counts.items()):
    print(f"  {dim}  {label:<12} {n}")

# flags: associativity stops at dimension 4 except for the two one-sided
# ideal orbits; commutativity survives further in characteristic 2
non_assoc = sorted({r.label.value for r in records if not r.associative})
comm = sorted({r.label.value for r in records if r.commutative})
print("\nnon-associative orbits:", non_assoc)
print("commutative orbits:", comm)
print("commutative => associative:",
      all(r.associative for r in records if r.commutative))
