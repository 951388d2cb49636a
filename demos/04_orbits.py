"""
The automorphism group and its orbits
=====================================

Automorphisms fixing the 2x2-matrix part pairwise come from matched unit
pairs (s, t) with det s = det t; one extra doubling extension moves the
matrix part.  Together they generate the full group, whose order over F_2
is confirmed by a second, independent brute-force count.  Two alpha maps
and the mover already generate it.
"""

from splitoct import (algebra, all_alpha_generators,
                      automorphism_generators, census_columns,
                      count_automorphisms, element_orbits,
                      find_h_moving_extension, generate_group,
                      orbit_partition, standard_quaternions)

# the part-preserving subgroup: closure order matches the count of
# matched unit pairs modulo the scalar kernel, |GL2|·|SL2|/(p−1)
for p in (2, 3):
    closure = generate_group(all_alpha_generators(p))
    gl = (p * p - 1) * (p * p - p)
    print(f"F_{p}: part-preserving subgroup order {closure.order} "
          f"(formula: {gl * (gl // (p - 1)) // (p - 1)})")

# a deterministic extra generator that moves the matrix part
mover = find_h_moving_extension(2)
h = standard_quaternions(2)
print("mover sends the matrix part elsewhere:", mover.apply_space(h) != h)

# full group over F_2, two routes: generated closure vs direct search
full = generate_group(all_alpha_generators(2) + [mover])
print("generated order:", full.order)
print("direct search:  ", count_automorphisms())

# the short generating set: two alpha maps and the mover give the same group
gens = automorphism_generators(2)
print(f"{len(gens)} generators, order:", generate_group(gens).order)

# each (dimension, label) census class is a single orbit
for row in orbit_partition(census_columns(algebra(2), [4, 5, 6]), gens):
    print(row)

# element orbits: norm, trace and centrality separate them completely
orbits = element_orbits(gens)
print("element orbit sizes:", sorted(len(o) for o in orbits))
