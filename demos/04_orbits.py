"""
The automorphism group and its orbits
=====================================

Automorphisms fixing the 2x2-matrix part pairwise come from matched unit
pairs (s, t) with det s = det t; one extra doubling extension moves the
matrix part.  Together they generate the full group, whose order over F_2
is confirmed by a second, independent brute-force count.  Two alpha maps
and the mover already generate it.
"""

from splitoct import (all_alpha_generators, alpha_subgroup_order_formula,
                      automorphism_generators, count_automorphisms,
                      element_orbits, enumerate_subalgebras,
                      find_h_moving_extension, generate_group,
                      orbit_partition, standard_quaternions)

# the part-preserving subgroup: closure order matches the counting formula
for p in (2, 3):
    closure = generate_group(all_alpha_generators(p))
    print(f"F_{p}: part-preserving subgroup order {closure.order} "
          f"(formula: {alpha_subgroup_order_formula(p)})")

# a deterministic extra generator that moves the matrix part
mover = find_h_moving_extension(2)
h = standard_quaternions(2)
print("mover sends the matrix part elsewhere:", mover.apply_space(h) != h)

# full group over F_2, two routes: generated closure vs direct search
full = generate_group(all_alpha_generators(2) + [mover])
print("generated order:", full.order)
print("direct search:  ", count_automorphisms(2))

# the short generating set: two alpha maps and the mover give the same group
gens = automorphism_generators(2)
print(f"{len(gens)} generators, order:", generate_group(gens).order)

# each (dimension, label) census class is a single orbit
records = enumerate_subalgebras(2, [4, 5, 6])
for row in orbit_partition(records, gens):
    print(row)

# element orbits: norm, trace and centrality separate them completely
orbits = element_orbits(gens, 2)
print("element orbit sizes:", sorted(len(o) for o in orbits))
