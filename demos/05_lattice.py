"""
The inclusion lattice of orbit labels
=====================================

Which orbit types contain which?  The answer is computed from the
subalgebras of each representative, and is the same over F_2 and F_3:
21 nodes, 40 covering edges, and a unique maximal proper node.
"""

from splitoct import build_lattice, emit_dot, emit_json

graph = build_lattice(2)

print(f"nodes: {len(graph.nodes)}  covering edges: {len(graph.edges)}")

# the unique maximal proper subalgebra orbit is the 6-dimensional one;
# in particular the 4-dimensional matrix algebra sits strictly inside it
for node in graph.nodes:
    if node.maximal:
        print("maximal node:", node.label.value, "dim", node.dim)
print("edge F2x2 -> Qperp present:",
      ("F2x2", "Qperp") in set(graph.edge_values()))

# immediate successors of the totally singular plane Q
succ = sorted(b for a, b in graph.edge_values() if a == "Q")
print("covers of Q:", succ)

# deterministic renderings; identical bytes on every run
dot = emit_dot(graph)
print("\nfirst lines of the DOT output:")
print("\n".join(dot.splitlines()[:6]))
print("...")
print("byte-stable:", dot == emit_dot(build_lattice(2)))

# the JSON form carries the per-node flags
blob = emit_json(graph)
print("\nJSON length:", len(blob), "bytes")
