"""
Labelling subalgebras and building standard representatives
===========================================================

Every orbit label has a canonical representative; classify() recovers the
label from any member of the orbit, over any small prime field.
"""

from splitoct import OrbitLabel, algebra, classify, closure, rep, span
from splitoct.classify import LABEL_DIM

ctx = algebra(5)

# one representative per reachable orbit, over F_5
print("label        dim  representative basis")
for label in OrbitLabel:
    if not label.reachable:
        continue
    space = rep(label, 5)
    basis = ", ".join(str(r) for r in space.rows[:2])
    more = " ..." if space.dim > 2 else ""
    print(f"{label.value:<12} {LABEL_DIM[label]:>3}  {basis}{more}")

# classification is closure-safe: handing in a non-closed space raises
from splitoct import NotClosed  # noqa: E402

try:
    classify(span([ctx.n0, ctx.nbar0], 5), ctx)
except NotClosed as exc:
    print("\nnon-closed input is refused:", exc)

# the closure of a couple of random elements is closed and labellable
gen = closure([(1, 2, 0, 0, 0, 3, 0, 1), (0, 0, 1, 0, 2, 0, 0, 0)], ctx)
print("\nclosure of two elements: dim", gen.dim, "->", classify(gen, ctx).value)

# four labels (quaternion division algebras and friends) need imperfect
# or infinite scalars and never appear over a finite prime field
print("unreachable over F_p:",
      [lab.value for lab in OrbitLabel if not lab.reachable])
