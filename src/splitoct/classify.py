"""Orbit classification of closed subspaces of the split octonions.

Every multiplicatively closed subspace falls into one of finitely many
orbits of the automorphism group, read off from cheap invariants
(dimension, unitality, radicals, one-sided annihilators, the minimal
polynomial of a generator).  The classification is a rule table: each
label of a dimension has one rule, a conjunction of those invariants,
and a closed subspace must fit exactly one rule of its dimension.
Labels D, H, D+Q, K require imperfect or infinite scalars and can never
occur over F_p, so they have no rule: by Chevalley–Warning the norm, a
form in 4 variables, has a nonzero zero on every 4-dimensional
subalgebra, so one that is unital with R = 0 is F2x2, never H.  A
subspace that fits no rule, or several, raises
:class:`ClassificationError`, so a scan meeting one is loudly wrong.

:func:`batch_columns` computes every invariant of a stack of closed
subspaces of any table of the split octonions (an
:class:`splitoct.algebra.Algebra`) at once, from their k×k×k structure
constants and the table's Gram matrix, norms, traces and unit on the
basis rows, and returns them as int8 :class:`Columns` with a label code
per subspace.  :meth:`Columns.records` turns those columns into
:class:`SubalgebraRecord` objects; :func:`record_for` is its one-space
case, and :func:`classify` reads the one-space label code.  Every
function here takes the table it works in.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import field
from .algebra import Algebra
from .linalg import batch_rank, residues
from .subspace import (NotClosed, Subspace, check_space, coefficient_vectors,
                       substructure)


class OrbitLabel(enum.Enum):
    """Orbit catalog; values are the ASCII node captions used in output."""

    Zero = "0"
    F = "F"
    Fp = "Fp"
    Fn = "Fn"
    S = "S"
    FplusFn = "F+Fn"
    FnFp = "Fn+Fp"
    FnFpbar = "Fn+Fpbar"
    Q = "Q"
    E = "E"
    D = "D"
    T = "T"
    FplusQ = "F+Q"
    mOcapOn = "mOcapOn"
    HeisNOcapOn = "nOcapOn"
    SplitQuat = "F2x2"
    QuatField = "H"
    SplusQ = "S+Q"
    EplusQ = "E+Q"
    DplusQ = "D+Q"
    K = "K"
    FplusHeis = "F+(nOcapOn)"
    NO = "nO"
    ON = "On"
    Dim5 = "nO+On"
    Dim6 = "Qperp"
    Full = "O"

    @property
    def reachable(self) -> bool:
        """Whether the orbit is realizable over a finite field."""
        return self not in _UNREACHABLE


_UNREACHABLE = {OrbitLabel.D, OrbitLabel.QuatField, OrbitLabel.DplusQ, OrbitLabel.K}

#: every label, in the order of the label codes of :class:`Columns`
LABELS: tuple[OrbitLabel, ...] = tuple(OrbitLabel)
_CODE = {lab: code for code, lab in enumerate(LABELS)}

#: dimension of any subalgebra carrying the label
LABEL_DIM = {
    OrbitLabel.Zero: 0,
    OrbitLabel.F: 1, OrbitLabel.Fp: 1, OrbitLabel.Fn: 1,
    OrbitLabel.S: 2, OrbitLabel.FplusFn: 2, OrbitLabel.FnFp: 2,
    OrbitLabel.FnFpbar: 2, OrbitLabel.Q: 2, OrbitLabel.E: 2, OrbitLabel.D: 2,
    OrbitLabel.T: 3, OrbitLabel.FplusQ: 3, OrbitLabel.mOcapOn: 3,
    OrbitLabel.HeisNOcapOn: 3,
    OrbitLabel.SplitQuat: 4, OrbitLabel.QuatField: 4, OrbitLabel.SplusQ: 4,
    OrbitLabel.EplusQ: 4, OrbitLabel.DplusQ: 4, OrbitLabel.K: 4,
    OrbitLabel.FplusHeis: 4, OrbitLabel.NO: 4, OrbitLabel.ON: 4,
    OrbitLabel.Dim5: 5, OrbitLabel.Dim6: 6, OrbitLabel.Full: 8,
}


class ClassificationError(ArithmeticError):
    """A closed subspace fits no label's rule, or several (must never fire)."""


def element_orbit_invariant(v, A: Algebra) -> tuple[int, int, bool]:
    """(norm, trace, is_central): a complete orbit invariant for elements
    of the octonion algebra ``A``.

    Non-central elements with equal norm and trace lie in one orbit of the
    automorphism group; central means lying in F·1.
    """
    v = tuple(v)
    A.check_element(v)
    v = tuple(int(c) % A.p for c in v)
    central = any(A.smul(c, A.unit) == v for c in range(A.p))
    return A.norm(v), A.trace(v), central


# ---------------------------------------------------------------------------
# full per-subalgebra record
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubalgebraRecord:
    """A closed subspace with all computed invariants."""

    space: Subspace
    dim: int
    contains_one: bool
    totally_singular: bool
    radical_R_dim: int
    radical_Q_dim: int
    associative: bool
    commutative: bool
    label: OrbitLabel

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "basis": [list(r) for r in self.space.rows],
            "label": self.label.value,
            "flags": {
                "assoc": self.associative,
                "comm": self.commutative,
                "unital": self.contains_one,
            },
            "R_dim": self.radical_R_dim,
            "Q_dim": self.radical_Q_dim,
        }


class Columns(NamedTuple):
    """Classified closed subspaces of one dimension k over F_p: the RREF
    bases (M, k, n) and one column (M,) per invariant as int8 arrays,
    flags as 0 or 1 and ``label`` an index into :data:`LABELS`, then the
    prime ``p``."""

    rows: np.ndarray
    unital: np.ndarray
    singular: np.ndarray
    R: np.ndarray
    Q: np.ndarray
    assoc: np.ndarray
    comm: np.ndarray
    label: np.ndarray
    p: int

    @classmethod
    def concat(cls, parts) -> Columns:
        """One stack of the stacks ``parts`` (at least one, all over one
        field), in order."""
        primes = {part.p for part in parts}
        if len(primes) != 1:
            raise ValueError(f"need columns over one field, got primes {sorted(primes)}")
        return cls(*map(np.concatenate, zip(*(part[:-1] for part in parts))), primes.pop())

    def records(self) -> list[SubalgebraRecord]:
        """One record per subspace."""
        _, k, n = self.rows.shape
        return [SubalgebraRecord(Subspace(tuple(map(tuple, basis)), self.p, n), k,
                                 bool(unital), bool(singular), R, Q, bool(assoc),
                                 bool(comm), LABELS[label])
                for basis, unital, singular, R, Q, assoc, comm, label
                in zip(*(col.tolist() for col in self[:-1]))]


@lru_cache(maxsize=None)
def _kinds(p: int) -> np.ndarray:
    """_kinds(p)[t, n]: the number of roots of X² - tX + n in F_p for every
    t, n: 2 (split), 1 (a double root) or 0 (irreducible).  (Over F_2 every
    element is a square, so X² + n has a root and no irreducible polynomial
    of this form is inseparable.)"""
    return np.array([[len(field.quadratic_roots(t, n, p)) for n in range(p)]
                     for t in range(p)])


def _generator_kind(outside: np.ndarray, traces: np.ndarray, norms: np.ndarray,
                    p: int) -> np.ndarray:
    """Minimal-polynomial kind (root count) of each basis's first row
    flagged in ``outside``."""
    at = np.arange(len(outside)), outside.argmax(1)
    return _kinds(p)[traces[at], norms[at]]


def _form_values(X: np.ndarray, norms: np.ndarray, gram: np.ndarray,
                 p: int) -> np.ndarray:
    """N(Σ x_i b_i) for every coefficient row x of X (V, k) and every basis,
    from the basis norms (M, k) and polar Gram matrices (M, k, k): the
    upper-triangular matrix of the norm times every outer product x xᵀ."""
    M, k = norms.shape
    form = np.triu(gram, 1)
    form[:, range(k), range(k)] = norms
    outer = (X[:, :, None] * X[:, None, :]).reshape(len(X), k * k)
    return form.reshape(M, k * k) @ outer.T % p


def _associative(C: np.ndarray, p: int) -> np.ndarray:
    """Whether each subalgebra with structure constants C (M, k, k, k) is
    associative: (b_i b_j) b_l against b_i (b_j b_l), both as stacked
    matmuls indexed [i, (j, l), c]."""
    M, k = C.shape[:2]
    left = C.reshape(M, k * k, k) @ C.reshape(M, k, k * k) % p
    right = C.reshape(M, 1, k * k, k) @ C % p
    return (left.reshape(M, k, k * k, k) == right).all((1, 2, 3))


#: cap on rows × max(k⁴, 2) per batch: it bounds the int64 temporaries
#: of the associativity check, two stacked matmul products of k⁴ entries
#: per row, and over F_2 of the norm form's values at every coefficient
#: vector (rows, 2^k ≤ max(k⁴, 2) for k ≤ 8) to 256 KB each
_BATCH = 1 << 15


def batch_columns(rows: np.ndarray, A: Algebra) -> Columns:
    """The invariants and orbit labels of closed subspaces given by RREF
    bases, as :class:`Columns`.

    ``rows`` has shape (M, k, 8), one basis per subspace of the octonion
    algebra ``A``, all of one dimension k.  Every invariant comes from the
    structure constants C (M, k, k, k) plus A's Gram matrix, norms,
    traces and unit on the basis: associativity and commutativity from C,
    unitality from the residue of 1 by the basis, total singularity from the
    norms and the Gram matrix, dim R = k − rank(Gram) mod p and, over
    F_2, dim Q from the norm on the Gram kernel (Q = R for odd p).  No
    coordinate of A is read directly, so any table of the split octonions
    gives the same labels.  Each label's rule is a boolean mask over the
    stack, and every subspace must fit exactly one rule of dimension k.
    Raises NotClosed if some basis does not span a closed subspace and
    ClassificationError, naming the first offender, if one fits no rule
    or several.  A stack of any size is taken in blocks of at most
    ``_BATCH // max(k⁴, 2)`` rows.
    """
    p = A.p
    rows = np.asarray(rows, dtype=np.int64) % p
    M, k, _ = rows.shape
    step = max(1, _BATCH // max(k ** 4, 2))
    if M > step:
        return Columns.concat([batch_columns(rows[lo:lo + step], A)
                               for lo in range(0, M, step)])
    if k == 0 or not M:
        # zero spaces (or none): not unital, singular, R = Q = 0, assoc, comm
        return Columns(rows.astype(np.int8), *(np.full(M, v, dtype=np.int8) for v in
                                               (0, 1, 0, 0, 1, 1, _CODE[OrbitLabel.Zero])), p)
    C = substructure(rows, A)
    gram = rows @ A.gram @ rows.transpose(0, 2, 1) % p
    norms = A.norms(rows)
    traces = A.traces(rows)
    one = np.array(A.unit, dtype=np.int64)
    unital = ~residues(rows, one[None], p).any((1, 2))
    singular = ~norms.any(1) & ~np.triu(gram, 1).any((1, 2))
    comm = (C == C.transpose(0, 2, 1, 3)).all((1, 2, 3))
    assoc = _associative(C, p)
    R = k - batch_rank(gram, p)
    if p == 2:
        # N is additive on R over F_2; Q is its kernel there
        X = coefficient_vectors(k, 2)
        in_R = ~((X @ gram) % 2).any(-1)
        Q = R - (in_R & (_form_values(X, norms, gram, 2) == 1)).any(1)
    else:
        Q = R
    # 1 ∉ A forces N ≡ 0 on A: an invertible x gives 1 = (tr(x)·x − x²)/N(x)
    own = ~unital & singular
    traced = traces.any(1)
    rules = {5: {OrbitLabel.Dim5: unital}, 6: {OrbitLabel.Dim6: unital},
             8: {OrbitLabel.Full: unital}}.get(k, {})
    if k == 1:
        rules = {OrbitLabel.F: unital, OrbitLabel.Fp: own & traced,
                 OrbitLabel.Fn: own & ~traced}
    if k in (2, 4):
        # a nonzero a in A with a·A = 0 (left) or A·a = 0 (right)
        sides = np.concatenate([C, C.transpose(0, 2, 1, 3)]).reshape(2 * M, k, k * k)
        left_ann, right_ann = (batch_rank(sides, p) < k).reshape(2, M)
    if k == 2:
        # the generator is the first row that is not a multiple of 1; RREF
        # rows lead with 1, so the only such multiple is 1 scaled to lead with 1
        lead = next(c for c in A.unit if c)
        kind = _generator_kind((rows != A.smul(pow(lead, -1, p), A.unit)).any(-1),
                               traces, norms, p)
        rules = {OrbitLabel.S: unital & (kind == 2),
                 OrbitLabel.FplusFn: unital & (kind == 1),
                 OrbitLabel.E: unital & (kind == 0),
                 OrbitLabel.Q: own & ~C.any((1, 2, 3)),
                 OrbitLabel.FnFp: own & left_ann & ~right_ann,
                 OrbitLabel.FnFpbar: own & right_ann & ~left_ann}
    if k == 3:
        rules = {OrbitLabel.T: unital & (R == 1),
                 OrbitLabel.FplusQ: unital & (R >= 2) & (Q >= 2),
                 OrbitLabel.mOcapOn: own & traced, OrbitLabel.HeisNOcapOn: own & ~traced}
    if k == 4:
        # the generator of the quotient by F·1 + R: b_i lies in F·1 + R iff
        # its Gram column is a multiple of the Gram column of 1
        g1 = rows @ (A.gram @ one) % p
        multiples = np.arange(p)[:, None] * g1[:, None, :] % p
        kind = _generator_kind((gram[:, :, None] != multiples[:, None]).any(-1).all(-1),
                               traces, norms, p)
        unital_RQ2 = unital & (R == 2) & (Q == 2)
        rules = {OrbitLabel.SplitQuat: unital & (R == 0),
                 OrbitLabel.FplusHeis: unital & (Q == 3),
                 OrbitLabel.SplusQ: unital_RQ2 & (kind == 2),
                 OrbitLabel.EplusQ: unital_RQ2 & (kind == 0),
                 OrbitLabel.NO: own & left_ann, OrbitLabel.ON: own & right_ann}
    fits = np.array(list(rules.values()), dtype=bool).reshape(-1, M)
    count = fits.sum(0)
    if (count != 1).any():
        m = int((count != 1).argmax())
        raise ClassificationError(
            f"closed subspace {tuple(map(tuple, rows[m].tolist()))} fits {count[m]} "
            f"labels, not one (unital={bool(unital[m])}, singular={bool(singular[m])}, "
            f"R={R[m]}, Q={Q[m]})")
    codes = np.array([_CODE[lab] for lab in rules], dtype=np.int8)
    return Columns(rows.astype(np.int8),
                   *(col.astype(np.int8) for col in (unital, singular, R, Q, assoc, comm)),
                   codes[fits.argmax(0)], p)


def record_for(space: Subspace, A: Algebra) -> SubalgebraRecord:
    """Compute every invariant plus the orbit label for a closed subspace
    of the octonion algebra ``A``.

    Closure is always checked: it falls out of the structure constants.
    """
    check_space(space, A)
    return batch_columns(space.matrix()[None], A).records()[0]


def classify(space: Subspace, A: Algebra) -> OrbitLabel:
    """Orbit label of a closed subspace of ``A``, per the classification
    theorems: the label code of :func:`batch_columns`, no record built."""
    check_space(space, A)
    return LABELS[batch_columns(space.matrix()[None], A).label[0]]
