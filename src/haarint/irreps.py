"""Irreducible-representation matrix elements of the classical compact
groups: exact bases inside tensor powers, sampled representation
matrices, and exact / leading-order / Monte Carlo integrals of products
of their entries.

A basis vector is kept as an exact tensor of coprime int coefficients,
plus its int norm-square; representation entries are
<b_i, u^(x)m b_j>/sqrt(n_i n_j).  The build is integer-only: each
filling's symmetrized tensor, for O/Sp a positive multiple of its
traceless part (tensors._trace_part), goes through the one weight-graded,
fraction-free Gram–Schmidt of tensors (gram_schmidt), whose kept vectors
and norms fill IrrepBasis as they are.  The brackets hand those integers
to moments, so match vectors are int too; Fraction enters with the class
weights, the leading division and the final division by the root of the
norm product (_finish).
Fillings are orthogonalized in one place, one weight space at a time
(_weight_space): entry p is the vector kept from filling p.  That is
exact because the Gram–Schmidt is graded, so a weight's vectors do not
depend on the others, and because the module index (_module_index)
asserts that the admissible fillings are as many as the module's
dimension, so, spanning the module, none is dropped.  Exact and leading
requests build only the weight spaces they read; Monte Carlo reads the
whole basis (_build_irrep_basis), the merge of every weight space by
filling position.
Sampled entries come from one kernel (rho_matrix) that takes a matrix or
a stack of them and builds only the columns asked for; Monte Carlo asks
it once per module and block of draws.
A product of entries is a product of brackets of basis vectors, as a
matrix-entry monomial is of degree-one ones, so the monomial engine
integrates both (moments._bracket_integral), exact or leading-order,
before the norms divide.  Every mode passes one build gate (BUILD_CAP)
before any basis is built, and the engine's match-work gate before any
match vector.
"""

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import moments, sampling, tableaux
from .tensors import (
    BilinearForm,
    CostGateError,
    SparseTensor,
    _trace_part,
    _weight,
    gram_schmidt,
    orthogonal_form,
    permute,
    symplectic_form,
    young_symmetrizer,
)

# work units (see _build_work) the module bases of one request, in every
# mode, may cost: U(42) lambda=(2,1), just under it, builds cold in about
# 0.8 s on a 2-core host, O(12) lambda=(2,1) in 0.05 s; tall O/Sp shapes
# under it take longer, O(5) lambda=(2,1,1,1) about 4 s
BUILD_CAP = 10 ** 5


@dataclass
class IrrepBasis:
    group: str
    lam: tuple
    n: int
    vectors: list       # orthogonal primitive int tensors, tableau order
    norms2: list        # int norm-squares, parallel to vectors
    tableaux: list      # the fillings, for labeling
    form: BilinearForm | None

    @property
    def rank(self) -> int:
        return len(self.vectors)

    @property
    def weight(self) -> int:
        return tableaux.weight(self.lam)

    @functools.cached_property
    def float_vectors(self) -> np.ndarray:
        """The basis as unit complex rows (rank, d^m), each a flattened
        tensor, for sampled entries."""
        pos = _letter_positions(self)
        out = np.zeros((self.rank, len(pos) ** self.weight), dtype=complex)
        for row, vec, n2 in zip(out, self.vectors, self.norms2):
            for idx, c in vec.data.items():
                flat = 0
                for x in idx:
                    flat = flat * len(pos) + pos[x]
                row[flat] = float(c)
            row /= np.sqrt(float(n2))
        return out


def build_irrep_basis(group: str, lam, n: int) -> IrrepBasis:
    return _build_irrep_basis(group, tableaux.check_shape(lam), n)


@dataclass(frozen=True)
class ModuleIndex:
    """The admissible fillings of one module as row-major entry tuples in
    tableau order, each with its torus weight and its slot among the
    fillings of that weight, and per weight the positions of its fillings;
    the filling count is the module's dimension (_module_index), so entry
    p of the basis is built from filling p."""
    words: tuple
    weights: tuple
    slots: tuple
    by_weight: dict  # weight -> filling positions, ascending
    form: BilinearForm | None

    @property
    def rank(self) -> int:
        return len(self.words)


@functools.lru_cache(maxsize=128)
def _module_index(group: str, lam: tuple, n: int) -> ModuleIndex:
    if group == "U":
        if len(lam) > n:
            raise ValueError(f"shape {lam} has more rows than GL({n}) letters")
        form, dim = None, tableaux.gl_dimension(lam, n)
    elif group == "O":
        form, dim = orthogonal_form(n), tableaux.o_dimension(lam, n)
    elif group == "Sp":
        form, dim = symplectic_form(n), tableaux.sp_dimension(lam, n)
    else:
        raise ValueError(f"no irrep basis for group tag {group!r}")
    words = tableaux.admissible_words(group, lam, n)
    assert len(words) == dim, (
        f"{group}({n}) module {lam}: {len(words)} fillings for dimension {dim}")
    weights = tuple(_weight(w) for w in words)
    by_weight, slots = {}, []
    for p, w in enumerate(weights):
        positions = by_weight.setdefault(w, [])
        slots.append(len(positions))
        positions.append(p)
    return ModuleIndex(tuple(words), weights, tuple(slots), by_weight, form)


# a module the build gate admits has at most BUILD_CAP fillings (its work
# counts them), so at most that many weights: no build evicts its own
# weight spaces, and the spaces of one request's modules all stay cached
@functools.lru_cache(maxsize=BUILD_CAP)
def _weight_space(group: str, lam: tuple, n: int, weight: tuple) -> list:
    """The kept (word, weight, vector, norm²) of gram_schmidt over the
    fillings of one weight, in order: each filling's symmetrized tensor,
    for O/Sp a positive integer multiple of its traceless part,
    D t0 = D t - D t1, in one pass over t and one over D t1.  None is
    dropped: the fillings of all weights are as many as the dimension and
    span the module."""
    index = _module_index(group, lam, n)
    sym = young_symmetrizer(lam)
    form = index.form

    def candidate(word):
        s = permute(sym, SparseTensor.elementary(word))
        if form is None:
            return s
        d, t1 = _trace_part(s, form, weight)
        out = SparseTensor(s.order)
        out.data = {idx: d * c for idx, c in s.data.items()}
        for idx, c in t1.data.items():
            out.add_term(idx, -c)
        return out

    words = [index.words[p] for p in index.by_weight[weight]]
    kept = gram_schmidt((w, candidate(w)) for w in words)
    assert len(kept) == len(words), (
        f"{group}({n}) module {lam}: {len(words) - len(kept)} dependent fillings "
        f"of weight {weight}")
    return kept


@functools.lru_cache(maxsize=128)
def _build_irrep_basis(group: str, lam: tuple, n: int) -> IrrepBasis:
    """The merge of the module's weight spaces, by filling position."""
    index = _module_index(group, lam, n)
    spaces = {w: _weight_space(group, lam, n, w) for w in index.by_weight}
    kept = [spaces[w][slot] for w, slot in zip(index.weights, index.slots)]
    return IrrepBasis(group, lam, n, [v for _, _, v, _ in kept], [n2 for *_, n2 in kept],
                      tableaux._as_tableaux(lam, index.words), index.form)


def _basis_entry(group: str, lam: tuple, n: int, p: int) -> tuple:
    """(vector, norm²) of entry p (1-based) of the module basis, from the
    one weight space that holds it."""
    index = _module_index(group, lam, n)
    _, _, vector, n2 = _weight_space(group, lam, n, index.weights[p - 1])[index.slots[p - 1]]
    return vector, n2


# ---------------------------------------------------------------------------
# sampled representation matrices

def _letter_positions(basis: IrrepBasis) -> dict:
    if basis.form is None:
        return {x: x - 1 for x in range(1, basis.n + 1)}
    return {x: k for k, x in enumerate(basis.form.letters)}

def _split_transition(n: int) -> np.ndarray:
    """Columns express the paired complex letters through the real basis:
    letter -i = (e_{2i-1} + i e_{2i})/sqrt2, +i = (e_{2i-1} - i e_{2i})/sqrt2,
    0 = e_n for odd n."""
    form = orthogonal_form(n)
    s = np.zeros((n, n), dtype=complex)
    for k, x in enumerate(form.letters):
        if x == 0:
            s[n - 1, k] = 1.0
        else:
            i = abs(x)
            sign = 1.0 if x < 0 else -1.0
            s[2 * i - 2, k] = 1.0 / np.sqrt(2.0)
            s[2 * i - 1, k] = sign * 1j / np.sqrt(2.0)
    return s


def _action_matrix(basis: IrrepBasis, u: np.ndarray) -> np.ndarray:
    if basis.group == "O":
        s = _split_transition(basis.n)
        return s.conj().T @ u.astype(complex) @ s
    return u.astype(complex)


def _apply_modes(act: np.ndarray, vecs: np.ndarray, m: int) -> np.ndarray:
    """act^(x)m applied to each row of vecs (k, d^m), for each matrix of
    the stack act (size, d, d): (size, k, d^m).  Each pass acts on the
    last tensor mode and rotates it to the front, so after m passes every
    mode is acted on once and the modes are back in order."""
    size, d = act.shape[0], act.shape[-1]
    k = vecs.shape[0]
    w = np.broadcast_to(vecs, (size,) + vecs.shape)
    act_t = act.swapaxes(-1, -2)
    for _ in range(m):
        w = (w.reshape(size, -1, d) @ act_t).reshape(size, k, -1, d)
        w = w.swapaxes(-1, -2).reshape(size, k, -1)
    return w


def rho_matrix(u, basis: IrrepBasis, cols=None) -> np.ndarray:
    """Representation matrix of u in the orthonormalized tableau basis, or
    of each matrix of a stack u (size, d, d); with cols, a list of 1-based
    column numbers, each an int in 1..rank, only those columns, in that
    order.

    Column j is u^(x)m applied to b_j along the m tensor modes, then
    contracted with every conj(b_i); no other column is computed.
    """
    mat = np.asarray(u.matrix if hasattr(u, "matrix") else u)
    d = sampling.dimension(basis.group, basis.n)
    if mat.ndim not in (2, 3) or mat.shape[-2:] != (d, d):
        raise ValueError(f"sample is {mat.shape}, module needs {(d, d)}")
    act = _action_matrix(basis, mat.reshape(-1, d, d))
    vecs = basis.float_vectors
    cols = range(1, basis.rank + 1) if cols is None else list(cols)
    if not all(isinstance(j, (int, np.integer)) and 1 <= j <= basis.rank for j in cols):
        raise ValueError(f"columns {cols} are not all ints in 1..{basis.rank}")
    w = _apply_modes(act, vecs[[j - 1 for j in cols]], basis.weight)
    out = (w @ vecs.conj().T).swapaxes(-1, -2)
    return out.reshape(mat.shape[:-2] + out.shape[1:])


# ---------------------------------------------------------------------------
# integral specs

@dataclass(frozen=True)
class RepFactor:
    lam: tuple
    row: int
    col: int
    conj: bool = False

    def __init__(self, lam, row, col, conj=False):
        object.__setattr__(self, "lam", tableaux.check_shape(lam))
        object.__setattr__(self, "row", tableaux.check_int(row, "row"))
        object.__setattr__(self, "col", tableaux.check_int(col, "col"))
        object.__setattr__(self, "conj", bool(conj))


@dataclass(frozen=True)
class RepMatrixElementSpec:
    group: str
    n: int
    factors: tuple

    def __init__(self, group, n, factors):
        if group not in ("U", "O", "Sp"):
            raise ValueError(f"unknown group tag {group!r}")
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "n", tableaux.check_int(n, "N"))
        object.__setattr__(self, "factors", tuple(
            f if isinstance(f, RepFactor) else RepFactor(*f) for f in factors))

    def to_dict(self) -> dict:
        return {"group": self.group, "N": self.n,
                "factors": [{"lambda": list(f.lam), "i": f.row, "j": f.col,
                             "conj": f.conj} for f in self.factors]}

    @classmethod
    def from_dict(cls, d: dict) -> "RepMatrixElementSpec":
        factors = []
        for f in moments._spec_factors(d):
            lam = moments._spec_key(f, "lambda")
            if not isinstance(lam, list):
                raise ValueError(f"lambda must be a list of integers, got {lam!r}")
            factors.append(RepFactor(
                tuple(tableaux.check_int(p, "a lambda part") for p in lam),
                *(tableaux.check_int(moments._spec_key(f, k), k) for k in ("i", "j")),
                moments._spec_conj(f)))
        return cls(moments._spec_key(d, "group"),
                   tableaux.check_int(moments._spec_key(d, "N"), "N"), factors)


def _check_entries(spec: RepMatrixElementSpec):
    """The module index of each factor, once its entry is checked to lie in
    the module; no basis is built."""
    out = []
    for f in spec.factors:
        index = _module_index(spec.group, f.lam, spec.n)
        if not (1 <= f.row <= index.rank and 1 <= f.col <= index.rank):
            raise ValueError(
                f"entry ({f.row},{f.col}) outside rank-{index.rank} module {f.lam}")
        out.append(index)
    return out


def _bases_for(spec: RepMatrixElementSpec):
    _check_entries(spec)
    return [build_irrep_basis(spec.group, f.lam, spec.n) for f in spec.factors]


def integrate_irrep_mc(spec: RepMatrixElementSpec, samples: int, seed: int):
    """Monte Carlo estimate over stacked Haar draws: one rho_matrix call per
    module and block, for the columns its factors read; refused past
    sampling.MC_CAP or BUILD_CAP before any basis is built."""
    _gate_build(spec)
    d = sampling.dimension(spec.group, spec.n)
    sampling.check_cost(
        "Monte Carlo", samples,
        1 + d * d + sum(d ** tableaux.weight(f.lam) for f in spec.factors),
        sampling.MC_CAP)
    modules = {}  # lam -> (basis, {column: its place among the sampled ones})
    for f, basis in zip(spec.factors, _bases_for(spec)):
        _, cols = modules.setdefault(f.lam, (basis, {}))
        cols.setdefault(f.col, len(cols))

    def draw(stream, size):
        u = sampling.sample_group(spec.group, spec.n, stream, size)
        rho = {lam: rho_matrix(u, basis, list(cols))
               for lam, (basis, cols) in modules.items()}
        val = np.ones(size, dtype=complex)
        for f in spec.factors:
            entry = rho[f.lam][:, f.row - 1, modules[f.lam][1][f.col]]
            val *= entry.conj() if f.conj else entry
        return val

    return sampling.mc_expectation(draw, samples=samples, seed=seed)


# ---------------------------------------------------------------------------
# exact and leading-order integrals

def _brackets(spec: RepMatrixElementSpec) -> tuple:
    """(split, brackets, norm product): each factor is the bracket
    <b_i|u|b_j> of its basis vectors' terms, and the integral is that of
    the brackets (moments._bracket_integral) over sqrt(norm product).  The
    O and Sp modules live on the split alphabets, the U modules on 1..N.
    Only the weight spaces of the entries read are built (_basis_entry)."""
    _check_entries(spec)
    norms = 1
    brackets = []
    for f in spec.factors:
        (row, n_row), (col, n_col) = (_basis_entry(spec.group, f.lam, spec.n, p)
                                      for p in (f.row, f.col))
        norms *= n_row * n_col
        brackets.append((f.conj, row.data.items(), col.data.items()))
    return spec.group != "U", brackets, norms


def _finish(core: Fraction, norm_product: int) -> Fraction:
    if core == 0:
        return Fraction(0)
    root = _exact_sqrt(norm_product)
    if root is None:
        raise ValueError(
            "norm-square product is not a perfect square; the value is "
            f"core/sqrt({norm_product}) with core={core}")
    return core / root


def _exact_sqrt(x: int) -> int | None:
    r = math.isqrt(x)
    return r if r * r == x else None


def _build_work(group: str, lam: tuple, n: int) -> int:
    """Work units of one module basis build: the fillings, bounded by
    gl_dimension(lam, dim V), times the term bound prod lam_i! prod lam'_j!
    of the Young symmetrizer applied to each; for O/Sp also times
    C(m,2) dim V, the trace-span entries one lower index expands into,
    or 1 for a weight-1 module, which has no trace but still its fillings."""
    m = tableaux.weight(lam)
    if m > 64:  # checked first: the terms below take O(lam_1) steps
        raise CostGateError(
            f"module basis builds: a weight-{m} shape has a row or a column "
            f"of at least 9 boxes, so over 9! symmetrizer terms per filling; "
            f"capped at {BUILD_CAP} work units")
    d = sampling.dimension(group, n)
    terms = math.prod(math.factorial(k) for k in lam + tableaux.conjugate(lam))
    work = tableaux.gl_dimension(lam, d) * terms
    return work if group == "U" else work * max(1, math.comb(m, 2) * d)


def _gate_build(spec: RepMatrixElementSpec):
    """Refuse, before any enumeration or build, module bases whose summed
    work estimate exceeds BUILD_CAP."""
    work = sum(_build_work(spec.group, lam, spec.n)
               for lam in {f.lam for f in spec.factors})
    if work > BUILD_CAP:
        raise CostGateError(
            f"module basis builds: work estimate {work} exceeds the cap "
            f"{BUILD_CAP} for {spec.group}({spec.n})")


def _integral(spec: RepMatrixElementSpec, exact: bool) -> Fraction:
    _gate_build(spec)
    split, brackets, norms = _brackets(spec)
    return _finish(moments._bracket_integral(spec.group, spec.n, split, brackets, exact),
                   norms)


def integrate_irrep_exact(spec: RepMatrixElementSpec) -> Fraction:
    return _integral(spec, exact=True)


def asymptotic_irrep(spec: RepMatrixElementSpec) -> Fraction:
    """Leading-order value: the Weingarten weights collapse to the
    diagonal 1/D^q, leaving the permutation or pairing delta sums."""
    return _integral(spec, exact=False)
