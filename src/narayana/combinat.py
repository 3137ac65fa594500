"""Weighted Dyck paths, weighted plane trees, and the sign-reversing
involutions that prove the three Catalan/Narayana expansions.

Dyck paths are U/D strings.  A weighted Dyck path carries one tag per
up-step, left to right: 0 for weight 1, +1 for weight q, -1 for weight -q.
Decorated elements keep the tuple structure (base path plus insertions)
because flattening is not injective; weight sums run over the decorated
multiset while the involution acts on flattened paths.

Weighted plane trees are nested pairs (tag, children).  Tags: "1" unmarked
internal, "q"/"q2" leaf, "m1" marked unary -1, "mq" marked unary -q,
"mq2" marked unary -q^2, "2q" marked unary 2q (family Q only, treated as
transparent by the structural tests).
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from math import prod
from typing import Iterator, NamedTuple, Optional, Tuple

from .exact_core import QPolynomial, binomial
from .sequences import narayana_poly

DYCK_CAP = 12
FAMILY_D_CAP = 8
FAMILY_P_CAP = 9
FAMILY_Q_CAP = 8

_ONE_MINUS_Q = QPolynomial((1, -1), "q")


class EnumerationCapError(ValueError):
    """Requested size is beyond the enumeration cap (see NARAYANA_CAP)."""


class FixedElementError(ValueError):
    """An involution was applied to an element of its fixed set."""


def _cap(default: int) -> int:
    env = os.environ.get("NARAYANA_CAP")
    if not env:
        return default
    try:
        return max(default, int(env))
    except ValueError:
        raise ValueError(f"NARAYANA_CAP must be an integer, got {env!r}") from None


def _check_cap(n: int, default: int, what: str):
    cap = _cap(default)
    if n > cap:
        raise EnumerationCapError(
            f"{what}: n={n} exceeds cap {cap} (set NARAYANA_CAP to raise it)"
        )
    if n < 0:
        raise ValueError(f"{what}: negative n")


# -- Dyck paths ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _dyck_paths(n: int) -> Tuple[str, ...]:
    if n == 0:
        return ("",)
    out = []
    # first-return decomposition preserves lexicographic order with U < D
    def rec(prefix: str, ups: int, downs: int):
        if ups == 0 and downs == 0:
            out.append(prefix)
            return
        if ups > 0:
            rec(prefix + "U", ups - 1, downs)
        if downs > ups:
            rec(prefix + "D", ups, downs - 1)

    rec("", n, n)
    return tuple(out)


def enumerate_dyck(n: int) -> list:
    """All Dyck paths of semilength n, lexicographic with U < D."""
    _check_cap(n, DYCK_CAP, "enumerate_dyck")
    return list(_dyck_paths(n))


class WeightedDyckPath(NamedTuple):
    steps: str
    tags: Tuple[int, ...]  # one per up-step: 0 -> 1, +1 -> q, -1 -> -q


def path_weight(p: WeightedDyckPath) -> QPolynomial:
    """The signed monomial weight: product over up-step tags."""
    exponent = sum(1 for t in p.tags if t)
    sign = (-1) ** sum(1 for t in p.tags if t < 0)
    return QPolynomial.monomial(sign, exponent, "q")


def serialize_path(p: WeightedDyckPath) -> str:
    names = {0: "1", 1: "q", -1: "-q"}
    it = iter(p.tags)
    parts = []
    for s in p.steps:
        parts.append(f"U[{names[next(it)]}]" if s == "U" else "D")
    return "".join(parts)


class DecoratedDyckElement(NamedTuple):
    k: int
    base: str  # semilength k; peak up-steps carry weight q, others 1
    insertions: Tuple[str, ...]  # 2k+1 paths with n-k up-steps in total
    signs: Tuple[Tuple[int, ...], ...]  # per insertion: 0 (weight 1) or -1 (-q)


def _base_tags(base: str) -> Tuple[int, ...]:
    tags = []
    for i, s in enumerate(base):
        if s == "U":
            tags.append(1 if i + 1 < len(base) and base[i + 1] == "D" else 0)
    return tuple(tags)


def flatten(elem: DecoratedDyckElement) -> WeightedDyckPath:
    """Splice insertion i at the i-th endpoint of the base (1 = the start)."""
    base_tags = iter(_base_tags(elem.base))
    steps = []
    tags = []
    for i, (ins, sg) in enumerate(zip(elem.insertions, elem.signs)):
        steps.append(ins)
        tags.extend(sg)
        if i < len(elem.base):
            step = elem.base[i]
            steps.append(step)
            if step == "U":
                tags.append(next(base_tags))
    return WeightedDyckPath("".join(steps), tuple(tags))


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def iter_family_D(n: int, k: int) -> Iterator[DecoratedDyckElement]:
    if not 0 <= k <= n:
        return
    for base in _dyck_paths(k):
        for comp in _compositions(n - k, 2 * k + 1):
            for paths in product(*[_dyck_paths(m) for m in comp]):
                sign_spaces = [product((0, -1), repeat=m) for m in comp]
                for signs in product(*sign_spaces):
                    yield DecoratedDyckElement(k, base, paths, signs)


def enumerate_family_D(n: int, k: int) -> list:
    _check_cap(n, FAMILY_D_CAP, "enumerate_family_D")
    return list(iter_family_D(n, k))


def family_D_weight(n: int, k: int) -> QPolynomial:
    """Weight sum over the decorated family, by full enumeration."""
    _check_cap(n, FAMILY_D_CAP, "family_D_weight")
    counts = [0] * (n + 1)
    u = n - k
    for base in _dyck_paths(k):
        peaks = sum(_base_tags(base))
        for comp in _compositions(u, 2 * k + 1):
            n_tuples = 1
            for m in comp:
                n_tuples *= len(_dyck_paths(m))
            for _ in range(n_tuples):
                # each sign pattern is one decorated element
                for bits in range(1 << u):
                    j = bits.bit_count()
                    counts[peaks + j] += -1 if j & 1 else 1
    return QPolynomial(counts, "q")


def family_D_closed_form(n: int, k: int) -> QPolynomial:
    c = Fraction((2 * k + 1) * binomial(2 * n + 1, n - k), 2 * n + 1)
    return c * narayana_poly(k) * _ONE_MINUS_Q ** (n - k)


# -- the involution on weighted Dyck paths --------------------------------------


def phi(p: WeightedDyckPath) -> WeightedDyckPath:
    """Sign-reversing involution on weighted Dyck paths with some +-q weight.

    Recursive rule: in the rightmost primitive component holding a +-q
    weight, flip the sign of the first up-step if it is weighted +-q,
    otherwise recurse into the component's interior.
    """
    if all(t == 0 for t in p.tags):
        raise FixedElementError("phi is undefined on all-1-weighted paths")
    steps, tags = p.steps, list(p.tags)
    _phi_in_place(steps, tags, 0, len(steps), 0)
    return WeightedDyckPath(steps, tuple(tags))


def _phi_in_place(steps: str, tags: list, lo: int, hi: int, tag_lo: int):
    """Apply the flip inside steps[lo:hi]; tag_lo indexes its first up-step."""
    # locate primitive components and the tag range of each
    comps = []
    height = 0
    start, tstart, t = lo, tag_lo, tag_lo
    for i in range(lo, hi):
        if steps[i] == "U":
            height += 1
            t += 1
        else:
            height -= 1
        if height == 0:
            comps.append((start, i + 1, tstart, t))
            start, tstart = i + 1, t
    for si, sj, ti, tj in reversed(comps):
        if any(tags[x] for x in range(ti, tj)):
            if tags[ti]:
                tags[ti] = -tags[ti]
            else:
                # first up-step weighs 1: recurse into the interior u...d
                _phi_in_place(steps, tags, si + 1, sj - 1, ti + 1)
            return
    raise AssertionError("no component carries a +-q weight")


def dbar_elements(n: int) -> list:
    """The all-(+-q) subfamily: base (UD)^k with q-peaks, insertions all -q."""
    _check_cap(n, FAMILY_D_CAP, "dbar_elements")
    out = []
    for k in range(n + 1):
        base = "UD" * k
        for comp in _compositions(n - k, 2 * k + 1):
            for paths in product(*[_dyck_paths(m) for m in comp]):
                signs = tuple((-1,) * m for m in comp)
                out.append(flatten(DecoratedDyckElement(k, base, paths, signs)))
    return out


# -- plane trees -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _children_seqs(total: int) -> Tuple[tuple, ...]:
    """All ordered forests (tuples of shapes) with the given vertex total."""
    if total == 0:
        return ((),)
    out = []
    for first_size in range(1, total + 1):
        for first in _tree_shapes(first_size):
            for rest in _children_seqs(total - first_size):
                out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _tree_shapes(vertices: int) -> Tuple[tuple, ...]:
    """All plane tree shapes with the given vertex count; a shape is its
    tuple of child shapes."""
    if vertices < 1:
        return ()
    return _children_seqs(vertices - 1)


def _shape_unary_positions(shape: tuple) -> list:
    """Pre-order indices of non-root unary vertices."""
    positions = []
    counter = [0]

    def walk(node, is_root: bool):
        idx = counter[0]
        counter[0] += 1
        if len(node) == 1 and not is_root:
            positions.append(idx)
        for child in node:
            walk(child, False)

    walk(shape, True)
    return positions


def _shape_leaf_count(shape: tuple) -> int:
    if not shape:
        return 1
    return sum(_shape_leaf_count(c) for c in shape)


def _build_weighted(shape: tuple, marks: dict, leaf_tag: str):
    counter = [0]

    def walk(node):
        idx = counter[0]
        counter[0] += 1
        children = tuple(walk(c) for c in node)
        if not children:
            return (leaf_tag, ())
        return (marks.get(idx, "1"), children)

    return walk(shape)


_TAG_WEIGHTS = {
    "1": (1, 0),
    "q": (1, 1),
    "q2": (1, 2),
    "m1": (-1, 0),
    "mq": (-1, 1),
    "mq2": (-1, 2),
    "2q": (2, 1),
}

# What the P and Q families differ by; each tree-family function has one body
# that reads its row.
_FAMILY = {
    family: {"leaf": leaf, "neg": neg, "marks": marks, "transparent": transparent, "cap": cap,
             "leaf_weight": _TAG_WEIGHTS[leaf],
             "mark_weights": tuple(_TAG_WEIGHTS[t] for t in marks)}
    for family, leaf, neg, marks, transparent, cap in (
        ("P", "q", "mq", ("m1", "mq"), None, FAMILY_P_CAP),
        ("Q", "q2", "mq2", ("m1", "2q", "mq2"), "2q", FAMILY_Q_CAP),
    )
}


def tree_weight(t) -> QPolynomial:
    """Product of vertex weights: an integer coefficient times a power of q."""
    coeff, exponent = 1, 0
    stack = [t]
    while stack:
        tag, children = stack.pop()
        c, e = _TAG_WEIGHTS[tag]
        coeff *= c
        exponent += e
        stack.extend(children)
    return QPolynomial.monomial(coeff, exponent, "q")


def serialize_tree(t) -> str:
    tag, children = t
    if not children:
        return tag
    return tag + "(" + " ".join(serialize_tree(c) for c in children) + ")"


def _iter_family_trees(n: int, k: int, family: str) -> Iterator:
    info = _FAMILY[family]
    marks_needed = n - k
    for shape in _tree_shapes(n + 2):
        unary = _shape_unary_positions(shape)
        if len(unary) < marks_needed:
            continue
        for positions in combinations(unary, marks_needed):
            for tags in product(info["marks"], repeat=marks_needed):
                yield _build_weighted(shape, dict(zip(positions, tags)), info["leaf"])


def _enumerate_family(n: int, k: int, family: str) -> list:
    _check_cap(n, _FAMILY[family]["cap"], f"enumerate_family_{family}")
    if not 0 <= k <= n:
        return []
    return list(_iter_family_trees(n, k, family))


enumerate_family_P = partial(_enumerate_family, family="P")
enumerate_family_Q = partial(_enumerate_family, family="Q")


def _family_weight(n: int, k: int, family: str) -> QPolynomial:
    """Weight sum over a marked-tree family, by full enumeration."""
    info = _FAMILY[family]
    _check_cap(n, info["cap"], f"family_{family}_weight")
    if not 0 <= k <= n:
        return QPolynomial.zero("q")
    m = n - k
    # every choice of m unary positions takes the same m-fold mark products,
    # so tally those once: exponent -> summed coefficient
    marks = Counter()
    for tags in product(info["mark_weights"], repeat=m):
        marks[sum(e for _, e in tags)] += prod(c for c, _ in tags)
    leaf_coeff, leaf_exponent = info["leaf_weight"]
    counts = [0] * (leaf_exponent * (n + 2) + max(marks) + 1)
    for shape in _tree_shapes(n + 2):
        unary = _shape_unary_positions(shape)
        if len(unary) < m:
            continue
        leaves = _shape_leaf_count(shape)
        scale, base = leaf_coeff**leaves, leaf_exponent * leaves
        for _ in combinations(unary, m):
            for exponent, coeff in marks.items():
                counts[base + exponent] += scale * coeff
    return QPolynomial(counts, "q")


family_P_weight = partial(_family_weight, family="P")
family_Q_weight = partial(_family_weight, family="Q")


def family_P_closed_form(n: int, k: int) -> QPolynomial:
    minus_one_minus_q = QPolynomial((-1, -1), "q")
    return binomial(n, k) * narayana_poly(k + 1) * minus_one_minus_q ** (n - k)


def family_Q_closed_form(n: int, k: int) -> QPolynomial:
    q_squared = QPolynomial((0, 0, 1), "q")
    base = narayana_poly(k + 1).substitute(q_squared)
    sign = (-1) ** (n - k)
    return sign * binomial(n, k) * base * _ONE_MINUS_Q ** (2 * (n - k))


# -- fixed sets -------------------------------------------------------------------


@lru_cache(maxsize=None)
def _complete_binary_shapes(vertices: int) -> Tuple[tuple, ...]:
    if vertices % 2 == 0:
        return ()
    if vertices == 1:
        return ((),)
    out = []
    for left_size in range(1, vertices - 1, 2):
        for left in _complete_binary_shapes(left_size):
            for right in _complete_binary_shapes(vertices - 1 - left_size):
                out.append((left, right))
    return tuple(out)


def _fixed_set(n: int, family: str) -> list:
    """Fixed trees of psi: a root above a complete binary tree, with the
    family's transparent unary vertices (2q in Q, none in P) inserted into
    its edges."""
    info = _FAMILY[family]
    _check_cap(n, info["cap"], f"fixed_set_{family}")
    transparent = info["transparent"]
    out = []
    for k in range(n // 2 + 1):
        extra = n - 2 * k
        if extra and transparent is None:
            continue
        for shape in _complete_binary_shapes(2 * k + 1):
            # 2k+1 edges: the root edge plus the 2k edges of the subtree
            for comp in _compositions(extra, 2 * k + 1):
                out.append(_chained_tree((shape,), info["leaf"], transparent, iter(comp)))
    return out


def _chained_tree(shape: tuple, leaf: str, transparent, lengths):
    """Weight `shape`, with a chain of next(lengths) transparent unary
    vertices above each child, taken in pre-order."""
    if not shape:
        return (leaf, ())
    return ("1", tuple(
        _chain(transparent, next(lengths), _chained_tree(child, leaf, transparent, lengths))
        for child in shape
    ))


fixed_set_P = partial(_fixed_set, family="P")
fixed_set_Q = partial(_fixed_set, family="Q")


def _chain(tag: str, length: int, node):
    for _ in range(length):
        node = (tag, (node,))
    return node


def is_fixed_tree(t, family: str) -> bool:
    tag, children = t
    return len(children) == 1 and _is_complete(children[0], _FAMILY[family]["transparent"])


# -- the involution on weighted plane trees ----------------------------------------


def psi(t, family: str):
    """Sign-reversing involution on the marked-tree families.

    Case (a): if some non-root unary vertex weighs +-1, flip the sign of the
    first such vertex in pre-order.  Otherwise apply the recursive structural
    cases; for the Q family the 2q-weighted unary vertices are transparent:
    they are skipped by the complete-binary test and by the root-child chase,
    and are never toggled.
    """
    if family not in _FAMILY:
        raise ValueError(f"unknown family {family!r}")
    if is_fixed_tree(t, family):
        raise FixedElementError("psi is undefined on the fixed set")
    toggled = _toggle_first_unit_unary(t)
    if toggled is not None:
        return toggled
    return _psi_rec(t, family)


def _toggle_first_unit_unary(t):
    """Flip the first pre-order non-root unary vertex weighted 1 or -1."""

    def walk(node, is_root: bool):
        tag, children = node
        if not is_root and len(children) == 1 and tag in ("1", "m1"):
            return (("m1" if tag == "1" else "1"), children)
        for i, child in enumerate(children):
            new_child = walk(child, False)
            if new_child is not None:
                return (tag, children[:i] + (new_child,) + children[i + 1 :])
        return None

    return walk(t, True)


def _is_complete(t, transparent) -> bool:
    """Complete binary once unary vertices tagged `transparent` are skipped."""
    tag, children = t
    if not children:
        return True
    if len(children) == 2:
        return _is_complete(children[0], transparent) and _is_complete(children[1], transparent)
    if len(children) == 1 and tag == transparent:
        return _is_complete(children[0], transparent)
    return False


def _chase(t, transparent):
    """Skip a chain of transparent unary vertices; returns (chain length, core)."""
    chain = 0
    while len(t[1]) == 1 and t[0] == transparent:
        chain += 1
        t = t[1][0]
    return chain, t


def _rightmost_attach(t, subtree, family: str):
    """Attach `subtree` under the rightmost leaf, toggling its weight to -q."""
    tag, children = t
    if not children:
        return (_FAMILY[family]["neg"], (subtree,))
    new_last = _rightmost_attach(children[-1], subtree, family)
    return (tag, children[:-1] + (new_last,))


def _rightmost_path_nodes(t) -> list:
    """Nodes from the root of t down to its rightmost leaf, as index paths."""
    paths = [()]
    node = t
    while node[1]:
        paths.append(paths[-1] + (len(node[1]) - 1,))
        node = node[1][-1]
    return paths


def _node_at(t, path):
    for i in path:
        t = t[1][i]
    return t


def _replace_at(t, path, new_node):
    if not path:
        return new_node
    tag, children = t
    i = path[0]
    return (tag, children[:i] + (_replace_at(children[i], path[1:], new_node),) + children[i + 1 :])


def _psi_rec(t, family: str):
    info = _FAMILY[family]
    neg, leaf, transparent = info["neg"], info["leaf"], info["transparent"]
    tag, children = t

    if len(children) >= 2:
        first = children[0]
        if _is_complete(first, transparent):
            modified = _rightmost_attach(first, children[1], family)
            return (tag, (modified,) + children[2:])
        result = _psi_rec((tag, (first,)), family)
        return (result[0], result[1] + children[1:])

    # unary root
    chain, core = _chase(children[0], transparent)
    if len(core[1]) > 2:
        inner = _psi_rec(core, family)
        return (tag, (_chain(transparent, chain, inner),))

    # core has out-degree 1 or 2
    for path in _rightmost_path_nodes(core):
        node = _node_at(core, path)
        if node[0] == neg:
            detached = node[1][0]
            remainder = _replace_at(core, path, (leaf, ()))
            if _is_complete(remainder, transparent):
                return (tag, (_chain(transparent, chain, remainder), detached))
            break

    left, right = core[1]
    if not _is_complete(left, transparent):
        result = _psi_rec((core[0], (left,)), family)
        new_core = (result[0], result[1] + (right,))
    else:
        result = _psi_rec((core[0], (right,)), family)
        new_core = (result[0], (left,) + result[1])
    return (tag, (_chain(transparent, chain, new_core),))


# -- involution certificates --------------------------------------------------------


@dataclass
class InvolutionReport:
    family: str
    n: int
    size: int
    fixed_count: int
    certificates: dict
    total_weight: QPolynomial
    fixed_weight: QPolynomial
    pairs: list = field(default_factory=list)
    counterexample: Optional[str] = None

    @property
    def certified(self) -> bool:
        return all(self.certificates.values())


def _certify(family, n, elements, is_fixed, apply, weight, serialize, expected_fixed,
             collect_pairs=False):
    fixed = [e for e in elements if is_fixed(e)]
    moving = [e for e in elements if not is_fixed(e)]
    certs = {
        "multiset_closure": True,
        "self_inverse": True,
        "weight_reversal": True,
        "fixed_set_match": True,
        "total_weight": True,
    }
    counterexample = None
    pairs = []
    images = []
    seen_pairs = set()
    for e in moving:
        img = apply(e)
        images.append(img)
        if weight(img) != -weight(e):
            certs["weight_reversal"] = False
            counterexample = counterexample or serialize(e)
        if apply(img) != e:
            certs["self_inverse"] = False
            counterexample = counterexample or serialize(e)
        if collect_pairs:
            key = frozenset((serialize(e), serialize(img)))
            if key not in seen_pairs:
                seen_pairs.add(key)
                pairs.append((serialize(e), serialize(img)))
    if Counter(map(serialize, moving)) != Counter(map(serialize, images)):
        certs["multiset_closure"] = False
    if Counter(map(serialize, fixed)) != Counter(map(serialize, expected_fixed)):
        certs["fixed_set_match"] = False
    total = QPolynomial.zero("q")
    for e in elements:
        total = total + weight(e)
    fixed_weight = QPolynomial.zero("q")
    for e in expected_fixed:
        fixed_weight = fixed_weight + weight(e)
    if total != fixed_weight:
        certs["total_weight"] = False
    return InvolutionReport(
        family, n, len(elements), len(fixed), certs, total, fixed_weight,
        pairs=pairs, counterexample=counterexample,
    )


def involution_verify(family: str, n: int, collect_pairs: bool = False) -> InvolutionReport:
    """Run all five involution certificates over the full family at size n:
    multiset closure, elementwise self-inverse, weight reversal, fixed-set
    match, and total weight equal to the fixed-set weight."""
    if family == "D":
        _check_cap(n, FAMILY_D_CAP, "involution_verify(D)")
        elements = [
            flatten(e) for k in range(n + 1) for e in iter_family_D(n, k)
        ]
        expected_fixed = [
            WeightedDyckPath(p, (0,) * n) for p in _dyck_paths(n)
        ]
        return _certify(
            family, n, elements,
            is_fixed=lambda p: all(t == 0 for t in p.tags),
            apply=phi, weight=path_weight, serialize=serialize_path,
            expected_fixed=expected_fixed, collect_pairs=collect_pairs,
        )
    if family in ("P", "Q"):
        _check_cap(n, _FAMILY[family]["cap"], f"involution_verify({family})")
        elements = [
            t for k in range(n + 1) for t in _iter_family_trees(n, k, family)
        ]
        expected_fixed = fixed_set_P(n) if family == "P" else fixed_set_Q(n)
        return _certify(
            family, n, elements,
            is_fixed=lambda t: is_fixed_tree(t, family),
            apply=lambda t: psi(t, family), weight=tree_weight,
            serialize=serialize_tree,
            expected_fixed=expected_fixed, collect_pairs=collect_pairs,
        )
    raise ValueError(f"unknown family {family!r}")


def dbar_involution_check(n: int) -> InvolutionReport:
    """phi restricted to the all-(+-q) subfamily: no fixed points, total
    weight zero (the alternating Catalan-coefficient sum)."""
    if n < 1:
        raise ValueError("dbar_involution_check requires n >= 1")
    elements = dbar_elements(n)
    return _certify(
        "Dbar", n, elements,
        is_fixed=lambda p: all(t == 0 for t in p.tags),
        apply=phi, weight=path_weight, serialize=serialize_path,
        expected_fixed=[],
    )
