"""Weighted Dyck paths, weighted plane trees, and the sign-reversing
involutions that prove the three Catalan/Narayana expansions.

Dyck paths are U/D strings.  A weighted Dyck path carries one tag per
up-step, left to right: 0 for weight 1, +1 for weight q, -1 for weight -q.
Decorated elements (base path plus insertions) are family D's public form.
The involution acts on flattened paths; no two decorated elements of one
size flatten alike (checked by full enumeration for n <= 7).  D and its
all-(+-q) subfamily are enumerated flat, each insertion tuple's steps joined
once and zipped with all its sign patterns' tags; `flatten` stays as the
reference.  Inside the module a path is its plain (steps, tags) pair, as a
tree is its word (below); the public functions take either form.
phi reads each word's primitive components from a per-word cache.  The
weight sums of D, P and Q build no element: one tally of the m-fold mark
products, scaled by class counts.  D's count of insertion tuples is the
Lagrange coefficient [x^(n-k)] C(x)^(2k+1), read from `series._catalan_power`.

Weighted plane trees are nested pairs (tag, children) only at the public
boundary.  Tags: "1" unmarked internal, "q"/"q2" leaf, "m1" marked unary -1,
"mq" marked unary -q, "mq2" marked unary -q^2, "2q" marked unary 2q (family Q
only, treated as transparent by the structural tests).  Inside the module a
tree is its pre-order word (Lukasiewicz word): one flat tuple of shared
tokens, one per vertex in pre-order, each naming the vertex's tag and
out-degree.  Shapes are degree sequences, the fixed sets words; a family's
words at one choice of marked positions are one `product` over the shape's
cached unmarked word with the marks at those positions.  psi edits at most
two tokens, since a subtree is a slice and its rightmost leaf its last token.

Each family reaches the certifier as one chain of C iterators (D's zips,
P's and Q's products), no Python frame resumed per element, and a pair that
closes in the stream leaves no weight tally: its +w and -w cancel.
"""

from __future__ import annotations

import os
from collections import Counter, namedtuple
from collections.abc import Iterator
from functools import partial
from itertools import accumulate, chain, combinations, product, repeat
from math import prod

from . import identities, series
from .exact_core import QPolynomial, binomial, cached

DYCK_CAP = 12
FAMILY_D_CAP = 8
FAMILY_P_CAP = 9
FAMILY_Q_CAP = 8


class EnumerationCapError(ValueError):
    """Requested size is beyond its cap (see NARAYANA_CAP)."""


class FixedElementError(ValueError):
    """An involution was applied to an element of its fixed set."""


def _cap(default: int) -> int:
    env = os.environ.get("NARAYANA_CAP")
    if not env:
        return default
    try:
        cap = int(env)
    except ValueError:
        raise ValueError(f"NARAYANA_CAP must be an integer, got {env!r}") from None
    if cap < 0:
        raise ValueError(f"NARAYANA_CAP must be nonnegative, got {env!r}")
    return max(default, cap)


def _check_cap(n: int, default: int, what: str):
    cap = _cap(default)
    if n > cap:
        raise EnumerationCapError(
            f"{what}: n={n} exceeds cap {cap} (set NARAYANA_CAP to raise it)"
        )
    if n < 0:
        raise ValueError(f"{what}: negative n")


# -- Dyck paths ----------------------------------------------------------------


@cached
def _dyck_paths(n: int) -> tuple[str, ...]:
    if n == 0:
        return ("",)
    out = []
    # extend each prefix by U before D, so the paths come out in lexicographic
    # order with U < D
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


# tags: one per up-step: 0 -> 1, +1 -> q, -1 -> -q
WeightedDyckPath = namedtuple("WeightedDyckPath", "steps tags")


def _checked(p) -> tuple[str, tuple[int, ...]]:
    """p's (steps, tags), or a ValueError unless the steps are a Dyck word
    over U/D with one tag in {-1, 0, 1} per up-step."""
    steps, tags = p
    if not (isinstance(steps, str) and set(steps) <= {"U", "D"}
            and min(accumulate(1 if s == "U" else -1 for s in steps), default=0) >= 0
            and 2 * steps.count("U") == len(steps) == 2 * len(tags) and set(tags) <= {-1, 0, 1}):
        raise ValueError(f"not a weighted Dyck path: {p!r}")
    return steps, tuple(tags)


def _path_key(p) -> tuple[int, int]:
    """The weight as (coefficient, exponent): the product over up-step tags."""
    tags = p[1]
    return (-1) ** tags.count(-1), len(tags) - tags.count(0)


def path_weight(p) -> QPolynomial:
    """The signed monomial weight: product over up-step tags."""
    return QPolynomial.monomial(*_path_key(_checked(p)), "q")


def serialize_path(p) -> str:
    steps, tags = p
    names = {0: "U[1]", 1: "U[q]", -1: "U[-q]"}
    it = iter(tags)
    try:
        if len(tags) == steps.count("U"):
            return "".join([names[next(it)] if s == "U" else "D" for s in steps])
    except KeyError:  # a tag outside {-1, 0, 1}
        pass
    raise ValueError(f"not a weighted Dyck path: {p!r}")


# base: semilength k; peak up-steps carry weight q, others 1
# insertions: 2k+1 paths with n-k up-steps in total
# signs: per insertion: 0 (weight 1) or -1 (-q)
DecoratedDyckElement = namedtuple("DecoratedDyckElement", "k base insertions signs")


def _base_tags(base: str) -> tuple[int, ...]:
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


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The compositions of total into parts nonnegative parts, in lexicographic
    order: the gaps between parts - 1 bars chosen among total + parts - 1 slots."""
    slots = total + parts - 1
    for bars in combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


def iter_family_D(n: int, k: int) -> Iterator[DecoratedDyckElement]:
    if not 0 <= k <= n:
        return
    for base in _dyck_paths(k):
        for comp in _compositions(n - k, 2 * k + 1):
            tuples = product(*[_dyck_paths(m) for m in comp])
            signs = product(*[product((0, -1), repeat=m) for m in comp])
            yield from (DecoratedDyckElement(k, base, *e) for e in product(tuples, signs))


def _flat_paths(n: int, k: int, bases, signs) -> Iterator[tuple[str, tuple[int, ...]]]:
    """The flattened elements at (n, k) over `bases` (semilength k), each
    insertion up-step tagged from `signs`, in `iter_family_D` order:
    insertion i before base step i, so 2k + 1 insertions and 2k base steps
    fill 4k + 1 slots.  Each insertion tuple's steps are joined once, and one
    tag tuple per sign pattern, the base's peak tags at fixed cut points,
    serves every insertion tuple of the (base, composition): one chain of
    zips of (steps, tags) pairs, one zip per insertion tuple."""
    def zips():
        for base in bases:
            peaks = iter(_base_tags(base))
            fixed = [[(next(peaks),)] if step == "U" else [] for step in base]
            slots = [""] * (4 * k + 1)
            slots[1::2] = base
            for comp in _compositions(n - k, 2 * k + 1):
                spaces = []
                for m, tag in zip(comp, fixed):
                    spaces += [signs] * m + tag
                spaces += [signs] * comp[-1]
                tag_tuples = list(product(*spaces))
                for paths in product(*[_dyck_paths(m) for m in comp]):
                    slots[::2] = paths
                    yield zip(repeat("".join(slots)), tag_tuples)
    return chain.from_iterable(zips())


def _iter_flat_family_D(n: int, k: int) -> Iterator[tuple[str, tuple[int, ...]]]:
    """`flatten(e)`'s (steps, tags) for each e of `iter_family_D(n, k)`, in order."""
    return _flat_paths(n, k, _dyck_paths(k) if 0 <= k <= n else (), (0, -1))


def enumerate_family_D(n: int, k: int) -> list:
    _check_cap(n, FAMILY_D_CAP, "enumerate_family_D")
    return list(iter_family_D(n, k))


def _weight_sum(m: int, mark_weights, classes) -> QPolynomial:
    """The weight sum of a family whose elements carry m marks, each one of
    `mark_weights` as (coefficient, exponent): the m-fold mark products are
    tallied once, as exponent -> coefficient, and each class (offset, count)
    adds count * q^offset times that tally."""
    coeffs, exponents = zip(*mark_weights)
    marks = Counter()
    for cs, es in zip(product(coeffs, repeat=m), product(exponents, repeat=m)):
        marks[sum(es)] += prod(cs)
    total = Counter()
    for offset, count in classes:
        for exponent, coeff in marks.items():
            total[offset + exponent] += count * coeff
    return _tally_poly(total)


def family_D_weight(n: int, k: int) -> QPolynomial:
    """Weight sum over the decorated family: base paths enumerated, each
    weighing q^peaks and taking the same insertion tuples, whose n - k
    up-steps weigh 1 or -q each: [x^(n-k)] C(x)^(2k+1) of them."""
    _check_cap(n, FAMILY_D_CAP, "family_D_weight")
    if not 0 <= k <= n:
        return QPolynomial.zero("q")
    n_tuples = series._catalan_power(2 * k + 1, n - k)[n - k]
    return _weight_sum(
        n - k, ((1, 0), (-1, 1)), ((base.count("UD"), n_tuples) for base in _dyck_paths(k))
    )


family_D_closed_form = partial(identities.expansion_term, "D")


# -- the involution on weighted Dyck paths --------------------------------------


def _is_unweighted(p) -> bool:
    """Every up-step weighs 1: the fixed set of phi."""
    return not any(p[1])


@cached
def _components(steps: str) -> tuple[tuple[int, ...], ...]:
    """For each up-step of a Dyck word, the up-steps whose arches enclose it,
    outermost first and itself last; indices count up-steps from the start."""
    chains, open_arches = [], []
    for step in steps:
        if step == "U":
            open_arches.append(len(chains))
            chains.append(tuple(open_arches))
        else:
            open_arches.pop()
    return tuple(chains)


def phi(p) -> WeightedDyckPath:
    """Sign-reversing involution on weighted Dyck paths with some +-q weight.

    Recursive rule: in the rightmost primitive component holding a +-q weight,
    flip its first up-step if weighted +-q, else recurse into its interior; that
    is, flip the first +-q up-step among the arches enclosing the last one.
    """
    return WeightedDyckPath(*_phi(_checked(p)))


def _phi(p: tuple[str, tuple[int, ...]]) -> tuple[str, tuple[int, ...]]:
    """phi on an unchecked (steps, tags) pair."""
    steps, tags = p
    if not any(tags):
        raise FixedElementError("phi is undefined on all-1-weighted paths")
    last = len(tags) - 1
    while not tags[last]:
        last -= 1
    for i in _components(steps)[last]:
        if tags[i]:
            return steps, tags[:i] + (-tags[i],) + tags[i + 1:]


def dbar_elements(n: int) -> list:
    """The all-(+-q) subfamily: base (UD)^k with q-peaks, insertions all -q."""
    _check_cap(n, FAMILY_D_CAP, "dbar_elements")
    return [p for k in range(n + 1) for p in _flat_paths(n, k, ("UD" * k,), (-1,))]


# -- plane trees -----------------------------------------------------------------


@cached
def _children_seqs(total: int) -> tuple[tuple[int, ...], ...]:
    """All ordered forests with the given vertex total, each as the
    out-degrees of its vertices in pre-order, tree by tree."""
    if total == 0:
        return ((),)
    return tuple(
        first + rest
        for first_size in range(1, total + 1)
        for first in _tree_shapes(first_size)
        for rest in _children_seqs(total - first_size)
    )


@cached
def _tree_shapes(vertices: int) -> tuple[tuple[int, ...], ...]:
    """All plane tree shapes with the given vertex count, each as its
    out-degrees in pre-order: the root's, then its forest of children's (a
    forest of v vertices and e edges holds v - e trees)."""
    if vertices < 1:
        return ()
    return tuple((vertices - 1 - sum(f),) + f for f in _children_seqs(vertices - 1))


@cached
def _shape_tally(vertices: int) -> tuple[tuple[tuple[int, int], int], ...]:
    """How many shapes with the given vertex count have each (non-root unary
    count, leaf count)."""
    return tuple(Counter(
        (degrees[1:].count(1), degrees.count(0)) for degrees in _tree_shapes(vertices)
    ).items())


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


# A tree as a word: its vertices in pre-order, each one shared token, a small
# int that names the vertex's tag and out-degree.  Tokens are interned on first
# use, so a token's number means something only within one process; 0 and 1
# are the unary "1" and "m1" vertices, which psi's case (a) swaps.
_TOKENS = [("1", 1), ("m1", 1)]  # token -> (tag, out-degree)
_TOKEN_COEFFS = [1, -1]  # token -> its tag's weight coefficient
_TOKEN_EXPONENTS = [0, 0]  # token -> its tag's weight exponent
_TOKEN_IDS = {("1", 1): 0, ("m1", 1): 1}


def _token(tag: str, degree: int) -> int:
    token = _TOKEN_IDS.get((tag, degree))
    if token is None:
        token = _TOKEN_IDS[tag, degree] = len(_TOKENS)
        _TOKENS.append((tag, degree))
        coeff, exponent = _TAG_WEIGHTS.get(tag, (None, None))
        _TOKEN_COEFFS.append(coeff)
        _TOKEN_EXPONENTS.append(exponent)
    return token


def _word(t) -> tuple[int, ...]:
    """The pre-order word of a nested tree."""
    out = []
    stack = [t]
    while stack:
        tag, children = stack.pop()
        out.append(_token(tag, len(children)))
        stack.extend(reversed(children))
    return tuple(out)


def _tree(w):
    """The nested tree of a pre-order word, built bottom-up in reverse
    pre-order, so a vertex's children are on top of the stack, first child
    last pushed."""
    stack = []
    for token in reversed(w):
        tag, degree = _TOKENS[token]
        children = tuple(stack[-1:-degree - 1:-1])
        del stack[len(stack) - degree:]
        stack.append((tag, children))
    return stack[0]


def _word_key(w) -> tuple[int, int]:
    """The weight as (coefficient, exponent): the product of vertex weights."""
    coeff, exponent = 1, 0
    for token in w:
        coeff *= _TOKEN_COEFFS[token]
        exponent += _TOKEN_EXPONENTS[token]
    return coeff, exponent


def tree_weight(t) -> QPolynomial:
    """Product of vertex weights: an integer coefficient times a power of q."""
    return QPolynomial.monomial(*_word_key(_word(t)), "q")


def _serialize_word(w) -> str:
    parts = []
    due = []  # children still to write, per open vertex
    for token in w:
        tag, degree = _TOKENS[token]
        if degree:
            parts.append(tag + "(")
            due.append(degree)
            continue
        parts.append(tag)
        while due:
            due[-1] -= 1
            if due[-1]:
                parts.append(" ")
                break
            due.pop()
            parts.append(")")
    return "".join(parts)


def serialize_tree(t) -> str:
    return _serialize_word(_word(t))


@cached
def _shape_words(vertices: int, leaf: str) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """Each shape of `_tree_shapes(vertices)` as its unmarked word, leaves
    tagged `leaf` and the other vertices "1", with its non-root unary
    positions.  A word reads its tokens from one list indexed by degree."""
    tokens = [_token(leaf, 0)] + [_token("1", d) for d in range(1, vertices)]
    return tuple(
        (tuple(map(tokens.__getitem__, degrees)),
         tuple(i for i, d in enumerate(degrees) if i and d == 1))
        for degrees in _tree_shapes(vertices)
    )


def _iter_family_trees(n: int, k: int, family: str) -> Iterator[tuple[int, ...]]:
    """The words of the family at (n, k): one chain of a `product` per shape
    and choice of n - k marked unary positions, over the shape's tokens as
    1-tuples with the family's marks at those positions."""
    info = _FAMILY[family]
    marks = tuple(_token(mark, 1) for mark in info["marks"])

    def products():
        for template, unary in _shape_words(n + 2, info["leaf"]):
            slots = list(zip(template))
            for positions in combinations(unary, n - k):
                for position in positions:
                    slots[position] = marks
                yield product(*slots)
                for position in positions:
                    slots[position] = (template[position],)
    return chain.from_iterable(products())


def _enumerate_family(n: int, k: int, family: str) -> list:
    _check_cap(n, _FAMILY[family]["cap"], f"enumerate_family_{family}")
    if not 0 <= k <= n:
        return []
    return [_tree(w) for w in _iter_family_trees(n, k, family)]


enumerate_family_P = partial(_enumerate_family, family="P")
enumerate_family_Q = partial(_enumerate_family, family="Q")


def _family_weight(n: int, k: int, family: str) -> QPolynomial:
    """Weight sum over a marked-tree family: shapes tallied by their unary
    and leaf counts, the choices of marked positions counted and the mark
    products tallied once."""
    info = _FAMILY[family]
    _check_cap(n, info["cap"], f"family_{family}_weight")
    if not 0 <= k <= n:
        return QPolynomial.zero("q")
    leaf_coeff, leaf_exponent = info["leaf_weight"]
    # binom(unary, n - k) choices of the marked positions on each shape
    return _weight_sum(n - k, info["mark_weights"], (
        (leaf_exponent * leaves, shapes * binomial(unary, n - k) * leaf_coeff**leaves)
        for (unary, leaves), shapes in _shape_tally(n + 2)
    ))


family_P_weight = partial(_family_weight, family="P")
family_Q_weight = partial(_family_weight, family="Q")
family_P_closed_form = partial(identities.expansion_term, "P")
family_Q_closed_form = partial(identities.expansion_term, "Q")


# -- fixed sets -------------------------------------------------------------------


@cached
def _complete_binary_shapes(vertices: int) -> tuple[tuple[int, ...], ...]:
    """All complete binary tree shapes with the given vertex count, each as
    its out-degrees in pre-order: 2, the left subtree's, the right's."""
    if vertices % 2 == 0:
        return ()
    if vertices == 1:
        return ((0,),)
    return tuple(
        (2,) + left + right
        for left_size in range(1, vertices - 1, 2)
        for left in _complete_binary_shapes(left_size)
        for right in _complete_binary_shapes(vertices - 1 - left_size)
    )


def _fixed_words(n: int, family: str) -> Iterator[tuple[int, ...]]:
    """The words of psi's fixed trees at size n: a unary root above a complete
    binary tree, with a chain of the family's transparent unary vertices (2q
    in Q, none in P) above each of its vertices, the chain lengths taken in
    pre-order from each composition of the n - 2k spare vertices."""
    info = _FAMILY[family]
    transparent = info["transparent"]
    chain = _token(transparent, 1) if transparent else None
    root, binary, leaf = _token("1", 1), _token("1", 2), _token(info["leaf"], 0)
    for k in range(n // 2 + 1):
        extra = n - 2 * k
        if extra and transparent is None:
            continue
        for degrees in _complete_binary_shapes(2 * k + 1):
            core = [binary if d else leaf for d in degrees]
            for comp in _compositions(extra, 2 * k + 1):
                word = [root]
                for length, token in zip(comp, core):
                    word += [chain] * length
                    word.append(token)
                yield tuple(word)


def _fixed_set(n: int, family: str) -> list:
    _check_cap(n, _FAMILY[family]["cap"], f"fixed_set_{family}")
    return [_tree(w) for w in _fixed_words(n, family)]


fixed_set_P = partial(_fixed_set, family="P")
fixed_set_Q = partial(_fixed_set, family="Q")


def _is_complete(w, transparent) -> bool:
    """Complete binary once unary vertices tagged `transparent` are skipped,
    read off the tokens of a subtree's slice: no vertex has out-degree above
    2, and every unary one is transparent."""
    for token in w:
        tag, degree = _TOKENS[token]
        if degree > 2 or degree == 1 and tag != transparent:
            return False
    return True


def _is_fixed_word(w, family: str) -> bool:
    """Fixed by psi: a unary root above a complete binary tree."""
    return _TOKENS[w[0]][1] == 1 and _is_complete(w[1:], _FAMILY[family]["transparent"])


def is_fixed_tree(t, family: str) -> bool:
    if family not in _FAMILY:
        raise ValueError(f"unknown family {family!r}")
    return _is_fixed_word(_word(t), family)


# -- the involution on weighted plane trees ----------------------------------------


def psi(t, family: str):
    """Sign-reversing involution on the marked-tree families.

    Case (a): if some non-root unary vertex weighs +-1, flip the sign of the
    first such vertex in pre-order.  Otherwise apply the recursive structural
    cases; for the Q family the 2q-weighted unary vertices are transparent:
    they are skipped by the complete-binary test and by the root-child chase,
    and are never toggled.
    A tree that case (a) applies to is never fixed, so only the others are
    tested against the fixed set.
    """
    if family not in _FAMILY:
        raise ValueError(f"unknown family {family!r}")
    return _tree(_psi_word(_word(t), family))


def _toggle_word(w):
    """Flip the first pre-order non-root unary vertex weighted 1 or -1 (token
    0 or 1): one scan and one splice; None if there is none."""
    for i in range(1, len(w)):
        token = w[i]
        if token < 2:
            return w[:i] + (1 - token,) + w[i + 1:]
    return None


def _end(w, i: int) -> int:
    """The index just past the slice of the subtree rooted at w[i]."""
    due = 1  # subtrees still to be read
    while due:
        due += _TOKENS[w[i]][1] - 1
        i += 1
    return i


def _rightmost(w, i: int, tag: str):
    """The index of the first vertex tagged `tag` on the rightmost path down
    from w[i], or None: a vertex is on it when the subtrees read so far leave
    only its own due, so that it owns the rest of w[i]'s slice."""
    due = 0  # subtrees due after the current vertex's, within w[i]'s slice
    while due >= 0:
        current, degree = _TOKENS[w[i]]
        if not due and current == tag:
            return i
        due += degree - 1
        i += 1
    return None


def _psi_word(w, family: str):
    """psi on a word.  The structural cases walk down to a vertex x and edit
    two tokens.  Attach: x's first subtree is complete, so its rightmost leaf,
    its slice's last token, becomes a `neg` vertex, and x's next subtree, the
    slice after it, moves under it as x loses a child.  Detach, the inverse:
    the first `neg` vertex on the rightmost path of x's subtree below the
    transparent chain is made a leaf, and its subtree, the rest of that
    slice, becomes x's next child.  No other token moves."""
    toggled = _toggle_word(w)
    if toggled is not None:
        return toggled
    if _is_fixed_word(w, family):
        raise FixedElementError("psi is undefined on the fixed set")
    info = _FAMILY[family]
    neg, transparent = info["neg"], info["transparent"]
    # x with all its children, or (all_children False) x as unary over the
    # subtree at `child`, its other children left as they are
    x, child, all_children = 0, 1, True
    while True:
        if all_children and _TOKENS[w[x]][1] >= 2:
            end = _end(w, child)
            if _is_complete(w[child:end], transparent):
                return _retag(w, x, -1, end - 1, _token(neg, 1))
        core = child
        while _TOKENS[w[core]] == (transparent, 1):
            core += 1
        if _TOKENS[w[core]][1] > 2:
            x, child, all_children = core, core + 1, True
            continue
        cut = _rightmost(w, core, neg)
        if cut is not None and _is_complete(w[core:cut], transparent):
            return _retag(w, x, 1, cut, _token(info["leaf"], 0))
        # core is binary: go into its left subtree unless that is complete
        right = _end(w, core + 1)
        complete = _is_complete(w[core + 1:right], transparent)
        x, child, all_children = core, right if complete else core + 1, False


def _retag(w, x: int, shift: int, y: int, token: int):
    """w with x's out-degree shifted by `shift` and w[y] (y > x) made `token`."""
    tag, degree = _TOKENS[w[x]]
    return w[:x] + (_token(tag, degree + shift),) + w[x + 1:y] + (token,) + w[y + 1:]


# -- involution certificates --------------------------------------------------------


CERTIFICATES = (
    "multiset_closure", "self_inverse", "weight_reversal", "fixed_set_match", "total_weight",
)


class InvolutionReport:
    """One family's certificates at size n; compared and shown field by field."""

    def __init__(self, family: str, n: int, size: int, fixed_count: int, certificates: dict,
                 total_weight: QPolynomial, fixed_weight: QPolynomial,
                 pairs: list | None = None, counterexample: str | None = None,
                 failures: dict | None = None):
        self.family, self.n, self.size, self.fixed_count = family, n, size, fixed_count
        self.certificates = certificates
        self.total_weight, self.fixed_weight = total_weight, fixed_weight
        self.pairs = [] if pairs is None else pairs
        self.counterexample = counterexample
        # certificate -> failing elements (self_inverse, weight_reversal), entries
        # by which two multisets differ (multiset_closure, fixed_set_match), or
        # exponents at which the two weights differ (total_weight)
        self.failures = {} if failures is None else failures

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return f"InvolutionReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def certified(self) -> bool:
        return all(self.certificates.values())


def _misses(tally: Counter) -> int:
    """Entries by which a signed tally (one side +, the other -) is off zero."""
    return sum(map(abs, tally.values()))


def _tally_poly(tally: Counter) -> QPolynomial:
    """The polynomial of an exponent -> coefficient tally."""
    return QPolynomial([tally[x] for x in range(max(tally, default=-1) + 1)], "q")


def _certify(family, n, elements, is_fixed, apply, key, serialize, expected_fixed,
             collect_pairs=False):
    """The five certificates in one pass over `elements` (any iterable).

    `key(e)` is e's weight as an integer (coefficient, exponent); weights
    are tallied as exponent -> coefficient and become polynomials once, at
    the end.  The multisets compare the elements themselves, which is as
    strict as comparing their (injective) serialisations; `serialize` is
    only called for the counterexample and the pairs.

    Each pair {e, img} is worked once, by the member met first: it computes
    img = apply(e), key(img) and apply(img).  When both checks pass, img's
    count in `open_pairs` goes up by one (`elements` may repeat an element),
    and a later non-fixed occurrence of img counts one down: img passes both
    checks, so the two visits' +1/-1 in the closure and +w/-w in the total
    cancel.  Only fixed and failing elements are tallied.  A pair open at
    the end gets its partner back as apply(img), as its first visit did, and
    adds +partner, -img and the partner's weight per occurrence due, as the
    two visits would when img is fixed or not in the family.  So every
    result is that of visiting every element from its own end."""
    closure = Counter()  # failing elements +1, their images -1
    open_pairs = {}  # image -> occurrences still due
    fixed_match = Counter()  # fixed elements found +1, expected -1
    total, fixed_weight = Counter(), Counter()  # exponent -> coefficient
    size = fixed_count = self_inverse = weight_reversal = 0
    counterexample = None
    pairs, seen_pairs = [], set()
    for size, e in enumerate(elements, 1):
        if is_fixed(e):
            coeff, exponent = key(e)
            total[exponent] += coeff
            fixed_count += 1
            fixed_match[e] += 1
            continue
        due = open_pairs.pop(e, 0)
        if due:
            if due > 1:
                open_pairs[e] = due - 1
            continue
        coeff, exponent = key(e)
        img = apply(e)
        img_key = key(img)
        # weights are nonzero monomials, so equal keys <=> equal weights
        reversed_ok = img_key == (-coeff, exponent)
        try:
            inverse_ok = apply(img) == e
        except FixedElementError:  # e was sent onto the fixed set
            inverse_ok = False
        if reversed_ok and inverse_ok:
            open_pairs[img] = open_pairs.get(img, 0) + 1
        else:
            total[exponent] += coeff
            closure[e] += 1
            closure[img] -= 1
            weight_reversal += not reversed_ok
            self_inverse += not inverse_ok
            if not counterexample:
                counterexample = serialize(e)
        if collect_pairs:
            pair = frozenset((e, img))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                pairs.append((serialize(e), serialize(img)))
    for img, due in open_pairs.items():
        partner = apply(img)
        coeff, exponent = key(partner)
        closure[partner] += due
        closure[img] -= due
        total[exponent] += coeff * due
    for e in expected_fixed:
        fixed_match[e] -= 1
        coeff, exponent = key(e)
        fixed_weight[exponent] += coeff
    failures = {
        "multiset_closure": _misses(closure),
        "self_inverse": self_inverse,
        "weight_reversal": weight_reversal,
        "fixed_set_match": _misses(fixed_match),
        "total_weight": sum(total[x] != fixed_weight[x] for x in total.keys() | fixed_weight.keys()),
    }
    return InvolutionReport(
        family, n, size, fixed_count, {name: not failures[name] for name in CERTIFICATES},
        _tally_poly(total), _tally_poly(fixed_weight),
        pairs=pairs, counterexample=counterexample, failures=failures,
    )


def _involution(family: str):
    """The row of involution family D, P or Q: (cap, elements(n, k), is_fixed,
    apply, key, serialize, expected_fixed(n)).  Built per call, and P's and
    Q's closures look their functions up when called, so a module attribute
    replaced since import is what runs."""
    if family == "D":
        return (
            FAMILY_D_CAP, _iter_flat_family_D, _is_unweighted,
            _phi, _path_key, serialize_path, lambda n: zip(_dyck_paths(n), repeat((0,) * n)),
        )
    if family not in _FAMILY:
        raise ValueError(f"unknown family {family!r}")
    return (
        _FAMILY[family]["cap"], lambda n, k: _iter_family_trees(n, k, family),
        lambda w: _is_fixed_word(w, family), lambda w: _psi_word(w, family), _word_key,
        _serialize_word, lambda n: _fixed_words(n, family),
    )


def involution_verify(family: str, n: int, collect_pairs: bool = False) -> InvolutionReport:
    """Run all five involution certificates over the full family at size n:
    multiset closure, elementwise self-inverse, weight reversal, fixed-set
    match, and total weight equal to the fixed-set weight."""
    cap, elements, is_fixed, apply, key, serialize, expected_fixed = _involution(family)
    _check_cap(n, cap, f"involution_verify({family})")
    return _certify(
        family, n, chain.from_iterable(map(elements, repeat(n), range(n + 1))), is_fixed,
        apply, key, serialize, expected_fixed(n), collect_pairs,
    )


def dbar_involution_check(n: int) -> InvolutionReport:
    """phi restricted to the all-(+-q) subfamily: no fixed points, total
    weight zero (the alternating Catalan-coefficient sum)."""
    if n < 1:
        raise ValueError("dbar_involution_check requires n >= 1")
    _, _, is_fixed, apply, key, serialize, _ = _involution("D")
    return _certify("Dbar", n, dbar_elements(n), is_fixed, apply, key, serialize, [])


def serialized_family(family: str, n: int, ks) -> Iterator[str]:
    """The serialisations of the elements of family D, P or Q at size n, for
    each k of `ks` in turn.  The cap is checked on the call, before any
    element is built; the elements are then produced one at a time."""
    cap, elements, _, _, _, serialize, _ = _involution(family)
    _check_cap(n, cap, f"enumerate_family_{family}")
    return map(serialize, chain.from_iterable(map(elements, repeat(n), ks)))
