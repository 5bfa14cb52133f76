"""Recursive scoring-game terms and structural predicates.

A term is ``{left options | score | right options}``.  Terms are immutable
and *interned*: option tuples are deduplicated and stored in a fixed total
order, and structurally identical terms are guaranteed to be the same
Python object.  ``identical`` is therefore an ``is`` check, and every
evaluation cache in the package can key on object identity.

Always build terms through :func:`game` and :func:`leaf`; calling the
``GameTerm`` constructor directly bypasses interning and breaks the
identity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import attrgetter
from typing import Container, Iterable, Iterator, Union

__all__ = [
    "Score",
    "Side",
    "NodePath",
    "PathError",
    "GameTerm",
    "as_score",
    "game",
    "leaf",
    "negate",
    "identical",
    "equivalent",
    "shift",
    "term_order_key",
    "subterm_at",
    "vertices",
    "is_termination_vertex",
    "max_abs_score",
    "render",
    "clear_caches",
]

#: Exact score: an int, or a Fraction in lowest terms with denominator > 1.
Score = Union[int, Fraction]


class Side(Enum):
    LEFT = "L"
    RIGHT = "R"

    def opposite(self) -> "Side":
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


#: Address of a vertex: steps of (side, option index) from the root.
NodePath = tuple[tuple[Side, int], ...]


class PathError(ValueError):
    """A node path does not address a vertex of the term."""


def as_score(value: Score) -> Score:
    """Normalize an exact score.

    Integers stay integers; a Fraction with denominator 1 collapses to an
    int so equal scores always have one representation.  Floats are
    rejected: scores must stay exact for outcome classification to be
    decidable.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise TypeError("scores are numbers, not booleans")
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"scores must be int or Fraction, got {value!r}")


def _score_key(s: Score) -> tuple[Score, int]:
    # 0 sorts before 1 before -1 before 2 ...: simplest score first, so
    # minimal search witnesses come out as the zero game when possible.
    return (abs(s), 0 if s >= 0 else 1)


@dataclass(frozen=True, eq=False, repr=False)
class GameTerm:
    """An immutable scoring-game term ``{left | score | right}``.

    ``left`` and ``right`` are deduplicated tuples in term order.  ``okey``
    is the cached total-order key (see :func:`term_order_key`); ``depth``
    and ``node_count`` are the usual tree measures (a leaf has depth 0 and
    one node).  Equality and hashing are by object identity, which
    interning makes coincide with structural identity.
    """

    left: tuple["GameTerm", ...]
    score: Score
    right: tuple["GameTerm", ...]
    depth: int = field(compare=False)
    node_count: int = field(compare=False)
    okey: tuple = field(compare=False)
    sl: Score = field(compare=False)
    sr: Score = field(compare=False)

    def __repr__(self) -> str:
        return f"GameTerm({render(self)})"

    @property
    def is_leaf(self) -> bool:
        return not self.left and not self.right


_interned: dict[tuple, GameTerm] = {}


def _canon_options(options: Iterable[GameTerm]) -> tuple[GameTerm, ...]:
    opts = tuple(options)
    for o in opts:
        if not isinstance(o, GameTerm):
            raise TypeError(f"options must be GameTerm, got {o!r}")
    if len(opts) < 2:  # leaves and chains: already canonical
        return opts
    # dict preserves first-seen order; interning makes duplicates identical
    return tuple(sorted(dict.fromkeys(opts), key=_okey))


_okey = attrgetter("okey")


def game(
    left: Iterable[GameTerm] = (),
    score: Score = 0,
    right: Iterable[GameTerm] = (),
) -> GameTerm:
    """Construct (or fetch) the interned term {left | score | right}."""
    lt = _canon_options(left)
    s = as_score(score)
    rt = _canon_options(right)
    key = (lt, s, rt)
    term = _interned.get(key)
    if term is None:
        opts = lt + rt
        depth = 1 + max((o.depth for o in opts), default=-1)
        nodes = 1 + sum(o.node_count for o in opts)
        okey = (
            nodes,
            _score_key(s),
            tuple(o.okey for o in lt),
            tuple(o.okey for o in rt),
        )
        sl = max([o.sr for o in lt]) if lt else s
        sr = min([o.sl for o in rt]) if rt else s
        term = GameTerm(lt, s, rt, depth, nodes, okey, sl, sr)
        _interned[key] = term
    return term


def leaf(score: Score) -> GameTerm:
    """The game {.|score|.} with no options for either player."""
    return game((), score, ())


def term_order_key(g: GameTerm) -> tuple:
    """Total-order key: equal keys iff identical terms.

    Orders by node count, then score (simplest first), then recursively by
    options.  Used to store option sets canonically and to pick
    deterministic minimal witnesses.
    """
    return g.okey


def identical(g: GameTerm, h: GameTerm) -> bool:
    """Same game tree, usually written G ≅ H; an ``is`` check here."""
    return g is h


_negate_cache: dict[GameTerm, GameTerm] = {}


def negate(g: GameTerm) -> GameTerm:
    """Swap the players: -G = {-right | -score | -left}, recursively."""
    res = _negate_cache.get(g)
    if res is None:
        res = game(
            (negate(o) for o in g.right),
            -g.score,
            (negate(o) for o in g.left),
        )
        _negate_cache[g] = res
    return res


def shift(g: GameTerm, c: Score) -> GameTerm:
    """Add c to every vertex score (test helper for translation laws)."""
    c = as_score(c)
    if c == 0:
        return g
    return game(
        (shift(o, c) for o in g.left),
        g.score + c,
        (shift(o, c) for o in g.right),
    )


def subterm_at(g: GameTerm, path: NodePath) -> GameTerm:
    """The vertex addressed by path, or PathError."""
    node = g
    for n, (side, index) in enumerate(path):
        if not isinstance(side, Side):
            raise PathError(f"step {n}: side must be Side, got {side!r}")
        options = node.left if side is Side.LEFT else node.right
        if not 0 <= index < len(options):
            raise PathError(
                f"step {n}: no {side.name.lower()} option {index} "
                f"at {render(node)}"
            )
        node = options[index]
    return node


def vertices(g: GameTerm) -> Iterator[tuple[NodePath, GameTerm]]:
    """All (path, vertex) pairs of the game tree, preorder."""
    stack: list[tuple[NodePath, GameTerm]] = [((), g)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for side, options in ((Side.RIGHT, node.right), (Side.LEFT, node.left)):
            for i in reversed(range(len(options))):
                stack.append((path + ((side, i),), options[i]))


def is_termination_vertex(g: GameTerm, path: NodePath = ()) -> bool:
    """True iff play of some sum can end at this vertex.

    A vertex where both players still have options can never end a sum
    under the long rule, so termination vertices are exactly those missing
    options for at least one player.
    """
    v = subterm_at(g, path)
    return not v.left or not v.right


def _postorder(g: GameTerm, done: Container[GameTerm]) -> list[GameTerm]:
    """Subterms of g not in ``done``, each once, children before parents.

    Walks an explicit stack, so depth costs no Python recursion.
    """
    order: list[GameTerm] = []
    seen: set[GameTerm] = set()
    stack = [g]
    while stack:
        t = stack[-1]
        if t in seen or t in done:
            stack.pop()
            continue
        pending = [o for o in t.left + t.right if o not in seen and o not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        seen.add(t)
        order.append(t)
    return order


#: Class ids by (termination score or None, sorted left and right ids).
#: Never cleared: a reused id would make unrelated games equivalent.
_class_ids: dict[tuple, int] = {}
_esig_cache: dict[GameTerm, int] = {}


def _esig(g: GameTerm) -> int:
    """Equivalence class id: equal for two games iff they are ``equivalent``.

    A vertex's key forgets its score unless it is a termination vertex,
    and sorts its children's ids, so equal keys quantify over option
    matchings; keys are interned to ints children first.
    """
    cid = _esig_cache.get(g)
    if cid is None:
        for t in _postorder(g, _esig_cache):
            key = (
                t.score if not t.left or not t.right else None,
                tuple(sorted([_esig_cache[o] for o in t.left])),
                tuple(sorted([_esig_cache[o] for o in t.right])),
            )
            _esig_cache[t] = _class_ids.setdefault(key, len(_class_ids))
        cid = _esig_cache[g]
    return cid


def equivalent(g: GameTerm, h: GameTerm) -> bool:
    """Same underlying tree with equal scores at all termination vertices.

    The score at a vertex where both players still have options is
    ignored; such a vertex can never end a sum, so its score never reaches
    a final tally.
    """
    return g is h or _esig(g) == _esig(h)


def max_abs_score(g: GameTerm) -> Score:
    """Largest |score| over all vertices of the game tree.

    Each distinct subterm is visited once, so the cost is linear in the
    shared DAG, not the tree, and depth costs no Python recursion.
    """
    return max([abs(t.score) for t in _postorder(g, ())])


def render(g: GameTerm, full: bool = False) -> str:
    """Bracket notation; compact writes a leaf as its bare score.

    Each distinct subterm is rendered once, children before parents, from
    an explicit stack, so a shared subterm costs one string however often
    it is printed and depth costs no Python recursion.  A subterm's string
    is dropped once its last parent has used it.
    """
    if not g.left and not g.right:
        return f"{{.|{g.score}|.}}" if full else str(g.score)
    # Post-order over distinct subterms, counting the uses of each.
    # Leaves have no children, so they go to the order when first met.
    uses = {g: 1}
    order = []
    stack = [(g, iter(g.left + g.right))]
    while stack:
        t, children = stack[-1]
        for o in children:
            if o in uses:
                uses[o] += 1
                continue
            uses[o] = 1
            if o.left or o.right:
                stack.append((o, iter(o.left + o.right)))
                break
            order.append(o)
        else:
            stack.pop()
            order.append(t)
    text: dict[GameTerm, str] = {}
    for t in order:
        left, right = t.left, t.right
        if not left and not right:
            text[t] = f"{{.|{t.score}|.}}" if full else str(t.score)
            continue
        lt = ",".join([text[o] for o in left]) if left else "."
        rt = ",".join([text[o] for o in right]) if right else "."
        text[t] = f"{{{lt}|{t.score}|{rt}}}"
        for o in left + right:
            n = uses[o] - 1
            if n:
                uses[o] = n
            else:
                del text[o]
    return text[g]


def clear_caches() -> None:
    """Drop evaluation caches (not the intern or class-id tables).

    Caches are observationally transparent; this exists for tests and for
    long sessions that want to release memory.
    """
    from . import sums as _sums

    _negate_cache.clear()
    _esig_cache.clear()
    _sums.clear_sum_caches()
