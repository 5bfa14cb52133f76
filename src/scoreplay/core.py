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

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import total_ordering
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


#: Largest term, in tree nodes, that ``repr`` renders rather than sizes.
_REPR_MAX_NODES = 1_000


@total_ordering
@dataclass(frozen=True, eq=False, slots=True)
class GameTerm:
    """An immutable scoring-game term ``{left | score | right}``.

    ``left`` and ``right`` are deduplicated tuples in term order.  ``okey``
    is the flat order key, which is also the term's intern key (see
    :func:`term_order_key`); ``depth`` and ``node_count`` are the usual
    tree measures (a leaf has depth 0 and one node); ``sl`` and ``sr`` are
    the final scores.  Equality and hashing are by object identity, which
    interning makes coincide with structural identity, and slots leave a
    term no ``__dict__``.  So a term unpickles through ``game``, as the
    interned term, and a copy of it is itself.  Terms are ordered by
    ``<``, ``<=``, ``>`` and ``>=`` in term order, which is how two keys
    compare the first options in which they differ; as equality is
    identity, ``a <= b`` means ``a < b or a is b``.
    """

    left: tuple["GameTerm", ...]
    score: Score
    right: tuple["GameTerm", ...]
    depth: int
    node_count: int
    okey: tuple
    sl: Score
    sr: Score

    def __repr__(self) -> str:
        if self.node_count > _REPR_MAX_NODES:
            return f"GameTerm(<{self.node_count} nodes, depth {self.depth}>)"
        return f"GameTerm({render(self)})"

    def __reduce__(self):
        return game, (self.left, self.score, self.right)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, GameTerm):
            return NotImplemented
        if self.depth <= _SHALLOW or other.depth <= _SHALLOW:
            return self.okey < other.okey  # _less's answer, one frame less
        return _less(self, other)

    def __copy__(self) -> "GameTerm":
        return self

    def __deepcopy__(self, memo: dict) -> "GameTerm":
        return self

    @property
    def is_leaf(self) -> bool:
        return not self.left and not self.right


#: Depth past which ``_less`` follows a tie into options in a loop.
_SHALLOW = 32


def _less(a: GameTerm, b: GameTerm) -> bool:
    """True iff ``a`` comes before ``b`` in term order.

    Two keys that tie on their first three fields are decided by their
    first differing pair of options, as tuple comparison finds it.  While
    both terms are deeper than ``_SHALLOW``, that pair is found here and
    followed in a loop, so depth costs no recursion; below it the keys
    compare as tuples, recursing at most ``_SHALLOW`` levels.
    """
    while a.depth > _SHALLOW and b.depth > _SHALLOW:
        ka, kb = a.okey, b.okey
        if ka[:3] != kb[:3]:
            break
        x, y = (ka[3], kb[3]) if ka[3] != kb[3] else (ka[4], kb[4])
        pair = next(((p, q) for p, q in zip(x, y) if p is not q), None)
        if pair is None:  # one option tuple extends the other, or a is b
            return len(x) < len(y)
        a, b = pair
    return a.okey < b.okey


#: Every term by its ``okey``, which determines the term.
_interned: dict[tuple, GameTerm] = {}

#: Every memo that ``clear_caches`` empties, each registered by ``_cache``.
_caches: list[dict] = []


def _cache() -> dict:
    """A new memo dict, registered with ``clear_caches``."""
    cache: dict = {}
    _caches.append(cache)
    return cache


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
_depth = attrgetter("depth")
_nodes = attrgetter("node_count")
_sl = attrgetter("sl")
_sr = attrgetter("sr")


def game(
    left: Iterable[GameTerm] = (),
    score: Score = 0,
    right: Iterable[GameTerm] = (),
) -> GameTerm:
    """Construct (or fetch) the interned term {left | score | right}."""
    lt = _canon_options(left)
    s = as_score(score)
    rt = _canon_options(right)
    nodes = 1 + sum(map(_nodes, lt)) + sum(map(_nodes, rt))
    okey = (nodes, abs(s), s < 0, lt, rt)
    term = _interned.get(okey)
    if term is None:
        depth = 1 + max(map(_depth, lt + rt), default=-1)
        sl = max(map(_sr, lt)) if lt else s
        sr = min(map(_sl, rt)) if rt else s
        term = GameTerm(lt, s, rt, depth, nodes, okey, sl, sr)
        _interned[okey] = term
    return term


def leaf(score: Score) -> GameTerm:
    """The game {.|score|.} with no options for either player."""
    return game((), score, ())


def term_order_key(g: GameTerm) -> tuple:
    """Total-order key: equal keys iff identical terms.

    One flat tuple ``(node count, |score|, score < 0, left, right)``, whose
    last two fields are the term's own option tuples: by node count, then
    score (simplest first), then by options, which compare in the same
    order as terms (``GameTerm`` is orderable).  It is also the term's
    intern key.  Used to store option sets canonically and to pick
    deterministic minimal witnesses.
    """
    return g.okey


def identical(g: GameTerm, h: GameTerm) -> bool:
    """Same game tree, usually written G ≅ H; an ``is`` check here."""
    return g is h


_negate_cache: dict[GameTerm, GameTerm] = _cache()


def negate(g: GameTerm) -> GameTerm:
    """Swap the players: -G = {-right | -score | -left} at every vertex.

    Each distinct subterm is negated once, children first, from
    ``_postorder``, so depth costs no Python recursion.
    """
    res = _negate_cache.get(g)
    if res is None:
        for t in _postorder(g, _negate_cache):
            _negate_cache[t] = game(
                [_negate_cache[o] for o in t.right],
                -t.score,
                [_negate_cache[o] for o in t.left],
            )
        res = _negate_cache[g]
    return res


def shift(g: GameTerm, c: Score) -> GameTerm:
    """Add c to every vertex score (test helper for translation laws).

    Each distinct subterm is shifted once, so the cost follows the shared
    term, not the tree it spells out.
    """
    c = as_score(c)
    if c == 0:
        return g
    done: dict[GameTerm, GameTerm] = {}
    for t in _postorder(g, ()):
        done[t] = game(
            [done[o] for o in t.left], t.score + c, [done[o] for o in t.right]
        )
    return done[g]


def subterm_at(g: GameTerm, path: NodePath) -> GameTerm:
    """The vertex addressed by path, or PathError."""
    node = g
    for n, step in enumerate(path):
        if not isinstance(step, (tuple, list)) or len(step) != 2:
            raise PathError(f"step {n}: expected (side, index), got {step!r}")
        side, index = step
        if not isinstance(side, Side):
            raise PathError(f"step {n}: side must be Side, got {side!r}")
        if type(index) is not int:
            raise PathError(f"step {n}: index must be int, got {index!r}")
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
    """Subterms of g not in ``done``, each once, children before parents."""
    return _walk(g, done)[0]


def _walk(g: GameTerm, done: Container[GameTerm]) -> tuple[list, dict]:
    """``_postorder``'s order, and how many (parent, option) edges reach each.

    Options go Left then Right from a stack of option iterators, so depth
    costs no Python recursion; a leaf joins the order when first met.  A
    term in ``done`` is skipped, with whatever is reachable only through it.
    """
    if g in done:
        return [], {}
    uses = {g: 0}
    order: list[GameTerm] = []
    stack = [(g, iter(g.left + g.right))]
    while stack:
        t, children = stack[-1]
        for o in children:
            if o in uses:
                uses[o] += 1
            elif o not in done:
                uses[o] = 1
                if o.left or o.right:
                    stack.append((o, iter(o.left + o.right)))
                    break
                order.append(o)
        else:
            stack.pop()
            order.append(t)
    return order, uses


#: Class ids by (termination score or None, sorted left and right ids).
#: Never cleared: a reused id would make unrelated games equivalent.
_class_ids: dict[tuple, int] = {}
_esig_cache: dict[GameTerm, int] = _cache()


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

    Each distinct subterm is rendered once, in ``_postorder``'s order,
    so a shared subterm costs one string however often it is printed and
    depth costs no Python recursion.  A subterm's string is dropped once
    its last parent has used it, counted by the same walk.
    """
    if not g.left and not g.right:
        return f"{{.|{g.score}|.}}" if full else str(g.score)
    order, uses = _walk(g, ())
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
    """Empty every memo made by ``_cache``, universes among them; the
    intern and class-id tables stay.

    Caches are observationally transparent; this exists for tests and
    for long sessions that want to release memory.  A universe tuple a
    caller still holds keeps its context table.
    """
    for cache in _caches:
        cache.clear()
