"""Canonical platform fingerprints and relabeling maps.

The cache key problem: two requests that describe *the same* scheduling
question must share one cache entry, even when their platforms differ by a
relabeling — a spider's legs listed in another order, a tree's nodes
numbered differently, a star's children permuted.  This module computes,
for every supported platform kind, a **canonical form**:

* a *fingerprint* — a SHA-256 digest that is invariant under relabeling
  (and only under relabeling: non-isomorphic platforms with identical
  ``(c, w)`` multisets get distinct digests, because structure is folded
  into the encoding);
* a *canonical representative* — one concrete platform object per
  isomorphism class, the instance the service actually solves; and
* the *relabel maps* between the request's processor keys and the
  canonical representative's, which let a cached canonical solution be
  re-expressed ("rebound") on any isomorphic request platform.

Per kind:

========  ==========================================================
Chain     the ``(c, w)`` sequence itself — a chain has no relabeling
          freedom, its order *is* its structure.
Star      children sorted by ``(c, w)``; the permutation is recorded.
Spider    legs sorted by their full ``(c, w)`` sequences; positions
          inside a leg are structural and stay fixed.
Tree      AHU-style canonical form: each subtree encodes to a string
          built from its ``(c, w)`` and the *sorted* encodings of its
          children, so any child reordering / node renumbering yields
          the same digest; canonical ids are assigned in preorder of
          the sorted encoding.  The digest also folds in
          :data:`TREE_ANSWER_VERSION`.
========  ==========================================================

Problem fingerprints fold the platform fingerprint together with the
question (kind, mode, ``n``, ``t_lim``) and the canonically-encoded
solver options.  ``warm_caps`` are deliberately **excluded**: they are a
performance hint that never changes the answer (the warm-started spider
bisection is bit-identical to the cold one).

Values are tokenised by *type and value* (``5`` ≠ ``5.0`` ≠ ``Fraction(5)``)
so the bit-exact replay guarantee survives the cache: a float platform
never serves an int platform's solution.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Hashable, Mapping

from ..core.types import ReproError
from ..platforms.chain import Chain
from ..platforms.spider import Spider
from ..platforms.star import Star
from ..platforms.tree import ROOT, Tree

#: Version of the tree solver's answers, folded into every tree
#: fingerprint (and into nothing else): bump it when tree answers change,
#: so store entries an older tree solver wrote miss instead of being
#: served.  2: the chain construction run on the tree, or the single
#: spider cover when it does better (before it: multi-round covering).
TREE_ANSWER_VERSION = 2

__all__ = [
    "CanonError",
    "CanonicalForm",
    "canonical_form",
    "platform_fingerprint",
    "problem_fingerprint",
    "repatch_fingerprint",
]


class CanonError(ReproError):
    """The object cannot be canonically fingerprinted (unsupported platform
    type, or options holding values with no canonical encoding) — such
    requests are solved directly, bypassing the cache."""


def _num_token(v: Any) -> str:
    """Type-tagged value token; distinct types never collide."""
    if isinstance(v, bool):  # bool is an int subclass; platforms reject it anyway
        return f"b{v}"
    if isinstance(v, int):
        return f"i{v}"
    if isinstance(v, float):
        return f"f{v.hex()}"
    if isinstance(v, Fraction):
        return f"q{v.numerator}/{v.denominator}"
    raise CanonError(f"no canonical token for {type(v).__name__} value {v!r}")


def _pair_token(c: Any, w: Any) -> str:
    return f"{_num_token(c)},{_num_token(w)}"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CanonicalForm:
    """A platform's fingerprint, canonical representative and relabel maps.

    ``to_canonical``/``from_canonical`` map *processor keys* (the keys a
    :class:`~repro.core.schedule.Schedule` addresses tasks by) between the
    original platform and the canonical one.  Isomorphic platforms share
    ``fingerprint`` and a structurally identical ``platform``; only the
    maps differ.
    """

    fingerprint: str
    platform: Any
    to_canonical: Mapping[Hashable, Hashable]
    from_canonical: Mapping[Hashable, Hashable]


def _canon_chain(chain: Chain) -> CanonicalForm:
    # a chain's processor order is structural: no freedom, identity maps
    enc = "chain|" + ";".join(
        _pair_token(c, w) for c, w in zip(chain.c, chain.w)
    )
    identity = {i: i for i in range(1, chain.p + 1)}
    return CanonicalForm(_digest(enc), chain, identity, identity)


def _canon_star(star: Star) -> CanonicalForm:
    # children sorted by value (token tie-break keeps 5 vs 5.0 stable)
    order = sorted(
        range(1, star.arity + 1),
        key=lambda i: (
            star.child(i).c, star.child(i).w,
            _pair_token(star.child(i).c, star.child(i).w),
        ),
    )
    canonical = Star(star.child(i) for i in order)
    enc = "star|" + ";".join(
        _pair_token(ch.c, ch.w) for ch in canonical
    )
    from_canon = {j: orig for j, orig in enumerate(order, start=1)}
    to_canon = {orig: j for j, orig in from_canon.items()}
    return CanonicalForm(_digest(enc), canonical, to_canon, from_canon)


def _canon_spider(spider: Spider) -> CanonicalForm:
    def leg_enc(leg: Chain) -> str:
        return ";".join(_pair_token(c, w) for c, w in zip(leg.c, leg.w))

    encs = {i: leg_enc(spider.leg(i)) for i in range(1, spider.arity + 1)}
    order = sorted(
        range(1, spider.arity + 1),
        key=lambda i: (
            [(c, w) for c, w in zip(spider.leg(i).c, spider.leg(i).w)],
            encs[i],
        ),
    )
    canonical = Spider(spider.leg(i) for i in order)
    enc = "spider|" + "&".join(encs[i] for i in order)
    from_canon: dict[Hashable, Hashable] = {}
    to_canon: dict[Hashable, Hashable] = {}
    for j, orig in enumerate(order, start=1):
        for pos in range(1, spider.leg(orig).p + 1):
            from_canon[(j, pos)] = (orig, pos)
            to_canon[(orig, pos)] = (j, pos)
    return CanonicalForm(_digest(enc), canonical, to_canon, from_canon)


def _canon_tree(tree: Tree) -> CanonicalForm:
    # AHU canonical encoding: a subtree's code is its (c, w) plus the
    # *sorted* codes of its children — invariant under any sibling
    # reordering and node renumbering, yet distinct for distinct shapes.
    # Each subtree code is collapsed to a digest, so the total encoding
    # work stays O(n log n) even on path-shaped trees, and the traversals
    # are iterative so deep trees cannot blow the recursion limit.
    enc: dict[int, str] = {}
    post_stack: list[tuple[int, bool]] = [(ROOT, False)]
    while post_stack:
        v, children_done = post_stack.pop()
        if not children_done:
            post_stack.append((v, True))
            post_stack.extend((child, False) for child in tree.children(v))
            continue
        kids = ",".join(sorted(enc[child] for child in tree.children(v)))
        if v == ROOT:
            enc[v] = f"R[{kids}]"
        else:
            enc[v] = _digest(
                f"({_pair_token(tree.latency(v), tree.work(v))}[{kids}])"
            )

    # canonical ids in preorder of the sorted encodings; the original id
    # only tie-breaks *equal* encodings (interchangeable subtrees), so the
    # canonical platform's structure is label-independent
    edges: list[tuple[int, int, Any, Any]] = []
    from_canon: dict[Hashable, Hashable] = {}
    to_canon: dict[Hashable, Hashable] = {}
    next_id = 1

    def sorted_children(v: int) -> list[int]:
        return sorted(tree.children(v), key=lambda x: (enc[x], x))

    pre_stack = [(child, ROOT) for child in reversed(sorted_children(ROOT))]
    while pre_stack:
        orig, canon_parent = pre_stack.pop()
        cid = next_id
        next_id += 1
        edges.append((canon_parent, cid, tree.latency(orig), tree.work(orig)))
        from_canon[cid] = orig
        to_canon[orig] = cid
        pre_stack.extend((child, cid) for child in reversed(sorted_children(orig)))
    canonical = Tree(edges)
    digest = _digest(f"tree|v{TREE_ANSWER_VERSION}|{enc[ROOT]}")
    return CanonicalForm(digest, canonical, to_canon, from_canon)


_CANONICALISERS = {
    Chain: _canon_chain,
    Star: _canon_star,
    Spider: _canon_spider,
    Tree: _canon_tree,
}


def canonical_form(platform: Any) -> CanonicalForm:
    """The canonical form of ``platform`` (see module docstring).

    The invariant is *per kind*: two Spiders that differ only by a leg
    permutation share a fingerprint; a Spider and the Tree spelling of the
    same shape do not (they answer through different solvers).

    The form is memoized on the platform *object* (platforms are immutable
    throughout the package): one request canonicalises once, no matter how
    many times the cache key and the rebind need it.
    """
    cached = getattr(platform, "_repro_canon_cache", None)
    if cached is not None:
        return cached
    for cls, fn in _CANONICALISERS.items():
        if isinstance(platform, cls):
            form = fn(platform)
            try:  # frozen dataclasses need the object.__setattr__ side door
                object.__setattr__(platform, "_repro_canon_cache", form)
            except (AttributeError, TypeError):  # slotted/exotic: skip memo
                pass
            return form
    raise CanonError(
        f"no canonicaliser for platform type {type(platform).__name__!r}"
    )


def platform_fingerprint(platform: Any) -> str:
    """Relabeling-invariant SHA-256 fingerprint of ``platform``."""
    return canonical_form(platform).fingerprint


def _encode_value(v: Any) -> str:
    """Deterministic encoding of an option value (primitives, lists, dicts)."""
    if v is None:
        return "n"
    if isinstance(v, str):
        return f"s{len(v)}:{v}"
    if isinstance(v, (bool, int, float, Fraction)):
        return _num_token(v)
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_encode_value(x) for x in v) + "]"
    if isinstance(v, Mapping):
        items = sorted((str(k), _encode_value(val)) for k, val in v.items())
        return "{" + ",".join(f"{k}={val}" for k, val in items) + "}"
    raise CanonError(
        f"option value {v!r} ({type(v).__name__}) has no canonical encoding"
    )


def problem_fingerprint(problem: Any, canon: CanonicalForm | None = None) -> str:
    """Content address of one solve request: platform fingerprint + the
    question + options.  ``warm_caps`` are excluded — they are
    a hint that never changes the answer.  Pass ``canon`` when the
    platform's canonical form is already at hand."""
    if canon is None:
        canon = canonical_form(problem.platform)
    parts = [
        "problem",
        canon.fingerprint,
        f"kind={problem.kind}",
        f"mode={problem.mode}",
        f"n={'n' if problem.n is None else _num_token(problem.n)}",
        f"tlim={'n' if problem.t_lim is None else _num_token(problem.t_lim)}",
        "opts=" + _encode_value(dict(problem.options)),
    ]
    return _digest("|".join(parts))


def repatch_fingerprint(problem: Any) -> str:
    """Content address of one *repatch* request (platform-delta + question).

    Unlike :func:`problem_fingerprint` this is **not** relabeling-invariant:
    a repatch answer's schedule lives on the mutated platform and is served
    verbatim (no rebind step exists for it), so a hit must match the request
    platform bit-for-bit.  The churn events ride in ``options["churn"]``
    and the base solve's options in ``options["base"]``, so the digest
    covers the full (platform, trace-prefix, repair-question) identity.
    """
    import json as _json

    try:
        plat = _json.dumps(problem.platform.to_dict(), sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise CanonError(f"platform is not JSON-encodable: {exc}") from exc
    parts = [
        "repatch",
        _digest(plat),
        f"kind={problem.kind}",
        f"n={'n' if problem.n is None else _num_token(problem.n)}",
        "opts=" + _encode_value(dict(problem.options)),
    ]
    return _digest("|".join(parts))
