"""The normalizer of rewritten paths.

``rare`` stays faithful to the paper and never simplifies its output beyond
what the rules produce (Example 3.1 explicitly notes that further
simplification "is outside the scope of this paper").  That output is
equivalent to its input but often far from minimal: RuleSet2 turns
``//price/@currency/ancestor::item/title`` into three union arms, one of
which can never select anything.  :func:`simplify` is the one normalizer
that :meth:`repro.xpath.cache.QueryCache.compile` runs on every query it
rewrote, before the streaming engine compiles it.  It applies sound rules
only, bottom-up in one pass:

* **⊥ propagation.**  A qualifier over ``⊥`` (an existence test, or a
  comparison with an empty operand) is false; a step with a false
  qualifier makes its path ``⊥``; ``⊥`` arms leave their union, and
  duplicate arms merge.
* **Trivial ``self``.**  A ``self::node()`` step with no qualifiers is
  dropped when the path has other steps (``p/self::node()/q ≡ p/q``), and
  the qualifier ``[self::node()]`` is true: it vanishes from an ``and``
  and absorbs an ``or``.
* **``self`` folding.**  Node tests do not depend on the axis, so
  ``a::T1[q1]/self::T2[q2] ≡ a::T[q1][q2]`` with ``T`` the intersection of
  the two tests — ``descendant-or-self::node()[q]/self::item`` becomes
  ``descendant-or-self::item[q]``.  An empty intersection (a node-test
  conflict such as ``child::price/self::item``) is ``⊥``, and so is
  ``/self::T`` for any ``T`` but ``node()``: the root is no element.
* **Arm merging.**  Union arms that differ only in one step's qualifiers
  merge: ``p[q1]/r | p[q2]/r ≡ p[q1 or q2]/r`` (a qualifier-free side
  absorbs the other).
* **Descendant folding.**  In a disjunction,
  ``descendant::node()[child::Y/R] or child::Y/R ≡ descendant::Y/R``
  (also with ``descendant::node()/child::Y/R`` on the left).

No rule grows the path — steps, union arms and joins are never more than
before — and the cost per step stays flat on RuleSet2's exponential outputs
(Theorem 4.2): arm merging groups arms in dicts, never pairwise.  Each rule
is pinned against the DOM evaluator by property tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.xpath.ast import (
    AndExpr,
    Bottom,
    Comparison,
    Literal,
    LocationPath,
    NodeTest,
    NodeTestKind,
    OrExpr,
    PathExpr,
    PathQualifier,
    Qualifier,
    Step,
    Union,
    union_of,
)
from repro.xpath.axes import Axis

#: A qualifier that can never hold (over ``⊥``); ``None`` stands for one
#: that always holds.
_FALSE = PathQualifier(Bottom())


def simplify(path: PathExpr) -> PathExpr:
    """Normalize ``path`` with the sound rules of the module docstring."""
    if isinstance(path, (Bottom, Literal)):
        return path
    if isinstance(path, Union):
        members = []
        for member in path.members:
            normalized = simplify(member)
            if isinstance(normalized, Union):
                members.extend(normalized.members)
            elif not isinstance(normalized, Bottom):
                members.append(normalized)
        return union_of(*_merge_arms(members))
    if isinstance(path, LocationPath):
        return _normalize_location_path(path)
    raise TypeError(f"not a path expression: {path!r}")


def _is_trivial_self(step: Step) -> bool:
    return (step.axis is Axis.SELF and step.node_test.is_node
            and not step.qualifiers)


def _meet(a: NodeTest, b: NodeTest) -> Optional[NodeTest]:
    """The node test matching exactly the nodes both match, or ``None``."""
    if a.kind is NodeTestKind.NODE or a == b:
        return b
    if b.kind is NodeTestKind.NODE:
        return a
    kinds = {a.kind, b.kind}
    if kinds == {NodeTestKind.ATTRIBUTE}:
        if a.name is None:
            return b
        return a if b.name is None else None
    if kinds == {NodeTestKind.WILDCARD, NodeTestKind.NAME}:
        return a if a.kind is NodeTestKind.NAME else b
    return None


def _normalize_location_path(path: LocationPath) -> PathExpr:
    steps: List[Step] = []
    last = len(path.steps) - 1
    for index, step in enumerate(path.steps):
        qualifiers = []
        for qual in step.qualifiers:
            normalized = _normalize_qualifier(qual)
            if normalized is _FALSE:
                return Bottom()
            if normalized is not None:
                qualifiers.append(normalized)
        if not _same(qualifiers, step.qualifiers):
            step = Step(step.axis, step.node_test, tuple(qualifiers))
        if step.axis is Axis.SELF:
            if steps:
                previous = steps[-1]
                test = _meet(previous.node_test, step.node_test)
                if test is None:
                    return Bottom()
                if test != previous.node_test or step.qualifiers:
                    steps[-1] = Step(previous.axis, test,
                                     previous.qualifiers + step.qualifiers)
                if (path.absolute and len(steps) == 1
                        and previous.axis is Axis.SELF and not test.is_node):
                    return Bottom()
                continue
            if path.absolute and not step.node_test.is_node:
                return Bottom()
            if _is_trivial_self(step) and index < last:
                continue
        steps.append(step)
    if _same(steps, path.steps):
        return path
    return LocationPath(absolute=path.absolute, steps=tuple(steps))


def _same(new, old) -> bool:
    """Whether ``new`` holds exactly the objects of ``old`` (nothing was
    rewritten: keep the old node, and its memoized hash)."""
    return len(new) == len(old) and all(a is b for a, b in zip(new, old))


def _normalize_qualifier(qual: Qualifier) -> Optional[Qualifier]:
    """The normalized qualifier: ``None`` if it always holds, ``_FALSE``
    if it never does."""
    if isinstance(qual, PathQualifier):
        inner = simplify(qual.path)
        if isinstance(inner, Bottom):
            return _FALSE
        if (isinstance(inner, LocationPath) and not inner.absolute
                and len(inner.steps) == 1 and _is_trivial_self(inner.steps[0])):
            return None
        return qual if inner is qual.path else PathQualifier(inner)
    if isinstance(qual, AndExpr):
        left = _normalize_qualifier(qual.left)
        right = _normalize_qualifier(qual.right)
        if left is _FALSE or right is _FALSE:
            return _FALSE
        if left is None:
            return right
        if right is None:
            return left
        if left is qual.left and right is qual.right:
            return qual
        return AndExpr(left=left, right=right)
    if isinstance(qual, OrExpr):
        parts = []
        for part in _disjuncts(qual):
            normalized = _normalize_qualifier(part)
            if normalized is None:
                return None
            _disjuncts(normalized, parts)
        return _disjunction(parts)
    if isinstance(qual, Comparison):
        left, right = simplify(qual.left), simplify(qual.right)
        if isinstance(left, Bottom) or isinstance(right, Bottom):
            return _FALSE
        if left is qual.left and right is qual.right:
            return qual
        return Comparison(left=left, op=qual.op, right=right)
    raise TypeError(f"not a qualifier: {qual!r}")


def _disjuncts(qual: Qualifier, into: Optional[List[Qualifier]] = None
               ) -> List[Qualifier]:
    """The operands of an ``or`` chain (appended to ``into``), in order;
    false ones are left out."""
    parts = [] if into is None else into
    pending = [qual]
    while pending:
        qual = pending.pop()
        if isinstance(qual, OrExpr):
            pending += (qual.right, qual.left)
        elif qual is not _FALSE:
            parts.append(qual)
    return parts


def _descendant_tail(qual: Qualifier) -> Optional[LocationPath]:
    """``child::Y/R`` when ``qual`` is ``[descendant::node()[child::Y/R]]``
    or ``[descendant::node()/child::Y/R]``, else ``None``."""
    if not isinstance(qual, PathQualifier):
        return None
    path = qual.path
    if not isinstance(path, LocationPath) or path.absolute:
        return None
    head = path.steps[0]
    if head.axis is not Axis.DESCENDANT or not head.node_test.is_node:
        return None
    if not head.qualifiers and len(path.steps) > 1:
        tail = LocationPath(absolute=False, steps=path.steps[1:])
    elif (len(path.steps) == 1 and len(head.qualifiers) == 1
          and isinstance(head.qualifiers[0], PathQualifier)):
        tail = head.qualifiers[0].path
    else:
        return None
    if (isinstance(tail, LocationPath) and not tail.absolute
            and tail.steps[0].axis is Axis.CHILD):
        return tail
    return None


def _disjunction(parts: List[Qualifier]) -> Qualifier:
    """``or`` of ``parts`` (left-nested), deduplicated and
    descendant-folded; ``_FALSE`` when none are left."""
    parts = list(dict.fromkeys(parts))
    present, folded_away = set(parts), set()
    for index, part in enumerate(parts):
        tail = _descendant_tail(part)
        if tail is None:
            continue
        partner = PathQualifier(tail)
        if partner not in present or partner in folded_away:
            continue
        first = tail.steps[0]
        parts[index] = PathQualifier(LocationPath(absolute=False, steps=(
            Step(Axis.DESCENDANT, first.node_test, first.qualifiers),
        ) + tail.steps[1:]))
        folded_away.add(partner)
    parts = [part for part in dict.fromkeys(parts) if part not in folded_away]
    if not parts:
        return _FALSE
    result = parts[0]
    for part in parts[1:]:
        result = OrExpr(left=result, right=part)
    return result


def _conjunction(qualifiers: Tuple[Qualifier, ...]) -> Qualifier:
    result = qualifiers[0]
    for qual in qualifiers[1:]:
        result = AndExpr(left=result, right=qual)
    return result


def _merged_step(steps: List[Step]) -> Step:
    """One step (axis and test of ``steps[0]``) whose qualifiers hold
    where those of any of ``steps`` do."""
    if any(not step.qualifiers for step in steps):
        return steps[0].without_qualifiers()
    parts: List[Qualifier] = []
    for step in steps:
        _disjuncts(_conjunction(step.qualifiers), parts)
    return steps[0].with_qualifiers((_disjunction(parts),))


def _merge_arms(arms: List[PathExpr]) -> List[PathExpr]:
    """Merge union arms that differ only in one step's qualifiers, and
    duplicates, keeping first-occurrence order.  One sweep groups the arms
    at each step position by everything but that position's qualifiers —
    partners meet in a dict, never by comparing arms pairwise — and merges
    every group at once; sweeps repeat while they merge, so merges cascade
    (``p[a]/r[c] | p[b]/r[c] | p[a]/r[d] | p[b]/r[d]`` ends as one arm)."""
    arms = list(dict.fromkeys(arms))
    merged = True
    while merged and len(arms) > 1:
        merged = False
        width = max((len(arm.steps) for arm in arms
                     if isinstance(arm, LocationPath)), default=0)
        for position in range(width):
            groups: Dict[tuple, List[int]] = {}
            for slot, arm in enumerate(arms):
                if isinstance(arm, LocationPath) and len(arm.steps) > position:
                    step = arm.steps[position]
                    groups.setdefault((
                        arm.absolute, arm.steps[:position], step.axis,
                        step.node_test, arm.steps[position + 1:]),
                        []).append(slot)
            partners = [slots for slots in groups.values() if len(slots) > 1]
            if not partners:
                continue
            for slots in partners:
                first = arms[slots[0]]
                step = _merged_step([arms[slot].steps[position]
                                     for slot in slots])
                arms[slots[0]] = LocationPath(absolute=first.absolute, steps=(
                    first.steps[:position] + (step,)
                    + first.steps[position + 1:]))
                for slot in slots[1:]:
                    arms[slot] = None
            arms = list(dict.fromkeys(arm for arm in arms if arm is not None))
            merged = True
    return arms
