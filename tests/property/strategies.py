"""Hypothesis strategies shared by the property-based tests.

Two generators drive everything:

* random documents over a small tag alphabet (shapes vary from flat to deep),
* random xPath expressions — both forward-only ones (for the streaming
  comparison) and ones with reverse axes (for the rewriting equivalence).

The strategies deliberately use the same small tag alphabet for documents and
queries so that node tests actually match and both branches of every
qualifier are exercised.
"""

from hypothesis import strategies as st

from repro.xmlmodel.document import Document, element, text
from repro.xpath.axes import FORWARD_AXES, REVERSE_AXES

TAGS = ("a", "b", "c", "d")
TEXTS = ("x", "y", "z")


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

def _tree(depth, texts=TEXTS, attributes=st.just({})):
    if depth == 0:
        return st.builds(lambda tag, attrs: element(tag, attributes=attrs),
                         st.sampled_from(TAGS), attributes)
    child = st.deferred(lambda: _tree(depth - 1, texts, attributes))
    children = st.lists(
        st.one_of(child, st.builds(text, st.sampled_from(texts))),
        min_size=0, max_size=3)
    return st.builds(lambda tag, kids, attrs: element(tag, *kids,
                                                       attributes=attrs),
                     st.sampled_from(TAGS), children, attributes)


@st.composite
def documents(draw, max_depth=3, texts=TEXTS, attributes=False):
    """A random document with a single document element.  ``texts`` are the
    character data the leaves draw from; with ``attributes`` every element
    may carry an ``id`` drawn from ``texts`` too."""
    attrs = (st.dictionaries(st.just("id"), st.sampled_from(texts),
                             max_size=1)
             if attributes else st.just({}))
    return Document.from_tree(draw(_tree(max_depth, texts, attrs)))


# ---------------------------------------------------------------------------
# Paths
# ---------------------------------------------------------------------------

NODE_TESTS = TAGS + ("*", "node()", "text()")
ELEMENT_TESTS = TAGS + ("*", "node()")


@st.composite
def steps(draw, axes, allow_qualifier=True, qualifier_depth=1):
    axis = draw(st.sampled_from(axes))
    test = draw(st.sampled_from(NODE_TESTS))
    rendered = f"{axis}::{test}"
    if allow_qualifier and qualifier_depth > 0 and draw(st.booleans()):
        inner = draw(relative_paths(axes, max_steps=2,
                                    qualifier_depth=qualifier_depth - 1))
        rendered += f"[{inner}]"
    return rendered


@st.composite
def relative_paths(draw, axes, max_steps=3, qualifier_depth=1):
    count = draw(st.integers(min_value=1, max_value=max_steps))
    parts = [draw(steps(axes, qualifier_depth=qualifier_depth))
             for _ in range(count)]
    return "/".join(parts)


FORWARD_AXIS_NAMES = tuple(axis.xpath_name for axis in FORWARD_AXES)
ALL_AXIS_NAMES = FORWARD_AXIS_NAMES + tuple(axis.xpath_name for axis in REVERSE_AXES)


@st.composite
def forward_absolute_paths(draw):
    """Absolute forward-only paths (streamable without rewriting)."""
    body = draw(relative_paths(FORWARD_AXIS_NAMES, max_steps=3, qualifier_depth=1))
    return "/" + body


@st.composite
def reverse_absolute_paths(draw):
    """Absolute paths that are guaranteed to contain at least one reverse step."""
    prefix = draw(relative_paths(FORWARD_AXIS_NAMES, max_steps=2, qualifier_depth=0))
    reverse_axis = draw(st.sampled_from([axis.xpath_name for axis in REVERSE_AXES]))
    reverse_test = draw(st.sampled_from(ELEMENT_TESTS))
    tail = draw(st.one_of(
        st.just(""),
        relative_paths(ALL_AXIS_NAMES, max_steps=2, qualifier_depth=1).map(lambda p: "/" + p),
    ))
    inside_qualifier = draw(st.booleans())
    if inside_qualifier:
        return f"/{prefix}[{reverse_axis}::{reverse_test}]{tail}"
    return f"/{prefix}/{reverse_axis}::{reverse_test}{tail}"
