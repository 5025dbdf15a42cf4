"""Events are immutable values: slotted classes compared by type and fields."""

import copy
import pickle

import pytest

from repro.xmlmodel.events import EndDocument, EndElement, StartDocument, StartElement, Text

EVENTS = [StartDocument(0), StartElement("a", 1, (("id", "7"),)), Text("x", 3),
          EndElement("a", 1), EndDocument(0)]


@pytest.mark.parametrize("event", EVENTS, ids=repr)
def test_fields_cannot_be_set_added_or_deleted(event):
    before = repr(event)
    with pytest.raises(AttributeError):
        event.node_id = 5
    with pytest.raises(AttributeError):
        del event.node_id
    with pytest.raises(AttributeError):
        event.extra = 1
    assert not hasattr(event, "__dict__")
    assert repr(event) == before


def test_equality_compares_type_and_fields():
    # Equal fields under another type are another event (a tuple-based
    # design comparing fields alone would call these equal).
    assert Text("a", 1) != EndElement("a", 1)
    assert StartDocument(0) != EndDocument(0)
    assert Text("a", 1) != ("a", 1)
    assert StartElement("a", 1) == StartElement(tag="a", node_id=1, attributes=())
    assert StartElement("a", 1) != StartElement("a", 1, (("x", "1"),))
    assert EndElement("a", 1) != EndElement("a", 2)


def test_hash_is_stable_and_follows_equality():
    event = StartElement("a", 1, (("id", "7"),))
    assert hash(event) == hash(event) == hash(StartElement("a", 1, (("id", "7"),)))
    assert len({Text("a", 1), Text("a", 1), EndElement("a", 1)}) == 2


def test_repr_names_type_and_fields():
    assert (repr(StartElement("a", 1, (("id", "7"),)))
            == "StartElement(tag='a', node_id=1, attributes=(('id', '7'),))")
    assert repr(EndElement("a", 1)) == "EndElement(tag='a', node_id=1)"
    assert repr(Text("x", 2)) == "Text(value='x', node_id=2)"
    assert repr(StartDocument()) == "StartDocument(node_id=0)"


@pytest.mark.parametrize("event", EVENTS, ids=repr)
def test_copy_and_pickle_rebuild_an_equal_event(event):
    assert copy.copy(event) == event == pickle.loads(pickle.dumps(event))
