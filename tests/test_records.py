import pytest

from multishelf import (
    ChainSpec,
    ClosureResult,
    HomologyGroup,
    IntMatrix,
    SearchReport,
    cyclic,
    enumerate_racks,
    make_distributive_set,
    regular_embed,
    right_trivial,
)


def _records():
    op = right_trivial(2)
    S = make_distributive_set([op])
    return [
        op,
        cyclic(2),
        S,
        ClosureResult((op,), "group", True),
        regular_embed(cyclic(2)),
        IntMatrix(1, 1, (((0, 1),),)),
        ChainSpec(S, (1,), 1),
        HomologyGroup(0, 1, ()),
        enumerate_racks(2),
        SearchReport(2, 2, 1, [], "commutative-only"),
    ]


@pytest.mark.parametrize("index", range(10), ids=[type(r).__name__ for r in _records()])
def test_record_fields_cannot_be_assigned(index):
    record = _records()[index]
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        assert getattr(record, field) is not None
