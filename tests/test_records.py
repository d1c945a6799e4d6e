"""Every checked record runs its checks on every path that builds it.

A checked record is a ``NamedTuple`` of its fields under a
``CheckedRecord`` subclass whose ``__new__`` checks them. A plain
``NamedTuple``'s ``_make`` (and so ``_replace``) builds the tuple without
``__new__``; here the positional and keyword constructors, ``_make``,
``_replace`` and unpickling each raise the same error with the same message.
"""

import pickle
from fractions import Fraction as F

import pytest

from circlegather.analysis import LeaderClass, LeaderTag, Possibility
from circlegather.configuration import Configuration, Robot
from circlegather.errors import ContractViolation, InvariantViolation
from circlegather.oracle import GeneratorSpec
from circlegather.protocol import CW, NONE, STAY, MoveCommand
from circlegather.render import MAX_IMAGE_SIZE, RenderSpec

MOVES_IFF = "amount must be positive iff the robot moves"
TWIN_IDS = (Robot("a", F(0)), Robot("a", F("1/4")))

#: name -> (record class, a valid record, malformed fields, error type, message).
MALFORMED_RECORDS = {
    "move-cw-zero": (
        MoveCommand, STAY, (CW, F(0), "relative-angle"), ContractViolation, MOVES_IFF
    ),
    "move-none-one": (
        MoveCommand, STAY, (NONE, 1, "relative-angle"), ContractViolation, MOVES_IFF
    ),
    "move-none-quarter": (
        MoveCommand, STAY, (NONE, F("1/4"), "relative-angle"), ContractViolation, MOVES_IFF
    ),
    "move-full-turn": (
        MoveCommand, STAY, (CW, F(1), "relative-angle"), ContractViolation,
        "no full-circle moves",
    ),
    "leader-confused-one-hypothesis": (
        LeaderClass, LeaderClass(LeaderTag.FOLLOWER, Possibility.ONLY_C0),
        (LeaderTag.CONFUSED_LEADER, Possibility.ONLY_C0), InvariantViolation,
        "a confused leader requires both hypotheses to be possible",
    ),
    "spec-one-robot": (
        GeneratorSpec, GeneratorSpec(3, 10, 0), (1, 10, 0), ValueError,
        "need at least two robots",
    ),
    "spec-no-denominator": (
        GeneratorSpec, GeneratorSpec(3, 10, 0), (3, 0, 0), ValueError,
        "denominator bound must be positive",
    ),
    "render-stride-0": (
        RenderSpec, RenderSpec("x.svg"), ("x.svg", 0, 220, False), ValueError,
        "frame stride must be at least 1",
    ),
    "render-small": (
        RenderSpec, RenderSpec("x.svg"), ("x.svg", 1, 59, False), ValueError,
        "image size too small to draw anything",
    ),
    "render-large": (
        RenderSpec, RenderSpec("x.svg"), ("x.svg", 1, MAX_IMAGE_SIZE + 1, False), ValueError,
        f"image size must be at most {MAX_IMAGE_SIZE}",
    ),
    "configuration-twin-ids": (
        Configuration, Configuration.from_points([F(0), F("1/3")]), (TWIN_IDS,),
        ContractViolation, "robot ids must be unique",
    ),
}


@pytest.mark.parametrize("name", list(MALFORMED_RECORDS))
def test_checked_record_constructors_run_the_same_checks(name):
    cls, valid, fields, error, message = MALFORMED_RECORDS[name]
    named = dict(zip(cls._fields, fields))
    for build in (
        lambda: cls(*fields),
        lambda: cls(**named),
        lambda: cls._make(fields),
        lambda: valid._replace(**named),
        lambda: pickle.loads(pickle.dumps(tuple.__new__(cls, fields))),
    ):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error
        assert str(exc.value) == message


@pytest.mark.parametrize("name", list(MALFORMED_RECORDS))
def test_a_checked_record_is_a_frozen_tuple_of_its_fields(name):
    cls, valid, _, _, _ = MALFORMED_RECORDS[name]
    assert type(valid) is cls and valid == tuple(valid)
    assert cls._make(valid) == valid and type(cls._make(valid)) is cls
    assert type(valid._replace()) is cls and valid._replace() == valid
    assert pickle.loads(pickle.dumps(valid)) == valid
    with pytest.raises(AttributeError):
        setattr(valid, cls._fields[0], valid[0])
    with pytest.raises(AttributeError):
        valid.extra = 1


def test_move_command_builds_a_fraction_amount_on_every_path():
    move = MoveCommand(CW, F("1/4"))
    assert move.target_kind == "relative-angle"
    for built in (
        MoveCommand._make((NONE, 0, "relative-angle")),
        move._replace(direction=NONE, amount=0),
        pickle.loads(pickle.dumps(tuple.__new__(MoveCommand, (NONE, 0, "relative-angle")))),
    ):
        assert built == STAY and type(built.amount) is F
