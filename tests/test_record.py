"""The record contract every record class of the package keeps: value
equality and hashing, frozen fields, checked construction, and `replace`
running the same checks again."""

import types

import numpy as np
import pytest

from scnnsim import analytic, codec, dataflow, simulator, tensors, workloads
from scnnsim.analytic import ArchConfig, EnergyModel, EventCounts
from scnnsim.codec import encode_blocks
from scnnsim.dataflow import ConfigurationError, LayerShape, ShapeError, partition_tiles
from scnnsim.record import Record, fields, replace
from scnnsim.workloads import REPORT_COLUMNS, ExperimentConfig, LayerSpec
from test_golden import GOLDEN

SHAPE = LayerShape("c", 2, 4, 5, 5, 3, 3, pad=1)
PLAN = partition_tiles(SHAPE, (2, 2))
GPLAN = dataflow.choose_kc(SHAPE, ArchConfig())
BLOCKS = encode_blocks(np.array([0, 3] + [0] * 20 + [5, 0], dtype=np.int32), [20, 4], 4)
DENSE = tensors.DenseTensor(np.arange(8).reshape(2, 2, 2))
SPEC = LayerSpec(SHAPE, 0.5, 0.6, 0.7)
SLOTS = simulator._slots(PLAN, 2, 32, "mod")


def _of(record):
    """A record's fields by name."""
    return {n: getattr(record, n) for n in fields(record)}


# one valid instance of every record class, as the fields to build it from
SAMPLES = {
    analytic.EventCounts: dict(mult_ops=3, useful_mults=2),
    analytic.EnergyModel: dict(mult_op=2.0, dram_bit=5.0),
    analytic.PoolSpec: dict(window=3, stride=2),
    analytic.ArchConfig: dict(pe_rows=4, bank_map="xor"),
    analytic.SimReport: dict(
        layer="c", variant="scnn", cycles=9, mult_utilization=0.5,
        barrier_stall_fraction=0.25, batches=4, events=EventCounts(mult_slots=64),
        energy=1.5, energy_breakdown={"dram": 1.5}, pe_busy=(1, 2),
    ),
    dataflow.LayerShape: _of(SHAPE),
    dataflow.TilePlan: _of(PLAN),
    dataflow.GroupPlan: _of(GPLAN),
    tensors.DenseTensor: _of(DENSE),
    codec.BlockSet: _of(BLOCKS),
    simulator._Slots: _of(SLOTS),
    simulator.LayerOutput: dict(blocks=BLOCKS, shape=(1, 2, 2), pe_rows=1, pe_cols=1),
    workloads.LayerSpec: _of(SPEC),
    workloads.NetworkDescriptor: dict(name="n", layers=(SPEC,)),
    workloads.ExperimentConfig: dict(seed=3, densities=(0.5,)),
    workloads.LayerRun: dict(spec=SPEC, reports={}),
    workloads.NetworkRun: dict(network="n", layers=[], variants=("scnn",)),
    workloads.ReportRow: dict(network="n", layer="c", variant="scnn", cycles=9),
}
BY_IDENTITY = {codec.BlockSet}
# its values are copied into a new array, and arrays have no truth value
ARRAY_COPY = {tensors.DenseTensor}

records = pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda c: c.__name__)


def _hashable(values) -> bool:
    try:
        hash(tuple(values))
    except TypeError:
        return False
    return True


def test_every_record_class_is_sampled():
    package = {c for c in Record.__subclasses__() if c.__module__.startswith("scnnsim.")}
    assert package == set(SAMPLES)


@records
def test_fields_follow_the_class_annotations(cls):
    assert fields(cls) == tuple(cls.__annotations__)
    assert fields(cls(**SAMPLES[cls])) == fields(cls)


@records
def test_equal_fields_make_equal_records(cls):
    a = cls(**SAMPLES[cls])
    b = cls(**_of(a))
    if cls in BY_IDENTITY:
        assert a == a and a != b
        assert hash(a) != hash(b)
        return
    if cls not in ARRAY_COPY:
        assert a == b and not a != b
    if _hashable(_of(a).values()):
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@records
def test_records_of_different_types_differ(cls):
    a = cls(**SAMPLES[cls])
    twin = types.new_class(
        cls.__name__, (Record,), {},
        lambda ns: ns.update(__annotations__=dict.fromkeys(fields(cls), object)),
    )
    assert a != twin(**_of(a)) and twin(**_of(a)) != a
    assert a != tuple(_of(a).values())


@records
def test_frozen_records_refuse_assignment(cls):
    a = cls(**SAMPLES[cls])
    name = fields(cls)[0]
    before = getattr(a, name)
    with pytest.raises(AttributeError):
        setattr(a, name, "new")
    with pytest.raises(AttributeError):
        delattr(a, name)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert getattr(a, name) is before


@records
def test_unknown_repeated_and_missing_fields_are_type_errors(cls):
    values = _of(cls(**SAMPLES[cls]))
    with pytest.raises(TypeError, match="unexpected field 'bogus'"):
        cls(**values, bogus=1)
    with pytest.raises(TypeError, match="fields but"):
        cls(*values.values(), 1)
    first, *rest = fields(cls)
    with pytest.raises(TypeError, match=f"multiple values for field '{first}'"):
        cls(values[first], **values)
    required = [n for n in fields(cls) if not hasattr(cls, n)]
    for name in required:
        with pytest.raises(TypeError, match=f"missing field '{name}'"):
            cls(**{n: v for n, v in values.items() if n != name})
    with pytest.raises(TypeError, match="unexpected field"):
        replace(cls(**values), bogus=1)


# the records whose checks refuse a bare object() as their last field
CHECKS_LAST = {
    analytic.EnergyModel, analytic.ArchConfig, dataflow.LayerShape, tensors.DenseTensor,
}


@records
def test_replace_changes_only_the_named_field(cls):
    a = cls(**SAMPLES[cls])
    last, new = fields(cls)[-1], object()
    if cls in CHECKS_LAST:
        with pytest.raises((TypeError, ValueError)):
            replace(a, **{last: new})
        return
    b = replace(a, **{last: new})
    assert type(b) is cls and getattr(b, last) is new is not getattr(a, last)
    assert all(getattr(b, n) is getattr(a, n) for n in fields(cls)[:-1])


@pytest.mark.parametrize(
    "record,change,error",
    [
        (ArchConfig(), {"pe_rows": 0}, ConfigurationError),
        (ArchConfig(), {"bank_map": "none"}, ConfigurationError),
        (EnergyModel(), {"dram_bit": 0.01}, ConfigurationError),
        (SHAPE, {"C": 0}, ShapeError),
        (SHAPE, {"groups": 3}, ShapeError),
        (ExperimentConfig(), {"seed": -1}, ConfigurationError),
        (ExperimentConfig(), {"densities": ()}, ConfigurationError),
        (ArchConfig(), {"index_bits": 0}, ConfigurationError),
        (DENSE, {"values": np.array([[[1 << 40]]])}, tensors.FixedPointOverflow),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Record) else None,
)
def test_replace_runs_the_checks_again(record, change, error):
    with pytest.raises(error):
        replace(record, **change)


def test_grids_past_the_pe_limit_are_refused_at_construction():
    # per-PE lists grow with pe_rows * pe_cols; such a grid is only built
    # here, never run
    assert ArchConfig(pe_rows=256, pe_cols=256).n_pes == analytic.MAX_PES == 1 << 16
    for rows, cols in ((257, 256), (1, (1 << 16) + 1), (10**6, 10**6)):
        with pytest.raises(ConfigurationError, match="exceeds the limit of 65536"):
            ArchConfig(pe_rows=rows, pe_cols=cols)
    with pytest.raises(ConfigurationError, match="exceeds the limit"):
        replace(ArchConfig(pe_rows=256, pe_cols=256), pe_rows=257)


def test_construction_warnings_name_the_constructors_caller():
    with pytest.warns(UserWarning, match="accumulator banks") as caught:
        ArchConfig(accum_banks=8)
    assert [w.filename for w in caught] == [__file__]


def test_report_columns_are_the_row_fields_in_order():
    header = (GOLDEN / "alexnet_run_analytic.csv").read_text().splitlines()[0]
    assert REPORT_COLUMNS == fields(workloads.ReportRow) == tuple(header.split(","))


def test_record_defaults_are_shared_and_frozen():
    assert ArchConfig().energy is ArchConfig().energy == EnergyModel()
    assert ExperimentConfig().arch is ExperimentConfig().arch == ArchConfig()
    assert EventCounts() is not EventCounts()


def test_equal_records_hit_the_plan_caches():
    shape = LayerShape(**_of(SHAPE))
    assert shape is not SHAPE
    assert partition_tiles(shape, (2, 2)) is PLAN
    assert dataflow.choose_kc(shape, ArchConfig()) is GPLAN
