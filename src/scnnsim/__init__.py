"""Sparse CNN inference accelerator model: exact functional simulation of
the compressed Cartesian-product dataflow, cycle-level PE array timing,
dense baselines, and an analytical cost/area model."""

from .analytic import (
    AreaTable,
    DCNN_AREA,
    EnergyModel,
    EventCounts,
    SCNN_AREA,
    analytic_time_energy,
    area_model,
    count_events,
)
from .codec import (
    BlockSet,
    CompressedBlock,
    Footprint,
    FootprintModel,
    decode_block,
    encode_block,
    encode_blocks,
    footprint,
)
from .dataflow import (
    ConfigurationError,
    GroupPlan,
    TilePlan,
    cartesian_work,
    choose_kc,
    partition_tiles,
)
from .simulator import (
    ArchConfig,
    LayerOutput,
    PoolSpec,
    SimReport,
    WeightStream,
    compress_weights,
    dcnn_arch,
    distribute_activations,
    ppu_finalize,
    prepare_scnn_inputs,
    route_batch,
    simulate_dcnn_layer,
    simulate_scnn_layer,
)
from .tensors import (
    DenseTensor,
    DensityStats,
    FixedPointOverflow,
    LayerShape,
    ShapeError,
    apply_relu,
    density_stats,
    gen_synthetic,
    prune_magnitude,
    reference_conv,
)
from .workloads import (
    ExperimentConfig,
    NetworkDescriptor,
    OracleMismatch,
    density_sweep,
    emit_report,
    load_experiment_config,
    load_network,
    pe_granularity_sweep,
    run_network,
)

__version__ = "0.1.0"
