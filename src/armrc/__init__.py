"""Pneumatic-arm reservoir toolkit: surrogate dynamics, linear readout
training, and the experiment sweep engine."""

from .core import (
    DEFAULT_PAYLOADS_G,
    InputCondition,
    PayloadSet,
    PressureStateSeries,
    TEST_WINDOW,
    TRAIN_WINDOW,
    TimeGrid,
    WASHOUT_WINDOW,
    Window,
    __version__,
    condition_grid,
    slice_series,
)
from .profiles import (
    RampProfileSpec,
    cycle_period,
    default_profile_family,
    generate_profile,
    peak_time,
)
from .readout import (
    ReadoutWeights,
    TrainingAssembly,
    correlation_matrix,
    rmse,
    train,
)
from .surrogate import (
    SurrogateParams,
    echo_check,
    simulate,
    simulate_conditions,
    simulate_grid,
    stability_margin,
)
from .tasks import (
    PayloadStatus,
    TaskKind,
    detect_payload,
)
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .runio import export_run, ingest_run, load_weights, save_weights
from .sweeps import (
    AblationResult,
    MultitaskGridResult,
    SweepResult,
    SweepSpec,
    multitask_grid,
    sample_count_sweep,
    sensor_ablation_sweep,
    subset_sweep,
)
