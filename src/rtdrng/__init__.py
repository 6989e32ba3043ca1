"""rtdrng: a simulated tunnelling-diode true random number generator.

Pipeline: stochastic device switching under current pulses -> bit
acquisition -> optional bias feedback -> two-universal randomness
extraction -> SP 800-22 statistical validation.
"""

from .bits import BitStream, read_bits, write_bits
from .config import PipelineConfig, default_config, load_config
from .control import ControllerState, default_controller, next_amplitude, run_closed_loop
from .device import (
    Branch,
    BranchRangeError,
    DeviceParams,
    DeviceState,
    Streams,
    SweepTrace,
    branch_voltage,
    iv_current,
    streams,
    sweep_current,
)
from .extractor import (
    ExtractorConfig,
    InsufficientEntropyError,
    choose_block_params,
    derive_seed,
    extract,
    min_entropy_estimate,
)
from .pulses import (
    PulseConfig,
    PulseTrace,
    acquire_bits,
    trace_pulses,
    window_fractions,
)

__version__ = "0.1.0"

__all__ = [
    "BitStream",
    "read_bits",
    "write_bits",
    "PipelineConfig",
    "default_config",
    "load_config",
    "ControllerState",
    "default_controller",
    "next_amplitude",
    "run_closed_loop",
    "Branch",
    "BranchRangeError",
    "DeviceParams",
    "DeviceState",
    "Streams",
    "SweepTrace",
    "branch_voltage",
    "iv_current",
    "streams",
    "sweep_current",
    "ExtractorConfig",
    "InsufficientEntropyError",
    "choose_block_params",
    "derive_seed",
    "extract",
    "min_entropy_estimate",
    "PulseConfig",
    "PulseTrace",
    "acquire_bits",
    "trace_pulses",
    "window_fractions",
    "__version__",
]
