"""Gaussian-channel model of accelerated cavities and a (2,3)-threshold
continuous-variable secret sharing protocol built on top of it."""

__version__ = "0.1.0"

from .gaussian import (
    GaussianState,
    SymplecticMap,
    apply_symplectic,
    beam_splitter,
    check_symplectic,
    coherent,
    fidelity_pure_mixed,
    homodyne_feedforward,
    partial_trace,
    phase_rotation,
    squeeze,
    squeezed_vacuum,
    symplectic_form,
    tensor,
    two_mode_squeezed_vacuum,
    vacuum,
)
from .modes import (
    BogoliubovSet,
    CavityGeometry,
    CorruptCacheError,
    ModeSums,
    TransitionFit,
    fit_transition,
    get_transition,
    mode_sums,
    segment_bogoliubov,
    segment_stacks,
)
from .channel import (
    ChannelInvariants,
    PerturbativeChannel,
    apply_channel,
    channel_invariants,
    compose,
    compose_sequence,
    cp_residual,
    free_channel,
    grid_channels,
    segment_channel,
    t2_from_sums,
)
from .protocol import (
    DecoderCalibration,
    FidelityReport,
    JourneyChannel,
    PairDecoder,
    ProtocolConfig,
    calibrate_decoder,
    collaborate,
    decoder_maps,
    distribute,
    encode,
    fidelity_closed_forms,
    fidelity_report,
    figure_data,
    round_trip_channel,
    simulate_fidelity,
    transit_channel,
)
