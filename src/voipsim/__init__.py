"""Deterministic VoIP testbed: two signaling stacks, a network emulator,
an E-model scorer, and a delay-sweep experiment harness."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .frames import (
    DecodeError,
    EncodeError,
    FrameError,
    FrameKind,
    FullFrame,
    Malformed,
    NotFullFrame,
    NotMiniFrame,
    RswMessage,
    Signal,
    TooShort,
    UnknownFrameType,
    UnknownSignal,
    UnknownVerb,
    Verb,
    decode_full,
    decode_mini,
    decode_rsw,
    decode_rtp,
    decode_rtp_seq,
    encode_full,
    encode_mini,
    encode_rsw,
    encode_rtp,
    pack_rtp,
)
from .iax import (
    CallState,
    IaxCallState,
    IaxEndpoint,
    IaxError,
    MediaRxState,
    NoFreeCallNumbers,
    NotInCall,
    ProtocolViolation,
    StaleFrame,
)
from .rsw import (
    ConferencePhase,
    ConferenceState,
    EmptyInviteeList,
    EmptyMediaDescription,
    MemberStatus,
    NotChairman,
    NotInvited,
    RswError,
    RswInvitee,
    RtpTxState,
    UnknownConference,
    create_conference,
    new_rtp_tx,
    send_media_rtp,
    server_route,
)
from .netsim import (
    EmptyPacket,
    HorizonExceeded,
    LinkConfig,
    Simulator,
    serialization_ms,
)
from .qos import (
    EModelError,
    NegativeDelay,
    QosReport,
    R0,
    idd,
    r_to_mos,
    score_run,
)
from .scenarios import MediaStats, RunNotEnded, TraceLog, run_iax_call, run_rsw_conference
from .experiment import (
    CSV_HEADER,
    ClockTooCoarse,
    MissingProtocol,
    SweepConfig,
    compare_report,
    emit_csv,
    run_scenario,
    run_sweep,
    sweep_points,
)

# the public names imported above; the submodules themselves are not re-exported
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
