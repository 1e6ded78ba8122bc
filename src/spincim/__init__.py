"""Behavioral security simulator for spin-based computing-in-memory arrays.

Models an STT-MRAM array with in-memory logic senses, per-operation timing
and energy, thermal fault injection, side-channel classification, and
reference-adaptation mitigation, all reproducible from (config, seed).
"""

from .analytic import (
    binomial_stderr,
    normal_tail,
    pair_exceed,
    single_exceed,
    wilson_interval,
)
from .array import (
    ArrayGeometry,
    CimArray,
    CimOp,
    RowAddress,
    SenseConfig,
    SenseDisturbance,
    validate_mapping,
)
from .attack import (
    AttackScenario,
    AttackVariant,
    AuthDb,
    AuthEntry,
    CredentialPolicy,
    McReport,
    attack_success_rate,
    auth_accept_probability,
    mc_failure_rate,
    run_auth,
)
from .cost import (
    Channel,
    CostMode,
    CostTable,
    ExecutionTrace,
    OpClass,
    OpCost,
    cost_of,
    count_bus_transfers,
    word_read_cost,
    word_write_cost,
)
from .device import (
    CalibrationResult,
    Collapse,
    CurrentLevelModel,
    FailureRateTargets,
    MeanShift,
    MtjState,
    calibrate,
    pair_sampler,
    parse_pair,
    sample_columns,
    sample_pair_current,
    sample_single_current,
    sense_law,
    trial_rng,
)
from .errors import (
    ConfigError,
    InvalidShift,
    MalformedTrace,
    MappingViolation,
    MissingClass,
    NonConvergence,
    OutOfBounds,
    ParseError,
    SpinCimError,
    StepBudgetExceeded,
    UnknownOp,
)
from .isa import (
    ExecStats,
    Instruction,
    Machine,
    Opcode,
    Program,
    assemble,
    disassemble,
    lower_to_conventional,
    run,
    static_fingerprint,
)
from .mitigation import (
    MitigationReport,
    ShiftEstimate,
    adapt_references,
    evaluate_mitigation,
)
from .sca import (
    CentroidClassifier,
    Dataset,
    confusion_matrix,
    hamming_weight_attack,
    obscuring_experiment,
    synthesize_dataset,
    train,
)

__version__ = "0.1.0"
