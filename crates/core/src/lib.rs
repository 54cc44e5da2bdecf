//! # hangdoctor — runtime detection and diagnosis of soft hangs
//!
//! Reproduction of *Hang Doctor: Runtime Detection and Diagnosis of Soft
//! Hangs for Smartphone Apps* (Brocanelli & Wang, EuroSys '18) over the
//! simulated Android-like runtime of `hd-simrt`.
//!
//! The system is a two-phase per-action pipeline:
//!
//! * **Phase 1 — S-Checker** ([`schecker`]): on every soft hang of an
//!   *Uncategorized* action, three performance-event differences (main
//!   thread minus render thread) are tested against thresholds derived
//!   from correlation analysis ([`correlation`], [`trainer`]): positive
//!   context-switch difference, task-clock difference above 1.7e8 ns, or
//!   page-fault difference above 500. Symptomatic actions become
//!   *Suspicious*; clean ones *Normal* ([`state`]).
//! * **Phase 2 — Diagnoser** ([`doctor`], [`analysis`]): on the next
//!   soft hang of a Suspicious/HangBug action, main-thread stack traces
//!   are collected until the hang ends and analyzed by occurrence
//!   factor; UI-class root causes are pruned, blocking APIs and
//!   self-developed operations are reported ([`report`]) and previously
//!   unknown blocking APIs feed the shared offline database ([`apidb`]).
//!
//! [`adaptation`] implements the paper's threshold/event adaptation
//! discussion (light on-device refit, heavy server-side re-selection).

pub mod adaptation;
pub mod analysis;
pub mod apidb;
pub mod config;
pub mod correlation;
pub mod doctor;
pub mod injector;
pub mod persistence;
pub mod report;
pub mod schecker;
pub mod state;
pub mod trainer;

pub use adaptation::{
    heavy_adaptation, light_adaptation, paper_filter, thresholds_from_filter, AdaptationOutcome,
};
pub use analysis::{analyze, is_ui_frame, RootCause, RootKind};
pub use apidb::{shared, BlockingApiDb, DbOrigin, SharedApiDb};
pub use config::{ConfigError, HangDoctorConfig, HangDoctorConfigBuilder, SymptomThresholds};
pub use correlation::{
    best_threshold, pearson, rank_events, select_filter, subsample, Condition, DiffMode, Filter,
    TrainingSample,
};
pub use doctor::{Detection, HangDoctor, HdOutput};
pub use hd_faults::{fault_seed, FaultCategory, FaultConfig, FaultPlan, FaultRates, FaultTally};
pub use injector::{AppInjector, InjectionReport};
pub use persistence::DeviceSnapshot;
pub use report::{HangBugReport, ReportEntry};
pub use schecker::{CounterDiffs, PartialCounterDiffs, SChecker, SymptomVerdict};
pub use state::{ActionState, StateTable, Transition};
pub use trainer::{collect_samples, training_set, validation_set, LabeledAction};
