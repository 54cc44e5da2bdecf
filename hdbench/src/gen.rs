//! Seeded input generation. Every input a workload feeds the program is
//! a pure function of `--seed`; the program sees only the generated
//! inputs, never the seed.

use std::collections::HashMap;

use hangdoctor::{HangBugReport, RootCause, RootKind, SymptomThresholds};
use hd_appmodel::App;
use hd_control::{ControlRequest, RolloutSpec, RolloutStage, SyncReport};
use hd_telemetry::{
    encode_frame, encode_frame_in, Request, TelemetryItem, UploadBatch, WireVersion,
};

/// SplitMix64: small, fast, and stable across releases of the program,
/// so the inputs of a seed never change underneath a comparison.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }
}

/// Devices in the simulated upload population.
pub const DEVICES: u32 = 40_000;
/// Share of sends that re-deliver an earlier batch.
pub const DUP_SHARE: f64 = 0.05;
/// Share of batches that are spooled (several reports).
pub const SPOOL_SHARE: f64 = 0.08;
/// Largest spooled batch, reports.
pub const MAX_SPOOL: u64 = 32;

/// The app a device runs: fixed per device, spread over the corpus.
pub fn app_of(device: u32, apps: usize) -> usize {
    let mut rng = Rng::new(u64::from(device), 0xA99);
    rng.below(apps as u64) as usize
}

/// One run's hang bug report from `device`: executions of a few
/// actions and, often, one diagnosed bug of the app.
pub fn device_report(app: &App, device: u32, rng: &mut Rng) -> HangBugReport {
    let mut report = HangBugReport::new(&app.name);
    for _ in 0..rng.range(1, 3) {
        let action = &app.actions[rng.below(app.actions.len() as u64) as usize];
        for _ in 0..rng.range(1, 4) {
            report.note_execution(device, action.uid, &action.name);
        }
    }
    if !app.bugs.is_empty() && rng.chance(0.6) {
        let bug_idx = rng.below(app.bugs.len() as u64) as usize;
        let bug = &app.bugs[bug_idx];
        let api = app.api(bug.api);
        if let Some(action) = app.action(bug.action) {
            report.note_execution(device, action.uid, &action.name);
        }
        let root = RootCause {
            symbol: api.symbol.clone(),
            file: api.file.clone(),
            line: api.line,
            occurrence_factor: 1.0,
            kind: RootKind::BlockingApi,
        };
        report.record_bug(device, bug.action, &root, rng.range(150, 2_000) * 1_000_000);
    }
    report
}

/// A pre-encoded upload stream: fresh batches plus the order in which
/// they and their duplicate re-deliveries are sent.
#[derive(Clone, Debug, Default)]
pub struct UploadPlan {
    /// Batches, in generation order (empty unless kept).
    pub batches: Vec<UploadBatch>,
    /// Reports carried by each batch.
    pub reports: Vec<u64>,
    /// The encoded `Upload` frame of each batch.
    pub frames: Vec<Vec<u8>>,
    /// Send order: indices into `frames`; an index sent before is a
    /// duplicate re-delivery.
    pub sends: Vec<usize>,
}

/// Generates a stream of `sends` uploads over `apps` in which about
/// [`DUP_SHARE`] of the sends re-deliver an earlier batch.
/// `device_base` offsets the device ids so two plans of one run (a
/// preload and a live stream) never share a `(device, seq)` pair.
/// Without `keep_batches` only the encoded frames are kept.
pub fn upload_plan(
    seed: u64,
    stream: u64,
    apps: &[App],
    sends: usize,
    device_base: u32,
    keep_batches: bool,
) -> UploadPlan {
    let mut rng = Rng::new(seed, stream);
    let mut seqs: HashMap<u32, u64> = HashMap::new();
    let mut plan = UploadPlan::default();
    while plan.sends.len() < sends {
        let device = device_base + rng.range(1, u64::from(DEVICES)) as u32;
        let app = &apps[app_of(device, apps.len())];
        let seq = seqs.entry(device).or_insert(0);
        *seq += 1;
        let reports = if rng.chance(SPOOL_SHARE) {
            rng.range(2, MAX_SPOOL)
        } else {
            1
        };
        let items = (0..reports)
            .map(|_| TelemetryItem::Report(device_report(app, device, &mut rng)))
            .collect();
        let batch = UploadBatch {
            app: app.name.clone(),
            device,
            seq: *seq,
            items,
        };
        plan.frames
            .push(encode_frame(&Request::Upload(batch.clone())));
        plan.reports.push(batch.reports());
        if keep_batches {
            plan.batches.push(batch);
        }
        let index = plan.frames.len() - 1;
        if index > 0 && rng.chance(DUP_SHARE / (1.0 - DUP_SHARE)) {
            plan.sends.push(rng.below(index as u64) as usize);
        }
        plan.sends.push(index);
    }
    plan.sends.truncate(sends);
    plan
}

/// The threshold push every rollout of the benchmark stages: stricter
/// than the paper defaults on every counter, with the defaults as the
/// rollback baseline.
pub fn rollout_push() -> RolloutSpec {
    RolloutSpec {
        thresholds: SymptomThresholds {
            context_switch_diff: 12.0,
            task_clock_diff: 2.5e8,
            page_fault_diff: 800.0,
        },
        baseline: SymptomThresholds::default(),
    }
}

/// What a read-connection request must be answered with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// A `Query` report.
    Report,
    /// Sync directives.
    Directives,
    /// A device's state table.
    StateTable,
    /// A stack pull answer.
    Stack,
    /// A rollout status.
    Rollout,
}

/// Control verbs, for per-verb accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verb {
    /// Device sync.
    Sync,
    /// State-table query.
    QueryState,
    /// Stack pull.
    PullStack,
    /// Threshold push.
    PushThresholds,
    /// Rollout advance.
    AdvanceRollout,
}

impl Verb {
    /// Every verb.
    pub const ALL: [Verb; 5] = [
        Verb::Sync,
        Verb::QueryState,
        Verb::PullStack,
        Verb::PushThresholds,
        Verb::AdvanceRollout,
    ];
}

/// One request of the operator/device connection.
#[derive(Clone, Debug)]
pub struct ReadOp {
    /// The encoded frame.
    pub frame: Vec<u8>,
    /// The answer it must get.
    pub expect: Expect,
    /// The control verb, if it is one.
    pub verb: Option<Verb>,
    /// The decoded control request, for replaying it in process.
    pub control: Option<ControlRequest>,
}

/// Devices that send control syncs.
pub const CONTROL_DEVICES: u64 = 5_000;
/// Devices that sync in each stage of one rollout cycle: as many as the
/// `pipeline` workload's study fleet (16 apps x 4 devices).
pub const CYCLE_DEVICES: usize = 64;

/// `count` control requests in rollout cycles, each driven the way
/// `repro control-diff` drives one: the operator pushes thresholds
/// (canary) and later advances to expanded and to full, and after each
/// stage every device of the cycle syncs once. After each sync round
/// the operator probes one synced device the way `repro control` does,
/// with a `QueryState` and a `PullStack`. A cycle's devices are drawn
/// from [`CONTROL_DEVICES`]; a sync carries its app's state table from
/// `templates` (one per app, from real Hang Doctor runs).
pub fn control_ops(
    seed: u64,
    templates: &[SyncReport],
    count: usize,
    push: RolloutSpec,
) -> Vec<ReadOp> {
    let mut rng = Rng::new(seed, 0xC7);
    let op = |request: ControlRequest, expect, verb| ReadOp {
        frame: encode_frame_in(WireVersion::Control, &Request::Control(request.clone())),
        expect,
        verb: Some(verb),
        control: Some(request),
    };
    let mut ops = Vec::with_capacity(count);
    while ops.len() < count {
        let mut devices: Vec<u32> = Vec::with_capacity(CYCLE_DEVICES);
        while devices.len() < CYCLE_DEVICES {
            let device = rng.range(1, CONTROL_DEVICES) as u32;
            if !devices.contains(&device) {
                devices.push(device);
            }
        }
        for stage in RolloutStage::ALL {
            ops.push(match stage {
                RolloutStage::Canary => op(
                    ControlRequest::PushThresholds(push),
                    Expect::Rollout,
                    Verb::PushThresholds,
                ),
                stage => op(
                    ControlRequest::AdvanceRollout { stage },
                    Expect::Rollout,
                    Verb::AdvanceRollout,
                ),
            });
            for &device in &devices {
                let mut report = templates[app_of(device, templates.len())].clone();
                report.device = device;
                if let Some(stack) = report.stack.as_mut() {
                    stack.device = device;
                }
                ops.push(op(
                    ControlRequest::Sync(report),
                    Expect::Directives,
                    Verb::Sync,
                ));
            }
            let device = devices[rng.below(devices.len() as u64) as usize];
            ops.push(op(
                ControlRequest::QueryState { device },
                Expect::StateTable,
                Verb::QueryState,
            ));
            ops.push(op(
                ControlRequest::PullStack { device },
                Expect::Stack,
                Verb::PullStack,
            ));
        }
    }
    ops.truncate(count);
    ops
}

/// A `Query{top_n}` request.
pub fn query_op(top_n: usize) -> ReadOp {
    ReadOp {
        frame: encode_frame(&Request::Query { top_n }),
        expect: Expect::Report,
        verb: None,
        control: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hangdoctor::ActionState;
    use hd_appmodel::corpus::table5;
    use std::collections::HashSet;

    fn templates() -> Vec<SyncReport> {
        table5::apps()
            .iter()
            .enumerate()
            .map(|(i, app)| SyncReport {
                device: 0,
                app: app.name.clone(),
                states: vec![(i as u64, ActionState::Normal, 3)],
                stack: None,
                health: Default::default(),
            })
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        let _quiet = crate::cpu_test_lock();
        let apps = table5::apps();
        let a = upload_plan(11, 1, &apps, 300, 0, true);
        let b = upload_plan(11, 1, &apps, 300, 0, true);
        assert_eq!(a.frames, b.frames);
        assert_eq!(a.sends, b.sends);
        let ca = control_ops(11, &templates(), 200, rollout_push());
        let cb = control_ops(11, &templates(), 200, rollout_push());
        assert!(ca.iter().zip(&cb).all(|(x, y)| x.frame == y.frame));
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let _quiet = crate::cpu_test_lock();
        let apps = table5::apps();
        let a = upload_plan(11, 1, &apps, 300, 0, true);
        let b = upload_plan(12, 1, &apps, 300, 0, true);
        assert_ne!(a.frames, b.frames);
        let ca = control_ops(11, &templates(), 200, rollout_push());
        let cb = control_ops(12, &templates(), 200, rollout_push());
        assert!(ca.iter().zip(&cb).any(|(x, y)| x.frame != y.frame));
    }

    #[test]
    fn plans_have_the_stated_shape() {
        let _quiet = crate::cpu_test_lock();
        let apps = table5::apps();
        let plan = upload_plan(5, 1, &apps, 4_000, 0, true);
        assert_eq!(plan.sends.len(), 4_000);
        let unique: HashSet<usize> = plan.sends.iter().copied().collect();
        let share = (plan.sends.len() - unique.len()) as f64 / plan.sends.len() as f64;
        assert!((0.03..0.07).contains(&share), "dup share {share}");
        // A duplicate re-delivers a batch sent earlier; fresh batches go
        // out in generation order.
        let mut next_fresh = 0;
        for &s in &plan.sends {
            assert!(s <= next_fresh);
            if s == next_fresh {
                next_fresh += 1;
            }
        }
        let apps_hit: HashSet<&str> = plan.batches.iter().map(|b| b.app.as_str()).collect();
        assert_eq!(apps_hit.len(), apps.len());
        assert!(plan
            .batches
            .iter()
            .all(|b| (1..=MAX_SPOOL).contains(&b.reports())));
        assert!(plan.batches.iter().any(|b| b.reports() > 1));
        // Distinct batches never collide on content.
        let frames: HashSet<&Vec<u8>> = plan.frames.iter().collect();
        assert_eq!(frames.len(), plan.batches.len());
    }

    #[test]
    fn control_ops_probe_only_synced_devices() {
        let _quiet = crate::cpu_test_lock();
        let ops = control_ops(3, &templates(), 1_000, rollout_push());
        let mut synced = HashSet::new();
        for op in &ops {
            match op.control.as_ref().unwrap() {
                ControlRequest::Sync(r) => {
                    synced.insert(r.device);
                }
                ControlRequest::QueryState { device } | ControlRequest::PullStack { device } => {
                    assert!(synced.contains(device));
                }
                _ => {}
            }
        }
        let syncs = ops.iter().filter(|o| o.verb == Some(Verb::Sync)).count();
        assert!(syncs > 900, "{syncs} syncs");
        assert!(ops.iter().any(|o| o.verb == Some(Verb::AdvanceRollout)));
        // A cycle: push, then per stage one sync of each cycle device and
        // one probe pair.
        let cycle = 3 * (1 + CYCLE_DEVICES + 2);
        assert_eq!(ops[0].verb, Some(Verb::PushThresholds));
        assert_eq!(ops[cycle].verb, Some(Verb::PushThresholds));
    }
}
