//! Canary/percent rollout of pushed thresholds.
//!
//! ## Bucketing
//!
//! Every device hashes to a stable bucket in `[0, 10_000)` via the same
//! SplitMix64 scramble the fleet uses for seeds (domain-separated by its
//! own constant). A stage covers the devices whose bucket is **below**
//! its cutoff — 100 (1%), 2 500 (25%), 10 000 (100%) — so the cohorts
//! are strictly nested: advancing a stage only ever *adds* devices, and
//! a device's membership is a pure function of its id, independent of
//! fleet size, sync order, or thread count.
//!
//! ## Rollback rule
//!
//! With `bad = nacks + aborts` summed per cohort, the rollout regresses
//! when
//!
//! ```text
//! cohort_bad * rest_devices > 2 * rest_bad * cohort_devices + rest_devices
//! ```
//!
//! i.e. the cohort's per-device bad rate exceeds **twice** the rest of
//! the fleet's, with `+rest_devices` slack (one whole bad event per
//! cohort device) so uniform background chaos — which inflates both
//! sides equally — can never trip it. Cross-multiplied integer form: no
//! floats, no division, deterministic. Once rolled back, the rollout
//! directs **every** device to the baseline thresholds and stays there.

use serde::{Deserialize, Serialize};

use hangdoctor::SymptomThresholds;

use crate::proto::{RolloutSpec, RolloutStatusInfo};

/// Total hash buckets (cutoffs are per-ten-thousand).
pub const BUCKETS: u32 = 10_000;

/// Stable rollout bucket of a device: [`hd_simrt::domain_seed`] of the
/// device id (as both root and index) under a rollout-specific domain
/// constant, reduced mod [`BUCKETS`].
pub fn device_bucket(device: u32) -> u32 {
    let device = u64::from(device);
    (hd_simrt::domain_seed(0x5EED_B0C4_E7CA_97A5, device, device) % u64::from(BUCKETS)) as u32
}

/// The staged rollout percentages.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RolloutStage {
    /// 1% of devices (bucket < 100).
    Canary,
    /// 25% of devices (bucket < 2 500).
    Expanded,
    /// Every device.
    Full,
}

impl RolloutStage {
    /// Every stage, in rollout order.
    pub const ALL: [RolloutStage; 3] = [
        RolloutStage::Canary,
        RolloutStage::Expanded,
        RolloutStage::Full,
    ];

    /// Bucket cutoff: devices with `bucket < cutoff` are in the cohort.
    pub fn cutoff(self) -> u32 {
        match self {
            RolloutStage::Canary => 100,
            RolloutStage::Expanded => 2_500,
            RolloutStage::Full => BUCKETS,
        }
    }

    /// Stable kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            RolloutStage::Canary => "canary",
            RolloutStage::Expanded => "expanded",
            RolloutStage::Full => "full",
        }
    }
}

/// Internal rollout state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum RolloutState {
    /// Rolling forward, currently at this stage.
    Staged(RolloutStage),
    /// Regressed: every device gets the baseline.
    RolledBack,
}

/// One staged threshold rollout.
#[derive(Clone, Debug)]
pub struct Rollout {
    spec: RolloutSpec,
    state: RolloutState,
}

impl Rollout {
    /// Starts a rollout at the canary stage.
    pub fn new(spec: RolloutSpec) -> Rollout {
        Rollout {
            spec,
            state: RolloutState::Staged(RolloutStage::Canary),
        }
    }

    /// The push this rollout is staging.
    pub fn spec(&self) -> &RolloutSpec {
        &self.spec
    }

    /// The current stage while rolling forward (`None` once rolled
    /// back).
    pub fn stage(&self) -> Option<RolloutStage> {
        match self.state {
            RolloutState::Staged(s) => Some(s),
            RolloutState::RolledBack => None,
        }
    }

    /// Whether the rollout regressed and was rolled back.
    pub fn rolled_back(&self) -> bool {
        self.state == RolloutState::RolledBack
    }

    /// Whether `device` is inside the current cohort. Rolled-back
    /// rollouts have an empty cohort.
    pub fn in_cohort(&self, device: u32) -> bool {
        match self.state {
            RolloutState::Staged(stage) => device_bucket(device) < stage.cutoff(),
            RolloutState::RolledBack => false,
        }
    }

    /// The thresholds this rollout directs `device` to run, if it
    /// overrides the device's local configuration at all.
    pub fn thresholds_for(&self, device: u32) -> Option<SymptomThresholds> {
        match self.state {
            RolloutState::Staged(_) if self.in_cohort(device) => Some(self.spec.thresholds),
            RolloutState::Staged(_) => None,
            // Rolled back: pin EVERY device to the baseline, including
            // former cohort members that already applied the new values.
            RolloutState::RolledBack => Some(self.spec.baseline),
        }
    }

    /// Advances **to** `target`. Forward-only and idempotent: naming the
    /// current or an earlier stage changes nothing, so a duplicated
    /// advance frame is harmless. No-op after rollback.
    pub fn advance_to(&mut self, target: RolloutStage) {
        if let RolloutState::Staged(current) = self.state {
            if target > current {
                self.state = RolloutState::Staged(target);
            }
        }
    }

    /// Rolls the push back; every device is now directed to the
    /// baseline. Irreversible (a new push starts a new rollout).
    pub fn roll_back(&mut self) {
        self.state = RolloutState::RolledBack;
    }

    /// The deterministic regression rule over the cohort-vs-rest health
    /// split (see the module docs). Never fires while either side is
    /// empty — there is nothing to compare against.
    pub fn regressed(
        cohort_devices: u64,
        cohort_bad: u64,
        rest_devices: u64,
        rest_bad: u64,
    ) -> bool {
        if cohort_devices == 0 || rest_devices == 0 {
            return false;
        }
        cohort_bad * rest_devices > 2 * rest_bad * cohort_devices + rest_devices
    }

    /// Serializable status over a given cohort/rest health split.
    pub fn status(
        &self,
        cohort_devices: u64,
        cohort_bad: u64,
        rest_devices: u64,
        rest_bad: u64,
    ) -> RolloutStatusInfo {
        RolloutStatusInfo {
            stage: match self.state {
                RolloutState::Staged(s) => s.name().to_string(),
                RolloutState::RolledBack => "rolled-back".to_string(),
            },
            rolled_back: self.rolled_back(),
            cohort_devices,
            cohort_bad,
            rest_devices,
            rest_bad,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_buckets_are_pinned() {
        // A change here reshuffles every rollout cohort.
        let want = [
            1409, 264, 8179, 8633, 9200, 8707, 291, 3952, 9838, 3608, 1410, 9129, 1975, 689, 6589,
            5036, 4703, 7514, 2251, 9054, 54, 2379, 5070, 5208, 9384, 6000, 3658, 6091, 7946, 5532,
            5013, 2313, 4877, 2027, 4558, 8963, 5328, 7298, 5877, 2745, 7975, 4233, 3920, 5127,
            201, 3374, 5086, 8733, 9300, 6743, 9350, 9079, 3962, 9464, 8040, 4763, 9470, 4354,
            5078, 9670, 8020, 5880, 1277, 5433,
        ];
        let got: Vec<u32> = (0..64).map(device_bucket).collect();
        assert_eq!(got, want);
    }

    fn spec() -> RolloutSpec {
        RolloutSpec {
            thresholds: SymptomThresholds {
                task_clock_diff: 5.0e7,
                ..SymptomThresholds::default()
            },
            baseline: SymptomThresholds::default(),
        }
    }

    #[test]
    fn buckets_are_stable_and_spread() {
        assert_eq!(device_bucket(7), device_bucket(7));
        // Over 10k devices each stage covers roughly its fraction.
        let devices: Vec<u32> = (1..=10_000).collect();
        let covered = |stage: RolloutStage| {
            devices
                .iter()
                .filter(|&&d| device_bucket(d) < stage.cutoff())
                .count()
        };
        let canary = covered(RolloutStage::Canary);
        let expanded = covered(RolloutStage::Expanded);
        let full = covered(RolloutStage::Full);
        assert!((50..200).contains(&canary), "canary covered {canary}");
        assert!(
            (2_000..3_000).contains(&expanded),
            "expanded covered {expanded}"
        );
        assert_eq!(full, devices.len());
    }

    #[test]
    fn cohorts_are_nested() {
        // Advancing must only ever add devices.
        for device in 1..2_000u32 {
            let b = device_bucket(device);
            if b < RolloutStage::Canary.cutoff() {
                assert!(b < RolloutStage::Expanded.cutoff());
            }
            if b < RolloutStage::Expanded.cutoff() {
                assert!(b < RolloutStage::Full.cutoff());
            }
        }
    }

    #[test]
    fn advance_is_forward_only_and_idempotent() {
        let mut r = Rollout::new(spec());
        assert_eq!(r.stage(), Some(RolloutStage::Canary));
        r.advance_to(RolloutStage::Expanded);
        assert_eq!(r.stage(), Some(RolloutStage::Expanded));
        // Duplicate frame: same target again — no change.
        r.advance_to(RolloutStage::Expanded);
        assert_eq!(r.stage(), Some(RolloutStage::Expanded));
        // Stale frame naming an earlier stage — no change.
        r.advance_to(RolloutStage::Canary);
        assert_eq!(r.stage(), Some(RolloutStage::Expanded));
        r.advance_to(RolloutStage::Full);
        assert_eq!(r.stage(), Some(RolloutStage::Full));
    }

    #[test]
    fn thresholds_follow_the_cohort_then_the_rollback() {
        let mut r = Rollout::new(spec());
        let inside = (1..10_000u32)
            .find(|&d| device_bucket(d) < RolloutStage::Canary.cutoff())
            .expect("some device lands in the canary");
        let outside = (1..10_000u32)
            .find(|&d| device_bucket(d) >= RolloutStage::Expanded.cutoff())
            .expect("some device stays outside");
        assert_eq!(r.thresholds_for(inside), Some(spec().thresholds));
        assert_eq!(r.thresholds_for(outside), None);

        r.roll_back();
        assert!(r.rolled_back());
        assert_eq!(r.stage(), None);
        // EVERY device — former cohort included — is pinned to baseline.
        assert_eq!(r.thresholds_for(inside), Some(spec().baseline));
        assert_eq!(r.thresholds_for(outside), Some(spec().baseline));
        // And rollback is sticky against late advance frames.
        r.advance_to(RolloutStage::Full);
        assert!(r.rolled_back());
    }

    #[test]
    fn regression_rule_needs_both_cohorts_and_headroom() {
        // Empty side: never fires.
        assert!(!Rollout::regressed(0, 0, 10, 0));
        assert!(!Rollout::regressed(5, 100, 0, 0));
        // Uniform chaos (equal per-device rates) never fires.
        assert!(!Rollout::regressed(10, 50, 90, 450));
        // Double the rest's rate is still within the factor-2 headroom.
        assert!(!Rollout::regressed(10, 100, 90, 450));
        // Far above: fires.
        assert!(Rollout::regressed(10, 200, 90, 450));
        // Slack: one bad event in a tiny cohort with a clean rest does
        // not trip it (the +rest_devices term).
        assert!(!Rollout::regressed(1, 1, 99, 0));
        assert!(Rollout::regressed(1, 3, 99, 0));
    }
}
