//! Pins the absolute transport fault schedule.
//!
//! Folds every link-fault decision for rates {0, 0.1, 0.3, 0.5, 1} ×
//! devices 0–15 × 200 messages on both links, plus the uploader's
//! backoff seed and the monitoring, node-crash and control seeds, into
//! one constant. A shifted draw anywhere moves it; the determinism tests
//! elsewhere only compare two runs of the same build.

use hd_faults::{
    fault_seed, node_crash_seed, LinkFaultConfig, LinkFaultPlan, CONTROL_LINK, UPLOAD_LINK,
};
use hd_simrt::domain_seed;

const RATES: [f64; 5] = [0.0, 0.1, 0.3, 0.5, 1.0];
const DEVICES: u64 = 16;
const MESSAGES: usize = 200;
const ROOT: u64 = 20181023;
/// The salt the client session XORs into its link's domain to fork the
/// retry-backoff jitter stream away from the fault schedule.
const BACKOFF_SALT: u64 = 0xBACC_0FF5_EED0_15EA;

fn fold(h: u64, v: u64) -> u64 {
    let mut z = (h ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^= z >> 29;
    z
}

#[test]
fn transport_fault_schedule_is_pinned() {
    let mut h = 0u64;
    for rate in RATES {
        let cfg = LinkFaultConfig::chaos(rate);
        for device in 0..DEVICES {
            let mut upload = LinkFaultPlan::new(cfg, UPLOAD_LINK, ROOT, device);
            let mut control = LinkFaultPlan::new(cfg, CONTROL_LINK, ROOT, device);
            for _ in 0..MESSAGES {
                for f in [upload.next_message(), control.next_message()] {
                    for v in [f.drop as u64, f.delay_ns.unwrap_or(0), f.duplicate as u64] {
                        h = fold(h, v);
                    }
                }
            }
        }
    }
    for device in 0..DEVICES {
        h = fold(h, domain_seed(UPLOAD_LINK ^ BACKOFF_SALT, ROOT, device));
        h = fold(h, fault_seed(ROOT, device));
        h = fold(h, node_crash_seed(ROOT, device));
        h = fold(h, domain_seed(CONTROL_LINK, ROOT, device));
    }
    assert_eq!(h, 0xab02_dcbb_594d_538a);
}
