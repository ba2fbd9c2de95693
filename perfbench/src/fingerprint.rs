//! Replay fingerprints: a 64-bit digest of everything a run simulated, so
//! the benchmark can tell that each timed run replayed exactly the
//! reference simulation.
//!
//! The digest covers the event count, every metrics-snapshot entry except
//! the engine probe's (`probe.*`, and `domain<d>.probe.*` on the sharded
//! engine, which are wall-clock measurements), every flow-ledger record,
//! and both deadlock verdicts.

use gfc_analysis::FlowLedger;
use gfc_telemetry::{MetricValue, Snapshot};

/// Reference fingerprints of each workload at the default seed, as
/// 16-digit hex, in [`crate::workload::Workload::ALL`] order.
pub const REFERENCE: [(&str, &str); 3] = [
    ("ft8_enterprise_gfc", "52938322fccf9087"),
    ("ft8_incast_cbfc_observed", "f904f7006bb30140"),
    ("ft16_permutation_sharded", "91e98aad68c4545e"),
];

/// The pinned reference of `workload`, if it has one.
pub fn reference(workload: &str) -> Option<&'static str> {
    REFERENCE.iter().find(|(w, _)| *w == workload).map(|(_, fp)| *fp)
}

/// 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb `bytes`.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absorb a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Absorb a string with its length, so adjacent strings cannot alias.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Whether a snapshot entry is a wall-clock probe measurement rather than
/// part of the simulation.
pub fn is_probe_entry(name: &str) -> bool {
    name.starts_with("probe.") || name.contains(".probe.")
}

/// Fingerprint of one run, as 16-digit hex.
pub fn fingerprint(
    events: u64,
    snap: &Snapshot,
    ledger: &FlowLedger,
    deadlock: (bool, bool),
) -> String {
    let mut h = Fnv::new();
    h.u64(events);
    for e in snap.entries.iter().filter(|e| !is_probe_entry(&e.name)) {
        h.str(&e.name);
        match &e.value {
            MetricValue::Counter(v) => {
                h.u64(0);
                h.u64(*v);
            }
            MetricValue::Gauge { value, high_water } => {
                h.u64(1);
                h.u64(*value);
                h.u64(*high_water);
            }
            MetricValue::Histogram { bounds, counts, count, sum } => {
                h.u64(2);
                h.u64(bounds.len() as u64);
                bounds.iter().chain(counts).for_each(|&v| h.u64(v));
                h.u64(*count);
                h.u64(*sum);
            }
        }
    }
    h.u64(ledger.records().len() as u64);
    for r in ledger.records() {
        h.u64(r.id);
        h.u64(r.bytes);
        h.u64(r.start_ps);
        h.u64(r.end_ps.map_or(u64::MAX, |e| e));
        h.u64(u64::from(r.path_links));
    }
    h.u64(u64::from(deadlock.0));
    h.u64(u64::from(deadlock.1));
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv::new();
            h.bytes(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(digest("foobar"), 0x8594_4171_f739_67e8);
    }

    fn sample() -> (Snapshot, FlowLedger) {
        let mut snap = Snapshot::default();
        snap.push_counter("loop.events", 10);
        snap.push_gauge("queue.depth", 3, 7);
        let mut ledger = FlowLedger::new();
        ledger.on_start(0, 1500, 0, 4);
        ledger.on_finish(0, 9_000);
        (snap, ledger)
    }

    #[test]
    fn probe_entries_do_not_change_the_fingerprint() {
        let (mut snap, ledger) = sample();
        let before = fingerprint(10, &snap, &ledger, (false, false));
        snap.push_counter("probe.dispatch.arrive.sum_ns", 12_345);
        snap.push_gauge("domain3.probe.queue.heap", 1, 9);
        assert_eq!(fingerprint(10, &snap, &ledger, (false, false)), before);
        assert!(is_probe_entry("domain12.probe.pool.grown"));
        assert!(!is_probe_entry("fc.ctrl.tx"));
    }

    #[test]
    fn every_part_of_the_run_moves_the_fingerprint() {
        let (snap, ledger) = sample();
        let base = fingerprint(10, &snap, &ledger, (false, false));
        assert_eq!(base.len(), 16);
        assert_ne!(fingerprint(11, &snap, &ledger, (false, false)), base);
        assert_ne!(fingerprint(10, &snap, &ledger, (true, false)), base);
        assert_ne!(fingerprint(10, &snap, &ledger, (false, true)), base);
        let mut other = snap.clone();
        other.push_counter("sim.drops", 0);
        assert_ne!(fingerprint(10, &other, &ledger, (false, false)), base);
        let mut unfinished = FlowLedger::new();
        unfinished.on_start(0, 1500, 0, 4);
        assert_ne!(fingerprint(10, &snap, &unfinished, (false, false)), base);
    }

    #[test]
    fn every_workload_has_a_reference() {
        for w in crate::workload::Workload::ALL {
            let fp = reference(w.name()).expect("pinned reference");
            assert_eq!(fp.len(), 16);
        }
        assert_eq!(reference("no_such_workload"), None);
    }
}
