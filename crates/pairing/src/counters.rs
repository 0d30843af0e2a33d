//! Thread-safe operation counters.
//!
//! The paper's performance metric is the *number of bilinear pairing
//! operations* executed during token matching (§7: "We use as performance
//! metric the number of HVE bilinear map pairing operations"). The counters
//! here let every experiment read that number directly off the engine, and
//! the test-suite cross-checks them against the analytic cost model.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters of group operations performed by an engine.
#[derive(Debug, Default)]
pub struct OpCounters {
    pairings: AtomicU64,
    g_mults: AtomicU64,
    g_exps: AtomicU64,
    gt_mults: AtomicU64,
    gt_exps: AtomicU64,
    canonicalizations: AtomicU64,
}

impl OpCounters {
    /// A fresh, zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record_pairing(&self) {
        self.pairings.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_g_mult(&self) {
        self.g_mults.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_g_exp(&self) {
        self.g_exps.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_gt_mult(&self) {
        self.gt_mults.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_gt_exp(&self) {
        self.gt_exps.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn record_canonicalization(&self) {
        self.canonicalizations.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds a whole batch of operations at once: one atomic update per
    /// non-zero counter.
    pub(crate) fn record(&self, ops: &CounterSnapshot) {
        for (counter, n) in [
            (&self.pairings, ops.pairings),
            (&self.g_mults, ops.g_mults),
            (&self.g_exps, ops.g_exps),
            (&self.gt_mults, ops.gt_mults),
            (&self.gt_exps, ops.gt_exps),
            (&self.canonicalizations, ops.canonicalizations),
        ] {
            if n != 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// Total bilinear pairings evaluated so far.
    pub fn pairings(&self) -> u64 {
        self.pairings.load(Ordering::Relaxed)
    }

    /// Total multiplications in `G`.
    pub fn g_mults(&self) -> u64 {
        self.g_mults.load(Ordering::Relaxed)
    }

    /// Total exponentiations in `G`.
    pub fn g_exps(&self) -> u64 {
        self.g_exps.load(Ordering::Relaxed)
    }

    /// Total multiplications in `GT`.
    pub fn gt_mults(&self) -> u64 {
        self.gt_mults.load(Ordering::Relaxed)
    }

    /// Total exponentiations in `GT`.
    pub fn gt_exps(&self) -> u64 {
        self.gt_exps.load(Ordering::Relaxed)
    }

    /// Total canonical logs read through the engine
    /// ([`crate::BilinearGroup::gt_canonical`] calls, one per message
    /// decode).
    pub fn canonicalizations(&self) -> u64 {
        self.canonicalizations.load(Ordering::Relaxed)
    }

    /// Resets every counter to zero.
    pub fn reset(&self) {
        self.pairings.store(0, Ordering::Relaxed);
        self.g_mults.store(0, Ordering::Relaxed);
        self.g_exps.store(0, Ordering::Relaxed);
        self.gt_mults.store(0, Ordering::Relaxed);
        self.gt_exps.store(0, Ordering::Relaxed);
        self.canonicalizations.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of all counters.
    pub fn snapshot(&self) -> CounterSnapshot {
        CounterSnapshot {
            pairings: self.pairings(),
            g_mults: self.g_mults(),
            g_exps: self.g_exps(),
            gt_mults: self.gt_mults(),
            gt_exps: self.gt_exps(),
            canonicalizations: self.canonicalizations(),
        }
    }
}

/// Immutable snapshot of [`OpCounters`]; subtracting two snapshots yields
/// the cost of the work between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    /// Bilinear pairings.
    pub pairings: u64,
    /// Multiplications in `G`.
    pub g_mults: u64,
    /// Exponentiations in `G`.
    pub g_exps: u64,
    /// Multiplications in `GT`.
    pub gt_mults: u64,
    /// Exponentiations in `GT`.
    pub gt_exps: u64,
    /// [`crate::BilinearGroup::gt_canonical`] calls.
    pub canonicalizations: u64,
}

impl std::ops::Sub for CounterSnapshot {
    type Output = CounterSnapshot;
    fn sub(self, rhs: CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            pairings: self.pairings - rhs.pairings,
            g_mults: self.g_mults - rhs.g_mults,
            g_exps: self.g_exps - rhs.g_exps,
            gt_mults: self.gt_mults - rhs.gt_mults,
            gt_exps: self.gt_exps - rhs.gt_exps,
            canonicalizations: self.canonicalizations - rhs.canonicalizations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = OpCounters::new();
        c.record_pairing();
        c.record_pairing();
        c.record_g_exp();
        assert_eq!(c.pairings(), 2);
        assert_eq!(c.g_exps(), 1);
        let snap = c.snapshot();
        assert_eq!(snap.pairings, 2);
        c.reset();
        assert_eq!(c.pairings(), 0);
        assert_eq!(c.snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn snapshot_delta() {
        let c = OpCounters::new();
        c.record_pairing();
        let before = c.snapshot();
        c.record_pairing();
        c.record_gt_mult();
        let delta = c.snapshot() - before;
        assert_eq!(delta.pairings, 1);
        assert_eq!(delta.gt_mults, 1);
        assert_eq!(delta.g_exps, 0);
    }
}
