//! Admission control: a bounded in-flight query budget shared by every
//! dispatch call.
//!
//! Without a bound, a traffic spike lets thousands of queries execute
//! at once, and every caller sees worst-case latency while memory grows
//! with the backlog. Admission control converts that failure mode into
//! fast, typed rejection:
//! [`Admission::try_acquire`] either hands back an RAII [`Permit`]
//! (released when the query resolves, however it resolves) or reports
//! the budget exhausted, which the service surfaces as
//! [`crate::ServiceError::Overloaded`] and the network front end as a
//! typed overload response the client can back off on.
//!
//! The budget counts *queries*, not calls or connections: a batch of N
//! twigs takes N units, and a [`crate::TwigService::execute`] call
//! takes one.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A bounded in-flight budget. Cheap to share: one atomic counter, no
/// locks, no waiting — admission either succeeds immediately or fails
/// immediately (load shedding, not queueing).
#[derive(Debug)]
pub struct Admission {
    /// Maximum in-flight units; `0` disables the bound.
    limit: usize,
    in_flight: AtomicUsize,
    high_water: AtomicUsize,
    rejected: AtomicU64,
}

impl Admission {
    /// Creates a budget of `limit` in-flight units (`0` = unbounded).
    pub fn new(limit: usize) -> Arc<Admission> {
        Arc::new(Admission {
            limit,
            in_flight: AtomicUsize::new(0),
            high_water: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
        })
    }

    /// Tries to reserve `units` units of the budget. `None` means the
    /// budget is exhausted (the rejection is counted); a returned
    /// [`Permit`] releases its units on drop. Zero-unit requests are
    /// normalized to one — every admitted query costs something.
    pub fn try_acquire(self: &Arc<Self>, units: usize) -> Option<Permit> {
        let units = units.max(1);
        if self.limit == 0 {
            self.note_acquired(units);
            return Some(Permit { admission: self.clone(), units });
        }
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current + units > self.limit {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + units,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    self.high_water.fetch_max(current + units, Ordering::Relaxed);
                    return Some(Permit { admission: self.clone(), units });
                }
                Err(seen) => current = seen,
            }
        }
    }

    fn note_acquired(&self, units: usize) {
        let now = self.in_flight.fetch_add(units, Ordering::AcqRel) + units;
        self.high_water.fetch_max(now, Ordering::Relaxed);
    }

    /// Units currently admitted and not yet released.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// The configured bound (`0` = unbounded).
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Highest concurrent in-flight count observed.
    pub fn high_water(&self) -> usize {
        self.high_water.load(Ordering::Relaxed)
    }

    /// Acquisitions refused because the budget was exhausted.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }
}

/// RAII reservation of in-flight units; dropping it releases them.
/// A dispatch call holds its permit for the whole execution, so a query
/// releases its units exactly when it is answered or errors.
#[derive(Debug)]
pub struct Permit {
    admission: Arc<Admission>,
    units: usize,
}

impl Permit {
    /// Units this permit holds.
    pub fn units(&self) -> usize {
        self.units
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.admission.in_flight.fetch_sub(self.units, Ordering::AcqRel);
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap is the assert
mod tests {
    use super::*;

    #[test]
    fn bounded_budget_rejects_at_the_limit_and_recovers() {
        let a = Admission::new(2);
        let p1 = a.try_acquire(1).unwrap();
        let p2 = a.try_acquire(1).unwrap();
        assert_eq!(a.in_flight(), 2);
        assert!(a.try_acquire(1).is_none(), "budget exhausted");
        assert_eq!(a.rejected(), 1);
        drop(p1);
        let p3 = a.try_acquire(1).expect("released unit is reusable");
        assert_eq!(a.in_flight(), 2);
        drop(p2);
        drop(p3);
        assert_eq!(a.in_flight(), 0);
        assert_eq!(a.high_water(), 2);
    }

    #[test]
    fn batch_units_draw_from_the_same_pool() {
        let a = Admission::new(4);
        let batch = a.try_acquire(3).unwrap();
        assert_eq!(batch.units(), 3);
        assert!(a.try_acquire(2).is_none(), "3 + 2 exceeds 4");
        let single = a.try_acquire(1).unwrap();
        assert_eq!(a.in_flight(), 4);
        drop(batch);
        drop(single);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn zero_limit_is_unbounded_and_zero_units_cost_one() {
        let a = Admission::new(0);
        let permits: Vec<Permit> = (0..100).map(|_| a.try_acquire(0).unwrap()).collect();
        assert_eq!(a.in_flight(), 100, "zero-unit requests normalized to one");
        assert_eq!(a.rejected(), 0);
        drop(permits);
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn oversized_request_against_a_bounded_budget_is_rejected_outright() {
        let a = Admission::new(2);
        assert!(a.try_acquire(3).is_none(), "a request larger than the whole budget cannot fit");
        assert_eq!(a.in_flight(), 0);
    }

    #[test]
    fn concurrent_acquisition_never_exceeds_the_limit() {
        let a = Admission::new(8);
        let peak = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = a.clone();
                let peak = peak.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        if let Some(p) = a.try_acquire(2) {
                            peak.fetch_max(a.in_flight(), Ordering::Relaxed);
                            drop(p);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(peak.load(Ordering::Relaxed) <= 8);
        assert_eq!(a.in_flight(), 0);
    }
}
