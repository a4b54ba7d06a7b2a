//! Request coalescing: concurrent duplicate work runs once.
//!
//! `N` threads asking for the same key at the same time trigger exactly
//! one execution of the compute closure; the leader publishes its result
//! through a condition variable and the `N − 1` followers block until it
//! lands, then share a clone. Requests arriving *after* the flight
//! completes are not coalesced (the flight is removed on completion) —
//! that is the cache's job, not this type's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

struct Flight<V> {
    result: Mutex<Option<V>>,
    done: Condvar,
}

/// Deduplicates concurrent executions per key. `V` must be `Clone` so the
/// leader's result can be fanned out to every follower.
pub struct SingleFlight<V> {
    inflight: Mutex<HashMap<String, Arc<Flight<V>>>>,
    joins: AtomicU64,
    leads: AtomicU64,
}

impl<V: Clone> Default for SingleFlight<V> {
    fn default() -> Self {
        SingleFlight::new()
    }
}

impl<V: Clone> SingleFlight<V> {
    /// An empty flight table.
    pub fn new() -> SingleFlight<V> {
        SingleFlight {
            inflight: Mutex::new(HashMap::new()),
            joins: AtomicU64::new(0),
            leads: AtomicU64::new(0),
        }
    }

    /// Runs `compute` for `key`, unless a flight for `key` is already in
    /// progress — in that case blocks until the leader finishes and
    /// returns a clone of its result. The flag is `true` when this call
    /// was the leader (actually executed `compute`).
    ///
    /// `compute` must not unwind: a panicking leader would strand its
    /// followers. Callers wrap fallible work in `catch_unwind` and encode
    /// the panic into `V` (see the service's solve path).
    pub fn run(&self, key: &str, compute: impl FnOnce() -> V) -> (V, bool) {
        let flight = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(existing) = inflight.get(key) {
                // Follower: wait for the leader's result outside the map lock.
                let flight = Arc::clone(existing);
                drop(inflight);
                self.joins.fetch_add(1, Ordering::Relaxed);
                let mut slot = flight.result.lock().unwrap_or_else(|p| p.into_inner());
                while slot.is_none() {
                    slot = flight.done.wait(slot).unwrap_or_else(|p| p.into_inner());
                }
                return (slot.clone().expect("leader published a result"), false);
            }
            let flight = Arc::new(Flight {
                result: Mutex::new(None),
                done: Condvar::new(),
            });
            inflight.insert(key.to_string(), Arc::clone(&flight));
            flight
        };

        // Leader: compute, publish, deregister, wake followers.
        self.leads.fetch_add(1, Ordering::Relaxed);
        let value = compute();
        *flight.result.lock().unwrap_or_else(|p| p.into_inner()) = Some(value.clone());
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(key);
        flight.done.notify_all();
        (value, true)
    }

    /// How many calls joined an existing flight instead of computing.
    pub fn joins(&self) -> u64 {
        self.joins.load(Ordering::Relaxed)
    }

    /// How many calls led a flight (executed the compute closure).
    pub fn leads(&self) -> u64 {
        self.leads.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn back_to_back_runs_do_not_coalesce() {
        let sf = SingleFlight::new();
        let (a, led_a) = sf.run("k", || 1);
        let (b, led_b) = sf.run("k", || 2);
        assert_eq!((a, b), (1, 2), "completed flights must not linger");
        assert!(led_a && led_b);
        assert_eq!(sf.joins(), 0);
    }

    #[test]
    fn concurrent_duplicates_compute_once() {
        let sf = Arc::new(SingleFlight::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..16 {
            let sf = Arc::clone(&sf);
            let computes = Arc::clone(&computes);
            handles.push(std::thread::spawn(move || {
                sf.run("shared", || {
                    computes.fetch_add(1, Ordering::SeqCst);
                    // Hold the flight open long enough for others to join.
                    std::thread::sleep(Duration::from_millis(50));
                    42
                })
                .0
            }));
        }
        let values: Vec<i32> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(values.iter().all(|&v| v == 42));
        // At least some threads must have overlapped the leader's sleep;
        // every overlap is a join, and each join skipped a compute.
        assert_eq!(
            computes.load(Ordering::SeqCst) as u64 + sf.joins(),
            16,
            "every call either computes or joins"
        );
        assert!(sf.joins() > 0, "16 threads over a 50ms flight must overlap");
    }

    #[test]
    fn distinct_keys_do_not_block_each_other() {
        let sf = Arc::new(SingleFlight::new());
        let a = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || sf.run("a", || "a").0)
        };
        let b = {
            let sf = Arc::clone(&sf);
            std::thread::spawn(move || sf.run("b", || "b").0)
        };
        assert_eq!(a.join().unwrap(), "a");
        assert_eq!(b.join().unwrap(), "b");
        assert_eq!(sf.joins(), 0);
        assert_eq!(sf.leads(), 2);
    }
}
