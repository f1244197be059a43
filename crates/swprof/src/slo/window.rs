//! Windowed time-series storage: a ring of fixed-width virtual-ns
//! windows per series (fleet-wide and per-tenant), each holding event
//! counters, a latency [`QSketch`], and trace exemplars.
//!
//! Windows are aligned to multiples of [`super::WINDOW_NS`], shared
//! across every series so burn-rate math can compare like with like.
//! The ring holds the most recent [`super::RING_WINDOWS`]
//! closed windows; a snapshot "at virtual timestamp T" is derived from
//! the retained closed windows with `end_ns <= T`, so any two replays
//! of the same event stream produce byte-identical snapshots.

use std::collections::VecDeque;

use super::sketch::QSketch;

/// How many failure exemplars one window retains (worst-first would
/// need ordering; arrival order is deterministic and cheap).
pub const FAILURE_EXEMPLARS: usize = 4;

/// A pointer from an aggregate back to concrete evidence: the job id,
/// and the causal-trace flow id of the job's delivery hop (0 when tracing was
/// off), which resolves to a span chain in the merged Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Exemplar {
    /// Job id in the service registry.
    pub job: u64,
    /// Causal-trace flow id (`args.id` of the `s`/`f` pair in the Chrome
    /// trace); 0 when no tracing session was active.
    pub trace: u64,
    /// The latency that made this job an exemplar (0 for failures
    /// that never completed).
    pub latency_ns: u64,
}

/// One closed (or currently-filling) window of one series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WinStats {
    /// Inclusive window start (multiple of the window width).
    pub start_ns: u64,
    /// Exclusive window end.
    pub end_ns: u64,
    /// Jobs admitted.
    pub admitted: u64,
    /// Jobs whose trajectory was delivered.
    pub completed: u64,
    /// Completions at or under the latency SLO threshold.
    pub good_latency: u64,
    /// Queued jobs evicted under priority pressure (availability bad).
    pub shed: u64,
    /// Submissions rejected after retry exhaustion (availability bad).
    pub rejected: u64,
    /// Worker processes killed while attributed here.
    pub kills: u64,
    /// Enqueue-path drops.
    pub drops: u64,
    /// Backpressure retries issued.
    pub retries: u64,
    /// Jobs readmitted off dead workers.
    pub readmits: u64,
    /// Jobs handed to workers.
    pub dispatches: u64,
    /// Latency sketch over this window's completions.
    pub sketch: QSketch,
    /// Worst-latency completion in the window.
    pub worst: Option<Exemplar>,
    /// First few kill/drop/shed/reject victims (see
    /// [`FAILURE_EXEMPLARS`]).
    pub failures: Vec<Exemplar>,
}

impl WinStats {
    fn new(start_ns: u64, end_ns: u64) -> Self {
        WinStats {
            start_ns,
            end_ns,
            ..WinStats::default()
        }
    }

    /// Record a completion with its latency and SLO verdict.
    pub fn complete(&mut self, ex: Exemplar, good: bool) {
        self.completed += 1;
        if good {
            self.good_latency += 1;
        }
        self.sketch.add(ex.latency_ns);
        // Strictly-greater keeps the earliest of equals: deterministic
        // under replay because event order is deterministic.
        if self.worst.is_none_or(|w| ex.latency_ns > w.latency_ns) {
            self.worst = Some(ex);
        }
    }

    /// Record a failure-class event's evidence pointer.
    pub fn failure(&mut self, ex: Exemplar) {
        if self.failures.len() < FAILURE_EXEMPLARS {
            self.failures.push(ex);
        }
    }

    /// Availability denominator: terminal outcomes a client saw.
    pub fn avail_total(&self) -> u64 {
        self.completed + self.shed + self.rejected
    }

    /// Availability numerator.
    pub fn avail_good(&self) -> u64 {
        self.completed
    }
}

/// One series: the ring of closed windows plus the window currently
/// filling. All series in a [`super::Scope`] share window boundaries.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Closed windows, oldest first; at most `cap`.
    closed: VecDeque<WinStats>,
    /// Closed windows evicted from the front of the ring.
    evicted: u64,
    /// The currently-filling window, if any event or roll reached it.
    current: Option<WinStats>,
}

impl Series {
    /// The currently-filling window for `[start, end)`, creating it if
    /// the series hasn't touched this window yet.
    pub fn current_mut(&mut self, start_ns: u64, end_ns: u64) -> &mut WinStats {
        match self.current {
            Some(ref w) if w.start_ns == start_ns => {}
            _ => {
                debug_assert!(
                    self.current.is_none(),
                    "rolling must close the previous window first"
                );
                self.current = Some(WinStats::new(start_ns, end_ns));
            }
        }
        self.current.as_mut().expect("just ensured")
    }

    /// Close the window covering `[start, end)` (an untouched window
    /// closes empty so trailing burn-rate math sees the quiet period)
    /// and return a reference to it.
    pub fn close(&mut self, start_ns: u64, end_ns: u64, cap: usize) -> &WinStats {
        let w = match self.current.take() {
            Some(w) if w.start_ns == start_ns => w,
            Some(w) => {
                debug_assert!(false, "window misalignment: {} vs {start_ns}", w.start_ns);
                w
            }
            None => WinStats::new(start_ns, end_ns),
        };
        self.closed.push_back(w);
        while self.closed.len() > cap {
            self.closed.pop_front();
            self.evicted += 1;
        }
        self.closed.back().expect("just pushed")
    }

    /// Closed windows, oldest first.
    pub fn closed(&self) -> impl Iterator<Item = &WinStats> {
        self.closed.iter()
    }

    /// The last `n` closed windows with `end_ns <= at_ns`, oldest
    /// first.
    pub fn trailing(&self, at_ns: u64, n: usize) -> impl Iterator<Item = &WinStats> {
        let upto = self.closed.iter().take_while(|w| w.end_ns <= at_ns).count();
        self.closed.iter().take(upto).skip(upto.saturating_sub(n))
    }

    /// Count of closed windows ever evicted from the ring.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_exemplar_tracks_the_max_latency() {
        let mut w = WinStats::new(0, 100);
        w.complete(
            Exemplar {
                job: 1,
                trace: 10,
                latency_ns: 500,
            },
            true,
        );
        w.complete(
            Exemplar {
                job: 2,
                trace: 20,
                latency_ns: 900,
            },
            false,
        );
        w.complete(
            Exemplar {
                job: 3,
                trace: 30,
                latency_ns: 900,
            },
            false,
        );
        let worst = w.worst.unwrap();
        assert_eq!(worst.job, 2, "earliest of equals wins");
        assert_eq!((w.completed, w.good_latency), (3, 1));
        assert_eq!(w.sketch.count(), 3);
    }

    #[test]
    fn failure_exemplars_are_capped() {
        let mut w = WinStats::new(0, 100);
        for job in 0..10 {
            w.failure(Exemplar {
                job,
                trace: 0,
                latency_ns: 0,
            });
        }
        assert_eq!(w.failures.len(), FAILURE_EXEMPLARS);
        assert_eq!(w.failures[0].job, 0);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_it() {
        let mut s = Series::default();
        for i in 0..5u64 {
            s.current_mut(i * 100, (i + 1) * 100).admitted += 1;
            s.close(i * 100, (i + 1) * 100, 3);
        }
        assert_eq!(s.closed().count(), 3);
        assert_eq!(s.evicted(), 2);
        assert_eq!(s.closed().next().unwrap().start_ns, 200);
    }

    #[test]
    fn trailing_respects_at_and_n() {
        let mut s = Series::default();
        for i in 0..6u64 {
            s.close(i * 100, (i + 1) * 100, 100);
        }
        let ends: Vec<u64> = s.trailing(400, 2).map(|w| w.end_ns).collect();
        assert_eq!(ends, vec![300, 400]);
        let all: Vec<u64> = s.trailing(10_000, 100).map(|w| w.end_ns).collect();
        assert_eq!(all.len(), 6);
    }
}
