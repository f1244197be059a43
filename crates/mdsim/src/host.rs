//! The host the reference stages run on: its lanes and its threads.
//!
//! The pair search, the half-list walk's lane stage and SHAKE's
//! molecules spread over every thread the host has
//! ([`std::thread::available_parallelism`], as the native lane pool
//! sizes itself), and every bit stays where one thread puts it: each
//! item of work is a pure function of its inputs, written to a buffer
//! (or a run of atoms) of its own, and the calling thread consumes the
//! items one by one in index order — so whatever is joined or summed is
//! joined or summed on one thread in one order, at every thread count.
//!
//! The helper threads run arithmetic only. They enter no trace, profile
//! or fault session (mdsim records nothing and draws no fault), which
//! is why they need not be lanes of the native pool.

use std::sync::{Condvar, Mutex};

use wide::LaneImpl;

/// Lanes and threads a host-side stage may use.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Host {
    pub(crate) lanes: LaneImpl,
    pub(crate) threads: usize,
}

/// Blocks a stage splits its items into: the contiguous blocks of the
/// §3.5 list generation, one per CPE.
pub(crate) const BLOCKS: usize = 64;

const LOCK: &str = "no thread panics while holding the pipeline state";

/// What the threads of [`ahead`] share.
struct Flow {
    /// The next item not yet claimed; `n` once none are left or a
    /// thread failed.
    next: usize,
    /// Items the caller has consumed (a prefix of `0..n`).
    consumed: usize,
    /// Per buffer, whether the item it holds is produced.
    ready: Vec<bool>,
    /// A thread panicked.
    failed: bool,
}

/// Ends a thread's part in [`ahead`]: on unwind it stops every
/// claim and wakes the others, so none waits for an item that will not
/// come.
struct Leave<'a>(&'a Mutex<Flow>, &'a Condvar, usize);

impl Drop for Leave<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let mut flow = self.0.lock().unwrap_or_else(|e| e.into_inner());
            (flow.failed, flow.next) = (true, self.2);
            self.1.notify_all();
        }
    }
}

impl Host {
    /// The lanes [`LaneImpl::detect`] picks and every thread the host has.
    pub(crate) fn detect() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            lanes: LaneImpl::detect(),
            threads,
        }
    }

    /// The threads worth using on `work` units when `grain` of them pay
    /// for starting one: the caller alone below two grains.
    pub(crate) fn threads_for(self, work: usize, grain: usize) -> usize {
        self.threads.min(work / grain).max(1)
    }

    /// Every lane implementation this host can run at 1, 2 and 4
    /// threads: what the thread-count pins run each stage on.
    #[cfg(test)]
    pub(crate) fn every() -> Vec<Self> {
        let lanes = LaneImpl::available().into_iter();
        lanes
            .flat_map(|lanes| [1, 2, 4].map(|threads| Self { lanes, threads }))
            .collect()
    }
}

/// Run `produce(k, buffer)` for every item `k` in `0..n` on `threads`
/// threads (the caller one of them), at most two buffers per thread
/// ahead of the caller, which runs `consume(k, buffer)` on every item in
/// index order and produces items itself while the one it needs next is
/// not ready. With one thread it produces them all and starts none. A
/// panic in any thread ends the pipeline and is raised on the caller.
pub(crate) fn ahead<T: Default + Send>(
    threads: usize,
    n: usize,
    produce: impl Fn(usize, &mut T) + Sync,
    mut consume: impl FnMut(usize, &T),
) {
    let window = 2 * threads.max(1);
    let buffers: Vec<Mutex<T>> = (0..window).map(|_| Mutex::default()).collect();
    let flow = Mutex::new(Flow {
        next: 0,
        consumed: 0,
        ready: vec![false; window],
        failed: false,
    });
    let turn = Condvar::new();
    let lock = || flow.lock().expect(LOCK);
    // Claim and produce the next item if its buffer is free.
    let produce_next = || {
        let mut f = lock();
        let k = f.next;
        if k >= n || k >= f.consumed + window {
            return false;
        }
        f.next += 1;
        drop(f);
        produce(k, &mut buffers[k % window].lock().expect(LOCK));
        lock().ready[k % window] = true;
        turn.notify_all();
        true
    };
    let helper = || {
        let _leave = Leave(&flow, &turn, n);
        while produce_next() || {
            let mut f = lock();
            while f.next < n && f.next >= f.consumed + window {
                f = turn.wait(f).expect(LOCK);
            }
            f.next < n
        } {}
    };
    // swrace: allow(SWC011) helpers of the reference pair search, force
    // walk and SHAKE: pure arithmetic on inputs they only read, into
    // buffers the caller joins in index order; they record nothing
    // and draw no fault, so no session has to reach them.
    std::thread::scope(|s| {
        for _ in 1..threads.min(n) {
            s.spawn(helper);
        }
        let _leave = Leave(&flow, &turn, n);
        for k in 0..n {
            while !lock().ready[k % window] {
                if produce_next() {
                    continue;
                }
                let mut f = lock();
                while !f.ready[k % window] && (f.next >= n || f.next >= f.consumed + window) {
                    assert!(!f.failed, "a helper thread panicked");
                    f = turn.wait(f).expect(LOCK);
                }
            }
            consume(k, &buffers[k % window].lock().expect(LOCK));
            let mut f = lock();
            (f.ready[k % window], f.consumed) = (false, k + 1);
            drop(f);
            turn.notify_all();
        }
    });
}
