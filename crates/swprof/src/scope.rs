//! The one session scope every instrumentation plane is built on.
//!
//! The profiler, `swfault`, [`crate::tel`], `sw26010::trace` and the
//! flight recorder each keep their whole state in one struct, owned by
//! the guard `Session::begin` / `swfault::install` returns ([`Scope`])
//! or by the run that dumps it ([`crate::tel::flight::Ring`]); nothing
//! about a session is process-wide. A thread reaches the state of the
//! session it works for through the plane's thread-local slot
//! ([`Plane`]; `enabled()` is "my slot is occupied", one thread-local
//! flag read), and a slot changes in one way only: [`Handle::enter`]
//! or [`Plane::enter`] puts state in and returns a guard that puts back
//! what it found when dropped, unwinding included.
//! Opening a session does that on the opening thread; the lane prologue
//! of `sw26010::pool::LanePool` does it on a lane, with the handles of
//! the thread that submitted the region. So a session sees its own
//! thread and the lanes of the regions that thread runs, sessions on two
//! threads never meet, and a thread with none — a pool worker between
//! regions, another test — records and injects nothing. Guards nest: a
//! second session of a plane on one thread shadows the first until it
//! drops, and guards drop in the reverse order they were made.
//!
//! The thread's identity is kept here too, once for every plane: [`Who`]
//! — the lane it runs (the trace's CPE, the profiler's track, the fault
//! plane's lane), the rank it is bound to and the region it is in. It
//! changes the same way, through a guard ([`Who::enter`]) that puts back
//! what it found.

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::LocalKey;

/// The state of the session a thread is working for, or nothing.
pub type Slot<S> = RefCell<Option<Arc<S>>>;

/// One plane's per-thread slot. A plane declares two thread-locals, a
/// `Cell<bool>` and a [`Slot`], and names them once in a `const` (as
/// `thread_local!`'s own keys are, so that code inlined into another
/// crate still sees which ones it names). The flag says whether the slot
/// is occupied: it is what instrumented sites read on a thread with no
/// session, and a `Cell<bool>` has no destructor and no borrow count, so
/// that read is a single load.
pub struct Plane<S: 'static> {
    active: &'static LocalKey<Cell<bool>>,
    slot: &'static LocalKey<Slot<S>>,
}

impl<S> Plane<S> {
    /// Name a plane's two thread-locals.
    pub const fn new(
        active: &'static LocalKey<Cell<bool>>,
        slot: &'static LocalKey<Slot<S>>,
    ) -> Self {
        Self { active, slot }
    }

    /// Whether the calling thread works for a session of this plane —
    /// the whole disabled-path cost of every instrumented site.
    #[inline]
    pub fn active(&self) -> bool {
        self.active.with(Cell::get)
    }

    /// Run `f` on the state of the calling thread's session, if it has
    /// one. `f` must not open or enter a session of the same plane.
    #[inline]
    pub fn with<R>(&self, f: impl FnOnce(&S) -> R) -> Option<R> {
        if !self.active() {
            return None;
        }
        self.slot.with(|slot| slot.borrow().as_deref().map(f))
    }

    /// The calling thread's handle on this plane.
    pub fn handle(&'static self) -> Handle<S> {
        Handle {
            plane: self,
            state: self
                .active()
                .then(|| self.slot.with(|slot| slot.borrow().clone()))
                .flatten(),
        }
    }

    /// Open a session over `state` on the calling thread. Never blocks.
    pub fn open(&'static self, state: S) -> Scope<S> {
        let state = Arc::new(state);
        let _entered = self.enter(&state);
        Scope { state, _entered }
    }

    /// Make the calling thread work for `state` until the guard drops:
    /// what an owner that outlives one call does on each call.
    pub fn enter(&'static self, state: &Arc<S>) -> Entered<S> {
        Entered {
            plane: Some(self),
            found: self.replace(Some(Arc::clone(state))),
            _not_send: PhantomData,
        }
    }

    /// Make `state` the content of the calling thread's slot and return
    /// what it held.
    fn replace(&self, state: Option<Arc<S>>) -> Option<Arc<S>> {
        if state.is_none() && !self.active() {
            return None; // nothing in, nothing out: one flag read
        }
        self.active.with(|active| active.set(state.is_some()));
        // A guard dropped during thread teardown finds the slot gone.
        self.slot
            .try_with(|slot| slot.replace(state))
            .unwrap_or(None)
    }
}

/// What a thread hands to another so that it works for the same
/// session: a copy of its slot, possibly empty.
pub struct Handle<S: 'static> {
    plane: &'static Plane<S>,
    state: Option<Arc<S>>,
}

impl<S> Handle<S> {
    /// The session state itself: what a span keeps so that its end lands
    /// where its beginning did.
    pub fn into_state(self) -> Option<Arc<S>> {
        self.state
    }

    /// Make the calling thread work for this handle's session (for none
    /// if it is empty) until the guard drops. A thread already working for
    /// it (a submitter's own lanes) leaves the slot and its count alone.
    pub fn enter(&self) -> Entered<S> {
        let held = (self.state.as_deref())
            .is_some_and(|state| self.plane.with(|s| std::ptr::eq(s, state)) == Some(true));
        let plane = (!held).then_some(self.plane);
        Entered {
            found: plane.and_then(|plane| plane.replace(self.state.clone())),
            plane,
            _not_send: PhantomData,
        }
    }
}

/// Guard of [`Handle::enter`]: puts back what the thread's slot held.
#[must_use = "the thread leaves the session when this drops"]
pub struct Entered<S: 'static> {
    /// `None` when the slot already held the state entered.
    plane: Option<&'static Plane<S>>,
    found: Option<Arc<S>>,
    /// A slot belongs to a thread; so does the guard that restores it.
    _not_send: PhantomData<*const ()>,
}

impl<S> Drop for Entered<S> {
    fn drop(&mut self) {
        if let Some(plane) = self.plane {
            plane.replace(self.found.take());
        }
    }
}

/// An open session: owns the plane's state and keeps the opening thread
/// entered into it.
pub struct Scope<S: 'static> {
    state: Arc<S>,
    _entered: Entered<S>,
}

impl<S> Scope<S> {
    /// The session's state.
    pub fn state(&self) -> &S {
        &self.state
    }
}

/// Who the calling thread is, for every plane at once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Who {
    /// The CPE lane it runs, `None` on the MPE or a host thread: the
    /// trace's CPE, the profiler's track and the fault plane's lane.
    pub lane: Option<usize>,
    /// The rank its [`crate::tel`] spans, ticks and sends land on.
    pub rank: Option<usize>,
    /// The parallel region it is in, as its trace session numbers them
    /// (0: none).
    pub region: u64,
}

thread_local! {
    static WHO: Cell<Who> = const {
        Cell::new(Who {
            lane: None,
            rank: None,
            region: 0,
        })
    };
}

impl Who {
    /// The calling thread's identity.
    #[inline]
    pub fn current() -> Self {
        WHO.with(Cell::get)
    }

    /// Make the calling thread `self` until the guard drops.
    pub fn enter(self) -> Being {
        Being {
            found: WHO.with(|who| who.replace(self)),
            _not_send: PhantomData,
        }
    }

    /// Make the calling thread lane `lane`, in the rank and region it
    /// is in, until the guard drops.
    pub fn enter_lane(lane: Option<usize>) -> Being {
        Who {
            lane,
            ..Who::current()
        }
        .enter()
    }
}

/// Guard of [`Who::enter`]: puts back the identity the thread had.
#[must_use = "the thread takes back its identity when this drops"]
pub struct Being {
    found: Who,
    _not_send: PhantomData<*const ()>,
}

impl Drop for Being {
    fn drop(&mut self) {
        // A guard dropped during thread teardown finds the slot gone.
        let _ = WHO.try_with(|who| who.set(self.found));
    }
}

/// Lock a piece of session state. Every update made under these locks is
/// a push, a take or an integer merge, valid at every step, so a lock
/// poisoned by a panicking lane is recovered.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        static ACTIVE: Cell<bool> = const { Cell::new(false) };
        static SLOT: Slot<AtomicU64> = const { RefCell::new(None) };
    }
    const PLANE: Plane<AtomicU64> = Plane::new(&ACTIVE, &SLOT);

    fn bump() -> bool {
        PLANE.with(|n| n.fetch_add(1, Ordering::Relaxed)).is_some()
    }

    #[test]
    fn a_scope_is_seen_by_its_thread_and_by_whoever_enters_its_handle() {
        assert!(!PLANE.active() && !bump());
        let scope = PLANE.open(AtomicU64::new(0));
        assert!(PLANE.active() && bump());
        let handle = PLANE.handle();
        {
            let _again = handle.enter();
            assert!(bump(), "its own handle, entered again");
        }
        assert!(bump(), "still its session when that guard drops");
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!bump(), "a thread nobody handed a handle");
                {
                    let _lane = handle.enter();
                    assert!(bump());
                }
                assert!(!bump(), "restored when the guard drops");
            });
        });
        assert_eq!(scope.state().load(Ordering::Relaxed), 4);
        drop(scope);
        assert!(!PLANE.active());
    }

    #[test]
    fn guards_nest_and_restore_through_a_panic() {
        let nobody = PLANE.handle();
        let outer = PLANE.open(AtomicU64::new(0));
        {
            let inner = PLANE.open(AtomicU64::new(10));
            assert!(bump());
            assert_eq!(inner.state().load(Ordering::Relaxed), 11);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _off = nobody.enter();
                assert!(!PLANE.active());
                panic!("lane died");
            }));
            assert!(unwound.is_err());
            assert!(bump(), "the inner session again");
            assert_eq!(inner.state().load(Ordering::Relaxed), 12);
        }
        assert!(bump());
        assert_eq!(outer.state().load(Ordering::Relaxed), 1);
    }

    #[test]
    fn an_identity_is_put_back_through_a_panic() {
        assert_eq!(Who::current(), Who::default());
        let lane = Who {
            lane: Some(70),
            region: 3,
            ..Who::current()
        };
        let _ranked = Who {
            rank: Some(2),
            ..Who::current()
        }
        .enter();
        let unwound = std::panic::catch_unwind(|| {
            let _lane = lane.enter();
            assert_eq!(Who::current().lane, Some(70));
            panic!("lane died");
        });
        assert!(unwound.is_err());
        let now = Who::current();
        assert_eq!((now.lane, now.rank, now.region), (None, Some(2), 0));
    }
}
