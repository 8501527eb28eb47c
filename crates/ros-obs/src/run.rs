//! The calling thread's telemetry run: a binary's `ROS_OBS` session or
//! one [`crate::capture_scope`], owning a metric table and a sink.
//! `CTX` (no destructor) holds the level, clock kind and whether the
//! thread has a run, so the [`Level::Off`] check is one load; `RUN` is
//! read only when it has one.

use crate::metrics::Table;
use crate::sink::Out;
use crate::Level;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A run's state, shared by the threads working for it.
pub(crate) struct Run(Mutex<State>);

pub(crate) struct State {
    pub(crate) metrics: Table,
    pub(crate) out: Out,
}

#[derive(Clone, Copy)]
struct Ctx {
    level: Level,
    monotonic: bool,
    has_run: bool,
}

thread_local! {
    static CTX: Cell<Ctx> = const {
        Cell::new(Ctx { level: Level::Off, monotonic: false, has_run: false })
    };
    static RUN: RefCell<Option<Arc<Run>>> = const { RefCell::new(None) };
}

/// The calling thread's observability level (one thread-local load).
#[inline]
pub fn level() -> Level {
    CTX.get().level
}

pub(crate) fn monotonic() -> bool {
    CTX.get().monotonic
}

pub(crate) fn set_monotonic() {
    CTX.set(Ctx {
        monotonic: true,
        ..CTX.get()
    });
}

/// Sets the calling thread's level programmatically (tests, bench),
/// starting a run with a stderr sink when telemetry turns on and the
/// thread has none. Workers inherit the level of the thread that spawns
/// them, so set it before fanning out.
pub fn set_level(level: Level) {
    if level > Level::Off && !CTX.get().has_run {
        install(Out::Stderr);
    }
    CTX.set(Ctx { level, ..CTX.get() });
}

/// Starts a fresh run writing to `out` on the calling thread.
pub(crate) fn install(out: Out) {
    RUN.set(Some(Arc::new(Run::new(out))));
    CTX.set(Ctx {
        has_run: true,
        ..CTX.get()
    });
}

/// Runs `f` on the calling thread's run state and returns its result;
/// `None` without a run.
pub(crate) fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> Option<R> {
    if !CTX.get().has_run {
        return None;
    }
    RUN.with_borrow(|run| run.as_ref().map(|run| f(&mut run.lock())))
}

impl Run {
    fn new(out: Out) -> Self {
        Run(Mutex::new(State {
            metrics: Table::new(),
            out,
        }))
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A thread's run — level, clock, metric table and sink — captured so
/// that another thread can run [`within`](RunContext::within) it.
#[derive(Clone)]
pub struct RunContext {
    ctx: Ctx,
    pub(crate) run: Option<Arc<Run>>,
}

impl RunContext {
    /// The calling thread's run.
    pub fn current() -> Self {
        let ctx = CTX.get();
        let run = if ctx.has_run {
            RUN.with_borrow(|run| run.as_ref().map(Arc::clone))
        } else {
            None
        };
        RunContext { ctx, run }
    }

    /// A new run at `level` writing to `out`, on the caller's clock.
    pub(crate) fn fresh(level: Level, out: Out) -> Self {
        let ctx = Ctx {
            level,
            has_run: true,
            ..CTX.get()
        };
        RunContext {
            ctx,
            run: Some(Arc::new(Run::new(out))),
        }
    }

    /// Runs `f` with this as the calling thread's run, then restores the
    /// prior one (also on unwind). Without a run only the
    /// destructor-free `CTX` is touched.
    pub fn within<R>(&self, f: impl FnOnce() -> R) -> R {
        let prior = CTX.replace(self.ctx);
        let prior_run = self
            .run
            .as_ref()
            .map(|run| RUN.replace(Some(Arc::clone(run))));
        let _restore = Restore { prior, prior_run };
        f()
    }
}

/// Restores the thread's prior run on drop.
struct Restore {
    prior: Ctx,
    /// `None` when entering left `RUN` untouched.
    prior_run: Option<Option<Arc<Run>>>,
}

impl Drop for Restore {
    fn drop(&mut self) {
        CTX.set(self.prior);
        if let Some(run) = self.prior_run.take() {
            RUN.set(run);
        }
    }
}
