//! The ndjson output sink: stderr (default), a file, or an in-memory
//! buffer for tests and [`crate::capture_scope`].
//!
//! All writers go through one mutex so lines from parallel workers
//! never interleave mid-line. The disabled path never reaches this
//! module — callers gate on [`crate::enabled`] first.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::{Arc, Mutex};

/// The active output target. `Stderr` is the default.
pub(crate) enum Out {
    /// Lines go to standard error.
    Stderr,
    /// Lines go to a buffered file (path from `ROS_OBS_FILE`).
    File(BufWriter<File>),
    /// Lines accumulate in memory (tests, bench telemetry).
    Memory(Arc<Mutex<Vec<String>>>),
}

static SINK: Mutex<Option<Out>> = Mutex::new(None);

fn with_sink<R>(f: impl FnOnce(&mut Out) -> R) -> R {
    let mut guard = SINK.lock().unwrap_or_else(|p| p.into_inner());
    let out = guard.get_or_insert(Out::Stderr);
    f(out)
}

/// Appends one ndjson line to the active sink. Write errors are
/// swallowed — telemetry must never take the pipeline down.
pub(crate) fn write_line(line: &str) {
    with_sink(|out| match out {
        Out::Stderr => {
            let stderr = std::io::stderr();
            let mut h = stderr.lock();
            let _ = h.write_all(line.as_bytes());
            let _ = h.write_all(b"\n");
        }
        Out::File(w) => {
            let _ = w.write_all(line.as_bytes());
            let _ = w.write_all(b"\n");
        }
        Out::Memory(buf) => {
            buf.lock().unwrap_or_else(|p| p.into_inner()).push(line.to_string());
        }
    });
}

/// Flushes buffered output (file sinks; others are unbuffered).
pub(crate) fn flush() {
    with_sink(|out| {
        if let Out::File(w) = out {
            let _ = w.flush();
        }
    });
}

/// Routes subsequent lines to `path`, falling back to stderr when the
/// file cannot be created.
pub(crate) fn install_file_sink(path: &str) {
    let out = match File::create(path) {
        Ok(f) => Out::File(BufWriter::new(f)),
        Err(_) => Out::Stderr,
    };
    *SINK.lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
}

/// Routes subsequent lines into a shared in-memory buffer and returns
/// it. Used by tests (golden traces) and [`crate::capture_scope`].
pub fn install_memory_sink() -> Arc<Mutex<Vec<String>>> {
    let buf = Arc::new(Mutex::new(Vec::new()));
    *SINK.lock().unwrap_or_else(|p| p.into_inner()) = Some(Out::Memory(Arc::clone(&buf)));
    buf
}

/// Removes and returns the current sink (for [`crate::capture_scope`]).
pub(crate) fn take() -> Option<Out> {
    SINK.lock().unwrap_or_else(|p| p.into_inner()).take()
}

/// Restores a sink previously removed with [`take`].
pub(crate) fn restore(prior: Option<Out>) {
    *SINK.lock().unwrap_or_else(|p| p.into_inner()) = prior;
}
