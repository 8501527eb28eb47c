//! A run's ndjson output: stderr (the default), a file, or an
//! in-memory buffer for [`crate::capture_scope`].
//!
//! Each run owns one [`Out`] behind its state lock, so file and memory
//! lines from the run's parallel workers never interleave mid-line.
//! Stderr lines are handed back and written after that lock is
//! released ([`write_stderr`]); std's stderr lock keeps each one whole.
//! The run-state lock is thus a leaf: no I/O that can block on another
//! process happens under it. The disabled path never reaches this
//! module — callers gate on [`crate::enabled`] first.

use std::fs::File;
use std::io::{BufWriter, Write};

/// A run's output target.
pub(crate) enum Out {
    /// Lines go to standard error.
    Stderr,
    /// Lines go to a buffered file (path from `ROS_OBS_FILE`).
    File(BufWriter<File>),
    /// Lines accumulate in memory ([`crate::capture_scope`]).
    Memory(Vec<String>),
}

impl Out {
    /// Appends one ndjson line to a file or memory sink. A stderr line
    /// is handed back for [`write_stderr`] once the run-state lock is
    /// released. Write errors are swallowed — telemetry must never take
    /// the pipeline down.
    pub(crate) fn push(&mut self, line: String) -> Option<String> {
        match self {
            Out::Stderr => return Some(line),
            Out::File(w) => {
                let _ = w.write_all(line.as_bytes());
                let _ = w.write_all(b"\n");
            }
            Out::Memory(buf) => buf.push(line),
        }
        None
    }

    /// Flushes buffered output (file sinks; others are unbuffered).
    pub(crate) fn flush(&mut self) {
        if let Out::File(w) = self {
            let _ = w.flush();
        }
    }
}

/// Writes lines handed back by [`Out::push`] to stderr, each whole.
/// Call it with no run-state lock held.
pub(crate) fn write_stderr(lines: &[String]) {
    let mut h = std::io::stderr().lock();
    for line in lines {
        let _ = h.write_all(line.as_bytes());
        let _ = h.write_all(b"\n");
    }
}
