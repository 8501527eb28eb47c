//! A run's ndjson output: stderr (the default), a file, or an
//! in-memory buffer for [`crate::capture_scope`].
//!
//! Each run owns one [`Out`] behind its state lock, so lines from the
//! run's parallel workers never interleave mid-line. The disabled path
//! never reaches this module — callers gate on [`crate::enabled`] first.

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
    /// Appends one ndjson line. Write errors are swallowed — telemetry
    /// must never take the pipeline down.
    pub(crate) fn write_line(&mut self, line: String) {
        match self {
            Out::Stderr => {
                let mut h = std::io::stderr().lock();
                let _ = h.write_all(line.as_bytes());
                let _ = h.write_all(b"\n");
            }
            Out::File(w) => {
                let _ = w.write_all(line.as_bytes());
                let _ = w.write_all(b"\n");
            }
            Out::Memory(buf) => buf.push(line),
        }
    }

    /// Flushes buffered output (file sinks; others are unbuffered).
    pub(crate) fn flush(&mut self) {
        if let Out::File(w) = self {
            let _ = w.flush();
        }
    }
}
