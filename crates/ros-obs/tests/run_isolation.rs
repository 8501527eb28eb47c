//! Telemetry belongs to the run that produced it: a capture sees its
//! own lines and metrics only, even while another thread captures at
//! the same time, and a capture that unwinds leaves its thread as it
//! found it.

use ros_obs::names::{DECODE_ATTEMPTS, DECODE_OK};
use ros_obs::{capture_scope, Level};
use std::sync::Barrier;

#[test]
fn overlapping_captures_on_two_threads_see_only_their_own_telemetry() {
    let barrier = Barrier::new(2);
    let capture = |level: Level, tag: u64| {
        capture_scope(level, || {
            barrier.wait();
            ros_obs::event("mine", &[("tag", tag.into())]);
            ros_obs::event_detail("mine.detail", &[("tag", tag.into())]);
            ros_obs::count(DECODE_ATTEMPTS, usize::try_from(tag).expect("small tag"));
            barrier.wait();
            ros_obs::flush();
        })
        .1
    };
    let (summary, detail) = std::thread::scope(|s| {
        let a = s.spawn(|| capture(Level::Summary, 1));
        let b = s.spawn(|| capture(Level::Detail, 2));
        (
            a.join().expect("summary thread"),
            b.join().expect("detail thread"),
        )
    });

    let counter = |n: u64| {
        format!(
            "{{\"ev\":\"metric\",\"name\":\"decode.attempts\",\"kind\":\"counter\",\"value\":{n}}}"
        )
    };
    assert_eq!(
        summary,
        ["{\"ev\":\"mine\",\"tag\":1}".to_string(), counter(1)]
    );
    assert_eq!(
        detail,
        [
            "{\"ev\":\"mine\",\"tag\":2}".to_string(),
            "{\"ev\":\"mine.detail\",\"tag\":2}".to_string(),
            counter(2),
        ]
    );
}

#[test]
fn a_capture_that_unwinds_restores_the_prior_run() {
    assert_eq!(ros_obs::level(), Level::Off);
    let unwound = std::panic::catch_unwind(|| {
        capture_scope(Level::Detail, || {
            ros_obs::event("lost", &[]);
            ros_obs::count(DECODE_OK, 1);
            panic!("capture body fails");
        })
    });
    assert!(unwound.is_err());
    assert_eq!(
        ros_obs::level(),
        Level::Off,
        "the prior level is back after the unwind"
    );

    let ((), lines) = capture_scope(Level::Summary, || {
        ros_obs::event("next", &[]);
        ros_obs::flush();
    });
    assert_eq!(
        lines,
        ["{\"ev\":\"next\"}"],
        "the next capture sees only its own lines and metrics"
    );
}
