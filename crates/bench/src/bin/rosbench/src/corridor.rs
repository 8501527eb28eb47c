//! `corridor`: one sharded corridor run per operation — the roadside
//! service path (per-radar producers, bounded `ros-exec` channels,
//! `StreamingReader` decode). It bypasses IF synthesis, DBSCAN and the
//! DE search, and is the one workload that runs on several threads.

use crate::harness::{Checked, Scale, Workload};
use crate::stats::Fnv;
use ros_cache::GeomCache;
use ros_core::stream::{FrameSource, StreamingReader};
use ros_exec::ParSeed;
use ros_serve::{run_corridor_with, CorridorConfig, ServeReport};

/// Seed domain of per-operation corridor master seeds.
const DOMAIN: u64 = 0xc0dd_1d0e;

pub struct Corridor {
    seeds: ParSeed,
    base: CorridorConfig,
    pub cache: GeomCache,
    pub workers: usize,
}

/// Worker shards: one per core, at most two.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
}

impl Corridor {
    /// Builds the corridor and warms a fresh table cache by streaming
    /// one pass through it.
    pub fn setup(scale: Scale, seed: u64) -> Corridor {
        let (n_radars, n_vehicles, n_tags) = match scale {
            Scale::Full => (4, 4, 2),
            Scale::Smoke => (1, 1, 1),
        };
        let c = Corridor {
            seeds: ParSeed::new(seed),
            base: CorridorConfig {
                n_radars,
                n_vehicles,
                n_tags,
                channel_capacity: 256,
                ..CorridorConfig::default()
            },
            cache: GeomCache::new(),
            workers: workers(),
        };
        let cfg = c.config(0);
        let first = cfg.encounters()[0];
        let mut src = cfg.source_for_with(&first, &c.cache);
        let mut reader = StreamingReader::new(cfg.reader.decoder);
        let mut buf = Vec::new();
        while src.next_events(cfg.chunk_frames, &mut buf) {
            for ev in buf.drain(..) {
                reader.ingest(ev);
            }
        }
        c
    }

    /// Operation `i`'s corridor: the shape is fixed, the master seed
    /// (receiver noise and tag words) is drawn per operation.
    pub fn config(&self, i: u64) -> CorridorConfig {
        CorridorConfig {
            seed: self.seeds.substream(DOMAIN, i),
            ..self.base.clone()
        }
    }
}

/// Conservation and one read per scheduled pass, in canonical order.
pub fn report_ok(cfg: &CorridorConfig, r: &ServeReport) -> bool {
    let passes: Vec<_> = cfg.encounters().iter().map(|e| e.pass).collect();
    r.frames_produced == r.frames_consumed
        && r.frames_consumed > 0
        && r.decodes == passes.len() as u64
        && r.reads.iter().map(|x| x.pass).eq(passes)
}

impl Workload for Corridor {
    type Output = (CorridorConfig, ServeReport);

    fn run(&mut self, i: u64) -> Self::Output {
        let cfg = self.config(i);
        let report = run_corridor_with(&cfg, self.workers, &self.cache);
        (cfg, report)
    }

    fn check(&self, (cfg, r): &Self::Output, digest: &mut Fnv) -> Checked {
        digest.u64(r.log_digest());
        Checked {
            ok: report_ok(cfg, r),
            units: r.frames_consumed as usize,
        }
    }

    /// The read log must not depend on the sharding: one run at 1 and
    /// at 2 workers digest equal.
    fn precheck(&mut self) -> bool {
        let cfg = self.config(0);
        let one = run_corridor_with(&cfg, 1, &self.cache);
        let two = run_corridor_with(&cfg, 2, &self.cache);
        report_ok(&cfg, &one) && report_ok(&cfg, &two) && one.log_digest() == two.log_digest()
    }
}
