//! Deterministic corridor scenario generation.
//!
//! A corridor is N roadside radars, M vehicles, K tags per radar.
//! Every (radar, vehicle, tag) triple is one *encounter* — one
//! drive-by pass with its own RNG substream, vehicle speed, and tag
//! word, all derived from the corridor's master seed. The encounter
//! list and every per-encounter parameter are pure functions of the
//! config, so any sharding of the list across workers reproduces the
//! same physics.

use ros_cache::GeomCache;
use ros_core::reader::{DriveBy, ReaderConfig};
use ros_core::stream::{DriveBySource, PassId};
use ros_core::tag::Tag;
use ros_core::SpatialCode;
use ros_exec::ParSeed;

/// Corridor scenario parameters.
#[derive(Clone, Debug)]
pub struct CorridorConfig {
    /// Roadside radars (shard dimension).
    pub n_radars: u32,
    /// Vehicles driving the corridor.
    pub n_vehicles: u32,
    /// Tags visible to each radar.
    pub n_tags: u32,
    /// Lateral radar–tag standoff \[m\].
    pub standoff_m: f64,
    /// Slowest vehicle's speed \[m/s\]; vehicle v drives 5% faster per
    /// index so passes have distinct frame counts.
    pub base_speed_mps: f64,
    /// Master seed; every encounter derives an independent substream.
    pub seed: u64,
    /// Reader configuration used by every pass.
    pub reader: ReaderConfig,
    /// Events pulled from a source per producer iteration (at least
    /// 2, see [`FrameSource`](ros_core::stream::FrameSource)); each
    /// chunk crosses the shard channel under one lock, and a worker
    /// takes at most this many events per receive.
    pub chunk_frames: usize,
    /// Bounded capacity of each frame channel (backpressure point).
    pub channel_capacity: usize,
}

impl Default for CorridorConfig {
    fn default() -> Self {
        CorridorConfig {
            n_radars: 2,
            n_vehicles: 2,
            n_tags: 1,
            standoff_m: 2.0,
            base_speed_mps: 2.0,
            seed: 0x0c0f_fee5,
            reader: ReaderConfig::fast(),
            chunk_frames: 128,
            channel_capacity: 256,
        }
    }
}

/// One scheduled drive-by pass of the corridor.
#[derive(Clone, Copy, Debug)]
pub struct Encounter {
    /// Pass identity (also the canonical log-order key).
    pub pass: PassId,
    /// Per-encounter RNG seed (receiver noise realization).
    pub seed: u64,
    /// Vehicle speed for this pass \[m/s\].
    pub speed_mps: f64,
    /// The 4-bit word the tag encodes.
    pub word: [bool; 4],
}

/// Substream tag separating encounter-seed draws from any other
/// consumer of the corridor master seed.
const SEED_DOMAIN: u64 = 0x5e12_7e5e;

impl CorridorConfig {
    /// The full encounter list in canonical order (radar-major, then
    /// vehicle, then tag). Workers may shard this list any way they
    /// like — each encounter is self-contained.
    pub fn encounters(&self) -> Vec<Encounter> {
        let seeds = ParSeed::new(self.seed);
        let mut out = Vec::new();
        let mut index = 0u64;
        for radar in 0..self.n_radars {
            for vehicle in 0..self.n_vehicles {
                for tag in 0..self.n_tags {
                    let pass = PassId {
                        radar,
                        vehicle,
                        tag,
                        seq: 0,
                    };
                    let seed = seeds.substream(SEED_DOMAIN, index);
                    // Word bits come from the same substream family so
                    // corridors with different seeds show different
                    // sign populations. Keyed by (radar, tag) — a
                    // physically mounted tag encodes one word, so every
                    // vehicle passing radar r sees tag t's same word
                    // (and a K-tag corridor has at most K·n_radars
                    // distinct designs, which is what makes table
                    // caching scale with designs, not encounters).
                    let tag_index = u64::from(radar) * u64::from(self.n_tags) + u64::from(tag);
                    let w = seeds.substream(SEED_DOMAIN ^ 0xb17, tag_index);
                    let word = [w & 1 != 0, w & 2 != 0, w & 4 != 0, w & 8 != 0];
                    out.push(Encounter {
                        pass,
                        seed,
                        speed_mps: self.base_speed_mps * (1.0 + 0.05 * f64::from(vehicle)),
                        word,
                    });
                    index += 1;
                }
            }
        }
        out
    }

    /// The spatial code every corridor tag is fabricated from (8-row
    /// stacks: the paper geometry at streaming-friendly size).
    fn code() -> SpatialCode {
        SpatialCode {
            rows_per_stack: 8,
            ..SpatialCode::paper_4bit()
        }
    }

    fn source_with_tag(&self, e: &Encounter, tag: Tag) -> DriveBySource {
        let drive = DriveBy::new(tag, self.standoff_m)
            .with_speed(e.speed_mps)
            .with_seed(e.seed);
        DriveBySource::new(drive, &self.reader, e.pass)
    }

    /// A streaming frame source for one encounter, its tag built with
    /// no table cache (the uncached reference).
    pub(crate) fn source_for(&self, e: &Encounter) -> DriveBySource {
        // paper_4bit with 8 rows encodes any 4-bit word; the config
        // space cannot make this fail.
        #[expect(
            clippy::unreachable,
            reason = "encode of a 4-bit word into a 4-bit code is total"
        )]
        let tag = Self::code()
            .encode(&e.word)
            .unwrap_or_else(|err| unreachable!("4-bit encode is total: {err}"));
        self.source_with_tag(e, tag)
    }

    /// A streaming frame source for one encounter, its tag built
    /// through an injected [`GeomCache`]: the shaping profile and
    /// per-frequency scatterer tables of each distinct (radar, tag)
    /// design build once per cache — bit-identical physics either way.
    pub fn source_for_with(&self, e: &Encounter, cache: &GeomCache) -> DriveBySource {
        #[expect(
            clippy::unreachable,
            reason = "encode of a 4-bit word into a 4-bit code is total"
        )]
        let tag = Self::code()
            .encode_with(cache, &e.word)
            .unwrap_or_else(|err| unreachable!("4-bit encode is total: {err}"));
        self.source_with_tag(e, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encounter_list_is_deterministic_and_ordered() {
        let cfg = CorridorConfig {
            n_radars: 3,
            n_vehicles: 2,
            n_tags: 2,
            ..CorridorConfig::default()
        };
        let a = cfg.encounters();
        let b = cfg.encounters();
        assert_eq!(a.len(), 12);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.pass, y.pass);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.word, y.word);
        }
        // Canonical order = sorted order.
        let mut sorted: Vec<_> = a.iter().map(|e| e.pass).collect();
        sorted.sort();
        assert_eq!(sorted, a.iter().map(|e| e.pass).collect::<Vec<_>>());
    }

    #[test]
    fn word_is_a_property_of_the_mounted_tag() {
        // A fabricated tag encodes one word: every vehicle passing
        // radar r must read tag t's same word.
        let cfg = CorridorConfig {
            n_radars: 2,
            n_vehicles: 3,
            n_tags: 2,
            ..CorridorConfig::default()
        };
        let es = cfg.encounters();
        for a in &es {
            for b in &es {
                if a.pass.radar == b.pass.radar && a.pass.tag == b.pass.tag {
                    assert_eq!(a.word, b.word, "{:?} vs {:?}", a.pass, b.pass);
                }
            }
        }
        // And different mounted tags do not all share one word.
        let words: std::collections::BTreeSet<[bool; 4]> = es.iter().map(|e| e.word).collect();
        assert!(words.len() > 1, "degenerate word population");
    }

    #[test]
    fn encounters_have_distinct_seeds() {
        let cfg = CorridorConfig {
            n_radars: 4,
            n_vehicles: 4,
            n_tags: 2,
            ..CorridorConfig::default()
        };
        let mut seeds: Vec<u64> = cfg.encounters().iter().map(|e| e.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 32);
    }
}
