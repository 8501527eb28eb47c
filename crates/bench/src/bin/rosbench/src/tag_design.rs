//! `tag_design`: one operation encodes all sixteen 4-bit words of an
//! 8-row code through a fresh `GeomCache`. The first encode builds the
//! DE-optimised shaping profile (the cache's one miss); the other
//! fifteen read it back. This is the cache's write-and-build path and
//! the `ros-optim`/`ros-antenna` design search, which the other
//! workloads only run in set-up.

use crate::harness::{Checked, Scale, Workload};
use crate::stats::Fnv;
use ros_antenna::shaping::{standard_profile, standard_profile_in, ShapingProfile};
use ros_cache::{GeomCache, TableKind};
use ros_core::{SpatialCode, Tag};
use ros_exec::ParSeed;
use std::sync::Arc;

/// Seed domain of per-operation word orders.
const DOMAIN: u64 = 0x7a6_de51;

pub fn word(w: usize) -> [bool; 4] {
    [0, 1, 2, 3].map(|b| w >> b & 1 == 1)
}

pub struct TagDesign {
    seeds: ParSeed,
    pub code: SpatialCode,
    /// The profile computed without a cache: every operation's must
    /// match it bit for bit.
    reference: ShapingProfile,
    /// Stack positions per word, from the slot formula of §5.2.
    expected: Vec<Vec<f64>>,
}

pub struct Designed {
    /// `(word, tag)` in encode order.
    tags: Vec<(usize, Tag)>,
    profile: Arc<ShapingProfile>,
    shaping_misses: u64,
}

impl TagDesign {
    pub fn setup(scale: Scale, seed: u64) -> TagDesign {
        let rows = match scale {
            Scale::Full => 8,
            Scale::Smoke => 4,
        };
        let code = SpatialCode {
            rows_per_stack: rows,
            ..SpatialCode::paper_4bit()
        };
        let expected = (0..16)
            .map(|w| {
                let mut p = vec![0.0];
                p.extend(
                    (1..=4)
                        .filter(|&k| word(w)[k - 1])
                        .map(|k| code.slot_position_m(k)),
                );
                p
            })
            .collect();
        TagDesign {
            seeds: ParSeed::new(seed),
            code,
            reference: standard_profile(rows),
            expected,
        }
    }

    /// Operation `i`'s encode order: a seeded shuffle of the 16 words,
    /// so which word pays for the build varies, the work does not.
    pub fn order(&self, i: u64) -> Vec<usize> {
        let mut s = self.seeds.substream(DOMAIN, i);
        let mut v: Vec<usize> = (0..16).collect();
        for k in (1..v.len()).rev() {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            v.swap(k, (s >> 33) as usize % (k + 1));
        }
        v
    }
}

impl Workload for TagDesign {
    type Output = Designed;

    fn run(&mut self, i: u64) -> Designed {
        let cache = GeomCache::new();
        let tags = self
            .order(i)
            .into_iter()
            .map(|w| {
                let tag = self
                    .code
                    .encode_with(&cache, &word(w))
                    .unwrap_or_else(|e| unreachable!("a 4-bit word fits a 4-bit code: {e}"));
                (w, tag)
            })
            .collect();
        let profile = standard_profile_in(&cache, self.code.rows_per_stack);
        Designed {
            tags,
            profile,
            shaping_misses: cache.snapshot().kind(TableKind::Shaping).misses,
        }
    }

    fn check(&self, d: &Designed, digest: &mut Fnv) -> Checked {
        let same = |a: &[f64], b: &[f64]| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        };
        let mut by_word: Vec<&(usize, Tag)> = d.tags.iter().collect();
        by_word.sort_by_key(|(w, _)| *w);
        let tags_ok = by_word.len() == 16
            && by_word.iter().enumerate().all(|(k, (w, tag))| {
                *w == k && tag.bits() == word(k) && same(tag.stack_positions_m(), &self.expected[k])
            });
        for (_, tag) in &by_word {
            for &p in tag.stack_positions_m() {
                digest.f64(p);
            }
        }
        for &p in &d.profile.phases {
            digest.f64(p);
        }
        Checked {
            ok: tags_ok && d.shaping_misses == 1 && same(&d.profile.phases, &self.reference.phases),
            units: d.tags.len(),
        }
    }
}
