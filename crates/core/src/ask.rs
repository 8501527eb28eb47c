//! ASK (amplitude-shift-keyed) spatial coding — the §8 capacity
//! extension.
//!
//! §8: *"The RCS levels of each encoding bit '1' can be adjusted by
//! varying the number of PSVAAs within a stack. Multiple RCS levels
//! can enable ASK modulation which can improve the encoding capacity
//! by multi-folds."*
//!
//! An [`AskCode`] keeps the §5.2 slot geometry but mounts stacks of
//! *different row counts* in the slots: each slot carries
//! `log2(levels)` bits. A slot's coding-peak amplitude scales with its
//! stack's coherent row gain, so the decoder can discriminate the
//! levels — provided it has an amplitude reference. The first slot is
//! therefore always a **pilot** at the top level, and the remaining
//! `capacity − 1` slots carry data.
//!
//! With the paper's 4-slot geometry and 4 levels (0/8/16/32 rows),
//! the tag carries 3 data slots × 2 bits = **6 bits** in the footprint
//! that OOK limits to 4 — without growing the far-field distance.

use crate::encode::{EncodeError, SpatialCode};
use crate::tag::{Tag, TagStack};
use ros_antenna::shaping;
use ros_antenna::stack::PsvaaStack;
use ros_em::units::cast::AsF64;

/// An amplitude-shift-keyed spatial code.
#[derive(Clone, Debug, PartialEq)]
pub struct AskCode {
    /// Slot geometry (positions, δc, stack styling).
    pub geometry: SpatialCode,
    /// Rows per amplitude level, ascending; `level_rows[0]` must be 0
    /// (empty slot).
    pub level_rows: Vec<usize>,
}

impl AskCode {
    /// The paper-geometry 4-slot code with 4 amplitude levels
    /// (0 / 8 / 16 / 32 rows): 2 bits per slot, 1 pilot slot,
    /// 6 data bits total.
    pub fn four_level() -> Self {
        AskCode {
            geometry: SpatialCode::paper_4bit(),
            level_rows: vec![0, 8, 16, 32],
        }
    }

    /// Number of amplitude levels.
    pub fn n_levels(&self) -> usize {
        self.level_rows.len()
    }

    /// Bits carried per data slot.
    pub fn bits_per_slot(&self) -> f64 {
        (self.n_levels().as_f64()).log2()
    }

    /// Data symbols per tag (slots minus the pilot).
    pub fn data_slots(&self) -> usize {
        self.geometry.capacity_bits().saturating_sub(1)
    }

    /// Total data bits per tag.
    pub fn data_bits(&self) -> f64 {
        self.data_slots().as_f64() * self.bits_per_slot()
    }

    /// Relative coding-peak amplitude of a stack with `rows` rows,
    /// normalized to the top level.
    ///
    /// For beam-shaped stacks the flat-top *width* is held at ≈10°
    /// regardless of row count, so the drive-by-integrated coding-peak
    /// amplitude scales linearly with rows (each row contributes equal
    /// energy into the same angular window). For uniform stacks the
    /// boresight array factor is the row count, linear as well.
    pub fn relative_level_amplitude(&self, rows: usize) -> f64 {
        // A degenerate (empty) level table reads as a single level.
        let max_rows = self.level_rows.last().copied().unwrap_or(1).max(1);
        rows.as_f64() / max_rows.as_f64()
    }

    fn build_stack(&self, rows: usize) -> PsvaaStack {
        if self.geometry.beam_shaped && rows >= 2 {
            shaping::shaped_stack(rows)
        } else {
            PsvaaStack::uniform(rows.max(1))
        }
    }

    /// Encodes data symbols (`0..n_levels`) into a tag. The pilot slot
    /// (slot 1) is added automatically at the top level; `symbols`
    /// fills slots `2..=capacity`.
    ///
    /// # Errors
    /// [`EncodeError::WrongBitCount`] when `symbols.len()` differs from
    /// [`Self::data_slots`], [`EncodeError::SymbolOutOfRange`] when a
    /// symbol exceeds the level count, and [`EncodeError::NoLevels`]
    /// when the code has an empty level table.
    pub fn encode(&self, symbols: &[u8]) -> Result<Tag, EncodeError> {
        if symbols.len() != self.data_slots() {
            return Err(EncodeError::WrongBitCount {
                got: symbols.len(),
                expected: self.data_slots(),
            });
        }
        if let Some(&symbol) = symbols.iter().find(|&&s| usize::from(s) >= self.n_levels()) {
            return Err(EncodeError::SymbolOutOfRange {
                symbol,
                levels: self.n_levels(),
            });
        }

        let top = *self.level_rows.last().ok_or(EncodeError::NoLevels)?;
        let mut stacks = vec![TagStack {
            x_m: 0.0,
            stack: self.build_stack(top),
        }];
        let mut bits = Vec::new();

        // Pilot.
        stacks.push(TagStack {
            x_m: self.geometry.slot_position_m(1),
            stack: self.build_stack(top),
        });
        bits.push(true);

        for (i, &sym) in symbols.iter().enumerate() {
            let rows = self.level_rows[usize::from(sym)];
            bits.push(rows > 0);
            if rows > 0 {
                stacks.push(TagStack {
                    x_m: self.geometry.slot_position_m(i + 2),
                    stack: self.build_stack(rows),
                });
            }
        }

        Ok(Tag::from_stacks(self.geometry, stacks, bits))
    }

    /// Classifies normalized slot amplitudes into symbols.
    ///
    /// `slot_amplitudes` come from the OOK decoder
    /// ([`crate::decode::DecodeResult::slot_amplitudes`]) in bit order;
    /// slot 1 is the pilot. Returns the data symbols.
    pub fn classify(&self, slot_amplitudes: &[f64]) -> Vec<u8> {
        assert!(
            slot_amplitudes.len() >= self.geometry.capacity_bits(),
            "need one amplitude per slot"
        );
        let pilot = slot_amplitudes[0].max(1e-12);
        slot_amplitudes[1..self.geometry.capacity_bits()]
            .iter()
            .map(|&a| {
                let rel = a / pilot;
                // Nearest level in relative amplitude.
                let mut best = 0u8;
                let mut best_err = f64::INFINITY;
                for (lvl, &rows) in self.level_rows.iter().enumerate() {
                    let expect = self.relative_level_amplitude(rows);
                    let err = (rel - expect).abs();
                    if err < best_err {
                        best_err = err;
                        best = u8::try_from(lvl).unwrap_or(u8::MAX);
                    }
                }
                best
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, DecoderConfig};
    use crate::reader::{DriveBy, ReaderConfig};

    #[test]
    fn capacity_accounting() {
        let code = AskCode::four_level();
        assert_eq!(code.n_levels(), 4);
        assert_eq!(code.bits_per_slot(), 2.0);
        assert_eq!(code.data_slots(), 3);
        assert_eq!(code.data_bits(), 6.0);
    }

    #[test]
    fn level_amplitudes_monotone() {
        let code = AskCode::four_level();
        let amps: Vec<f64> = code
            .level_rows
            .iter()
            .map(|&r| code.relative_level_amplitude(r))
            .collect();
        assert_eq!(amps[0], 0.0);
        for w in amps.windows(2) {
            assert!(w[1] > w[0], "levels not monotone: {amps:?}");
        }
        assert!((amps[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn encode_builds_heterogeneous_stacks() {
        let code = AskCode::four_level();
        let tag = code.encode(&[3, 1, 2]).unwrap();
        // Reference + pilot + 3 data stacks.
        assert_eq!(tag.stacks().len(), 5);
        let rows: Vec<usize> = tag.stacks().iter().map(|s| s.stack.n_rows()).collect();
        assert_eq!(rows, vec![32, 32, 32, 8, 16]);
    }

    #[test]
    fn encode_zero_level_leaves_slot_empty() {
        let code = AskCode::four_level();
        let tag = code.encode(&[0, 3, 0]).unwrap();
        assert_eq!(tag.stacks().len(), 3); // reference + pilot + one data
    }

    #[test]
    fn wrong_symbol_count_rejected() {
        let code = AskCode::four_level();
        assert!(code.encode(&[1, 2]).is_err());
    }

    #[test]
    fn out_of_range_symbol_is_an_error() {
        let err = AskCode::four_level().encode(&[4, 0, 0]).unwrap_err();
        assert_eq!(
            err,
            EncodeError::SymbolOutOfRange {
                symbol: 4,
                levels: 4
            }
        );
    }

    #[test]
    fn ask_roundtrip_over_the_air() {
        // Full physics roundtrip: encode symbols, drive by, decode the
        // slot amplitudes, classify back.
        let code = AskCode::four_level();
        for symbols in [[3u8, 1, 2], [2, 3, 1], [1, 2, 3], [3, 0, 2]] {
            let tag = code.encode(&symbols).unwrap();
            let mut drive = DriveBy::new(tag, 3.0).with_seed(7000 + symbols[0] as u64);
            drive.half_span_m = 8.0;
            let outcome = drive.run(&ReaderConfig::fast());
            let dec = decode(
                &outcome.rss_trace,
                ros_em::Vec3::new(0.0, 3.0, 1.0),
                0.0,
                &code.geometry,
                &DecoderConfig::default(),
            )
            .unwrap();
            let got = code.classify(&dec.slot_amplitudes);
            assert_eq!(got, symbols.to_vec(), "amps {:?}", dec.slot_amplitudes);
        }
    }
}
