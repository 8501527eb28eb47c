//! Forward error correction for RoS messages.
//!
//! §8: *"Larger encoding capacity also allows for error correction
//! mechanisms to improve the reliability of decoding."* With ASK
//! stacks or multi-tag boards providing 7+ bits, a Hamming(7,4) code
//! corrects any single bit flipped by a fading coding peak — turning
//! the paper's 0.6% raw BER at 14 dB SNR into a ≈0.007% residual
//! word-error contribution.
//!
//! The implementation is the classic systematic Hamming(7,4) with the
//! parity bits in positions 1, 2, 4 (1-indexed), plus helpers to
//! protect arbitrary-length bit messages (nibble-chunked).

/// Typed FEC failure: malformed input to the codec, reported instead
/// of panicking so faulted decode paths degrade gracefully.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FecError {
    /// A coded stream whose length is not a multiple of 7.
    LengthNotMultipleOf7 {
        /// The offending length.
        len: usize,
    },
    /// Fewer coded blocks than the message needs.
    CodedTooShort {
        /// Blocks available.
        blocks: usize,
        /// Message bits requested.
        message_len: usize,
    },
}

impl std::fmt::Display for FecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FecError::LengthNotMultipleOf7 { len } => {
                write!(f, "coded length {len} is not a multiple of 7")
            }
            FecError::CodedTooShort {
                blocks,
                message_len,
            } => write!(
                f,
                "{blocks} coded block(s) cannot carry a {message_len}-bit message"
            ),
        }
    }
}

impl std::error::Error for FecError {}

/// Encodes the low 4 bits of `nibble` into 7 coded bits.
///
/// Bit layout (1-indexed): p1 p2 d1 p4 d2 d3 d4.
fn encode_nibble(nibble: u8) -> [bool; 7] {
    let d1 = nibble & 1 != 0;
    let d2 = nibble & 2 != 0;
    let d3 = nibble & 4 != 0;
    let d4 = nibble & 8 != 0;
    let p1 = d1 ^ d2 ^ d4;
    let p2 = d1 ^ d3 ^ d4;
    let p4 = d2 ^ d3 ^ d4;
    [p1, p2, d1, p4, d2, d3, d4]
}

/// Decodes 7 coded bits, correcting up to one flipped bit.
///
/// Returns `(nibble, corrected_position)` where `corrected_position`
/// is the 1-indexed bit the decoder fixed (or `None` if the syndrome
/// was clean). Two or more flips exceed the code's capability and
/// decode to a wrong nibble — that is inherent to Hamming(7,4).
pub fn hamming74_decode(mut code: [bool; 7]) -> (u8, Option<usize>) {
    let s1 = code[0] ^ code[2] ^ code[4] ^ code[6];
    let s2 = code[1] ^ code[2] ^ code[5] ^ code[6];
    let s4 = code[3] ^ code[4] ^ code[5] ^ code[6];
    let syndrome = usize::from(s1) | (usize::from(s2) << 1) | (usize::from(s4) << 2);
    let corrected = if syndrome != 0 {
        code[syndrome - 1] = !code[syndrome - 1];
        Some(syndrome)
    } else {
        None
    };
    let nibble = u8::from(code[2])
        | (u8::from(code[4]) << 1)
        | (u8::from(code[5]) << 2)
        | (u8::from(code[6]) << 3);
    (nibble, corrected)
}

/// Protects a bit message: chunks into nibbles (zero-padded) and
/// Hamming-encodes each. Output length is `7·⌈len/4⌉`.
///
/// ```
/// use ros_core::fec::{protect, recover};
/// let msg = [true, false, true, true];
/// let mut coded = protect(&msg);
/// coded[5] = !coded[5]; // channel error
/// let (back, fixed) = recover(&coded, 4).unwrap();
/// assert_eq!(back, msg.to_vec());
/// assert_eq!(fixed, 1);
/// ```
pub fn protect(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(7 * bits.len().div_ceil(4));
    for chunk in bits.chunks(4) {
        let mut nibble = 0u8;
        for (i, &b) in chunk.iter().enumerate() {
            if b {
                nibble |= 1 << i;
            }
        }
        out.extend_from_slice(&encode_nibble(nibble));
    }
    out
}

/// Recovers a protected message of original length `message_len`.
///
/// Returns `(bits, corrections)` — the decoded message and how many
/// bits were corrected across all blocks.
///
/// # Errors
/// [`FecError::LengthNotMultipleOf7`] for a torn coded stream (e.g.
/// after frame drops), [`FecError::CodedTooShort`] when fewer blocks
/// arrived than `message_len` needs.
pub fn recover(coded: &[bool], message_len: usize) -> Result<(Vec<bool>, usize), FecError> {
    if !coded.len().is_multiple_of(7) {
        return Err(FecError::LengthNotMultipleOf7 { len: coded.len() });
    }
    let blocks = coded.len() / 7;
    if blocks * 4 < message_len {
        return Err(FecError::CodedTooShort {
            blocks,
            message_len,
        });
    }
    let mut bits = Vec::with_capacity(message_len);
    let mut corrections = 0;
    for block in coded.chunks(7) {
        let mut arr = [false; 7];
        arr.copy_from_slice(block);
        let (nibble, fixed) = hamming74_decode(arr);
        if fixed.is_some() {
            corrections += 1;
        }
        for i in 0..4 {
            bits.push(nibble & (1 << i) != 0);
        }
    }
    bits.truncate(message_len);
    Ok((bits, corrections))
}

/// Residual word-error probability of one Hamming(7,4) block given a
/// raw bit error rate `ber`: the probability of ≥2 flips in 7 bits.
pub fn block_error_probability(ber: f64) -> f64 {
    let p = ber.clamp(0.0, 1.0);
    let q = 1.0 - p;
    let p0 = q.powi(7);
    let p1 = 7.0 * p * q.powi(6);
    1.0 - p0 - p1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nibbles_roundtrip() {
        for n in 0..16u8 {
            let code = encode_nibble(n);
            let (back, fixed) = hamming74_decode(code);
            assert_eq!(back, n);
            assert_eq!(fixed, None);
        }
    }

    #[test]
    fn every_single_flip_corrected() {
        for n in 0..16u8 {
            for flip in 0..7 {
                let mut code = encode_nibble(n);
                code[flip] = !code[flip];
                let (back, fixed) = hamming74_decode(code);
                assert_eq!(back, n, "nibble {n}, flip {flip}");
                assert_eq!(fixed, Some(flip + 1));
            }
        }
    }

    #[test]
    fn protect_recover_roundtrip() {
        let msg = [true, false, true, true, false, true];
        let coded = protect(&msg);
        assert_eq!(coded.len(), 14); // 2 blocks
        let (back, corrections) = recover(&coded, msg.len()).unwrap();
        assert_eq!(back, msg.to_vec());
        assert_eq!(corrections, 0);
    }

    #[test]
    fn protect_recover_with_channel_errors() {
        let msg = [true, true, false, false, true, false, true, true];
        let mut coded = protect(&msg);
        // One flip per block is fully correctable.
        coded[3] = !coded[3];
        coded[9] = !coded[9];
        let (back, corrections) = recover(&coded, msg.len()).unwrap();
        assert_eq!(back, msg.to_vec());
        assert_eq!(corrections, 2);
    }

    #[test]
    fn residual_error_math() {
        // At the paper's 14 dB operating point (raw BER 0.6%), a
        // protected block fails only when ≥2 of 7 bits flip.
        let residual = block_error_probability(0.006);
        assert!(residual < 8e-4, "residual {residual}");
        assert!(residual > 0.0);
        assert_eq!(block_error_probability(0.0), 0.0);
    }

    #[test]
    fn bad_coded_length_is_typed_error() {
        assert_eq!(
            recover(&[false; 6], 4),
            Err(FecError::LengthNotMultipleOf7 { len: 6 })
        );
    }

    #[test]
    fn short_coded_stream_is_typed_error() {
        // One 7-bit block carries 4 message bits, not 8.
        assert_eq!(
            recover(&[false; 7], 8),
            Err(FecError::CodedTooShort {
                blocks: 1,
                message_len: 8
            })
        );
    }

    #[test]
    fn errors_display_their_context() {
        let e = FecError::CodedTooShort {
            blocks: 1,
            message_len: 8,
        };
        assert!(e.to_string().contains("8-bit"));
        assert!(FecError::LengthNotMultipleOf7 { len: 6 }
            .to_string()
            .contains('6'));
    }
}
