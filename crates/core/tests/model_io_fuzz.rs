//! Fuzzing the model decoder: byte mutations and truncations of valid
//! SAGE, GCN and GAT model files. `TrainedModel::from_bytes` must
//! return an error or a model — never panic — and every model it
//! returns must encode back to exactly the bytes it was decoded from.

use bns_gcn::engine::{ModelArch, TrainedModel};
use bns_tensor::SeededRng;
use proptest::prelude::*;

const ARCHS: [ModelArch; 3] = [ModelArch::Sage, ModelArch::Gcn, ModelArch::Gat];

/// A small valid model file (so mutations often land in the header and
/// the shape fields), two layers deep so a hidden activation is in it.
fn blob(arch: ModelArch) -> Vec<u8> {
    TrainedModel::new(arch, &[3, 2, 2], 0.25, &mut SeededRng::new(11)).to_bytes()
}

/// Decodes `bytes`; a decoded model must re-encode to `bytes`.
fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(model) = TrainedModel::from_bytes(bytes) {
        prop_assert_eq!(model.to_bytes(), bytes.to_vec());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn mutated_and_truncated_blobs_decode_or_fail_cleanly(
        arch in 0usize..3,
        edits in proptest::collection::vec((0usize..4096, 0u8..=255), 1..6),
        cut in 0usize..4096,
        truncate in 0usize..2,
    ) {
        let mut bytes = blob(ARCHS[arch]);
        for (pos, byte) in edits {
            let at = pos % bytes.len();
            bytes[at] = byte;
        }
        if truncate == 1 {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        check(&bytes)?;
    }
}

#[test]
fn every_single_byte_edit_decodes_or_fails_cleanly() {
    for arch in ARCHS {
        let good = blob(arch);
        for at in 0..good.len() {
            for byte in [0x00, 0x01, 0x02, 0x03, 0x7f, 0x80, 0xfe, 0xff] {
                let mut bytes = good.clone();
                bytes[at] = byte;
                // The last four bytes are the final weight's last f32,
                // and every bit pattern is a weight.
                if at + 4 >= good.len() {
                    assert!(
                        TrainedModel::from_bytes(&bytes).is_ok(),
                        "{arch:?} byte {at}"
                    );
                }
                check(&bytes).unwrap_or_else(|e| panic!("{arch:?} byte {at} = {byte}: {e}"));
                check(&bytes[..at]).unwrap_or_else(|e| panic!("{arch:?} cut at {at}: {e}"));
            }
        }
    }
}
