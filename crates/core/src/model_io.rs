//! Serde-free binary serialization for [`TrainedModel`] — train once,
//! serve forever.
//!
//! The serving harness sweeps many cache/batch configurations over the
//! *same* trained weights; without a save/load path every sweep cell
//! would pay a full training run. The format is deliberately dumb: a
//! magic/version header, an architecture tag, then each layer's scalars
//! and matrices as little-endian fixed-width fields. No compression, no
//! pointers, no external crates — `to_bytes` and `from_bytes` round-trip
//! bitwise (weights are `f32`; bit patterns are preserved exactly, NaN
//! payloads included).
//!
//! The format is versioned: [`from_bytes`](TrainedModel::from_bytes)
//! rejects unknown versions/tags and layer-less models with a
//! descriptive [`ModelIoError`] instead of misinterpreting bytes.

use crate::engine::TrainedModel;
use bns_nn::{Activation, GatLayer, GcnLayer, Layer, ModelArch, SageLayer};
use bns_tensor::Matrix;
use std::fmt;

/// `b"BNSM"` — BNS-GCN model.
const MAGIC: [u8; 4] = *b"BNSM";
const VERSION: u32 = 1;

/// The architecture tags: a model's tag is its index here.
const ARCHS: [ModelArch; 3] = [ModelArch::Sage, ModelArch::Gat, ModelArch::Gcn];

const ACT_RELU: u8 = 0;
const ACT_IDENTITY: u8 = 1;
const ACT_LEAKY: u8 = 2;
const ACT_ELU: u8 = 3;

/// Decode failure: truncated buffer, bad magic, unknown version or tag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelIoError(String);

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model decode error: {}", self.0)
    }
}

impl std::error::Error for ModelIoError {}

fn err(msg: impl Into<String>) -> ModelIoError {
    ModelIoError(msg.into())
}

// ---------------------------------------------------------------- encode

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f32(buf: &mut Vec<u8>, v: f32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_matrix(buf: &mut Vec<u8>, m: &Matrix) {
    put_u32(buf, m.rows() as u32);
    put_u32(buf, m.cols() as u32);
    for &x in m.as_slice() {
        put_f32(buf, x);
    }
}

fn arch_tag(arch: ModelArch) -> u8 {
    ARCHS
        .iter()
        .position(|&a| a == arch)
        .expect("every arch has a tag") as u8
}

/// One layer: activation, dropout, GAT's attention slope, then the
/// parameter matrices in `Layer::for_each_param_grad` order.
fn put_layer(buf: &mut Vec<u8>, layer: &Layer) {
    let (act, dropout, slope, mats) = match layer {
        Layer::Sage(l) => (l.act, l.dropout, None, vec![&l.w_self, &l.w_neigh, &l.b]),
        Layer::Gat(l) => (
            l.act,
            l.dropout,
            Some(l.neg_slope),
            vec![&l.w, &l.a_l, &l.a_r],
        ),
        Layer::Gcn(l) => (l.act, l.dropout, None, vec![&l.w, &l.b]),
    };
    put_act(buf, act);
    put_f32(buf, dropout);
    if let Some(slope) = slope {
        put_f32(buf, slope);
    }
    for m in mats {
        put_matrix(buf, m);
    }
}

fn put_act(buf: &mut Vec<u8>, act: Activation) {
    match act {
        Activation::Relu => buf.push(ACT_RELU),
        Activation::Identity => buf.push(ACT_IDENTITY),
        Activation::LeakyRelu(slope) => {
            buf.push(ACT_LEAKY);
            put_f32(buf, slope);
        }
        Activation::Elu => buf.push(ACT_ELU),
    }
}

// ---------------------------------------------------------------- decode

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ModelIoError> {
        let end = self.pos.checked_add(n).filter(|&end| end <= self.buf.len());
        let Some(end) = end else {
            // Reader is model IO, reached only via a name-collision
            // edge (Option::take).
            // bns-allow(BNS-A005): error-path message formatting
            return Err(err(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.buf.len() - self.pos
            )));
        };
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ModelIoError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ModelIoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f32(&mut self) -> Result<f32, ModelIoError> {
        Ok(f32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn matrix(&mut self) -> Result<Matrix, ModelIoError> {
        let rows = self.u32()? as usize;
        let cols = self.u32()? as usize;
        let bytes = rows
            .checked_mul(cols)
            .and_then(|n| n.checked_mul(4))
            .ok_or_else(|| err("matrix shape overflow"))?;
        let raw = self.take(bytes)?;
        let data = raw
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        Ok(Matrix::from_vec(rows, cols, data))
    }

    fn act(&mut self) -> Result<Activation, ModelIoError> {
        match self.u8()? {
            ACT_RELU => Ok(Activation::Relu),
            ACT_IDENTITY => Ok(Activation::Identity),
            ACT_LEAKY => Ok(Activation::LeakyRelu(self.f32()?)),
            ACT_ELU => Ok(Activation::Elu),
            t => Err(err(format!("unknown activation tag {t}"))),
        }
    }

    /// The inverse of [`put_layer`] for a layer of `arch`.
    fn layer(&mut self, arch: ModelArch) -> Result<Layer, ModelIoError> {
        let (act, dropout) = (self.act()?, self.f32()?);
        Ok(match arch {
            ModelArch::Sage => Layer::Sage(SageLayer {
                act,
                dropout,
                w_self: self.matrix()?,
                w_neigh: self.matrix()?,
                b: self.matrix()?,
            }),
            ModelArch::Gat => Layer::Gat(GatLayer {
                act,
                dropout,
                neg_slope: self.f32()?,
                w: self.matrix()?,
                a_l: self.matrix()?,
                a_r: self.matrix()?,
            }),
            ModelArch::Gcn => Layer::Gcn(GcnLayer {
                act,
                dropout,
                w: self.matrix()?,
                b: self.matrix()?,
            }),
        })
    }
}

impl TrainedModel {
    /// Serializes the model to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        buf.push(arch_tag(self.layers[0].arch()));
        put_u32(&mut buf, self.layers.len() as u32);
        for l in &self.layers {
            put_layer(&mut buf, l);
        }
        buf
    }

    /// Decodes a model previously produced by
    /// [`to_bytes`](TrainedModel::to_bytes).
    pub fn from_bytes(bytes: &[u8]) -> Result<TrainedModel, ModelIoError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(err("bad magic (not a BNSM model file)"));
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(err(format!(
                "unsupported version {version} (supported: {VERSION})"
            )));
        }
        let tag = r.u8()?;
        let Some(&arch) = ARCHS.get(tag as usize) else {
            return Err(err(format!("unknown architecture tag {tag}")));
        };
        let n_layers = r.u32()? as usize;
        if n_layers == 0 {
            return Err(err("model has no layers"));
        }
        // Every layer takes at least one byte, so a hostile count can
        // reserve no more layers than the input has bytes left.
        let mut layers = Vec::with_capacity(n_layers.min(bytes.len() - r.pos));
        for _ in 0..n_layers {
            layers.push(r.layer(arch)?);
        }
        if r.pos != bytes.len() {
            return Err(err(format!(
                "{} trailing bytes after model",
                bytes.len() - r.pos
            )));
        }
        Ok(TrainedModel { layers })
    }

    /// Writes the model to a file.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a model from a file.
    pub fn load(path: &std::path::Path) -> std::io::Result<TrainedModel> {
        let bytes = std::fs::read(path)?;
        TrainedModel::from_bytes(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bns_tensor::SeededRng;

    fn sample_models() -> Vec<TrainedModel> {
        let mut rng = SeededRng::new(99);
        vec![
            TrainedModel::new(ModelArch::Sage, &[7, 5, 3], 0.3, &mut rng),
            TrainedModel::new(ModelArch::Gat, &[6, 4, 2], 0.1, &mut rng),
            TrainedModel::new(ModelArch::Gcn, &[5, 4, 3], 0.2, &mut rng),
        ]
    }

    /// FNV-1a (64-bit).
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Model files keep their bytes: a fixed seeded model of each
    /// architecture encodes to the length and FNV-1a hash recorded from
    /// the format's original one-arm-per-architecture encoder.
    #[test]
    fn encoding_matches_recorded_bytes() {
        let cases = [
            (
                ModelArch::Sage,
                [7, 5, 4, 3],
                0.3,
                101,
                684,
                0x8653_1501_bccc_7640,
            ),
            (
                ModelArch::Gat,
                [6, 5, 4, 2],
                0.1,
                102,
                432,
                0x5639_cb7a_1581_d01f,
            ),
            (
                ModelArch::Gcn,
                [5, 4, 4, 3],
                0.2,
                103,
                312,
                0x9393_96eb_0b7f_77f5,
            ),
        ];
        for (arch, dims, dropout, seed, len, hash) in cases {
            let model = TrainedModel::new(arch, &dims, dropout, &mut SeededRng::new(seed));
            let bytes = model.to_bytes();
            assert_eq!((bytes.len(), fnv1a(&bytes)), (len, hash), "{arch:?}");
        }
    }

    #[test]
    fn round_trip_all_architectures() {
        for model in sample_models() {
            let bytes = model.to_bytes();
            let back = TrainedModel::from_bytes(&bytes).unwrap();
            assert_eq!(model.num_layers(), back.num_layers());
            assert_eq!(model.num_classes(), back.num_classes());
            assert_eq!(model.feat_dim(), back.feat_dim());
            assert_eq!(model.layers(), back.layers());
            // Bitwise: every field is encoded, so equal bytes mean
            // equal bits.
            assert_eq!(back.to_bytes(), bytes);
        }
    }

    #[test]
    fn leaky_relu_slope_survives() {
        let mut rng = SeededRng::new(5);
        let layer = GcnLayer::new(3, 2, Activation::LeakyRelu(0.07), 0.0, &mut rng);
        let model = TrainedModel {
            layers: vec![Layer::Gcn(layer)],
        };
        let back = TrainedModel::from_bytes(&model.to_bytes()).unwrap();
        let Layer::Gcn(layer) = &back.layers()[0] else {
            panic!()
        };
        assert_eq!(layer.act, Activation::LeakyRelu(0.07));
    }

    #[test]
    fn rejects_corrupt_input() {
        let model = &sample_models()[0];
        let good = model.to_bytes();

        assert!(TrainedModel::from_bytes(&[]).is_err(), "empty");
        assert!(
            TrainedModel::from_bytes(&good[..good.len() - 1]).is_err(),
            "truncated"
        );
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(TrainedModel::from_bytes(&trailing).is_err(), "trailing");

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(TrainedModel::from_bytes(&bad_magic).is_err(), "magic");

        let mut bad_version = good.clone();
        bad_version[4] = 0xFF;
        assert!(TrainedModel::from_bytes(&bad_version).is_err(), "version");

        let mut no_layers = good[..13].to_vec();
        no_layers[9..13].copy_from_slice(&0u32.to_le_bytes());
        assert!(TrainedModel::from_bytes(&no_layers).is_err(), "no layers");

        let mut bad_arch = good;
        bad_arch[8] = 0xEE;
        assert!(TrainedModel::from_bytes(&bad_arch).is_err(), "arch tag");
    }

    #[test]
    fn hostile_shapes_and_truncations_are_errors_not_panics() {
        // A first matrix claiming u32::MAX x u32::MAX: the element count
        // fits a u64, its byte count does not.
        let mut huge = Vec::new();
        huge.extend_from_slice(&MAGIC);
        put_u32(&mut huge, VERSION);
        huge.push(arch_tag(ModelArch::Gcn));
        put_u32(&mut huge, 1);
        put_act(&mut huge, Activation::Relu);
        put_f32(&mut huge, 0.0);
        put_u32(&mut huge, u32::MAX);
        put_u32(&mut huge, u32::MAX);
        assert!(TrainedModel::from_bytes(&huge).is_err(), "huge matrix");

        // A layer count far beyond what the bytes could hold.
        let mut many = huge[..8].to_vec();
        many.push(arch_tag(ModelArch::Sage));
        put_u32(&mut many, u32::MAX);
        assert!(TrainedModel::from_bytes(&many).is_err(), "huge layer count");

        for model in sample_models() {
            let good = model.to_bytes();
            for len in 0..good.len() {
                assert!(
                    TrainedModel::from_bytes(&good[..len]).is_err(),
                    "truncation to {len} of {} bytes",
                    good.len()
                );
            }
        }
    }

    #[test]
    fn file_round_trip_and_load_errors() {
        let model = sample_models().remove(0);
        let dir = std::env::temp_dir();
        let path = dir.join("bns_model_io_test.bnsm");
        model.save(&path).unwrap();
        let back = TrainedModel::load(&path).unwrap();
        assert_eq!(back.num_classes(), model.num_classes());
        std::fs::remove_file(&path).unwrap();
        assert!(TrainedModel::load(&path).is_err(), "missing file");
    }
}
