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
//! rejects unknown versions/tags with a descriptive [`ModelIoError`]
//! instead of misinterpreting bytes.

use crate::engine::TrainedModel;
use bns_nn::{Activation, GatLayer, GatModel, GcnLayer, SageLayer, SageModel};
use bns_tensor::Matrix;
use std::fmt;

/// `b"BNSM"` — BNS-GCN model.
const MAGIC: [u8; 4] = *b"BNSM";
const VERSION: u32 = 1;

const ARCH_SAGE: u8 = 0;
const ARCH_GAT: u8 = 1;
const ARCH_GCN: u8 = 2;

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
}

impl TrainedModel {
    /// Serializes the model to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC);
        put_u32(&mut buf, VERSION);
        match self {
            TrainedModel::Sage(m) => {
                buf.push(ARCH_SAGE);
                put_u32(&mut buf, m.layers.len() as u32);
                for l in &m.layers {
                    put_act(&mut buf, l.act);
                    put_f32(&mut buf, l.dropout);
                    put_matrix(&mut buf, &l.w_self);
                    put_matrix(&mut buf, &l.w_neigh);
                    put_matrix(&mut buf, &l.b);
                }
            }
            TrainedModel::Gat(m) => {
                buf.push(ARCH_GAT);
                put_u32(&mut buf, m.layers.len() as u32);
                for l in &m.layers {
                    put_act(&mut buf, l.act);
                    put_f32(&mut buf, l.dropout);
                    put_f32(&mut buf, l.neg_slope);
                    put_matrix(&mut buf, &l.w);
                    put_matrix(&mut buf, &l.a_l);
                    put_matrix(&mut buf, &l.a_r);
                }
            }
            TrainedModel::Gcn(layers) => {
                buf.push(ARCH_GCN);
                put_u32(&mut buf, layers.len() as u32);
                for l in layers {
                    put_act(&mut buf, l.act);
                    put_f32(&mut buf, l.dropout);
                    put_matrix(&mut buf, &l.w);
                    put_matrix(&mut buf, &l.b);
                }
            }
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
        let arch = r.u8()?;
        let n_layers = r.u32()? as usize;
        // Every layer takes at least one byte, so a hostile count can
        // reserve no more layers than the input has bytes left.
        let cap = n_layers.min(bytes.len() - r.pos);
        let model = match arch {
            ARCH_SAGE => {
                let mut layers = Vec::with_capacity(cap);
                for _ in 0..n_layers {
                    let act = r.act()?;
                    let dropout = r.f32()?;
                    layers.push(SageLayer {
                        act,
                        dropout,
                        w_self: r.matrix()?,
                        w_neigh: r.matrix()?,
                        b: r.matrix()?,
                    });
                }
                TrainedModel::Sage(SageModel { layers })
            }
            ARCH_GAT => {
                let mut layers = Vec::with_capacity(cap);
                for _ in 0..n_layers {
                    let act = r.act()?;
                    let dropout = r.f32()?;
                    let neg_slope = r.f32()?;
                    layers.push(GatLayer {
                        act,
                        dropout,
                        neg_slope,
                        w: r.matrix()?,
                        a_l: r.matrix()?,
                        a_r: r.matrix()?,
                    });
                }
                TrainedModel::Gat(GatModel { layers })
            }
            ARCH_GCN => {
                let mut layers = Vec::with_capacity(cap);
                for _ in 0..n_layers {
                    let act = r.act()?;
                    let dropout = r.f32()?;
                    layers.push(GcnLayer {
                        act,
                        dropout,
                        w: r.matrix()?,
                        b: r.matrix()?,
                    });
                }
                TrainedModel::Gcn(layers)
            }
            t => return Err(err(format!("unknown architecture tag {t}"))),
        };
        if r.pos != bytes.len() {
            return Err(err(format!(
                "{} trailing bytes after model",
                bytes.len() - r.pos
            )));
        }
        Ok(model)
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

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    fn sample_models() -> Vec<TrainedModel> {
        let mut rng = SeededRng::new(99);
        vec![
            TrainedModel::Sage(SageModel::new(&[7, 5, 3], 0.3, &mut rng)),
            TrainedModel::Gat(GatModel::new(&[6, 4, 2], 0.1, &mut rng)),
            TrainedModel::Gcn(vec![
                GcnLayer::new(5, 4, Activation::Relu, 0.2, &mut rng),
                GcnLayer::new(4, 3, Activation::Identity, 0.0, &mut rng),
            ]),
        ]
    }

    #[test]
    fn round_trip_all_architectures() {
        for model in sample_models() {
            let bytes = model.to_bytes();
            let back = TrainedModel::from_bytes(&bytes).unwrap();
            assert_eq!(model.num_layers(), back.num_layers());
            assert_eq!(model.num_classes(), back.num_classes());
            assert_eq!(model.feat_dim(), back.feat_dim());
            // Bitwise weight equality, architecture by architecture.
            match (&model, &back) {
                (TrainedModel::Sage(a), TrainedModel::Sage(b)) => {
                    for (la, lb) in a.layers.iter().zip(&b.layers) {
                        assert_eq!(la.act, lb.act);
                        assert_eq!(la.dropout.to_bits(), lb.dropout.to_bits());
                        assert_eq!(bits(&la.w_self), bits(&lb.w_self));
                        assert_eq!(bits(&la.w_neigh), bits(&lb.w_neigh));
                        assert_eq!(bits(&la.b), bits(&lb.b));
                    }
                }
                (TrainedModel::Gat(a), TrainedModel::Gat(b)) => {
                    for (la, lb) in a.layers.iter().zip(&b.layers) {
                        assert_eq!(la.act, lb.act);
                        assert_eq!(la.neg_slope.to_bits(), lb.neg_slope.to_bits());
                        assert_eq!(bits(&la.w), bits(&lb.w));
                        assert_eq!(bits(&la.a_l), bits(&lb.a_l));
                        assert_eq!(bits(&la.a_r), bits(&lb.a_r));
                    }
                }
                (TrainedModel::Gcn(a), TrainedModel::Gcn(b)) => {
                    for (la, lb) in a.iter().zip(b) {
                        assert_eq!(la.act, lb.act);
                        assert_eq!(bits(&la.w), bits(&lb.w));
                        assert_eq!(bits(&la.b), bits(&lb.b));
                    }
                }
                _ => panic!("architecture changed in round trip"),
            }
        }
    }

    #[test]
    fn leaky_relu_slope_survives() {
        let mut rng = SeededRng::new(5);
        let model = TrainedModel::Gcn(vec![GcnLayer::new(
            3,
            2,
            Activation::LeakyRelu(0.07),
            0.0,
            &mut rng,
        )]);
        let back = TrainedModel::from_bytes(&model.to_bytes()).unwrap();
        let TrainedModel::Gcn(layers) = back else {
            panic!()
        };
        assert_eq!(layers[0].act, Activation::LeakyRelu(0.07));
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
        huge.push(ARCH_GCN);
        put_u32(&mut huge, 1);
        put_act(&mut huge, Activation::Relu);
        put_f32(&mut huge, 0.0);
        put_u32(&mut huge, u32::MAX);
        put_u32(&mut huge, u32::MAX);
        assert!(TrainedModel::from_bytes(&huge).is_err(), "huge matrix");

        // A layer count far beyond what the bytes could hold.
        let mut many = huge[..8].to_vec();
        many.push(ARCH_SAGE);
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
