//! Robustness and invariant tests for the BNS-GCN core: sampling edge
//! cases, plan invariants under adversarial partitionings, and engine
//! behaviour on degenerate inputs.

use bns_data::{Labels, SyntheticSpec};
use bns_gcn::engine::{train, train_with_plan, ConfigError, Diverged, ModelArch, TrainConfig};
use bns_gcn::plan::PartitionPlan;
use bns_gcn::sampling::{build_epoch_topology, BoundarySampling};
use bns_partition::{Partitioner, Partitioning, RandomPartitioner};
use proptest::prelude::*;
use std::sync::Arc;

fn cfg(sampling: BoundarySampling) -> TrainConfig {
    TrainConfig {
        arch: ModelArch::Sage,
        hidden: vec![8],
        dropout: 0.0,
        lr: 0.01,
        epochs: 3,
        sampling,
        eval_every: 0,
        seed: 1,
        clip_norm: None,
        pipeline: false,
        workers: None,
        wire_precision: None,
    }
}

#[test]
fn validate_accepts_the_presets() {
    for c in [
        TrainConfig::quick_test(),
        TrainConfig::reddit(),
        TrainConfig::products(),
        TrainConfig::yelp(),
        cfg(BoundarySampling::Bns { p: 0.0 }),
        cfg(BoundarySampling::DropEdge { keep: 0.5 }),
    ] {
        assert_eq!(c.validate(), Ok(()));
    }
}

#[test]
fn validate_rejects_bad_dropout() {
    for rate in [1.0, 1.5, -0.1, f32::NAN, f32::INFINITY] {
        let c = TrainConfig {
            dropout: rate,
            ..cfg(BoundarySampling::Bns { p: 1.0 })
        };
        assert!(
            matches!(c.validate(), Err(ConfigError::Dropout(_))),
            "dropout {rate}"
        );
    }
}

#[test]
fn validate_rejects_bad_learning_rate() {
    for lr in [0.0, -0.01, f32::NAN, f32::INFINITY] {
        let c = TrainConfig {
            lr,
            ..cfg(BoundarySampling::Bns { p: 1.0 })
        };
        assert!(
            matches!(c.validate(), Err(ConfigError::LearningRate(_))),
            "lr {lr}"
        );
    }
}

#[test]
fn validate_rejects_zero_epochs() {
    let c = TrainConfig {
        epochs: 0,
        ..cfg(BoundarySampling::Bns { p: 1.0 })
    };
    assert_eq!(c.validate(), Err(ConfigError::NoEpochs));
}

#[test]
fn validate_rejects_bad_sampling_rate() {
    for p in [1.5, -0.2, f64::NAN] {
        for sampling in [
            BoundarySampling::Bns { p },
            BoundarySampling::BnsUnscaled { p },
        ] {
            assert!(
                matches!(cfg(sampling).validate(), Err(ConfigError::SamplingRate(_))),
                "{sampling:?}"
            );
        }
    }
}

/// `train_with_plan` checks at entry and panics with the typed error as
/// its payload, before any rank starts.
#[test]
fn train_with_plan_panics_with_the_config_error() {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(120).generate(1));
    let part = RandomPartitioner.partition(&ds.graph, 2, 1);
    let plan = Arc::new(PartitionPlan::build(&ds, &part));
    let bad = TrainConfig {
        dropout: 1.0,
        ..cfg(BoundarySampling::Bns { p: 1.0 })
    };
    let payload = std::panic::catch_unwind(|| train_with_plan(&plan, &bad))
        .expect_err("an invalid config must not train");
    assert_eq!(
        payload.downcast_ref::<ConfigError>(),
        Some(&ConfigError::Dropout(1.0))
    );
}

/// One NaN input feature on a training node makes epoch 0's global
/// loss NaN; every rank reads that from the all-reduce and the run
/// stops there with a typed payload, on any worker count. The model has
/// no hidden layer: a ReLU maps NaN to 0, so behind one the NaN would
/// reach the weights but not the loss.
#[test]
fn nan_feature_fails_fast_with_the_epoch() {
    let mut ds = SyntheticSpec::reddit_sim().with_nodes(120).generate(1);
    let node = ds.train[0];
    ds.features.row_mut(node)[0] = f32::NAN;
    let ds = Arc::new(ds);
    for k in [2usize, 3] {
        let part = RandomPartitioner.partition(&ds.graph, k, 1);
        let plan = Arc::new(PartitionPlan::build(&ds, &part));
        for workers in [1usize, 2] {
            let c = TrainConfig {
                hidden: Vec::new(),
                workers: Some(workers),
                ..cfg(BoundarySampling::Bns { p: 1.0 })
            };
            let payload = std::panic::catch_unwind(|| train_with_plan(&plan, &c))
                .expect_err("a NaN loss must not train on");
            let err = payload
                .downcast_ref::<Diverged>()
                .unwrap_or_else(|| panic!("k={k} workers={workers}: not a Diverged payload"));
            assert_eq!(err.epoch, 0, "k={k} workers={workers}");
            assert!(err.loss.is_nan());
        }
    }
}

/// A partitioning that isolates one node per partition plus a big rest
/// — the most skewed assignment possible.
#[test]
fn skewed_partitioning_trains() {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(200).generate(1));
    let mut assign = vec![0usize; 200];
    assign[0] = 1;
    assign[1] = 2;
    let part = Partitioning::new(assign, 3);
    let run = train(&ds, &part, &cfg(BoundarySampling::Bns { p: 0.5 }));
    assert_eq!(run.epochs.len(), 3);
    assert!(run.epochs.iter().all(|e| e.loss.is_finite()));
}

/// Training runs with every sampling strategy on the same plan.
#[test]
fn all_strategies_run() {
    let ds = Arc::new(SyntheticSpec::reddit_sim().with_nodes(300).generate(2));
    let part = RandomPartitioner.partition(&ds.graph, 3, 0);
    let plan = Arc::new(PartitionPlan::build(&ds, &part));
    for s in [
        BoundarySampling::Bns { p: 1.0 },
        BoundarySampling::Bns { p: 0.37 },
        BoundarySampling::Bns { p: 0.0 },
        BoundarySampling::BnsUnscaled { p: 0.37 },
        BoundarySampling::BoundaryEdge { keep: 0.4 },
        BoundarySampling::DropEdge { keep: 0.7 },
    ] {
        let run = train_with_plan(&plan, &cfg(s));
        assert!(
            run.epochs.iter().all(|e| e.loss.is_finite()),
            "{} produced non-finite loss",
            s.label()
        );
    }
}

/// Multi-label labels survive the plan's row gathering.
#[test]
fn plan_preserves_multilabel_rows() {
    let ds = SyntheticSpec::yelp_sim().with_nodes(300).generate(3);
    let part = RandomPartitioner.partition(&ds.graph, 3, 1);
    let plan = PartitionPlan::build(&ds, &part);
    let Labels::Multi(global) = &ds.labels else {
        panic!()
    };
    for p in &plan.parts {
        let Labels::Multi(local) = &p.labels else {
            panic!()
        };
        for (li, &v) in p.inner.iter().enumerate() {
            assert_eq!(local.row(li), global.row(v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Epoch topologies are structurally valid for arbitrary rates and
    /// partition counts: selected positions in range and strictly
    /// ascending, epoch graph sized exactly `n_in + |selected|`, and
    /// inner degrees never exceed the full local degrees.
    #[test]
    fn epoch_topology_invariants(p in 0.0f64..=1.0, k in 2usize..5, seed in 0u64..30) {
        let ds = SyntheticSpec::reddit_sim().with_nodes(250).generate(4);
        let part = RandomPartitioner.partition(&ds.graph, k, seed);
        let plan = PartitionPlan::build(&ds, &part);
        for lp in &plan.parts {
            let t = build_epoch_topology(lp, &BoundarySampling::Bns { p }, 0, seed);
            prop_assert_eq!(t.graph.num_nodes(), lp.n_inner() + t.selected.len());
            prop_assert!(t.graph.validate().is_ok());
            prop_assert!(t.selected.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(t.selected.iter().all(|&s| s < lp.n_boundary()));
            for v in 0..lp.n_inner() {
                prop_assert!(t.graph.degree(v) <= lp.local_graph.degree(v));
            }
            prop_assert_eq!(t.row_scale.len(), lp.n_inner());
            prop_assert_eq!(t.gcn_scale.len(), lp.n_inner() + t.selected.len());
        }
    }

    /// The plan's Eq. 3 data structures are consistent for arbitrary
    /// random partitionings.
    #[test]
    fn plan_invariants(k in 1usize..6, seed in 0u64..30) {
        let ds = SyntheticSpec::reddit_sim().with_nodes(200).generate(5);
        let part = RandomPartitioner.partition(&ds.graph, k, seed);
        let plan = PartitionPlan::build(&ds, &part);
        prop_assert!(plan.validate().is_ok());
        // Send lists and boundary blocks agree in total size.
        let total_sends: usize = plan
            .parts
            .iter()
            .map(|p| p.send_lists.iter().map(Vec::len).sum::<usize>())
            .sum();
        prop_assert_eq!(total_sends, plan.total_boundary());
    }
}
