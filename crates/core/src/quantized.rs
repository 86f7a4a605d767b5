//! Per-row int8 linear layers: the quantized half of the
//! [`crate::InferencePlan`]'s linear-layer type.
//!
//! An [`Int8Linear`] is derived from a trained [`Linear`] by
//! [`deepod_tensor::kernels::quantize_rows`]: int8 weights in the packed
//! panel layout [`kernels::pack_quantized`] produces, f32 accumulation,
//! scale+bias dequantization fused into the epilogue. The int8 plan
//! quantizes the three MLPs on the estimation path (the external
//! encoder's `ocode` MLP, MLP1 producing `code`, and the M_E head);
//! everything whose precision the prediction is sensitive to stays f32:
//! embeddings, conv kernels, batch-norm statistics, and the average pool.
//!
//! Accuracy is *gated*, not assumed: serving selects `--precision int8`
//! only after the eval-side precision gate confirms the MAPE delta vs the
//! f32 model is within the configured bound (see `deepod-eval`'s
//! `precision_gate` and DESIGN.md §12).
//!
//! # Determinism
//!
//! The int8 path inherits the kernel module's contract: every
//! accumulation is ascending-`k` f32 regardless of ISA, so predictions
//! are bit-stable across machines, thread counts, and batch sizes — the
//! same guarantee the f32 path gives, at a different (fixed) set of bits.

use deepod_nn::layers::Linear;
use deepod_nn::ParamStore;
use deepod_tensor::{kernels, Activation};

/// A fully-connected layer with per-row int8 weights in the packed panel
/// layout; bias stays f32 and is fused into the dequantization epilogue.
#[derive(Clone, Debug)]
pub(crate) struct Int8Linear {
    packed: Vec<i8>,
    scales: Vec<f32>,
    bias: Vec<f32>,
}

impl Int8Linear {
    /// Quantizes `l`'s current weights per row.
    pub(crate) fn from_linear(store: &ParamStore, l: &Linear) -> Self {
        let qr = kernels::quantize_rows(store.value(l.w).as_slice(), l.out_dim, l.in_dim);
        Int8Linear {
            packed: kernels::pack_quantized(&qr),
            scales: qr.scales,
            bias: store.value(l.b).as_slice().to_vec(),
        }
    }

    /// `act(Wq x + b)` into a fresh output vector.
    pub(crate) fn forward(&self, x: &[f32], act: Activation) -> Vec<f32> {
        let mut out = vec![0.0f32; self.bias.len()];
        kernels::matvec_i8_bias_act(&self.packed, &self.scales, &self.bias, x, act, &mut out);
        out
    }

    /// Bytes of weights, scales and bias.
    pub(crate) fn size_bytes(&self) -> usize {
        self.packed.len() + (self.scales.len() + self.bias.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use crate::ablation::{EmbeddingInit, Variant};
    use crate::config::DeepOdConfig;
    use crate::features::FeatureContext;
    use crate::model::{DeepOdModel, ModelError, PredictRequest};
    use crate::plan::{InferencePlan, Precision};
    use deepod_roadnet::CityProfile;
    use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig};

    fn tiny_setup_with(
        variant: Variant,
        init: EmbeddingInit,
    ) -> (CityDataset, FeatureContext, DeepOdModel) {
        let ds = DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40));
        let cfg = DeepOdConfig {
            init,
            variant,
            ds: 6,
            dt_dim: 6,
            d1m: 8,
            d2m: 6,
            d3m: 8,
            d4m: 6,
            d5m: 8,
            d6m: 6,
            d7m: 8,
            d9m: 8,
            dh: 8,
            dtraf: 4,
            ..DeepOdConfig::default()
        };
        let ctx = FeatureContext::build(&ds, cfg.slot_seconds).expect("valid slot size");
        let model = DeepOdModel::new(&cfg, &ds, &ctx).expect("valid test config");
        (ds, ctx, model)
    }

    fn tiny_setup() -> (CityDataset, FeatureContext, DeepOdModel) {
        tiny_setup_with(Variant::Full, EmbeddingInit::Random)
    }

    fn raw_reqs(ds: &CityDataset, n: usize) -> Vec<PredictRequest> {
        ds.train
            .iter()
            .take(n)
            .map(|o| PredictRequest::Raw(o.od))
            .collect()
    }

    fn bits(out: &[Result<crate::PredictResponse, ModelError>]) -> Vec<u32> {
        out.iter()
            .map(|r| r.as_ref().expect("matched").eta_seconds.to_bits())
            .collect()
    }

    #[test]
    fn quantized_predictions_track_f32_closely() {
        let (ds, ctx, model) = tiny_setup();
        let mut plan = InferencePlan::new(&model, Precision::Int8);
        let reqs = raw_reqs(&ds, 8);
        let f32_out = model.estimate_batch(&ctx, &ds.net, &reqs, 1);
        let i8_out = plan.estimate_batch(&ctx, &ds.net, &reqs, 1);
        assert_eq!(f32_out.len(), i8_out.len());
        for (a, b) in f32_out.iter().zip(&i8_out) {
            let (a, b) = (a.as_ref().expect("matched"), b.as_ref().expect("matched"));
            let rel = (a.eta_seconds - b.eta_seconds).abs() / a.eta_seconds.max(1.0);
            assert!(
                rel < 0.05,
                "int8 drifted {rel:.4} ({} vs {})",
                a.eta_seconds,
                b.eta_seconds
            );
            assert!(b.eta_seconds >= 0.0);
        }
    }

    #[test]
    fn quantized_is_bit_deterministic_across_threads_and_batches() {
        let (ds, ctx, model) = tiny_setup();
        let reqs = raw_reqs(&ds, 9);
        let serial = bits(
            &InferencePlan::new(&model, Precision::Int8).estimate_batch(&ctx, &ds.net, &reqs, 1),
        );
        for threads in [2usize, 3, 8] {
            let mut plan = InferencePlan::new(&model, Precision::Int8);
            let par = plan.estimate_batch(&ctx, &ds.net, &reqs, threads);
            assert_eq!(bits(&par), serial, "threads={threads}");
        }
        // One-by-one on a cold plan equals batched.
        for (i, req) in reqs.iter().enumerate() {
            let mut plan = InferencePlan::new(&model, Precision::Int8);
            let one = plan.estimate_batch(&ctx, &ds.net, std::slice::from_ref(req), 1);
            assert_eq!(bits(&one), vec![serial[i]]);
        }
    }

    #[test]
    fn unmatched_endpoints_fail_per_request() {
        let (ds, ctx, model) = tiny_setup();
        let mut plan = InferencePlan::new(&model, Precision::Int8);
        let good = ds.train[0].od;
        let mut bad = good;
        bad.origin = deepod_roadnet::Point::new(-1e7, -1e7);
        let out = plan.estimate_batch(
            &ctx,
            &ds.net,
            &[PredictRequest::Raw(good), PredictRequest::Raw(bad)],
            1,
        );
        assert!(out[0].is_ok());
        assert_eq!(out[1], Err(ModelError::UnmatchedEndpoints));
    }

    #[test]
    fn size_is_smaller_than_f32_mlps() {
        let (_ds, _ctx, model) = tiny_setup();
        let int8 = InferencePlan::new(&model, Precision::Int8);
        let f32_plan = InferencePlan::new(&model, Precision::F32);
        assert!(int8.size_bytes() > 0);
        assert!(int8.size_bytes() < f32_plan.size_bytes());
        assert!(f32_plan.size_bytes() <= model.size_bytes());
    }

    /// Answers of the former op-for-op `QuantizedModel` forward on fixed
    /// untrained models (first eight training ODs), pinned as `f32` bits
    /// before that forward was folded into the plan. The int8 plan must
    /// reproduce them exactly, on a cold and on a warm `ocode` memo.
    #[test]
    fn int8_plan_reproduces_pinned_quantized_answers() {
        let golden: [(Variant, EmbeddingInit, [u32; 8]); 3] = [
            (
                Variant::Full,
                EmbeddingInit::Random,
                [
                    0x43bc_e9cb,
                    0x43e9_b1dd,
                    0x43d7_4a75,
                    0x43d6_94fa,
                    0x43df_9a6c,
                    0x43e9_c0a4,
                    0x43de_16f9,
                    0x43c1_a5e2,
                ],
            ),
            (
                Variant::NoExternal,
                EmbeddingInit::Random,
                [
                    0x43d6_8f6c,
                    0x43dc_98b3,
                    0x43dd_4e4e,
                    0x43e2_b7be,
                    0x43e0_045b,
                    0x43e0_434e,
                    0x43d0_9e78,
                    0x43e9_cbfa,
                ],
            ),
            (
                Variant::Full,
                EmbeddingInit::TimeStamp,
                [
                    0x4483_a5f2,
                    0x44b0_8b8b,
                    0x44d4_d748,
                    0x4503_6754,
                    0x4512_9052,
                    0x4516_ebc9,
                    0x451a_d99f,
                    0x4535_f44d,
                ],
            ),
        ];
        for (variant, init, want) in golden {
            let (ds, ctx, model) = tiny_setup_with(variant, init);
            let mut plan = InferencePlan::new(&model, Precision::Int8);
            let reqs = raw_reqs(&ds, 8);
            for pass in ["cold", "warm"] {
                let got = bits(&plan.estimate_batch(&ctx, &ds.net, &reqs, 1));
                assert_eq!(got, want, "{variant:?}/{init:?} ({pass} memo)");
            }
        }
    }
}
