//! The tape-free inference forward: Alg. 1's `Estimation` (M_O + M_E)
//! built once from a frozen model snapshot (DESIGN.md §11, §12).
//!
//! An [`InferencePlan`] holds what estimation reads — the embedding
//! tables, the external encoder's conv kernels and frozen batch-norm
//! statistics, and the three MLPs — and runs the forward pass directly on
//! the kernels the autodiff tape records (`matvec_bias_act`,
//! `conv2d_forward`, `Tensor::matmul`, the eval batch-norm formula), so
//! the f32 plan's answers are bit-identical to a tape evaluation without
//! allocating one. Linear layers are f32 (weights shared with the model's
//! parameter store, no copy) or per-row int8 ([`crate::quantized`]),
//! behind one small type.
//!
//! # The `ocode` memo
//!
//! At inference batch norm uses running statistics, so the external
//! features' code `ocode` (§4.5, Eq. 18) is a pure function of the
//! traffic matrix and the weather. The plan memoizes it keyed by
//! (speed-store slot, weather index); there are at most
//! `FeatureContext` slots × `NUM_WEATHER_TYPES` keys, and the memo never
//! holds more entries than that. Only the code vector is stored. Missing
//! codes are computed before the batch fans out and inserted on the
//! calling thread, so the fan-out reads the memo without locks. A
//! pre-encoded request is keyed only when its matrix is the context's
//! cached matrix for the slot it names; hand-built features bypass the
//! memo (computed per request, never inserted). A plan used with a
//! different [`FeatureContext`] drops its memo first.

use crate::features::{EncodedOd, FeatureContext};
use crate::model::{DeepOdModel, ModelError, PredictRequest, PredictResponse};
use crate::quantized::Int8Linear;
use deepod_nn::conv2d_forward;
use deepod_nn::layers::{BatchNorm2d, Linear, Mlp2};
use deepod_nn::ParamStore;
use deepod_tensor::{kernels, Activation, Tensor};
use deepod_traffic::NUM_WEATHER_TYPES;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Numeric precision of the plan's linear layers (`--precision`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precision {
    /// f32 weights shared with the model: bit-identical to the tape.
    F32,
    /// Per-row int8 weights for the three MLPs on the estimation path.
    Int8,
}

impl Precision {
    /// The command-line spelling (`f32` / `int8`).
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// A fully-connected layer `act(W x + b)` at either precision.
#[derive(Clone, Debug)]
enum PlanLinear {
    F32 { w: Arc<Tensor>, b: Arc<Tensor> },
    Int8(Int8Linear),
}

impl PlanLinear {
    fn new(store: &ParamStore, l: &Linear, precision: Precision) -> Self {
        match precision {
            Precision::F32 => PlanLinear::F32 {
                w: store.value_rc(l.w),
                b: store.value_rc(l.b),
            },
            Precision::Int8 => PlanLinear::Int8(Int8Linear::from_linear(store, l)),
        }
    }

    /// The f32 arm is the kernel call `Graph::linear_act` records.
    fn forward(&self, x: &[f32], act: Activation) -> Vec<f32> {
        match self {
            PlanLinear::F32 { w, b } => {
                let mut out = vec![0.0f32; b.numel()];
                kernels::matvec_bias_act(w.as_slice(), x, b.as_slice(), act, &mut out);
                out
            }
            PlanLinear::Int8(q) => q.forward(x, act),
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            PlanLinear::F32 { w, b } => (w.numel() + b.numel()) * 4,
            PlanLinear::Int8(q) => q.size_bytes(),
        }
    }
}

/// `W2 · ReLU(W1 x + b1) + b2`, as `Mlp2::forward` records it.
#[derive(Clone, Debug)]
struct PlanMlp2 {
    l1: PlanLinear,
    l2: PlanLinear,
}

impl PlanMlp2 {
    fn new(store: &ParamStore, mlp: &Mlp2, precision: Precision) -> Self {
        PlanMlp2 {
            l1: PlanLinear::new(store, &mlp.l1, precision),
            l2: PlanLinear::new(store, &mlp.l2, precision),
        }
    }

    fn forward(&self, x: &[f32]) -> Vec<f32> {
        let hidden = self.l1.forward(x, Activation::Relu);
        self.l2.forward(&hidden, Activation::Identity)
    }

    fn size_bytes(&self) -> usize {
        self.l1.size_bytes() + self.l2.size_bytes()
    }
}

/// Frozen batch-norm statistics for eval-mode application.
#[derive(Clone, Debug)]
struct BnEval {
    gamma: Vec<f32>,
    beta: Vec<f32>,
    mean: Vec<f32>,
    var: Vec<f32>,
    eps: f32,
}

impl BnEval {
    fn new(store: &ParamStore, bn: &BatchNorm2d) -> Self {
        BnEval {
            gamma: store.value(bn.gamma).as_slice().to_vec(),
            beta: store.value(bn.beta).as_slice().to_vec(),
            mean: bn.running_mean.clone(),
            var: bn.running_var.clone(),
            eps: bn.eps,
        }
    }

    /// In-place `relu(batch_norm(z))` over a `[c, h, w]` tensor: the
    /// arithmetic of `Graph::batch_norm` then `Graph::relu`, fused (the
    /// `max` of the identical value is exact).
    fn apply_relu(&self, z: &mut Tensor) {
        let hw = match z.dims() {
            [_, h, w] => (h * w).max(1),
            _ => return,
        };
        let stats = self
            .gamma
            .iter()
            .zip(&self.beta)
            .zip(self.mean.iter().zip(&self.var));
        for (plane, ((g, b), (mu, var))) in z.as_mut_slice().chunks_mut(hw).zip(stats) {
            let inv_std = 1.0 / (var + self.eps).sqrt();
            for v in plane {
                *v = (g * ((*v - mu) * inv_std) + b).max(0.0);
            }
        }
    }
}

/// The external-features encoder (§4.5) in eval mode.
#[derive(Clone, Debug)]
struct ExternalPlan {
    k1: Arc<Tensor>,
    k2: Arc<Tensor>,
    k3: Arc<Tensor>,
    bn1: BnEval,
    bn2: BnEval,
    bn3: BnEval,
    mlp: PlanMlp2,
}

impl ExternalPlan {
    /// `ocode` of `ExternalFeaturesEncoder::encode`: three
    /// Conv→BatchNorm→ReLU blocks, the global average pool as the same
    /// matmul against a constant `1/(h·w)` vector, then the MLP over
    /// `[weather one-hot, pooled]`.
    fn ocode(&self, weather_onehot: &[f32], speed_matrix: &Tensor) -> Result<Vec<f32>, ModelError> {
        if weather_onehot.len() != NUM_WEATHER_TYPES {
            return Err(ModelError::MalformedFeatures("weather one-hot width"));
        }
        let channels_match = matches!(
            (speed_matrix.dims(), self.k1.dims()),
            ([c, _, _], [_, kc, _, _]) if c == kc
        );
        if !channels_match {
            return Err(ModelError::MalformedFeatures("speed matrix shape"));
        }
        let mut z = conv2d_forward(speed_matrix, &self.k1);
        self.bn1.apply_relu(&mut z);
        let mut z = conv2d_forward(&z, &self.k2);
        self.bn2.apply_relu(&mut z);
        let mut z = conv2d_forward(&z, &self.k3);
        self.bn3.apply_relu(&mut z);

        let (c, hw) = match z.dims() {
            [c, h, w] => (*c, h * w),
            _ => return Err(ModelError::MalformedFeatures("speed matrix shape")),
        };
        let zm = z.reshape(&[c, hw]);
        let ones = Tensor::full(&[hw, 1], 1.0 / hw as f32);
        let pooled = zm.matmul(&ones);

        let mut z8 = Vec::with_capacity(NUM_WEATHER_TYPES + c);
        z8.extend_from_slice(weather_onehot);
        z8.extend_from_slice(pooled.as_slice());
        Ok(self.mlp.forward(&z8))
    }

    fn size_bytes(&self) -> usize {
        let conv: usize = [&self.k1, &self.k2, &self.k3]
            .iter()
            .map(|k| k.numel() * 4)
            .sum();
        conv + self.mlp.size_bytes()
    }
}

/// Memo key: a speed-store slot of the bound context and a weather index.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
struct OcodeKey {
    slot: usize,
    weather: usize,
}

/// The `ocode` memo of one plan (see the module docs).
#[derive(Clone, Debug, Default)]
struct OcodeMemo {
    /// Identity of the context whose slots number the keys.
    ctx_id: Option<u64>,
    /// Most entries ever held: the bound context's slots ×
    /// `NUM_WEATHER_TYPES`, i.e. the number of distinct keys.
    bound: usize,
    cache: HashMap<OcodeKey, Vec<f32>>,
}

impl OcodeMemo {
    /// Binds the memo to `ctx`, dropping entries keyed by another
    /// context's slots.
    fn bind(&mut self, ctx: &FeatureContext) {
        if self.ctx_id != Some(ctx.id()) {
            self.cache.clear();
            self.ctx_id = Some(ctx.id());
            self.bound = ctx.num_traffic_slots().saturating_mul(NUM_WEATHER_TYPES);
        }
    }

    fn get(&self, key: &OcodeKey) -> Option<&[f32]> {
        self.cache.get(key).map(Vec::as_slice)
    }

    fn insert(&mut self, key: OcodeKey, code: Vec<f32>) {
        if self.cache.len() < self.bound {
            // Bounded: keys are validated slots of the bound context ×
            // weather indices, and the guard above refuses growth past
            // that product, so the memo cannot outgrow the key space.
            // deepod-lint: allow(no-unbounded-cache)
            self.cache.insert(key, code);
        }
    }
}

/// The index of an exact one-hot (`0.0` everywhere but one `1.0`), as
/// [`FeatureContext::encode_od`] writes it; `None` for anything else.
fn onehot_index(v: &[f32]) -> Option<usize> {
    if v.len() != NUM_WEATHER_TYPES {
        return None;
    }
    const ONE: u32 = 1.0f32.to_bits();
    const ZERO: u32 = 0.0f32.to_bits();
    let mut hot = None;
    for (i, x) in v.iter().enumerate() {
        match x.to_bits() {
            ONE if hot.is_none() => hot = Some(i),
            ZERO => {}
            _ => return None,
        }
    }
    hot
}

/// Row `i` of a `[n, d]` embedding table.
fn embedding_row(table: &Tensor, i: usize) -> Result<&[f32], ModelError> {
    let d = table.dims().get(1).copied().unwrap_or(0);
    i.checked_mul(d)
        .and_then(|start| table.as_slice().get(start..start.checked_add(d)?))
        .ok_or(ModelError::MalformedFeatures(
            "embedding index out of range",
        ))
}

/// The tape-free estimation forward of one model snapshot, with its
/// `ocode` memo. Build it once ([`InferencePlan::new`]) and reuse it:
/// the memo persists across [`InferencePlan::estimate_batch`] calls.
#[derive(Clone, Debug)]
pub struct InferencePlan {
    precision: Precision,
    road_emb: Arc<Tensor>,
    slot_emb: Arc<Tensor>,
    /// Slot embedding (true) or the T-stamp ablation's raw timestamp.
    embeds_time: bool,
    /// Absent for the N-other ablation.
    external: Option<ExternalPlan>,
    od_mlp: PlanMlp2,
    head: PlanMlp2,
    y_mean: f32,
    y_std: f32,
    ocodes: OcodeMemo,
}

impl InferencePlan {
    /// Snapshots `model`'s estimation path (M_O + M_E) at `precision`.
    /// Later changes to the model (training steps) do not reach the plan.
    pub fn new(model: &DeepOdModel, precision: Precision) -> InferencePlan {
        let store = &model.store;
        let ext = &model.external_enc;
        let external = model.od_enc.uses_external().then(|| ExternalPlan {
            k1: store.value_rc(ext.k1),
            k2: store.value_rc(ext.k2),
            k3: store.value_rc(ext.k3),
            bn1: BnEval::new(store, &ext.bn1),
            bn2: BnEval::new(store, &ext.bn2),
            bn3: BnEval::new(store, &ext.bn3),
            mlp: PlanMlp2::new(store, &ext.mlp, precision),
        });
        InferencePlan {
            precision,
            road_emb: store.value_rc(model.road_emb.table),
            slot_emb: store.value_rc(model.slot_emb.table),
            embeds_time: model.od_enc.embeds_time(),
            external,
            od_mlp: PlanMlp2::new(store, &model.od_enc.mlp, precision),
            head: PlanMlp2::new(store, &model.head, precision),
            y_mean: model.y_mean,
            y_std: model.y_std,
            ocodes: OcodeMemo::default(),
        }
    }

    /// The precision the plan was built at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Bytes of weights the plan reads (reported by serving logs).
    pub fn size_bytes(&self) -> usize {
        let tables = (self.road_emb.numel() + self.slot_emb.numel()) * 4;
        let external = self.external.as_ref().map_or(0, ExternalPlan::size_bytes);
        tables + external + self.od_mlp.size_bytes() + self.head.size_bytes()
    }

    /// Batched online estimation, with the contract of
    /// [`DeepOdModel::estimate_batch`]: one result per request in request
    /// order, per-request failures, contiguous spans over `threads`
    /// workers (`0` = the configured default, clamped to the machine),
    /// and bit-identical answers for any `(threads, batch size)` and
    /// either memo state.
    pub fn estimate_batch(
        &mut self,
        ctx: &FeatureContext,
        net: &deepod_roadnet::RoadNetwork,
        reqs: &[PredictRequest],
        threads: usize,
    ) -> Vec<Result<PredictResponse, ModelError>> {
        if reqs.is_empty() {
            return Vec::new();
        }
        let mut t = deepod_tensor::parallel::resolve_threads(threads)
            .min(reqs.len())
            .max(1);
        if threads == 0 {
            // Default-threaded serving never fans out wider than the
            // machine; explicit thread counts are honored as requested.
            t = t.min(deepod_tensor::parallel::hardware_parallelism());
        }
        let keys: Vec<Option<OcodeKey>> = match self.external {
            Some(_) => {
                self.ocodes.bind(ctx);
                reqs.iter().map(|r| ocode_key(ctx, r)).collect()
            }
            None => vec![None; reqs.len()],
        };
        self.fill_ocodes(ctx, reqs, &keys, t);
        let plan = &*self;
        deepod_tensor::parallel::map_ranges(reqs.len(), t, |span| {
            // `map_ranges` only hands out in-bounds spans; an empty
            // slice (rather than a panic) is the right degradation if
            // that contract ever breaks.
            let span_keys = keys.get(span.clone()).unwrap_or(&[]);
            reqs.get(span)
                .unwrap_or(&[])
                .iter()
                .zip(span_keys)
                .map(|(r, k)| plan.answer(ctx, net, r, *k))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }

    /// Computes the batch's missing memo entries (fanned out over
    /// `threads` when there are several) and inserts them on the calling
    /// thread.
    fn fill_ocodes(
        &mut self,
        ctx: &FeatureContext,
        reqs: &[PredictRequest],
        keys: &[Option<OcodeKey>],
        threads: usize,
    ) {
        let Some(ext) = &self.external else {
            return;
        };
        let mut seen = HashSet::new();
        let missing: Vec<(OcodeKey, &PredictRequest)> = reqs
            .iter()
            .zip(keys)
            .filter_map(|(r, k)| k.map(|k| (k, r)))
            .filter(|(k, _)| self.ocodes.get(k).is_none() && seen.insert(*k))
            .collect();
        if missing.is_empty() {
            return;
        }
        let t = threads.min(missing.len()).max(1);
        let codes = deepod_tensor::parallel::map_ranges(missing.len(), t, |span| {
            missing
                .get(span)
                .unwrap_or(&[])
                .iter()
                .map(|(key, req)| match req {
                    PredictRequest::Raw(_) => {
                        let onehot: Vec<f32> = (0..NUM_WEATHER_TYPES)
                            .map(|i| if i == key.weather { 1.0 } else { 0.0 })
                            .collect();
                        ext.ocode(&onehot, &ctx.traffic_matrix(key.slot))
                    }
                    PredictRequest::Encoded(od) => ext.ocode(&od.weather_onehot, &od.speed_matrix),
                })
                .collect::<Vec<_>>()
        });
        for ((key, _), code) in missing.iter().zip(codes.into_iter().flatten()) {
            // A failed code is left out; the request recomputes it and
            // reports the error in its own slot.
            if let Ok(code) = code {
                self.ocodes.insert(*key, code);
            }
        }
    }

    /// Answers one request: feature extraction for raw ODs, then M_O
    /// with the memoized `ocode` when `key` has one, then M_E.
    fn answer(
        &self,
        ctx: &FeatureContext,
        net: &deepod_roadnet::RoadNetwork,
        req: &PredictRequest,
        key: Option<OcodeKey>,
    ) -> Result<PredictResponse, ModelError> {
        let encoded;
        let od = match req {
            PredictRequest::Raw(od) => {
                encoded = ctx
                    .encode_od(net, od)
                    .ok_or(ModelError::UnmatchedEndpoints)?;
                &encoded
            }
            PredictRequest::Encoded(od) => od,
        };
        let memo = key.and_then(|k| self.ocodes.get(&k));
        Ok(PredictResponse {
            eta_seconds: self.eval(od, memo)?,
        })
    }

    /// `Z⁹ → MLP1 → code → M_E` (Eq. 19–20), de-standardized: the
    /// arithmetic of `OdEncoder::encode` + the head.
    fn eval(&self, od: &EncodedOd, memo: Option<&[f32]>) -> Result<f32, ModelError> {
        let mut z9 = Vec::new();
        z9.extend_from_slice(embedding_row(&self.road_emb, od.origin_edge)?);
        z9.extend_from_slice(embedding_row(&self.road_emb, od.dest_edge)?);
        if self.embeds_time {
            z9.extend_from_slice(embedding_row(&self.slot_emb, od.depart_node)?);
        } else {
            z9.push(od.depart_raw);
        }
        if let Some(ext) = &self.external {
            match memo {
                Some(code) => z9.extend_from_slice(code),
                None => z9.extend(ext.ocode(&od.weather_onehot, &od.speed_matrix)?),
            }
        }
        z9.extend_from_slice(&[od.r_start, od.r_end, od.depart_rem]);
        let code = self.od_mlp.forward(&z9);
        let y = self.head.forward(&code).first().copied().unwrap_or(0.0);
        Ok((y * self.y_std + self.y_mean).max(0.0))
    }
}

/// The memo key of a request, or `None` when it must bypass the memo: a
/// raw OD reads the matrix of its departure slot; a pre-encoded one is
/// keyed only if its matrix is the context's cached matrix for the slot
/// it names and its weather is an exact one-hot.
fn ocode_key(ctx: &FeatureContext, req: &PredictRequest) -> Option<OcodeKey> {
    match req {
        PredictRequest::Raw(od) => {
            let weather = od.weather.idx();
            (weather < NUM_WEATHER_TYPES).then(|| OcodeKey {
                slot: ctx.traffic_slot(od.depart),
                weather,
            })
        }
        PredictRequest::Encoded(od) => {
            let slot = od.traffic_slot?;
            let weather = onehot_index(&od.weather_onehot)?;
            ctx.is_cached_matrix(slot, &od.speed_matrix)
                .then_some(OcodeKey { slot, weather })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::{EmbeddingInit, Variant};
    use crate::config::DeepOdConfig;
    use deepod_roadnet::CityProfile;
    use deepod_traffic::WeatherType;
    use deepod_traj::{CityDataset, DatasetBuilder, DatasetConfig, OdInput};
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// One small city (and its context) shared by every case.
    fn city() -> &'static (CityDataset, FeatureContext) {
        static CITY: OnceLock<(CityDataset, FeatureContext)> = OnceLock::new();
        CITY.get_or_init(|| {
            let ds =
                DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 40));
            let ctx = FeatureContext::build(&ds, DeepOdConfig::default().slot_seconds)
                .expect("valid slot size");
            (ds, ctx)
        })
    }

    /// A small random-init model; `bn_seed` perturbs the external
    /// encoder's running statistics so batch norm is not the identity.
    fn model(variant: Variant, init: EmbeddingInit, seed: u64, bn_seed: u32) -> DeepOdModel {
        let (ds, ctx) = city();
        let cfg = DeepOdConfig {
            init,
            variant,
            seed,
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
        let mut m = DeepOdModel::new(&cfg, ds, ctx).expect("valid test config");
        let ext = &mut m.external_enc;
        for (b, bn) in [&mut ext.bn1, &mut ext.bn2, &mut ext.bn3]
            .into_iter()
            .enumerate()
        {
            for c in 0..bn.channels {
                let h = (bn_seed as usize + 7 * b + 13 * c) % 17;
                bn.running_mean[c] = h as f32 * 0.05 - 0.4;
                bn.running_var[c] = 0.5 + h as f32 * 0.1;
            }
        }
        m
    }

    /// The tape oracle: `DeepOdModel::eval_encoded` per request.
    fn tape_answers(m: &DeepOdModel, reqs: &[PredictRequest]) -> Vec<Option<u32>> {
        let (ds, ctx) = city();
        let mut m = m.clone();
        reqs.iter()
            .map(|r| {
                let od = match r {
                    PredictRequest::Raw(od) => ctx.encode_od(&ds.net, od)?,
                    PredictRequest::Encoded(od) => od.clone(),
                };
                Some(m.eval_encoded(&od).to_bits())
            })
            .collect()
    }

    fn plan_answers(
        plan: &mut InferencePlan,
        reqs: &[PredictRequest],
        threads: usize,
    ) -> Vec<Option<u32>> {
        let (ds, ctx) = city();
        plan.estimate_batch(ctx, &ds.net, reqs, threads)
            .into_iter()
            .map(|r| r.ok().map(|p| p.eta_seconds.to_bits()))
            .collect()
    }

    /// A request mix over `picks`: raw ODs moved to other slots and
    /// weathers, context-encoded ones, and hand-built ones whose matrix
    /// is a copy (so they bypass the memo).
    fn requests(picks: &[(usize, u8, u8, u16)]) -> Vec<PredictRequest> {
        let (ds, ctx) = city();
        let day = 86_400.0;
        // One day of the dataset; `minute` picks the slot within it.
        let midnight = (ds.train[0].od.depart / day).floor() * day;
        picks
            .iter()
            .map(|&(order, form, weather, minute)| {
                let base = ds.train[order % ds.train.len()].od;
                let od = OdInput {
                    depart: midnight + f64::from(minute) * 60.0,
                    weather: WeatherType(weather % NUM_WEATHER_TYPES as u8),
                    ..base
                };
                match (form % 3, ctx.encode_od(&ds.net, &od)) {
                    (1, Some(enc)) => PredictRequest::Encoded(enc),
                    (2, Some(mut enc)) => {
                        enc.speed_matrix = Arc::new((*enc.speed_matrix).clone());
                        PredictRequest::Encoded(enc)
                    }
                    _ => PredictRequest::Raw(od),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn f32_plan_is_bit_identical_to_the_tape(
            variant in 0usize..3,
            seed in 0u64..1000,
            bn_seed in 0u32..100,
            threads_ix in 0usize..3,
            picks in proptest::collection::vec(
                (0usize..1000, 0u8..3, 0u8..255, 0u16..1440),
                1..=64,
            ),
        ) {
            let (variant, init) = [
                (Variant::Full, EmbeddingInit::Random),
                (Variant::NoExternal, EmbeddingInit::Random),
                (Variant::Full, EmbeddingInit::TimeStamp),
            ][variant];
            let threads = [1usize, 2, 4][threads_ix];
            let m = model(variant, init, seed, bn_seed);
            let reqs = requests(&picks);
            let want = tape_answers(&m, &reqs);
            let mut plan = InferencePlan::new(&m, Precision::F32);
            prop_assert_eq!(&plan_answers(&mut plan, &reqs, threads), &want, "cold memo");
            prop_assert_eq!(&plan_answers(&mut plan, &reqs, threads), &want, "warm memo");
            // Warm memo, reversed order, one request per call.
            for (r, w) in reqs.iter().zip(&want).rev() {
                let one = plan_answers(&mut plan, std::slice::from_ref(r), 1);
                prop_assert_eq!(&one, &vec![*w]);
            }
        }
    }

    #[test]
    fn memo_shares_one_code_per_slot_and_weather() {
        let (ds, ctx) = city();
        let m = model(Variant::Full, EmbeddingInit::Random, 1, 2);
        let mut plan = InferencePlan::new(&m, Precision::F32);
        // Six raw requests in one 5-min slot and one weather, two in
        // another weather: two memo entries.
        let picks: Vec<_> = (0..8).map(|i| (i, 0, u8::from(i >= 6), 480)).collect();
        let out = plan.estimate_batch(ctx, &ds.net, &requests(&picks), 2);
        assert!(out.iter().all(Result::is_ok));
        assert_eq!(plan.ocodes.cache.len(), 2);
        // N-other has no external branch and memoizes nothing.
        let m = model(Variant::NoExternal, EmbeddingInit::Random, 1, 2);
        let mut plan = InferencePlan::new(&m, Precision::F32);
        plan.estimate_batch(ctx, &ds.net, &requests(&picks), 2);
        assert_eq!(plan.ocodes.cache.len(), 0);
    }

    #[test]
    fn memo_never_grows_past_its_bound() {
        let (_, ctx) = city();
        let m = model(Variant::Full, EmbeddingInit::Random, 4, 9);
        let mut plan = InferencePlan::new(&m, Precision::F32);
        plan.ocodes.bind(ctx);
        assert_eq!(
            plan.ocodes.bound,
            ctx.num_traffic_slots() * NUM_WEATHER_TYPES
        );
        // Shrink the bound below the batch's distinct keys: inserts stop
        // at the bound and the overflow keys are answered without it.
        plan.ocodes.bound = 3;
        let picks: Vec<_> = (0..10u8).map(|i| (usize::from(i), 0, i, 480)).collect();
        let reqs = requests(&picks);
        let want = tape_answers(&m, &reqs);
        for _ in 0..2 {
            assert_eq!(plan_answers(&mut plan, &reqs, 2), want);
            assert_eq!(plan.ocodes.cache.len(), 3);
        }
        // Every key of the context fits exactly.
        let mut memo = OcodeMemo::default();
        memo.bind(ctx);
        for slot in 0..ctx.num_traffic_slots() + 2 {
            for weather in 0..NUM_WEATHER_TYPES {
                memo.insert(OcodeKey { slot, weather }, vec![0.0]);
            }
        }
        assert_eq!(memo.cache.len(), memo.bound);
    }

    #[test]
    fn foreign_speed_matrix_neither_hits_nor_poisons_the_memo() {
        let (ds, ctx) = city();
        let m = model(Variant::Full, EmbeddingInit::Random, 6, 3);
        let mut plan = InferencePlan::new(&m, Precision::F32);
        let od = OdInput {
            depart: 8.0 * 3600.0,
            ..ds.train[0].od
        };
        let genuine = ctx.encode_od(&ds.net, &od).expect("matches");
        let mut foreign = genuine.clone();
        // Same slot claimed, different matrix: a hand-built request.
        foreign.speed_matrix = Arc::new(Tensor::full(&[1, 12, 12], 0.05));
        let mut unnamed = genuine.clone();
        unnamed.traffic_slot = None;

        // Warm the memo with the genuine slot, then send the foreign one.
        let reqs = [
            PredictRequest::Encoded(genuine.clone()),
            PredictRequest::Encoded(foreign.clone()),
            PredictRequest::Encoded(unnamed),
            PredictRequest::Raw(od),
        ];
        let want = tape_answers(&m, &reqs);
        assert_ne!(want[0], want[1], "the foreign matrix must change ocode");
        assert_eq!(want[0], want[2]);
        assert_eq!(want[0], want[3]);
        assert_eq!(plan_answers(&mut plan, &reqs[..1], 1), want[..1]);
        assert_eq!(plan.ocodes.cache.len(), 1);
        assert_eq!(plan_answers(&mut plan, &reqs, 1), want);
        assert_eq!(plan.ocodes.cache.len(), 1);

        // A foreign request first must not seed the memo either.
        let mut plan = InferencePlan::new(&m, Precision::F32);
        assert_eq!(plan_answers(&mut plan, &reqs[1..2], 1), want[1..2]);
        assert_eq!(plan.ocodes.cache.len(), 0);
        assert_eq!(plan_answers(&mut plan, &reqs, 1), want);
    }

    #[test]
    fn memo_is_dropped_for_another_context() {
        let (ds, ctx) = city();
        let m = model(Variant::Full, EmbeddingInit::Random, 2, 8);
        let mut plan = InferencePlan::new(&m, Precision::F32);
        let reqs = requests(&[(0, 0, 0, 480)]);
        let first = plan.estimate_batch(ctx, &ds.net, &reqs, 1);
        let other = FeatureContext::build(ds, DeepOdConfig::default().slot_seconds)
            .expect("valid slot size");
        plan.ocodes
            .cache
            .values_mut()
            .for_each(|code| code.fill(f32::NAN));
        // The poisoned entries belong to `ctx`; `other` must not see them.
        assert_eq!(plan.estimate_batch(&other, &ds.net, &reqs, 1), first);
    }

    #[test]
    fn malformed_encoded_features_are_typed_errors() {
        let (ds, ctx) = city();
        let m = model(Variant::Full, EmbeddingInit::Random, 5, 1);
        let mut plan = InferencePlan::new(&m, Precision::F32);
        let good = ctx.encode_od(&ds.net, &ds.train[0].od).expect("matches");
        let mut wide = good.clone();
        wide.weather_onehot.push(0.0);
        let mut far = good.clone();
        far.origin_edge = usize::MAX;
        let out = plan.estimate_batch(
            ctx,
            &ds.net,
            &[
                PredictRequest::Encoded(wide),
                PredictRequest::Encoded(far),
                PredictRequest::Encoded(good),
            ],
            1,
        );
        assert!(matches!(out[0], Err(ModelError::MalformedFeatures(_))));
        assert!(matches!(out[1], Err(ModelError::MalformedFeatures(_))));
        assert!(out[2].is_ok());
    }

    #[test]
    fn onehot_index_accepts_only_exact_one_hots() {
        let mut v = vec![0.0f32; NUM_WEATHER_TYPES];
        assert_eq!(onehot_index(&v), None);
        v[3] = 1.0;
        assert_eq!(onehot_index(&v), Some(3));
        v[5] = 1.0;
        assert_eq!(onehot_index(&v), None);
        v[5] = 0.5;
        assert_eq!(onehot_index(&v), None);
        v[5] = -0.0;
        assert_eq!(onehot_index(&v), None);
        assert_eq!(onehot_index(&v[1..]), None);
    }
}
