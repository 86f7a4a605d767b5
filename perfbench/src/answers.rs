//! What a correct server answers, computed in-process with the public
//! inference entry point, and the model's accuracy on the test split.

use std::collections::HashMap;

use deepod_core::oracle::{OdKeyer, OracleKey};
use deepod_core::{DeepOdModel, FeatureContext, ModelError, PredictRequest, PredictResponse};
use deepod_serve::net::{self, render_reply, DecodedRequest};
use deepod_serve::{EngineReply, WireRequest};
use deepod_traj::CityDataset;

use crate::workload::Mix;

/// Side length of the serving cache's spatial key cells, metres (the
/// `deepod serve` cache tier's keyer).
pub const CACHE_CELL_M: f64 = 500.0;

/// The server's answer to each request, computed in-process: the
/// request is decoded exactly as the server decodes it
/// ([`net::decode_line`]) and run through
/// [`DeepOdModel::estimate_batch`].
fn estimates(
    model: &DeepOdModel,
    ctx: &FeatureContext,
    ds: &CityDataset,
    reqs: &[WireRequest],
) -> Result<Vec<Result<PredictResponse, ModelError>>, String> {
    let mut preds = Vec::with_capacity(reqs.len());
    for r in reqs {
        match net::decode_line(ds, &r.to_line()) {
            Some(Ok(decoded)) => preds.push(decoded.req),
            _ => return Err(format!("request {} does not decode", r.id)),
        }
    }
    Ok(model.estimate_batch(ctx, &ds.net, &preds, 0))
}

/// The wire line the server renders for a non-degraded answer.
fn reply_line(id: u64, result: &Result<PredictResponse, ModelError>) -> String {
    let reply = EngineReply {
        result: result.clone(),
        degraded: false,
    };
    render_reply(id, Ok(reply))
}

/// The reply lines each request may correctly receive.
///
/// * [`Mix::LiveSlot`] runs without a cache: exactly its own fresh reply.
/// * [`Mix::HotOd`] runs with the LRU cache keyed by (500 m cell pair,
///   slot): the fresh answer of any request in the run sharing its key.
pub fn expected_replies(
    model: &DeepOdModel,
    ctx: &FeatureContext,
    ds: &CityDataset,
    reqs: &[WireRequest],
    mix: Mix,
) -> Result<HashMap<u64, Vec<String>>, String> {
    // Exact repeats share one estimate.
    let mut distinct: HashMap<[u64; 5], usize> = HashMap::new();
    let mut unique: Vec<WireRequest> = Vec::new();
    let unique_of: Vec<usize> = reqs
        .iter()
        .map(|r| {
            let bits = [r.from.0, r.from.1, r.to.0, r.to.1, r.depart].map(f64::to_bits);
            *distinct.entry(bits).or_insert_with(|| {
                unique.push(*r);
                unique.len() - 1
            })
        })
        .collect();
    let fresh = estimates(model, ctx, ds, &unique)?;
    // Requests sharing a cache key (hot_od), as indices into `unique`.
    let mut peers_of: Vec<Vec<usize>> = (0..unique.len()).map(|u| vec![u]).collect();
    if mix == Mix::HotOd {
        let keyer = OdKeyer::for_network(&ds.net, CACHE_CELL_M, *ctx.slots());
        let keys: Vec<Option<OracleKey>> = unique
            .iter()
            .map(|r| match net::decode_line(ds, &r.to_line()) {
                Some(Ok(DecodedRequest {
                    req: PredictRequest::Raw(od),
                    ..
                })) => keyer.key_of(&od),
                _ => None,
            })
            .collect();
        let mut by_key: HashMap<OracleKey, Vec<usize>> = HashMap::new();
        for (u, k) in keys.iter().enumerate() {
            if let Some(k) = k {
                by_key.entry(*k).or_default().push(u);
            }
        }
        for (u, k) in keys.iter().enumerate() {
            if let Some(peers) = k.and_then(|k| by_key.get(&k)) {
                peers_of[u].clone_from(peers);
            }
        }
    }
    Ok(reqs
        .iter()
        .zip(&unique_of)
        .map(|(r, &u)| {
            let lines = peers_of[u]
                .iter()
                .map(|&p| reply_line(r.id, &fresh[p]))
                .collect();
            (r.id, lines)
        })
        .collect())
}

/// Accuracy on the test split, the paper's Table 4 metric.
#[derive(Clone, Copy, Debug)]
pub struct Accuracy {
    /// MAPE of the model, percent.
    pub mape_pct: f64,
    /// MAPE of always predicting the mean training travel time, percent.
    pub mean_predictor_mape_pct: f64,
    /// Test orders evaluated.
    pub n: usize,
}

/// MAPE of `model` on the test split via [`DeepOdModel::estimate_batch`],
/// beside the mean-predictor baseline, over the orders the model answers.
pub fn test_accuracy(
    model: &DeepOdModel,
    ctx: &FeatureContext,
    ds: &CityDataset,
) -> Result<Accuracy, String> {
    let reqs: Vec<PredictRequest> = ds.test.iter().map(|o| PredictRequest::Raw(o.od)).collect();
    let mean = ds.mean_train_travel_time() as f32;
    let mut model_pairs = Vec::new();
    let mut mean_pairs = Vec::new();
    for (o, resp) in ds
        .test
        .iter()
        .zip(model.estimate_batch(ctx, &ds.net, &reqs, 0))
    {
        if let Ok(resp) = resp {
            let actual = o.travel_time as f32;
            model_pairs.push(deepod_eval::PredPair {
                actual,
                predicted: resp.eta_seconds,
            });
            mean_pairs.push(deepod_eval::PredPair {
                actual,
                predicted: mean,
            });
        }
    }
    let mape = |pairs: &[deepod_eval::PredPair]| {
        deepod_eval::Metrics::from_pairs(pairs)
            .map(|m| f64::from(m.mape_pct))
            .map_err(|e| format!("computing MAPE: {e}"))
    };
    Ok(Accuracy {
        mape_pct: mape(&model_pairs)?,
        mean_predictor_mape_pct: mape(&mean_pairs)?,
        n: model_pairs.len(),
    })
}

impl Accuracy {
    /// The model must be finite and beat the mean predictor.
    pub fn check(&self) -> Result<(), String> {
        if self.mape_pct.is_finite() && self.mape_pct < self.mean_predictor_mape_pct {
            Ok(())
        } else {
            Err(format!(
                "test MAPE {:.2}% is not finite and below the mean predictor's {:.2}%",
                self.mape_pct, self.mean_predictor_mape_pct
            ))
        }
    }
}
