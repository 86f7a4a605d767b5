//! The traced run: the same generated inputs replayed in-process, with
//! each layer's public entry point timed from here. Spans live in this
//! file only, around calls into the program; the program itself is not
//! instrumented. End-to-end numbers never come from this run.

use std::sync::Arc;
use std::time::Instant;

use deepod_core::obs::registry;
use deepod_core::oracle::OdKeyer;
use deepod_core::{
    DeepOdModel, EncodedOd, FeatureContext, PredictRequest, PredictResponse, Trainer,
};
use deepod_nn::{AdamOptimizer, Gradients, Graph};
use deepod_serve::cache::now_epoch_s;
use deepod_serve::net::{self, NetConfig, NetServer};
use deepod_serve::{
    Backend, CacheConfig, EngineConfig, EngineReply, InferenceEngine, ServeCache, WireRequest,
};
use deepod_traj::CityDataset;

use crate::answers::{expected_replies, CACHE_CELL_M};
use crate::check::replies_match;
use crate::e2e::{phase_len, Driver, HOT_OD_CACHE, RATES};
use crate::loadgen::{InProcess, PhaseStats, Tcp};
use crate::workload::{slot_reuse, DatasetFile, Inputs, Mix, RequestSource};
use crate::{stats, train, Metrics, RunSpec};

/// Requests each layer is timed on.
const LAYER_SAMPLES: usize = 256;
/// Training samples the per-step training layers are timed on.
const TRAIN_SAMPLES: usize = 64;

/// Seconds `f` takes, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// Median of `f` over `items`, microseconds per call.
fn median_us<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    let times = items.iter().map(|x| {
        let t = Instant::now();
        f(x);
        t.elapsed().as_secs_f64() * 1e6
    });
    stats::median(times.collect::<Vec<_>>()).unwrap_or(f64::NAN)
}

fn p50_us(st: &PhaseStats) -> Result<f64, String> {
    st.p50_ms
        .map(|ms| ms * 1e3)
        .ok_or_else(|| "traced phase has no answered requests".to_string())
}

/// Runs the traced measurement.
pub fn run(spec: &RunSpec, inputs: &Inputs, metrics: &mut Metrics) -> Result<(), String> {
    // ---- setup: the four steps of a server cold start -----------------
    let text =
        std::fs::read_to_string(&inputs.data).map_err(|e| format!("reading dataset: {e}"))?;
    let (parse_s, file) = timed(|| serde_json::from_str::<DatasetFile>(&text));
    let ds = Arc::new(
        file.map_err(|e| format!("parsing dataset: {e}"))?
            .into_dataset(),
    );
    let json = std::fs::read_to_string(&inputs.model).map_err(|e| format!("reading model: {e}"))?;
    let (load_s, model) = timed(|| DeepOdModel::load_json(&json));
    let model = model.map_err(|e| format!("loading model: {e}"))?;
    let slot_s = model.config.slot_seconds;
    let (ctx_s, ctx) = timed(|| FeatureContext::build(&ds, slot_s));
    let ctx = ctx.map_err(|e| e.to_string())?;
    let cache = if spec.mix == Mix::HotOd {
        let keyer = OdKeyer::for_network(&ds.net, CACHE_CELL_M, *ctx.slots());
        let cfg = CacheConfig {
            capacity: HOT_OD_CACHE,
            ttl_seconds: 300.0,
            shards: 1,
        };
        Some(Arc::new(
            ServeCache::new(keyer, None, cfg).map_err(|e| e.to_string())?,
        ))
    } else {
        None
    };
    let backend = Backend::Model(Box::new(model.clone()));
    let engine_ds = Arc::clone(&ds);
    let (engine_s, engine) = timed(|| {
        InferenceEngine::start_with_cache(
            backend,
            None,
            cache,
            ctx,
            engine_ds,
            EngineConfig::default(),
        )
    });
    metrics.server_command = "in-process InferenceEngine + NetServer on 127.0.0.1:0".into();
    metrics.put("setup.dataset_parse_s", parse_s, "s");
    metrics.put("setup.model_load_s", load_s, "s");
    metrics.put("setup.feature_context_s", ctx_s, "s");
    metrics.put("setup.engine_start_s", engine_s, "s");

    // ---- serving: the same schedule over TCP and in-process ------------
    let engine = Arc::new(engine);
    let server = NetServer::start(
        Arc::clone(&engine),
        Arc::clone(&ds),
        "127.0.0.1:0",
        NetConfig::default(),
    )
    .map_err(|e| format!("binding: {e}"))?;
    let mut source = RequestSource::new(&ds, spec.mix, spec.seed);
    let lanes = crate::provenance::nproc();
    let n250 = phase_len(RATES[0], spec.seconds as f64, 0.3);
    let tcp = Tcp {
        addr: server.local_addr(),
    };
    let mut over_tcp = Driver::new(&tcp, lanes, &mut source, spec.seed);
    over_tcp.phase(400.0, 200)?;
    let tcp250 = over_tcp.phase(RATES[0], n250)?.stats();
    let (mut sent, mut replies) = (over_tcp.sent, over_tcp.replies);
    let inproc = InProcess {
        engine: Arc::clone(&engine),
        ds: Arc::clone(&ds),
    };
    let mut in_process = Driver::new(&inproc, lanes, &mut source, spec.seed ^ 1);
    let local = in_process.phase(RATES[0], n250)?;
    // Only requests the model answers wait for a batch; on `hot_od` the
    // median request is a cache hit.
    let model_rtt_us = in_process.model_p50_ms(&local)? * 1e3;
    let local250 = local.stats();
    sent.extend(in_process.sent);
    replies.extend(in_process.replies);
    let snap = registry::snapshot();
    server.shutdown();
    drop(inproc);
    if let Ok(engine) = Arc::try_unwrap(engine) {
        engine.shutdown();
    }

    // The engine owns its context; the checks and layer timings get their
    // own, built the same way.
    let ctx = FeatureContext::build(&ds, slot_s).map_err(|e| e.to_string())?;
    let expected = expected_replies(&model, &ctx, &ds, &sent, spec.mix)?;
    replies_match(&expected, &replies)?;
    metrics.attempted = tcp250.attempted + local250.attempted;
    metrics.failed = tcp250.failed + local250.failed;

    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let batch = snap.histograms.get("serve.batch_size");
    let batch_mean = batch.map_or(f64::NAN, |h| h.sum / h.count.max(1) as f64);
    let lookups = counter("serve.cache_hits") + counter("serve.cache_misses");
    let lateness = [tcp250, local250]
        .iter()
        .filter_map(|s| s.lateness_p99_ms)
        .fold(0.0f64, f64::max);
    let rtt_us = p50_us(&local250)?;
    metrics.put("loadgen.lateness_p99_ms", lateness, "ms");
    metrics.put("net.overhead_p50_us", p50_us(&tcp250)? - rtt_us, "us");
    metrics.put(
        "net.inflight_rejects",
        counter("serve.net_inflight_rejected"),
        "count",
    );
    metrics.put(
        "cache.hit_ratio",
        if lookups > 0.0 {
            counter("serve.cache_hits") / lookups
        } else {
            0.0
        },
        "ratio",
    );
    metrics.put("engine.rtt_p50_us.at250", rtt_us, "us");
    metrics.put("engine.batch_size_mean", batch_mean, "count");
    metrics.put("features.slot_reuse", slot_reuse(&sent), "count");

    // ---- layers of one request ----------------------------------------
    let sample: Vec<WireRequest> = sent.iter().take(LAYER_SAMPLES).copied().collect();
    let lines: Vec<String> = sample.iter().map(WireRequest::to_line).collect();
    metrics.put(
        "protocol.parse_us",
        median_us(&lines, |l| drop(net::decode_line(&ds, l))),
        "us",
    );
    let preds: Vec<PredictRequest> = lines
        .iter()
        .filter_map(|l| match net::decode_line(&ds, l) {
            Some(Ok(d)) => Some(d.req),
            _ => None,
        })
        .collect();
    let ods: Vec<deepod_traj::OdInput> = preds
        .iter()
        .filter_map(|p| match p {
            PredictRequest::Raw(od) => Some(*od),
            PredictRequest::Encoded(_) => None,
        })
        .collect();
    let encoded: Vec<EncodedOd> = ods
        .iter()
        .filter_map(|od| ctx.encode_od(&ds.net, od))
        .collect();
    if encoded.is_empty() || encoded.len() != preds.len() {
        return Err("a traced request does not encode".into());
    }
    let batch_n = (batch_mean.round() as usize).clamp(1, 64);
    let layers = request_layers(&model, &ctx, &ds, &preds, &encoded, batch_n);
    metrics.put("engine.wait_p50_us", model_rtt_us - layers.batch_us, "us");
    metrics.put("features.encode_od_us", layers.encode_us, "us");
    metrics.put("external_encoder.encode_us", layers.external_us, "us");
    metrics.put(
        "external_encoder.share",
        layers.external_us / layers.b1_us,
        "ratio",
    );
    metrics.put(
        "od_encoder.self_us",
        layers.od_total_us - layers.external_us,
        "us",
    );
    metrics.put("head.forward_us", layers.head_us, "us");
    metrics.put("nn.tape_nodes", layers.tape_nodes, "count");
    metrics.put(
        "nn.tape_overhead_us",
        layers.b1_us - layers.encode_us - layers.od_total_us - layers.head_us,
        "us",
    );
    metrics.put("model.estimate_us.b1", layers.b1_us, "us");
    metrics.put("model.estimate_us.b64", layers.b64_us, "us");
    let (flops, bytes) = conv_cost(&model, &encoded[0]);
    metrics.put("tensor.conv2d_flops", flops, "flop.computed");
    metrics.put("tensor.conv2d_bytes", bytes, "B.computed");
    let answers: Vec<EngineReply> = sample
        .iter()
        .map(|r| EngineReply {
            result: Ok(PredictResponse {
                eta_seconds: r.depart as f32 % 1000.0,
            }),
            degraded: false,
        })
        .collect();
    let render_us = median_us(&answers, |a| drop(net::render_reply(7, Ok(a.clone()))));
    metrics.put("protocol.render_us", render_us, "us");
    let (lookup_us, insert_us) = cache_ops(&ctx, &ds, &ods)?;
    metrics.put("cache.lookup_us", lookup_us, "us");
    metrics.put("cache.insert_us", insert_us, "us");

    train_layers(&ds, metrics)
}

/// Per-request medians of the model's layers. Every layer is timed on
/// each request in turn, round after round, so all of them see the same
/// host conditions and their differences stay meaningful.
struct RequestLayers {
    encode_us: f64,
    external_us: f64,
    od_total_us: f64,
    head_us: f64,
    tape_nodes: f64,
    b1_us: f64,
    b64_us: f64,
    batch_us: f64,
}

/// Rounds of per-request layer timing.
const LAYER_ROUNDS: usize = 5;

fn request_layers(
    model: &DeepOdModel,
    ctx: &FeatureContext,
    ds: &CityDataset,
    preds: &[PredictRequest],
    encoded: &[EncodedOd],
    batch_n: usize,
) -> RequestLayers {
    let mut m = model.clone();
    let mut t: [Vec<f64>; 8] = Default::default();
    let us = |s: f64| s * 1e6;
    for _ in 0..LAYER_ROUNDS {
        for (chunk, encs) in preds.chunks(64).zip(encoded.chunks(64)) {
            if chunk.len() == 64 {
                let (s, _) = timed(|| model.estimate_batch(ctx, &ds.net, chunk, 1));
                t[6].push(us(s) / 64.0);
            }
            // The engine's batch call: default threads, mean batch size.
            let batch = &chunk[..batch_n.min(chunk.len())];
            let (s, _) = timed(|| model.estimate_batch(ctx, &ds.net, batch, 0));
            t[7].push(us(s));
            for (p, od) in chunk.iter().zip(encs) {
                if let PredictRequest::Raw(raw) = p {
                    let (s, _) = timed(|| ctx.encode_od(&ds.net, raw));
                    t[0].push(us(s));
                }
                let mut g = Graph::new();
                let (s, _) = timed(|| {
                    m.external_enc.encode(
                        &mut g,
                        &m.store,
                        &od.weather_onehot,
                        &od.speed_matrix,
                        false,
                    )
                });
                t[1].push(us(s));
                let mut g = Graph::new();
                let (s, code) = timed(|| {
                    m.od_enc.encode(
                        &mut g,
                        &m.store,
                        &m.road_emb,
                        &m.slot_emb,
                        &mut m.external_enc,
                        od,
                        false,
                    )
                });
                t[2].push(us(s));
                let (s, y) = timed(|| m.head.forward(&mut g, &m.store, code));
                t[3].push(us(s));
                std::hint::black_box(g.value(y).item());
                t[4].push(g.len() as f64);
                let (s, _) =
                    timed(|| model.estimate_batch(ctx, &ds.net, std::slice::from_ref(p), 1));
                t[5].push(us(s));
            }
        }
    }
    let [encode, ext, od_total, head, nodes, b1, b64, batch] =
        t.map(|v| stats::median(v).unwrap_or(f64::NAN));
    RequestLayers {
        encode_us: encode,
        external_us: ext,
        od_total_us: od_total,
        head_us: head,
        tape_nodes: nodes,
        b1_us: b1,
        b64_us: b64,
        batch_us: batch,
    }
}

/// Multiply-add flops and bytes touched (inputs, kernel, output at 4
/// bytes each) of the external encoder's three convolutions for one
/// request, computed from tensor shapes rather than measured.
fn conv_cost(model: &DeepOdModel, od: &EncodedOd) -> (f64, f64) {
    let ext = &model.external_enc;
    let mut x = (*od.speed_matrix).clone();
    let (mut flops, mut bytes) = (0.0, 0.0);
    for k in [ext.k1, ext.k2, ext.k3] {
        let kernel = model.store.value(k);
        let out = deepod_nn::conv2d_forward(&x, kernel);
        let per_out = (kernel.dim(1) * kernel.dim(2) * kernel.dim(3)) as f64;
        flops += 2.0 * per_out * out.numel() as f64;
        bytes += 4.0 * (x.numel() + kernel.numel() + out.numel()) as f64;
        x = out;
    }
    (flops, bytes)
}

/// Median lookup and insert times of a standalone LRU tier configured
/// like the `hot_od` server's, on the traced requests' keys.
fn cache_ops(
    ctx: &FeatureContext,
    ds: &CityDataset,
    ods: &[deepod_traj::OdInput],
) -> Result<(f64, f64), String> {
    let keyer = OdKeyer::for_network(&ds.net, CACHE_CELL_M, *ctx.slots());
    let cfg = CacheConfig {
        capacity: HOT_OD_CACHE,
        ttl_seconds: 300.0,
        shards: 1,
    };
    let cache = ServeCache::new(keyer, None, cfg).map_err(|e| e.to_string())?;
    let keys: Vec<_> = ods.iter().filter_map(|od| cache.key_of(od)).collect();
    let now = now_epoch_s();
    let insert_us = median_us(&keys, |k| cache.insert(*k, 400.0, now));
    let lookup_us = median_us(&keys, |k| {
        std::hint::black_box(cache.lookup(*k, now));
    });
    Ok((lookup_us, insert_us))
}

/// The training path's layers: `Trainer::new` and its pre-training and
/// encoding steps, then per-sample forward+loss, backward, and optimizer
/// steps on fresh tapes.
fn train_layers(ds: &CityDataset, metrics: &mut Metrics) -> Result<(), String> {
    let cfg = train::cli_config(8);
    let (setup_s, trainer) = timed(|| Trainer::new(ds, cfg.clone(), train::cli_options()));
    drop(trainer.map_err(|e| format!("Trainer::new: {e}"))?);
    let ctx = FeatureContext::build(ds, cfg.slot_seconds).map_err(|e| e.to_string())?;
    let (pretrain_s, model) = timed(|| DeepOdModel::new(&cfg, ds, &ctx));
    let mut model = model.map_err(|e| format!("DeepOdModel::new: {e}"))?;
    let (encode_s, samples) = timed(|| ctx.encode_orders(&ds.net, &ds.train));
    let samples = &samples[..TRAIN_SAMPLES.min(samples.len())];
    let (mut fwd, mut bwd, mut ext) = (Vec::new(), Vec::new(), Vec::new());
    let mut grads = Vec::new();
    for s in samples {
        let mut g = Graph::new();
        let (f, nodes) = timed(|| model.sample_loss_nodes(&mut g, s));
        let (b, gr) = timed(|| g.backward(nodes.loss));
        let mut g2 = Graph::new();
        let m = &mut model;
        let (e, _) = timed(|| {
            m.external_enc.encode(
                &mut g2,
                &m.store,
                &s.od.weather_onehot,
                &s.od.speed_matrix,
                true,
            )
        });
        fwd.push(f * 1e6);
        bwd.push(b * 1e6);
        ext.push(e * 1e6);
        grads.push(gr);
    }
    let mut opt = AdamOptimizer::new(cfg.lr);
    let mut steps = Vec::new();
    let mut batches: Vec<Gradients> = Vec::new();
    for (i, g) in grads.into_iter().enumerate() {
        if i % cfg.batch_size.max(1) == 0 {
            batches.push(Gradients::new());
        }
        if let Some(batch) = batches.last_mut() {
            batch.merge(g);
        }
    }
    for _ in 0..4 {
        for b in &batches {
            let (s, ()) = timed(|| opt.step(&mut model.store, b));
            steps.push(s * 1e6);
        }
    }
    let med = |v: Vec<f64>| stats::median(v).unwrap_or(f64::NAN);
    let fwd_us = med(fwd);
    metrics.put("train.setup_s", setup_s, "s");
    metrics.put("graphembed.pretrain_s", pretrain_s, "s");
    metrics.put("features.encode_orders_s", encode_s, "s");
    metrics.put("train.forward_us", fwd_us, "us");
    metrics.put("train.backward_us", med(bwd), "us");
    metrics.put("train.optim_step_us", med(steps), "us");
    metrics.put("train.external_encoder_share", med(ext) / fwd_us, "ratio");
    Ok(())
}
