//! The untraced end-to-end run of a serving workload: cold-start a
//! `deepod serve --listen` process, drive it open-loop at fixed absolute
//! rates, search its capacity, stop it, check every reply, then measure
//! the model's accuracy and a training phase.

use std::time::Duration;

use deepod_core::{DeepOdModel, FeatureContext};
use deepod_serve::WireRequest;
use deepod_traj::CityDataset;

use crate::answers::{expected_replies, test_accuracy};
use crate::check::replies_match;
use crate::loadgen::{self, Ladder, PhaseResult, PhaseStats, Reply, Slo, Tcp, Transport};
use crate::server::{serve_args, Server};
use crate::workload::{Inputs, Mix, RequestSource};
use crate::{Metrics, RunSpec};

/// The latency objective the capacity search holds the server to.
pub const SLO: Slo = Slo {
    pct: 99.0,
    limit_ms: 20.0,
    min_ok_frac: 0.999,
};

/// The fixed capacity ladder: 400 req/s times powers of sqrt 2, up to
/// 25.6k req/s, climbed from 1600 req/s and refined to 5%. The floor
/// keeps a probe (at least 1000 requests) under 2.5 s.
pub const LADDER: Ladder = Ladder {
    base: 400.0,
    rungs: 13,
    start: 4,
    resolution: 0.05,
};

/// Seconds of traffic per capacity probe (at least the p99's 1000
/// requests are always sent).
pub const CAPACITY_PROBE_S: f64 = 0.5;

/// The two fixed offered rates, req/s.
pub const RATES: [f64; 2] = [250.0, 600.0];

/// LRU capacity of the `hot_od` server.
pub const HOT_OD_CACHE: usize = 4096;

/// Generator lateness (p99) beyond which a run's latencies are suspect.
pub const LATENESS_LIMIT_MS: f64 = 5.0;

/// How long a lane waits for a reply before counting the rest as lost.
pub const DRAIN: Duration = Duration::from_secs(5);

/// Drives one transport with requests from one source, keeping every
/// request sent and every reply received for the checker.
pub struct Driver<'a> {
    /// Where requests go.
    transport: &'a dyn Transport,
    /// Lanes (connections) per phase.
    lanes: usize,
    /// Where requests come from.
    source: &'a mut RequestSource,
    /// Seed of the arrival schedules.
    seed: u64,
    /// Every request sent so far.
    pub sent: Vec<WireRequest>,
    /// Every reply received so far.
    pub replies: Vec<Reply>,
    phases: u64,
}

impl<'a> Driver<'a> {
    /// A driver with nothing sent yet.
    pub fn new(
        transport: &'a dyn Transport,
        lanes: usize,
        source: &'a mut RequestSource,
        seed: u64,
    ) -> Self {
        Driver {
            transport,
            lanes,
            source,
            seed,
            sent: Vec::new(),
            replies: Vec::new(),
            phases: 0,
        }
    }

    /// Runs `n` fresh requests at `rate` on a Poisson schedule.
    pub fn phase(&mut self, rate: f64, n: usize) -> Result<PhaseResult, String> {
        self.phases += 1;
        let due =
            loadgen::poisson_schedule(rate, n, self.seed.wrapping_mul(1_000_003) ^ self.phases);
        let reqs = self.source.take(n);
        let res = loadgen::run_phase(self.transport, self.lanes, &due, &reqs, DRAIN)
            .map_err(|e| format!("load phase at {rate} req/s: {e}"))?;
        self.sent.extend(reqs);
        self.replies.extend(res.replies.iter().cloned());
        Ok(res)
    }

    /// Median latency, ms, of the answered requests of `phase` (the
    /// driver's latest) that only the model can answer: every request on
    /// `live_slot`, the fresh 10% on `hot_od`. Their latency includes the
    /// batch window, so host hiccups move it least.
    pub fn model_p50_ms(&self, phase: &PhaseResult) -> Result<f64, String> {
        let reqs = &self.sent[self.sent.len() - phase.samples.len()..];
        let lat = reqs
            .iter()
            .zip(&phase.samples)
            .filter(|(r, s)| s.ok && !self.source.is_hot(r))
            .filter_map(|(_, s)| s.latency_ms());
        crate::stats::median(lat.collect::<Vec<_>>())
            .ok_or_else(|| "no model-path request was answered".to_string())
    }

    /// Searches the highest rate meeting [`SLO`]; each probe sends at
    /// least enough requests for its p99, or `probe_s` seconds' worth.
    pub fn capacity(&mut self, probe_s: f64) -> Result<(f64, Vec<(f64, bool)>), String> {
        let min = SLO.min_samples();
        loadgen::search_capacity(&LADDER, |rate| {
            let n = min.max((rate * probe_s) as usize);
            let phase = self.phase(rate, n).map_err(std::io::Error::other)?;
            let st = phase.stats();
            let pass = SLO.met_by(&phase);
            println!(
                "  probe {rate:7.1} req/s x {n}: p50 {:.2} p99 {:.2} last-quarter p90 {:.2} ms, \
                 {} failed, lateness p99 {:.2} ms -> {}",
                st.p50_ms.unwrap_or(f64::NAN),
                st.p99_ms.unwrap_or(f64::NAN),
                st.tail_quarter_p90_ms.unwrap_or(f64::NAN),
                st.failed,
                st.lateness_p99_ms.unwrap_or(f64::NAN),
                if pass { "pass" } else { "fail" }
            );
            Ok(pass)
        })
        .map_err(|e| e.to_string())
    }
}

/// Requests a fixed-rate phase sends: `share` of the run's seconds at
/// `rate`, and never fewer than the p99 needs.
pub fn phase_len(rate: f64, seconds: f64, share: f64) -> usize {
    SLO.min_samples().max((rate * seconds * share) as usize)
}

/// The dataset the server reads, rebuilt in-process and proven
/// byte-identical to the file: re-serialized, it must reproduce the file
/// exactly, so every answer computed from it is the server's own.
pub fn verified_dataset(inputs: &Inputs) -> Result<CityDataset, String> {
    let ds = deepod_traj::DatasetBuilder::build(&crate::workload::dataset_config());
    let ours =
        serde_json::to_string(&crate::workload::DatasetFile::of(&ds)).map_err(|e| e.to_string())?;
    let theirs = std::fs::read(&inputs.data)
        .map_err(|e| format!("reading {}: {e}", inputs.data.display()))?;
    if ours.as_bytes() != theirs.as_slice() {
        return Err(format!(
            "{} differs from the in-process standard dataset",
            inputs.data.display()
        ));
    }
    Ok(ds)
}

/// Loads the served model and its feature context.
pub fn load_model(
    inputs: &Inputs,
    ds: &CityDataset,
) -> Result<(DeepOdModel, FeatureContext), String> {
    let json = std::fs::read_to_string(&inputs.model).map_err(|e| format!("reading model: {e}"))?;
    let model = DeepOdModel::load_json(&json).map_err(|e| format!("loading model: {e}"))?;
    let ctx = FeatureContext::build(ds, model.config.slot_seconds).map_err(|e| e.to_string())?;
    Ok((model, ctx))
}

fn ms(stats: &PhaseStats, tail: bool) -> Result<f64, String> {
    let v = if tail { stats.p99_ms } else { stats.p50_ms };
    v.ok_or_else(|| {
        format!(
            "phase of {} requests cannot support the percentile",
            stats.attempted
        )
    })
}

/// Runs the workload, recording its end-to-end metrics; fails on the
/// first correctness failure.
pub fn run(spec: &RunSpec, inputs: &Inputs, metrics: &mut Metrics) -> Result<(), String> {
    let ds = verified_dataset(inputs)?;
    let mut source = RequestSource::new(&ds, spec.mix, spec.seed);
    let probe = source.next_request();
    let cache = if spec.mix == Mix::HotOd {
        HOT_OD_CACHE
    } else {
        0
    };
    let (server, setup_s, probe_reply) =
        Server::start(&spec.deepod, &serve_args(inputs, cache), &probe)?;
    metrics.server_command.clone_from(&server.command_line);
    let transport = Tcp { addr: server.addr };
    let mut driver = Driver::new(
        &transport,
        crate::provenance::nproc(),
        &mut source,
        spec.seed,
    );
    driver.sent.push(probe);
    driver.replies.push(probe_reply);

    // Warm-up: first-use costs (traffic-matrix downsampling, cache fill)
    // are paid once per server lifetime, not per request.
    driver.phase(400.0, 200)?;
    let secs = spec.seconds as f64;
    let phase250 = driver.phase(RATES[0], phase_len(RATES[0], secs, 0.3))?;
    let model250 = driver.model_p50_ms(&phase250)?;
    let phase600 = driver.phase(RATES[1], phase_len(RATES[1], secs, 0.2))?;
    let model600 = driver.model_p50_ms(&phase600)?;
    let (at250, at600) = (phase250.stats(), phase600.stats());
    let (capacity, _) = driver.capacity(CAPACITY_PROBE_S)?;
    let rss = server.peak_rss_mb()?;
    server.stop()?;

    let (model, ctx) = load_model(inputs, &ds)?;
    let expected = expected_replies(&model, &ctx, &ds, &driver.sent, spec.mix)?;
    replies_match(&expected, &driver.replies)?;
    println!(
        "  checked {} replies: one per request, each correct",
        driver.replies.len()
    );
    let acc = test_accuracy(&model, &ctx, &ds)?;
    acc.check()?;
    println!(
        "  test MAPE {:.2}% vs mean predictor {:.2}% over {} orders",
        acc.mape_pct, acc.mean_predictor_mape_pct, acc.n
    );
    let train = crate::train::run(&ds, crate::E2E_TRAIN_EPOCHS)?;
    println!(
        "  Trainer::new {:.3} s; {} samples trained",
        train.setup_s, train.samples
    );

    for (rate, st) in RATES.iter().zip([&at250, &at600]) {
        let late = st.lateness_p99_ms.unwrap_or(f64::NAN);
        println!(
            "  {rate} req/s: {} sent, {} failed, generator lateness p99 {late:.3} ms",
            st.attempted, st.failed
        );
        if late > LATENESS_LIMIT_MS {
            println!(
                "  WARNING: the generator lagged at {rate} req/s; this run's latencies are suspect"
            );
        }
    }
    metrics.attempted = at250.attempted + at600.attempted;
    metrics.failed = at250.failed + at600.failed;
    metrics.put("setup_s", setup_s, "s");
    metrics.put("model_p50_ms.at250", model250, "ms");
    metrics.put("model_p50_ms.at600", model600, "ms");
    metrics.put("peak_rss_mb", rss, "MiB");
    metrics.put("test_mape_pct", acc.mape_pct, "%");
    // Reported every run, not bound-checked (perfbench/README.md): on a
    // shared 2-vCPU host these swing with host load beyond any allowed
    // bound.
    metrics.info("p50_ms.at250", ms(&at250, false)?, "ms");
    metrics.info("p50_ms.at600", ms(&at600, false)?, "ms");
    metrics.info("p99_ms.at250", ms(&at250, true)?, "ms");
    metrics.info("p99_ms.at600", ms(&at600, true)?, "ms");
    metrics.info("capacity_rps", capacity, "1/s");
    metrics.info("train_samples_per_s", train.samples_per_s, "1/s");
    metrics.info(
        "failed_frac",
        metrics.failed as f64 / metrics.attempted.max(1) as f64,
        "ratio",
    );
    Ok(())
}
