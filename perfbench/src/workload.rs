//! Generated inputs: the standard quick-scale Chengdu dataset, the model
//! served from it, and the seeded request streams of each workload.

use std::path::{Path, PathBuf};
use std::process::Command;

use deepod_roadnet::{CityProfile, Point, RoadNetwork};
use deepod_serve::WireRequest;
use deepod_traffic::{CongestionModel, IncidentModel, TrafficModel, WeatherProcess};
use deepod_traj::{CityDataset, DatasetConfig, TaxiOrder};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Seed of the model `deepod train` produces for the serving workloads.
pub const MODEL_SEED: u64 = 7;
/// Worker threads of every training run.
pub const TRAIN_THREADS: usize = 2;
/// Length of a traffic-matrix slot in the feature context, seconds.
pub const MATRIX_SLOT_S: f64 = 300.0;
/// Start of the live slot within its day: 08:00, the weekday morning rush.
const LIVE_SLOT_OF_DAY_S: f64 = 8.0 * 3600.0;
const DAY_S: f64 = 86_400.0;
/// Exact hot ODs that `hot_od` repeats.
pub const HOT_ODS: usize = 64;
/// Share of `hot_od` requests that repeat a hot OD.
pub const HOT_SHARE: f64 = 0.9;

/// The two request mixes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// Test-split ODs, all departing inside one weekday-morning slot.
    LiveSlot,
    /// 90% repeats of 64 hot ODs in the live slot, 10% fresh ODs over
    /// the whole horizon.
    HotOd,
}

/// The standard quick-scale Chengdu dataset config, the one
/// `deepod simulate --profile chengdu --orders N` builds.
pub fn dataset_config() -> DatasetConfig {
    let orders = deepod_bench::num_orders(CityProfile::SynthChengdu, deepod_bench::Scale::Quick);
    DatasetConfig::for_profile(CityProfile::SynthChengdu, orders)
}

/// The on-disk dataset layout `deepod simulate` writes and `deepod serve`
/// reads: the generating config plus the materialized network and orders.
#[derive(Serialize, Deserialize)]
pub struct DatasetFile {
    /// The generator config.
    pub config: DatasetConfig,
    /// The road network.
    pub net: RoadNetwork,
    /// Train orders.
    pub train: Vec<TaxiOrder>,
    /// Validation orders.
    pub validation: Vec<TaxiOrder>,
    /// Test orders.
    pub test: Vec<TaxiOrder>,
}

impl DatasetFile {
    /// Captures a built dataset.
    pub fn of(ds: &CityDataset) -> DatasetFile {
        DatasetFile {
            config: ds.config.clone(),
            net: ds.net.clone(),
            train: ds.train.clone(),
            validation: ds.validation.clone(),
            test: ds.test.clone(),
        }
    }

    /// Rebuilds the dataset; the traffic model is re-derived from the
    /// config seed exactly as the generator drew it.
    pub fn into_dataset(self) -> CityDataset {
        let cfg = &self.config;
        let horizon = (cfg.train_days + cfg.val_days + cfg.test_days) as f64 * DAY_S;
        let mut rng = deepod_tensor::rng_from_seed(cfg.sim.seed ^ 0xA5A5_5A5A);
        let weather = WeatherProcess::sample(horizon + DAY_S, 1800.0, &mut rng);
        let incidents = if cfg.incidents_per_day > 0.0 {
            IncidentModel::sample(&self.net, horizon, cfg.incidents_per_day, &mut rng)
        } else {
            IncidentModel::none()
        };
        let traffic = TrafficModel::new(&self.net, CongestionModel::default(), weather, &mut rng)
            .with_incidents(incidents);
        CityDataset {
            net: self.net,
            traffic,
            train: self.train,
            validation: self.validation,
            test: self.test,
            config: self.config,
        }
    }
}

/// The generated files every serving run reads.
pub struct Inputs {
    /// Dataset written by `deepod simulate`.
    pub data: PathBuf,
    /// Model written by `deepod train`.
    pub model: PathBuf,
}

/// Makes the dataset (`deepod simulate`) and the model (`deepod train`
/// at [`MODEL_SEED`], [`TRAIN_THREADS`] threads) under `dir`, once per
/// `deepod` binary: both are deterministic functions of the binary, so
/// they are kept in a directory named after its fingerprint and reused.
pub fn ensure_inputs(deepod: &Path, dir: &Path) -> Result<Inputs, String> {
    let bin = std::fs::read(deepod).map_err(|e| format!("reading {}: {e}", deepod.display()))?;
    let home = dir.join(deepod_core::oracle::model_fingerprint(&bin));
    let inputs = Inputs {
        data: home.join("chengdu.ds"),
        model: home.join("model.json"),
    };
    if inputs.data.is_file() && inputs.model.is_file() {
        return Ok(inputs);
    }
    std::fs::create_dir_all(&home).map_err(|e| format!("creating {}: {e}", home.display()))?;
    let tmp_data = home.join("chengdu.ds.tmp");
    let tmp_model = home.join("model.json.tmp");
    let orders = dataset_config().num_orders.to_string();
    let seed = MODEL_SEED.to_string();
    let threads = TRAIN_THREADS.to_string();
    run(
        deepod,
        &[
            "simulate",
            "--profile",
            "chengdu",
            "--orders",
            &orders,
            "--out",
        ],
        &tmp_data,
    )?;
    run(
        deepod,
        &[
            "train",
            "--data",
            &path_str(&tmp_data)?,
            "--seed",
            &seed,
            "--threads",
            &threads,
            "--out",
        ],
        &tmp_model,
    )?;
    for (tmp, dst) in [(&tmp_data, &inputs.data), (&tmp_model, &inputs.model)] {
        std::fs::rename(tmp, dst).map_err(|e| format!("renaming {}: {e}", tmp.display()))?;
    }
    Ok(inputs)
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("non-UTF-8 path {}", p.display()))
}

/// Runs `deepod <args> <out>` with its output on stderr.
fn run(deepod: &Path, args: &[&str], out: &Path) -> Result<(), String> {
    let status = deepod_command(deepod)
        .args(args)
        .arg(out)
        .stdout(std::process::Stdio::from(std::io::stderr()))
        .status()
        .map_err(|e| format!("spawning {}: {e}", deepod.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("deepod {} failed: {status}", args.join(" ")))
    }
}

/// A command running `deepod` on shipped defaults: every `DEEPOD_*`
/// variable of this process is kept from the child.
pub fn deepod_command(deepod: &Path) -> Command {
    let mut cmd = Command::new(deepod);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("DEEPOD_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// Start of the live slot: 08:00 on the first weekday among the test
/// days (day 0 of the dataset epoch is a Monday).
pub fn live_slot_start(cfg: &DatasetConfig) -> f64 {
    let first_test_day = cfg.train_days + cfg.val_days;
    let day = (first_test_day..first_test_day + cfg.test_days.max(1))
        .find(|d| d % 7 < 5)
        .unwrap_or(first_test_day);
    day as f64 * DAY_S + LIVE_SLOT_OF_DAY_S
}

/// A seeded, endless stream of request frames with ids counting from 0.
pub struct RequestSource {
    rng: StdRng,
    mix: Mix,
    endpoints: Vec<(Point, Point)>,
    slot_start: f64,
    horizon: f64,
    hot: Vec<(Point, Point, f64)>,
    next_id: u64,
}

impl RequestSource {
    /// The stream of `mix` over `ds`'s test-split endpoints for `seed`.
    pub fn new(ds: &CityDataset, mix: Mix, seed: u64) -> RequestSource {
        let mut rng = deepod_tensor::rng_from_seed(seed ^ 0x0D0D_5EED);
        let endpoints: Vec<(Point, Point)> = ds
            .test
            .iter()
            .map(|o| (o.od.origin, o.od.destination))
            .collect();
        assert!(!endpoints.is_empty(), "the test split has orders");
        let slot_start = live_slot_start(&ds.config);
        let hot = (0..HOT_ODS)
            .map(|_| {
                let (o, d) = endpoints[rng.gen_range(0..endpoints.len())];
                (o, d, slot_start + rng.gen_range(0.0..MATRIX_SLOT_S))
            })
            .collect();
        RequestSource {
            rng,
            mix,
            endpoints,
            slot_start,
            horizon: ds.horizon(),
            hot,
            next_id: 0,
        }
    }

    /// The next request.
    pub fn next_request(&mut self) -> WireRequest {
        let (from, to, depart) = match self.mix {
            Mix::LiveSlot => {
                let (o, d) = self.endpoint();
                (
                    o,
                    d,
                    self.slot_start + self.rng.gen_range(0.0..MATRIX_SLOT_S),
                )
            }
            Mix::HotOd if self.rng.gen_bool(HOT_SHARE) => {
                self.hot[self.rng.gen_range(0..self.hot.len())]
            }
            Mix::HotOd => {
                let (o, d) = self.endpoint();
                (o, d, self.rng.gen_range(0.0..self.horizon))
            }
        };
        let id = self.next_id;
        self.next_id += 1;
        WireRequest {
            id,
            from: (from.x, from.y),
            to: (to.x, to.y),
            depart,
            low_priority: false,
        }
    }

    /// Whether `r` repeats one of the hot ODs; every other request is
    /// new to the server, so only the model can answer it.
    pub fn is_hot(&self, r: &WireRequest) -> bool {
        self.hot.iter().any(|&(o, d, t)| {
            (o.x, o.y, d.x, d.y, t) == (r.from.0, r.from.1, r.to.0, r.to.1, r.depart)
        })
    }

    /// The next `n` requests.
    pub fn take(&mut self, n: usize) -> Vec<WireRequest> {
        (0..n).map(|_| self.next_request()).collect()
    }

    fn endpoint(&mut self) -> (Point, Point) {
        self.endpoints[self.rng.gen_range(0..self.endpoints.len())]
    }
}

/// Requests per distinct traffic-matrix slot among `reqs`.
pub fn slot_reuse(reqs: &[WireRequest]) -> f64 {
    let slots: std::collections::HashSet<i64> = reqs
        .iter()
        .map(|r| (r.depart / MATRIX_SLOT_S).floor() as i64)
        .collect();
    reqs.len() as f64 / slots.len().max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_traj::DatasetBuilder;

    fn tiny() -> CityDataset {
        DatasetBuilder::build(&DatasetConfig::for_profile(CityProfile::SynthChengdu, 120))
    }

    #[test]
    fn streams_are_deterministic_per_seed() {
        let ds = tiny();
        for mix in [Mix::LiveSlot, Mix::HotOd] {
            let a = RequestSource::new(&ds, mix, 5).take(300);
            let b = RequestSource::new(&ds, mix, 5).take(300);
            let c = RequestSource::new(&ds, mix, 6).take(300);
            assert_eq!(a, b);
            assert_ne!(a, c);
            assert!(a.iter().enumerate().all(|(i, r)| r.id == i as u64));
        }
    }

    #[test]
    fn live_slot_departs_inside_one_weekday_morning_slot() {
        let ds = tiny();
        let start = live_slot_start(&ds.config);
        assert!((start / DAY_S).floor() as usize % 7 < 5, "a weekday");
        assert!(start >= ((ds.config.train_days + ds.config.val_days) as f64) * DAY_S);
        let reqs = RequestSource::new(&ds, Mix::LiveSlot, 1).take(500);
        assert!(reqs
            .iter()
            .all(|r| (start..start + MATRIX_SLOT_S).contains(&r.depart)));
        assert_eq!(slot_reuse(&reqs), 500.0);
    }

    #[test]
    fn hot_od_repeats_64_exact_ods_nine_times_in_ten() {
        let ds = tiny();
        let reqs = RequestSource::new(&ds, Mix::HotOd, 2).take(5000);
        let start = live_slot_start(&ds.config);
        let hot: Vec<_> = reqs
            .iter()
            .filter(|r| (start..start + MATRIX_SLOT_S).contains(&r.depart))
            .collect();
        let share = hot.len() as f64 / reqs.len() as f64;
        assert!((0.88..0.92).contains(&share), "hot share {share}");
        let distinct: std::collections::HashSet<_> =
            hot.iter().map(|r| r.depart.to_bits()).collect();
        assert!(distinct.len() <= HOT_ODS);
        let src = RequestSource::new(&ds, Mix::HotOd, 2);
        let flagged = reqs.iter().filter(|r| src.is_hot(r)).count();
        assert_eq!(flagged, hot.len(), "exactly the live-slot repeats are hot");
        let live = RequestSource::new(&ds, Mix::LiveSlot, 2).take(200);
        assert!(live.iter().all(|r| !src.is_hot(r)));
    }

    #[test]
    fn dataset_file_round_trips_the_built_dataset() {
        let ds = tiny();
        let text = serde_json::to_string(&DatasetFile::of(&ds)).expect("serializable");
        let back: DatasetFile = serde_json::from_str(&text).expect("parses");
        let back = back.into_dataset();
        assert_eq!(back.test.len(), ds.test.len());
        let again = serde_json::to_string(&DatasetFile::of(&back)).expect("serializable");
        assert_eq!(text, again);
        let t = start_of(&back);
        assert_eq!(back.traffic.weather().at(t), ds.traffic.weather().at(t));
    }

    fn start_of(ds: &CityDataset) -> f64 {
        live_slot_start(&ds.config)
    }
}
