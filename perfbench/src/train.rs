//! The training phase: the CLI-default `DeepOdConfig` trained through the
//! public `Trainer` API on the standard dataset.

use std::time::Instant;

use deepod_core::{DeepOdConfig, TrainOptions, Trainer};
use deepod_traj::CityDataset;

use crate::workload::{MODEL_SEED, TRAIN_THREADS};

/// The configuration `deepod train --seed MODEL_SEED --epochs N` trains.
pub fn cli_config(epochs: usize) -> DeepOdConfig {
    DeepOdConfig {
        epochs,
        loss_weight: 0.3,
        seed: MODEL_SEED,
        ..DeepOdConfig::default()
    }
}

/// The options `deepod train --threads TRAIN_THREADS` trains with.
pub fn cli_options() -> TrainOptions {
    TrainOptions {
        threads: TRAIN_THREADS,
        ..TrainOptions::default()
    }
}

/// What one training phase measured.
#[derive(Clone, Copy, Debug)]
pub struct TrainPhase {
    /// Seconds in `Trainer::new` (feature context, embedding
    /// pre-training, sample encoding).
    pub setup_s: f64,
    /// Training samples processed per second by `Trainer::train`,
    /// validation passes included.
    pub samples_per_s: f64,
    /// Training samples processed.
    pub samples: usize,
}

/// Trains for `epochs` and times both halves.
pub fn run(ds: &CityDataset, epochs: usize) -> Result<TrainPhase, String> {
    let cfg = cli_config(epochs);
    cfg.validate()?;
    let t0 = Instant::now();
    let mut trainer =
        Trainer::new(ds, cfg, cli_options()).map_err(|e| format!("Trainer::new: {e}"))?;
    let setup_s = t0.elapsed().as_secs_f64();
    let samples = epochs * trainer.train_samples().len();
    let t1 = Instant::now();
    let report = trainer.train();
    let train_s = t1.elapsed().as_secs_f64();
    if !report.best_val_mae.is_finite() {
        return Err(format!(
            "training diverged: best validation MAE {}",
            report.best_val_mae
        ));
    }
    Ok(TrainPhase {
        setup_s,
        samples_per_s: samples as f64 / train_s,
        samples,
    })
}
