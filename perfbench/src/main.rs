//! `deepod-perfbench`: the repository benchmark.
//!
//! ```text
//! deepod-perfbench --workload <live_slot|hot_od> --seed N --seconds S --trace <0|1>
//!                  --deepod PATH --work DIR
//! ```
//!
//! `--trace 0` runs the end-to-end measurement against a spawned
//! `deepod serve` process ([`e2e`]); `--trace 1` replays the same
//! generated inputs in-process and times each layer ([`trace`]). Human-
//! readable lines go first; the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Any failed check exits
//! non-zero without that line.

mod answers;
mod check;
mod e2e;
mod loadgen;
mod provenance;
mod server;
mod stats;
mod trace;
mod train;
mod workload;

use std::path::PathBuf;

use workload::Mix;

/// Epochs of the training phase in every end-to-end run.
pub const E2E_TRAIN_EPOCHS: usize = 1;

/// One benchmark invocation.
pub struct RunSpec {
    /// Workload name as given.
    pub workload: String,
    /// Its request mix.
    pub mix: Mix,
    /// Workload seed.
    pub seed: u64,
    /// Measurement seconds.
    pub seconds: u64,
    /// Traced (per-layer) run.
    pub trace: bool,
    /// The `deepod` binary under test.
    pub deepod: PathBuf,
    /// Directory for generated inputs.
    pub work: PathBuf,
}

/// Metrics of one run, in insertion order.
#[derive(Default)]
pub struct Metrics {
    values: Vec<(String, f64, String)>,
    /// The spawned server's command line, for the provenance stamp.
    pub server_command: String,
    /// Requests whose outcome counts toward `failed`.
    pub attempted: usize,
    /// Of those, errors, refusals and lost replies.
    pub failed: usize,
}

impl Metrics {
    /// Records a metric (printed immediately, for the human reader).
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        println!("{name} = {value} {unit}");
        self.values
            .push((name.to_string(), value, unit.to_string()));
    }

    /// Prints a figure that is reported but kept out of the result line.
    pub fn info(&self, name: &str, value: f64, unit: &str) {
        println!("{name} = {value} {unit} (reported, not bound-checked)");
    }

    /// The result line.
    fn to_json(&self) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.values.iter().enumerate() {
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        out.push_str("}}");
        Ok(out)
    }
}

fn parse_args() -> Result<RunSpec, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let pos = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(pos + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let mix = match workload.as_str() {
        "live_slot" => Mix::LiveSlot,
        "hot_od" => Mix::HotOd,
        other => return Err(format!("unknown workload {other} (live_slot | hot_od)")),
    };
    let num = |s: String, flag: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("{flag}: not a whole number: {s}"))
    };
    let seed = num(get("--seed")?, "--seed")?;
    let seconds = num(get("--seconds")?, "--seconds")?.max(1);
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace: expected 0 or 1, got {other}")),
    };
    Ok(RunSpec {
        workload,
        mix,
        seed,
        seconds,
        trace,
        deepod: PathBuf::from(get("--deepod")?),
        work: PathBuf::from(get("--work")?),
    })
}

fn run() -> Result<String, String> {
    let spec = parse_args()?;
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        spec.workload, spec.seed, spec.seconds, spec.trace as u8
    );
    let inputs = workload::ensure_inputs(&spec.deepod, &spec.work)?;
    let mut metrics = Metrics::default();
    if spec.trace {
        trace::run(&spec, &inputs, &mut metrics)?;
    } else {
        e2e::run(&spec, &inputs, &mut metrics)?;
    }
    println!(
        "provenance {}",
        provenance::stamp(
            spec.seed,
            &spec.workload,
            spec.trace,
            &metrics.server_command
        )
    );
    metrics.to_json()
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: FAILED: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
