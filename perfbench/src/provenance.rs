//! The provenance stamp printed with every result: what was measured,
//! on what, and how.

use std::path::Path;
use std::process::Command;

/// Renders the stamp as one JSON object.
pub fn stamp(seed: u64, workload: &str, trace: bool, server_command: &str) -> String {
    let fields = [
        ("commit", commit()),
        ("source_fnv", source_fingerprint()),
        ("nproc", nproc().to_string()),
        ("isa", isa().to_string()),
        ("profile", profile().to_string()),
        ("rustc", rustc()),
        ("workload", workload.to_string()),
        ("seed", seed.to_string()),
        ("trace", trace.to_string()),
        ("server_command", server_command.to_string()),
    ];
    let mut out = String::from("{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        serde::json::escape_str(key, &mut out);
        out.push(':');
        serde::json::escape_str(value, &mut out);
    }
    out.push('}');
    out
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The widest x86 SIMD extension the CPU reports.
fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::is_x86_feature_detected!("avx512f") {
            return "AVX-512";
        }
        if std::is_x86_feature_detected!("avx2") {
            return "AVX2";
        }
    }
    "baseline"
}

fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn command_output(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checked-out commit, when the tree is a git work tree.
fn commit() -> String {
    command_output("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())
}

fn rustc() -> String {
    command_output("rustc", &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the workspace manifests and every file under `crates/`
/// (sorted by path): identifies the measured source where no commit is
/// available.
fn source_fingerprint() -> String {
    let mut files = vec![
        Path::new("Cargo.toml").to_path_buf(),
        Path::new("Cargo.lock").to_path_buf(),
    ];
    collect(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(f).unwrap_or_default());
    }
    format!("{:016x}", deepod_core::io_guard::fnv1a64(&bytes))
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect(&path, out);
        } else {
            out.push(path);
        }
    }
}
