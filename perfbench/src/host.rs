//! The host block printed with every report: the machine and build the
//! numbers were taken on.

use crate::report::{metrics_json, Metric};
use berry_core::encode_json_string;

/// Commit of the checkout the benchmark runs in, read from `.git` without
/// spawning `git`; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The host block as one JSON object.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let force_scalar =
        std::env::var("BERRY_GEMM_FORCE_SCALAR").unwrap_or_else(|_| "unset".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let numbers = [
        Metric::new("nproc", nproc as f64, "count"),
        Metric::new(
            "rayon_workers",
            rayon::current_num_threads() as f64,
            "count",
        ),
    ];
    format!(
        "{{\"host\": {{\"counts\": {}, \"fast_backend\": {}, \"BERRY_GEMM_FORCE_SCALAR\": {}, \
         \"profile\": {}, \"git_commit\": {}, \"os\": {}, \"arch\": {}}}}}",
        metrics_json(&numbers),
        encode_json_string(berry_nn::gemm::detected_fast_backend().name()),
        encode_json_string(&force_scalar),
        encode_json_string(profile),
        encode_json_string(&git_commit()),
        encode_json_string(std::env::consts::OS),
        encode_json_string(std::env::consts::ARCH),
    )
}
