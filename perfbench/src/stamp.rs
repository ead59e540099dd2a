//! The config stamp printed and written with every run: what the numbers
//! were measured on and with.

/// The stamp as one JSON object.
pub fn render(nproc: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("model name")?
                    .split_once(':')
                    .map(|(_, m)| m.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rev = std::env::var("PERFBENCH_GIT_REV").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"profile\": \"release\", \
         \"features\": \"default (no cargo features enabled)\", \
         \"simd_available\": {}, \"simd_enabled\": {}, \"git_rev\": \"{}\"}}",
        cpu.replace(['"', '\\'], ""),
        qsim::simd::available(),
        qsim::simd::enabled(),
        rev.replace(['"', '\\'], "")
    )
}
