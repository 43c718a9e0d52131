//! Process hygiene shared by the suites that spawn `afd-node`: each
//! test puts a unique marker in its node processes' argv (where
//! `afd-node` ignores it), so a `/proc` scan sees only its own even
//! with the rest of the suite spawning nodes in parallel.

/// A marker no other test, and no other run of this one, uses.
pub fn marker(test: &str) -> String {
    format!("afd-test-{}-{test}", std::process::id())
}

/// Pids of live processes with `marker` among their arguments.
pub fn marked(marker: &str) -> Vec<u32> {
    let dir = std::fs::read_dir("/proc").expect("/proc");
    dir.filter_map(|e| {
        let pid: u32 = e.ok()?.file_name().to_str()?.parse().ok()?;
        let cmdline = std::fs::read(format!("/proc/{pid}/cmdline")).ok()?;
        let mut args = cmdline.split(|&b| b == 0);
        args.any(|arg| arg == marker.as_bytes()).then_some(pid)
    })
    .collect()
}
