//! Process hygiene for the workloads that spawn node processes: after
//! every deployment no child of this process may be left running. A
//! straggler is killed, waited for, and reported, so the repetition
//! that leaked it counts as failed instead of skewing the next one.

use std::process::Command;
use std::time::{Duration, Instant};

/// `(pid, state)` of every process whose parent is this one.
fn children() -> Vec<(u32, char)> {
    let me = std::process::id();
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let pid: u32 = e.ok()?.file_name().to_str()?.parse().ok()?;
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
        // "pid (comm) state ppid …" — comm may contain spaces and
        // parentheses, so split after the last ')'.
        let rest = stat.rsplit_once(')')?.1;
        let mut f = rest.split_whitespace();
        let state = f.next()?.chars().next()?;
        let ppid: u32 = f.next()?.parse().ok()?;
        (ppid == me).then_some((pid, state))
    })
    .collect()
}

/// Assert that no child process is left; kill any that is. Returns one
/// line per straggler (empty ⇒ clean). Zombies are stragglers too: the
/// engine must reap what it spawns.
pub fn reap_stragglers() -> Vec<String> {
    let left = children();
    if left.is_empty() {
        return Vec::new();
    }
    for (pid, _) in &left {
        // std has no kill(2) for a bare pid; `kill` is a child too, but
        // `status()` waits for it.
        let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
    }
    // Killed children are re-parented corpses until something waits
    // for them; give the kernel a moment, then report what we saw.
    let deadline = Instant::now() + Duration::from_millis(200);
    while Instant::now() < deadline && children().iter().any(|(_, s)| *s != 'Z') {
        std::thread::sleep(Duration::from_millis(5));
    }
    left.iter()
        .map(|(pid, state)| {
            format!("child process {pid} (state {state}) left after the repetition")
        })
        .collect()
}

/// Kills every remaining child when dropped — the last line of defence
/// when a workload unwinds.
pub struct ChildGuard;

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = reap_stragglers();
    }
}
