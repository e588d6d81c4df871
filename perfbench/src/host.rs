//! Host-noise and memory readings from `/proc`.

use std::fs;

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Aggregate CPU time counters from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the counters; all zero where `/proc/stat` is unavailable.
    pub fn read() -> Self {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let Some(line) = text.lines().find(|l| l.starts_with("cpu ")) else {
            return Self::default();
        };
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already counted in user, so only the first eight add up.
        let fields: Vec<u64> = line
            .split_ascii_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|f| f.parse().ok())
            .collect();
        Self {
            total: fields.iter().sum(),
            steal: fields.get(7).copied().unwrap_or(0),
        }
    }

    /// Share of all CPU time between `self` and `later` that the hypervisor
    /// stole, in percent.
    pub fn steal_pct_until(&self, later: &Self) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        100.0 * later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Keeps the calling thread on one CPU and in the `SCHED_BATCH` class
/// until dropped, then restores both. Threads it spawns
/// meanwhile inherit the two for good. A batch-class thread does not
/// preempt the one that wakes it, so two such threads sharing the CPU each
/// run until they block: a hand-off is one switch, and a span on one thread
/// never holds the other's work.
pub struct Pinned {
    previous: Option<CpuSet>,
    batch: bool,
}

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
const SCHED_OTHER: i32 = 0;
#[cfg(target_os = "linux")]
const SCHED_BATCH: i32 = 3;

/// `struct sched_param`.
#[cfg(target_os = "linux")]
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getscheduler(pid: i32) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// Puts the calling thread in `policy` (a non-real-time class).
#[cfg(target_os = "linux")]
fn set_policy(policy: i32) -> bool {
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: pid 0 is the calling thread and `param` is a valid
    // sched_param that outlives the call.
    unsafe { sched_setscheduler(0, policy, &param) == 0 }
}

impl Pinned {
    /// Pins the calling thread to the `index`-th (modulo their number) of
    /// the CPUs it may use; does nothing where affinity or the batch class
    /// is unavailable.
    #[cfg(target_os = "linux")]
    pub fn cpu(index: usize) -> Self {
        // SAFETY: pid 0 is the calling thread.
        let batch = unsafe { sched_getscheduler(0) } == SCHED_OTHER && set_policy(SCHED_BATCH);
        let mut allowed: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: pid 0 is the calling thread and `allowed` is a writable
        // cpu_set_t of `size` bytes.
        if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
            return Self {
                previous: None,
                batch,
            };
        }
        let cpus: Vec<usize> = (0..allowed.len() * 64)
            .filter(|&c| allowed[c / 64] & (1 << (c % 64)) != 0)
            .collect();
        if cpus.is_empty() {
            return Self {
                previous: None,
                batch,
            };
        }
        let c = cpus[index % cpus.len()];
        let mut one: CpuSet = [0; 16];
        one[c / 64] = 1 << (c % 64);
        // SAFETY: `one` is a valid cpu_set_t of `size` bytes.
        let pinned = unsafe { sched_setaffinity(0, size, &one) } == 0;
        Self {
            previous: pinned.then_some(allowed),
            batch,
        }
    }

    #[cfg(not(target_os = "linux"))]
    pub fn cpu(_index: usize) -> Self {
        Self {
            previous: None,
            batch: false,
        }
    }
}

impl Drop for Pinned {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        {
            if let Some(previous) = &self.previous {
                // SAFETY: `previous` is the cpu_set_t read in `cpu`.
                unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), previous) };
            }
            if self.batch {
                set_policy(SCHED_OTHER);
            }
        }
    }
}
