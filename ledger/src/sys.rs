//! Process-level readings (`/proc/self`) and the scratch-directory guard.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`; 100 on
/// every Linux this runs on).
const USER_HZ: f64 = 100.0;

/// Cumulative process CPU, context switches and resident size.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcSample {
    /// User + system CPU seconds of the whole process (all threads,
    /// exited ones included).
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches, summed over live threads.
    pub ctx: u64,
    /// Peak resident set size in MiB.
    pub rss_mb: f64,
}

impl ProcSample {
    /// Reads the current values; all zeros where `/proc` is unavailable.
    pub fn now() -> ProcSample {
        let mut s = ProcSample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and stime
            // are fields 14 and 15 of the full line.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok()).unwrap_or(0.0);
                s.cpu_s = (ticks(11) + ticks(12)) / USER_HZ;
            }
        }
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for task in dir.flatten() {
                if let Ok(status) = std::fs::read_to_string(task.path().join("status")) {
                    s.ctx += status_field(&status, "voluntary_ctxt_switches:")
                        + status_field(&status, "nonvoluntary_ctxt_switches:");
                }
            }
        }
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            s.rss_mb = status_field(&status, "VmHWM:") as f64 / 1024.0;
        }
        s
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Pins the calling thread — and so every thread it spawns afterwards — to
/// the lowest CPU it is currently allowed on. Returns that CPU, or `None`
/// when the platform has no affinity call or the call was refused (the run
/// then proceeds unpinned and says so).
///
/// Why: on the 2-core reference VM the scheduler either keeps the client,
/// reactor and replica threads of a closed loop on one core (≈ 5 000 puts/s,
/// p05 135 µs) or spreads them over both (≈ 3 500 puts/s, p05 195 µs,
/// every hand-off a cross-core idle wake-up), and which of the two a fresh
/// cluster gets changes from one repetition to the next. Pinned, every
/// repetition runs in the first regime.
pub fn pin_to_one_cpu() -> Option<usize> {
    affinity::pin_to_lowest_allowed()
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod affinity {
    /// Words of the CPU mask handed to the kernel (1 024 CPUs).
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    pub fn pin_to_lowest_allowed() -> Option<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 names the calling thread. The kernel writes
        // at most `cpusetsize` bytes.
        let got = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if got != 0 {
            return None;
        }
        let (word, bits) = mask.iter().enumerate().find(|(_, w)| **w != 0)?;
        let cpu = word * 64 + bits.trailing_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << (cpu % 64);
        // SAFETY: `one` is a live buffer of exactly the byte length passed
        // and is only read; pid 0 names the calling thread.
        let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
        (set == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_to_lowest_allowed() -> Option<usize> {
        None
    }
}

/// What [`calibrate`] takes on the reference VM in its fast phase with
/// nothing else on the core. Only a scale: it makes calibrated times read
/// like wall-clock times there.
pub const CALIBRATION_REF_S: f64 = 0.010;

/// Times a fixed, std-only kernel — seeded map inserts of freshly allocated
/// 64–127-byte values with a byte-wise hash over each — on the calling
/// thread. It shares no code with the program under test, but once the
/// process is pinned it shares the core: call it only while no thread of the
/// system under test exists (`live::with_speed` brackets a deployment's whole
/// life with it), so that it measures the machine and not the program's load.
///
/// Why: the reference VM's speed swings by 20–40 % for minutes at a time
/// (noisy neighbours; a pure CPU loop shows it too). Ten runs of one binary
/// spread 0.13 in `mem_window` throughput, and 0.05 once each repetition's
/// rate is scaled by the kernel time measured around it.
pub fn calibrate() -> f64 {
    let started = std::time::Instant::now();
    let mut map = std::collections::BTreeMap::new();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15_u64, 0u64);
    for i in 0..60_000u64 {
        // xorshift64: the same key and length sequence every time.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let value = vec![(i & 0xff) as u8; 64 + (x % 64) as usize];
        acc = value.iter().fold(acc, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
        if let Some(old) = map.insert(x % 4096, value) {
            acc = acc.wrapping_add(old.len() as u64);
        }
    }
    std::hint::black_box((acc, map.len()));
    started.elapsed().as_secs_f64()
}

/// Where the ledger writes: `$CARGO_TARGET_DIR/ledger` when the variable is
/// set (the driver points it inside its checkout), `target/ledger` under the
/// current directory otherwise. Nothing is written anywhere else.
pub fn out_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    base.join("ledger")
}

/// A pid-unique scratch directory under [`out_dir`], removed on drop — also
/// when a check fails and the run unwinds.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    /// Creates `<out_dir>/tmp-<pid>-<k>-<tag>`.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory.
    pub fn new(tag: &str) -> std::io::Result<ScratchDir> {
        let k = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("tmp-{}-{k}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_sample_reads_something_on_linux() {
        let a = ProcSample::now();
        if cfg!(target_os = "linux") {
            assert!(a.rss_mb > 0.0);
        }
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(ProcSample::now().cpu_s >= a.cpu_s);
    }

    #[test]
    fn scratch_dir_is_removed_on_drop() {
        let path = {
            let d = ScratchDir::new("unit").unwrap();
            std::fs::write(d.path().join("f"), b"x").unwrap();
            assert!(d.path().starts_with(out_dir()));
            d.path().to_path_buf()
        };
        assert!(!path.exists());
    }
}
