//! Host-side measurement: process CPU clock, peak RSS, CPU steal, the
//! host fingerprint, sample statistics and the seeded input generator.

use std::time::Duration;

/// splitmix64: the benchmark's only source of generated inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in (0, 1].
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`/s.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-self.unit().ln() / rate)
    }
}

/// Derive the `k`-th sub-seed of `seed` (one per transfer, per role).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    Rng::new(seed ^ k.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed by every thread of this process so far.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout the
    // kernel fills; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(
        rc, 0,
        "CLOCK_PROCESS_CPUTIME_ID is always available on Linux"
    );
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

extern "C" {
    fn malloc_trim(pad: usize) -> i32;
}

/// Reset the process's peak-RSS mark (`VmHWM`) to its current RSS, after
/// handing memory freed so far (earlier set-up repetitions) back to the
/// kernel, so the mark counts only what is live from here on.
pub fn reset_rss_peak() -> bool {
    // SAFETY: glibc's malloc_trim takes no pointers and only releases
    // free heap pages; it is safe to call from any thread at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` in MiB.
pub fn rss_peak_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Aggregate CPU jiffies from `/proc/stat`: (steal, total).
#[derive(Clone, Copy)]
pub struct CpuTicks {
    steal: u64,
    total: u64,
}

impl CpuTicks {
    pub fn now() -> Option<CpuTicks> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let line = stat.lines().find(|l| l.starts_with("cpu "))?;
        let v: Vec<u64> = line
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice]:
        // guest time is already inside user, so count the first eight.
        let total = v.iter().take(8).sum();
        Some(CpuTicks {
            steal: v.get(7).copied().unwrap_or(0),
            total,
        })
    }

    /// Share of all CPU time between `self` and `later` that the
    /// hypervisor stole from this guest.
    pub fn steal_share(&self, later: &CpuTicks) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

/// What a result must carry so a run on a contended or different host
/// can be recognised.
pub struct Host {
    pub nproc: usize,
    pub kernel: String,
    /// `Err(reason)` when the arm cannot run here.
    pub uring: Result<(), String>,
    pub shm: Result<(), String>,
}

impl Host {
    pub fn probe() -> Host {
        let support = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(format!("{what} probe failed on this kernel"))
            }
        };
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            uring: support(rftp_live::uring_supported(), "io_uring"),
            shm: support(rftp_live::shm_supported(), "memfd/SCM_RIGHTS"),
        }
    }

    pub fn line(&self, steal: f64, memcpy_gbps: f64) -> String {
        let yn = |r: &Result<(), String>| if r.is_ok() { "yes" } else { "no" };
        format!(
            "host: nproc={} kernel={} uring={} shm={} host.steal_share={:.4} memcpy_gbps={:.2}",
            self.nproc,
            self.kernel,
            yn(&self.uring),
            yn(&self.shm),
            steal,
            memcpy_gbps
        )
    }
}

/// Nearest-rank quantile of `v` (sorted in place); 0 when empty.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}
