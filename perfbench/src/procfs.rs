//! Readers for the Linux `/proc` files the benchmark reports from. Every
//! reader returns `None` when its file is missing or malformed; callers
//! report such a value as absent, never as `0`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (`USER_HZ`, fixed at 100 by the kernel ABI).
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User and system CPU seconds consumed by this process so far, over
/// all its threads (live and exited).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// Reads `utime`/`stime` from `/proc/self/stat`.
    pub fn now() -> Option<CpuTimes> {
        let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
        // The command name may contain spaces; fields resume after the
        // last ')'. `utime` and `stime` are fields 14 and 15 of the
        // line, i.e. the 12th and 13th after the name.
        let rest = &stat[stat.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let user: f64 = fields.get(11)?.parse().ok()?;
        let sys: f64 = fields.get(12)?.parse().ok()?;
        Some(CpuTimes {
            user_s: user / USER_HZ,
            sys_s: sys / USER_HZ,
        })
    }

    /// CPU consumed since `earlier`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// One thread's `/proc/self/task/<tid>/schedstat`: nanoseconds on CPU
/// and nanoseconds spent runnable but waiting on a runqueue.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SchedStat {
    /// Time on CPU.
    pub run_ns: u64,
    /// Time waiting on a runqueue.
    pub wait_ns: u64,
}

fn read_task(tid: &str) -> Option<(String, SchedStat)> {
    let base = format!("/proc/self/task/{tid}");
    let comm = std::fs::read_to_string(format!("{base}/comm")).ok()?;
    let text = std::fs::read_to_string(format!("{base}/schedstat")).ok()?;
    let mut it = text.split_whitespace();
    let run_ns = it.next()?.parse().ok()?;
    let wait_ns = it.next()?.parse().ok()?;
    Some((comm.trim().to_string(), SchedStat { run_ns, wait_ns }))
}

/// `schedstat` of every live thread of this process whose name starts
/// with `prefix`, keyed by thread id. `None` when `/proc/self/task`
/// cannot be listed.
pub fn task_schedstats(prefix: &str) -> Option<BTreeMap<u64, SchedStat>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir("/proc/self/task").ok()? {
        let Ok(entry) = entry else { continue };
        let name = entry.file_name();
        let Some(tid) = name.to_str() else { continue };
        let Ok(id) = tid.parse::<u64>() else { continue };
        // A thread may exit between the listing and the read; skip it.
        if let Some((comm, stat)) = read_task(tid) {
            if comm.starts_with(prefix) {
                out.insert(id, stat);
            }
        }
    }
    Some(out)
}

/// A background thread that samples the `schedstat` of the threads
/// named `prefix*` at a low rate, so counters of threads that exit
/// before the end of the measured window are still counted (up to their
/// last sample).
pub struct SchedstatSampler {
    stop: Arc<AtomicBool>,
    state: Arc<Mutex<SamplerState>>,
    handle: Option<JoinHandle<()>>,
}

#[derive(Default)]
struct SamplerState {
    /// Threads alive when sampling started, with their counters then;
    /// only the growth past these counts.
    baseline: BTreeMap<u64, SchedStat>,
    /// Latest sample per thread.
    latest: BTreeMap<u64, SchedStat>,
    /// Set when `/proc/self/task` could not be read.
    unreadable: bool,
}

impl SchedstatSampler {
    /// Starts sampling every `every`.
    pub fn start(prefix: &'static str, every: Duration) -> SchedstatSampler {
        let baseline = task_schedstats(prefix);
        let state = Arc::new(Mutex::new(SamplerState {
            unreadable: baseline.is_none(),
            latest: baseline.clone().unwrap_or_default(),
            baseline: baseline.unwrap_or_default(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (stop, state) = (Arc::clone(&stop), Arc::clone(&state));
            std::thread::Builder::new()
                .name("perfbench-sampler".to_string())
                .spawn(move || loop {
                    let sample = task_schedstats(prefix);
                    {
                        let mut st = state.lock().unwrap_or_else(|e| e.into_inner());
                        match sample {
                            Some(s) => st.latest.extend(s),
                            None => st.unreadable = true,
                        }
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(every);
                })
                .ok()
        };
        let unreadable = handle.is_none();
        if unreadable {
            state.lock().unwrap_or_else(|e| e.into_inner()).unreadable = true;
        }
        SchedstatSampler {
            stop,
            state,
            handle,
        }
    }

    /// Stops the sampler (after one last sample) and returns the summed
    /// counter growth over the sampled threads, or `None` when the
    /// counters could not be read.
    pub fn finish(mut self) -> Option<(SchedStat, usize)> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        let st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.unreadable {
            return None;
        }
        let mut sum = SchedStat::default();
        for (tid, s) in &st.latest {
            let base = st.baseline.get(tid).copied().unwrap_or_default();
            sum.run_ns += s.run_ns.saturating_sub(base.run_ns);
            sum.wait_ns += s.wait_ns.saturating_sub(base.wait_ns);
        }
        let threads = st.latest.len() - st.baseline.len().min(st.latest.len());
        Some((sum, threads))
    }
}

impl Drop for SchedstatSampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readers_see_this_process() {
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        let a = CpuTimes::now().expect("stat readable");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        assert!(x != 1);
        let b = CpuTimes::now().expect("stat readable");
        assert!(b.since(a).total_s() >= 0.0);
    }

    #[test]
    fn sampler_counts_named_threads() {
        let sampler = SchedstatSampler::start("perfbench-spin", Duration::from_millis(5));
        let h = std::thread::Builder::new()
            .name("perfbench-spin".to_string())
            .spawn(|| {
                let t = std::time::Instant::now();
                let mut x = 0u64;
                while t.elapsed() < Duration::from_millis(60) {
                    x = x.wrapping_add(1);
                }
                std::thread::sleep(Duration::from_millis(20));
                x
            })
            .unwrap();
        let _ = h.join();
        let (sum, threads) = sampler.finish().expect("schedstat readable");
        assert_eq!(threads, 1);
        assert!(sum.run_ns > 0);
    }
}
