//! The host record printed with every run: git revision, core count,
//! CPU model and the filesystem the checkpoints are written to. Read
//! from files only; no process is started.

use std::path::Path;

/// The checked-out revision, read from `.git` in `root` when there is
/// one ("unknown" in a plain source tree).
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model name from `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Hand the heap memory freed by the last iteration back to the
/// operating system, so every iteration starts from a trimmed heap as
/// a freshly started daemon would. Each iteration starts and stops two
/// daemons, and glibc keeps freed memory in per-thread arenas; without
/// the trim `VmHWM` depends on which arena a new daemon's threads are
/// handed and jumps by a whole fleet's captures from run to run.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called from any thread at any time; it only releases free
        // memory at the ends of the allocator's heaps.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// CPU time of this whole process (every thread, exited ones
/// included), in seconds. On a virtual machine with a paravirtual
/// steal clock the kernel leaves out time the hypervisor gave to
/// another guest, so unlike wall time it does not grow when the host
/// steals CPU. `None` where the clock cannot be read.
pub fn process_cpu_secs() -> Option<f64> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable `struct timespec` (two
        // 64-bit fields on the 64-bit Linux targets this builds for)
        // that outlives the call.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        (rc == 0).then_some(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Machine-wide CPU ticks from `/proc/stat`: (busy, steal), where busy
/// is user + nice + system time and steal is time the hypervisor ran
/// something else while a virtual CPU of this machine wanted to run.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((
        fields.first()? + fields.get(1)? + fields.get(2)?,
        *fields.get(7)?,
    ))
}

/// Share of the CPU time this machine wanted between two
/// [`cpu_ticks`] readings that the hypervisor stole.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((b0, s0), (b1, s1)) = (before?, after?);
    let (busy, steal) = (b1.checked_sub(b0)?, s1.checked_sub(s0)?);
    (busy + steal > 0).then(|| steal as f64 / (busy + steal) as f64)
}

/// Filesystem type of the mount holding `path` (the longest mount
/// point in `/proc/self/mounts` that prefixes it).
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fstype) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), fstype.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}
