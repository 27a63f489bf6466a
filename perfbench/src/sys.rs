//! What the benchmark asks of the operating system: one CPU to run on,
//! the process's peak resident memory and the filesystem under the data
//! directory.

use std::path::Path;

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod linux {
    use std::ffi::CString;
    use std::os::unix::ffi::OsStrExt;
    use std::path::Path;

    extern "C" {
        fn statfs(path: *const std::os::raw::c_char, buf: *mut u64) -> i32;
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// Restrict the calling thread to the highest-numbered CPU it may run
    /// on, and return that CPU.
    pub fn pin_last_cpu() -> Option<usize> {
        // A `cpu_set_t` is 1024 bits.
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is `size` writable bytes; pid 0 is this thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..1024)
            .rev()
            .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is `size` readable bytes; pid 0 is this thread.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }

    /// `f_type` of the filesystem holding `path`.
    pub fn fs_magic(path: &Path) -> Option<i64> {
        let c_path = CString::new(path.as_os_str().as_bytes()).ok()?;
        // `struct statfs` is 120 bytes on 64-bit Linux and starts with
        // `f_type`; the buffer leaves room to spare.
        let mut buf = [0u64; 32];
        // SAFETY: `c_path` is a NUL-terminated string that outlives the
        // call, and `buf` is 256 writable, 8-byte-aligned bytes, more
        // than the kernel's `struct statfs` needs.
        let rc = unsafe { statfs(c_path.as_ptr(), buf.as_mut_ptr()) };
        (rc == 0).then_some(buf[0] as i64)
    }
}

/// Run this thread, and every thread it starts from now on, on one CPU:
/// the highest-numbered one it may use. Returns that CPU, or `None`
/// where the benchmark cannot pin (then it runs unpinned).
///
/// Called before the daemon starts, so the daemon's threads and the load
/// generator's share the CPU. A closed loop over one connection does one
/// thing at a time: with two CPUs, every round trip wakes a thread on the
/// other virtual CPU, and on a shared 2-vCPU host the solve rate of one
/// run's repetitions then varied by up to 2.6x (see README.md).
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        linux::pin_last_cpu()
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        None
    }
}

/// Peak resident memory of this process image in MiB: the kernel's
/// `VmHWM` from `/proc/self/status`, NaN where there is none.
///
/// Not `getrusage`'s `ru_maxrss`: that survives `execve`, so under
/// `cargo run`, which execs the benchmark, it reports cargo's own peak
/// (about 25.7 MiB here) whenever the benchmark's is lower. `VmHWM`
/// starts afresh with the new image.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line["VmHWM:".len()..]
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Name of the filesystem holding `path`, from its `statfs` magic.
pub fn filesystem(path: &Path) -> String {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        match linux::fs_magic(path) {
            Some(0xEF53) => "ext4".to_string(),
            Some(0x5846_5342) => "xfs".to_string(),
            Some(0x9123_683E) => "btrfs".to_string(),
            Some(0x0102_1994) => "tmpfs".to_string(),
            Some(0x794C_7630) => "overlayfs".to_string(),
            Some(0x6969) => "nfs".to_string(),
            Some(0x6573_5546) => "fuse".to_string(),
            Some(0x2FC1_2FC1) => "zfs".to_string(),
            Some(magic) => format!("0x{magic:x}"),
            None => "unknown".to_string(),
        }
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        let _ = path;
        "unknown".to_string()
    }
}
