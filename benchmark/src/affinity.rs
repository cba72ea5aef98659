//! CPU placement of a job. The standard library has no affinity call and
//! this package may add no dependency, so the two libc functions are declared
//! here (std links libc on Linux already).

/// 1024 CPUs, the size of glibc's `cpu_set_t`.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// While this lives, the thread that made it — and every thread spawned from
/// that one meanwhile, the runtime's workers included — runs on one CPU.
pub struct OneCpu {
    pub cpu: usize,
    before: CpuSet,
}

impl OneCpu {
    /// Pins the calling thread to the highest-numbered CPU it is allowed to
    /// run on (CPU 0 takes the device interrupts). `None`, with nothing
    /// changed, where the placement cannot be set.
    #[cfg(target_os = "linux")]
    pub fn pin() -> Option<OneCpu> {
        let mut before: CpuSet = [0; 16];
        let bytes = std::mem::size_of::<CpuSet>();
        // SAFETY: `before` is `bytes` long and outlives the call; pid 0 is
        // the calling thread.
        if unsafe { sched_getaffinity(0, bytes, before.as_mut_ptr()) } != 0 {
            return None;
        }
        let (word, bits) = before.iter().enumerate().rfind(|(_, w)| **w != 0)?;
        let cpu = word * 64 + (63 - bits.leading_zeros() as usize);
        let mut only: CpuSet = [0; 16];
        only[word] = 1 << (cpu % 64);
        // SAFETY: as above; the kernel only reads `only`.
        (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0)
            .then_some(OneCpu { cpu, before })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn pin() -> Option<OneCpu> {
        None
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        // SAFETY: `before` is a mask the kernel itself returned.
        #[cfg(target_os = "linux")]
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), self.before.as_ptr());
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    fn allowed() -> CpuSet {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is as long as the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), set.as_mut_ptr()) };
        assert_eq!(rc, 0);
        set
    }

    #[test]
    fn pin_holds_for_spawned_threads_and_is_undone_on_drop() {
        let before = allowed();
        let pin = OneCpu::pin().expect("a linux thread can pin itself");
        let mut only: CpuSet = [0; 16];
        only[pin.cpu / 64] = 1 << (pin.cpu % 64);
        assert_eq!(allowed(), only);
        assert_eq!(std::thread::spawn(allowed).join().unwrap(), only);
        drop(pin);
        assert_eq!(allowed(), before);
    }
}
