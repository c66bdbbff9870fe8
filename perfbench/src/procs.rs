//! Server processes under test and what the benchmark reads about them
//! from `/proc`.

use std::io::{self, BufRead, BufReader};
use std::os::unix::process::CommandExt;
use std::process::{Child, ChildStdout, Command, Stdio};

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn sysconf(name: i32) -> i64;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;
const SC_CLK_TCK: i32 = 2;

/// A spawned `dandelion-serve`, killed and reaped on drop (also when a
/// check fails or the benchmark panics).
pub struct ServerProc {
    child: Child,
    /// Kept open: a server that prints into a closed pipe would panic.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerProc {
    /// Starts `serve` with `args` and waits for it to report the address
    /// it bound.
    pub fn spawn(serve: &str, args: &[&str]) -> io::Result<ServerProc> {
        let mut command = Command::new(serve);
        command
            .args(args)
            .env_remove("DANDELION_FAILPOINTS")
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        // SAFETY: `prctl(PR_SET_PDEATHSIG)` is async-signal-safe and touches
        // no memory of the parent; it makes the kernel kill the server if
        // the benchmark dies without reaching its drop.
        unsafe {
            command.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let mut child = command.spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!("{serve} exited before listening")));
            }
            if let Some((_, rest)) = line.split_once("listening on http://") {
                break rest.trim().to_string();
            }
        };
        Ok(ServerProc {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn clock_ticks_per_second() -> u64 {
    // SAFETY: sysconf has no preconditions; it only reads a constant.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as u64
    } else {
        100
    }
}

/// User plus system CPU time of process `pid` (all its threads), in
/// microseconds.
pub fn cpu_us(pid: &str) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name may hold spaces; fields are counted after its `)`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let field = |index: usize| -> io::Result<u64> {
        fields
            .get(index)
            .and_then(|value| value.parse().ok())
            .ok_or_else(|| io::Error::other(format!("/proc/{pid}/stat field {index}")))
    };
    // utime and stime are fields 14 and 15; the state (field 3) is index 0.
    let ticks = field(11)? + field(12)?;
    Ok(ticks as f64 * 1e6 / clock_ticks_per_second() as f64)
}

/// Peak resident set (`VmHWM`) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|value| value.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM for {pid}")))
}

/// CPU time the hypervisor gave to other machines while this one wanted
/// to run (`steal` of `/proc/stat`), in seconds summed over CPUs.
pub fn steal_s() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let steal: u64 = stat
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|value| value.parse().ok())
        .ok_or_else(|| io::Error::other("no steal field in /proc/stat"))?;
    Ok(steal as f64 / clock_ticks_per_second() as f64)
}

pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|release| release.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
