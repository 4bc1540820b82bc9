//! Launchers: small helper processes that spawn `powerlens-cli` on the
//! benchmark's behalf and report each invocation's exit code, peak resident
//! set and wall time.
//!
//! Linux carries a process's peak resident set across `execve`, and a
//! spawned child starts from its parent's memory, so `ru_maxrss` of a CLI
//! spawned straight from the benchmark reads the benchmark's own peak. A
//! launcher is a fresh `perfbench --launch <cli>` process a few MiB in
//! size, so the peak it reports for its children is theirs.
//!
//! Protocol, over the launcher's stdin and stdout: one request line of
//! tab-separated CLI arguments; one reply line
//! `<exit code> <peak rss KiB> <wall ns> <stdout bytes>`, followed by the
//! CLI's stdout.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitCode, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Largest CLI output a launcher reply may announce; a plan table is a few
/// KiB.
const MAX_STDOUT: i64 = 1 << 20;

/// One finished CLI process.
pub struct Invocation {
    pub exit_code: i32,
    pub stdout: String,
    pub maxrss_mb: f64,
    /// Spawn to reap, timed inside the launcher.
    pub wall: Duration,
}

#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Runs the CLI to completion and reads its peak resident set from
/// `wait4`.
fn invoke(cli: &Path, args: &[&str]) -> io::Result<Invocation> {
    let started = Instant::now();
    let mut child = Command::new(cli)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let pid = child.id();
    let mut stdout = String::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout);
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `pid` is this process's own unreaped child (std never waits
    // on it: `child` is dropped without `wait`), and `status` and `usage`
    // are live, writable values of the layouts `wait4(2)` fills on 64-bit
    // Linux.
    let reaped = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
    let wall = started.elapsed();
    if reaped != pid as i32 {
        return Err(io::Error::other(format!(
            "wait4 on {pid} returned {reaped}"
        )));
    }
    read?;
    let exit_code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    Ok(Invocation {
        exit_code,
        stdout,
        maxrss_mb: usage.maxrss as f64 / 1024.0,
        wall,
    })
}

/// The launcher process's main loop: serves requests until stdin closes.
pub fn serve_requests(cli: &Path) -> ExitCode {
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        let Ok(line) = line else {
            return ExitCode::FAILURE;
        };
        let args: Vec<&str> = line.split('\t').collect();
        let reply = match invoke(cli, &args) {
            Ok(inv) => format!(
                "{} {} {} {}\n{}",
                inv.exit_code,
                (inv.maxrss_mb * 1024.0) as i64,
                inv.wall.as_nanos(),
                inv.stdout.len(),
                inv.stdout
            ),
            // An exit code no process returns marks a failed spawn.
            Err(e) => {
                eprintln!("perfbench launcher: {e}");
                "-1 0 0 0\n".to_string()
            }
        };
        if out
            .write_all(reply.as_bytes())
            .and_then(|()| out.flush())
            .is_err()
        {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// One running launcher.
struct Launcher {
    child: Child,
    /// `None` once closed, which ends the launcher.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Launcher {
    fn spawn(cli: &Path, dir: &Path) -> Result<Launcher, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut child = Command::new(exe)
            .arg("--launch")
            .arg(cli)
            .current_dir(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start a launcher: {e}"))?;
        crate::register_child(child.id());
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Launcher {
            child,
            stdin,
            stdout,
        })
    }

    fn invoke(&mut self, args: &[String]) -> Result<Invocation, String> {
        if args.iter().any(|a| a.contains(['\t', '\n'])) {
            return Err(format!("argument list {args:?} holds a tab or newline"));
        }
        let broken = |e: io::Error| format!("launcher: {e}");
        let stdin = self.stdin.as_mut().expect("open until drop");
        writeln!(stdin, "{}", args.join("\t")).map_err(broken)?;
        stdin.flush().map_err(broken)?;
        let mut header = String::new();
        self.stdout.read_line(&mut header).map_err(broken)?;
        let fields: Vec<i64> = header
            .split_whitespace()
            .map(|f| {
                f.parse()
                    .map_err(|_| format!("bad launcher reply {header:?}"))
            })
            .collect::<Result<_, _>>()?;
        let [exit_code, rss_kib, wall_ns, len] = fields[..] else {
            return Err(format!("bad launcher reply {header:?}"));
        };
        if !(0..=MAX_STDOUT).contains(&len) || wall_ns < 0 {
            return Err(format!("bad launcher reply {header:?}"));
        }
        let mut stdout = vec![0u8; len as usize];
        self.stdout.read_exact(&mut stdout).map_err(broken)?;
        if exit_code < 0 {
            return Err("the launcher could not start the CLI".to_string());
        }
        Ok(Invocation {
            exit_code: exit_code as i32,
            stdout: String::from_utf8_lossy(&stdout).into_owned(),
            maxrss_mb: rss_kib as f64 / 1024.0,
            wall: Duration::from_nanos(wall_ns as u64),
        })
    }
}

impl Drop for Launcher {
    fn drop(&mut self) {
        // Closing stdin ends the launcher's loop once its current CLI run
        // (tens of milliseconds at most) is reaped.
        drop(self.stdin.take());
        let _ = self.child.wait();
        crate::unregister_child(self.child.id());
    }
}

/// One launcher per client thread.
pub struct Launchers(Vec<Mutex<Launcher>>);

impl Launchers {
    /// Starts [`crate::CLIENTS`] launchers that run the CLI in `dir`.
    pub fn start(cli: &Path, dir: &Path) -> Result<Launchers, String> {
        (0..crate::CLIENTS)
            .map(|_| Launcher::spawn(cli, dir).map(Mutex::new))
            .collect::<Result<_, _>>()
            .map(Launchers)
    }

    /// Runs one CLI invocation on a free launcher. With no more callers
    /// than launchers, one is always free.
    pub fn invoke(&self, args: &[String]) -> Result<Invocation, String> {
        for launcher in &self.0 {
            if let Ok(mut l) = launcher.try_lock() {
                return l.invoke(args);
            }
        }
        self.0[0]
            .lock()
            .map_err(|_| "a launcher panicked")?
            .invoke(args)
    }
}
