//! The system under test as its own process: `perfbench daemon --model
//! PATH` loads a CLVY file and runs `serve::start` with the production
//! defaults, so its peak RSS and CPU are the daemon's alone.

use clairvoyant::report::Json;
use serve::client::is_ok;
use serve::{Client, ModelState, ServeConfig};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Entry point of the daemon child process.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let model = match args {
        [flag, path] if flag == "--model" => path,
        _ => return Err("usage: perfbench daemon --model PATH".into()),
    };
    let state = ModelState::load(Path::new(model))?;
    let handle = serve::start(ServeConfig::default(), state)?;
    println!("listening on {}", handle.addr());
    use std::io::Write as _;
    std::io::stdout()
        .flush()
        .map_err(|e| format!("cannot write the address: {e}"))?;
    handle.wait();
    Ok(())
}

/// A running daemon child.
pub struct Daemon {
    child: Child,
    pub addr: SocketAddr,
    /// Spawn to first `health` ok.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawn the daemon on `model` and wait for its first `health` ok.
    pub fn spawn(model: &Path) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
        let t0 = Instant::now();
        let mut child = Command::new(exe)
            .arg("daemon")
            .arg("--model")
            .arg(model)
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let stdout = child.stdout.take().expect("daemon stdout is piped");
        let mut line = String::new();
        let read = BufReader::new(stdout).read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("daemon did not report an address: {line:?}"));
        };
        let mut daemon = Daemon {
            child,
            addr,
            setup_s: 0.0,
        };
        let mut client = daemon.client()?;
        let health = client.health()?;
        if !is_ok(&health) {
            return Err(format!("daemon health failed: {health}"));
        }
        daemon.setup_s = t0.elapsed().as_secs_f64();
        Ok(daemon)
    }

    pub fn client(&self) -> Result<Client, String> {
        let mut client = Client::connect(self.addr)?;
        client.set_timeout(Some(Duration::from_secs(60)))?;
        Ok(client)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The daemon's `stats` body.
    pub fn stats(&self) -> Result<Json, String> {
        let response = self.client()?.stats()?;
        match response {
            Json::Object(mut o) => o
                .remove("stats")
                .ok_or_else(|| "stats response has no body".to_string()),
            other => Err(format!("bad stats response: {other}")),
        }
    }

    /// Graceful shutdown over the wire, then reap the process.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.client().and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err(format!("daemon did not shut down: {asked:?}"));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Reached only on error paths: `shutdown` reaps the child itself.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Number at `path` (dot-separated object keys) in a JSON value.
pub fn json_num(value: &Json, path: &str) -> f64 {
    let mut cur = value;
    for key in path.split('.') {
        match cur {
            Json::Object(o) => match o.get(key) {
                Some(v) => cur = v,
                None => return 0.0,
            },
            _ => return 0.0,
        }
    }
    match cur {
        Json::Number(n) => *n,
        _ => 0.0,
    }
}
