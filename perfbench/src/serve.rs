//! The serve phase: a `qspr serve` child process driven over HTTP by
//! an open-loop, keep-alive load generator.
//!
//! Arrivals follow a fixed schedule made from the benchmark seed, one
//! blocking keep-alive connection per generator thread. A request the
//! server delayed (its connection was still busy at the due time) is
//! timed from its *due* time, so a stall also charges the requests it
//! held up; the generator's own late wake-ups are reported apart. Hits are `/map` and `/compare` on
//! the six suite circuits, warmed before timing; misses are `/map` and
//! `/sta` on fresh seeded random programs at a small `m`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use qspr::fabric::Fabric;
use qspr::json::{escape, JsonValue};
use qspr::place::PassDirection;
use qspr::qasm::{random_program, Program, RandomProgramConfig};
use qspr::route::RouterKind;
use qspr::service::http::{self, Client};
use qspr::service::normalize_timing;
use qspr::sta::TimingAnalysis;
use qspr::{ComparisonRow, Flow, ToJson};

use crate::suite::Circuit;
use crate::Rng;

/// A running `qspr serve` child. Dropping it kills and reaps the
/// process; [`ServerChild::shutdown`] stops it gracefully.
pub struct ServerChild {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl ServerChild {
    pub fn spawn(bin: &Path, threads: usize) -> Result<ServerChild, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--threads"])
            .arg(threads.to_string())
            // Room for every miss of a run, so hits are never evicted.
            .args(["--cache", "100000", "--max-queue", "4096"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on http://")
            .map(|rest| rest.trim_end_matches('/').to_owned());
        let mut server = ServerChild {
            child,
            stdout,
            addr: String::new(),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => server.addr = addr,
            _ => return Err(format!("qspr serve did not report its address: {line:?}")),
        }
        let health =
            http::call(&server.addr, "GET", "/healthz", "").map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        Ok(server)
    }

    /// Peak resident set of the server process, MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// `POST /shutdown`, then waits for the graceful drain.
    pub fn shutdown(mut self) -> Result<(), String> {
        let reply = http::call(&self.addr, "POST", "/shutdown", "")
            .map_err(|e| format!("shutdown: {e}"))?;
        // Drain the final stats line so the child never blocks on a
        // full pipe.
        let mut rest = String::new();
        while self.stdout.read_line(&mut rest).is_ok_and(|n| n > 0) {}
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if reply.status != 200 || !status.success() {
            return Err(format!(
                "shutdown answered {} and the server exited with {status}",
                reply.status
            ));
        }
        Ok(())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB (0 when unreadable).
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One request the generator can send.
#[derive(Debug, Clone)]
pub struct Req {
    pub path: &'static str,
    pub body: String,
}

/// The six suite circuits as `/map` and `/compare` requests with the
/// service defaults (greedy router, m = 25).
pub fn hit_requests(circuits: &[Circuit]) -> Vec<Req> {
    let mut hits = Vec::new();
    for c in circuits {
        let program = quote(&c.qasm);
        hits.push(Req {
            path: "/map",
            body: format!("{{\"program\":{program}}}"),
        });
        hits.push(Req {
            path: "/compare",
            body: format!("{{\"program\":{program},\"name\":{}}}", quote(&c.name)),
        });
    }
    hits
}

/// A fresh miss program: its text and the request that maps it.
#[derive(Debug, Clone)]
pub struct Miss {
    pub text: String,
    pub req: Req,
}

/// Miss traffic settings.
#[derive(Debug, Clone, Copy)]
pub struct MissConfig {
    pub router: RouterKind,
    pub m: usize,
}

fn make_miss(rng: &mut Rng, config: MissConfig, index: u64) -> Miss {
    let qubits = 3 + rng.below(4) as usize;
    let gates = 8 + rng.below(13) as usize;
    let program = random_program(&RandomProgramConfig::new(qubits, gates), rng.next() ^ index);
    // A comment line makes every miss text distinct, so no two misses
    // share a cache entry.
    let text = format!("# miss {index}\n{}", program.to_qasm());
    let path = if rng.below(2) == 0 { "/map" } else { "/sta" };
    let body = format!(
        "{{\"program\":{},\"router\":\"{}\",\"m\":{}}}",
        quote(&text),
        config.router,
        config.m
    );
    Miss {
        text,
        req: Req { path, body },
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hit(usize),
    Miss(usize),
}

/// One scheduled arrival.
#[derive(Debug, Clone, Copy)]
struct Planned {
    due_ns: u64,
    kind: Kind,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub kind: Kind,
    pub status: u16,
    /// To the last response byte from the due time, or from the send
    /// time when the generator itself woke late.
    pub latency_ns: u64,
    /// How late the generator's own wake-up sent it (0 when the
    /// connection was still busy with the server at the due time).
    pub late_ns: u64,
    /// The body, kept for misses only.
    pub body: Option<String>,
    /// Hits only: the body equals the warmed one.
    pub hit_ok: bool,
}

/// Sends every hit request once, spread over `conns` connections, and
/// returns the response bodies in request order.
pub fn warm(addr: &str, hits: &[Req], conns: usize) -> Result<Vec<String>, String> {
    let results: Vec<Result<Vec<(usize, String)>, String>> = thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    for (i, req) in hits.iter().enumerate().skip(c).step_by(conns) {
                        let resp = client
                            .send("POST", req.path, &req.body)
                            .map_err(|e| format!("warm {}: {e}", req.path))?;
                        if resp.status != 200 {
                            return Err(format!("warm {} answered {}", req.path, resp.status));
                        }
                        out.push((i, resp.body));
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm thread panicked"))
            .collect()
    });
    let mut bodies = vec![String::new(); hits.len()];
    for part in results {
        for (i, body) in part? {
            bodies[i] = body;
        }
    }
    Ok(bodies)
}

/// A fixed-rate schedule of `rate` requests/s over `seconds`, a
/// `miss_share` of them misses.
pub struct Schedule {
    planned: Vec<Planned>,
    pub misses: Vec<Miss>,
}

impl Schedule {
    pub fn new(
        rng: &mut Rng,
        rate: f64,
        seconds: f64,
        hits: usize,
        miss_share: f64,
        miss: MissConfig,
        first_miss: u64,
    ) -> Schedule {
        let count = (rate * seconds).round().max(1.0) as u64;
        let mut planned = Vec::with_capacity(count as usize);
        let mut misses = Vec::new();
        for i in 0..count {
            let kind = if rng.unit() < miss_share {
                misses.push(make_miss(rng, miss, first_miss + misses.len() as u64));
                Kind::Miss(misses.len() - 1)
            } else {
                Kind::Hit(rng.below(hits as u64) as usize)
            };
            planned.push(Planned {
                due_ns: (i as f64 * 1e9 / rate) as u64,
                kind,
            });
        }
        Schedule { planned, misses }
    }

    pub fn len(&self) -> usize {
        self.planned.len()
    }

    /// Plays the schedule against `addr` over `conns` keep-alive
    /// connections (at least two). Misses travel on connection 0 and
    /// hits round-robin on the others, so a hit never waits behind a
    /// miss on its own connection, only inside the server. A
    /// connection that falls more than `give_up_late` behind stops
    /// sending (its unsent requests are left out of the result).
    pub fn play(
        &self,
        addr: &str,
        conns: usize,
        hits: &[Req],
        warm_bodies: &[String],
        give_up_late: Option<Duration>,
    ) -> Vec<Outcome> {
        let start = Instant::now() + Duration::from_millis(20);
        let hit_conns = if self.misses.is_empty() {
            conns
        } else {
            conns - 1
        };
        let mut lanes: Vec<Vec<Planned>> = vec![Vec::new(); conns];
        let mut next_hit = 0;
        for planned in &self.planned {
            let lane = match planned.kind {
                Kind::Miss(_) => 0,
                Kind::Hit(_) => {
                    next_hit += 1;
                    conns - 1 - next_hit % hit_conns
                }
            };
            lanes[lane].push(*planned);
        }
        let lanes = &lanes;
        let per_conn: Vec<Vec<Outcome>> = thread::scope(|scope| {
            let handles: Vec<_> = (0..conns)
                .map(|c| {
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut client = Client::connect(addr).ok();
                        let mut prev_done = start;
                        for planned in &lanes[c] {
                            let due = start + Duration::from_nanos(planned.due_ns);
                            let now = Instant::now();
                            if due > now {
                                thread::sleep(due - now);
                            }
                            let sent = Instant::now();
                            let late = sent.saturating_duration_since(due);
                            if give_up_late.is_some_and(|limit| late > limit) {
                                break;
                            }
                            // Still waiting on the server at the due time:
                            // the server delayed this request, so it is
                            // charged from its due time. Otherwise any
                            // lateness is the generator's own wake-up,
                            // reported apart and not charged.
                            let waited_on_server = prev_done > due;
                            let charged_from = if waited_on_server { due } else { sent };
                            let req = match planned.kind {
                                Kind::Hit(i) => &hits[i],
                                Kind::Miss(i) => &self.misses[i].req,
                            };
                            let response = match client.as_mut() {
                                Some(cl) if !cl.is_closed() => cl.send("POST", req.path, &req.body),
                                _ => Client::connect(addr).and_then(|mut cl| {
                                    let r = cl.send("POST", req.path, &req.body);
                                    client = Some(cl);
                                    r
                                }),
                            };
                            let done = Instant::now();
                            prev_done = done;
                            let (status, body) = match response {
                                Ok(r) => (r.status, r.body),
                                Err(_) => {
                                    client = None;
                                    (0, String::new())
                                }
                            };
                            let hit_ok = match planned.kind {
                                Kind::Hit(i) => status == 200 && body == warm_bodies[i],
                                Kind::Miss(_) => false,
                            };
                            out.push(Outcome {
                                kind: planned.kind,
                                status,
                                latency_ns: done.duration_since(charged_from).as_nanos() as u64,
                                late_ns: if waited_on_server {
                                    0
                                } else {
                                    late.as_nanos() as u64
                                },
                                body: matches!(planned.kind, Kind::Miss(_)).then_some(body),
                                hit_ok,
                            });
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect()
        });
        per_conn.into_iter().flatten().collect()
    }
}

/// The counters the phase reads from `GET /stats`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub rejected: u64,
    pub busy_us: u64,
}

pub fn stats(addr: &str) -> Result<Stats, String> {
    let resp = http::call(addr, "GET", "/stats", "").map_err(|e| format!("stats: {e}"))?;
    let value = JsonValue::parse(&resp.body).map_err(|e| format!("stats JSON: {e}"))?;
    let field = |key: &str| {
        value
            .get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("stats has no {key}"))
    };
    Ok(Stats {
        cache_hits: field("cache_hits")?,
        cache_misses: field("cache_misses")?,
        rejected: field("rejected")?,
        busy_us: field("busy_us")?,
    })
}

/// The largest 0.99-quantile among the samples of `family` in a
/// Prometheus text exposition.
pub fn metric_p99(text: &str, family: &str) -> Option<f64> {
    text.lines()
        .filter(|l| l.starts_with(&format!("{family}{{")) && l.contains("quantile=\"0.99\""))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .reduce(f64::max)
}

/// In-process answers for the oracle: the service must return what a
/// `Flow` with the same configuration computes.
pub struct Oracle {
    fabric: Arc<Fabric>,
}

/// Result of checking sampled miss bodies in process.
#[derive(Debug, Default)]
pub struct MissCheck {
    pub failures: Vec<String>,
    pub sta_calls: u64,
    pub sta_ns: u64,
}

impl Oracle {
    pub fn new(fabric: Arc<Fabric>) -> Oracle {
        Oracle { fabric }
    }

    /// Checks the warmed hit bodies: `/map` equals the in-process
    /// summary modulo `timing`, `/compare` equals the row.
    pub fn check_hits(
        &self,
        circuits: &[Circuit],
        warm_bodies: &[String],
        summaries: &[String],
        rows: &[ComparisonRow],
    ) -> Vec<String> {
        let mut failures = Vec::new();
        for (i, c) in circuits.iter().enumerate() {
            if normalize_timing(&warm_bodies[2 * i]) != summaries[i] {
                failures.push(format!("/map {}: body differs from Flow::run", c.name));
            }
            if warm_bodies[2 * i + 1] != rows[i].to_json() {
                failures.push(format!(
                    "/compare {}: body differs from Flow::compare",
                    c.name
                ));
            }
        }
        failures
    }

    /// Recomputes each sampled miss in process and compares bodies;
    /// times `TimingAnalysis::analyze` on the `/sta` ones.
    pub fn check_misses(&self, config: MissConfig, sample: &[(&Miss, &str)]) -> MissCheck {
        let mut check = MissCheck::default();
        let flow = Flow::on(Arc::clone(&self.fabric))
            .seeds(config.m)
            .router(config.router);
        for (miss, body) in sample {
            let program = match Program::parse(&miss.text) {
                Ok(p) => p,
                Err(e) => {
                    check.failures.push(format!("miss program: {e}"));
                    continue;
                }
            };
            let expected = if miss.req.path == "/map" {
                flow.run(&program)
                    .map(|r| normalize_timing(&r.summary().to_json()))
                    .map_err(|e| e.to_string())
            } else {
                let traced = flow.clone().record_trace(true);
                traced
                    .run(&program)
                    .map_err(|e| e.to_string())
                    .and_then(|r| {
                        let analyzed = match r.direction {
                            PassDirection::Forward => program.clone(),
                            PassDirection::Backward => program.reversed(),
                        };
                        let analysis = TimingAnalysis::new(&self.fabric, *traced.tech_params());
                        let started = Instant::now();
                        let report = analysis.analyze(&analyzed, &r.outcome);
                        check.sta_ns += started.elapsed().as_nanos() as u64;
                        check.sta_calls += 1;
                        report.map(|rep| rep.to_json()).map_err(|e| e.to_string())
                    })
            };
            match expected {
                Ok(json) if json == normalize_timing(body) => {}
                Ok(_) => check.failures.push(format!(
                    "{}: body differs from the in-process answer",
                    miss.req.path
                )),
                Err(e) => check
                    .failures
                    .push(format!("{}: in process: {e}", miss.req.path)),
            }
        }
        check
    }
}

/// Median time of `MapService::handle` on a warm cache hit, µs: the
/// service without its sockets.
pub fn handle_hit_us(fabric: Arc<Fabric>, hits: &[Req]) -> f64 {
    use qspr::service::{MapService, Request};
    let service = MapService::new(fabric, 64);
    let requests: Vec<Request> = hits
        .iter()
        .filter(|r| r.path == "/map")
        .map(|r| Request::new("POST", r.path, r.body.clone()))
        .collect();
    for request in &requests {
        service.handle(request);
    }
    let mut samples = Vec::new();
    for _ in 0..200 {
        for request in &requests {
            let started = Instant::now();
            let response = service.handle(request);
            samples.push(started.elapsed().as_nanos() as f64 / 1e3);
            std::hint::black_box(response);
        }
    }
    crate::median(&mut samples)
}

/// `s` as a JSON string literal.
fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}
