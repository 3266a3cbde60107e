//! Single-layer timings on a workload's own inputs, each taken by
//! calling the layer's public functions directly.

use crate::stats::median;
use ldc_batch::{GraphSource, JobSpec};
use ldc_daemon::proto::{Request, Response};
use ldc_daemon::wire::{read_frame, write_frame, ReadEvent};
use ldc_graph::Graph;
use ldc_sim::{Bandwidth, Network, Outbox};
use std::hint::black_box;
use std::time::Instant;

/// The distinct graph sources of a job list, in first-use order.
pub fn distinct_sources(jobs: &[JobSpec]) -> Vec<GraphSource> {
    let mut out: Vec<GraphSource> = Vec::new();
    for j in jobs {
        if !out.contains(&j.graph) {
            out.push(j.graph.clone());
        }
    }
    out
}

/// `GraphSource::build` of every distinct source: median over `reps` of
/// the summed build time in ms, the summed half-edge count, and the
/// graphs from the last repetition.
pub fn graph_build(sources: &[GraphSource], reps: usize) -> Result<(f64, u64, Vec<Graph>), String> {
    let mut times = Vec::new();
    let mut graphs = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        graphs = sources
            .iter()
            .map(GraphSource::build)
            .collect::<Result<Vec<_>, _>>()?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let half_edges = graphs.iter().map(|g| 2 * g.num_edges() as u64).sum();
    Ok((median(&times), half_edges, graphs))
}

/// `Network::exchange` with a `u64` payload on every half-edge slot:
/// nanoseconds per slot over all `graphs`, each run for enough rounds
/// to move about `slots_per_graph` slots. Default engine settings.
pub fn exchange_ns_per_slot(graphs: &[Graph], slots_per_graph: u64) -> f64 {
    let mut ns = 0f64;
    let mut slots = 0u64;
    for g in graphs {
        let half_edges = (2 * g.num_edges() as u64).max(1);
        let rounds = (slots_per_graph / half_edges).clamp(3, 10_000);
        let mut net = Network::new(g, Bandwidth::Local);
        let mut states: Vec<u64> = g.nodes().map(u64::from).collect();
        exchange_round(&mut net, &mut states);
        let t0 = Instant::now();
        for _ in 0..rounds {
            exchange_round(&mut net, &mut states);
        }
        ns += t0.elapsed().as_nanos() as f64;
        slots += rounds * half_edges;
        black_box(&states);
    }
    ns / slots.max(1) as f64
}

fn exchange_round(net: &mut Network<'_>, states: &mut [u64]) {
    net.exchange(
        states,
        |_v, s, out: &mut Outbox<'_, u64>| {
            for p in 0..out.ports() {
                out.send(p, s.wrapping_add(p as u64));
            }
        },
        |v, s, inbox| {
            let mut acc = *s ^ u64::from(v);
            for (_, m) in inbox.iter() {
                acc = acc.wrapping_mul(31).wrapping_add(*m);
            }
            *s = acc;
        },
    )
    .expect("a LOCAL exchange cannot fail");
}

/// Microseconds per call of the daemon's proto and frame layers on the
/// workload's payloads: `Request::parse` of each job's solve request,
/// `Response::render` of each job's result row, and one
/// `write_frame` + `read_frame` round trip of each request through an
/// in-memory buffer. Each is the median of `reps` sweeps.
pub struct ProtoTimes {
    /// `Request::parse`, µs per request.
    pub parse_us: f64,
    /// `Response::render`, µs per response.
    pub render_us: f64,
    /// Frame write + read, µs per frame.
    pub frame_us: f64,
}

/// Time the proto and frame layers; `rows[i]` is job `i`'s result row.
pub fn proto_times(jobs: &[JobSpec], rows: &[String], reps: usize) -> Result<ProtoTimes, String> {
    let requests: Vec<String> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            Request::Solve {
                id: i as u64,
                job: Box::new(j.clone()),
            }
            .render()
        })
        .collect();
    let responses: Vec<Response> = rows
        .iter()
        .enumerate()
        .map(|(i, r)| Response::Result {
            id: i as u64,
            row: r.clone(),
        })
        .collect();
    let per_call = |f: &mut dyn FnMut() -> Result<(), String>, calls: usize| {
        let mut t = Vec::new();
        for _ in 0..reps.max(1) {
            let t0 = Instant::now();
            f()?;
            t.push(t0.elapsed().as_secs_f64() * 1e6 / calls as f64);
        }
        Ok::<f64, String>(median(&t))
    };
    let parse_us = per_call(
        &mut || {
            for r in &requests {
                black_box(Request::parse(r.as_bytes()).map_err(|(c, m)| format!("{c}: {m}"))?);
            }
            Ok(())
        },
        requests.len(),
    )?;
    let render_us = per_call(
        &mut || {
            for r in &responses {
                black_box(r.render());
            }
            Ok(())
        },
        responses.len(),
    )?;
    let mut buf: Vec<u8> = Vec::new();
    let frame_us = per_call(
        &mut || {
            for r in &requests {
                buf.clear();
                write_frame(&mut buf, r.as_bytes()).map_err(|e| e.to_string())?;
                match read_frame(&mut buf.as_slice()).map_err(|e| e.to_string())? {
                    ReadEvent::Frame(p) if p.len() == r.len() => {}
                    _ => return Err("frame did not round-trip".into()),
                }
            }
            Ok(())
        },
        requests.len(),
    )?;
    Ok(ProtoTimes {
        parse_us,
        render_us,
        frame_us,
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

extern "C" {
    /// glibc: hand the free memory of every malloc arena back to the
    /// kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Trim the allocator, then reset this process's peak resident set size
/// to its current one (`5` into `/proc/self/clear_refs`), so the next
/// [`peak_rss_mb`] reads the peak of what runs in between. Without the
/// trim, what the allocator kept from set-up, which varies with the
/// threads it ran on, would set the floor of that peak.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim only releases free pages; it touches no live
    // allocation and is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))
}

/// Clock ticks per second in `/proc` (`USER_HZ`, 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// CPU counters at one instant, in clock ticks: the host's stolen and
/// total CPU time (`/proc/stat`, all CPUs) and this process's user plus
/// system time (`/proc/self/stat`, all threads).
#[derive(Debug, Clone, Copy)]
pub struct CpuSample {
    steal: u64,
    total: u64,
    process: u64,
}

impl CpuSample {
    /// Read the counters now.
    pub fn now() -> Result<CpuSample, String> {
        let stat = std::fs::read_to_string("/proc/stat").map_err(|e| e.to_string())?;
        let cpu: Vec<u64> = stat
            .lines()
            .find_map(|l| l.strip_prefix("cpu "))
            .ok_or("no cpu line in /proc/stat")?
            .split_whitespace()
            .map(|v| v.parse().map_err(|e| format!("/proc/stat: {e}")))
            .collect::<Result<_, String>>()?;
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        let fields = cpu.get(..8).ok_or("short cpu line in /proc/stat")?;
        let own = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
        // Fields after the parenthesised command name start at `state`,
        // so utime and stime are the 12th and 13th.
        let after = own.rsplit_once(')').ok_or("bad /proc/self/stat")?.1;
        let ticks: Vec<u64> = after
            .split_whitespace()
            .skip(11)
            .take(2)
            .map(|v| v.parse().map_err(|e| format!("/proc/self/stat: {e}")))
            .collect::<Result<_, String>>()?;
        Ok(CpuSample {
            steal: fields[7],
            total: fields.iter().sum(),
            process: ticks.iter().sum(),
        })
    }

    /// The share of the host's CPU time stolen by the hypervisor since
    /// `earlier`, and this process's CPU seconds since then.
    pub fn since(self, earlier: CpuSample) -> (f64, f64) {
        let total = self.total.saturating_sub(earlier.total);
        let steal = self.steal.saturating_sub(earlier.steal);
        let share = if total == 0 {
            0.0
        } else {
            steal as f64 / total as f64
        };
        let process = self.process.saturating_sub(earlier.process) as f64 / TICKS_PER_S;
        (share, process)
    }
}
