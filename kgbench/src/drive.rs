//! Load over real loopback TCP: one closed-loop reading connection,
//! plus, for a contention window, an open-loop mutating connection —
//! one thread each.
//! Requests go through the public `kgag_serve::wire` codec on a plain
//! socket, so the client's encode and decode time are spans of their
//! own (source (b) of the traced run).

use crate::gen::{self, MutationStream, ScoreStream};
use kgag_data::LifecycleAck;
use kgag_serve::wire;
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Requests the reading connection sends before the window opens.
const WARMUP: usize = 20;
/// A server silent for this long has failed the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);
/// Gap between scheduled lifecycle ops: about 100 per second.
pub const MUTATION_PERIOD: Duration = Duration::from_millis(10);

/// What to send: `reads` in a closed loop after `warm` has warmed the
/// connection up.
pub struct Load {
    pub warm: ScoreStream,
    pub reads: ScoreStream,
    /// Lifecycle ops sent every [`MUTATION_PERIOD`], whatever the reads do.
    pub mutations: Option<MutationStream>,
}

/// One score request of the window.
pub struct Score {
    pub group: u32,
    pub items: Vec<u32>,
    pub result: Result<Vec<f32>, String>,
    /// Before encode to after decode.
    pub latency_ns: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    /// Send time minus the previous reply (closed loop: the generator's
    /// own delay).
    pub late_ns: u64,
    /// When the reply was decoded.
    pub done: Instant,
}

/// One lifecycle op of the window.
pub struct Applied {
    pub mutation: gen::Mutation,
    pub result: Result<LifecycleAck, String>,
    /// Scheduled send time to decoded ack.
    pub latency_ns: u64,
    /// Actual send time minus scheduled: how far the generator ran behind.
    pub late_ns: u64,
    /// For a create: the new group's scores of the twin's candidates,
    /// requested right after the ack, and that request's latency.
    pub twin_scores: Option<Result<Vec<f32>, String>>,
    pub twin_ns: u64,
}

pub struct Window {
    pub scores: Vec<Score>,
    pub applied: Vec<Applied>,
    /// Latencies of the score requests besides `scores` — warm-up and
    /// twin checks — which the server's own totals count too.
    pub side_ns: Vec<u64>,
    /// When the window opened.
    pub start: Instant,
    pub seconds: f64,
}

/// Drive `load` against `addr` for `seconds` (after warm-up).
pub fn drive(addr: SocketAddr, load: Load, seconds: f64) -> Window {
    let barrier = &Barrier::new(1 + usize::from(load.mutations.is_some()));
    let window = Duration::from_secs_f64(seconds);
    std::thread::scope(|s| {
        let writer =
            load.mutations.map(|ops| s.spawn(move || open_loop(addr, ops, barrier, window)));
        let reads = closed_loop(addr, load.warm, load.reads, barrier, window);
        let applied = writer.map_or_else(Vec::new, |h| h.join().expect("mutating thread panicked"));
        let twins = applied.iter().filter(|a| a.twin_scores.is_some()).map(|a| a.twin_ns);
        Window {
            side_ns: reads.warm_ns.into_iter().chain(twins).collect(),
            scores: reads.out,
            applied,
            start: reads.start,
            seconds: (reads.end - reads.start).as_secs_f64(),
        }
    })
}

struct Run {
    warm_ns: Vec<u64>,
    out: Vec<Score>,
    start: Instant,
    end: Instant,
}

fn closed_loop(
    addr: SocketAddr,
    mut warm: ScoreStream,
    mut reads: ScoreStream,
    barrier: &Barrier,
    window: Duration,
) -> Run {
    let mut warm_ns = Vec::with_capacity(WARMUP);
    let warmed = WireConn::connect(addr).and_then(|mut conn| {
        for _ in 0..WARMUP {
            let (group, items) = warm.next_request();
            let (result, ns) = conn.score(group, &items)?;
            result?;
            warm_ns.push(ns);
        }
        Ok(conn)
    });
    // both threads reach the barrier, so a failed warm-up cannot strand
    // the other
    barrier.wait();
    let start = Instant::now();
    let mut run = Run { warm_ns, out: Vec::new(), start, end: start };
    let mut conn = match warmed {
        Ok(conn) => conn,
        Err(e) => {
            run.out.push(Score::failed(0, Vec::new(), format!("warm-up: {e}"), start));
            return run;
        }
    };
    let end_at = start + window;
    let mut due = start;
    while Instant::now() < end_at {
        let (group, items) = reads.next_request();
        let call = conn.send_score(group, &items).and_then(|sent| Ok((conn.receive(&sent)?, sent)));
        match call {
            Ok((call, sent)) => {
                run.out.push(Score {
                    group,
                    items,
                    result: scores(call.reply),
                    latency_ns: nanos(call.done - sent.at),
                    encode_ns: sent.encode_ns,
                    decode_ns: call.decode_ns,
                    late_ns: nanos(sent.at - due),
                    done: call.done,
                });
                due = call.done;
            }
            Err(e) => {
                // the connection is unusable: record and stop
                run.out.push(Score::failed(group, items, e, Instant::now()));
                break;
            }
        }
    }
    run.end = due;
    run
}

/// Send the stream's next op every [`MUTATION_PERIOD`] until the window
/// closes, late or not; a transport error ends the stream.
fn open_loop(
    addr: SocketAddr,
    mut ops: MutationStream,
    barrier: &Barrier,
    window: Duration,
) -> Vec<Applied> {
    let conn = WireConn::connect(addr);
    barrier.wait();
    let start = Instant::now();
    let mut out = Vec::new();
    let mut conn = match conn {
        Ok(conn) => conn,
        Err(e) => {
            out.push(Applied::failed(ops.next_op(), e));
            return out;
        }
    };
    for i in 0u32.. {
        let due = start + MUTATION_PERIOD * i;
        if due >= start + window {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let mutation = ops.next_op();
        let call = conn.send(|id| {
            wire::encode_lifecycle(&wire::LifecycleRequest { id, op: mutation.op.clone() })
        });
        let (call, sent) = match call.and_then(|sent| Ok((conn.receive(&sent)?, sent))) {
            Ok(answered) => answered,
            Err(e) => {
                out.push(Applied::failed(mutation, e));
                break;
            }
        };
        let result = match call.reply {
            Ok(wire::Reply::Ack(ack)) => Ok(ack),
            Ok(other) => Err(format!("non-ack reply {other:?}")),
            Err(e) => Err(e),
        };
        let (twin_scores, twin_ns) = match (&mutation.twin, &result) {
            (Some((_, items)), Ok(ack)) => match conn.score(ack.group, items) {
                Ok((scores, ns)) => (Some(scores), ns),
                Err(e) => {
                    out.push(Applied::failed(mutation, e));
                    break;
                }
            },
            _ => (None, 0),
        };
        out.push(Applied {
            mutation,
            result,
            latency_ns: nanos(call.done - due),
            late_ns: nanos(sent.at.saturating_duration_since(due)),
            twin_scores,
            twin_ns,
        });
    }
    out
}

impl Score {
    fn failed(group: u32, items: Vec<u32>, error: String, done: Instant) -> Score {
        Score {
            group,
            items,
            result: Err(error),
            latency_ns: 0,
            encode_ns: 0,
            decode_ns: 0,
            late_ns: 0,
            done,
        }
    }
}

impl Applied {
    fn failed(mutation: gen::Mutation, error: String) -> Applied {
        Applied {
            mutation,
            result: Err(error),
            latency_ns: 0,
            late_ns: 0,
            twin_scores: None,
            twin_ns: 0,
        }
    }
}

fn scores(reply: Result<wire::Reply, String>) -> Result<Vec<f32>, String> {
    match reply? {
        wire::Reply::Scores(scores) => Ok(scores),
        other => Err(format!("non-score reply {other:?}")),
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// A connection speaking the wire codec directly.
struct WireConn {
    stream: TcpStream,
    next_id: u64,
}

/// A request on the wire, awaiting its reply.
struct Sent {
    id: u64,
    at: Instant,
    encode_ns: u64,
}

/// One answered request: the server's verdict plus the client's timings.
struct Call {
    reply: Result<wire::Reply, String>,
    done: Instant,
    decode_ns: u64,
}

impl WireConn {
    fn connect(addr: SocketAddr) -> Result<WireConn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
        Ok(WireConn { stream, next_id: 1 })
    }

    /// Encode the frame `encode` builds for a fresh id, and send it. `Err`
    /// here and from [`WireConn::receive`] is a transport failure, after
    /// which the connection is unusable; a typed server refusal is an
    /// `Err` inside the call.
    fn send<E: ToString>(
        &mut self,
        encode: impl FnOnce(u64) -> Result<Vec<u8>, E>,
    ) -> Result<Sent, String> {
        let id = self.next_id;
        self.next_id += 1;
        let at = Instant::now();
        let frame = encode(id).map_err(|e| e.to_string())?;
        let encoded = Instant::now();
        wire::write_frame(&mut self.stream, &frame).map_err(|e| format!("send: {e}"))?;
        Ok(Sent { id, at, encode_ns: nanos(encoded - at) })
    }

    fn send_score(&mut self, group: u32, items: &[u32]) -> Result<Sent, String> {
        self.send(|id| {
            wire::encode_request(&wire::Request {
                id,
                group,
                deadline_us: 0,
                items: items.to_vec(),
            })
        })
    }

    fn receive(&mut self, sent: &Sent) -> Result<Call, String> {
        let payload = wire::read_frame(&mut self.stream).map_err(|e| format!("receive: {e}"))?;
        let received = Instant::now();
        let response = wire::decode_response(&payload)?;
        let done = Instant::now();
        if response.id != sent.id {
            return Err(format!("response id {} for request {}", response.id, sent.id));
        }
        Ok(Call {
            reply: response.into_result().map_err(|e| e.to_string()),
            done,
            decode_ns: nanos(done - received),
        })
    }

    /// One score round trip: the server's verdict and its latency.
    fn score(
        &mut self,
        group: u32,
        items: &[u32],
    ) -> Result<(Result<Vec<f32>, String>, u64), String> {
        let sent = self.send_score(group, items)?;
        let call = self.receive(&sent)?;
        Ok((scores(call.reply), nanos(call.done - sent.at)))
    }
}
