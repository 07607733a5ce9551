//! Inputs shared by `pb-load` and `pb-trace`: a seeded generator and the
//! `daemon-submit` op stream.
//!
//! The op stream is open loop: Poisson request arrivals at a fixed rate,
//! every tenth request a `status` query and the rest `submit`s whose class
//! is drawn from the w4 mix. `pb-load` sends it over TCP to `pdpa daemon`;
//! `pb-trace` feeds the same stream to an in-process `DaemonCore`.

use pdpa_apps::{paper_app, AppClass};

/// Machine size of the simulated daemon.
pub const DAEMON_CPUS: usize = 60;
/// Processor demand the time scale is chosen for.
pub const TARGET_DEMAND: f64 = 0.8;
/// One request in this many is a `status` query.
pub const QUERY_EVERY: usize = 10;

/// SplitMix64: small, seedable, and independent of the program's RNGs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_BE4C_0DE5_u64)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * self.unit().ln()
    }
}

/// The w4 classes with their share of submitted jobs and sequential
/// work. Each class carries a quarter of the load, so its share of jobs is
/// inversely proportional to its work.
pub fn w4_mix() -> Vec<(AppClass, f64, f64)> {
    let classes = [
        AppClass::Swim,
        AppClass::BtA,
        AppClass::Hydro2d,
        AppClass::Apsi,
    ];
    let work: Vec<f64> = classes
        .iter()
        .map(|&c| paper_app(c).total_seq_time().as_secs())
        .collect();
    let total: f64 = work.iter().map(|w| 1.0 / w).sum();
    classes
        .iter()
        .zip(&work)
        .map(|(&c, &w)| (c, (1.0 / w) / total, w))
        .collect()
}

/// Mean sequential work of one submitted job, simulated seconds.
pub fn mean_seq_work() -> f64 {
    w4_mix().iter().map(|(_, share, work)| share * work).sum()
}

/// Simulated seconds per wall second that make `rate` submits per wall
/// second load the daemon's machine to [`TARGET_DEMAND`].
pub fn time_scale(rate: f64) -> f64 {
    rate * mean_seq_work() / (TARGET_DEMAND * DAEMON_CPUS as f64)
}

/// What one request asks.
#[derive(Clone, Debug, PartialEq)]
pub enum OpKind {
    /// Submit one job of this class (the class's default request and work).
    Submit(&'static str),
    /// A `status` query.
    Status,
}

/// One request of the stream, due `due_secs` after the stream starts.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// Offset from the stream's start, wall seconds.
    pub due_secs: f64,
    /// The request.
    pub kind: OpKind,
}

/// The op stream for `seed`: `rate` submits per second (plus one query
/// per [`QUERY_EVERY`] requests) over `secs` wall seconds.
pub fn op_stream(seed: u64, rate: f64, secs: f64) -> Vec<Op> {
    let mix = w4_mix();
    let request_rate = rate * QUERY_EVERY as f64 / (QUERY_EVERY - 1) as f64;
    let mut rng = Rng::new(seed);
    let mut ops = Vec::new();
    let mut t = rng.exp(1.0 / request_rate);
    while t < secs {
        let kind = if ops.len() % QUERY_EVERY == QUERY_EVERY - 1 {
            OpKind::Status
        } else {
            let mut u = rng.unit();
            let mut class = mix[mix.len() - 1].0;
            for &(c, share, _) in &mix {
                if u <= share {
                    class = c;
                    break;
                }
                u -= share;
            }
            OpKind::Submit(class.name())
        };
        ops.push(Op { due_secs: t, kind });
        t += rng.exp(1.0 / request_rate);
    }
    ops
}

/// The wire line of request `id` (protocol v2, no trailing newline),
/// formatted here rather than by the program's codec.
pub fn request_line(id: u64, kind: &OpKind) -> String {
    match kind {
        OpKind::Submit(class) => {
            format!("{{\"id\":{id},\"type\":\"submit\",\"class\":\"{class}\"}}")
        }
        OpKind::Status => format!("{{\"id\":{id},\"type\":\"status\"}}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_seeded_and_mixed() {
        let a = op_stream(7, 1000.0, 2.0);
        assert_eq!(a, op_stream(7, 1000.0, 2.0));
        assert_ne!(a, op_stream(8, 1000.0, 2.0));
        let submits = a.iter().filter(|o| o.kind != OpKind::Status).count();
        assert!((1800..2200).contains(&submits), "{submits} submits");
        assert!(a.windows(2).all(|w| w[0].due_secs <= w[1].due_secs));
        let shares: f64 = w4_mix().iter().map(|(_, s, _)| s).sum();
        assert!((shares - 1.0).abs() < 1e-9);
    }
}
