//! The op journal and the `pdpa-snapshot/v1` file format.
//!
//! The daemon's whole persistence story rests on the `EngineSession`
//! determinism contract: every mutation carries a monotone *effective*
//! instant, and simulation state is a pure function of the op sequence
//! plus the furthest barrier. A snapshot therefore needs no serialized
//! heap — it is:
//!
//! - the engine **config** (machine size, seed, backfill, horizon, policy
//!   slug) that seeds an identical fresh session;
//! - the ordered **op journal** of accepted `submit`/`cancel` mutations,
//!   each with the effective instant the session assigned (replay is a
//!   fixed point: re-applying effective instants yields the same
//!   effective instants);
//! - the **barrier**: the furthest instant the session was driven to;
//! - a **check** block of counters (events published, queue traffic,
//!   job outcomes, sim clock) the restored session must reproduce
//!   exactly, or the restore refuses to serve.
//!
//! Rejected submissions are never journaled — backpressure leaves no
//! trace in the simulation, so it must leave none in the journal.
//!
//! The format is a single JSON document (one per file, newline-terminated),
//! written and parsed with the workspace's one JSON codec,
//! [`pdpa_obs::json`]. Its last member, `digest`, seals it: the FNV-1a 64
//! hash of every byte before that member, so a truncated or bit-flipped
//! file fails to parse or fails the seal instead of restoring a run that
//! differs from the snapshotted one. Like the wire protocol the format
//! evolves additively: readers ignore unknown fields of a sealed
//! document, and `format`/`proto` mismatches fail loudly instead of
//! guessing. Documents written before the seal existed still restore;
//! they must carry exactly the unsealed v1 fields.
//!
//! Every parse error is located: it starts with the byte offset of a
//! syntax error or the path of the offending field (`config.cpus`,
//! `ops[3].at_secs`, `digest`).

use std::fmt::Write as _;

use pdpa_obs::json::{self, fmt_f64, push_str_escaped, Value};
use pdpa_watch::PROTO_VERSION;

/// Magic format tag; the first field of every snapshot file.
pub const SNAPSHOT_FORMAT: &str = "pdpa-snapshot/v1";

/// Opens the sealing member, the last of every written snapshot.
const DIGEST_MEMBER: &str = ",\"digest\":\"";

/// The top-level fields of an unsealed document, the only ones it may
/// carry.
const UNSEALED_FIELDS: [&str; 7] = [
    "format",
    "proto",
    "config",
    "draining",
    "barrier_secs",
    "ops",
    "check",
];

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `obj[key]` read by `get`, or a located error naming `path.key`.
fn field<'a, T>(
    obj: &'a Value,
    path: &str,
    key: &str,
    get: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<T, String> {
    obj.get(key)
        .and_then(get)
        .ok_or_else(|| format!("{path}{key}: missing or of the wrong type"))
}

/// A simulated instant or span: present, finite and non-negative.
fn secs(obj: &Value, path: &str, key: &str) -> Result<f64, String> {
    let v = field(obj, path, key, Value::as_f64)?;
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(format!(
            "{path}{key}: {v} is not a finite, non-negative time"
        ))
    }
}

/// One journaled mutation, with the *effective* (cursor-clamped) instant
/// the session applied it at.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// An admitted job submission.
    Submit {
        /// Effective submission instant, sim seconds.
        at_secs: f64,
        /// Application class name (`swim`, `bt.A`, `hydro2d`, `apsi`).
        class: String,
        /// Processor request override, if the submitter set one.
        request: Option<u64>,
        /// Sequential-work override in sim seconds, if set.
        work_secs: Option<f64>,
    },
    /// An accepted cancellation.
    Cancel {
        /// Effective cancellation instant, sim seconds.
        at_secs: f64,
        /// The cancelled job.
        job: u64,
    },
}

impl Op {
    fn push_json(&self, out: &mut String) {
        match self {
            Op::Submit {
                at_secs,
                class,
                request,
                work_secs,
            } => {
                let _ = write!(
                    out,
                    "{{\"op\":\"submit\",\"at_secs\":{},",
                    fmt_f64(*at_secs)
                );
                out.push_str("\"class\":");
                push_str_escaped(out, class);
                if let Some(request) = request {
                    let _ = write!(out, ",\"request\":{request}");
                }
                if let Some(work) = work_secs {
                    let _ = write!(out, ",\"work_secs\":{}", fmt_f64(*work));
                }
                out.push('}');
            }
            Op::Cancel { at_secs, job } => {
                let _ = write!(
                    out,
                    "{{\"op\":\"cancel\",\"at_secs\":{},\"job\":{job}}}",
                    fmt_f64(*at_secs)
                );
            }
        }
    }

    /// Parses journal entry `index`.
    fn parse(doc: &Value, index: usize) -> Result<Op, String> {
        let path = format!("ops[{index}].");
        let kind = field(doc, &path, "op", Value::as_str)?;
        let at_secs = secs(doc, &path, "at_secs")?;
        match kind {
            "submit" => Ok(Op::Submit {
                at_secs,
                class: field(doc, &path, "class", Value::as_str)?.to_string(),
                request: match doc.get("request") {
                    None => None,
                    Some(_) => Some(field(doc, &path, "request", Value::as_u64)?),
                },
                work_secs: match doc.get("work_secs") {
                    None => None,
                    Some(_) => Some(secs(doc, &path, "work_secs")?),
                },
            }),
            "cancel" => Ok(Op::Cancel {
                at_secs,
                job: field(doc, &path, "job", Value::as_u64)?,
            }),
            other => Err(format!("{path}op: unknown op kind '{other}'")),
        }
    }
}

/// The engine identity a snapshot carries: everything needed to open an
/// equivalent fresh session.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotConfig {
    /// Policy slug (the [`pdpa_core::roster`] vocabulary).
    pub policy: String,
    /// Machine size.
    pub cpus: usize,
    /// Daemon-level seed (the engine derives its own from it, the same
    /// way the CLI does).
    pub seed: u64,
    /// Queue backfilling.
    pub backfill: bool,
    /// Simulation horizon, sim seconds.
    pub max_sim_secs: f64,
}

/// The integrity block: counters a restored session must reproduce.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SnapshotCheck {
    /// Observer events published since session start.
    pub events_published: u64,
    /// Event-queue pushes.
    pub pushed: u64,
    /// Event-queue pops (stale discards included).
    pub popped: u64,
    /// Stale keyed entries discarded.
    pub stale_drops: u64,
    /// Jobs ever submitted.
    pub jobs_submitted: u64,
    /// Jobs completed.
    pub jobs_finished: u64,
    /// Jobs failed terminally (cancellations included).
    pub jobs_failed: u64,
    /// Sim clock at the snapshot, seconds.
    pub clock_secs: f64,
}

/// A complete `pdpa-snapshot/v1` document.
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Protocol version of the writer (frames and vocabulary).
    pub proto: u64,
    /// Engine identity.
    pub config: SnapshotConfig,
    /// True when the daemon had stopped admitting (post-`drain`).
    pub draining: bool,
    /// Furthest instant the session was driven to, sim seconds.
    pub barrier_secs: f64,
    /// Ordered journal of accepted mutations.
    pub ops: Vec<Op>,
    /// Counters the restore must reproduce.
    pub check: SnapshotCheck,
}

impl Snapshot {
    /// Serializes the snapshot as one sealed JSON document plus a
    /// trailing newline, so the file is a well-formed text file.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.ops.len() * 64);
        let _ = write!(
            out,
            "{{\"format\":\"{SNAPSHOT_FORMAT}\",\"proto\":{},",
            self.proto
        );
        out.push_str("\"config\":{\"policy\":");
        push_str_escaped(&mut out, &self.config.policy);
        let _ = write!(
            out,
            ",\"cpus\":{},\"seed\":{},\"backfill\":{},\"max_sim_secs\":{}}}",
            self.config.cpus,
            self.config.seed,
            self.config.backfill,
            fmt_f64(self.config.max_sim_secs)
        );
        let _ = write!(
            out,
            ",\"draining\":{},\"barrier_secs\":{},\"ops\":[",
            self.draining,
            fmt_f64(self.barrier_secs)
        );
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            op.push_json(&mut out);
        }
        let c = &self.check;
        let _ = write!(
            out,
            "],\"check\":{{\"events_published\":{},\"pushed\":{},\"popped\":{},\
             \"stale_drops\":{},\"jobs_submitted\":{},\"jobs_finished\":{},\
             \"jobs_failed\":{},\"clock_secs\":{}}}",
            c.events_published,
            c.pushed,
            c.popped,
            c.stale_drops,
            c.jobs_submitted,
            c.jobs_finished,
            c.jobs_failed,
            fmt_f64(c.clock_secs)
        );
        seal(out)
    }

    /// Parses a snapshot document, refusing unknown formats, frames from
    /// a newer protocol than this build speaks, and sealed documents
    /// whose digest does not match. Errors are located (see the
    /// [module docs](self)).
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let body = text.strip_suffix('\n').ok_or_else(|| {
            format!(
                "byte {}: no final newline; the file is cut short",
                text.len()
            )
        })?;
        let doc = json::parse(body).map_err(|e| format!("byte {}: {}", e.at, e.message))?;
        let format = field(&doc, "", "format", Value::as_str)?;
        if format != SNAPSHOT_FORMAT {
            return Err(format!(
                "format: unsupported snapshot format '{format}' (this build reads {SNAPSHOT_FORMAT})"
            ));
        }
        let proto = field(&doc, "", "proto", Value::as_u64)?;
        if proto > PROTO_VERSION {
            return Err(format!(
                "proto: snapshot written by proto v{proto}, this build speaks v{PROTO_VERSION}"
            ));
        }
        match doc.get("digest") {
            Some(digest) => verify_seal(body, digest)?,
            None => {
                if let Value::Obj(members) = &doc {
                    if let Some((key, _)) = members
                        .iter()
                        .find(|(k, _)| !UNSEALED_FIELDS.contains(&k.as_str()))
                    {
                        return Err(format!(
                            "{key}: unknown field in an unsealed snapshot (no 'digest')"
                        ));
                    }
                }
            }
        }
        let cfg = field(&doc, "", "config", Some)?;
        let policy = field(cfg, "config.", "policy", Value::as_str)?;
        if pdpa_core::by_slug(policy).is_none() {
            return Err(format!("config.policy: unknown policy '{policy}'"));
        }
        let cpus = field(cfg, "config.", "cpus", Value::as_u64)?;
        if cpus == 0 {
            return Err("config.cpus: a machine needs processors".to_string());
        }
        let max_sim_secs = secs(cfg, "config.", "max_sim_secs")?;
        if max_sim_secs == 0.0 {
            return Err("config.max_sim_secs: the horizon must be positive".to_string());
        }
        let config = SnapshotConfig {
            policy: policy.to_string(),
            cpus: cpus as usize,
            seed: field(cfg, "config.", "seed", Value::as_u64)?,
            backfill: field(cfg, "config.", "backfill", Value::as_bool)?,
            max_sim_secs,
        };
        let ops = field(&doc, "", "ops", Value::as_arr)?
            .iter()
            .enumerate()
            .map(|(i, op)| Op::parse(op, i))
            .collect::<Result<Vec<_>, _>>()?;
        let chk = field(&doc, "", "check", Some)?;
        let count = |key: &str| field(chk, "check.", key, Value::as_u64);
        let check = SnapshotCheck {
            events_published: count("events_published")?,
            pushed: count("pushed")?,
            popped: count("popped")?,
            stale_drops: count("stale_drops")?,
            jobs_submitted: count("jobs_submitted")?,
            jobs_finished: count("jobs_finished")?,
            jobs_failed: count("jobs_failed")?,
            clock_secs: secs(chk, "check.", "clock_secs")?,
        };
        Ok(Snapshot {
            proto,
            config,
            draining: field(&doc, "", "draining", Value::as_bool)?,
            barrier_secs: secs(&doc, "", "barrier_secs")?,
            ops,
            check,
        })
    }
}

/// Closes a document whose last member has been written with the digest
/// member, the closing brace and the newline.
fn seal(mut open: String) -> String {
    let digest = fnv1a64(open.as_bytes());
    let _ = writeln!(open, "{DIGEST_MEMBER}{digest:016x}\"}}");
    open
}

/// Checks that `digest` is the last member of `body`, spelled as the
/// writer spells it, and that it hashes everything before it.
fn verify_seal(body: &str, digest: &Value) -> Result<(), String> {
    let hex = digest
        .as_str()
        .filter(|h| h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .ok_or("digest: not 16 lowercase hex digits")?;
    let sealed = body
        .strip_suffix(&format!("{DIGEST_MEMBER}{hex}\"}}"))
        .ok_or("digest: not the document's last member")?;
    let content = fnv1a64(sealed.as_bytes());
    if format!("{content:016x}") != hex {
        return Err(format!(
            "digest: integrity check failed, the content hashes to {content:016x}, not {hex}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            proto: PROTO_VERSION,
            config: SnapshotConfig {
                policy: "pdpa".to_string(),
                cpus: 32,
                seed: 42,
                backfill: true,
                max_sim_secs: 600_000.0,
            },
            draining: false,
            barrier_secs: 1234.5,
            ops: vec![
                Op::Submit {
                    at_secs: 0.0,
                    class: "swim".to_string(),
                    request: Some(16),
                    work_secs: None,
                },
                Op::Submit {
                    at_secs: 10.25,
                    class: "bt.A".to_string(),
                    request: None,
                    work_secs: Some(120.5),
                },
                Op::Cancel {
                    at_secs: 50.0,
                    job: 1,
                },
            ],
            check: SnapshotCheck {
                events_published: 999,
                pushed: 400,
                popped: 380,
                stale_drops: 3,
                jobs_submitted: 2,
                jobs_finished: 1,
                jobs_failed: 1,
                clock_secs: 1200.0,
            },
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = sample();
        let text = snap.to_json();
        assert!(text.ends_with('\n'));
        let back = Snapshot::parse(&text).expect("round trip");
        assert_eq!(back, snap);
    }

    #[test]
    fn a_40k_op_snapshot_parses_in_linear_time() {
        let mut snap = sample();
        snap.ops = (0..40_000)
            .map(|i| Op::Submit {
                at_secs: i as f64 * 0.5,
                class: "hydro2d".to_string(),
                request: Some(8),
                work_secs: Some(2000.0),
            })
            .collect();
        let text = snap.to_json();
        let started = std::time::Instant::now();
        assert_eq!(Snapshot::parse(&text).expect("parses"), snap);
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 2.0, "took {took:?}");
    }

    #[test]
    fn rejects_foreign_formats_and_future_protos() {
        assert!(Snapshot::parse("{\"format\":\"something-else\"}").is_err());
        let future = sample().to_json().replace(
            &format!("\"proto\":{PROTO_VERSION},"),
            &format!("\"proto\":{},", PROTO_VERSION + 1),
        );
        let err = Snapshot::parse(&future).expect_err("future proto refused");
        assert!(err.contains("proto"), "got: {err}");
    }

    /// The sampled document up to its digest member.
    fn open_sample() -> String {
        let text = sample().to_json();
        text[..text.rfind(DIGEST_MEMBER).expect("sealed")].to_string()
    }

    #[test]
    fn unknown_fields_are_ignored() {
        // Additive evolution: a v1 reader skips fields it does not know.
        let text = seal(open_sample().replace(
            "\"draining\":false",
            "\"draining\":false,\"future_field\":[1,2]",
        ));
        assert_eq!(Snapshot::parse(&text).expect("parses"), sample());
    }

    #[test]
    fn unsealed_documents_parse_with_exactly_the_v1_fields() {
        let unsealed = format!("{}}}\n", open_sample());
        assert_eq!(Snapshot::parse(&unsealed).expect("parses"), sample());
        let extra = unsealed.replace("\"draining\":false", "\"draining\":false,\"dhgest\":1");
        let err = Snapshot::parse(&extra).expect_err("unknown field refused");
        assert!(err.starts_with("dhgest: "), "got: {err}");
    }

    #[test]
    fn a_broken_seal_is_refused() {
        let text = sample().to_json();
        let err = Snapshot::parse(&text.replace("\"cpus\":32", "\"cpus\":33"))
            .expect_err("edited content refused");
        assert!(
            err.starts_with("digest: integrity check failed"),
            "got: {err}"
        );
        let err = Snapshot::parse(text.trim_end()).expect_err("cut file refused");
        assert!(err.contains("cut short"), "got: {err}");
    }

    #[test]
    fn out_of_range_values_name_their_field() {
        for (needle, replacement, locator) in [
            ("\"at_secs\":10.25", "\"at_secs\":-1", "ops[1].at_secs: "),
            (
                "\"work_secs\":120.5",
                "\"work_secs\":1e400",
                "ops[1].work_secs: ",
            ),
            ("\"request\":16", "\"request\":\"16\"", "ops[0].request: "),
            (
                "\"barrier_secs\":1234.5",
                "\"barrier_secs\":-2",
                "barrier_secs: ",
            ),
            ("\"cpus\":32", "\"cpus\":0", "config.cpus: "),
            (
                "\"max_sim_secs\":600000",
                "\"max_sim_secs\":0",
                "config.max_sim_secs: ",
            ),
            (
                "\"policy\":\"pdpa\"",
                "\"policy\":\"pdpq\"",
                "config.policy: ",
            ),
            ("\"backfill\":true", "\"backfill\":1", "config.backfill: "),
            (
                "\"clock_secs\":1200",
                "\"clock_secs\":null",
                "check.clock_secs: ",
            ),
        ] {
            let open = open_sample();
            assert!(open.contains(needle), "{needle}");
            let err =
                Snapshot::parse(&seal(open.replace(needle, replacement))).expect_err(replacement);
            assert!(err.starts_with(locator), "{replacement}: got {err}");
        }
    }

    #[test]
    fn malformed_ops_fail_loudly() {
        for (needle, replacement) in [
            ("\"op\":\"submit\",\"at_secs\":0,", "\"op\":\"submit\","),
            ("\"op\":\"cancel\"", "\"op\":\"explode\""),
        ] {
            let text = seal(open_sample().replace(needle, replacement));
            assert!(Snapshot::parse(&text).is_err(), "accepted: {replacement}");
        }
    }
}
