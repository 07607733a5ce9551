//! The tentpole invariant of `pdpad`: a daemon killed mid-workload and
//! restored from its snapshot emits a decision-event stream *byte
//! identical* to a daemon that was never interrupted.
//!
//! The recipe: drive one daemon through a scripted op sequence to
//! completion (the reference stream), drive a second daemon through the
//! same prefix, snapshot-and-drop it, restore a third from the snapshot
//! file, drive it through the remaining ops, and require
//! `cat pre.stream continuation.stream == reference.stream` exactly.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

use pdpa_daemon::{DaemonConfig, DaemonCore, Op};
use pdpa_watch::{RequestKind, ResponseBody};

static NEXT_DIR: AtomicU32 = AtomicU32::new(0);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pdpa-daemon-{name}-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn config(stream: &std::path::Path) -> DaemonConfig {
    DaemonConfig {
        policy: "pdpa".to_string(),
        cpus: 16,
        seed: 7,
        time_scale: 0.0,
        stream_path: Some(stream.to_string_lossy().into_owned()),
        ..DaemonConfig::default()
    }
}

fn submit(core: &mut DaemonCore, class: &str, request: Option<u64>, work: Option<f64>) -> u64 {
    let body = core.handle(
        &RequestKind::Submit {
            class: class.to_string(),
            request,
            work_secs: work,
        },
        0.0,
    );
    match body {
        ResponseBody::Ack(ack) => ack.job.expect("submit ack carries the job id"),
        other => panic!("submit rejected: {other:?}"),
    }
}

/// The scripted workload, split at the snapshot point. Phase one mixes
/// classes, request overrides, work rescaling, time movement, and a
/// cancellation; phase two admits more work on top of the restored state
/// and drains.
fn phase_one(core: &mut DaemonCore) {
    submit(core, "swim", None, None);
    submit(core, "bt.A", Some(8), None);
    core.advance_to(500.0);
    submit(core, "apsi", None, Some(4_000.0));
    // Long enough to still be alive at the cancellation instant.
    let hydro = submit(core, "hydro2d", Some(4), Some(50_000.0));
    core.advance_to(2_000.0);
    let body = core.handle(&RequestKind::Cancel { job: hydro }, 0.0);
    assert!(matches!(body, ResponseBody::Ack(_)), "cancel: {body:?}");
    core.advance_to(3_000.0);
}

fn phase_two(core: &mut DaemonCore) {
    submit(core, "swim", Some(2), Some(1_500.0));
    submit(core, "bt.A", None, None);
    core.advance_to(10_000.0);
    let body = core.handle(&RequestKind::Drain, 0.0);
    assert!(matches!(body, ResponseBody::Ack(_)), "drain: {body:?}");
}

#[test]
fn restored_daemon_reproduces_the_uninterrupted_stream_byte_for_byte() {
    let dir = scratch_dir("restore");
    let reference = dir.join("reference.stream");
    let pre = dir.join("pre.stream");
    let cont = dir.join("continuation.stream");
    let snap = dir.join("mid.snapshot");

    // Uninterrupted reference run.
    let mut full = DaemonCore::new(config(&reference)).expect("reference core");
    phase_one(&mut full);
    phase_two(&mut full);
    assert!(full.session().all_done(), "reference drained");
    full.flush_stream();

    // Interrupted run: phase one, snapshot, and "kill" (drop).
    let mut first = DaemonCore::new(config(&pre)).expect("first core");
    phase_one(&mut first);
    let body = first.handle(
        &RequestKind::Shutdown {
            snapshot: Some(snap.to_string_lossy().into_owned()),
        },
        0.0,
    );
    assert!(matches!(body, ResponseBody::Ack(_)), "shutdown: {body:?}");
    let ops_at_snapshot = first.journal().len();
    drop(first);

    // Restore and run the remainder.
    let mut second = DaemonCore::restore(&snap.to_string_lossy(), config(&cont))
        .expect("restore succeeds, integrity check included");
    assert_eq!(
        second.journal().len(),
        ops_at_snapshot,
        "the journal survives the restore"
    );
    phase_two(&mut second);
    assert!(second.session().all_done(), "restored run drained");
    second.flush_stream();

    let reference_bytes = std::fs::read(&reference).expect("reference stream");
    let pre_bytes = std::fs::read(&pre).expect("pre stream");
    let cont_bytes = std::fs::read(&cont).expect("continuation stream");
    assert!(!reference_bytes.is_empty(), "reference stream has events");
    assert!(
        !pre_bytes.is_empty() && !cont_bytes.is_empty(),
        "the snapshot point falls strictly inside the stream"
    );
    let stitched = [pre_bytes.as_slice(), cont_bytes.as_slice()].concat();
    assert_eq!(
        stitched, reference_bytes,
        "pre + continuation must equal the uninterrupted stream byte for byte"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_refuses_a_tampered_snapshot() {
    let dir = scratch_dir("tamper");
    let snap = dir.join("run.snapshot");

    let mut core = DaemonCore::new(DaemonConfig {
        policy: "equip".to_string(),
        cpus: 8,
        time_scale: 0.0,
        ..DaemonConfig::default()
    })
    .expect("core");
    submit(&mut core, "swim", None, Some(1_000.0));
    core.advance_to(400.0);
    core.snapshot_to(&snap.to_string_lossy()).expect("snapshot");

    // Edit a check counter: the digest no longer matches the content.
    let text = std::fs::read_to_string(&snap).expect("snapshot text");
    let needle = "\"jobs_submitted\":1";
    assert!(text.contains(needle), "snapshot shape changed: {text}");
    let tampered = text.replace(needle, "\"jobs_submitted\":2");
    std::fs::write(&snap, &tampered).expect("tamper");
    let err = DaemonCore::restore(&snap.to_string_lossy(), DaemonConfig::default())
        .expect_err("tampered snapshot must fail the integrity check");
    assert!(err.contains("digest: integrity"), "got: {err}");

    // Without the seal, the rebuilt session still disagrees with the
    // edited counter.
    std::fs::write(&snap, unsealed(&tampered)).expect("unseal");
    let err = DaemonCore::restore(&snap.to_string_lossy(), DaemonConfig::default())
        .expect_err("tampered snapshot must fail the integrity check");
    assert!(err.contains("check: snapshot integrity"), "got: {err}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_restores_draining_state_and_registry() {
    let dir = scratch_dir("drain-state");
    let snap = dir.join("drained.snapshot");

    let mut core = DaemonCore::new(DaemonConfig {
        time_scale: 0.0,
        ..DaemonConfig::default()
    })
    .expect("core");
    let job = submit(&mut core, "apsi", Some(6), Some(2_000.0));
    core.handle(&RequestKind::Drain, 0.0);
    core.snapshot_to(&snap.to_string_lossy()).expect("snapshot");
    drop(core);

    let mut restored =
        DaemonCore::restore(&snap.to_string_lossy(), DaemonConfig::default()).expect("restore");
    assert!(restored.draining(), "drain survives the snapshot");
    let body = restored.handle(&RequestKind::Job { job }, 0.0);
    let ResponseBody::Job(row) = body else {
        panic!("expected job row, got {body:?}");
    };
    assert_eq!(row.state, "done");
    assert_eq!(row.class, "apsi");
    assert_eq!(row.request, 6);
    // Matches the Op journal the snapshot carried.
    assert_eq!(
        restored.journal(),
        &[Op::Submit {
            at_secs: 0.0,
            class: "apsi".to_string(),
            request: Some(6),
            work_secs: Some(2_000.0),
        }]
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// `text` without its `digest` member: the shape of a snapshot written
/// before snapshots were sealed.
fn unsealed(text: &str) -> String {
    let cut = text.rfind(",\"digest\":\"").expect("sealed snapshot");
    format!("{}}}\n", &text[..cut])
}

/// Asserts `err` names the file and then a location: a byte offset or
/// the path of a snapshot field or journal entry.
fn assert_located(path: &str, err: &str, what: &str) {
    let rest = err
        .strip_prefix(path)
        .and_then(|rest| rest.strip_prefix(": "))
        .unwrap_or_else(|| panic!("{what}: error does not name the file: {err}"));
    let (locator, _) = rest
        .split_once(": ")
        .unwrap_or_else(|| panic!("{what}: error has no location: {err}"));
    let at_byte = locator
        .strip_prefix("byte ")
        .is_some_and(|n| n.parse::<usize>().is_ok());
    let at_field = !locator.is_empty() && !locator.contains(char::is_whitespace);
    assert!(at_byte || at_field, "{what}: unlocated error: {err}");
}

/// Restores `data` from a scratch file, catching panics.
fn restore_bytes(
    file: &std::path::Path,
    data: &[u8],
) -> std::thread::Result<Result<DaemonCore, String>> {
    std::fs::write(file, data).expect("write corrupt snapshot");
    let path = file.to_string_lossy().into_owned();
    std::panic::catch_unwind(|| {
        DaemonCore::restore(
            &path,
            DaemonConfig {
                time_scale: 0.0,
                ..DaemonConfig::default()
            },
        )
    })
}

/// Every prefix and every single-bit flip of one real snapshot.
fn corruptions(bytes: &[u8]) -> impl Iterator<Item = (String, Vec<u8>)> + '_ {
    let cuts = (0..bytes.len()).map(|len| (format!("cut to {len} bytes"), bytes[..len].to_vec()));
    let flips = (0..bytes.len() * 8).map(|i| {
        let mut flipped = bytes.to_vec();
        flipped[i / 8] ^= 1 << (i % 8);
        (format!("bit {} of byte {} flipped", i % 8, i / 8), flipped)
    });
    cuts.chain(flips)
}

fn phase_one_snapshot(dir: &std::path::Path) -> Vec<u8> {
    let mut core = DaemonCore::new(config(&dir.join("edge.stream"))).expect("core");
    phase_one(&mut core);
    let snap = dir.join("good.snapshot");
    core.snapshot_to(&snap.to_string_lossy()).expect("snapshot");
    std::fs::read(&snap).expect("snapshot bytes")
}

#[test]
fn truncated_or_bit_flipped_snapshots_fail_located_and_never_panic() {
    let dir = scratch_dir("edge");
    let bytes = phase_one_snapshot(&dir);
    let file = dir.join("corrupt.snapshot");
    let path = file.to_string_lossy().into_owned();
    for (what, data) in corruptions(&bytes) {
        match restore_bytes(&file, &data) {
            Err(_) => panic!("{what}: restore panicked"),
            Ok(Ok(_)) => panic!("{what}: restore accepted a corrupted snapshot"),
            Ok(Err(err)) => assert_located(&path, &err, &what),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_unsealed_snapshots_never_panic() {
    // Without the digest a flip can yield another valid snapshot, so a
    // restore may succeed; what must hold is no panic and located errors.
    let dir = scratch_dir("edge-unsealed");
    let sealed = phase_one_snapshot(&dir);
    let bytes = unsealed(std::str::from_utf8(&sealed).expect("UTF-8")).into_bytes();
    let file = dir.join("corrupt.snapshot");
    let path = file.to_string_lossy().into_owned();
    assert!(restore_bytes(&file, &bytes).expect("no panic").is_ok());
    for (what, data) in corruptions(&bytes) {
        match restore_bytes(&file, &data) {
            Err(_) => panic!("{what}: restore panicked"),
            Ok(Ok(_)) => {}
            Ok(Err(err)) => assert_located(&path, &err, &what),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cancel_of_a_job_id_past_u32_is_refused_not_truncated() {
    let dir = scratch_dir("edge-cancel");
    let sealed = phase_one_snapshot(&dir);
    let text = unsealed(std::str::from_utf8(&sealed).expect("UTF-8"));
    let needle = "{\"op\":\"cancel\",\"at_secs\":2000,\"job\":3}";
    assert!(text.contains(needle), "snapshot shape changed: {text}");
    // 2^32 + 3 would alias job 3 if truncated to a u32.
    let wide = text.replace(
        needle,
        "{\"op\":\"cancel\",\"at_secs\":2000,\"job\":4294967299}",
    );
    let file = dir.join("wide.snapshot");
    let err = match restore_bytes(&file, wide.as_bytes()).expect("no panic") {
        Ok(_) => panic!("restore accepted a cancel of job 4294967299"),
        Err(err) => err,
    };
    let path = file.to_string_lossy();
    assert!(
        err.starts_with(&format!(
            "{path}: ops[4]: journal replay: cancel of unknown job"
        )),
        "got: {err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
