//! `kgag serve` refuses a bootstrap checkpoint that holds a NaN or ±∞
//! parameter, in process and as a `--shards` router, before it binds:
//! the process exits non-zero with the typed `NonFinite` message LOAD
//! gives over the wire, and never prints `serving on`. A clean
//! checkpoint still serves.

use kgag::{Kgag, KgagConfig};
use kgag_data::movielens::Scale;
use kgag_data::split::split_dataset;
use kgag_data::yelp::{yelp, YelpConfig};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const KGAG: &str = env!("CARGO_BIN_EXE_kgag");

/// A clean yelp tiny checkpoint and a copy with one `att_b` value NaN,
/// both over the CLI's split seed.
fn checkpoints(dir: &Path) -> (PathBuf, PathBuf) {
    let ds = yelp(&YelpConfig::at_scale(Scale::Tiny));
    let split = split_dataset(&ds, 0x5eed);
    let model = Kgag::new(&ds, &split, KgagConfig::default());
    let clean = dir.join("clean.kgcp");
    std::fs::write(&clean, model.save_checkpoint()).unwrap();
    let mut store = model.store().clone();
    let att_b = store.iter().find(|(_, name, _)| *name == "att_b").expect("att_b").0;
    store.value_mut(att_b).data_mut()[3] = f32::NAN;
    let poisoned = dir.join("poisoned.kgcp");
    let bytes = kgag_tensor::checkpoint::save_tagged(&store, model.config().backend.tag());
    std::fs::write(&poisoned, bytes).unwrap();
    (clean, poisoned)
}

fn serve(checkpoint: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(KGAG);
    cmd.args(["serve", "--dataset", "yelp", "--scale", "tiny", "--checkpoint"])
        .arg(checkpoint)
        .args(extra);
    cmd
}

#[test]
fn a_non_finite_bootstrap_checkpoint_is_refused_before_serving() {
    let dir = std::env::temp_dir().join(format!("kgag_serve_bootstrap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (clean, poisoned) = checkpoints(&dir);

    // in process, and as a router whose peer is never contacted
    for extra in [&[][..], &["--shards", "127.0.0.1:9"][..]] {
        let out = serve(&poisoned, extra).stdin(Stdio::null()).output().expect("run kgag serve");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&out.stdout), String::from_utf8_lossy(&out.stderr));
        assert!(!out.status.success(), "{extra:?}: a poisoned checkpoint served");
        assert!(!stdout.contains("serving on"), "{extra:?}: bound before refusing: {stdout}");
        assert!(
            stderr.contains("non-finite element in 'att_b' at [0, 3]"),
            "{extra:?}: untyped refusal: {stderr}"
        );
    }

    // the clean checkpoint binds and drains on stdin EOF
    let mut child = serve(&clean, &[])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn kgag serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    drop(child.stdin.take());
    // keep reading: the drain summary goes to stdout too
    let _ = std::io::Read::read_to_end(&mut stdout, &mut Vec::new());
    let status = child.wait().expect("server exits");
    assert!(line.starts_with("serving on "), "clean checkpoint said {line:?}");
    assert!(status.success(), "clean server exited with {status}");
    let _ = std::fs::remove_dir_all(&dir);
}
