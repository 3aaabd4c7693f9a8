//! Smoke mode end to end: one short traced pass of every workload at
//! tiny scale against the real `kgag serve` binary — spawn, drive,
//! verify, telemetry parse and shutdown.

#[test]
fn smoke_pass_of_every_workload() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_kgbench"))
        .arg("--smoke")
        .output()
        .expect("run kgbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "kgbench --smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for workload in ["interactive", "catalog"] {
        assert!(
            stdout.contains(&format!("smoke {workload}: correct true")),
            "no clean pass of {workload}:\n{stdout}"
        );
    }
}
